#![allow(clippy::needless_range_loop)]

//! Determinism and device-count invariance of the whole stack — critical
//! for a simulator whose claims rest on reproducible clocks.

use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{Cmd, FaultPlan, MultiGpu, Schedule, SdcTargets};
use ca_gmres_repro::sparse::{gen, perm};

fn solve_once(ndev: usize, s: usize) -> (Vec<f64>, f64, u64, usize) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, ndev);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(ndev);
    let cfg = CaGmresConfig { s, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    (x, out.stats.t_total, out.stats.comm_msgs, out.stats.total_iters)
}

#[test]
fn repeated_solves_are_bitwise_identical() {
    let (x1, t1, m1, i1) = solve_once(3, 6);
    let (x2, t2, m2, i2) = solve_once(3, 6);
    assert_eq!(x1, x2, "solutions must be bitwise identical");
    assert_eq!(t1, t2, "simulated clocks must be deterministic");
    assert_eq!(m1, m2);
    assert_eq!(i1, i2);
}

#[test]
fn simulated_time_is_identical_across_reruns() {
    // device clocks are computed analytically, so wall-clock jitter must
    // not leak in
    let times: Vec<f64> = (0..3).map(|_| solve_once(2, 4).1).collect();
    assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
}

#[test]
fn gmres_iteration_path_invariant_across_device_counts() {
    // block-row split does not change per-row summation order, so the
    // Krylov process is identical for 1, 2, 3 devices with natural order
    let a = gen::laplace2d(12, 12);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut results = Vec::new();
    for ndev in 1..=3usize {
        let (a_ord, p, layout) = prepare(&a, Ordering::Natural, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let sys = System::new(&mut mg, &a_ord, layout, 20, None).unwrap();
        sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
        let out = gmres(
            &mut mg,
            &sys,
            &GmresConfig { m: 20, orth: BorthKind::Mgs, rtol: 1e-8, max_restarts: 200 },
        );
        assert!(out.stats.converged);
        results.push((
            out.stats.total_iters,
            perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p),
        ));
    }
    for w in results.windows(2) {
        assert_eq!(w[0].0, w[1].0, "iteration counts must match across device counts");
        for i in 0..n {
            assert!((w[0].1[i] - w[1].1[i]).abs() < 1e-8);
        }
    }
}

#[test]
fn more_devices_never_slow_down_large_spmv() {
    // weak sanity on the cost model: a bandwidth-bound SpMV-heavy workload
    // gets faster (simulated) with more devices
    let a = gen::cantilever(10, 10, 10);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
    let mut last = f64::INFINITY;
    for ndev in 1..=3usize {
        let (a_ord, p, layout) = prepare(&a, Ordering::Natural, ndev);
        let mut mg = MultiGpu::with_defaults(ndev);
        let sys = System::new(&mut mg, &a_ord, layout, 30, None).unwrap();
        sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
        let out = gmres(
            &mut mg,
            &sys,
            &GmresConfig { m: 30, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 2 },
        );
        assert!(
            out.stats.t_total < last * 1.02,
            "{ndev} devices slower: {} vs {last}",
            out.stats.t_total
        );
        last = out.stats.t_total;
    }
}

#[test]
fn mem_accounting_grows_with_s() {
    use ca_gmres_repro::gmres::mpk::{MpkPlan, MpkState};
    let a = gen::laplace2d(20, 20);
    let layout = Layout::even(a.nrows(), 2);
    let mut prev = 0usize;
    for s in [1usize, 3, 6] {
        let mut mg = MultiGpu::with_defaults(2);
        let _st = MpkState::load(&mut mg, &a, MpkPlan::new(&a, &layout, s)).unwrap();
        let used: usize = (0..2).map(|d| mg.device(d).mem_used()).sum();
        assert!(used > prev, "memory must grow with s");
        prev = used;
    }
}

/// Run the full CA-GMRES solve with an optional fault plan installed and
/// return everything observable: solution bits, clock bits, counters.
fn solve_with_plan(plan: Option<FaultPlan>) -> (Vec<u64>, u64, u64, u64, usize) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    if let Some(plan) = plan {
        mg.set_fault_plan(plan);
    }
    let cfg = CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    (
        x.iter().map(|v| v.to_bits()).collect(),
        out.stats.t_total.to_bits(),
        out.stats.comm_msgs,
        out.stats.comm_bytes,
        out.stats.total_iters,
    )
}

/// Property (fault-injection substrate): a plan with every rate at zero is
/// observationally identical to running with no plan installed — same
/// solution bits, same simulated clock bits, same traffic counters.
#[test]
fn zero_rate_fault_plan_is_bit_identical_to_baseline() {
    let baseline = solve_with_plan(None);
    // several seeds: the seed must be irrelevant when no fault can fire
    for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
        let zeroed = solve_with_plan(Some(FaultPlan::new(seed)));
        assert_eq!(baseline, zeroed, "seed {seed} perturbed a zero-rate run");
    }
    // rate-0 SDC with all targets enabled is still a zero-rate plan
    let explicit = solve_with_plan(Some(
        FaultPlan::new(7).with_sdc(0.0, SdcTargets::all()).with_transfer_faults(0.0),
    ));
    assert_eq!(baseline, explicit);
}

/// Event-driven CA-GMRES under a fault plan, with per-device command
/// traces recorded: everything observable, including the scheduled queues.
#[allow(clippy::type_complexity)]
fn solve_event_driven_traced() -> (Vec<u64>, u64, u64, u64, usize, Vec<Vec<Cmd>>) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_schedule(Schedule::EventDriven);
    mg.set_fault_plan(FaultPlan::new(1234).with_transfer_faults(0.02));
    mg.enable_trace();
    let cfg = CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    (
        x.iter().map(|v| v.to_bits()).collect(),
        out.stats.t_total.to_bits(),
        out.stats.comm_msgs,
        out.stats.comm_bytes,
        out.stats.total_iters,
        mg.take_traces(),
    )
}

/// The full CA-GMRES solve, optionally under a `ca-obs` recording session
/// with device command tracing — the maximal instrumentation load.
#[allow(clippy::type_complexity)]
fn solve_maybe_instrumented(instrument: bool) -> (Vec<u64>, [u64; 5], u64, u64, usize) {
    use ca_gmres_repro::gpusim::obs_ingest_traces;
    use ca_gmres_repro::obs;
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    if instrument {
        obs::start();
        mg.enable_trace();
    }
    let cfg = CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    if instrument {
        obs_ingest_traces(&mg.take_traces());
        let rec = obs::finish();
        assert!(!rec.is_empty(), "instrumented run must actually record");
        rec.check_well_nested().unwrap_or_else(|e| panic!("not well-nested: {e}"));
    }
    let s = &out.stats;
    (
        x.iter().map(|v| v.to_bits()).collect(),
        [
            s.t_total.to_bits(),
            s.t_spmv.to_bits(),
            s.t_orth.to_bits(),
            s.t_tsqr.to_bits(),
            s.t_small.to_bits(),
        ],
        s.comm_msgs,
        s.comm_bytes,
        s.total_iters,
    )
}

/// Property (observability layer): recording is pure observation. A solve
/// under a full obs session — host spans, metric registry, device command
/// tracing, post-hoc trace ingestion — is bit-identical to the same solve
/// with no recorder attached: same solution bits, same clock bits for
/// every phase bucket, same traffic counters, same iteration count.
#[test]
fn instrumented_run_is_bit_identical_to_uninstrumented() {
    let plain = solve_maybe_instrumented(false);
    let recorded = solve_maybe_instrumented(true);
    assert_eq!(plain.0, recorded.0, "recording perturbed the solution bits");
    assert_eq!(plain.1, recorded.1, "recording perturbed the simulated phase clocks");
    assert_eq!(
        (plain.2, plain.3, plain.4),
        (recorded.2, recorded.3, recorded.4),
        "recording perturbed traffic or iteration counters"
    );
}

/// Property (scalar-generic refactor): the f64 instantiation of the
/// generic kernel stack is bit-identical to the pre-refactor pure-f64
/// code. The golden digests below were recorded on the commit *before*
/// the `Scalar` trait was threaded through the kernels; any change to
/// them means the refactor altered f64 arithmetic or the cost model,
/// which the ISSUE forbids. The clock alone was re-recorded once since
/// (`0x3f78c385be1dade6` before): when a basis vector became one launch
/// the command stream got shorter and nothing else moved.
#[test]
fn f64_generic_stack_matches_pre_refactor_golden_digests() {
    let (xbits, t_bits, msgs, bytes, iters) = solve_with_plan(None);
    // byte-wise FNV-1a over the little-endian solution bits
    let mut h = ca_gmres_repro::obs::Fnv1a::default();
    xbits.iter().for_each(|&w| h.word(w));
    let x_hash = h.finish();
    assert_eq!(x_hash, 0xf9b6833b480543f7, "solution bits drifted from the pre-refactor stack");
    assert_eq!(t_bits, 0x3f748c89a88df9bb, "simulated clock drifted from the pre-refactor stack");
    assert_eq!(msgs, 600, "message count drifted from the pre-refactor stack");
    assert_eq!(bytes, 96360, "traffic bytes drifted from the pre-refactor stack");
    assert_eq!(iters, 66, "iteration path drifted from the pre-refactor stack");
}

/// Property (host threads): a solve above `MultiGpu::run_map`'s thread
/// grain — ≥ 4096 rows of basis panel on every device, so on a multi-core
/// host the three devices' commands run on different threads — has the
/// bits of the single-threaded host. The golden was recorded at the commit
/// before `run_map` threaded, where every device ran on the calling thread.
#[test]
fn above_grain_solve_matches_single_thread_golden() {
    let a = gen::convection_diffusion(130, 130, 2.0);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    let cfg = CaGmresConfig { s: 10, m: 60, rtol: 1e-8, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let rows: Vec<usize> = (0..3).map(|d| mg.device(d).mat(sys.v[d]).nrows()).collect();
    assert_eq!(rows, [5642, 5639, 5619], "the solve must stay above the 4096-row grain");
    let out = ca_gmres(&mut mg, &sys, &cfg);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    let mut h = ca_gmres_repro::obs::Fnv1a::default();
    x.iter().for_each(|v| h.word(v.to_bits()));
    let s = &out.stats;
    assert!(s.converged);
    assert_eq!(h.finish(), 0x568212971490c731, "solution bits");
    let clocks = [s.t_total, s.t_spmv, s.t_orth, s.t_tsqr, s.t_small].map(f64::to_bits);
    assert_eq!(
        clocks,
        [
            0x3fa15ab704bb1f14,
            0x3f921c3e5da251df,
            0x3f8fb2b45e8f4d9e,
            0x3f6c7c804a7f3570,
            0x3f10967bbeb53800
        ],
        "simulated clocks"
    );
    assert_eq!((s.comm_msgs, s.comm_bytes), (2022, 5022072), "traffic");
    assert_eq!((s.total_iters, s.restarts), (523, 9), "iteration path");
}

/// The mixed-precision driver (f32 basis + f64 refinement) with
/// everything observable: solution bits, clock bits, counters including
/// the f32-tagged byte lanes.
#[allow(clippy::type_complexity)]
fn solve_mixed_once() -> (Vec<u64>, u64, u64, u64, u64, usize, bool) {
    use ca_gmres_repro::scalar::Precision;
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    let cfg = CaGmresConfig {
        s: 6,
        m: 24,
        rtol: 1e-9,
        max_restarts: 300,
        mpk_prec: Precision::F32,
        ..Default::default()
    };
    let out = ca_gmres_mixed(&mut mg, &a_ord, &perm::permute_vec(&b, &p), layout, &cfg).unwrap();
    assert!(out.stats.converged);
    let counters = mg.counters();
    assert!(counters.total_bytes_f32() > 0, "mixed run must move f32-tagged halo bytes");
    let x = perm::unpermute_vec(&out.x, &p);
    (
        x.iter().map(|v| v.to_bits()).collect(),
        out.stats.t_total.to_bits(),
        out.stats.comm_msgs,
        out.stats.comm_bytes,
        counters.total_bytes_f32(),
        out.stats.total_iters,
        out.escalated,
    )
}

/// Property (mixed precision): the f32-basis solve is as deterministic as
/// the f64 one — repeated runs are bitwise identical in solution, clocks,
/// and every counter, including the precision-labelled byte lanes.
#[test]
fn mixed_precision_solve_is_bitwise_reproducible() {
    let r1 = solve_mixed_once();
    let r2 = solve_mixed_once();
    assert!(!r1.6, "well-conditioned Newton basis must not escalate");
    assert_eq!(r1, r2, "mixed-precision replay diverged");
}

/// The fault-tolerant driver on a healthy machine, with an optional
/// numerical-health ladder armed. Returns everything observable plus the
/// monitor's own activity counters.
#[allow(clippy::type_complexity)]
fn solve_ft_with_ladder(ladder: Option<Ladder>) -> ((Vec<u64>, u64, u64, u64, usize), u64, usize) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut cfg = FtConfig { ladder, ..Default::default() };
    cfg.solver.s = 6;
    cfg.solver.m = 24;
    cfg.solver.rtol = 1e-9;
    cfg.solver.max_restarts = 300;
    let mg = MultiGpu::with_defaults(3);
    let out = ca_gmres_ft(mg, &a, &b, &cfg);
    assert!(out.stats.converged);
    (
        (
            out.x.iter().map(|v| v.to_bits()).collect(),
            out.stats.t_total.to_bits(),
            out.stats.comm_msgs,
            out.stats.comm_bytes,
            out.stats.total_iters,
        ),
        out.report.cond_checks,
        out.report.escalations.len(),
    )
}

/// Property (numerical-health monitor): arming the basis-condition
/// monitor and the full escalation ladder on a healthy solve is
/// bit-invisible — same solution bits, same simulated clock bits, same
/// traffic counters — because the monitor reads only host-resident TSQR
/// factors and uncharged checkpoint-style block norms. The armed run
/// must nonetheless *observe* (condition records accumulate) while
/// escalating exactly zero times.
#[test]
fn armed_ladder_on_healthy_run_is_bit_invisible() {
    let (plain, plain_checks, _) = solve_ft_with_ladder(None);
    let (armed, armed_checks, escalations) = solve_ft_with_ladder(Some(Ladder::default()));
    assert_eq!(plain_checks, 0, "disarmed run must not record condition estimates");
    assert!(armed_checks > 0, "armed monitor never recorded a condition estimate");
    assert_eq!(escalations, 0, "healthy run must not escalate");
    assert_eq!(plain.0, armed.0, "armed monitor perturbed the solution bits");
    assert_eq!(plain.1, armed.1, "armed monitor perturbed the simulated clock");
    assert_eq!(
        (plain.2, plain.3, plain.4),
        (armed.2, armed.3, armed.4),
        "armed monitor perturbed traffic or iteration counters"
    );
}

/// Property (stream executor): replaying the queues with the same
/// `FaultPlan` seed is bit-identical — same solution bits, same clock
/// bits, same counters, and command-for-command identical per-device
/// traces (timestamps included).
#[test]
fn event_driven_queue_replay_with_fault_plan_is_bit_identical() {
    let r1 = solve_event_driven_traced();
    let r2 = solve_event_driven_traced();
    assert_eq!(r1.0, r2.0, "solution bits diverged across replays");
    assert_eq!(r1.1, r2.1, "simulated clock bits diverged across replays");
    assert_eq!((r1.2, r1.3, r1.4), (r2.2, r2.3, r2.4), "counters diverged");
    assert_eq!(r1.5.len(), r2.5.len());
    assert!(r1.5.iter().all(|t| !t.is_empty()), "traces must be non-trivial");
    assert!(r1.5 == r2.5, "per-device command traces diverged across replays");
}
