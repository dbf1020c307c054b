//! A cost-only machine runs the solver's restart cycle command for command.
//!
//! `MultiGpu::cost_only` builds the machine whose buffers carry their shape
//! and whose kernels are charged without computing; `System` on it is
//! shape-only. This binary pins what the planner's predict-by-execution,
//! and the generator choice made the same way, rest on:
//!
//! * one traced CA cycle per TSQR kind issues, on both machines, the same
//!   per-device `Cmd` streams (kernel names, modelled durations, copy bytes,
//!   event order), the same `CommCounters`, op counts and `mem_used()`;
//! * a cost-only `System::new` plus a cycle at n = 200 000 requests less
//!   than a mebibyte from the heap, no block of it row-sized;
//! * a lost cost-only device is as inert as a lost arithmetic one;
//! * `mpk::fastest_kernel`, which times one MPK block and one SpMV block on
//!   a cost-only twin, picks the generator a dry run on the live machine
//!   picks.
//!
//! One `#[test]` only: the allocation counters are process-wide.

use ca_gmres::mpk::{fastest_kernel, mpk, spmv_block};
use ca_gmres::orth::OrthError;
use ca_gmres::prelude::*;
use ca_gpusim::{Cmd, CommCounters, FaultPlan, GpuSimError, KernelConfig, MultiGpu, PerfModel};
use ca_sparse::gen::{cantilever, circuit, convection_diffusion, laplace2d};
use ca_sparse::Csr;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System as SystemAlloc};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if ARMED.load(Relaxed) {
        LARGEST.fetch_max(bytes, Relaxed);
        TOTAL.fetch_add(bytes, Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to the system allocator; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(bytes requested in total, largest single request)` while `f` ran.
fn requested(f: impl FnOnce()) -> (usize, usize) {
    LARGEST.store(0, Relaxed);
    TOTAL.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    f();
    ARMED.store(false, Relaxed);
    (TOTAL.load(Relaxed), LARGEST.load(Relaxed))
}

const M: usize = 12;
const S: usize = 4;

/// A cyclic shift: started from `e_0` it generates `e_1, e_2, …`, so no
/// Gram-Schmidt column ever cancels (fused CGS stays on its fast path).
fn cyclic_shift(n: usize) -> Csr {
    let cols = (0..n as u32).map(|i| (i + n as u32 - 1) % n as u32).collect();
    Csr::from_raw(n, n, (0..=n).collect(), cols, vec![1.0; n])
}

fn machine(cost_only: bool, ndev: usize) -> MultiGpu {
    let (model, config) = (PerfModel::default(), KernelConfig::default());
    if cost_only {
        MultiGpu::cost_only(ndev, model, config)
    } else {
        MultiGpu::new(ndev, model, config)
    }
}

/// Everything one traced cycle leaves observable on a machine.
#[derive(Debug, PartialEq)]
struct Ran {
    traces: Vec<Vec<Cmd>>,
    counters: CommCounters,
    mem_used: Vec<usize>,
    ops: Vec<u64>,
    lost: Vec<bool>,
    clocks: Vec<u64>,
    end: Result<usize, GpuSimError>,
    phases: [u64; 4],
}

/// Load `b`, take the residual, then trace one full-length CA cycle from
/// clocks at zero.
fn traced_cycle(
    cost_only: bool,
    a: &Csr,
    b: &[f64],
    ndev: usize,
    cfg: &CaGmresConfig,
    plan: Option<FaultPlan>,
) -> Ran {
    let mut mg = machine(cost_only, ndev);
    let layout = Layout::even(a.nrows(), ndev);
    let sys = System::new(&mut mg, a, layout, M, Some(S)).unwrap();
    sys.load_rhs(&mut mg, b).unwrap();
    let beta = sys.residual_norm(&mut mg).unwrap();
    assert!(beta > 0.0);
    mg.reset_time();
    mg.enable_trace();
    if let Some(plan) = plan {
        mg.set_fault_plan(plan);
    }
    let mut stats = SolveStats::default();
    let spec = BasisSpec::monomial(S);
    let end = ca_cycle(&mut mg, &sys, cfg, &spec, (beta, -1.0), &mut stats).map_err(|e| match e {
        OrthError::Gpu(e) => e,
        e => panic!("{e}"),
    });
    let devs = 0..ndev;
    Ran {
        traces: mg.take_traces(),
        counters: mg.counters(),
        mem_used: devs.clone().map(|d| mg.device(d).mem_used()).collect(),
        ops: devs.clone().map(|d| mg.device(d).ops()).collect(),
        lost: devs.clone().map(|d| mg.device(d).is_lost()).collect(),
        clocks: devs.map(|d| mg.device(d).clock().to_bits()).collect(),
        end,
        phases: [stats.t_spmv, stats.t_orth, stats.t_tsqr, stats.t_small].map(f64::to_bits),
    }
}

fn cfg(tsqr: TsqrKind, kernel: KernelMode) -> CaGmresConfig {
    CaGmresConfig {
        s: S,
        m: M,
        kernel,
        orth: OrthConfig { tsqr, ..OrthConfig::default() },
        ..CaGmresConfig::default()
    }
}

const TSQRS: [TsqrKind; 8] = [
    TsqrKind::Mgs,
    TsqrKind::Cgs,
    TsqrKind::CgsFused,
    TsqrKind::CholQr,
    TsqrKind::CholQrMixed,
    TsqrKind::SvQr,
    TsqrKind::Caqr,
    TsqrKind::CaqrTree,
];

fn cost_only_replays_the_arithmetic_command_stream() {
    let grid = laplace2d(24, 24);
    let grid_b: Vec<f64> = (0..grid.nrows()).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let shift = cyclic_shift(600);
    let mut shift_b = vec![0.0; 600];
    shift_b[0] = 1.0;
    for tsqr in TSQRS {
        // fused CGS pays an extra reduction for every column that cancels —
        // the one data-dependent charge — so it is compared where none does
        let (a, b) = if tsqr == TsqrKind::CgsFused { (&shift, &shift_b) } else { (&grid, &grid_b) };
        for (kernel, ndev) in [(KernelMode::Mpk, 3), (KernelMode::Spmv, 2), (KernelMode::Mpk, 1)] {
            let cfg = cfg(tsqr, kernel);
            let arith = traced_cycle(false, a, b, ndev, &cfg, None);
            let cost = traced_cycle(true, a, b, ndev, &cfg, None);
            assert_eq!(arith.end, Ok(M), "{tsqr} {kernel:?} on {ndev}: the cycle ran short");
            assert!(arith.traces.iter().all(|t| t.len() > 50));
            assert_eq!(arith, cost, "{tsqr} {kernel:?} on {ndev} devices");
        }
    }
}

fn a_lost_cost_only_device_is_as_inert_as_a_lost_arithmetic_one() {
    let a = laplace2d(24, 24);
    let b = vec![1.0; a.nrows()];
    let cfg = cfg(TsqrKind::CholQr, KernelMode::Mpk);
    // device 1 dies inside the second block's orthogonalization
    let plan = FaultPlan::new(0).with_device_loss(1, 40);
    let arith = traced_cycle(false, &a, &b, 3, &cfg, Some(plan.clone()));
    let cost = traced_cycle(true, &a, &b, 3, &cfg, Some(plan));
    assert_eq!(arith.end, Err(GpuSimError::DeviceLost { device: 1 }));
    assert_eq!(arith.lost, [false, true, false]);
    assert_eq!(arith.ops[1], 41, "40 ops complete; the 41st kills the device");
    assert_eq!(arith, cost);
}

fn a_cost_only_system_holds_nothing_row_sized() {
    // a long strip: halos of 20 rows a level, so what is boundary-sized
    // stays small and anything row-sized would show
    let a = laplace2d(10_000, 20);
    let (n, ndev, m, s) = (a.nrows(), 3, 60, 10);
    assert_eq!(n, 200_000);
    let layout = Layout::even(n, ndev);
    let cfg = CaGmresConfig { s, m, ..CaGmresConfig::default() };
    let mut mem_used = 0;
    let (total, largest) = requested(|| {
        let mut mg = machine(true, ndev);
        let sys = System::new(&mut mg, &a, layout, m, Some(s)).unwrap();
        let mut stats = SolveStats::default();
        let spec = BasisSpec::monomial(s);
        ca_cycle(&mut mg, &sys, &cfg, &spec, (1.0, -1.0), &mut stats).unwrap();
        assert_eq!(stats.total_iters, m);
        mem_used = mg.device(0).mem_used();
    });
    // the device accounts for the basis panel, four work vectors and the
    // slices as if they were there
    assert!(mem_used > 8 * (n / ndev) * (m + 4) + 4 * 8 * n, "device 0 charged {mem_used} B");
    assert!(total < 1 << 20, "a cost-only system and cycle requested {total} B");
    assert!(largest < 8 * n, "the largest request was {largest} B");
}

/// The generator choice as a dry run on the live machine makes it — the
/// reference the twin replaced: with the right-hand side loaded, one MPK
/// block and then one SpMV block from the `b` column, each timed between
/// flattened clocks. MPK wins ties.
fn live_dry_run(mg: &mut MultiGpu, a: &Csr, layout: &Layout, s: usize) -> KernelMode {
    let sys = System::new(mg, a, layout.clone(), 2 * s, Some(s)).unwrap();
    sys.load_rhs(mg, &vec![1.0; a.nrows()]).unwrap();
    let spec = BasisSpec::monomial(s);
    mg.sync();
    let bc = sys.b_col();
    mg.run(|d, dev| dev.copy_col(sys.v[d], bc, 0));
    let t0 = mg.time();
    mpk(mg, sys.mpk.as_ref().unwrap(), &sys.v, 0, &spec).unwrap();
    mg.sync();
    let t1 = mg.time();
    spmv_block(mg, &sys.spmv, &sys.v, 0, &spec).unwrap();
    mg.sync();
    if t1 - t0 <= mg.time() - t1 {
        KernelMode::Mpk
    } else {
        KernelMode::Spmv
    }
}

fn the_twin_picks_what_a_live_dry_run_picks() {
    let matrices = [
        ("laplace2d", laplace2d(40, 40)),
        ("cantilever", cantilever(8, 8, 8)),
        ("convection_diffusion", convection_diffusion(40, 40, 3.0)),
        ("circuit", circuit(1500, 7)),
    ];
    let mut picks = Vec::new();
    for (name, a) in &matrices {
        for ndev in 1..=3 {
            let (a, _, layout) = prepare(a, Ordering::Natural, ndev);
            for s in [4, 10] {
                let twin = fastest_kernel(&MultiGpu::with_defaults(ndev), &a, &layout, s);
                let live = live_dry_run(&mut MultiGpu::with_defaults(ndev), &a, &layout, s);
                assert_eq!(twin, live, "{name} on {ndev} devices at s = {s}");
                picks.push(twin);
            }
        }
    }
    // the two-node machine of ext_multinode: six devices striped over the
    // nodes, the network latency at its default and at four times that
    let (a, _, layout) = prepare(&circuit(3000, 3), Ordering::Kway, 6);
    for lat_scale in [1.0, 4.0] {
        let mut model = PerfModel::default();
        model.net_latency_s *= lat_scale;
        let machine = || {
            MultiGpu::with_topology(vec![0, 1, 0, 1, 0, 1], model.clone(), KernelConfig::default())
        };
        let twin = fastest_kernel(&machine(), &a, &layout, 10);
        let live = live_dry_run(&mut machine(), &a, &layout, 10);
        assert_eq!(twin, live, "two nodes, network latency x{lat_scale}");
        picks.push(twin);
    }
    assert!(picks.contains(&KernelMode::Mpk) && picks.contains(&KernelMode::Spmv), "{picks:?}");
}

#[test]
fn cost_only_machine_predicts_the_arithmetic_one() {
    cost_only_replays_the_arithmetic_command_stream();
    a_lost_cost_only_device_is_as_inert_as_a_lost_arithmetic_one();
    a_cost_only_system_holds_nothing_row_sized();
    the_twin_picks_what_a_live_dry_run_picks();
}
