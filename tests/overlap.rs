//! Stream/event scheduling invariants.
//!
//! The executor's two schedules must relate the same way CUDA streams
//! relate to a fully synchronized launch sequence:
//!
//! * the event-driven time of *any* program never exceeds its fully
//!   synchronous (barrier) time — removing barriers only removes waiting;
//! * numerics and communication counters are schedule-invariant, because
//!   arithmetic executes eagerly in program order under both policies.

use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{MultiGpu, Schedule};
use ca_gmres_repro::sparse::{gen, perm};

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 33
}

/// Run a pseudo-random program of imbalanced kernels, transfers both ways,
/// and host compute under the given schedule, with a `sync()` after every
/// op (a no-op when event-driven). Returns end-to-end simulated time.
fn run_program(seed: u64, schedule: Schedule) -> f64 {
    let ndev = 3;
    let mut mg = MultiGpu::with_defaults(ndev);
    mg.set_schedule(schedule);
    let mats: Vec<_> =
        (0..ndev).map(|d| mg.device_mut(d).alloc_mat(20_000 * (d + 1), 4).unwrap()).collect();
    let mut rng = seed;
    for _ in 0..60 {
        match lcg(&mut rng) % 4 {
            0 => {
                let reps = (lcg(&mut rng) % 3 + 1) as usize;
                mg.run(|d, dev| {
                    // device-dependent work => imbalance for barriers to waste
                    for _ in 0..reps * (d + 1) {
                        dev.dot_cols(mats[d], 0, 1);
                    }
                });
            }
            1 => {
                let b = 8usize << (lcg(&mut rng) % 12);
                mg.to_host(&vec![b; ndev]).unwrap();
            }
            2 => {
                let b = 8usize << (lcg(&mut rng) % 12);
                mg.to_devices(&vec![b; ndev]).unwrap();
            }
            _ => mg.host_compute(1e6, 1e5),
        }
        mg.sync();
    }
    mg.time()
}

/// Property (a): for any program, event-driven time <= synchronous time.
#[test]
fn event_schedule_never_exceeds_synchronous_schedule() {
    let mut strictly_faster = 0;
    for seed in 0..16u64 {
        let t_sync = run_program(seed, Schedule::Barrier);
        let t_event = run_program(seed, Schedule::EventDriven);
        assert!(
            t_event <= t_sync * (1.0 + 1e-12),
            "seed {seed}: event-driven {t_event} exceeds synchronous {t_sync}"
        );
        if t_event < t_sync {
            strictly_faster += 1;
        }
    }
    assert!(strictly_faster > 0, "overlap never strictly won on any of the programs");
}

/// Full CA-GMRES solve under a schedule: solution bits, residual bits,
/// iteration path, counters, end-to-end time.
fn solve(schedule: Schedule) -> (Vec<u64>, u64, usize, u64, u64, f64) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, 3);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_schedule(schedule);
    let cfg = CaGmresConfig { s: 6, m: 24, rtol: 1e-9, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(cfg.s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    assert!(out.stats.converged);
    let x = perm::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &p);
    (
        x.iter().map(|v| v.to_bits()).collect(),
        out.stats.final_relres.to_bits(),
        out.stats.total_iters,
        out.stats.comm_msgs,
        out.stats.comm_bytes,
        out.stats.t_total,
    )
}

/// Properties (b numerics, c counters): eager (barrier) and enqueued
/// (event-driven) execution of the same solve produce bit-identical
/// residual histories and identical CommCounters — and the event-driven
/// schedule finishes strictly earlier in simulated time.
#[test]
fn solver_numerics_and_counters_are_schedule_invariant() {
    let (x_s, res_s, it_s, msgs_s, bytes_s, t_sync) = solve(Schedule::Barrier);
    let (x_e, res_e, it_e, msgs_e, bytes_e, t_event) = solve(Schedule::EventDriven);
    assert_eq!(x_s, x_e, "solution bits must not depend on the schedule");
    assert_eq!(res_s, res_e, "residual history must be bit-identical");
    assert_eq!(it_s, it_e, "iteration path must be identical");
    assert_eq!(msgs_s, msgs_e, "message counters identical eager vs enqueued");
    assert_eq!(bytes_s, bytes_e, "byte counters identical eager vs enqueued");
    assert!(
        t_event < t_sync,
        "event-driven schedule should strictly beat barriers: {t_event} vs {t_sync}"
    );
}

/// The prefetch mechanism in isolation: a host→device copy issued before
/// independent device work is hidden under that work by the event-driven
/// schedule, and honored as a dependency by the wait.
#[test]
fn async_prefetch_is_hidden_under_independent_work() {
    let mut mg = MultiGpu::with_defaults(2);
    let mats: Vec<_> = (0..2).map(|d| mg.device_mut(d).alloc_mat(150_000, 2).unwrap()).collect();
    // issue next-block prefetch, then compute the current block
    let events = mg
        .to_devices_async(&[2_000_000, 2_000_000], ca_gmres_repro::scalar::Precision::F64)
        .unwrap();
    mg.run(|d, dev| {
        for _ in 0..4 {
            dev.dot_cols(mats[d], 0, 1);
        }
    });
    let compute_only = mg.device(0).clock();
    for (d, e) in events.iter().enumerate() {
        if let Some(e) = e {
            mg.wait_event(d, *e).unwrap();
        }
    }
    let t_overlapped = mg.time();
    // serial reference: transfer first, compute after
    let mut serial = MultiGpu::with_defaults(2);
    let smats: Vec<_> =
        (0..2).map(|d| serial.device_mut(d).alloc_mat(150_000, 2).unwrap()).collect();
    serial.to_devices(&[2_000_000, 2_000_000]).unwrap();
    serial.run(|d, dev| {
        for _ in 0..4 {
            dev.dot_cols(smats[d], 0, 1);
        }
    });
    let t_serial = serial.time();
    assert!(t_overlapped < t_serial, "prefetch not hidden: {t_overlapped} vs {t_serial}");
    assert!(t_overlapped >= compute_only, "the arrival dependency must still be honored");
}
