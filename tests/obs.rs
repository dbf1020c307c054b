#![allow(clippy::needless_range_loop)]

//! Observability-layer integration tests: recordings are deterministic
//! (golden byte-identical exports), structurally sound (well-nested span
//! forests per track, under both schedules), and faithful (the span-derived
//! phase breakdown reproduces the independent phase-timer attribution).

use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gmres::stats::SpanBreakdown;
use ca_gmres_repro::gpusim::{obs_ingest_traces, MultiGpu, Schedule};
use ca_gmres_repro::obs;
use ca_gmres_repro::scalar::cases;
use ca_gmres_repro::sparse::{gen, perm};

/// CA-GMRES solve under a recording session with device tracing, returning
/// the solver stats and the drained recording.
fn profiled_solve(schedule: Schedule, ndev: usize, s: usize) -> (SolveStats, obs::Recording) {
    let a = gen::convection_diffusion(12, 12, 1.5);
    let (a_ord, p, layout) = prepare(&a, Ordering::Kway, ndev);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    let mut mg = MultiGpu::with_defaults(ndev);
    mg.set_schedule(schedule);
    obs::start();
    mg.enable_trace();
    let cfg = CaGmresConfig { s, m: 20, rtol: 1e-8, max_restarts: 300, ..Default::default() };
    let sys = System::new(&mut mg, &a_ord, layout, cfg.m, Some(s)).unwrap();
    sys.load_rhs(&mut mg, &perm::permute_vec(&b, &p)).unwrap();
    let out = ca_gmres(&mut mg, &sys, &cfg);
    obs_ingest_traces(&mg.take_traces());
    let rec = obs::finish();
    assert!(out.stats.converged, "{:?}", out.stats.breakdown);
    (out.stats, rec)
}

/// Golden determinism: the same solve records byte-identical exports —
/// metrics JSON (and its hash), Perfetto trace, and folded stacks.
#[test]
fn exports_are_byte_identical_across_reruns() {
    let (_, r1) = profiled_solve(Schedule::Barrier, 3, 6);
    let (_, r2) = profiled_solve(Schedule::Barrier, 3, 6);
    assert!(!r1.is_empty());
    let m1 = r1.metrics.to_json();
    let m2 = r2.metrics.to_json();
    assert!(m1.len() > 2, "metrics snapshot must be non-trivial");
    assert_eq!(m1, m2, "metrics JSON diverged across reruns");
    assert_eq!(r1.metrics.hash_hex(), r2.metrics.hash_hex());
    assert_eq!(
        obs::export::chrome_trace(&r1),
        obs::export::chrome_trace(&r2),
        "Perfetto trace diverged across reruns"
    );
    assert_eq!(
        obs::export::folded_stacks(&r1),
        obs::export::folded_stacks(&r2),
        "folded stacks diverged across reruns"
    );
}

/// The span-derived phase breakdown must agree with the phase-timer
/// attribution in `SolveStats` to 1e-9 simulated seconds — two independent
/// attribution paths over the same clock reads.
#[test]
fn span_breakdown_matches_phase_timer_under_both_schedules() {
    for schedule in [Schedule::Barrier, Schedule::EventDriven] {
        let (stats, rec) = profiled_solve(schedule, 3, 6);
        let bd = SpanBreakdown::from_recording(&rec);
        let diff = bd.max_abs_diff(&stats);
        assert!(diff <= 1e-9, "{schedule:?}: span-vs-timer deviation {diff:.3e} s ({bd:?})");
        assert_eq!(bd.cycles, stats.restarts, "{schedule:?}: cycle span count");
    }
}

/// The recording carries all three layers: host phase spans, ingested
/// device kernel spans, copy-engine spans, and the metric registry keys
/// the comm paths and trace ingestion maintain.
#[test]
fn recording_covers_host_device_and_link_tracks() {
    let (_, rec) = profiled_solve(Schedule::Barrier, 2, 5);
    let on = |t: obs::Track| rec.spans.iter().filter(|s| s.track == t).count();
    assert!(on(obs::Track::Host) > 0, "host phase spans missing");
    for d in 0..2u32 {
        assert!(on(obs::Track::Device(d)) > 0, "gpu{d} kernel spans missing");
        assert!(on(obs::Track::Link(d)) > 0, "gpu{d} copy spans missing");
    }
    for key in ["comm.d2h.bytes", "comm.h2d.bytes", "solve.t_total_s", "kernel.spmv.calls"] {
        assert!(rec.metrics.values.contains_key(key), "metric {key} missing");
    }
    assert!(rec.samples.iter().any(|s| s.name == "relres"), "relres samples missing");
}

/// Property: under the event-driven schedule (overlapping phases, no
/// barrier flattening), every per-track span forest in a recorded solve is
/// well-nested and monotone, for any device count and step size —
/// including the ingested device/link spans.
#[test]
fn spans_stay_well_nested_under_event_driven_schedule() {
    cases(8, |rng| {
        let (ndev, s) = (rng.index(1..4), rng.index(2..7));
        let (_, rec) = profiled_solve(Schedule::EventDriven, ndev, s);
        assert!(!rec.spans.is_empty());
        if let Err(e) = rec.check_well_nested() {
            panic!("ndev {ndev}, s {s}: not well-nested: {e}");
        }
    });
}
