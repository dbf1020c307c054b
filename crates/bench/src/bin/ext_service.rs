//! Extension study: multi-tenant solver-as-a-service throughput and
//! latency to saturation.
//!
//! Everything up to now measures one solve at a time. A shared
//! installation faces a *stream*: many tenants, a small set of operators,
//! open-loop arrivals that do not wait for completions. This study drives
//! `ca-serve` with seeded Poisson arrivals over a downscaled Fig. 12
//! matrix pool at three offered loads (ρ = offered rate over the measured
//! one-at-a-time capacity of the pool) and compares two arms at equal
//! device count:
//!
//! * **serve** — the full scheduler: the pool split into slices,
//!   planner-driven admission, fair + deadline-aware queueing,
//!   operator residency with LRU eviction, multi-RHS batching, and
//!   backfill across slices.
//! * **fifo** — the naive baseline: the whole pool as one slice, strict
//!   arrival order, one job at a time, cold every time.
//!
//! Reported per (arm, ρ): throughput, p50/p99/mean time-to-solution,
//! device utilization, peak queue depth, warm/batch/backfill/eviction
//! counters, and deadline misses. ρ < 1 is the underloaded regime (TTS ≈
//! solve time); past ρ = 1 the queue grows with the trace length and TTS
//! is dominated by waiting — exactly where scheduling quality separates
//! the arms.
//!
//! Acceptance (asserted): at the saturating load the serve arm's
//! aggregate throughput strictly beats naive FIFO, with residency
//! delivering warm hits and batching riders.
//!
//! Flags: `--smoke` two matrices, one load, 10 jobs, canonical DIGEST
//! lines (the `ServiceReport` digest — completion order, solution bits,
//! clocks, counters); CI pins them to `bench_results/smoke/ext_service.txt`
//! and the smoke envelope to the committed `ext_service_smoke.json`. There
//! is no `--large`: service studies are queue-bound, not size-bound.

use ca_bench::pool::{self, ARRIVAL_SEED, DEVICES, RTOL};
use ca_bench::{table, Study};
use ca_serve::{JobStatus, ServeConfig, Service};
use ca_sparse::Csr;

/// Offered loads relative to measured one-at-a-time pool capacity.
const LOADS: [f64; 3] = [0.5, 0.9, 1.4];
const JOBS: usize = 48;
const SMOKE_JOBS: usize = 10;

ca_bench::row!(Row {
    arm: String ["arm"],
    rho: f64 ["rho" "{:.1}"],
    offered_jobs_per_s: f64 ["offered/s" "{:.2}"],
    jobs: usize ["conv" |r| format!("{}/{}", r.converged, r.jobs)],
    converged: usize,
    unconverged: usize,
    rejected: u64,
    makespan_s: f64,
    throughput_jobs_per_s: f64 ["tput/s" "{:.2}"],
    p50_tts_s: f64 ["p50 tts" "{:.3}"],
    p99_tts_s: f64 ["p99 tts" "{:.3}"],
    mean_tts_s: f64,
    utilization: f64 ["util" "{:.2}"],
    max_queue_depth: usize ["maxQ"],
    warm_hits: u64 ["warm/batched" |r| format!("{}/{}", r.warm_hits, r.batched_jobs)],
    batches: u64,
    batched_jobs: u64,
    backfill_hits: u64 ["backfill"],
    evictions: u64 ["evict"],
    deadline_misses: u64 ["ddl miss"],
    planner_misses: u64,
    digest: String,
});

fn run_arm(
    arm: &str,
    rho: f64,
    rate: f64,
    matrices: &[(String, Csr)],
    jobs: usize,
    mean_solve_s: f64,
) -> Row {
    let mut cfg = match arm {
        "serve" => ServeConfig::new(vec![DEVICES / 2, DEVICES / 2]),
        _ => ServeConfig::naive_fifo(DEVICES),
    };
    cfg.base = pool::base_config();
    let rep = Service::new(cfg, matrices.to_vec()).run(pool::arrivals(
        matrices,
        jobs,
        rate,
        mean_solve_s,
    ));
    assert_eq!(rep.jobs.len(), jobs, "{arm} ρ={rho}: lost jobs");
    let count = |status| rep.jobs.iter().filter(|j| j.status == status).count();
    let util = if rep.utilization.is_empty() {
        0.0
    } else {
        rep.utilization.iter().sum::<f64>() / rep.utilization.len() as f64
    };
    Row {
        arm: arm.to_string(),
        rho,
        offered_jobs_per_s: rate,
        jobs,
        converged: count(JobStatus::Converged),
        unconverged: count(JobStatus::Unconverged),
        rejected: rep.rejected,
        makespan_s: rep.makespan_s,
        throughput_jobs_per_s: rep.throughput_jobs_per_s,
        p50_tts_s: rep.p50_tts_s,
        p99_tts_s: rep.p99_tts_s,
        mean_tts_s: rep.mean_tts_s,
        utilization: util,
        max_queue_depth: rep.max_queue_depth,
        warm_hits: rep.warm_hits,
        batches: rep.batches,
        batched_jobs: rep.batched_jobs,
        backfill_hits: rep.backfill_hits,
        evictions: rep.evictions,
        deadline_misses: rep.deadline_misses,
        planner_misses: rep.planner_misses,
        digest: format!("{:016x}", rep.digest()),
    }
}

fn main() {
    let mut study = Study::new("ext_service", &["--smoke"]);

    let matrices = pool::matrices(study.smoke);
    let capacity = pool::capacity_jobs_per_s(&matrices);
    let mean_solve_s = 1.0 / capacity;
    let jobs = if study.smoke { SMOKE_JOBS } else { JOBS };
    let loads: &[f64] = if study.smoke { &[0.9] } else { &LOADS };

    let mut rows: Vec<Row> = Vec::new();
    for &rho in loads {
        let rate = rho * capacity;
        for arm in ["serve", "fifo"] {
            let row = run_arm(arm, rho, rate, &matrices, jobs, mean_solve_s);
            study.digest(format_args!(
                "{arm} rho={rho} jobs={jobs} digest={} conv={} warm={} batch={}",
                row.digest, row.converged, row.warm_hits, row.batched_jobs
            ));
            rows.push(row);
        }
    }

    // --- acceptance: scheduling quality must show at saturation ---
    // (full run only: the smoke trace is too short to force batching)
    let sat = loads.last().copied().unwrap();
    let find = |arm: &str, rho: f64| rows.iter().find(|r| r.arm == arm && r.rho == rho).unwrap();
    let (sv, ff) = (find("serve", sat), find("fifo", sat));
    if !study.smoke {
        assert!(
            sv.throughput_jobs_per_s > ff.throughput_jobs_per_s,
            "serve must beat naive FIFO at saturation: {} vs {} jobs/s",
            sv.throughput_jobs_per_s,
            ff.throughput_jobs_per_s
        );
        assert!(sv.warm_hits > 0, "residency produced no warm hits at saturation");
        assert!(sv.batched_jobs > 0, "batching produced no riders at saturation");
    }
    for r in &rows {
        assert_eq!(r.rejected, 0, "{} ρ={}: unexpected rejection", r.arm, r.rho);
    }

    println!(
        "\nExtension — solver-as-a-service: {} matrix classes, {jobs} jobs/load, \
         pool = {DEVICES} devices (serve: 2 slices of {}), rtol = {RTOL:.0e}, \
         capacity ≈ {capacity:.2} jobs/s; serve/fifo throughput at ρ={sat}: \
         {:.2}/{:.2} jobs/s",
        matrices.len(),
        DEVICES / 2,
        sv.throughput_jobs_per_s,
        ff.throughput_jobs_per_s
    );
    println!("{}", table(&rows));

    study.meta.arrival_seed = Some(ARRIVAL_SEED);
    study.meta.offered_load_jobs_per_s = Some(sat * capacity);
    study.write_json(&rows);
    if !study.smoke {
        study.write_text(&format!(
            "ext_service: {} classes, {jobs} jobs/load, pool {DEVICES} devices, \
             capacity {capacity:.3} jobs/s\n{}",
            matrices.len(),
            table(&rows)
        ));
    }
}
