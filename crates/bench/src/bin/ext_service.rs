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
//!   planner-driven admission, weighted-fair + deadline-aware queueing,
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
//! clocks, counters), no files written; CI diffs the output of two
//! runs. `--large` is accepted but identical to the
//! default (service studies are queue-bound, not size-bound).

use ca_bench::{format_table, set_run_meta, write_json, RunMeta, Scale};
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;
use ca_serve::{open_loop_arrivals, ArrivalSpec, ServeConfig, Service};
use ca_sparse::{gen, Csr};

/// Total devices in the pool; the serve arm splits them into two slices.
const POOL_DEVICES: usize = 4;
const M: usize = 50;
const RTOL: f64 = 1e-6;
const MAX_RESTARTS: usize = 200;
const ARRIVAL_SEED: u64 = 20140527;
/// Offered loads relative to measured one-at-a-time pool capacity.
const LOADS: [f64; 3] = [0.5, 0.9, 1.4];
const JOBS: usize = 48;
const SMOKE_JOBS: usize = 10;

struct Row {
    arm: String,
    rho: f64,
    offered_jobs_per_s: f64,
    jobs: usize,
    converged: usize,
    unconverged: usize,
    rejected: u64,
    makespan_s: f64,
    throughput_jobs_per_s: f64,
    p50_tts_s: f64,
    p99_tts_s: f64,
    mean_tts_s: f64,
    utilization: f64,
    max_queue_depth: usize,
    warm_hits: u64,
    batches: u64,
    batched_jobs: u64,
    backfill_hits: u64,
    evictions: u64,
    deadline_misses: u64,
    planner_misses: u64,
    digest: String,
}

ca_bench::jv_struct!(Row {
    arm,
    rho,
    offered_jobs_per_s,
    jobs,
    converged,
    unconverged,
    rejected,
    makespan_s,
    throughput_jobs_per_s,
    p50_tts_s,
    p99_tts_s,
    mean_tts_s,
    utilization,
    max_queue_depth,
    warm_hits,
    batches,
    batched_jobs,
    backfill_hits,
    evictions,
    deadline_misses,
    planner_misses,
    digest,
});

/// Downscaled Fig. 12 analogs (balanced, as §VI preprocesses them): big
/// enough to have the suite's sparsity character, small enough that a
/// 48-job trace replays in seconds per load point.
fn pool(smoke: bool) -> Vec<(String, Csr)> {
    let mut v = vec![
        ("cant".to_string(), gen::cantilever(8, 8, 8)),
        ("G3_circuit".to_string(), gen::circuit(4000, 20140527)),
    ];
    if !smoke {
        v.push(("dielFilterV2real".to_string(), gen::diel_filter(12, 12, 12)));
        v.push(("nlpkkt120".to_string(), gen::kkt(10, 10, 10)));
    }
    v.into_iter().map(|(n, a)| (n, ca_sparse::balance::balance(&a).0)).collect()
}

fn base_config() -> FtConfig {
    let mut cfg = FtConfig::default();
    cfg.solver.m = M;
    cfg.solver.rtol = RTOL;
    cfg.solver.max_restarts = MAX_RESTARTS;
    cfg
}

/// One-at-a-time capacity of the full pool: mean cold-solve time across
/// the matrix classes, solved directly on all `POOL_DEVICES`. The offered
/// loads are multiples of its reciprocal, so ρ = 1.4 genuinely outruns
/// the naive arm.
fn pool_capacity_jobs_per_s(matrices: &[(String, Csr)]) -> f64 {
    let cfg = base_config();
    let mean_t: f64 = matrices
        .iter()
        .map(|(_, a)| {
            let b = ca_bench::rhs_for(a);
            let mg = MultiGpu::with_defaults(POOL_DEVICES);
            let out = ca_gmres_ft(mg, a, &b, &cfg);
            out.stats.t_total
        })
        .sum::<f64>()
        / matrices.len() as f64;
    1.0 / mean_t
}

fn arrivals(
    matrices: &[(String, Csr)],
    jobs: usize,
    rate: f64,
    mean_solve_s: f64,
) -> Vec<ca_serve::JobRequest> {
    open_loop_arrivals(&ArrivalSpec {
        seed: ARRIVAL_SEED,
        jobs,
        rate_jobs_per_s: rate,
        tenants: vec!["acme".into(), "globex".into(), "initech".into()],
        matrices: matrices.iter().map(|(n, a)| (n.clone(), a.nrows())).collect(),
        rtol: RTOL,
        deadline_fraction: 0.25,
        deadline_headroom_s: (2.0 * mean_solve_s, 10.0 * mean_solve_s),
    })
}

fn serve_config(arm: &str) -> ServeConfig {
    let mut cfg = match arm {
        "serve" => ServeConfig::new(vec![POOL_DEVICES / 2, POOL_DEVICES / 2]),
        _ => ServeConfig::naive_fifo(POOL_DEVICES),
    };
    cfg.base = base_config();
    cfg
}

fn run_arm(
    arm: &str,
    rho: f64,
    rate: f64,
    matrices: &[(String, Csr)],
    jobs: usize,
    mean_solve_s: f64,
) -> Row {
    let mut svc = Service::new(serve_config(arm), matrices.to_vec());
    let rep = svc.run(arrivals(matrices, jobs, rate, mean_solve_s));
    assert_eq!(rep.jobs.len(), jobs, "{arm} ρ={rho}: lost jobs");
    let converged = rep.jobs.iter().filter(|j| j.status == ca_serve::JobStatus::Converged).count();
    let unconverged =
        rep.jobs.iter().filter(|j| j.status == ca_serve::JobStatus::Unconverged).count();
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
        converged,
        unconverged,
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
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let _ = Scale::from_args();

    let matrices = pool(smoke);
    let capacity = pool_capacity_jobs_per_s(&matrices);
    let mean_solve_s = 1.0 / capacity;
    let jobs = if smoke { SMOKE_JOBS } else { JOBS };
    let loads: &[f64] = if smoke { &[0.9] } else { &LOADS };

    let mut rows: Vec<Row> = Vec::new();
    for &rho in loads {
        let rate = rho * capacity;
        for arm in ["serve", "fifo"] {
            let row = run_arm(arm, rho, rate, &matrices, jobs, mean_solve_s);
            if smoke {
                println!(
                    "DIGEST {arm} rho={rho} jobs={jobs} digest={} conv={} warm={} batch={}",
                    row.digest, row.converged, row.warm_hits, row.batched_jobs
                );
            }
            rows.push(row);
        }
    }

    // --- acceptance: scheduling quality must show at saturation ---
    // (full run only: the smoke trace is too short to force batching)
    let sat = loads.last().copied().unwrap();
    let find = |arm: &str, rho: f64| rows.iter().find(|r| r.arm == arm && r.rho == rho).unwrap();
    let (sv, ff) = (find("serve", sat), find("fifo", sat));
    if !smoke {
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
         pool = {POOL_DEVICES} devices (serve: 2 slices of {}), rtol = {RTOL:.0e}, \
         capacity ≈ {capacity:.2} jobs/s; serve/fifo throughput at ρ={sat}: \
         {:.2}/{:.2} jobs/s",
        matrices.len(),
        POOL_DEVICES / 2,
        sv.throughput_jobs_per_s,
        ff.throughput_jobs_per_s
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.arm.clone(),
                format!("{:.1}", r.rho),
                format!("{:.2}", r.offered_jobs_per_s),
                format!("{}/{}", r.converged, r.jobs),
                format!("{:.2}", r.throughput_jobs_per_s),
                format!("{:.3}", r.p50_tts_s),
                format!("{:.3}", r.p99_tts_s),
                format!("{:.2}", r.utilization),
                r.max_queue_depth.to_string(),
                format!("{}/{}", r.warm_hits, r.batched_jobs),
                r.backfill_hits.to_string(),
                r.evictions.to_string(),
                r.deadline_misses.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "arm",
                "rho",
                "offered/s",
                "conv",
                "tput/s",
                "p50 tts",
                "p99 tts",
                "util",
                "maxQ",
                "warm/batched",
                "backfill",
                "evict",
                "ddl miss"
            ],
            &table
        )
    );

    set_run_meta(RunMeta {
        arrival_seed: Some(ARRIVAL_SEED),
        offered_load_jobs_per_s: Some(sat * capacity),
        ..RunMeta::default()
    });
    if smoke {
        // committed baseline for the bench-trend gate
        write_json("ext_service_smoke", &rows);
    }
    if !smoke {
        write_json("ext_service", &rows);
        let mut txt = String::new();
        txt.push_str(&format!(
            "ext_service: {} classes, {jobs} jobs/load, pool {POOL_DEVICES} devices, \
             capacity {capacity:.3} jobs/s\n",
            matrices.len()
        ));
        txt.push_str(&format_table(
            &[
                "arm",
                "rho",
                "offered/s",
                "conv",
                "tput/s",
                "p50 tts",
                "p99 tts",
                "util",
                "maxQ",
                "warm/batched",
                "backfill",
                "evict",
                "ddl miss",
            ],
            &table,
        ));
        ca_bench::write_text("ext_service", &txt);
    }
}
