//! Extension study: the closed observability loop — record, fit, plan,
//! retune.
//!
//! Every calibration so far ran *dedicated* probe kernels
//! (`ext_autotune`'s sweeps). Production rarely gets that luxury: the
//! telemetry you have is whatever the live stream emitted. This study
//! closes the loop on exactly that data, in four acts:
//!
//! 1. **Record** — drive the multi-tenant `ca-serve` scheduler over a
//!    downscaled Fig. 12 pool with `record_kernel_traces` on, inside a
//!    `ca-obs` session: every kernel and copy of every tenant's solve
//!    lands in `kernel.*`/`copy.*` histograms, stamped with the modeled
//!    durations. The run itself is bit-identical to an unrecorded one
//!    (asserted via the `ServiceReport` digest).
//! 2. **Fit** — `calibrate_from_metrics` turns that production-shaped
//!    snapshot into a `MachineProfile`: per-family slowdown factors
//!    (BLAS-1, GEMV, GEMM, TSQR panel, TRSM, SpMV/MPK) plus a PCIe link
//!    fit from the copy histograms. On a healthy pool every factor is
//!    exactly 1.0 and the fitted parameters reproduce the hint bitwise.
//! 3. **Plan** — cross-validation: for each matrix class, a planner built
//!    from the metrics-fitted profile must rank the candidate grid in the
//!    same order as the hint-built planner (asserted). The trace-driven
//!    fit is a drop-in replacement for hand calibration.
//! 4. **Retune** — the part the kernel-EWMA telemetry *cannot* see: a
//!    degraded PCIe link never shows up in device busy time. Two
//!    fault-tolerant solves run against an 8x link degrade, both with the
//!    autotune hook armed: one with the span-ratio drift detector
//!    disabled (EWMA only), one with it at its default threshold. The
//!    EWMA-only arm must sail blind (0 retunes); the drift arm must
//!    re-plan at least once (asserted) — observed-vs-predicted phase
//!    shares catch what busy-time cannot.
//!
//! Flags: `--smoke` two matrices, 10 jobs; CI pins its DIGEST lines to
//! `bench_results/smoke/ext_feedback.txt` and its envelope to the committed
//! `ext_feedback_smoke.json`. The full run also writes the fitted profile
//! to `profiles/ext_feedback.json`.

use ca_bench::pool::{self, ARRIVAL_SEED, DEVICES};
use ca_bench::{table, Study};
use ca_gmres::prelude::*;
use ca_gpusim::{FaultPlan, KernelConfig, MultiGpu, PerfModel};
use ca_obs as obs;
use ca_serve::{ServeConfig, Service};
use ca_sparse::{gen, Csr};
use ca_tune::{calibrate_from_metrics, observed_slowdowns, CandidateSpace, Planner, Retuner};

const JOBS: usize = 32;
const SMOKE_JOBS: usize = 10;
/// Offered load relative to one-at-a-time pool capacity: busy but
/// stable, the regime a production trace would come from.
const RHO: f64 = 0.9;
/// Link-degrade factor for the retune act.
const LINK_FACTOR: f64 = 8.0;

ca_bench::row!(StreamRow {
    jobs: usize,
    offered_jobs_per_s: f64,
    makespan_s: f64,
    throughput_jobs_per_s: f64,
    deadline_misses: u64,
    slo_burns: u64,
    metrics_hash: String,
    service_digest: String,
});

ca_bench::row!(FitRow { family: String, lambda: f64, observed_s: f64 });

ca_bench::row!(RankRow {
    matrix: String["matrix"],
    n: usize["n"],
    candidates: usize["cands"],
    hint_best: String["hint best"],
    fitted_best: String["fitted best"],
    hint_best_cycle_s: f64,
    fitted_best_cycle_s: f64,
    rank_match: bool["rank match"],
});

ca_bench::row!(DriftRow {
    arm: String,
    retunes: usize,
    s_final: usize,
    t_total_s: f64,
    converged: bool
});

ca_bench::row!(Output {
    profile_hash: String,
    stream: StreamRow,
    fit: Vec<FitRow>,
    ranking: Vec<RankRow>,
    drift: Vec<DriftRow>,
});

/// Act 1: run the tenant stream twice — unrecorded for the digest
/// reference, then recorded inside an obs session — and return the
/// recording plus the stream's dashboard row.
fn record_stream(
    matrices: &[(String, Csr)],
    jobs: usize,
    rate: f64,
) -> (obs::Recording, StreamRow) {
    let mean_solve_s = 1.0 / rate * RHO; // rate = RHO * capacity
    let run = |record: bool| {
        let mut cfg = ServeConfig::new(vec![DEVICES / 2, DEVICES / 2]);
        cfg.base = pool::base_config();
        cfg.record_kernel_traces = record;
        let mut svc = Service::new(cfg, matrices.to_vec());
        svc.run(pool::arrivals(matrices, jobs, rate, mean_solve_s))
    };

    let reference = run(false).digest();
    obs::start();
    let rep = run(true);
    let rec = obs::finish();
    assert_eq!(rep.digest(), reference, "recording must not perturb the stream");

    let row = StreamRow {
        jobs,
        offered_jobs_per_s: rate,
        makespan_s: rep.makespan_s,
        throughput_jobs_per_s: rep.throughput_jobs_per_s,
        deadline_misses: rep.deadline_misses,
        slo_burns: rep.tenants.iter().map(|t| t.slo_burns).sum(),
        metrics_hash: rec.metrics.hash_hex(),
        service_digest: format!("{:016x}", rep.digest()),
    };
    (rec, row)
}

/// Act 3: hint-built vs metrics-fitted planner over the admission-style
/// candidate grid, per matrix class.
fn rank_cross_validation(
    matrices: &[(String, Csr)],
    profile: &ca_tune::MachineProfile,
    hint: &PerfModel,
) -> Vec<RankRow> {
    let kcfg = KernelConfig::default();
    let space = CandidateSpace::smoke(DEVICES / 2);
    matrices
        .iter()
        .map(|(name, a)| {
            let hint_plan = Planner::new(a, pool::M, hint.clone(), kcfg).plan(&space);
            let fit_plan = Planner::with_profile(a, pool::M, profile, hint, kcfg).plan(&space);
            let order_matches = hint_plan.ranked.len() == fit_plan.ranked.len()
                && hint_plan.ranked.iter().zip(&fit_plan.ranked).all(|(h, f)| h.cand == f.cand);
            let hb = hint_plan.best().expect("hint planner found no feasible candidate");
            let fb = fit_plan.best().expect("fitted planner found no feasible candidate");
            RankRow {
                matrix: name.clone(),
                n: a.nrows(),
                candidates: hint_plan.ranked.len(),
                hint_best: hb.cand.label(),
                fitted_best: fb.cand.label(),
                hint_best_cycle_s: hb.predicted_cycle_s,
                fitted_best_cycle_s: fb.predicted_cycle_s,
                rank_match: order_matches,
            }
        })
        .collect()
}

/// Act 4: one fault-tolerant solve against a degraded link with the
/// autotune hook armed, at the given span-ratio drift threshold.
fn drift_arm(name: &str, drift_threshold: f64) -> DriftRow {
    let a = gen::laplace2d(48, 48);
    let b = ca_bench::rhs_for(&a);
    let model = PerfModel::default();
    let kcfg = KernelConfig::default();

    let mut cfg = FtConfig::default();
    cfg.solver.m = 30;
    cfg.solver.s = 5;
    cfg.solver.rtol = 1e-10;
    cfg.solver.max_restarts = 60;

    let base = ca_tune::Candidate {
        s: cfg.solver.s,
        basis: cfg.solver.basis,
        tsqr: cfg.solver.orth.tsqr,
        borth: cfg.solver.orth.borth,
        kernel: cfg.solver.kernel,
        ndev: 3,
        ordering: Ordering::Natural,
        reorth: cfg.solver.orth.reorth,
        prec: ca_scalar::Precision::F64,
    };
    let mut tuner = Retuner::new(&a, cfg.solver.m, model.clone(), kcfg, base);
    tuner.drift_threshold = drift_threshold;

    let mut mg = MultiGpu::new(3, model, kcfg);
    mg.set_fault_plan(FaultPlan::new(2014).with_link_degrade(1, LINK_FACTOR));
    let (out, _) = ca_gmres_ft_session(&mut mg, &a, &b, &cfg, Some(&mut tuner), None, false);
    DriftRow {
        arm: name.to_string(),
        retunes: out.report.retunes,
        s_final: out.report.s_final,
        t_total_s: out.stats.t_total,
        converged: out.stats.converged,
    }
}

fn main() {
    let mut study = Study::new("ext_feedback", &["--smoke"]);

    // Act 1: record the tenant stream.
    let matrices = pool::matrices(study.smoke);
    let capacity = pool::capacity_jobs_per_s(&matrices);
    let jobs = if study.smoke { SMOKE_JOBS } else { JOBS };
    let (rec, stream) = record_stream(&matrices, jobs, RHO * capacity);
    eprintln!(
        "[ext_feedback] recorded {} jobs over {} matrix classes: metrics {}",
        stream.jobs,
        matrices.len(),
        stream.metrics_hash
    );

    // Act 2: fit a machine profile from the stream's metrics alone.
    let hint = PerfModel::default();
    let profile = calibrate_from_metrics(&rec.metrics, &hint, "ext_feedback");
    let fit: Vec<FitRow> = observed_slowdowns(&profile)
        .into_iter()
        .map(|s| FitRow { family: s.family, lambda: s.lambda, observed_s: s.observed_s })
        .collect();
    assert!(!fit.is_empty(), "a served stream must surface at least one kernel family");
    // Healthy pool: the trace-driven fit must reproduce the hint bitwise.
    let (fitted_model, _) = profile.to_model(&hint);
    assert_eq!(fitted_model, hint, "healthy-stream fit must reproduce the hint exactly");

    // Act 3: the fitted planner must agree with the hint planner.
    let ranking = rank_cross_validation(&matrices, &profile, &hint);
    for r in &ranking {
        assert!(r.rank_match, "{}: fitted ranking diverged from hint ranking", r.matrix);
    }

    // Act 4: span-ratio drift vs EWMA-only under a degraded link.
    let drift = vec![drift_arm("ewma_only", f64::INFINITY), drift_arm("span_drift", 0.05)];
    assert_eq!(drift[0].retunes, 0, "busy-time EWMA cannot see a link fault");
    assert!(
        drift[1].retunes >= 1,
        "span-ratio drift detector missed an {LINK_FACTOR}x link degrade"
    );
    for d in &drift {
        assert!(d.converged, "{} arm failed to converge", d.arm);
    }

    study.meta.profile_hash = Some(profile.hash_hex());
    study.meta.metrics_hash = Some(stream.metrics_hash.clone());
    study.meta.arrival_seed = Some(ARRIVAL_SEED);
    study.meta.offered_load_jobs_per_s = Some(stream.offered_jobs_per_s);

    let output = Output { profile_hash: profile.hash_hex(), stream, fit, ranking, drift };

    println!(
        "DIGEST stream metrics={} service={}",
        output.stream.metrics_hash, output.stream.service_digest
    );
    println!("DIGEST profile hash={}", output.profile_hash);
    for r in &output.ranking {
        println!("DIGEST rank matrix={} match={} best={}", r.matrix, r.rank_match, r.fitted_best);
    }
    println!(
        "DIGEST drift ewma_retunes={} drift_retunes={} s_final={}",
        output.drift[0].retunes, output.drift[1].retunes, output.drift[1].s_final
    );

    study.write_json(&output);
    if study.smoke {
        return;
    }
    study.write("profiles/ext_feedback.json", &profile.to_json());

    let mut txt = String::from("closed-loop observability: trace-fitted planner vs hint\n\n");
    txt.push_str(&table(&output.ranking));
    txt.push('\n');
    for f in &output.fit {
        txt.push_str(&format!(
            "family {:8} lambda {:.6} observed {:.6} s\n",
            f.family, f.lambda, f.observed_s
        ));
    }
    txt.push('\n');
    for d in &output.drift {
        txt.push_str(&format!(
            "drift arm {:10} retunes {} s_final {:2} t_total {:.6} s converged {}\n",
            d.arm, d.retunes, d.s_final, d.t_total_s, d.converged
        ));
    }
    study.write_text(&txt);
}
