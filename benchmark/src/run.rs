//! One workload, untraced: repeat the gated path for the time budget,
//! check every output and reduce the repetitions to the end-to-end metrics.
//! A timing is reported as its best repetition, with the median and
//! quartiles of all repetitions beside it: the machine's interference only
//! ever adds time, and across ten runs the minimum moved half as much as
//! the median (README, *Noise*).

use crate::gate::{self, ArmRun, Solve, SolverInputs};
use crate::record::{Metric, Record};
use crate::span::Tracer;
use crate::spec::{Better, Kind, ServeSpec, SolverSpec, Workload, END_TO_END};
use crate::stats::{percentile, Summary};
use ca_obs::Jv;
use std::time::Instant;

/// Fewest timed repetitions, whatever the budget.
const MIN_REPS: usize = 3;

/// Repeat `rep` until `seconds` have passed or `max` repetitions are done.
fn repeat(seconds: f64, max: usize, mut rep: impl FnMut(usize)) {
    let t = Instant::now();
    let mut n = 0;
    while n < MIN_REPS.min(max) || (n < max && t.elapsed().as_secs_f64() < seconds) {
        rep(n);
        n += 1;
    }
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What was measured for one end-to-end metric.
enum Reading<'a> {
    One(f64),
    /// One sample per repetition; the best one is reported.
    Reps(&'a [f64]),
}

/// The best repetition: interference only ever adds time.
fn best(better: Better, samples: &[f64]) -> f64 {
    let pick = if better == Better::Lower { f64::min } else { f64::max };
    samples.iter().copied().reduce(pick).expect("one repetition at least")
}

/// Attach name, unit and exactness from the table to the readings.
fn end_to_end(readings: [Reading; 8]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(readings)
        .map(|(def, reading)| {
            let (value, reps) = match reading {
                Reading::One(v) => (v, None),
                Reading::Reps(samples) => (best(def.better, samples), Some(Summary::of(samples))),
            };
            Metric { name: def.name.into(), unit: def.unit.into(), exact: def.exact, value, reps }
        })
        .collect()
}

/// Run `w` for about `seconds` and report its end-to-end metrics.
pub fn run_workload(w: &Workload, seed: u64, seconds: f64) -> Record {
    let mut rec = Record::new(w.name, seed, seconds);
    match &w.kind {
        Kind::Solver(spec) => run_solver(spec, seed, seconds, &mut rec),
        Kind::Serve(spec) => run_serve(spec, seed, seconds, &mut rec),
    }
    rec
}

fn run_solver(spec: &SolverSpec, seed: u64, seconds: f64, rec: &mut Record) {
    let inp = SolverInputs::generate(spec, seed);
    eprintln!(
        "[{}] {}: {} rows, {} nnz, CA-GMRES(s={}, m={}), rtol {:.0e}",
        rec.workload,
        spec.matrix.describe(),
        inp.a.nrows(),
        inp.a.nnz(),
        spec.cfg.s,
        spec.cfg.m,
        spec.cfg.rtol
    );
    // warm-up: untimed, but checked, and the reference for "same bits"
    let (first, _) = gate::solve_once(spec, &inp, &mut Tracer::off());
    rec.check(first.failure(spec, None));
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    repeat(seconds, spec.max_reps, |n| {
        let (s, _) = gate::solve_once(spec, &inp, &mut Tracer::off());
        eprintln!(
            "[{}] rep {n}: setup {:.4} s, solve {:.4} s, {} iterations",
            rec.workload, s.setup_s, s.solve_wall_s, s.stats.total_iters
        );
        rec.check(s.failure(spec, Some(&first)));
        setup.push(s.setup_s);
        wall.push(s.solve_wall_s);
    });
    solver_metrics(&first, &setup, &wall, rec);
}

/// The solve metrics as measured; the `serve_*` rows read the same solve
/// as a stream of one cold job (set-up + solve, nothing queued).
fn solver_metrics(first: &Solve, setup: &[f64], wall: &[f64], rec: &mut Record) {
    let st = &first.stats;
    let cold_job_wall_s = best(Better::Lower, setup) + best(Better::Lower, wall);
    rec.metrics = end_to_end([
        Reading::Reps(setup),
        Reading::Reps(wall),
        Reading::One(st.t_total),
        Reading::One(st.total_iters as f64),
        Reading::One(1.0 / cold_job_wall_s),
        Reading::One(1.0 / first.sim_tts_s),
        Reading::One(first.sim_tts_s),
        Reading::One(peak_rss_mib()),
    ]);
    rec.checks.push(("x_hash".into(), format!("{:016x}", first.x_hash)));
    rec.notes = vec![
        ("reps".into(), Jv::Int(wall.len() as i128)),
        ("rows".into(), Jv::Int(first.rows as i128)),
        ("nnz".into(), Jv::Int(first.nnz as i128)),
        ("restarts".into(), Jv::Int(st.restarts as i128)),
        ("own_relres".into(), Jv::Num(first.relres)),
        ("comm_msgs".into(), Jv::Int(i128::from(st.comm_msgs))),
        ("comm_bytes".into(), Jv::Int(i128::from(st.comm_bytes))),
    ];
}

fn run_serve(spec: &ServeSpec, seed: u64, seconds: f64, rec: &mut Record) {
    let raw_pool = spec.pool();
    eprintln!(
        "[{}] pool of {} classes, {} jobs per stream, arms {:?}",
        rec.workload,
        raw_pool.len(),
        spec.jobs,
        spec.arms.map(|a| (a.name, a.rate))
    );
    let mut setup = Vec::new();
    let mut passes: Vec<Vec<ArmRun>> = Vec::new();
    repeat(seconds, spec.max_passes, |n| {
        let pass = gate::serve_pass(spec, &raw_pool, seed, &mut Tracer::off());
        for (i, arm) in pass.arms.iter().enumerate() {
            eprintln!(
                "[{}] pass {n} {}: {:.3} s wall, {:.1} jobs/s, {} failed",
                rec.workload,
                arm.arm.name,
                arm.wall_s,
                spec.jobs as f64 / arm.wall_s,
                arm.failed_jobs
            );
            rec.count(spec.jobs as u64, arm.failed_jobs as u64, "jobs failed or were lost");
            // a replay is one more checked operation: same stream, same digest
            let same = passes.first().is_none_or(|p0| p0[i].report.digest() == arm.report.digest());
            rec.check((!same).then(|| format!("{} digest differs from pass 0", arm.arm.name)));
        }
        setup.extend(pass.setup_s);
        passes.push(pass.arms);
    });
    serve_metrics(spec, &setup, &passes, rec);
}

/// The stream metrics as measured; the `solve_*` rows are per job (wall:
/// replay time over jobs; simulated time and iterations: mean over the
/// `light` arm's jobs).
fn serve_metrics(spec: &ServeSpec, setup: &[f64], passes: &[Vec<ArmRun>], rec: &mut Record) {
    let jobs = spec.jobs as f64;
    let replays: Vec<&ArmRun> = passes.iter().flatten().collect();
    let per_job: Vec<f64> = replays.iter().map(|r| r.wall_s / jobs).collect();
    let rate: Vec<f64> = replays.iter().map(|r| jobs / r.wall_s).collect();
    let (light, sat) = (&passes[0][0].report, &passes[0][1].report);
    let tts: Vec<f64> = light.jobs.iter().map(|j| j.tts_s).collect();
    let mean =
        |f: &dyn Fn(&ca_serve::JobRecord) -> f64| light.jobs.iter().map(f).sum::<f64>() / jobs;
    rec.metrics = end_to_end([
        Reading::Reps(setup),
        Reading::Reps(&per_job),
        Reading::One(mean(&|j| j.solver_t_total_s)),
        Reading::One(mean(&|j| j.iters as f64)),
        Reading::Reps(&rate),
        Reading::One(sat.throughput_jobs_per_s),
        Reading::One(percentile(&tts, 95.0)),
        Reading::One(peak_rss_mib()),
    ]);
    for arm in &passes[0] {
        rec.checks
            .push((format!("digest_{}", arm.arm.name), format!("{:016x}", arm.report.digest())));
    }
    rec.notes = vec![
        ("passes".into(), Jv::Int(passes.len() as i128)),
        ("jobs_per_stream".into(), Jv::Int(spec.jobs as i128)),
        ("sat_makespan_sim_s".into(), Jv::Num(sat.makespan_s)),
        ("sat_max_queue_depth".into(), Jv::Int(sat.max_queue_depth as i128)),
        ("light_max_queue_depth".into(), Jv::Int(light.max_queue_depth as i128)),
        ("planner_misses".into(), Jv::Int(i128::from(sat.planner_misses))),
    ];
}
