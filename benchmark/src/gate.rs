//! The gated path: one repetition of each kind of workload.
//!
//! Everything `run` times goes through this file, and this file calls the
//! program under test only through the surface listed in the README
//! (`ca_gmres::prelude`, `ca_sparse::{gen, balance, perm, spmv}`,
//! `ca_gpusim::MultiGpu`, `ca_serve::{Service, ServeConfig, JobRequest,
//! JobStatus, ServiceReport}`, `ca_dense::blas1::nrm2`), so a refactor
//! below that surface can break a layer probe but never the gate.
//! The traced run calls the same functions with a live [`Tracer`].

use crate::span::Tracer;
use crate::spec::{self, Arm, ServeSpec, SolverSpec};
use ca_dense::blas1::nrm2;
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;
use ca_serve::{JobRequest, JobStatus, ServeConfig, Service, ServiceReport};
use ca_sparse::{balance, perm, spmv, Csr};
use std::time::Instant;

/// FNV-1a over the bits of a vector.
pub fn hash_bits(x: &[f64]) -> u64 {
    x.iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The benchmark's own residual `||b - A x|| / ||b||`, from the CSR matrix.
fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    spmv::spmv(a, x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    nrm2(&r) / nrm2(b)
}

/// Generated once per run: the unbalanced matrix and right-hand side.
pub struct SolverInputs {
    pub a: Csr,
    pub b: Vec<f64>,
}

impl SolverInputs {
    pub fn generate(spec: &SolverSpec, seed: u64) -> Self {
        let a = spec.matrix.build();
        let b = spec::rhs(a.nrows(), seed, spec.seed_weight);
        SolverInputs { a, b }
    }
}

/// What one set-up and solve measured and produced.
pub struct Solve {
    pub setup_s: f64,
    pub solve_wall_s: f64,
    pub stats: SolveStats,
    /// Simulated clock after `download_x`: rhs upload, solve and download
    /// of one cold job.
    pub sim_tts_s: f64,
    /// The benchmark's own `||b - A x|| / ||b||`.
    pub relres: f64,
    pub x_hash: u64,
    pub rows: usize,
    pub nnz: usize,
}

/// The solved system, kept only by the traced run, which probes it.
pub struct Solved {
    /// Balanced and permuted.
    pub a: Csr,
    pub b: Vec<f64>,
    pub mg: MultiGpu,
    pub sys: System,
}

/// Balance, order, distribute, load and solve once.
pub fn solve_once(spec: &SolverSpec, inp: &SolverInputs, tr: &mut Tracer) -> (Solve, Solved) {
    let cfg = &spec.cfg;
    let run = tr.begin("run", "harness", None);

    let t_setup = Instant::now();
    let sp_setup = tr.begin("setup", "harness", None);
    let (ab, bal) = tr.scope("sparse.balance", "sparse", || balance::balance(&inp.a));
    let (a, p, layout) =
        tr.scope("sparse.partition", "sparse", || prepare(&ab, spec.ordering, spec.ndev));
    drop(ab);
    let b = perm::permute_vec(&bal.scale_rhs(&inp.b), &p);
    let mut mg = MultiGpu::with_defaults(spec.ndev);
    let sp = tr.begin("core.system_new", "core", Some(mg.time()));
    let with_mpk = (cfg.kernel != KernelMode::Spmv).then_some(cfg.s);
    let sys =
        System::new(&mut mg, &a, layout, cfg.m, with_mpk).expect("the system fits the devices");
    tr.end(sp, Some(mg.time()));
    let sp = tr.begin("core.load_rhs", "core", Some(mg.time()));
    sys.load_rhs(&mut mg, &b).expect("no faults are installed");
    tr.end(sp, Some(mg.time()));
    tr.end(sp_setup, None);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let t_solve = Instant::now();
    let sp = tr.begin("solve", "core", Some(mg.time()));
    let out = ca_gmres(&mut mg, &sys, cfg);
    let x = sys.download_x(&mut mg).expect("no faults are installed");
    tr.end(sp, Some(mg.time()));
    let solve_wall_s = t_solve.elapsed().as_secs_f64();

    let (relres, x_hash) = tr.scope("verify", "harness", || (residual(&a, &x, &b), hash_bits(&x)));
    tr.end(run, None);
    let solve = Solve {
        setup_s,
        solve_wall_s,
        stats: out.stats,
        sim_tts_s: mg.time(),
        relres,
        x_hash,
        rows: a.nrows(),
        nnz: a.nnz(),
    };
    (solve, Solved { a, b, mg, sys })
}

impl Solve {
    /// Why this solve counts as failed, if it does. `first` is repetition 0:
    /// the same input must give the same bits.
    pub fn failure(&self, spec: &SolverSpec, first: Option<&Solve>) -> Option<String> {
        if !self.stats.converged {
            return Some(format!("not converged: {:?}", self.stats.breakdown));
        }
        if self.relres.is_nan() || self.relres > 10.0 * spec.cfg.rtol {
            return Some(format!("own residual {:.3e} > 10 x {:.0e}", self.relres, spec.cfg.rtol));
        }
        let first = first?;
        let same = self.x_hash == first.x_hash
            && self.stats.t_total.to_bits() == first.stats.t_total.to_bits()
            && self.stats.total_iters == first.stats.total_iters;
        (!same).then(|| "x hash, simulated time or iterations differ from repetition 0".to_string())
    }
}

/// One arrival stream replayed through a fresh service.
pub struct ArmRun {
    pub arm: Arm,
    /// Host seconds of `Service::run`.
    pub wall_s: f64,
    pub report: ServiceReport,
    /// Jobs that did not converge, were lost, or miss the residual oracle.
    pub failed_jobs: usize,
}

/// Service set-ups plus one replay per arm.
pub struct Pass {
    /// Host seconds of each of the [`SETUPS_PER_PASS`] set-ups.
    pub setup_s: Vec<f64>,
    pub arms: Vec<ArmRun>,
}

/// A set-up takes a fiftieth of a replay, so each pass times it three
/// times: a run then has nine samples of it, not three.
const SETUPS_PER_PASS: usize = 3;

fn serve_config(spec: &ServeSpec) -> ServeConfig {
    let mut cfg = ServeConfig::new(spec.slices.to_vec());
    cfg.base.solver.m = spec.m;
    cfg.base.solver.rtol = spec.rtol;
    cfg.base.solver.max_restarts = 200;
    // solutions are kept so that every job meets the residual oracle
    cfg.keep_solutions = true;
    cfg
}

fn balanced(raw_pool: &[(String, Csr)]) -> Vec<(String, Csr)> {
    raw_pool.iter().map(|(name, a)| (name.clone(), balance::balance(a).0)).collect()
}

/// Set up — balance the pool, build a service and run one cold job per
/// class through it (4 planner misses + 4 operator builds), then throw
/// the service away — and replay both arms, each through a fresh service.
pub fn serve_pass(
    spec: &ServeSpec,
    raw_pool: &[(String, Csr)],
    seed: u64,
    tr: &mut Tracer,
) -> Pass {
    let run = tr.begin("run", "harness", None);
    let mut setup_s = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUPS_PER_PASS {
        let t_setup = Instant::now();
        let sp_setup = tr.begin("setup", "harness", None);
        pool = tr.scope("sparse.balance", "sparse", || balanced(raw_pool));
        let mut scratch = tr
            .scope("serve.service_new", "serve", || Service::new(serve_config(spec), pool.clone()));
        let cold = spec::arrivals(&classes(&pool), seed, pool.len(), 1e9, spec.rtol);
        let cold_ok = tr.scope("serve.cold_jobs", "serve", || {
            scratch.run(cold).jobs.iter().filter(|j| j.status == JobStatus::Converged).count()
        });
        tr.end(sp_setup, None);
        setup_s.push(t_setup.elapsed().as_secs_f64());
        assert_eq!(cold_ok, pool.len(), "a cold set-up job did not converge");
    }
    let classes = classes(&pool);

    let arms = spec
        .arms
        .iter()
        .map(|&arm| {
            let jobs = spec::arrivals(&classes, seed, spec.jobs, arm.rate, spec.rtol);
            let inputs: Vec<(String, Vec<f64>)> =
                jobs.iter().map(|j| (j.matrix.clone(), j.rhs.clone())).collect();
            let mut svc = Service::new(serve_config(spec), pool.clone());
            let sp = tr.begin(&format!("serve.replay.{}", arm.name), "serve", Some(0.0));
            let t = Instant::now();
            let report = svc.run(jobs);
            let wall_s = t.elapsed().as_secs_f64();
            tr.end(sp, Some(report.makespan_s));
            let failed_jobs =
                tr.scope("verify", "harness", || failed_jobs(&report, &pool, &inputs, spec.rtol));
            ArmRun { arm, wall_s, report, failed_jobs }
        })
        .collect();
    tr.end(run, None);
    Pass { setup_s, arms }
}

/// `(name, rows)` of each matrix class, for the arrival generator.
fn classes(pool: &[(String, Csr)]) -> Vec<(String, usize)> {
    pool.iter().map(|(name, a)| (name.clone(), a.nrows())).collect()
}

/// Every submitted job must appear exactly once, converged, with a
/// solution that meets the residual oracle; the rest count as failed.
fn failed_jobs(
    report: &ServiceReport,
    pool: &[(String, Csr)],
    inputs: &[(String, Vec<f64>)],
    rtol: f64,
) -> usize {
    let mut ok = vec![false; inputs.len()];
    let mut seen = vec![false; inputs.len()];
    for job in &report.jobs {
        let id = job.id as usize;
        if id >= inputs.len() || std::mem::replace(&mut seen[id], true) {
            // unknown or duplicated: the job has more than one terminal status
            if id < inputs.len() {
                ok[id] = false;
            }
            continue;
        }
        let (matrix, rhs) = &inputs[id];
        let a = &pool.iter().find(|(name, _)| name == matrix).expect("job names a pool matrix").1;
        ok[id] = job.status == JobStatus::Converged
            && job.x.as_ref().is_some_and(|x| residual(a, x, rhs) <= 10.0 * rtol);
    }
    ok.iter().filter(|&&good| !good).count()
}

/// Kept for the traced run's cold-path probe: the same stream through the
/// whole pool as one slice, strict arrival order, an operator rebuild per
/// job.
pub fn cold_fifo_wall_s(spec: &ServeSpec, raw_pool: &[(String, Csr)], seed: u64) -> f64 {
    let pool = balanced(raw_pool);
    let classes = classes(&pool);
    let mut cfg = ServeConfig::naive_fifo(spec.slices.iter().sum());
    cfg.base = serve_config(spec).base;
    let jobs: Vec<JobRequest> =
        spec::arrivals(&classes, seed, spec.cold_jobs, spec.arms[0].rate, spec.rtol);
    let mut svc = Service::new(cfg, pool);
    let t = Instant::now();
    let report = svc.run(jobs);
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(report.jobs.len(), spec.cold_jobs, "the FIFO arm lost jobs");
    wall_s
}
