//! The multi-tenant pool both service studies drive (`ext_service`,
//! `ext_feedback`): downscaled Fig. 12 analogs, one job configuration, one
//! shape of open-loop arrival stream.

use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;
use ca_serve::{open_loop_arrivals, ArrivalSpec, JobRequest};
use ca_sparse::{gen, Csr};

/// Total devices in the pool.
pub const DEVICES: usize = 4;
/// Restart length of every job.
pub const M: usize = 50;
/// Tolerance of every job.
pub const RTOL: f64 = 1e-6;
/// Seed of the arrival stream.
pub const ARRIVAL_SEED: u64 = 20140527;

/// Downscaled Fig. 12 analogs (balanced, as §VI preprocesses them): big
/// enough to have the suite's sparsity character, small enough that a
/// 48-job trace replays in seconds per load point. `smoke` keeps two.
pub fn matrices(smoke: bool) -> Vec<(String, Csr)> {
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

/// The fault-tolerant solver configuration every job runs under.
pub fn base_config() -> FtConfig {
    let mut cfg = FtConfig::default();
    cfg.solver.m = M;
    cfg.solver.rtol = RTOL;
    cfg.solver.max_restarts = 200;
    cfg
}

/// One-at-a-time capacity of the full pool: the reciprocal of the mean
/// cold-solve time across the matrix classes, each solved directly on all
/// [`DEVICES`]. Offered loads are multiples of it.
pub fn capacity_jobs_per_s(matrices: &[(String, Csr)]) -> f64 {
    let cfg = base_config();
    let mean_t: f64 = matrices
        .iter()
        .map(|(_, a)| {
            let b = crate::rhs_for(a);
            ca_gmres_ft(MultiGpu::with_defaults(DEVICES), a, &b, &cfg).stats.t_total
        })
        .sum::<f64>()
        / matrices.len() as f64;
    1.0 / mean_t
}

/// `jobs` seeded open-loop arrivals at `rate` jobs per simulated second
/// from three tenants over `matrices`; a quarter carry a deadline 2–10
/// mean solve times after arrival.
pub fn arrivals(
    matrices: &[(String, Csr)],
    jobs: usize,
    rate: f64,
    mean_solve_s: f64,
) -> Vec<JobRequest> {
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
