//! Planner-as-admission-controller: the slice of the [`crate::plan`]
//! search a multi-tenant service front-end needs *per job*.
//!
//! A service scheduling hundreds of solve requests onto a shared GPU
//! pool asks, before a job ever touches a device, *how should this job
//! run?* — the best [`Candidate`] for a device count the pool could
//! give it, with its predicted cycle time (the service multiplies it by
//! the expected-cycle count it tracks per matrix into an ETA for
//! deadline-aware ordering) and its device-memory footprint
//! ([`admission_estimate`]).
//!
//! Everything here is a pure function of the planner's cost model, so
//! the service can cache results by [`Candidate::label`] (stable and
//! unique within a plan) or by its own matrix key — replanning the same
//! matrix at the same device count returns identical numbers.

use crate::plan::{Candidate, CandidateSpace, Planner};

/// One admission decision: the planner's pick for a job at a fixed
/// device count, with the numbers the scheduler orders and packs by.
#[derive(Debug, Clone)]
pub struct AdmissionEstimate {
    /// The winning configuration (its `ndev` is the device count this
    /// estimate is for).
    pub cand: Candidate,
    /// Predicted time of one CA restart cycle, seconds.
    pub predicted_cycle_s: f64,
    /// Device-memory footprint, bytes per device
    /// ([`Planner::mem_estimate`] of the winner).
    pub mem_bytes_per_dev: Vec<usize>,
}

/// Plan one job at `ndev` devices: run the pruned search restricted to
/// that count and keep the fastest survivor. `None` when the whole grid
/// prunes away (e.g. the matrix does not fit), which the caller should
/// treat as "reject the job" at that count.
///
/// `base` supplies the rest of the grid (step sizes, bases, TSQR
/// kinds, precisions); its own `ndevs` field is ignored.
#[must_use]
pub fn admission_estimate(
    planner: &Planner<'_>,
    base: &CandidateSpace,
    ndev: usize,
) -> Option<AdmissionEstimate> {
    let space = CandidateSpace { ndevs: vec![ndev], ..base.clone() };
    let plan = planner.plan(&space);
    let best = plan.best()?;
    // the winner was timed on the machine its footprint is read off, so the
    // read cannot fail where the plan succeeded; were it to, the count is
    // rejected like one whose whole grid pruned away
    let mem_bytes_per_dev = planner.mem_estimate(&best.cand).ok()?;
    Some(AdmissionEstimate {
        cand: best.cand,
        predicted_cycle_s: best.predicted_cycle_s,
        mem_bytes_per_dev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_gpusim::{KernelConfig, PerfModel};

    fn planner(a: &ca_sparse::Csr, m: usize) -> Planner<'_> {
        Planner::new(a, m, PerfModel::default(), KernelConfig::default())
    }

    #[test]
    fn an_estimate_is_for_its_device_count() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        for nd in 1..=3 {
            let e = admission_estimate(&p, &CandidateSpace::smoke(1), nd).expect("fits");
            assert_eq!(e.cand.ndev, nd);
            assert_eq!(e.mem_bytes_per_dev.len(), nd);
            assert!(e.predicted_cycle_s > 0.0);
            assert!(e.mem_bytes_per_dev.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        for nd in [1, 2] {
            let x = admission_estimate(&p, &CandidateSpace::smoke(1), nd).expect("fits");
            let y = admission_estimate(&p, &CandidateSpace::smoke(1), nd).expect("fits");
            assert_eq!(x.cand.label(), y.cand.label());
            assert_eq!(x.predicted_cycle_s.to_bits(), y.predicted_cycle_s.to_bits());
            assert_eq!(x.mem_bytes_per_dev, y.mem_bytes_per_dev);
        }
    }

    #[test]
    fn mem_estimate_matches_pruner_rollup() {
        // A candidate the public estimate says exceeds the budget must
        // also be pruned by plan(), and vice versa.
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        let e = admission_estimate(&p, &CandidateSpace::smoke(1), 1).expect("fits");
        let cap = p.model().dev_mem_capacity as f64 * crate::plan::MEM_FRAC;
        assert!(e.mem_bytes_per_dev.iter().all(|&b| b as f64 <= cap), "survivor over budget");
    }
}
