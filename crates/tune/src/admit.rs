//! Planner-as-admission-controller: the slice of the [`crate::plan`]
//! search a multi-tenant service front-end needs *per job*.
//!
//! A service scheduling hundreds of solve requests onto a shared GPU
//! pool asks, before a job ever touches a device, *how should this job
//! run?* — the best [`Candidate`] for each device count the pool could
//! give it, with its predicted cycle time (the service multiplies it by
//! the expected-cycle count it tracks per matrix into an ETA for
//! deadline-aware ordering) and its device-memory footprint
//! ([`admission_estimates`]).
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

/// Plan one job at each candidate device count: for every entry of
/// `ndevs` (deduplicated, ascending), run the pruned search restricted
/// to that count and keep the fastest survivor. Counts at which the
/// whole grid prunes away (e.g. the matrix does not fit) are skipped,
/// so the result can be shorter than `ndevs` — or empty, which the
/// caller should treat as "reject the job".
///
/// `base` supplies the rest of the grid (step sizes, bases, TSQR
/// kinds, precisions); its own `ndevs` field is ignored.
#[must_use]
pub fn admission_estimates(
    planner: &Planner<'_>,
    base: &CandidateSpace,
    ndevs: &[usize],
) -> Vec<AdmissionEstimate> {
    let mut counts: Vec<usize> = ndevs.iter().copied().filter(|&d| d > 0).collect();
    counts.sort_unstable();
    counts.dedup();
    let mut out = Vec::new();
    for nd in counts {
        let space = CandidateSpace { ndevs: vec![nd], ..base.clone() };
        let plan = planner.plan(&space);
        let Some(best) = plan.best() else { continue };
        // the winner was timed on the machine its footprint is read off, so
        // the read cannot fail where the plan succeeded; were it to, the
        // count is skipped like one whose whole grid pruned away
        let Ok(mem_bytes_per_dev) = planner.mem_estimate(&best.cand) else { continue };
        out.push(AdmissionEstimate {
            cand: best.cand,
            predicted_cycle_s: best.predicted_cycle_s,
            mem_bytes_per_dev,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_gpusim::{KernelConfig, PerfModel};

    fn planner(a: &ca_sparse::Csr, m: usize) -> Planner<'_> {
        Planner::new(a, m, PerfModel::default(), KernelConfig::default())
    }

    #[test]
    fn estimates_cover_each_device_count_once() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        let ests = admission_estimates(&p, &CandidateSpace::smoke(1), &[2, 1, 2, 0, 3]);
        let counts: Vec<usize> = ests.iter().map(|e| e.cand.ndev).collect();
        assert_eq!(counts, vec![1, 2, 3]);
        for e in &ests {
            assert_eq!(e.mem_bytes_per_dev.len(), e.cand.ndev);
            assert!(e.predicted_cycle_s > 0.0);
            assert!(e.mem_bytes_per_dev.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        let x = admission_estimates(&p, &CandidateSpace::smoke(1), &[1, 2]);
        let y = admission_estimates(&p, &CandidateSpace::smoke(1), &[1, 2]);
        assert_eq!(x.len(), y.len());
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(a.cand.label(), b.cand.label());
            assert_eq!(a.predicted_cycle_s.to_bits(), b.predicted_cycle_s.to_bits());
            assert_eq!(a.mem_bytes_per_dev, b.mem_bytes_per_dev);
        }
    }

    #[test]
    fn mem_estimate_matches_pruner_rollup() {
        // A candidate the public estimate says exceeds the budget must
        // also be pruned by plan(), and vice versa.
        let a = ca_sparse::gen::laplace2d(24, 24);
        let p = planner(&a, 20);
        let ests = admission_estimates(&p, &CandidateSpace::smoke(1), &[1]);
        let cap = p.model().dev_mem_capacity as f64 * crate::plan::MEM_FRAC;
        for e in &ests {
            assert!(e.mem_bytes_per_dev.iter().all(|&b| b as f64 <= cap), "survivor over budget");
        }
    }
}
