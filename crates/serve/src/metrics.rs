//! Service-level outcomes: per-job records, aggregate dashboard
//! numbers, per-tenant SLO rows, and the determinism digest.

use crate::slo::TenantSlo;
use ca_obs::Fnv1a;

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Solved to tolerance.
    Converged,
    /// Solve finished without reaching the tolerance (iteration cap or
    /// accepted-checkpoint return after an unrecoverable fault).
    Unconverged,
    /// Never solved: no feasible plan at the slice's device count (e.g.
    /// the operator cannot fit on the pool), a request no solver can take
    /// (an unknown matrix key, a non-finite arrival or deadline), or one
    /// the solver refused ([`ca_gmres::stats::BreakdownKind::InvalidInput`]:
    /// a right-hand side of the wrong length or not finite, a tolerance
    /// that is not a number `>= 0`).
    Rejected,
}

/// One completed (or rejected) job, in completion order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Request id.
    pub id: u64,
    /// Billing tenant.
    pub tenant: String,
    /// Matrix-pool key.
    pub matrix: String,
    /// Pool slice the job ran on.
    pub slice: usize,
    /// Devices of that slice at dispatch time.
    pub ndev: usize,
    /// Simulated arrival.
    pub arrival_s: f64,
    /// Simulated dispatch (host clock when the slice picked it up).
    pub start_s: f64,
    /// Simulated completion (device tail after the solve).
    pub done_s: f64,
    /// Time to solution: `done - arrival` (queueing included).
    pub tts_s: f64,
    /// Terminal state.
    pub status: JobStatus,
    /// Restart cycles the solve took.
    pub restarts: usize,
    /// Total inner iterations.
    pub iters: usize,
    /// Final relative residual.
    pub relres: f64,
    /// Solver-only time ([`ca_gmres::stats::SolveStats::t_total`]) —
    /// excludes queueing and scheduling overhead by construction.
    pub solver_t_total_s: f64,
    /// Whether a warm resident operator was reused (no staging).
    pub warm: bool,
    /// Whether the job rode in a multi-RHS batch.
    pub batched: bool,
    /// `Some(met?)` for deadline-carrying jobs.
    pub deadline_met: Option<bool>,
    /// FNV-1a over the solution bits.
    pub x_hash: u64,
    /// Full solution, kept only under
    /// [`crate::ServeConfig::keep_solutions`].
    pub x: Option<Vec<f64>>,
}

/// Aggregate outcome of one service run.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Per-job records in completion order.
    pub jobs: Vec<JobRecord>,
    /// Simulated end-to-end makespan (max completion time).
    pub makespan_s: f64,
    /// Completed jobs per simulated second.
    pub throughput_jobs_per_s: f64,
    /// Median time to solution.
    pub p50_tts_s: f64,
    /// 99th-percentile time to solution (nearest-rank).
    pub p99_tts_s: f64,
    /// Mean time to solution.
    pub mean_tts_s: f64,
    /// Per-slice device utilization: busy time over `ndev * makespan`.
    pub utilization: Vec<f64>,
    /// Operators evicted to make room.
    pub evictions: u64,
    /// Dispatches that overlapped, in simulated time, with another
    /// slice's in-flight solve or with this slice's still-draining
    /// device queues — one tenant's work proceeding under another's.
    pub backfill_hits: u64,
    /// Solves that reused a warm resident operator.
    pub warm_hits: u64,
    /// Multi-RHS batches dispatched.
    pub batches: u64,
    /// Jobs that rode in those batches.
    pub batched_jobs: u64,
    /// Jobs that ended [`JobStatus::Rejected`].
    pub rejected: u64,
    /// Deadline-carrying jobs that missed.
    pub deadline_misses: u64,
    /// Peak visible queue depth.
    pub max_queue_depth: usize,
    /// Planner invocations (admission cache misses).
    pub planner_misses: u64,
    /// Slice executors re-initialized after a fatal solve (leaked
    /// allocations reclaimed by rebuilding).
    pub executor_reinits: u64,
    /// Executor rebuilds *inside* solves (device-loss recovery).
    pub solver_rebuilds: u64,
    /// Per-tenant SLO summaries (alphabetical by tenant): deadline-hit
    /// rates, TTS / queue-delay quantiles, and burn-alert counts.
    pub tenants: Vec<TenantSlo>,
}

/// FNV-1a over a solution vector's bits.
#[must_use]
pub fn hash_solution(x: &[f64]) -> u64 {
    let mut h = Fnv1a::default();
    x.iter().for_each(|v| h.word(v.to_bits()));
    h.finish()
}

/// Nearest-rank percentile of an (unsorted) sample; 0.0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

impl ServiceReport {
    /// Order-sensitive digest of everything scheduling decides:
    /// completion order, per-job solutions and clocks, and the
    /// dashboard counters. Two runs are bit-identical iff their digests
    /// match; CI pins it in the committed `ext_service` smoke output.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for j in &self.jobs {
            h.word(j.id);
            h.word(j.x_hash);
            h.word(j.done_s.to_bits());
            h.word(j.start_s.to_bits());
            h.word(j.slice as u64);
            h.word(u64::from(j.warm) | u64::from(j.batched) << 1);
            h.word(j.iters as u64);
        }
        for c in [
            self.evictions,
            self.backfill_hits,
            self.warm_hits,
            self.batches,
            self.batched_jobs,
            self.rejected,
            self.deadline_misses,
            self.max_queue_depth as u64,
            self.planner_misses,
            self.executor_reinits,
            self.solver_rebuilds,
        ] {
            h.word(c);
        }
        for t in &self.tenants {
            h.bytes(t.tenant.as_bytes());
            for c in [t.jobs, t.deadline_hits, t.deadline_misses, t.slo_burns] {
                h.word(c);
            }
            for v in [t.hit_rate, t.p50_tts_s, t.p99_tts_s, t.p50_queue_delay_s] {
                h.word(v.to_bits());
            }
        }
        h.word(self.makespan_s.to_bits());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn digest_sees_order_and_counters() {
        let job = |id: u64| JobRecord {
            id,
            tenant: "t".into(),
            matrix: "m".into(),
            slice: 0,
            ndev: 1,
            arrival_s: 0.0,
            start_s: 0.0,
            done_s: id as f64,
            tts_s: id as f64,
            status: JobStatus::Converged,
            restarts: 1,
            iters: 10,
            relres: 1e-9,
            solver_t_total_s: 0.5,
            warm: false,
            batched: false,
            deadline_met: None,
            x_hash: 42 + id,
            x: None,
        };
        let mut a = ServiceReport { jobs: vec![job(1), job(2)], ..Default::default() };
        let b = ServiceReport { jobs: vec![job(2), job(1)], ..Default::default() };
        assert_ne!(a.digest(), b.digest());
        let d0 = a.digest();
        a.evictions += 1;
        assert_ne!(a.digest(), d0);
        let d1 = a.digest();
        a.tenants.push(TenantSlo { tenant: "t".into(), slo_burns: 1, ..TenantSlo::default() });
        assert_ne!(a.digest(), d1, "digest must see the tenant SLO rows");
    }
}
