//! Job requests and the seeded open-loop arrival process.

use ca_scalar::rng::SplitMix64;

/// One solve request submitted to the service.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Unique, monotonically increasing id (ties in every ordering break
    /// on it, which is what makes the scheduler deterministic).
    pub id: u64,
    /// Tenant the job bills to (weighted-fair queueing key).
    pub tenant: String,
    /// Key into the service's matrix pool.
    pub matrix: String,
    /// Right-hand side (length must match the matrix).
    pub rhs: Vec<f64>,
    /// Relative residual tolerance.
    pub rtol: f64,
    /// Simulated arrival time, seconds. The scheduler never starts a job
    /// before this.
    pub arrival_s: f64,
    /// Absolute simulated deadline; a queued job whose ETA overruns it is
    /// escalated to the urgent bucket. `None`: best-effort.
    pub deadline_s: Option<f64>,
}

/// Parameters of [`open_loop_arrivals`].
#[derive(Debug, Clone)]
pub struct ArrivalSpec {
    /// RNG seed — the `arrival_seed` recorded in bench envelopes.
    pub seed: u64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Offered load, jobs per simulated second (the rate of the Poisson
    /// process; exponential inter-arrival times).
    pub rate_jobs_per_s: f64,
    /// Tenant names to draw from (uniformly).
    pub tenants: Vec<String>,
    /// Matrix keys to draw from (uniformly), with their row counts for
    /// RHS generation.
    pub matrices: Vec<(String, usize)>,
    /// Solve tolerance for every job.
    pub rtol: f64,
    /// Fraction of jobs that carry a deadline (in `[0, 1]`).
    pub deadline_fraction: f64,
    /// Deadline headroom: `deadline = arrival + headroom_s`, drawn
    /// uniformly from this range for deadline-carrying jobs.
    pub deadline_headroom_s: (f64, f64),
}

/// Generate a seeded open-loop arrival stream: job `i` arrives after an
/// exponential gap at the offered rate, independent of service progress
/// (arrivals do not wait for completions, so driving the rate past the
/// pool's capacity saturates the queue — the regime `ext_service`
/// measures). Deterministic in `spec.seed`; RHS vectors are drawn in
/// `[-1, 1)` per entry from the same stream.
#[must_use]
pub fn open_loop_arrivals(spec: &ArrivalSpec) -> Vec<JobRequest> {
    assert!(!spec.tenants.is_empty() && !spec.matrices.is_empty());
    assert!(spec.rate_jobs_per_s > 0.0);
    let mut g = SplitMix64::new(spec.seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(spec.jobs);
    for id in 0..spec.jobs as u64 {
        // Exponential inter-arrival: -ln(1 - u) / rate, u in [0, 1).
        let u = g.in_range(0.0, 1.0);
        t += -(1.0 - u).ln() / spec.rate_jobs_per_s;
        let tenant = spec.tenants[g.below(spec.tenants.len() as u64) as usize].clone();
        let (matrix, n) = spec.matrices[g.below(spec.matrices.len() as u64) as usize].clone();
        let rhs: Vec<f64> = (0..n).map(|_| g.in_range(-1.0, 1.0)).collect();
        let deadline_s = (g.in_range(0.0, 1.0) < spec.deadline_fraction)
            .then(|| t + g.in_range(spec.deadline_headroom_s.0, spec.deadline_headroom_s.1));
        out.push(JobRequest { id, tenant, matrix, rhs, rtol: spec.rtol, arrival_s: t, deadline_s });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> ArrivalSpec {
        ArrivalSpec {
            seed,
            jobs: 200,
            rate_jobs_per_s: 50.0,
            tenants: vec!["a".into(), "b".into(), "c".into()],
            matrices: vec![("m0".into(), 64), ("m1".into(), 100)],
            rtol: 1e-8,
            deadline_fraction: 0.25,
            deadline_headroom_s: (0.05, 0.2),
        }
    }

    #[test]
    fn arrivals_are_seed_deterministic_and_monotone() {
        let a = open_loop_arrivals(&spec(7));
        let b = open_loop_arrivals(&spec(7));
        assert_eq!(a.len(), 200);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.matrix, y.matrix);
            assert_eq!(x.arrival_s.to_bits(), y.arrival_s.to_bits());
            assert_eq!(x.rhs, y.rhs);
            assert_eq!(x.deadline_s.map(f64::to_bits), y.deadline_s.map(f64::to_bits));
        }
        for w in a.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        let c = open_loop_arrivals(&spec(8));
        assert!(a.iter().zip(&c).any(|(x, y)| x.arrival_s != y.arrival_s));
    }

    #[test]
    fn rate_controls_mean_gap() {
        let fast = open_loop_arrivals(&ArrivalSpec { rate_jobs_per_s: 500.0, ..spec(3) });
        let slow = open_loop_arrivals(&ArrivalSpec { rate_jobs_per_s: 5.0, ..spec(3) });
        assert!(fast.last().unwrap().arrival_s < slow.last().unwrap().arrival_s / 10.0);
        let deadlines = fast.iter().filter(|j| j.deadline_s.is_some()).count();
        assert!(deadlines > 10 && deadlines < 190, "{deadlines}");
        for j in &fast {
            if let Some(d) = j.deadline_s {
                assert!(d > j.arrival_s);
            }
            assert!(j.rhs.iter().all(|v| (-1.0..1.0).contains(v)));
        }
    }
}
