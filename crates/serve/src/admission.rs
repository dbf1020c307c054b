//! Admission control: the `ca-tune` planner consulted once per
//! `(matrix, device-count)` class, plus start-time-fair-queueing tags.
//!
//! Every job class is planned at most once per device count — the
//! [`ca_tune::Candidate::label`]-stable planner output is cached under the
//! service's own matrix key — and the cached prediction prices both the
//! queue (ETA for deadline-aware ordering) and the pool (per-device
//! memory footprint for the residency manager). The simulated cost of a
//! cache miss is charged to the dispatching slice's host clock by the
//! scheduler, not here: this module never touches an executor.

use std::collections::BTreeMap;

use ca_gpusim::{KernelConfig, PerfModel};
use ca_sparse::Csr;
use ca_tune::plan::{CandidateSpace, Planner, RankedCandidate};

use crate::{EWMA_ALPHA, EXPECTED_CYCLES_INIT};

/// Planner front-end with a per-`(matrix key, ndev)` cache and a
/// per-matrix expected-cycle-count EWMA (the ETA multiplier; factor
/// [`EWMA_ALPHA`], seeded with [`EXPECTED_CYCLES_INIT`]).
#[derive(Debug)]
pub struct AdmissionCache {
    space: CandidateSpace,
    model: PerfModel,
    kc: KernelConfig,
    m: usize,
    /// `None`: every candidate at that device count was pruned (e.g. the
    /// operator cannot fit) — the job class is rejected there.
    cache: BTreeMap<(String, usize), Option<RankedCandidate>>,
    ewma_cycles: BTreeMap<String, f64>,
    /// Planner invocations (cache misses) so far.
    pub misses: u64,
}

impl AdmissionCache {
    /// A cache planning with `space` (its `ndevs` field is ignored) for
    /// restart length `m` on the given machine model.
    #[must_use]
    pub fn new(space: CandidateSpace, model: PerfModel, kc: KernelConfig, m: usize) -> Self {
        Self {
            space,
            model,
            kc,
            m,
            cache: BTreeMap::new(),
            ewma_cycles: BTreeMap::new(),
            misses: 0,
        }
    }

    /// The cached verdict for `(key, ndev)` — the planner's pick there, its
    /// predicted cycle time, and the per-device footprint the scheduler
    /// evicts for before a cold build — planning on first use: the best
    /// survivor of the space restricted to `ndev` devices, `None` when the
    /// whole grid prunes away there.
    /// Returns the verdict and whether this call missed the cache (the
    /// scheduler charges simulated planning time only then).
    pub fn lookup(&mut self, key: &str, a: &Csr, ndev: usize) -> (Option<&RankedCandidate>, bool) {
        let k = (key.to_string(), ndev);
        let mut miss = false;
        if !self.cache.contains_key(&k) {
            miss = true;
            self.misses += 1;
            let space = CandidateSpace { ndevs: vec![ndev], ..self.space.clone() };
            let plan = Planner::new(a, self.m, self.model.clone(), self.kc).plan(&space);
            self.cache.insert(k.clone(), plan.best().cloned());
        }
        (self.cache[&k].as_ref(), miss)
    }

    /// Expected cycles for a solve of `key` (EWMA of observed restart
    /// counts).
    #[must_use]
    pub fn expected_cycles(&self, key: &str) -> f64 {
        self.ewma_cycles.get(key).copied().unwrap_or(EXPECTED_CYCLES_INIT)
    }

    /// Fold an observed restart count into the matrix's cycle forecast.
    pub fn observe_cycles(&mut self, key: &str, cycles: usize) {
        let c = cycles.max(1) as f64;
        let prev = self.expected_cycles(key);
        self.ewma_cycles.insert(key.to_string(), (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * c);
    }

    /// ETA for one solve of `key` at `ndev` devices: predicted cycle
    /// time times the cycle forecast. `None` if the class is infeasible
    /// there. Second component: whether the planner ran (cache miss).
    pub fn eta_s(&mut self, key: &str, a: &Csr, ndev: usize) -> (Option<f64>, bool) {
        let cycles = self.expected_cycles(key);
        let (v, miss) = self.lookup(key, a, ndev);
        (v.map(|c| c.predicted_cycle_s * cycles), miss)
    }
}

/// Start-time fair queueing across tenants, every tenant weighing the
/// same: each job gets a virtual start tag `max(V, tenant's last finish)`
/// and a finish tag `start + cost`; the queue serves ascending finish
/// tags and the global virtual time `V` advances to the started job's
/// tag. A backlogged heavy tenant cannot starve light ones — its finish
/// tags run ahead of `V` in proportion to its usage.
#[derive(Debug, Default)]
pub struct FairQueue {
    /// Global virtual time.
    pub vtime: f64,
    vfinish: BTreeMap<String, f64>,
}

impl FairQueue {
    /// Tag a job of `tenant` with service cost `cost_s` (its ETA):
    /// returns `(vstart, vfinish)` and advances the tenant's own finish
    /// frontier. Called once per job, in arrival order.
    pub fn tag(&mut self, tenant: &str, cost_s: f64) -> (f64, f64) {
        let last = self.vfinish.get(tenant).copied().unwrap_or(0.0);
        let vstart = self.vtime.max(last);
        let vfinish = vstart + cost_s.max(0.0);
        self.vfinish.insert(tenant.to_string(), vfinish);
        (vstart, vfinish)
    }

    /// Advance virtual time to a dispatched job's start tag.
    pub fn on_dispatch(&mut self, vstart: f64) {
        self.vtime = self.vtime.max(vstart);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_queue_interleaves_unequal_tenants() {
        let mut fq = FairQueue::default();
        // heavy submits 4 jobs at once, light one job slightly later; all
        // cost 1s. Light's finish tag must sort ahead of heavy's 2nd job.
        let tags: Vec<(f64, f64)> = (0..4).map(|_| fq.tag("heavy", 1.0)).collect();
        let light = fq.tag("light", 1.0);
        assert_eq!(tags[0].1, 1.0);
        assert_eq!(tags[3].1, 4.0);
        assert!(light.1 < tags[1].1, "light {light:?} vs heavy#2 {:?}", tags[1]);
    }

    #[test]
    fn vtime_monotone_under_dispatch() {
        let mut fq = FairQueue::default();
        let (s1, _) = fq.tag("t", 1.0);
        fq.on_dispatch(s1);
        let v1 = fq.vtime;
        let (s2, _) = fq.tag("t", 1.0);
        fq.on_dispatch(s2);
        assert!(fq.vtime >= v1);
        fq.on_dispatch(0.0); // never moves backwards
        assert!(fq.vtime >= v1);
    }

    #[test]
    fn admission_cache_plans_once_per_class() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let mut cache = AdmissionCache::new(
            CandidateSpace::smoke(1),
            PerfModel::default(),
            KernelConfig::default(),
            20,
        );
        let (v1, miss1) = cache.lookup("lap", &a, 2);
        assert!(miss1 && v1.is_some());
        let cycle = cache.cache[&("lap".to_string(), 2)].as_ref().unwrap().predicted_cycle_s;
        let (v2, miss2) = cache.lookup("lap", &a, 2);
        assert!(!miss2);
        assert_eq!(v2.unwrap().predicted_cycle_s.to_bits(), cycle.to_bits());
        assert_eq!(cache.misses, 1);
        // ETA scales with the cycle forecast.
        let (eta0, _) = cache.eta_s("lap", &a, 2);
        assert_eq!(eta0.unwrap().to_bits(), (cycle * 4.0).to_bits());
        cache.observe_cycles("lap", 10);
        let (eta1, miss3) = cache.eta_s("lap", &a, 2);
        assert!(!miss3);
        assert!(eta1.unwrap() > eta0.unwrap());
    }

    fn smoke_cache() -> AdmissionCache {
        let model = PerfModel::default();
        AdmissionCache::new(CandidateSpace::smoke(1), model, KernelConfig::default(), 20)
    }

    #[test]
    fn an_estimate_is_for_its_device_count() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let mut cache = smoke_cache();
        for nd in 1..=3 {
            let e = cache.lookup("lap", &a, nd).0.expect("fits");
            assert_eq!(e.cand.ndev, nd);
            assert_eq!(e.mem_bytes_per_dev.len(), nd);
            assert!(e.predicted_cycle_s > 0.0);
            assert!(e.mem_bytes_per_dev.iter().all(|&b| b > 0));
        }
    }

    #[test]
    fn estimates_are_deterministic() {
        let a = ca_sparse::gen::laplace2d(24, 24);
        let (mut one, mut two) = (smoke_cache(), smoke_cache());
        for nd in [1, 2] {
            let x = one.lookup("lap", &a, nd).0.expect("fits");
            let y = two.lookup("lap", &a, nd).0.expect("fits");
            assert_eq!(x.cand.label(), y.cand.label());
            assert_eq!(x.predicted_cycle_s.to_bits(), y.predicted_cycle_s.to_bits());
            assert_eq!(x.mem_bytes_per_dev, y.mem_bytes_per_dev);
        }
    }

    #[test]
    fn mem_estimate_matches_pruner_rollup() {
        // the footprint an admitted job is evicted for is one the planner's
        // memory budget let through
        let a = ca_sparse::gen::laplace2d(24, 24);
        let e = smoke_cache().lookup("lap", &a, 1).0.cloned().expect("fits");
        let cap = PerfModel::default().dev_mem_capacity as f64 * ca_tune::plan::MEM_FRAC;
        assert!(e.mem_bytes_per_dev.iter().all(|&b| b as f64 <= cap), "survivor over budget");
    }
}
