//! The dispatch loop: slices, queue, batching, backfill, and fault
//! isolation.
//!
//! Simulated-time model: each slice is an independent executor. The
//! dispatcher always serves the slice with the *lowest host clock* — a
//! quantity that only ever rises — so jobs become visible (arrival ≤
//! that clock) in a deterministic order, and a job is never started
//! before its arrival. An idle slice with nothing eligible fast-forwards
//! to the next arrival (genuinely idle time moves every clock); all
//! scheduling overhead (planning, dispatch bookkeeping) is charged with
//! `advance_host` only, so it can delay a solve's start but never
//! inflates device clocks or the solver's own phase timings.

use std::collections::{BTreeMap, VecDeque};

use ca_gmres::ft::{ca_gmres_ft_session, FtConfig};
use ca_gmres::prelude::*;
use ca_gpusim::{KernelConfig, MultiGpu, Schedule};
use ca_obs as obs;
use ca_sparse::Csr;
use ca_tune::RankedCandidate;

use crate::admission::{AdmissionCache, FairQueue};
use crate::job::JobRequest;
use crate::metrics::{hash_solution, percentile, JobRecord, JobStatus, ServiceReport};
use crate::residency::Residency;
use crate::slo::{SloConfig, SloMonitor};
use crate::{Policy, ServeConfig, AFFINITY_SLACK};

/// One pool slice: an executor plus its warm-operator store.
struct Slice {
    mg: MultiGpu,
    residency: Residency,
    /// Excluded from dispatch until something changes (no eligible job).
    parked: bool,
    /// Simulated interval of the most recent contiguous run of solves,
    /// for cross-slice overlap (backfill) detection.
    busy_from: f64,
    busy_until: f64,
}

/// A job waiting in the visible queue, with its fair-queueing tags.
struct Queued {
    req: JobRequest,
    vstart: f64,
    vfinish: f64,
    /// Best ETA across the configured slice sizes (seconds).
    eta_s: f64,
}

/// The service: matrix pool, slices, admission state, and the queue
/// discipline. Construct once, then [`Service::run`] an arrival stream.
pub struct Service {
    cfg: ServeConfig,
    matrices: BTreeMap<String, Csr>,
    slices: Vec<Slice>,
    admission: AdmissionCache,
    fair: FairQueue,
    slo: SloMonitor,
}

impl Service {
    /// Build the pool: one executor per configured slice, fault plans
    /// installed where requested, admission cache cold.
    #[must_use]
    pub fn new(cfg: ServeConfig, matrices: Vec<(String, Csr)>) -> Self {
        let slices = cfg
            .slices
            .iter()
            .enumerate()
            .map(|(i, &nd)| {
                let mut mg = MultiGpu::new(nd, cfg.model.clone(), KernelConfig::default());
                mg.set_schedule(Schedule::EventDriven);
                if cfg.record_kernel_traces {
                    mg.enable_trace();
                }
                if let Some((_, plan)) = cfg.fault_plans.iter().find(|(si, _)| *si == i) {
                    mg.set_fault_plan(plan.clone());
                }
                Slice {
                    mg,
                    residency: Residency::default(),
                    parked: false,
                    busy_from: 0.0,
                    busy_until: 0.0,
                }
            })
            .collect();
        let admission = AdmissionCache::new(
            ServeConfig::default_admission_space(),
            cfg.model.clone(),
            KernelConfig::default(),
            cfg.base.solver.m,
        );
        let (fair, slo) = (FairQueue::default(), SloMonitor::new(SloConfig::default()));
        Self { cfg, matrices: matrices.into_iter().collect(), slices, admission, fair, slo }
    }

    /// Run an arrival stream to completion.
    pub fn run(&mut self, mut jobs: Vec<JobRequest>) -> ServiceReport {
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        self.slo = SloMonitor::new(SloConfig::default());
        let mut report = ServiceReport::default();
        // A job no solver can ever take — an operator the pool does not
        // hold, or an arrival or deadline that is not a time — is rejected
        // before it queues, and charges nothing.
        let (jobs, malformed): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|j| {
            self.matrices.contains_key(&j.matrix)
                && j.arrival_s.is_finite()
                && j.deadline_s.is_none_or(f64::is_finite)
        });
        let h0 = self.slices.iter().map(|sl| sl.mg.host_time()).fold(f64::INFINITY, f64::min);
        for req in &malformed {
            self.reject(req, h0, &mut report);
        }
        let mut pending: VecDeque<JobRequest> = jobs.into();
        let mut queue: Vec<Queued> = Vec::new();
        // Distinct configured slice sizes, for ingest-time ETA/feasibility.
        let mut sizes: Vec<usize> = self.cfg.slices.clone();
        sizes.sort_unstable();
        sizes.dedup();

        loop {
            // Serve the unparked slice with the lowest host clock.
            let Some(s) = self
                .slices
                .iter()
                .enumerate()
                .filter(|(_, sl)| !sl.parked)
                .min_by(|(i, a), (j, b)| {
                    a.mg.host_time().total_cmp(&b.mg.host_time()).then(i.cmp(j))
                })
                .map(|(i, _)| i)
            else {
                // Every slice parked: nothing queued is servable on the
                // current pool (e.g. degradation shrank every slice below
                // the job's admissible device counts). Reject the queue;
                // later arrivals may still be servable, so keep draining.
                let h =
                    self.slices.iter().map(|sl| sl.mg.host_time()).fold(f64::INFINITY, f64::min);
                for q in queue.drain(..) {
                    self.reject(&q.req, h, &mut report);
                }
                if pending.is_empty() {
                    break;
                }
                self.unpark();
                continue;
            };
            let h = self.slices[s].mg.host_time();

            // Ingest arrivals visible at this clock (the pool-wide
            // minimum, so tags are assigned in a deterministic order).
            while pending.front().is_some_and(|j| j.arrival_s <= h) {
                let req = pending.pop_front().expect("peeked");
                self.ingest(req, &sizes, s, &mut queue, &mut report);
                self.unpark();
            }
            report.max_queue_depth = report.max_queue_depth.max(queue.len());

            if queue.is_empty() {
                match pending.front() {
                    Some(j) => {
                        // Idle until the next arrival: real idle time, so
                        // every clock on the slice moves.
                        let t = j.arrival_s;
                        self.slices[s].mg.fast_forward(t);
                        continue;
                    }
                    None => break,
                }
            }

            match self.pick(s, &queue, h) {
                Some(qi) => {
                    self.unpark();
                    self.dispatch(s, qi, &mut queue, &mut report);
                }
                None => {
                    // Nothing in the queue admits at this slice's device
                    // count: park it until another slice makes progress.
                    self.slices[s].parked = true;
                }
            }
        }

        if self.cfg.record_kernel_traces && obs::enabled() {
            for sl in &mut self.slices {
                ca_gpusim::obs_ingest_traces(&sl.mg.take_traces());
            }
        }
        self.finalize(&mut report);
        report
    }

    /// Tag a newly visible job (SFQ) or reject it if no configured slice
    /// size admits it.
    fn ingest(
        &mut self,
        req: JobRequest,
        sizes: &[usize],
        charge_slice: usize,
        queue: &mut Vec<Queued>,
        report: &mut ServiceReport,
    ) {
        let a = &self.matrices[&req.matrix];
        let mut eta: Option<f64> = None;
        let mut misses = 0u32;
        for &nd in sizes {
            let (e, miss) = self.admission.eta_s(&req.matrix, a, nd);
            misses += u32::from(miss);
            if let Some(e) = e {
                eta = Some(eta.map_or(e, |b: f64| b.min(e)));
            }
        }
        if misses > 0 {
            self.slices[charge_slice]
                .mg
                .advance_host(f64::from(misses) * self.cfg.admission_cost_s);
        }
        let Some(eta_s) = eta else {
            let h = self.slices[charge_slice].mg.host_time();
            self.reject(&req, h, report);
            return;
        };
        let (vstart, vfinish) = self.fair.tag(&req.tenant, eta_s);
        if obs::enabled() {
            obs::sample(obs::names::SERVE_QUEUE_DEPTH, self.slices[charge_slice].mg.host_time(), {
                queue.len() as f64 + 1.0
            });
        }
        queue.push(Queued { req, vstart, vfinish, eta_s });
    }

    /// Choose the next job for slice `s`, or `None` when nothing queued
    /// admits at its device count.
    fn pick(&mut self, s: usize, queue: &[Queued], h: f64) -> Option<usize> {
        let nd = self.slices[s].mg.n_gpus();
        let mut feasible: Vec<usize> = Vec::new();
        let mut miss_charge = 0u32;
        for (i, q) in queue.iter().enumerate() {
            let a = &self.matrices[&q.req.matrix];
            let (v, miss) = self.admission.lookup(&q.req.matrix, a, nd);
            miss_charge += u32::from(miss);
            if v.is_some() {
                feasible.push(i);
            }
        }
        if miss_charge > 0 {
            self.slices[s].mg.advance_host(f64::from(miss_charge) * self.cfg.admission_cost_s);
        }
        if feasible.is_empty() {
            return None;
        }
        if self.cfg.policy == Policy::Fifo {
            return feasible.iter().copied().min_by(|&i, &j| {
                let (a, b) = (&queue[i].req, &queue[j].req);
                a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id))
            });
        }
        // Deadline-urgency bucket: jobs that will miss unless run now.
        let urgent = feasible
            .iter()
            .copied()
            .filter(|&i| queue[i].req.deadline_s.is_some_and(|d| h + queue[i].eta_s > d));
        if let Some(pick) = urgent.min_by(|&i, &j| {
            let (a, b) = (&queue[i], &queue[j]);
            let (da, db) = (a.req.deadline_s.unwrap(), b.req.deadline_s.unwrap());
            da.total_cmp(&db).then(a.vfinish.total_cmp(&b.vfinish)).then(a.req.id.cmp(&b.req.id))
        }) {
            return Some(pick);
        }
        // Fair order, with a bounded residency-affinity preference.
        let by_vf = |&i: &usize, &j: &usize| {
            queue[i]
                .vfinish
                .total_cmp(&queue[j].vfinish)
                .then(queue[i].req.id.cmp(&queue[j].req.id))
        };
        let head = feasible.iter().copied().min_by(by_vf).expect("nonempty");
        let window = queue[head].vfinish * (1.0 + AFFINITY_SLACK);
        feasible
            .iter()
            .copied()
            .filter(|&i| {
                self.slices[s].residency.contains(&queue[i].req.matrix)
                    && queue[i].vfinish <= window
            })
            .min_by(by_vf)
            .or(Some(head))
    }

    /// Run the chosen job (plus same-matrix riders, batched) on slice `s`.
    fn dispatch(
        &mut self,
        s: usize,
        qi: usize,
        queue: &mut Vec<Queued>,
        report: &mut ServiceReport,
    ) {
        let primary = queue.remove(qi);
        let key = primary.req.matrix.clone();
        let h = self.slices[s].mg.host_time();
        if obs::enabled() {
            obs::sample(obs::names::SERVE_QUEUE_DEPTH, h, queue.len() as f64);
        }

        // Backfill: this dispatch overlaps, in simulated time, either
        // this slice's still-draining device queues (host staging under a
        // previous tenant's tail) or another slice's in-flight solve —
        // the event-driven overlap the slice partitioning buys.
        let overlap = self
            .slices
            .iter()
            .enumerate()
            .any(|(i, sl)| i != s && sl.busy_from <= h && h < sl.busy_until);
        if self.slices[s].mg.time() > h + 1e-12 || overlap {
            report.backfill_hits += 1;
            if obs::enabled() {
                obs::counter_add(obs::names::SERVE_BACKFILL_HITS, 1);
            }
        }

        let nd = self.slices[s].mg.n_gpus();
        let a = &self.matrices[&key];
        let n = a.nrows();
        let (verdict, miss) = self.admission.lookup(&key, a, nd);
        let adm: RankedCandidate = match verdict {
            Some(v) => v.clone(),
            None => {
                // Degradation can shrink a slice below any admissible
                // count between pick and dispatch.
                self.reject(&primary.req, h, report);
                return;
            }
        };
        let overhead =
            self.cfg.dispatch_cost_s + if miss { self.cfg.admission_cost_s } else { 0.0 };
        self.slices[s].mg.advance_host(overhead);
        self.fair.on_dispatch(primary.vstart);

        // Riders: queued jobs on the same matrix, fairest first.
        let mut batch = vec![primary];
        if self.cfg.batch_max > 1 {
            let mut riders: Vec<usize> =
                (0..queue.len()).filter(|&i| queue[i].req.matrix == key).collect();
            riders.sort_by(|&i, &j| {
                queue[i]
                    .vfinish
                    .total_cmp(&queue[j].vfinish)
                    .then(queue[i].req.id.cmp(&queue[j].req.id))
            });
            riders.truncate(self.cfg.batch_max - 1);
            riders.sort_unstable_by(|a, b| b.cmp(a)); // remove back-to-front
            for i in riders {
                batch.push(queue.remove(i));
            }
            batch[1..]
                .sort_by(|x, y| x.vfinish.total_cmp(&y.vfinish).then(x.req.id.cmp(&y.req.id)));
        }
        let batched = batch.len() > 1;
        if batched {
            report.batches += 1;
            report.batched_jobs += batch.len() as u64;
        }

        // Make room for a cold build before any allocation happens.
        if self.cfg.residency && !self.slices[s].residency.contains(&key) {
            let sl = &mut self.slices[s];
            let evicted = sl.residency.make_room(&mut sl.mg, &key, &adm.mem_bytes_per_dev);
            report.evictions += evicted;
            if evicted > 0 && obs::enabled() {
                obs::counter_add(obs::names::SERVE_EVICTIONS, evicted);
            }
        }

        // Aggregated RHS staging: one charged upload for the whole batch,
        // then each solve installs its RHS without re-charging.
        let mut precharged = false;
        if batched {
            let layout = Layout::even(n, nd);
            let bytes: Vec<usize> = (0..nd).map(|d| batch.len() * 8 * layout.nlocal(d)).collect();
            precharged = self.slices[s].mg.to_devices(&bytes).is_ok();
        }

        for q in batch {
            self.solve_one(s, q, &key, &adm, precharged, batched, report);
        }
    }

    /// One solve on slice `s`, with residency and fault bookkeeping.
    #[allow(clippy::too_many_arguments)]
    fn solve_one(
        &mut self,
        s: usize,
        q: Queued,
        key: &str,
        adm: &RankedCandidate,
        precharged: bool,
        batched: bool,
        report: &mut ServiceReport,
    ) {
        let a = &self.matrices[key];
        let sl = &mut self.slices[s];
        let start_s = sl.mg.host_time();
        let resident = if self.cfg.residency { sl.residency.take(key) } else { None };
        let warm = resident.is_some();
        if warm {
            report.warm_hits += 1;
            if obs::enabled() {
                obs::counter_add(obs::names::SERVE_WARM_HITS, 1);
            }
        }
        let ftcfg = FtConfig {
            solver: adm.cand.solver_config(
                self.cfg.base.solver.m,
                q.req.rtol,
                self.cfg.base.solver.max_restarts,
            ),
            ..self.cfg.base.clone()
        };
        let sp = obs::span_begin("serve.job", obs::Track::Host, start_s);
        let (out, res) =
            ca_gmres_ft_session(&mut sl.mg, a, &q.req.rhs, &ftcfg, None, resident, precharged);
        let done_s = sl.mg.time();
        obs::span_end(sp, done_s);
        if start_s > sl.busy_until {
            sl.busy_from = start_s;
        }
        sl.busy_until = sl.busy_until.max(done_s);

        // Fault isolation: an in-solve executor rebuild (device-loss
        // recovery) invalidated every other operator on this slice.
        if out.report.executor_rebuilds > 0 {
            report.solver_rebuilds += out.report.executor_rebuilds as u64;
            sl.residency.clear_stale();
        }
        // the solver refused the job (its right-hand side or tolerance)
        // before any cycle ran
        let refused = matches!(out.stats.breakdown, Some(BreakdownKind::InvalidInput { .. }));
        match res {
            Some(r) if self.cfg.residency => sl.residency.park(&mut sl.mg, key, r),
            Some(r) => r.release(&mut sl.mg),
            // Fatal solve: the driver dropped its system without freeing
            // (accounting now holds orphaned bytes) — unless a rebuild
            // already replaced the executor wholesale, or a refusal built
            // nothing.
            None if !refused && out.report.executor_rebuilds == 0 => {
                self.reinit_slice(s);
                report.executor_reinits += 1;
            }
            None => {}
        }
        let status = if refused {
            report.rejected += 1;
            JobStatus::Rejected
        } else {
            self.admission.observe_cycles(key, out.stats.restarts);
            if out.stats.converged {
                JobStatus::Converged
            } else {
                JobStatus::Unconverged
            }
        };
        let deadline_met = q.req.deadline_s.map(|d| done_s <= d);
        if deadline_met == Some(false) {
            report.deadline_misses += 1;
        }
        let rec = JobRecord {
            id: q.req.id,
            tenant: q.req.tenant,
            matrix: key.to_string(),
            slice: s,
            ndev: self.slices[s].mg.n_gpus(),
            arrival_s: q.req.arrival_s,
            start_s,
            done_s,
            tts_s: done_s - q.req.arrival_s,
            status,
            restarts: out.stats.restarts,
            iters: out.stats.total_iters,
            relres: out.stats.final_relres,
            solver_t_total_s: out.stats.t_total,
            warm,
            batched,
            deadline_met,
            x_hash: hash_solution(&out.x),
            x: self.cfg.keep_solutions.then_some(out.x),
        };
        self.slo.observe_job(&rec, done_s);
        report.jobs.push(rec);
    }

    /// Replace slice `s`'s executor after a fatal solve leaked device
    /// allocations: fresh devices at the inherited simulated time, with
    /// traces, communication counters and reclaimed time carried over so
    /// end-to-end accounting stays honest ([`MultiGpu::respawn`]).
    fn reinit_slice(&mut self, s: usize) {
        let sl = &mut self.slices[s];
        sl.mg.respawn(sl.mg.n_gpus());
        sl.residency.clear_stale();
    }

    /// Record `req` as rejected at `at_s`.
    fn reject(&mut self, req: &JobRequest, at_s: f64, report: &mut ServiceReport) {
        let r = reject_record(req, at_s);
        self.slo.observe_job(&r, at_s);
        report.jobs.push(r);
        report.rejected += 1;
    }

    fn unpark(&mut self) {
        for sl in &mut self.slices {
            sl.parked = false;
        }
    }

    /// Aggregate the dashboard numbers once the queue has drained.
    fn finalize(&self, report: &mut ServiceReport) {
        report.planner_misses = self.admission.misses;
        let makespan = report.jobs.iter().map(|j| j.done_s).fold(0.0f64, f64::max);
        report.makespan_s = makespan;
        let completed = report.jobs.iter().filter(|j| j.status != JobStatus::Rejected).count();
        report.throughput_jobs_per_s =
            if makespan > 0.0 { completed as f64 / makespan } else { 0.0 };
        let tts: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.status != JobStatus::Rejected)
            .map(|j| j.tts_s)
            .collect();
        report.p50_tts_s = percentile(&tts, 50.0);
        report.p99_tts_s = percentile(&tts, 99.0);
        report.tenants = self.slo.finalize();
        report.mean_tts_s =
            if tts.is_empty() { 0.0 } else { tts.iter().sum::<f64>() / tts.len() as f64 };
        report.utilization = self
            .slices
            .iter()
            .map(|sl| {
                if makespan <= 0.0 {
                    return 0.0;
                }
                let busy: f64 = (0..sl.mg.n_gpus()).map(|d| sl.mg.device(d).busy_time()).sum();
                busy / (sl.mg.n_gpus() as f64 * makespan)
            })
            .collect();
        if obs::enabled() {
            obs::gauge_set(obs::names::SERVE_THROUGHPUT_JOBS_PER_S, report.throughput_jobs_per_s);
            obs::gauge_set(obs::names::SERVE_P50_TTS_S, report.p50_tts_s);
            obs::gauge_set(obs::names::SERVE_P99_TTS_S, report.p99_tts_s);
            obs::gauge_set(obs::names::SERVE_MAX_QUEUE_DEPTH, report.max_queue_depth as f64);
        }
    }
}

fn reject_record(req: &JobRequest, at_s: f64) -> JobRecord {
    JobRecord {
        id: req.id,
        tenant: req.tenant.clone(),
        matrix: req.matrix.clone(),
        slice: usize::MAX,
        ndev: 0,
        arrival_s: req.arrival_s,
        start_s: at_s,
        done_s: at_s,
        tts_s: at_s - req.arrival_s,
        status: JobStatus::Rejected,
        restarts: 0,
        iters: 0,
        relres: f64::NAN,
        solver_t_total_s: 0.0,
        warm: false,
        batched: false,
        // a deadline that is not a time is neither met nor missed
        deadline_met: req.deadline_s.filter(|d| d.is_finite()).map(|d| at_s <= d),
        x_hash: 0,
        x: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::open_loop_arrivals;
    use crate::job::ArrivalSpec;
    use crate::ServeConfig;

    fn pool() -> Vec<(String, Csr)> {
        vec![
            ("lap16".to_string(), ca_sparse::gen::laplace2d(16, 16)),
            ("lap20".to_string(), ca_sparse::gen::laplace2d(20, 20)),
        ]
    }

    fn arrivals(seed: u64, jobs: usize, rate: f64) -> Vec<JobRequest> {
        open_loop_arrivals(&ArrivalSpec {
            seed,
            jobs,
            rate_jobs_per_s: rate,
            tenants: vec!["acme".into(), "beta".into()],
            matrices: vec![("lap16".into(), 256), ("lap20".into(), 400)],
            rtol: 1e-8,
            deadline_fraction: 0.3,
            deadline_headroom_s: (0.01, 0.1),
        })
    }

    #[test]
    fn under_memory_pressure_devices_stay_within_capacity_and_the_job_run_last_stays_resident() {
        let pool = pool();
        let mut cfg = ServeConfig::new(vec![1]);
        let mut adm = AdmissionCache::new(
            ServeConfig::default_admission_space(),
            cfg.model.clone(),
            KernelConfig::default(),
            cfg.base.solver.m,
        );
        let mut footprint =
            |(key, a): &(String, Csr)| adm.lookup(key, a, 1).0.expect("fits").mem_bytes_per_dev[0];
        // room for the larger operator and half of the smaller one
        let capacity = footprint(&pool[1]) + footprint(&pool[0]) / 2;
        cfg.model.dev_mem_capacity = capacity;
        let mut svc = Service::new(cfg, pool);
        let mut evictions = 0;
        for (i, key) in ["lap16", "lap20", "lap20", "lap16", "lap20"].into_iter().enumerate() {
            let n = svc.matrices[key].nrows();
            let rep = svc.run(vec![JobRequest {
                id: i as u64,
                tenant: "t".into(),
                matrix: key.into(),
                rhs: vec![1.0; n],
                rtol: 1e-8,
                arrival_s: i as f64,
                deadline_s: None,
            }]);
            assert_eq!(rep.jobs[0].status, JobStatus::Converged, "job {i}");
            evictions += rep.evictions;
            let sl = &svc.slices[0];
            assert!(sl.mg.device(0).mem_used() <= capacity, "job {i}");
            assert!(sl.residency.contains(key), "job {i}: the operator just used was evicted");
            assert_eq!(sl.residency.len(), 1, "job {i}: both operators cannot be resident");
        }
        assert_eq!(evictions, 3);
    }

    #[test]
    fn single_job_round_trip() {
        let mut svc = Service::new(ServeConfig::new(vec![2]), pool());
        let rep = svc.run(arrivals(1, 1, 10.0));
        assert_eq!(rep.jobs.len(), 1);
        let j = &rep.jobs[0];
        assert_eq!(j.status, JobStatus::Converged);
        assert!(j.relres <= 1e-8, "{}", j.relres);
        assert_eq!(rep.rejected, 0);
        assert!(j.start_s >= j.arrival_s);
        assert!(j.done_s > j.start_s);
        assert!(j.tts_s >= j.solver_t_total_s);
        assert!(rep.throughput_jobs_per_s > 0.0);
        assert_eq!(rep.utilization.len(), 1);
        assert!(rep.utilization[0] > 0.0);
    }

    #[test]
    fn repeated_matrices_hit_warm_residency_and_batch() {
        let mut svc = Service::new(ServeConfig::new(vec![2]), pool());
        let rep = svc.run(arrivals(3, 12, 500.0));
        assert_eq!(rep.jobs.len(), 12);
        assert!(rep.jobs.iter().all(|j| j.status == JobStatus::Converged));
        assert!(rep.warm_hits > 0, "no warm reuse: {rep:?}");
        assert!(rep.batched_jobs > 0, "no batching under saturation");
        // Two matrix classes at one device count: the planner ran at most
        // once per class.
        assert!(rep.planner_misses <= 2, "{}", rep.planner_misses);
        assert!(rep.max_queue_depth > 1);
    }

    #[test]
    fn recorded_stream_feeds_kernel_metrics_and_stays_bit_identical() {
        let run = |record: bool| {
            let mut cfg = ServeConfig::new(vec![1, 2]);
            cfg.record_kernel_traces = record;
            let mut svc = Service::new(cfg, pool());
            svc.run(arrivals(11, 8, 300.0)).digest()
        };
        let plain = run(false);
        assert_eq!(plain, run(true), "tracing must not perturb the stream");

        ca_obs::start();
        let recorded = run(true);
        let rec = ca_obs::finish();
        assert_eq!(plain, recorded, "obs session must not perturb the stream");
        let view = rec.metrics.view();
        let kernels = view.histograms_with_prefix("kernel.");
        assert!(!kernels.is_empty(), "no kernel metrics ingested from the stream");
        let spmv_calls: u64 = view.counter("kernel.spmv.calls").unwrap_or(0)
            + view.counter("kernel.mpk_step.calls").unwrap_or(0);
        assert!(spmv_calls > 0, "stream of solves recorded no SpMV/MPK work");

        ca_obs::start();
        let unrecorded = run(false);
        let rec = ca_obs::finish();
        assert_eq!(plain, unrecorded);
        assert!(
            rec.metrics.view().histograms_with_prefix("kernel.").is_empty(),
            "flag off must ingest nothing"
        );
    }

    #[test]
    fn rerun_is_bit_identical() {
        let run = || {
            let mut svc = Service::new(ServeConfig::new(vec![1, 2]), pool());
            svc.run(arrivals(9, 10, 400.0))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.digest(), b.digest());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.x_hash, y.x_hash);
            assert_eq!(x.done_s.to_bits(), y.done_s.to_bits());
        }
    }

    #[test]
    fn tenant_slo_rows_cover_every_job() {
        let mut svc = Service::new(ServeConfig::new(vec![1, 2]), pool());
        let rep = svc.run(arrivals(7, 10, 400.0));
        assert!(!rep.tenants.is_empty());
        let jobs: u64 = rep.tenants.iter().map(|t| t.jobs).sum();
        assert_eq!(jobs, rep.jobs.len() as u64);
        let misses: u64 = rep.tenants.iter().map(|t| t.deadline_misses).sum();
        assert_eq!(misses, rep.deadline_misses);
        let mut names: Vec<&str> = rep.tenants.iter().map(|t| t.tenant.as_str()).collect();
        let sorted = names.clone();
        names.sort_unstable();
        assert_eq!(names, sorted, "tenant rows must be alphabetical");
        for t in &rep.tenants {
            assert!((0.0..=1.0).contains(&t.hit_rate), "{t:?}");
            assert!(t.p50_tts_s <= t.p99_tts_s, "{t:?}");
            assert_eq!(t.deadline_jobs, t.deadline_hits + t.deadline_misses);
        }
    }

    #[test]
    fn fifo_arm_serves_in_arrival_order_cold() {
        let mut svc = Service::new(ServeConfig::naive_fifo(2), pool());
        let rep = svc.run(arrivals(5, 8, 400.0));
        assert_eq!(rep.jobs.len(), 8);
        assert!(rep.jobs.iter().all(|j| j.status == JobStatus::Converged));
        assert_eq!(rep.warm_hits, 0);
        assert_eq!(rep.batches, 0);
        assert_eq!(rep.evictions, 0);
        let ids: Vec<u64> = rep.jobs.iter().map(|j| j.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "FIFO must complete in arrival order");
    }
}
