//! Service-layer integration contracts: the scheduler wrapped around the
//! fault-tolerant solver must add *nothing* to the arithmetic.
//!
//! Four contracts are pinned here. A single-job service run with zero
//! scheduling overhead replays the direct `ca_gmres_ft_session` solve
//! bit for bit (solution, clocks, solver statistics) — the service is a
//! pure wrapper. Scheduling overhead, when charged, delays completions
//! but never leaks into device time or the solution (the satellite fix:
//! overhead is `advance_host`, never `fast_forward`). And a device loss
//! degrades only the slice it happened on: jobs elsewhere on the pool
//! converge unperturbed while the hit slice recovers through the
//! executor-rebuild path, with the whole faulted run still
//! bit-reproducible. And under memory pressure — a device that holds two
//! of three operators — cold builds evict in least-recently-used order
//! through the scheduler, and no allocation is ever refused. And every
//! job ends in exactly one terminal state: a request no solver can take, or
//! one the solver refuses, is one `Rejected` record that leaves the
//! aggregates finite and the valid jobs beside it untouched.

use ca_gmres_repro::gmres::ft::{ca_gmres_ft_session, FtConfig};
use ca_gmres_repro::gpusim::{FaultPlan, KernelConfig, MultiGpu, Schedule};
use ca_gmres_repro::obs::{self, Track};
use ca_gmres_repro::serve::{
    AdmissionCache, JobRequest, JobStatus, Policy, ServeConfig, Service, ServiceReport,
};
use ca_gmres_repro::sparse::{gen, Csr};

const M: usize = 20;
const RTOL: f64 = 1e-8;
const MAX_RESTARTS: usize = 60;

fn problem() -> (String, Csr) {
    ("lap14".to_string(), gen::laplace2d(14, 14))
}

fn rhs(a: &Csr) -> Vec<f64> {
    (0..a.nrows()).map(|i| 1.0 + ((i * 13) % 7) as f64).collect()
}

fn cfg(slices: Vec<usize>) -> ServeConfig {
    let mut cfg = ServeConfig::new(slices);
    cfg.base.solver.m = M;
    cfg.base.solver.rtol = RTOL;
    cfg.base.solver.max_restarts = MAX_RESTARTS;
    cfg.keep_solutions = true;
    cfg
}

fn job(id: u64, matrix: &str, rhs: Vec<f64>, arrival_s: f64) -> JobRequest {
    JobRequest {
        id,
        tenant: "t".into(),
        matrix: matrix.into(),
        rhs,
        rtol: RTOL,
        arrival_s,
        deadline_s: None,
    }
}

/// Zero-overhead single-job service run vs the direct session call with
/// the same admission-derived configuration on an identically built
/// executor: solution bits, completion clock, and solver stats must all
/// agree exactly.
#[test]
fn single_job_service_matches_direct_solve_bit_for_bit() {
    let (key, a) = problem();
    let b = rhs(&a);
    let ndev = 2;

    let mut scfg = cfg(vec![ndev]);
    scfg.admission_cost_s = 0.0;
    scfg.dispatch_cost_s = 0.0;
    let mut svc = Service::new(scfg.clone(), vec![(key.clone(), a.clone())]);
    let rep = svc.run(vec![job(0, &key, b.clone(), 0.0)]);
    assert_eq!(rep.jobs.len(), 1);
    let j = &rep.jobs[0];
    assert_eq!(j.status, JobStatus::Converged);
    assert_eq!(j.start_s.to_bits(), 0f64.to_bits());

    // The reference arm: same plan, same executor construction.
    let mut adm = AdmissionCache::new(
        ServeConfig::default_admission_space(),
        scfg.model.clone(),
        KernelConfig::default(),
        M,
    );
    let (verdict, _) = adm.lookup(&key, &a, ndev);
    let cand = verdict.expect("class must admit").cand;
    let ftcfg = FtConfig { solver: cand.solver_config(M, RTOL, MAX_RESTARTS), ..scfg.base.clone() };
    let mut mg = MultiGpu::new(ndev, scfg.model.clone(), KernelConfig::default());
    mg.set_schedule(Schedule::EventDriven);
    let (out, res) = ca_gmres_ft_session(&mut mg, &a, &b, &ftcfg, None, None, false);

    assert_eq!(j.x.as_deref().unwrap().len(), out.x.len());
    for (sx, dx) in j.x.as_deref().unwrap().iter().zip(&out.x) {
        assert_eq!(sx.to_bits(), dx.to_bits());
    }
    assert_eq!(j.done_s.to_bits(), mg.time().to_bits());
    assert_eq!(j.solver_t_total_s.to_bits(), out.stats.t_total.to_bits());
    assert_eq!(j.iters, out.stats.total_iters);
    assert_eq!(j.restarts, out.stats.restarts);
    assert_eq!(j.relres.to_bits(), out.stats.final_relres.to_bits());
    if let Some(r) = res {
        r.release(&mut mg);
    }

    // Golden determinism: a fresh service replays the digest exactly.
    let mut svc2 = Service::new(scfg, vec![(key.clone(), a)]);
    let rep2 = svc2.run(vec![job(0, &key, b, 0.0)]);
    assert_eq!(rep.digest(), rep2.digest());
}

/// Scheduling overhead delays completion on the host clock but never
/// touches the solve: same solution bits, same iteration counts, same
/// device busy time.
#[test]
fn scheduling_overhead_stays_on_the_host_clock() {
    let (key, a) = problem();
    let b = rhs(&a);
    let run = |admission_cost: f64, dispatch_cost: f64| {
        let mut scfg = cfg(vec![2]);
        scfg.admission_cost_s = admission_cost;
        scfg.dispatch_cost_s = dispatch_cost;
        let mut svc = Service::new(scfg, vec![(key.clone(), a.clone())]);
        svc.run(vec![job(0, &key, b.clone(), 0.0)])
    };
    let lean = run(0.0, 0.0);
    let heavy = run(5e-3, 1e-3);
    let (jl, jh) = (&lean.jobs[0], &heavy.jobs[0]);
    assert_eq!(jl.x_hash, jh.x_hash, "overhead changed the arithmetic");
    assert_eq!(jl.iters, jh.iters);
    // One admission miss at ingest plus one dispatch charge.
    assert!(
        jh.done_s >= jl.done_s + 6e-3 - 1e-12,
        "overhead not reflected in completion: {} vs {}",
        jh.done_s,
        jl.done_s
    );
    // Device busy time is overhead-invariant: recover it from the
    // utilization aggregate (busy = util * ndev * makespan).
    let busy = |r: &ca_gmres_repro::serve::ServiceReport| r.utilization[0] * 2.0 * r.makespan_s;
    let (bl, bh) = (busy(&lean), busy(&heavy));
    assert!(
        (bl - bh).abs() <= 1e-12 * bl.max(bh),
        "overhead leaked into device time: {bl} vs {bh}"
    );
}

/// A device loss on one slice degrades only the jobs resident there:
/// the other slice's jobs converge unperturbed, the hit slice recovers
/// via executor rebuild, and the faulted run is still bit-reproducible.
#[test]
fn device_loss_degrades_only_the_resident_slice() {
    let (key, a) = problem();
    let b = rhs(&a);
    let run = || {
        let mut scfg = cfg(vec![2, 2]);
        scfg.policy = Policy::Sfq;
        // Kill device 0 of slice 0 early in its first solve.
        scfg.fault_plans = vec![(0, FaultPlan::new(7).with_device_loss(0, 40))];
        let mut svc = Service::new(scfg, vec![(key.clone(), a.clone())]);
        let jobs: Vec<JobRequest> =
            (0..6).map(|i| job(i, &key, b.clone(), i as f64 * 1e-4)).collect();
        svc.run(jobs)
    };
    let rep = run();
    assert_eq!(rep.jobs.len(), 6);
    assert!(
        rep.jobs.iter().all(|j| j.status == JobStatus::Converged),
        "device loss must not sink any job: {:?}",
        rep.jobs.iter().map(|j| j.status).collect::<Vec<_>>()
    );
    assert!(rep.solver_rebuilds >= 1, "the fault never fired");
    let on_healthy: Vec<_> = rep.jobs.iter().filter(|j| j.slice == 1).collect();
    assert!(!on_healthy.is_empty(), "no job ever ran on the healthy slice");
    for j in &on_healthy {
        assert!(j.relres <= RTOL, "healthy-slice job degraded: {}", j.relres);
    }
    // Healthy-slice solves are byte-identical to a fault-free reference.
    let mut ref_cfg = cfg(vec![2]);
    ref_cfg.admission_cost_s = 0.0;
    ref_cfg.dispatch_cost_s = 0.0;
    let mut ref_svc = Service::new(ref_cfg, vec![(key.clone(), a.clone())]);
    let ref_rep = ref_svc.run(vec![job(0, &key, b.clone(), 0.0)]);
    let cold_ref = ref_rep.jobs[0].x_hash;
    let first_healthy = on_healthy.iter().min_by_key(|j| j.id).expect("nonempty");
    if !first_healthy.warm {
        assert_eq!(first_healthy.x_hash, cold_ref, "healthy slice perturbed by remote fault");
    }
    // Bit-reproducibility of the whole faulted schedule.
    assert_eq!(rep.digest(), run().digest());
}

/// An executor the fault-tolerant driver rebuilds keeps recording: a
/// traced slice that loses one of its two devices ingests the kernels its
/// first executor ran (device 1 exists only there) and those of the
/// executor rebuilt on the survivor, which runs device 0 after every
/// device-1 kernel has ended.
#[test]
fn rebuilt_executor_keeps_its_kernel_traces() {
    let (key, a) = problem();
    let b = rhs(&a);
    let mut scfg = cfg(vec![2]);
    scfg.record_kernel_traces = true;
    scfg.fault_plans = vec![(0, FaultPlan::new(7).with_device_loss(0, 40))];
    let mut svc = Service::new(scfg, vec![(key.clone(), a)]);
    obs::start();
    let rep = svc.run((0..4).map(|i| job(i, &key, b.clone(), i as f64 * 1e-4)).collect());
    let rec = obs::finish();
    assert!(rep.solver_rebuilds >= 1, "the fault never fired");
    assert!(rep.jobs.iter().all(|j| j.status == JobStatus::Converged));
    let kernels = |d| {
        let on = move |s: &&obs::Span| s.track == Track::Device(d);
        rec.spans.iter().filter(on).map(|s| (s.t0, s.t1)).collect::<Vec<_>>()
    };
    let (before, after) = (kernels(1), kernels(0));
    assert!(!before.is_empty(), "the first executor's kernels were dropped");
    let rebuilt_at = before.iter().map(|s| s.1).fold(0.0, f64::max);
    assert!(
        after.iter().any(|s| s.0 >= rebuilt_at),
        "the rebuilt executor recorded nothing ({} device-0 kernels)",
        after.len()
    );
}

/// Eviction through the scheduler: a pool whose devices hold two of the
/// three operators in the stream. Every cold build beyond the second must
/// first evict, in least-recently-used order — never the operator that
/// just ran — and must then fit: a device refuses (typed, `OutOfMemory`)
/// any allocation past `dev_mem_capacity`, which would sink the job and
/// force an executor re-init, so "every job converges, no re-init" is the
/// capacity invariant as the report shows it.
#[test]
fn memory_pressure_evicts_least_recently_used_through_the_scheduler() {
    let ops = [
        ("lap", gen::laplace2d(14, 14)),
        ("cd", gen::convection_diffusion(14, 14, 2.0)),
        ("lap3", gen::laplace3d(6, 6, 5)),
    ];
    let ndev = 2;
    // the largest footprint on any device, by the planner's own count
    let base = cfg(vec![ndev]);
    let mut adm = AdmissionCache::new(
        ServeConfig::default_admission_space(),
        base.model.clone(),
        KernelConfig::default(),
        M,
    );
    let footprint = ops
        .iter()
        .flat_map(|(key, a)| adm.lookup(key, a, ndev).0.expect("admits").mem_bytes_per_dev.clone())
        .max()
        .expect("three operators");
    let run = || {
        let mut scfg = cfg(vec![ndev]);
        // two operators and half of a third
        scfg.model.dev_mem_capacity = 5 * footprint / 2;
        scfg.batch_max = 1;
        let matrices = ops.iter().map(|(k, a)| (k.to_string(), a.clone())).collect();
        let mut svc = Service::new(scfg, matrices);
        // far enough apart that each job is dispatched alone
        let stream = ["lap", "cd", "lap", "lap3", "lap", "cd", "lap3", "lap3"];
        let jobs = stream.iter().enumerate().map(|(i, &key)| {
            let a = &ops.iter().find(|(k, _)| *k == key).expect("known").1;
            job(i as u64, key, rhs(a), i as f64)
        });
        svc.run(jobs.collect())
    };
    let rep = run();
    assert!(
        rep.jobs.iter().all(|j| j.status == JobStatus::Converged),
        "{:?}",
        rep.jobs.iter().map(|j| (j.id, j.status)).collect::<Vec<_>>()
    );
    assert_eq!((rep.executor_reinits, rep.solver_rebuilds, rep.rejected), (0, 0, 0));
    // resident after each job, most recent last:
    //   lap | lap cd | cd lap | lap lap3 (cd out) | lap3 lap |
    //   lap cd (lap3 out) | cd lap3 (lap out) | cd lap3
    let warm: Vec<bool> = {
        let mut by_id: Vec<_> = rep.jobs.iter().collect();
        by_id.sort_by_key(|j| j.id);
        by_id.iter().map(|j| j.warm).collect()
    };
    assert_eq!(warm, [false, false, true, false, true, false, false, true]);
    assert_eq!(rep.evictions, 3);
    assert_eq!(rep.warm_hits, 3);
    assert_eq!(rep.digest(), run().digest());
}

/// Run `jobs` through a fresh two-device service of [`problem`] on its own
/// thread, so that a run that never returns fails instead of hanging.
fn run_bounded(jobs: Vec<JobRequest>) -> ServiceReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let service = std::thread::spawn(move || {
        let mut svc = Service::new(cfg(vec![2]), vec![problem()]);
        tx.send(svc.run(jobs)).expect("the test waits for the report");
    });
    let rep = rx.recv_timeout(std::time::Duration::from_secs(120));
    let rep = rep.expect("Service::run returns within two minutes, without a panic");
    service.join().expect("the service thread ends cleanly");
    rep
}

fn with(id: u64, edit: impl FnOnce(&mut JobRequest)) -> JobRequest {
    let (key, a) = problem();
    let mut j = job(id, &key, rhs(&a), 0.0);
    edit(&mut j);
    j
}

/// The requests no solver can take (arrival or deadline not a time, an
/// operator the pool does not hold), rejected before they queue.
fn unservable() -> Vec<(&'static str, JobRequest)> {
    vec![
        ("arrival_s = NaN", with(11, |j| j.arrival_s = f64::NAN)),
        ("arrival_s = +inf", with(12, |j| j.arrival_s = f64::INFINITY)),
        ("deadline_s = NaN", with(13, |j| j.deadline_s = Some(f64::NAN))),
        ("unknown matrix key", with(14, |j| j.matrix = "nope".into())),
    ]
}

#[test]
fn every_malformed_job_ends_in_exactly_one_rejected_record() {
    // the solver refuses these after dispatch; the service repeats none of
    // its checks
    let refused = vec![
        ("NaN in rhs", with(1, |j| j.rhs[7] = f64::NAN)),
        ("rhs one row short", with(2, |j| j.rhs.truncate(j.rhs.len() - 1))),
        ("rtol = NaN", with(3, |j| j.rtol = f64::NAN)),
        ("rtol = -1", with(4, |j| j.rtol = -1.0)),
    ];
    for (case, j) in refused.into_iter().chain(unservable()) {
        let rep = run_bounded(vec![j]);
        assert_eq!(rep.jobs.len(), 1, "{case}");
        assert_eq!(rep.jobs[0].status, JobStatus::Rejected, "{case}");
        assert_eq!(rep.rejected, 1, "{case}");
        assert_eq!(rep.jobs[0].restarts, 0, "{case}");
        let t = &rep.tenants[0];
        for v in [rep.makespan_s, rep.p50_tts_s, rep.p99_tts_s, t.p50_tts_s, t.p99_tts_s] {
            assert!(v.is_finite(), "{case}: {rep:?}");
        }
        assert_eq!(t.deadline_misses, 0, "{case}");
    }
}

#[test]
fn jobs_rejected_before_they_queue_leave_a_valid_job_bit_for_bit() {
    let alone = run_bounded(vec![with(0, |_| {})]);
    let (cases, hostile): (Vec<_>, Vec<_>) = unservable().into_iter().unzip();
    let beside = run_bounded([vec![with(0, |_| {})], hostile].concat());
    assert_eq!(beside.rejected, cases.len() as u64, "{cases:?}");
    let (a, b) = (&alone.jobs[0], beside.jobs.iter().find(|j| j.id == 0).expect("job 0"));
    assert_eq!(a.status, JobStatus::Converged);
    assert_eq!(b.status, a.status);
    assert_eq!((b.slice, b.ndev, b.restarts, b.iters), (a.slice, a.ndev, a.restarts, a.iters));
    assert_eq!(b.x_hash, a.x_hash);
    for (u, v) in [
        (a.start_s, b.start_s),
        (a.done_s, b.done_s),
        (a.tts_s, b.tts_s),
        (a.relres, b.relres),
        (a.solver_t_total_s, b.solver_t_total_s),
    ] {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}
