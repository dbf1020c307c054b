//! Golden digests of the fault-tolerant driver, recorded at the commit
//! *before* the plain and fault-tolerant block loops were merged into one
//! cycle engine (`crates/core/src/cycle.rs`). Every recovery arm the FT
//! driver owns is driven once on a rand-free generator (`laplace2d`,
//! `convection_diffusion`, `cantilever` — `circuit` draws from `rand` and
//! differs between toolchain stand-ins) and everything observable is
//! pinned: solution hash, clock bits, traffic counters, iteration path and
//! the whole `FtReport`. `t_spmv`/`t_small` are deliberately absent — the
//! single loop attributes them for FT solves, which the old copy did not.
//!
//! Re-recorded once, by rule, when a basis vector became one kernel launch
//! (`Device::mpk_step`): on a healthy machine only the clock moved — `t=`,
//! and the last bits of `orth=`/`tsqr=`, which are differences of clock
//! readings that all shifted — every other field is byte-equal to the first
//! recording. A fused launch is one op, so the fault plans' op coordinates
//! were re-aimed at the place they used to hit (CHANGES.md, PR 21, has the
//! old and new coordinates): where that place could be hit exactly the
//! non-clock fields are the old ones too.

use ca_gmres_repro::gmres::cagmres::KernelMode;
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::{FaultPlan, HealthReport, MultiGpu, Schedule, SdcTargets};
use ca_gmres_repro::sparse::{gen, spmv, Csr};

use ca_gmres_repro::obs::fnv1a_words as word_hash;

fn bits_hash(xs: &[f64]) -> u64 {
    word_hash(xs.iter().map(|v| v.to_bits()))
}

/// Everything observable about one FT solve, as one canonical line.
fn digest(out: &FtOutcome) -> String {
    let s = &out.stats;
    let r = &out.report;
    let escalations: Vec<String> = r
        .escalations
        .iter()
        .map(|e| {
            format!(
                "{}@{}:{}:{}:{:x}",
                e.rung.label(),
                e.cycle,
                e.column,
                e.s,
                e.cond_est.to_bits()
            )
        })
        .collect();
    format!(
        "x={:016x} t={:016x} orth={:016x} tsqr={:016x} recl={:016x} relres={:016x} msgs={} bytes={} \
         iters={} restarts={} conv={} brk={} | sdc={} recomp={} redone={} retries={} lost={:?} \
         hung={:?} rebal={} retunes={} s={} degraded={} ndev={} layout={:?} polls={} esc={} \
         midreb={} resumes={} lat={}:{:016x} worklost={:016x} ladder=[{}] traj={}:{:016x} \
         checks={} rebuilds={}",
        bits_hash(&out.x),
        s.t_total.to_bits(),
        s.t_orth.to_bits(),
        s.t_tsqr.to_bits(),
        s.t_reclaimed.to_bits(),
        s.final_relres.to_bits(),
        s.comm_msgs,
        s.comm_bytes,
        s.total_iters,
        s.restarts,
        s.converged,
        s.breakdown.as_ref().map_or_else(|| "-".into(), |b| format!("{b:?}")),
        r.sdc_detected,
        r.blocks_recomputed,
        r.cycles_redone,
        r.transfer_retries,
        r.device_lost,
        r.hung_device,
        r.rebalances,
        r.retunes,
        r.s_final,
        r.degraded,
        r.ndev_final,
        r.layout_final,
        r.in_cycle_polls,
        r.in_cycle_escalations,
        r.mid_cycle_rebalances,
        r.block_resumes,
        r.detection_latency_s.len(),
        bits_hash(&r.detection_latency_s),
        r.work_lost_s.to_bits(),
        escalations.join(","),
        r.cond_trajectory.len(),
        bits_hash(&r.cond_trajectory),
        r.cond_checks,
        r.executor_rebuilds,
    )
}

fn rhs_from_known_solution(a: &Csr) -> Vec<f64> {
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
    let mut b = vec![0.0; n];
    spmv::spmv(a, &x_true, &mut b);
    b
}

fn laplace() -> (Csr, Vec<f64>) {
    let a = gen::laplace2d(12, 12);
    let b = rhs_from_known_solution(&a);
    (a, b)
}

fn convdiff() -> (Csr, Vec<f64>) {
    let a = gen::convection_diffusion(14, 14, 1.5);
    let b: Vec<f64> = (0..a.nrows()).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    (a, b)
}

fn cant() -> (Csr, Vec<f64>) {
    let a = gen::cantilever(4, 4, 5);
    let b = rhs_from_known_solution(&a);
    (a, b)
}

fn cfg(s: usize, m: usize, rtol: f64) -> FtConfig {
    let mut c = FtConfig::default();
    c.solver.s = s;
    c.solver.m = m;
    c.solver.rtol = rtol;
    c.solver.max_restarts = 300;
    c
}

fn probe(straggler_threshold: Option<f64>) -> Option<HealthProbe> {
    Some(HealthProbe { watchdog_timeout_s: Some(0.5), straggler_threshold })
}

fn solve(ndev: usize, plan: Option<FaultPlan>, ab: &(Csr, Vec<f64>), c: &FtConfig) -> FtOutcome {
    let mut mg = MultiGpu::with_defaults(ndev);
    if let Some(p) = plan {
        mg.set_fault_plan(p);
    }
    ca_gmres_ft(mg, &ab.0, &ab.1, c)
}

/// A ladder with exactly one rung enabled and a hair-trigger monitor (the
/// natural conditioning of the small problems is enough to fire it).
fn one_rung(rung: EscalationRung) -> Option<Ladder> {
    Some(Ladder {
        monitor: BasisMonitor { cond_warn: 10.0, cond_fail: 1e2, growth_fail: 1e12 },
        reorth: rung == EscalationRung::Reorth,
        throttle: rung == EscalationRung::Throttle,
        basis_switch: rung == EscalationRung::BasisSwitch,
        promote: rung == EscalationRung::Promote,
        max_escalations: 1000,
        s_floor: 2,
    })
}

fn check(name: &str, got: &str, want: &str) {
    assert_eq!(got, want, "\nFT golden `{name}` drifted\n  got:  {got}\n  want: {want}\n");
}

// (a) clean defaults, both schedules, all three generators

const CLEAN_BARRIER_LAPLACE: &str = "x=b3e157597d782230 t=3f702aa8f3c1b0af orth=3f5e46363dbe88d6 tsqr=3f2518381a0ff390 recl=0000000000000000 relres=3eab34e2b2d12124 msgs=382 bytes=33872 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0";

#[test]
fn clean_barrier_laplace() {
    let out = solve(2, None, &laplace(), &cfg(5, 20, 1e-6));
    check("clean_barrier_laplace", &digest(&out), CLEAN_BARRIER_LAPLACE);
}

#[test]
fn clean_event_driven_convdiff() {
    let ab = convdiff();
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_schedule(Schedule::EventDriven);
    let out = ca_gmres_ft(mg, &ab.0, &ab.1, &cfg(6, 24, 1e-9));
    check("clean_event_driven_convdiff", &digest(&out), "x=092c2a33ca961394 t=3f7907964945f383 orth=3f64dad7c7bd0967 tsqr=3f375ff6269d7668 recl=0000000000000000 relres=3e033f2d653c380b msgs=924 bytes=113232 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=6 degraded=false ndev=3 layout=[0, 65, 130, 196] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn clean_barrier_convdiff_probe_and_ladder_armed() {
    let mut c = cfg(6, 24, 1e-9);
    c.probe = probe(Some(2.0));
    c.ladder = Some(Ladder::default());
    c.watchdog_timeout_s = Some(0.5);
    c.rebalance = true;
    let out = solve(3, None, &convdiff(), &c);
    check("clean_barrier_convdiff_probe_and_ladder_armed", &digest(&out), "x=092c2a33ca961394 t=3f798ddc2393c182 orth=3f65ba4c01505528 tsqr=3f395a1dae146768 recl=0000000000000000 relres=3e033f2d653c380b msgs=924 bytes=113232 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=6 degraded=false ndev=3 layout=[0, 65, 130, 196] polls=36 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=1:43cf3aae2e541a5a checks=14 rebuilds=0");
}

#[test]
fn clean_barrier_cantilever() {
    let out = solve(2, None, &cant(), &cfg(5, 20, 1e-8));
    check("clean_barrier_cantilever", &digest(&out), "x=a84d2636a85d7bc9 t=3f8240037c60de20 orth=3f69f2102b96bb26 tsqr=3f4c309825cebf10 recl=0000000000000000 relres=3e40de8927746d06 msgs=894 bytes=175760 iters=98 restarts=5 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 120, 240] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn clean_event_driven_cantilever_chebyshev() {
    let ab = cant();
    let mut c = cfg(4, 16, 1e-8);
    c.solver.basis = BasisChoice::Chebyshev;
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_schedule(Schedule::EventDriven);
    let out = ca_gmres_ft(mg, &ab.0, &ab.1, &c);
    check("clean_event_driven_cantilever_chebyshev", &digest(&out), "x=434a572a31063724 t=3f873f28d0244e3c orth=3f6dc3551de326f8 tsqr=3f56a1a30576e230 recl=0000000000000000 relres=3e4421876b9c873c msgs=1761 bytes=368424 iters=122 restarts=8 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=4 degraded=false ndev=3 layout=[0, 80, 160, 240] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

// (b) the non-MPK generators

#[test]
fn spmv_kernel_convdiff() {
    let mut c = cfg(6, 24, 1e-9);
    c.solver.kernel = KernelMode::Spmv;
    let out = solve(3, None, &convdiff(), &c);
    check("spmv_kernel_convdiff", &digest(&out), "x=092c2a33ca961394 t=3f7f586529bd2494 orth=3f65ba4c0150552a tsqr=3f395a1dae146770 recl=0000000000000000 relres=3e033f2d653c380b msgs=1134 bytes=123144 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=6 degraded=false ndev=3 layout=[0, 65, 130, 196] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn s_equal_one_laplace() {
    let out = solve(2, None, &laplace(), &cfg(1, 16, 1e-6));
    check("s_equal_one_laplace", &digest(&out), "x=0771d9e2ec7d8eb6 t=3f80cffb653768df orth=3f714adaa608f1ac tsqr=3f5786f082959182 recl=0000000000000000 relres=3ea775db17d6e190 msgs=820 bytes=41184 iters=43 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=1 degraded=false ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

// (c) SDC with ABFT recompute, in the SpMV identity and in the orth checksums

#[test]
fn sdc_spmv_recompute_laplace() {
    let plan = FaultPlan::new(7).with_sdc(1e-1, SdcTargets::spmv_only());
    let out = solve(2, Some(plan), &laplace(), &cfg(5, 20, 1e-6));
    assert!(out.report.blocks_recomputed > 0);
    check("sdc_spmv_recompute_laplace", &digest(&out), "x=30a2eb947cd9e959 t=3f7cc483c9eb8b48 orth=3f6267f921b5da8c tsqr=3f389b895e6916f0 recl=0000000000000000 relres=3eab3cd142276b29 msgs=736 bytes=70272 iters=54 restarts=3 conv=true brk=- | sdc=8 recomp=7 redone=1 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn sdc_gemm_recompute_convdiff() {
    let plan = FaultPlan::new(18).with_sdc(2e-2, SdcTargets::gemm_only());
    let out = solve(3, Some(plan), &convdiff(), &cfg(6, 24, 1e-9));
    assert!(out.report.sdc_detected > 0);
    check("sdc_gemm_recompute_convdiff", &digest(&out), "x=092c2a33ca961394 t=3f7ad23ab18823d4 orth=3f65ba4c01505528 tsqr=3f395a1dae146768 recl=0000000000000000 relres=3e033f2d653c380b msgs=978 bytes=121608 iters=66 restarts=3 conv=true brk=- | sdc=1 recomp=1 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=6 degraded=false ndev=3 layout=[0, 65, 130, 196] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn sdc_everywhere_with_backoff_cantilever() {
    let plan = FaultPlan::new(4).with_sdc(3e-2, SdcTargets::all()).with_transfer_faults(1e-2);
    let mut c = cfg(5, 20, 1e-8);
    c.recompute = ca_gmres_repro::gpusim::RetryPolicy::default().with_backoff(1e-4, 2.0, 1e-2);
    let out = solve(2, Some(plan), &cant(), &c);
    assert!(out.report.sdc_detected > 0);
    check("sdc_everywhere_with_backoff_cantilever", &digest(&out), "x=36a0fcc948e4ed5d t=3f903856032ccf9a orth=3f706e0c6c5ef282 tsqr=3f4c309825cebf48 recl=0000000000000000 relres=3e40de895ddd60a2 msgs=1142 bytes=217888 iters=98 restarts=5 conv=true brk=- | sdc=9 recomp=9 redone=0 retries=16 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 120, 240] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

// (d) device loss: block resume with the probe, cycle redo without

#[test]
fn device_loss_probe_block_resume_laplace() {
    let plan = FaultPlan::new(3).with_device_loss(1, 220);
    let mut c = cfg(5, 20, 1e-6);
    c.probe = probe(None);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out.report.block_resumes > 0, "pick an after_op that lands after a verified block");
    check("device_loss_probe_block_resume_laplace", &digest(&out), "x=64eb6787ac04edc6 t=3f71abe3b0503027 orth=3f5f4329dfaa268d tsqr=3f254856a7dee930 recl=0000000000000000 relres=3eab34e2b2db3195 msgs=578 bytes=61712 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=Some(1) hung=None rebal=0 retunes=0 s=5 degraded=true ndev=2 layout=[0, 72, 144] polls=26 esc=0 midreb=0 resumes=1 lat=0:cbf29ce484222325 worklost=3f2d46f070551c10 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

#[test]
fn device_loss_cycle_redo_laplace() {
    let plan = FaultPlan::new(3).with_device_loss(1, 220);
    let out = solve(3, Some(plan), &laplace(), &cfg(5, 20, 1e-6));
    assert!(out.report.degraded && out.report.block_resumes == 0);
    check("device_loss_cycle_redo_laplace", &digest(&out), "x=234e6c09592465d6 t=3f732e8b090236dd orth=3f601244205fc9b0 tsqr=3f2c5349b08a4f90 recl=0000000000000000 relres=3eab34e2b2da70cb msgs=616 bytes=58672 iters=39 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=Some(1) hung=None rebal=0 retunes=0 s=5 degraded=true ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=3f4108f83d07778c ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

#[test]
fn device_loss_during_recovery_is_fatal_and_typed_laplace() {
    let plan = FaultPlan::new(3).with_device_loss(1, 255);
    let mut c = cfg(5, 20, 1e-6);
    c.probe = probe(None);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(!out.stats.converged && out.stats.breakdown.is_some());
    check("device_loss_during_recovery_is_fatal_and_typed_laplace", &digest(&out), "x=c7c442def6f16910 t=3f70861ba851fdc3 orth=3f5f5b5bb1ae030b tsqr=3f25a94e670ac420 recl=0000000000000000 relres=0000000000000000 msgs=568 bytes=51752 iters=34 restarts=2 conv=false brk=DeviceLost { device: 1 } | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[] polls=25 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn hang_boundary_watchdog_convdiff() {
    let plan = FaultPlan::new(21).with_stalls(1, 1.0, 30.0);
    let mut c = cfg(6, 24, 1e-9);
    c.watchdog_timeout_s = Some(0.5);
    let out = solve(3, Some(plan), &convdiff(), &c);
    assert_eq!(out.report.hung_device, Some(1));
    check("hang_boundary_watchdog_convdiff", &digest(&out), "x=39f9002d69580791 t=40b87e819e00274c orth=40a680015970cfdd tsqr=3f38b53a6d000000 recl=0000000000000000 relres=3e033f2d6225ec16 msgs=783 bytes=96472 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=Some(1) hung=Some(1) rebal=0 retunes=0 s=6 degraded=true ndev=2 layout=[0, 98, 196] polls=0 esc=0 midreb=0 resumes=0 lat=1:ee3639871abd5d4d worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

#[test]
fn hang_probe_escalation_convdiff() {
    let plan = FaultPlan::new(21).with_stalls(1, 1.0, 30.0);
    let mut c = cfg(6, 24, 1e-9);
    c.watchdog_timeout_s = Some(0.5);
    c.probe = probe(None);
    let out = solve(3, Some(plan), &convdiff(), &c);
    assert_eq!(out.report.in_cycle_escalations, 1);
    check("hang_probe_escalation_convdiff", &digest(&out), "x=ca7fa15b2d86e675 t=40786819c1e158db orth=3f65048b9ac00000 tsqr=3f38b53a6f400000 recl=0000000000000000 relres=3e033f2d778df946 msgs=642 bytes=80800 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=Some(1) hung=Some(1) rebal=0 retunes=0 s=6 degraded=true ndev=2 layout=[0, 98, 196] polls=37 esc=1 midreb=0 resumes=0 lat=1:a06cc1f1691e9d46 worklost=40669000a7497ae9 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

#[test]
fn late_hang_probe_block_resume_cantilever() {
    // rare stalls: the first one lands mid-solve, after verified blocks
    let plan = FaultPlan::new(45).with_stalls(1, 1e-3, 30.0);
    let mut c = cfg(5, 20, 1e-8);
    c.probe = probe(None);
    let out = solve(3, Some(plan), &cant(), &c);
    assert!(out.report.in_cycle_escalations == 1 && out.report.block_resumes == 1);
    check("late_hang_probe_block_resume_cantilever", &digest(&out), "x=6be77a9af9ffee4a t=403e82582267da39 orth=3f6a74aa5202b220 tsqr=3f4c47f76455c740 recl=0000000000000000 relres=3e40de89685a87ef msgs=1075 bytes=273936 iters=98 restarts=5 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=Some(1) hung=Some(1) rebal=0 retunes=0 s=5 degraded=true ndev=2 layout=[0, 120, 240] polls=49 esc=1 midreb=0 resumes=1 lat=1:9e2154d1c6176ec4 worklost=403e80071bd7e4f4 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

// (e) fail-slow: mid-cycle rebalance through the probe, boundary rebalance

#[test]
fn straggler_mid_cycle_rebalance_laplace() {
    let plan = FaultPlan::new(13).with_slowdown(1, 4.0, 0);
    let mut c = cfg(5, 20, 1e-6);
    c.probe = probe(Some(1.5));
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out.report.mid_cycle_rebalances >= 1);
    check("straggler_mid_cycle_rebalance_laplace", &digest(&out), "x=64eb6787ac04edc6 t=3f83b0246e9cb50d orth=3f70adda7ccd41c0 tsqr=3f3b952e8bc888e0 recl=0000000000000000 relres=3eab34e2b2db3195 msgs=587 bytes=65892 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=1 retunes=0 s=5 degraded=false ndev=3 layout=[0, 65, 80, 144] polls=25 esc=0 midreb=1 resumes=2 lat=3:4a39f42ffb386bd4 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=1");
}

#[test]
fn straggler_boundary_rebalance_cantilever() {
    let plan = FaultPlan::new(13).with_slowdown(1, 4.0, 0);
    let mut c = cfg(5, 20, 1e-8);
    c.rebalance = true;
    let out = solve(3, Some(plan), &cant(), &c);
    assert!(out.report.rebalances > 0);
    check("straggler_boundary_rebalance_cantilever", &digest(&out), "x=6702818e4d7e03d0 t=3f9859389b0b3934 orth=3f7f2da3cfa4eca4 tsqr=3f625d6f81c78010 recl=0000000000000000 relres=3e40de8928fe39a5 msgs=1401 bytes=377552 iters=98 restarts=5 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=3 retunes=0 s=5 degraded=false ndev=3 layout=[0, 121, 124, 240] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=3");
}

/// A tuner that re-plans once (smaller `s`, throughput-proportional rows)
/// when the health report turns lopsided, takes over the mid-cycle split,
/// and records every phase observation the driver feeds it.
#[derive(Default)]
struct OneShotTuner {
    fired: bool,
    phases: Vec<PhaseRatios>,
    escalations_seen: usize,
}

impl RestartTuner for OneShotTuner {
    fn replan(
        &mut self,
        health: &HealthReport,
        s_cur: usize,
        layout: &Layout,
    ) -> Option<RetuneDecision> {
        if self.fired || health.imbalance() <= 1.5 {
            return None;
        }
        self.fired = true;
        let n = *layout.starts.last().unwrap();
        Some(RetuneDecision {
            s: (s_cur - 2).max(1),
            layout: Layout::proportional(n, &health.throughput_weights()),
        })
    }

    fn observe_escalations(&mut self, events: &[EscalationEvent]) {
        self.escalations_seen += events.len();
    }

    fn observe_phases(&mut self, obs: &PhaseRatios) {
        self.phases.push(*obs);
    }
}

/// The phase observations with the two fields the single loop newly fills
/// (`spmv_s`, `small_s`) left out.
fn phases_digest(t: &OneShotTuner) -> String {
    let h = word_hash(t.phases.iter().flat_map(|p| {
        [p.cycles as u64, p.cycle_s.to_bits(), p.borth_s.to_bits(), p.tsqr_s.to_bits()]
    }));
    format!("fired={} seen={} phases={}:{h:016x}", t.fired, t.escalations_seen, t.phases.len())
}

#[test]
fn straggler_retune_through_tuner_convdiff() {
    let ab = convdiff();
    let mut c = cfg(6, 24, 1e-9);
    c.ladder = one_rung(EscalationRung::Reorth);
    let mut mg = MultiGpu::with_defaults(3);
    mg.set_fault_plan(FaultPlan::new(13).with_slowdown(2, 3.0, 318));
    let mut tuner = OneShotTuner::default();
    let (out, _) = ca_gmres_ft_session(&mut mg, &ab.0, &ab.1, &c, Some(&mut tuner), None, false);
    assert_eq!(out.report.retunes, 1);
    check("straggler_retune_through_tuner_convdiff", &digest(&out), "x=f8761341f235bd0d t=3f7d99200e85aeaa orth=3f6a25ce3cd7bb18 tsqr=3f45bff3f51ff564 recl=0000000000000000 relres=3e033f2d6cfdf4e2 msgs=1037 bytes=132408 iters=66 restarts=3 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=1 s=4 degraded=false ndev=3 layout=[0, 83, 166, 196] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[reorth@1:6:6:4110d4dd104ee6af,reorth@2:0:4:40f59cf0fcd59e1b] traj=18:8cbecaac38977932 checks=20 rebuilds=1");
    check(
        "straggler_retune_through_tuner_convdiff/phases",
        &phases_digest(&tuner),
        "fired=true seen=2 phases=3:106098361de643da",
    );
}

/// FT phase attribution falls out of the single loop: every restart
/// cycle's SpMV/MPK and host-math seconds are measured (they were 0 for
/// CA cycles while the FT driver had its own copy of the block loop), and
/// an armed-but-idle tuner watching them leaves the solve untouched.
#[test]
fn healthy_solve_attributes_its_phases_and_matches_the_clean_golden() {
    let (a, b) = laplace();
    let c = cfg(5, 20, 1e-6);
    let mut tuner = OneShotTuner { fired: true, ..Default::default() }; // never re-plans
    let mut mg = MultiGpu::with_defaults(2);
    let (out, _) = ca_gmres_ft_session(&mut mg, &a, &b, &c, Some(&mut tuner), None, false);
    check("clean_barrier_laplace (tuner armed)", &digest(&out), CLEAN_BARRIER_LAPLACE);
    assert!(out.stats.phases_consistent(), "{:?}", out.stats);
    assert!(out.stats.t_spmv > 0.25 * out.stats.t_total, "CA cycles' MPK time is attributed");
    assert!(out.stats.t_small > 0.0);
    assert_eq!(tuner.phases.len(), out.stats.restarts, "one observation per restart boundary");
    // the first observation is the standard shift-harvest cycle
    for p in &tuner.phases[1..] {
        assert!(p.spmv_s > 0.0 && p.borth_s > 0.0 && p.tsqr_s > 0.0, "{p:?}");
        let shares = p.spmv_share() + p.borth_share() + p.tsqr_share() + p.small_share();
        assert!(shares > 0.8 && shares <= 1.0 + 1e-12, "phase shares sum to {shares}: {p:?}");
    }
}

// (f) numerical schedules: each ladder rung in isolation, then composed

#[test]
fn ladder_reorth_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.ladder = one_rung(EscalationRung::Reorth);
    let out = solve(3, None, &laplace(), &c);
    assert!(out.report.escalations.iter().any(|e| e.rung == EscalationRung::Reorth));
    check("ladder_reorth_laplace", &digest(&out), "x=b5b43ed06ef782c5 t=3f711d35155b108e orth=3f60a4165a94e736 tsqr=3f2ce06ccf52f870 recl=0000000000000000 relres=3eab34e2b2db3a7a msgs=591 bytes=55656 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[reorth@1:5:5:407f23ce8c73a600] traj=6:cf311929b48270dc checks=7 rebuilds=0");
}

#[test]
fn ladder_throttle_laplace_probe_armed() {
    let mut c = cfg(5, 20, 1e-6);
    c.ladder = one_rung(EscalationRung::Throttle);
    c.probe = probe(Some(2.0));
    let out = solve(3, None, &laplace(), &c);
    assert!(out.report.escalations.iter().any(|e| e.rung == EscalationRung::Throttle));
    check("ladder_throttle_laplace_probe_armed", &digest(&out), "x=8795bfd720f40578 t=3f73d29df8f10a64 orth=3f6290726fcf88c6 tsqr=3f358e2ef72d7c60 recl=0000000000000000 relres=3eab34e2b2db4dcd msgs=693 bytes=64680 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=32 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[throttle@1:5:5:407f23ce8c73a600] traj=8:6bf194a66dc4d89b checks=13 rebuilds=0");
}

#[test]
fn ladder_basis_switch_monomial_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.solver.basis = BasisChoice::Monomial;
    c.ladder = one_rung(EscalationRung::BasisSwitch);
    let out = solve(3, None, &laplace(), &c);
    assert!(out.report.escalations.iter().any(|e| e.rung == EscalationRung::BasisSwitch));
    check("ladder_basis_switch_monomial_laplace", &digest(&out), "x=8b77ec3a66bbcf0b t=3f7184ca382802de orth=3f5f5b5bb1ae0313 tsqr=3f25a94e670ac440 recl=0000000000000000 relres=3eab34e2b2d45e11 msgs=612 bytes=56328 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=1 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[basis-switch@1:5:5:407f23ce8c76a203] traj=7:27ce7fac05d3a7f0 checks=7 rebuilds=0");
}

#[test]
fn ladder_promote_f32_start_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.solver.mpk_prec = Precision::F32;
    c.ladder = one_rung(EscalationRung::Promote);
    let out = solve(3, None, &laplace(), &c);
    assert!(out.report.escalations.iter().any(|e| e.rung == EscalationRung::Promote));
    check("ladder_promote_f32_start_laplace", &digest(&out), "x=4cafb3f5ca65369c t=3f774e637108c0ff orth=3f5f5b5bb1ae030f tsqr=3f25a94e670ac420 recl=0000000000000000 relres=3eab34ef17ce8869 msgs=867 bytes=75696 iters=34 restarts=2 conv=true brk=- | sdc=8 recomp=6 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=1 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[promote@1:5:5:407f23cd1b9f035b] traj=7:da08db9660a6179c checks=7 rebuilds=1");
}

#[test]
fn ladder_forced_s_monomial_f32_full_ladder_convdiff() {
    // a cap-violating forced step size on a monomial f32 basis: the hard
    // breakdowns enter the ladder at Throttle and walk it to the top
    let mut c = cfg(6, 24, 1e-9);
    c.solver.basis = BasisChoice::Monomial;
    c.solver.mpk_prec = Precision::F32;
    c.ladder = Some(Ladder {
        monitor: BasisMonitor { cond_warn: 1e2, cond_fail: 1e6, growth_fail: 4.0 },
        s_floor: 6,
        ..Ladder::default()
    });
    c.probe = probe(Some(2.0));
    let plan = FaultPlan::new(303).with_s_override(16);
    let out = solve(3, Some(plan), &convdiff(), &c);
    check("ladder_forced_s_monomial_f32_full_ladder_convdiff", &digest(&out), "x=62060ea91235df44 t=3f93aea2988d1e90 orth=3f67ac7a85b340c6 tsqr=3f44578a55af2890 recl=0000000000000000 relres=3e032c3b3352c000 msgs=3363 bytes=361600 iters=90 restarts=4 conv=true brk=- | sdc=36 recomp=27 redone=1 retries=0 lost=None hung=None rebal=0 retunes=0 s=16 degraded=false ndev=3 layout=[0, 65, 130, 196] polls=70 esc=0 midreb=0 resumes=2 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[reorth@1:0:16:466cd6af4da4a142,throttle@1:16:8:43e7891ef26785ff,throttle@1:16:8:43453c85e06cc2d4,basis-switch@1:16:6:42655bf4f7c0b7f4,reorth@1:16:8:41d710b6a562e2ab,reorth@2:0:16:4388e6677ca2c498,throttle@2:16:8:432e77468408d510,throttle@2:16:8:41d8c4d8df147aa2,promote@2:16:6:419203a688d06819,reorth@2:16:8:41d8c4d87447b497,reorth@3:0:16:43fb0a12798d60c0,throttle@3:16:8:437e9f330db858f9,throttle@3:16:8:41c5b274f94ad57c] traj=20:defa63bc3634f219 checks=25 rebuilds=1");
}

#[test]
fn ladder_hard_failure_throttles_and_converges_laplace() {
    // a rank-deficient panel (newest column blended onto its predecessor):
    // the factorization fails outright and the ladder enters at Throttle
    let mut c = cfg(5, 20, 1e-6);
    c.ladder = Some(Ladder::default());
    c.probe = probe(Some(2.0));
    let plan = FaultPlan::new(101).with_basis_perturb(0.3, 1.0);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out.stats.converged && out.report.escalations[0].cond_est.is_infinite());
    check("ladder_hard_failure_throttles_and_converges_laplace", &digest(&out), "x=64eb6787ac04edc6 t=3f72939d5e25a917 orth=3f61283148813fd8 tsqr=3f2ccc4e884f9ba0 recl=0000000000000000 relres=3eab34e2b2db3195 msgs=648 bytes=61440 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=29 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[throttle@1:11:5:7ff0000000000000] traj=0:cbf29ce484222325 checks=9 rebuilds=0");
}

#[test]
fn ladder_hard_failure_in_first_block_reseeds_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.ladder = Some(Ladder::default());
    let plan = FaultPlan::new(202).with_basis_perturb(0.3, 1.0);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out.report.escalations.iter().any(|e| e.column == 0 && e.cond_est.is_infinite()));
    check("ladder_hard_failure_in_first_block_reseeds_laplace", &digest(&out), "x=401508db2bd86930 t=3f7798f1b7a0a4b9 orth=3f6384f8e082cea0 tsqr=3f39324663d2a308 recl=0000000000000000 relres=3ed35bc3ba467ec0 msgs=837 bytes=80928 iters=38 restarts=3 conv=false brk=Orthogonalization { column: 11, reason: \"Gram matrix not positive definite (pivot 0e0 at 1)\" } | sdc=0 recomp=0 redone=1 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[throttle@1:0:5:7ff0000000000000,reorth@2:0:5:433b0524fb13053f,throttle@2:11:5:7ff0000000000000] traj=1:9fb65c182083be2e checks=16 rebuilds=0");
}

#[test]
fn ladder_hard_failure_switches_basis_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.solver.basis = BasisChoice::Monomial;
    c.ladder = Some(Ladder { throttle: false, ..Ladder::default() });
    c.probe = probe(None);
    let plan = FaultPlan::new(101).with_basis_perturb(0.3, 1.0);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out
        .report
        .escalations
        .iter()
        .any(|e| e.rung == EscalationRung::BasisSwitch && e.cond_est.is_infinite()));
    check("ladder_hard_failure_switches_basis_laplace", &digest(&out), "x=2f911319e73091f0 t=3f71ed8a876b34b4 orth=3f6031a739d259b2 tsqr=3f25a94e670ac440 recl=0000000000000000 relres=3eab34e2b2d9ce33 msgs=627 bytes=59664 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=27 esc=0 midreb=0 resumes=1 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[basis-switch@1:11:5:7ff0000000000000] traj=1:ff824b08f5bcfc7f checks=7 rebuilds=0");
}

#[test]
fn ladder_hard_failure_promotes_f32_laplace() {
    let mut c = cfg(5, 20, 1e-6);
    c.solver.mpk_prec = Precision::F32;
    c.ladder = Some(Ladder { throttle: false, basis_switch: false, ..Ladder::default() });
    let plan = FaultPlan::new(101).with_basis_perturb(0.3, 1.0);
    let out = solve(3, Some(plan), &laplace(), &c);
    assert!(out
        .report
        .escalations
        .iter()
        .any(|e| e.rung == EscalationRung::Promote && e.cond_est.is_infinite()));
    check("ladder_hard_failure_promotes_f32_laplace", &digest(&out), "x=a20e8eb3f791142e t=3f7a5d8979a36b04 orth=3f6031a739d259b2 tsqr=3f25a94e670ac420 recl=0000000000000000 relres=3eab34ea928145f6 msgs=999 bytes=89256 iters=34 restarts=2 conv=true brk=- | sdc=12 recomp=9 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=1 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[promote@1:11:5:7ff0000000000000] traj=0:cbf29ce484222325 checks=7 rebuilds=1");
}

#[test]
fn ladder_gram_nudge_exhausts_and_breaks_down_typed_cantilever() {
    let mut c = cfg(5, 20, 1e-8);
    c.ladder = Some(Ladder::default());
    let plan = FaultPlan::new(303).with_gram_nudge(0.3, 1.0);
    let out = solve(2, Some(plan), &cant(), &c);
    assert!(out.stats.breakdown.is_some() && !out.report.escalations.is_empty());
    check("ladder_gram_nudge_exhausts_and_breaks_down_typed_cantilever", &digest(&out), "x=4c5ac4d9508a2e11 t=3f79bf5936d46228 orth=3f64648fe789cf7c tsqr=3f3c22cd74e35870 recl=0000000000000000 relres=3ef2aefa215eb2f9 msgs=614 bytes=122656 iters=54 restarts=3 conv=false brk=Orthogonalization { column: 15, reason: \"Gram matrix not positive definite (pivot 0e0 at 1)\" } | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 120, 240] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[throttle@2:11:5:7ff0000000000000] traj=0:cbf29ce484222325 checks=18 rebuilds=0");
}

#[test]
fn unguarded_basis_perturb_breaks_down_typed_laplace() {
    let plan = FaultPlan::new(101).with_basis_perturb(0.3, 1.0);
    let out = solve(3, Some(plan), &laplace(), &cfg(5, 20, 1e-6));
    assert!(out.stats.breakdown.is_some());
    check("unguarded_basis_perturb_breaks_down_typed_laplace", &digest(&out), "x=2eb848a63da74cdf t=3f708ef6d74d1733 orth=3f5e7477e4a4fc8b tsqr=3f1ce45ffd852040 recl=0000000000000000 relres=3ed35bc3ba46277b msgs=570 bytes=52224 iters=30 restarts=2 conv=false brk=Orthogonalization { column: 11, reason: \"Gram matrix not positive definite (pivot -2.842170943040401e-14 at 4)\" } | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

#[test]
fn residual_backstop_redoes_cycles_laplace() {
    // a perturbation too mild for any checksum or factorization to flag:
    // only the explicit-residual check catches it, by rolling cycles back
    let plan = FaultPlan::new(303).with_basis_perturb(0.5, 0.999);
    let out = solve(3, Some(plan), &laplace(), &cfg(5, 20, 1e-6));
    assert!(out.report.cycles_redone > 0);
    check("residual_backstop_redoes_cycles_laplace", &digest(&out), "x=4a86a4b14bfbba73 t=3f84c17bdcd9d998 orth=3f66931af3c6ec12 tsqr=3f4ce8532bb747f0 recl=0000000000000000 relres=3eab8fc1c26a56d7 msgs=1494 bytes=152568 iters=99 restarts=13 conv=true brk=- | sdc=0 recomp=0 redone=9 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=3 layout=[0, 48, 96, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}

// (g) the warm session entry

#[test]
fn warm_session_rhs_precharged_laplace() {
    let (a, b) = laplace();
    let c = cfg(5, 20, 1e-6);
    let mut mg = MultiGpu::with_defaults(2);
    let (cold, resident) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, None, false);
    check("warm_session_rhs_precharged_laplace/cold", &digest(&cold), "x=b3e157597d782230 t=3f702aa8f3c1b0af orth=3f5e46363dbe88d6 tsqr=3f2518381a0ff390 recl=0000000000000000 relres=3eab34e2b2d12124 msgs=382 bytes=33872 iters=34 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
    let b2: Vec<f64> = b.iter().map(|v| 0.5 * v + 1.0).collect();
    let (warm, resident) = ca_gmres_ft_session(&mut mg, &a, &b2, &c, None, resident, true);
    assert!(resident.is_some());
    check("warm_session_rhs_precharged_laplace/warm", &digest(&warm), "x=2671ff8c07838436 t=3f70135fc8e73d63 orth=3f5e46363dbe88c0 tsqr=3f2518381a0ff3a0 recl=0000000000000000 relres=3eab0511cead832c msgs=760 bytes=65424 iters=33 restarts=2 conv=true brk=- | sdc=0 recomp=0 redone=0 retries=0 lost=None hung=None rebal=0 retunes=0 s=5 degraded=false ndev=2 layout=[0, 72, 144] polls=0 esc=0 midreb=0 resumes=0 lat=0:cbf29ce484222325 worklost=0000000000000000 ladder=[] traj=0:cbf29ce484222325 checks=0 rebuilds=0");
}
