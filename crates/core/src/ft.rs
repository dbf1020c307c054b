//! Fault-tolerant CA-GMRES.
//!
//! Wraps the CA-GMRES cycle structure with five protection layers against
//! the faults [`ca_gpusim::FaultPlan`] can inject:
//!
//! 1. **ABFT detection** — every MPK/SpMV block is verified against the
//!    checksum identity `1ᵀv_{k+1} = scale·(cᵀv_k − re·1ᵀv_k) +
//!    im2·1ᵀv_{k-1}` with `c = Aᵀ1` precomputed on the host, and the
//!    orthogonalization checks its Gram/projection reductions against
//!    scalar checksums on every system that carries `c`. The detector
//!    kernels are real (they advance device clocks), so the overhead of
//!    resilience is visible in the simulated times.
//! 2. **Recompute on detection** — a block that fails a checksum is
//!    regenerated from its (intact) source column. The regenerated
//!    kernels draw fresh per-op fault decisions, so a *transient* SDC
//!    does not repeat; a bounded retry budget keeps a persistent fault
//!    from livelocking. An optional explicit-residual check per restart
//!    cycle backstops anything the checksums miss: on disagreement with
//!    the implicit least-squares residual the iterate is rolled back to
//!    the last accepted checkpoint and the cycle redone.
//! 3. **Graceful degradation** — when a device is lost mid-solve, the
//!    driver rebuilds the distributed system on the survivors
//!    ([`ca_gpusim::MultiGpu::fast_forward`] keeps the clock honest,
//!    and re-uploading the matrix slices is charged), restores the
//!    checkpointed iterate, and continues toward the same tolerance.
//! 4. **Fail-slow response** — at every restart boundary the driver can
//!    poll a watchdog ([`FtConfig::watchdog_timeout_s`]) that escalates a
//!    hung device (single-command latency overshooting its model by more
//!    than the timeout) into the same degradation path, and a rebalancer
//!    ([`FtConfig::rebalance`]) that repartitions rows proportionally to
//!    each device's measured throughput when the observed slowdown
//!    imbalance crosses [`REBALANCE_THRESHOLD`], charging the
//!    row migration over the (possibly degraded) links.
//! 5. **In-cycle detection and block-granular recovery** — arming
//!    [`FtConfig::probe`] moves health polling *inside* the cycle: the
//!    cycle engine calls the driver's guard after every MPK/SpMV block,
//!    between BOrth and TSQR, and after every SpMV step of the standard
//!    first cycle (the engine's hook points — the kernels themselves know
//!    nothing of it, and an unarmed guard holds no probe at all), so a
//!    hung device or fail-slow straggler is caught within one block
//!    instead of one restart cycle. A poll reads telemetry and advances no
//!    clock: armed on a healthy machine it is bit-invisible.
//!    After every verified block the guard snapshots the orthonormal
//!    basis prefix and the Gram/Hessenberg state (a block checkpoint — the
//!    host-side read overlaps device compute on the copy engines and is
//!    not charged; the *restore* re-upload after a failure is charged in
//!    full), so recovery rolls the cycle back to the failed block, not
//!    its start. A straggler caught mid-flight triggers an immediate
//!    repartition of the remaining rows ([`Layout::proportional_nnz`] on
//!    the measured throughputs; a passed tuner re-plans at the next
//!    restart boundary).
//!    Detection latency and work lost to rollback are recorded in
//!    [`FtReport`] and the `ft.detection_latency_s` histogram.
//!
//! The solve is the crate's one restart loop (`cycle.rs`) on a system it
//! builds (or a warm one a previous solve handed back), under the
//! fault-tolerant guard, `FtGuard`: the layers above are its cycle hooks
//! (ABFT, probe, monitor, ladder, block checkpoints) and its restart hooks
//! (residual backstop and iterate checkpoint, watchdog, tuner, rebalancer,
//! and the hand-back arms for device loss, mid-cycle rebalance and
//! escalation). The ABFT checksum `c = Aᵀ1` lives on the [`System`] it
//! verifies: the guard builds it with every system and the system frees it
//! with the rest of its allocations. A numerical breakdown the ladder does not
//! recover (or an unarmed ladder) ends the solve with `stats.breakdown`
//! typed.

use crate::cagmres::{BasisChoice, CaGmresConfig};
use crate::cycle::{
    invalid, mpk_steps, residual, Block, Books, CycleCkpt, CycleGuard, CycleState, Operator, Redo,
    Resume, Solve, SolveCtx, Sys, Verdict,
};
use crate::health::{throttled, EscalationEvent, EscalationRung, Ladder, MonitorState};
use crate::layout::Layout;
use crate::newton::BasisSpec;
use crate::orth::{checksums_agree, OrthError};
use crate::stats::{BreakdownKind, SolveStats};
use crate::system::System;
use ca_dense::Mat;
use ca_gpusim::faults::Result as GpuResult;
use ca_gpusim::{GpuSimError, MultiGpu, RetryPolicy, VecId};
use ca_obs as obs;
use ca_obs::PhaseRatios;
use ca_scalar::Precision;
use ca_sparse::Csr;
use obs::Track::Host as HOST;

/// Disagreement factor of the residual backstop ([`FtConfig::verify`]): the
/// cycle is redone when `beta_explicit > RESIDUAL_SLACK * beta_implicit
/// (+ noise floor)`.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// Max/min EWMA-slowdown ratio above which [`FtConfig::rebalance`] attempts
/// a repartition.
pub const REBALANCE_THRESHOLD: f64 = 1.5;

/// Fault-tolerance configuration on top of a [`CaGmresConfig`].
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// The underlying solver parameters.
    pub solver: CaGmresConfig,
    /// Verify the solve: check every generated basis block against the
    /// `c = Aᵀ1` SpMV checksum identity (SDC in MPK/SpMV outputs), run the
    /// orthogonalization with Gram/projection checksums (SDC in the BOrth
    /// GEMM and TSQR SYRK/GEMM kernels), and compare the explicit residual
    /// against the implicit least-squares one after every restart cycle,
    /// rolling back to the checkpoint on disagreement.
    pub verify: bool,
    /// Retry policy for ABFT block recompute (and the per-cycle residual
    /// backstop): `recompute.retries()` bounds how many times one block
    /// (or one cycle) may be regenerated before the driver gives up and
    /// accepts the possibly-corrupt result; a nonzero backoff spaces the
    /// recompute attempts out in simulated time. Shares the
    /// [`RetryPolicy`] type with the executor's transfer retry
    /// ([`MultiGpu::set_transfer_retry`]).
    pub recompute: RetryPolicy,
    /// Repartition rows proportionally to measured per-device throughput
    /// ([`ca_gpusim::HealthReport::throughput_weights`]) at restart
    /// boundaries whenever the observed slowdown imbalance exceeds
    /// [`REBALANCE_THRESHOLD`]. Migration traffic is charged in simulated
    /// time over the (possibly degraded) links.
    pub rebalance: bool,
    /// Watchdog: when set, any device whose single-command latency
    /// overshot its model by more than this many simulated seconds is
    /// declared lost at the next restart boundary and the solve degrades
    /// onto the survivors (same path as hard device loss).
    pub watchdog_timeout_s: Option<f64>,
    /// In-cycle health probe: when set, every MPK/SpMV block boundary and
    /// BOrth pass polls device health, block-granular checkpoints are
    /// taken after each verified block, and recovery resumes from the
    /// failed block instead of redoing the cycle. `None` (the default)
    /// reproduces the restart-boundary-only driver bit for bit.
    pub probe: Option<HealthProbe>,
    /// Numerical-health escalation ladder: when set, a
    /// [`crate::health::BasisMonitor`]
    /// watches the basis condition (R-diagonal ratio of every TSQR,
    /// monomial growth of every generated block) and a trigger walks the
    /// configured escalation rungs — reorthogonalize, throttle `s`
    /// in-cycle, switch to the Newton basis, promote the basis precision
    /// to f64 — instead of letting the solve run into a hard breakdown.
    /// `None` (the default) reproduces the unmonitored driver bit for
    /// bit; armed on a well-conditioned run the monitor never fires and
    /// the solve is likewise bit-identical.
    pub ladder: Option<Ladder>,
}

impl Default for FtConfig {
    fn default() -> Self {
        Self {
            solver: CaGmresConfig::default(),
            verify: true,
            recompute: RetryPolicy::default(),
            rebalance: false,
            watchdog_timeout_s: None,
            probe: None,
            ladder: None,
        }
    }
}

/// What the fault-tolerance machinery observed and did during one solve.
#[derive(Debug, Clone, Default)]
pub struct FtReport {
    /// Checksum mismatches detected (SpMV identity or orth Gram checks).
    pub sdc_detected: usize,
    /// Basis blocks regenerated after a detection.
    pub blocks_recomputed: usize,
    /// Restart cycles rolled back and redone by the residual backstop.
    pub cycles_redone: usize,
    /// Transient transfer failures the retry layer absorbed during this
    /// solve ([`ca_gpusim::CommCounters::transfer_retries`] since its
    /// start).
    pub transfer_retries: u64,
    /// The device that was lost, if any.
    pub device_lost: Option<usize>,
    /// Device the watchdog declared hung (a fail-slow fault escalated to
    /// loss), if any. Also recorded in `device_lost`.
    pub hung_device: Option<usize>,
    /// Throughput-proportional repartitions performed.
    pub rebalances: usize,
    /// Restart-boundary re-plans applied by the [`RestartTuner`] hook
    /// (each one may change the step size, the row layout, or both).
    pub retunes: usize,
    /// Step size in effect at the end of the solve (differs from
    /// `solver.s` only when a retune changed it).
    pub s_final: usize,
    /// Whether the solve finished on fewer devices than it started with.
    pub degraded: bool,
    /// Devices the solve finished on.
    pub ndev_final: usize,
    /// Block boundaries of the row layout in effect at the end of the
    /// solve (`Layout::starts`; differs from the even split only when a
    /// retune, rebalance, or device loss moved rows).
    pub layout_final: Vec<usize>,
    /// In-cycle health polls executed (probe armed; each MPK/SpMV block
    /// boundary and BOrth pass counts one).
    pub in_cycle_polls: u64,
    /// Hung devices the in-cycle probe escalated to loss at a poll point
    /// (instead of waiting for the restart-boundary watchdog).
    pub in_cycle_escalations: usize,
    /// Mid-cycle throughput repartitions (straggler caught by the probe
    /// and the remaining rows of the cycle re-split; also counted in
    /// `rebalances`).
    pub mid_cycle_rebalances: usize,
    /// Cycles resumed from a block-granular checkpoint after a mid-cycle
    /// interruption (device down or rebalance).
    pub block_resumes: usize,
    /// Detection latency of every escalation, in simulated seconds: the
    /// gap between the last health observation (previous poll, or cycle
    /// entry for restart-boundary detections) and the detection instant.
    /// Also exported as the `ft.detection_latency_s` histogram.
    pub detection_latency_s: Vec<f64>,
    /// Simulated seconds of verified work discarded by rollbacks (cycle
    /// redo on the legacy path, block rollback on the probe path).
    pub work_lost_s: f64,
    /// Escalation-ladder actions taken by the numerical-health subsystem,
    /// in order (rung, restart cycle, trigger condition estimate).
    pub escalations: Vec<EscalationEvent>,
    /// Condition estimates the [`crate::health::BasisMonitor`] found worth
    /// recording
    /// (everything at or above its warn threshold), in observation order —
    /// the trajectory a [`RestartTuner`] uses to tighten its caps.
    pub cond_trajectory: Vec<f64>,
    /// Condition/growth observations the monitor made (armed only; most
    /// are healthy and leave no trajectory entry).
    pub cond_checks: u64,
    /// Times the driver tore the executor down and rebuilt the
    /// distributed system (device loss, watchdog escalation, rebalance,
    /// retune, precision promotion). A rebuild replaces every device
    /// allocation, so a caller holding operators resident across solves
    /// (the `ca-serve` residency manager) must treat its handles as
    /// invalidated whenever this is nonzero.
    pub executor_rebuilds: usize,
}

/// A re-planning decision returned by a [`RestartTuner`]: the step size
/// and row layout the next restart cycles should run with. The layout
/// must cover the same device count the solve currently runs on — the
/// runtime hook re-shapes work across the surviving devices; it does not
/// add or drop executors (device loss has its own degradation path).
#[derive(Debug, Clone)]
pub struct RetuneDecision {
    /// New MPK step size (`1 ..= m`; `1` degenerates to plain SpMV
    /// blocks).
    pub s: usize,
    /// New row partition.
    pub layout: Layout,
}

/// Restart-boundary re-planning hook (tentpole layer 3 of the `ca-tune`
/// subsystem, which provides the cost-model-driven implementation).
///
/// When a tuner is passed to [`ca_gmres_ft_session`], the driver calls
/// `replan` at every restart boundary (after the watchdog, instead of the
/// throughput rebalancer) with the live health telemetry. Returning `None` — which any
/// implementation must do while the report shows a perfectly healthy
/// machine, to preserve the fault-plan invisibility contract — leaves the
/// solve untouched. Returning a [`RetuneDecision`] that differs from the
/// current `(s, layout)` makes the driver rebuild the distributed system,
/// charge the row-migration traffic over the (possibly degraded) links,
/// and re-derive the basis spec for the new step size from the already
/// harvested shifts.
///
/// The planning computation itself is *not* charged to simulated time:
/// the tuner runs on the host from a previously fitted machine profile
/// (an offline artifact), and the paper's machine overlaps such
/// bookkeeping with device work.
pub trait RestartTuner {
    /// Re-plan for the observed health. `s_cur` and `layout` describe the
    /// configuration currently in effect (which already includes earlier
    /// retunes).
    fn replan(
        &mut self,
        health: &ca_gpusim::HealthReport,
        s_cur: usize,
        layout: &Layout,
    ) -> Option<RetuneDecision>;

    /// Numerical-health feedback: called at the restart boundary with the
    /// escalations the ladder performed since the last call, before
    /// `replan`. An implementation that owns step-size caps should
    /// tighten them here (the events carry the `s` that broke and the
    /// trigger condition estimate) so its next re-plan does not walk back
    /// into the same breakdown. The default ignores the events.
    fn observe_escalations(&mut self, _events: &[EscalationEvent]) {}

    /// Span-ratio drift feedback: called at the restart boundary with the
    /// measured phase-time deltas since the previous boundary, after
    /// `observe_escalations` and before `replan`. Implementations that
    /// hold a cost model can compare the observed phase *shares* against
    /// their prediction and re-plan on drift that per-device kernel
    /// telemetry cannot attribute — the canonical case being a degraded
    /// PCIe link, which inflates the communication-heavy phases while
    /// every kernel's busy-time EWMA stays clean. The default ignores
    /// the observation.
    ///
    /// The numbers come from the driver's always-on phase accumulators in
    /// [`SolveStats`] — *not* from `ca-obs` spans — so an instrumented and
    /// an uninstrumented autotune run feed the tuner bit-identical
    /// observations. `cycles` is the number of restart cycles the window
    /// covers (normally 1; more when fault-recovery paths skipped
    /// intermediate boundaries), `cycle_s` the simulated seconds since the
    /// last observation including unattributed seed/bookkeeping time, and
    /// `borth_s` the projection-only part (`t_orth - t_tsqr`), matching
    /// both the recorded host spans and the planner's predicted split.
    fn observe_phases(&mut self, _obs: &PhaseRatios) {}
}

/// Outcome of a fault-tolerant solve.
#[derive(Debug)]
pub struct FtOutcome {
    /// Solver statistics (includes all detection/recovery overhead in
    /// the phase times — resilience is priced, not free).
    pub stats: SolveStats,
    /// Fault-tolerance event counts.
    pub report: FtReport,
    /// The final iterate (on an unrecoverable fault: the last accepted
    /// checkpoint, with `stats.breakdown` explaining the abort).
    pub x: Vec<f64>,
}

/// Where an in-cycle health poll fired (for cause annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollPoint {
    /// End of an MPK block (one halo exchange + `s` fused steps).
    MpkBlock,
    /// End of a shifted-SpMV basis step/block (the non-MPK path, and the
    /// standard-GMRES first cycle).
    SpmvBlock,
    /// End of the BOrth projection pass (between BOrth and TSQR).
    Orth,
}

impl PollPoint {
    fn label(self) -> &'static str {
        match self {
            PollPoint::MpkBlock => "mpk block boundary",
            PollPoint::SpmvBlock => "spmv block boundary",
            PollPoint::Orth => "borth/tsqr stage boundary",
        }
    }
}

/// In-cycle health-probe configuration ([`FtConfig::probe`]).
///
/// The probe rides the cycle engine's hook points: after every MPK or
/// shifted-SpMV block, after BOrth's update, and after every SpMV step of
/// the standard first cycle, the engine calls the fault-tolerant driver's
/// guard, which polls the probe state it owns. A poll reads health
/// telemetry without advancing any simulated clock, so an armed probe on a
/// healthy machine replays the unprobed solve bit for bit; an unarmed
/// solve holds no probe state at all.
#[derive(Debug, Clone)]
pub struct HealthProbe {
    /// Escalate a device whose worst single-command overshoot exceeds
    /// this many simulated seconds at the next poll point (the in-cycle
    /// analog of [`FtConfig::watchdog_timeout_s`]).
    pub watchdog_timeout_s: Option<f64>,
    /// EWMA-slowdown imbalance above which the probe requests a
    /// mid-cycle repartition of the remaining rows. `None` leaves
    /// fail-slow response to the restart boundary.
    pub straggler_threshold: Option<f64>,
}

impl Default for HealthProbe {
    fn default() -> Self {
        Self { watchdog_timeout_s: Some(0.5), straggler_threshold: None }
    }
}

/// Live state of an armed probe: a field of the cycle guard, polled from
/// the engine's hook points on the host thread that drives the solve.
#[derive(Debug, Default)]
struct ProbeState {
    cfg: HealthProbe,
    polls: u64,
    /// Machine time at the previous poll — the left edge of the latency
    /// bracket for anything detected at the next poll.
    last_poll_t: f64,
    /// Devices escalated from hung to lost, in order.
    escalated: Vec<usize>,
    latencies: Vec<f64>,
    straggler_pending: Option<(usize, f64)>,
    /// One straggler signal per rebuild: set when signalled, cleared by
    /// the driver after it acts (or at the next fresh cycle).
    straggler_latched: bool,
}

impl ProbeState {
    fn new(cfg: &HealthProbe, t0: f64) -> Self {
        Self { cfg: cfg.clone(), last_poll_t: t0, ..Self::default() }
    }

    /// One health observation: the watchdog sweep and, when configured,
    /// the straggler imbalance check — pure reads of device telemetry that
    /// advance no clock, so a healthy machine stays bit-identical. A hung
    /// device is marked lost on the spot (honest clock: rest-of-machine
    /// progress plus the timeout) and surfaces as
    /// [`GpuSimError::DeviceLost`] into the cycle's error path; a straggler
    /// only sets a pending flag the guard consumes at the next block
    /// boundary.
    fn poll(&mut self, mg: &mut MultiGpu, point: PollPoint) -> GpuResult<()> {
        if let Some(t) = self.cfg.watchdog_timeout_s {
            let hung = mg.watchdog(t);
            if !hung.is_empty() {
                let t_det = mg.time(); // rest-of-machine progress + timeout
                let latency = (t_det - self.last_poll_t).max(0.0);
                self.polls += 1;
                self.last_poll_t = t_det;
                for &d in &hung {
                    self.escalated.push(d);
                    detected(&mut self.latencies, t_det, latency, || {
                        format!("in-cycle probe at {} caught hung device {d}", point.label())
                    });
                }
                obs::counter_add(obs::names::FT_IN_CYCLE_ESCALATIONS, hung.len() as u64);
                return Err(GpuSimError::DeviceLost { device: hung[0] });
            }
        }
        let now = mg.time();
        if let (Some(threshold), false) = (self.cfg.straggler_threshold, self.straggler_latched) {
            let health = mg.health_report();
            let imbalance = health.imbalance();
            if imbalance > threshold {
                // slowest alive device by latency EWMA
                let worst = health
                    .devices
                    .iter()
                    .filter(|d| d.alive)
                    .max_by(|a, b| a.ewma_slowdown.total_cmp(&b.ewma_slowdown))
                    .map(|d| d.device);
                if let Some(device) = worst {
                    let latency = (now - self.last_poll_t).max(0.0);
                    self.straggler_pending = Some((device, imbalance));
                    self.straggler_latched = true;
                    detected(&mut self.latencies, now, latency, || {
                        format!(
                            "in-cycle probe at {} flagged straggler device {device} \
                             (imbalance {imbalance:.3} > {threshold:.3})",
                            point.label()
                        )
                    });
                }
            }
        }
        self.polls += 1;
        self.last_poll_t = now;
        Ok(())
    }

    /// Re-enable straggler signalling (after a rebuild reset the health
    /// EWMAs, or at a fresh cycle).
    fn unlatch(&mut self) {
        self.straggler_latched = false;
        self.straggler_pending = None;
    }
}

/// Book a detection made `latency` simulated seconds after the last health
/// observation, announced at `t` with the `ft.detect` cause `why`.
fn detected(latencies: &mut Vec<f64>, t: f64, latency: f64, why: impl FnOnce() -> String) {
    latencies.push(latency);
    if obs::enabled() {
        let why = format!("{}; detection latency {latency:.6}s", why());
        obs::instant_cause("ft.detect", HOST, t, &why);
        obs::observe(obs::names::FT_DETECTION_LATENCY_S, latency);
    }
}

/// Compute the ABFT checksum `c = Aᵀ1` on the host and upload each device's
/// row slice of it (both the host pass and the transfers are charged).
pub(crate) fn checksum(mg: &mut MultiGpu, a: &Csr, layout: &Layout) -> GpuResult<Vec<VecId>> {
    let mut c = vec![0.0f64; a.ncols()];
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (j, v) in cols.iter().zip(vals) {
            c[*j as usize] += v;
        }
    }
    mg.host_compute(a.nnz() as f64, 12.0 * a.nnz() as f64);
    let bytes: Vec<usize> = (0..layout.ndev()).map(|d| 8 * layout.nlocal(d)).collect();
    mg.to_devices(&bytes)?;
    let mut cdev = Vec::with_capacity(layout.ndev());
    for d in 0..layout.ndev() {
        let r = layout.range(d);
        let id = mg.device_mut(d).alloc_vec(r.len())?;
        mg.device_mut(d).vec_mut(id).copy_from_slice(&c[r]);
        cdev.push(id);
    }
    Ok(cdev)
}

/// Check the generated block `V[:, start+1 ..= start+s]` of `sys` against
/// the recurrence checksums over its checksum slices `cdev`. Returns `true`
/// when every column agrees.
fn verify_block(
    mg: &mut MultiGpu,
    sys: &System,
    cdev: &[VecId],
    start: usize,
    spec: &BasisSpec,
) -> GpuResult<bool> {
    let s = spec.s();
    let ndev = sys.layout.ndev();
    let reduce = |mg: &mut MultiGpu, parts: Vec<[f64; 2]>| -> GpuResult<[f64; 2]> {
        mg.to_host(&vec![16usize; ndev])?;
        Ok([parts.iter().map(|p| p[0]).sum(), parts.iter().map(|p| p[1]).sum()])
    };
    // 1ᵀv_j (and Σ|v_j|) for every column the recurrence touches
    let mut colsum = Vec::with_capacity(s + 1);
    for col in start..=start + s {
        let parts = mg.run_map(|d, dev| dev.sum_col_abs(sys.v[d], col));
        colsum.push(reduce(mg, parts)?);
    }
    // cᵀv_j for every source column
    let mut cdot = Vec::with_capacity(s);
    for col in start..start + s {
        let parts = mg.run_map(|d, dev| dev.dot_vec_col_abs(cdev[d], sys.v[d], col));
        cdot.push(reduce(mg, parts)?);
    }
    mg.host_compute((4 * s) as f64, 0.0);
    for (k, step) in spec.steps.iter().enumerate() {
        // v_{k+1} = scale (A v_k − re v_k) + im2 v_{k-1}; im2 ≠ 0 only
        // on the second step of a conjugate pair, so k ≥ 1 there.
        let prev = if step.im2 != 0.0 { colsum[k - 1] } else { [0.0, 0.0] };
        let expected = step.scale * (cdot[k][0] - step.re * colsum[k][0]) + step.im2 * prev[0];
        let got = colsum[k + 1][0];
        let scale = step.scale.abs() * (cdot[k][1] + step.re.abs() * colsum[k][1])
            + step.im2.abs() * prev[1]
            + colsum[k + 1][1];
        if !checksums_agree(expected, got, scale) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Solve `A x = b` with fault-tolerant CA-GMRES, consuming the supplied
/// multi-GPU context (device loss may force the driver to rebuild it on
/// the survivors). `a` is distributed by [`Layout::even`] over however
/// many devices `mg` holds. Exactly [`ca_gmres_ft_session`] with no tuner
/// and no warm system.
pub fn ca_gmres_ft(mg: MultiGpu, a: &Csr, b: &[f64], cfg: &FtConfig) -> FtOutcome {
    let mut mg = mg;
    ca_gmres_ft_session(&mut mg, a, b, cfg, None, None, false).0
}

/// Step size a solve of `cfg` on `mg` starts with: the configured one, or
/// the (possibly cap-violating) one a fault plan forces onto the solve —
/// the numerical-health ladder is what is supposed to rescue that.
fn effective_s(mg: &MultiGpu, cfg: &FtConfig) -> usize {
    match mg.fault_plan().and_then(|p| p.forced_s()) {
        Some(fs) => fs.clamp(1, cfg.solver.m),
        None => cfg.solver.s,
    }
}

/// Whether a warm system from an earlier solve can serve a solve of an
/// `n`-row matrix under `cfg` at step size `s` on `ndev` devices: the same
/// basis room, the same MPK plan (steps and precision) or none, and a
/// checksum exactly when the solve verifies.
fn fits(sys: &System, n: usize, cfg: &FtConfig, s: usize, ndev: usize) -> bool {
    let plan = mpk_steps(cfg.solver.kernel, s).map(|s| (s, cfg.solver.mpk_prec));
    sys.n == n
        && sys.m == cfg.solver.m
        && sys.mpk.as_ref().map(|st| (st.plan.s, st.prec)) == plan
        && sys.layout.ndev() == ndev
        && sys.checksum.is_some() == cfg.verify
}

/// Re-entrant fault-tolerant solve against a *borrowed* executor, with an
/// optional restart-boundary [`RestartTuner`] and optional reuse of the
/// [`System`] a previous solve of the same matrix handed back.
///
/// With `resident == None` and `rhs_precharged == false` this is
/// bit-identical to [`ca_gmres_ft`] on the same machine — same kernels,
/// same clocks, same counters. A `resident` system that fits the solve
/// (the same basis room, MPK plan and device count, and an ABFT checksum
/// exactly when `cfg.verify` asks for one) skips the basis/plan allocation
/// and slice staging (the warm-operator path); one that does not is
/// released (freeing its device memory) and the system is rebuilt from
/// scratch. `rhs_precharged` installs the right-hand side with
/// [`System::set_rhs_uncharged`] — for callers that already charged an
/// aggregated multi-RHS upload — instead of the per-solve charged
/// [`System::load_rhs`]. A configuration that cannot run returns
/// `stats.breakdown` = [`BreakdownKind::InvalidInput`] and hands
/// `resident` back untouched.
///
/// Returns the system the solve ended on, checksum included, so the
/// caller can keep the operator warm. `None` when the solve aborted on an
/// unrecoverable fault — the caller must then treat its device-memory
/// bookkeeping for this pool as stale (an executor rebuild inside the
/// driver replaces all allocations; [`FtReport::executor_rebuilds`]
/// counts those, and any nonzero count invalidates *other* operators the
/// caller holds resident on the same pool).
pub fn ca_gmres_ft_session(
    mg: &mut MultiGpu,
    a: &Csr,
    b: &[f64],
    cfg: &FtConfig,
    tuner: Option<&mut dyn RestartTuner>,
    resident: Option<System>,
    rhs_precharged: bool,
) -> (FtOutcome, Option<System>) {
    let (n, solver) = (a.nrows(), &cfg.solver);
    let rhs = (b.len() != n).then(|| format!("b has {} rows, A has {n}", b.len()));
    if let Some(reason) = invalid(solver, None).or(rhs) {
        let stats = SolveStats::invalid(reason);
        return (FtOutcome { stats, report: FtReport::default(), x: vec![0.0; n] }, resident);
    }
    let s = effective_s(mg, cfg);
    let mut warm = resident;
    if warm.as_ref().is_some_and(|sys| !fits(sys, n, cfg, s, mg.n_gpus())) {
        warm.take().expect("checked").release(mg); // stale shape: evict rather than mis-solve
    }
    let books = Books::open(mg);
    let mut guard = FtGuard::new(cfg, tuner, books.t_begin, s);
    let op = Operator { a, b };
    let built = match warm {
        // the warm operator: skip allocation and staging, just install the
        // new right-hand side
        Some(sys) if rhs_precharged => {
            sys.set_rhs_uncharged(mg, b);
            Ok(sys)
        }
        Some(sys) => sys.load_rhs(mg, b).map(|()| sys),
        None => {
            op.build(mg, Layout::even(n, mg.n_gpus()), solver, (s, solver.mpk_prec), &mut guard)
        }
    };
    let (ran, mut stats, x, resident_out) = match built {
        Ok(sys) => {
            let mut sv = Solve::new(mg, Sys::Owned(sys, op), solver, s);
            // an `FtOutcome` has no place for Fig. 13 samples: take none
            (sv.x_ckpt, sv.tsqr_errors) = (vec![0.0; n], None);
            let ran = sv.run(&mut guard);
            guard.report.executor_rebuilds = sv.rebuilds;
            // hand the system the solve *ended* on to the caller's
            // residency manager (a mid-solve retune/promotion/degradation
            // rebuilt it with new parameters, which the next solve's `fits`
            // reads)
            let sys = if ran.is_ok() { sv.sys.into_owned() } else { None };
            (ran, sv.stats, sv.x_ckpt, sys)
        }
        Err(e) => (Err(e), SolveStats::default(), vec![0.0; n], None),
    };
    if let Some(sys) = &resident_out {
        guard.report.layout_final = sys.layout.starts.clone();
    }
    let FtGuard { mut report, probe, monitor, .. } = guard;
    if let Some(ps) = probe {
        report.in_cycle_polls = ps.polls;
        report.in_cycle_escalations = ps.escalated.len();
        report.detection_latency_s.extend(ps.latencies);
    }
    if let Some(ms) = monitor {
        report.cond_trajectory = ms.trajectory;
        report.cond_checks = ms.records;
    }
    report.transfer_retries = books.close(mg, &mut stats, ran);
    report.ndev_final = mg.n_gpus();
    if obs::enabled() {
        obs::gauge_set(obs::names::FT_S_FINAL, report.s_final as f64);
        obs::gauge_set(obs::names::FT_NDEV_FINAL, report.ndev_final as f64);
    }
    (FtOutcome { stats, report, x }, resident_out)
}

/// Migration payload of moving from layout `old` to `new`: matrix entries
/// (8 B value + 4 B column index) plus 16 B/row of vector state (x, b) for
/// every row arriving at a new owner. Returns the per-device bytes and the
/// number of rows that move.
fn migration_payload(a: &Csr, old: &Layout, new: &Layout) -> (Vec<usize>, usize) {
    let mut bytes = vec![0usize; new.ndev()];
    let mut rows_moved = 0usize;
    for d in 0..new.ndev() {
        let old = old.range(d);
        let (mut nnz, mut arriving) = (0usize, 0usize);
        for i in new.range(d) {
            if !old.contains(&i) {
                nnz += a.row(i).0.len();
                arriving += 1;
            }
        }
        bytes[d] = 12 * nnz + 16 * arriving;
        rows_moved += arriving;
    }
    (bytes, rows_moved)
}

/// Why a guarded cycle handed control back mid-flight.
enum FtHandBack {
    /// A device was lost (or probe-escalated from hung to lost) after at
    /// least one verified block; resume from the checkpoint on survivors.
    DeviceDown { device: usize, ck: CycleCkpt },
    /// The probe flagged a fail-slow straggler with more blocks to go;
    /// repartition the remaining work and resume from the checkpoint.
    Rebalance { device: usize, imbalance: f64, ck: CycleCkpt },
    /// The numerical-health ladder needs a structural action only the
    /// restart loop can take (basis switch or precision promotion). The
    /// triggering [`EscalationEvent`] is already recorded; `ck` (when a
    /// checkpoint exists) lets the loop resume the cycle at its last
    /// verified block after applying the action.
    Escalate { rung: EscalationRung, ck: Option<CycleCkpt> },
}

/// The fault-tolerant driver's [`CycleGuard`]. Inside a cycle: ABFT
/// verification and its retry budget, numerical fault injection, the
/// health probe, the basis monitor, the escalation ladder and its budget,
/// the block checkpoint. At restart boundaries: the residual backstop and
/// the iterate checkpoint, the watchdog, the tuner and the rebalancer, and
/// the hand-back arms. Plus the report all of it writes.
struct FtGuard<'a, 't> {
    cfg: &'a FtConfig,
    tuner: Option<&'t mut dyn RestartTuner>,
    probe: Option<ProbeState>,
    monitor: Option<MonitorState>,
    /// Escalations left for the whole solve — shared by every rung, so a
    /// pathological matrix cannot ping-pong forever.
    ladder_budget: usize,
    /// Blocks accepted so far (indexes the numerical fault injection).
    blocks_generated: u64,
    /// Checkpoint of the cycle in flight (armed probe or ladder only).
    ckpt: Option<CycleCkpt>,
    /// One proactive CGS2-style reorthogonalization is allowed per cycle
    /// before the ladder moves on to the costlier rungs.
    reorth_used: bool,
    can_switch_basis: bool,
    can_promote: bool,
    /// Cycle redos left to the residual backstop.
    redo_budget: usize,
    /// Escalations already fed to the tuner.
    escalations_seen: usize,
    /// Clock and phase accumulators at the last
    /// [`RestartTuner::observe_phases`] call.
    seen: (f64, SolveStats),
    report: FtReport,
}

impl<'a, 't> FtGuard<'a, 't> {
    fn new(
        cfg: &'a FtConfig,
        tuner: Option<&'t mut dyn RestartTuner>,
        t_begin: f64,
        s: usize,
    ) -> Self {
        Self {
            cfg,
            tuner,
            probe: cfg.probe.as_ref().map(|p| ProbeState::new(p, t_begin)),
            monitor: cfg.ladder.as_ref().map(|l| MonitorState::new(&l.monitor)),
            ladder_budget: cfg.ladder.as_ref().map_or(0, |l| l.max_escalations),
            blocks_generated: 0,
            ckpt: None,
            reorth_used: false,
            can_switch_basis: false,
            can_promote: false,
            redo_budget: cfg.recompute.retries(),
            escalations_seen: 0,
            seen: (t_begin, SolveStats::default()),
            report: FtReport { s_final: s, ..Default::default() },
        }
    }

    /// Graceful degradation, however the loss was detected: book `lost[0]`
    /// (as hung too, when the probe and not the fault plan escalated it) and
    /// the verified work since `since` that the rollback discards, rebuild
    /// on the survivors, and [`Solve::restore`].
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] when nothing survives.
    fn degrade(
        &mut self,
        sv: &mut Solve<'_>,
        lost: &[usize],
        since: f64,
        ck: Option<CycleCkpt>,
        why: &str,
    ) -> GpuResult<()> {
        let (report, mg) = (&mut self.report, &*sv.mg);
        report.device_lost = Some(lost[0]);
        if self.probe.as_ref().is_some_and(|p| p.escalated.contains(&lost[0])) {
            report.hung_device = Some(lost[0]);
        }
        report.work_lost_s += (mg.time() - since).max(0.0);
        let alive = mg.n_gpus() - lost.len();
        if alive == 0 {
            return Err(GpuSimError::DeviceLost { device: lost[0] });
        }
        report.degraded = true;
        if obs::enabled() {
            obs::close_open(mg.time()); // seal spans the abort left open
            obs::instant_cause("ft.degrade", HOST, mg.time(), why);
            obs::counter_add(obs::names::FT_DEVICE_LOSSES, lost.len() as u64);
        }
        sv.rebuild(Layout::even(sv.sys.n, alive), lost, self)?;
        sv.restore(ck)
    }

    /// Move onto `layout` (same devices) — a rebalance or a retune: rebuild
    /// there, charge the row migration over the (possibly degraded) links
    /// when any row changed owner, and [`Solve::restore`]. `rebalance`
    /// (what tripped it) books the move as a throughput repartition and
    /// subjects it to hysteresis: repartitioning resets the health EWMAs,
    /// so when ownership barely shifts (<= 2% of the rows) the solve goes
    /// on in place — an interrupted cycle resumes on its still valid device
    /// columns, and the latch keeps the probe from re-signalling the same
    /// imbalance this cycle.
    fn repartition(
        &mut self,
        sv: &mut Solve<'_>,
        layout: Layout,
        rebalance: Option<&str>,
        ck: Option<CycleCkpt>,
    ) -> GpuResult<()> {
        let a = sv.sys.operator().a;
        let (bytes, rows_moved) = migration_payload(a, &sv.sys.layout, &layout);
        if let Some(cause) = rebalance {
            if rows_moved * 50 <= a.nrows() {
                sv.resume = ck.map(|ck| Resume { ck, reupload: false });
                return Ok(());
            }
            let report = &mut self.report;
            report.rebalances += 1;
            report.mid_cycle_rebalances += usize::from(ck.is_some());
            if obs::enabled() {
                let resuming =
                    if ck.is_some() { " before resuming at the block checkpoint" } else { "" };
                let why = format!("{cause}; {rows_moved} rows migrating{resuming}");
                obs::instant_cause("ft.rebalance", HOST, sv.mg.time(), &why);
                obs::counter_add(obs::names::FT_REBALANCES, 1);
                obs::counter_add(obs::names::FT_REBALANCE_ROWS_MOVED, rows_moved as u64);
            }
        }
        sv.rebuild(layout, &[], self)?;
        if bytes.iter().any(|&b| b > 0) {
            sv.mg.to_devices(&bytes)?;
        }
        sv.restore(ck)
    }

    /// The restart-boundary watchdog: a device declared hung degrades the
    /// solve onto the survivors. `true` when it did.
    fn watchdog(&mut self, sv: &mut Solve<'_>, t_entry: f64) -> GpuResult<bool> {
        let Some(timeout) = self.cfg.watchdog_timeout_s else { return Ok(false) };
        let mg = &mut *sv.mg;
        let hung = mg.watchdog(timeout);
        if hung.is_empty() {
            return Ok(false);
        }
        self.report.hung_device = Some(hung[0]);
        // boundary-granularity detection: the hang happened some time
        // during the cycle just finished, so the latency bracket is the
        // whole cycle — the baseline the in-cycle probe is measured against
        let now = mg.time();
        let latency = (now - t_entry).max(0.0);
        for &d in &hung {
            detected(&mut self.report.detection_latency_s, now, latency, || {
                format!("restart-boundary watchdog caught hung device {d}")
            });
        }
        let survivors = mg.n_gpus() - hung.len();
        let why = format!(
            "watchdog declared device {} hung; rebuilding on {survivors} survivors",
            hung[0]
        );
        // the cycle is over and its iterate accepted: no verified work is
        // discarded
        self.degrade(sv, &hung, now, None, &why)?;
        Ok(true)
    }

    /// The tuner's restart-boundary turn: feed it the new escalations and
    /// the phase window, and apply its re-plan. `true` when it changed the
    /// plan.
    fn retune(&mut self, sv: &mut Solve<'_>) -> GpuResult<bool> {
        let Some(t) = self.tuner.as_deref_mut() else { return Ok(false) };
        let mg = &*sv.mg;
        // feed the tuner any new escalations first: the re-plan below
        // should already reflect the tightened caps
        let events = &self.report.escalations;
        if events.len() > self.escalations_seen {
            t.observe_escalations(&events[self.escalations_seen..]);
            self.escalations_seen = events.len();
        }
        // span-ratio drift input: phase-time deltas since the last
        // boundary, from the always-on phase accumulators (identical with
        // and without ca-obs armed); `borth_s` is the projection-only part,
        // matching the host spans
        let (t_seen, seen) = &self.seen;
        let d = sv.stats.since(seen);
        t.observe_phases(&PhaseRatios {
            cycles: d.restarts,
            cycle_s: (mg.time() - t_seen).max(0.0),
            spmv_s: d.t_spmv,
            borth_s: (d.t_orth - d.t_tsqr).max(0.0),
            tsqr_s: d.t_tsqr,
            small_s: d.t_small,
        });
        self.seen = (mg.time(), sv.stats.clone());
        let health = mg.health_report();
        let Some(d) = t.replan(&health, sv.s_cur, &sv.sys.layout) else { return Ok(false) };
        let m = sv.cfg.m;
        assert!(d.s >= 1 && d.s <= m, "retune step size {} outside 1..={m}", d.s);
        assert_eq!(
            d.layout.ndev(),
            sv.sys.layout.ndev(),
            "retune layout must keep the surviving device count"
        );
        let layout_changed = d.layout.starts != sv.sys.layout.starts;
        if d.s == sv.s_cur && !layout_changed {
            return Ok(false);
        }
        self.report.retunes += 1;
        if obs::enabled() {
            let kept = if layout_changed { "changed" } else { "kept" };
            let why = format!("restart tuner replanned: s {} -> {}, layout {kept}", sv.s_cur, d.s);
            obs::instant_cause("ft.retune", HOST, mg.time(), &why);
            obs::counter_add(obs::names::FT_RETUNES, 1);
        }
        sv.s_cur = d.s;
        self.report.s_final = d.s;
        sv.spec_full = BasisSpec::from_shifts(sv.shifts.as_deref(), sv.basis_cur, d.s);
        self.repartition(sv, d.layout, None, None)?;
        Ok(true)
    }

    /// The restart-boundary rebalancer: repartition rows by measured
    /// throughput when the slowdown imbalance crosses
    /// [`REBALANCE_THRESHOLD`].
    fn rebalance(&mut self, sv: &mut Solve<'_>) -> GpuResult<()> {
        if !self.cfg.rebalance {
            return Ok(());
        }
        let mg = &*sv.mg;
        let imbalance = mg.health_report().imbalance();
        if imbalance <= REBALANCE_THRESHOLD {
            return Ok(());
        }
        // weight = achieved nonzeros per busy second. Unlike the raw EWMA
        // slowdown this folds in every per-device overhead (ghost work,
        // halo sizes, row density), and iterating it is a fixpoint scheme
        // whose fixpoint equalizes busy time; the nnz-aware split handles
        // saddle-point/hub matrices where rows are not equal work.
        let a = sv.sys.operator().a;
        let weights: Vec<f64> = (0..mg.n_gpus())
            .map(|d| {
                let busy = mg.device(d).busy_time();
                let nnz: usize = sv.sys.layout.range(d).map(|i| a.row(i).0.len()).sum();
                if busy > 0.0 {
                    nnz as f64 / busy
                } else {
                    0.0
                }
            })
            .collect();
        let cause = format!("imbalance {imbalance:.3} > {REBALANCE_THRESHOLD:.3}");
        self.repartition(sv, Layout::proportional_nnz(a, &weights), Some(&cause), None)
    }

    /// Whether the block may be regenerated once more (the bounded retry
    /// budget keeps a persistent fault from livelocking).
    fn may_retry(&self, blk: &Block<'_>) -> bool {
        blk.attempt < self.cfg.recompute.retries()
    }

    /// Book one block recompute, spacing it out in simulated time.
    fn book_retry(&mut self, mg: &mut MultiGpu, blk: &Block<'_>) {
        let wait = self.cfg.recompute.backoff_s(blk.attempt as u32 + 1);
        if wait > 0.0 {
            mg.fast_forward(mg.time() + wait);
        }
        self.report.blocks_recomputed += 1;
        obs::counter_add(obs::names::FT_BLOCKS_RECOMPUTED, 1);
    }

    /// Book one checksum mismatch, announced with the `ft.sdc` cause `why`.
    fn sdc(&mut self, mg: &MultiGpu, why: impl FnOnce() -> String) {
        self.report.sdc_detected += 1;
        if obs::enabled() {
            obs::instant_cause("ft.sdc", HOST, mg.time(), &why());
            obs::counter_add(obs::names::FT_SDC_DETECTED, 1);
        }
    }

    /// Walk the ladder for a trigger on `blk`: take the cheapest rung
    /// that is enabled, applicable and within budget, and record it — the
    /// report entry the tuner and the chaos harness consume, plus the
    /// `ft.detect` cause instant and metered counters (the *detection* is
    /// what fires here; the action itself — reorth pass, block
    /// regeneration, rebuild — is charged by the code that performs it).
    /// `None`: every rung is exhausted or disabled.
    ///
    /// `proactive` triggers (monitor estimates, before any breakdown)
    /// point at the block's source column and may start at Reorth. Hard
    /// failures point at the first column of the failed factorization and
    /// enter at Throttle: in a deterministic simulation, re-running the
    /// same factorization with a second CGS2 pass fails identically.
    fn climb(
        &mut self,
        cx: &SolveCtx<'_>,
        blk: &Block<'_>,
        cond_est: f64,
        proactive: bool,
    ) -> Option<Verdict<FtHandBack>> {
        let l = self.cfg.ladder.as_ref()?;
        let column = if proactive { blk.start } else { blk.c0 };
        if self.ladder_budget == 0 {
            return None;
        }
        let rung = if proactive && l.reorth && !self.reorth_used {
            EscalationRung::Reorth
        } else if l.throttle && blk.s_cycle > l.s_floor {
            EscalationRung::Throttle
        } else if l.basis_switch && self.can_switch_basis {
            EscalationRung::BasisSwitch
        } else if l.promote && self.can_promote {
            EscalationRung::Promote
        } else {
            return None;
        };
        self.ladder_budget -= 1;
        let (cycle, s) = (cx.stats.restarts, blk.s);
        let event = EscalationEvent { rung, cycle, column, s, cond_est };
        event.record(&mut self.report.escalations, cx.mg.time());
        Some(match rung {
            EscalationRung::Reorth => {
                self.reorth_used = true;
                Verdict::Accept { reorth: true }
            }
            // finish the cycle with shorter basis blocks; the generated
            // panel is discarded and regenerated at the smaller s (charged
            // in full), verified columns stay where they are
            EscalationRung::Throttle => {
                Verdict::Redo(Redo::Throttle(throttled(blk.s_cycle, l.s_floor)))
            }
            // structural rungs: hand back for a monomial -> Newton switch
            // or an f32 -> f64 rebuild
            EscalationRung::BasisSwitch | EscalationRung::Promote => {
                Verdict::Redo(Redo::HandBack(FtHandBack::Escalate { rung, ck: self.ckpt.take() }))
            }
        })
    }
}

impl CycleGuard for FtGuard<'_, '_> {
    type HandBack = FtHandBack;

    fn poll(&mut self, mg: &mut MultiGpu, at: PollPoint) -> GpuResult<()> {
        self.probe.as_mut().map_or(Ok(()), |p| p.poll(mg, at))
    }

    /// ABFT verification with bounded recompute, then — on the accepted
    /// block — numerical fault injection, the monomial-growth probe and
    /// the proactive rungs of the ladder.
    fn after_generate(
        &mut self,
        cx: &mut SolveCtx<'_>,
        blk: &Block<'_>,
    ) -> GpuResult<Verdict<FtHandBack>> {
        let sys = cx.sys;
        if let Some(cdev) = &sys.checksum {
            if !verify_block(cx.mg, sys, cdev, blk.start, blk.spec)? {
                self.sdc(cx.mg, || {
                    let (col, attempt) = (blk.start, blk.attempt);
                    format!("SpMV checksum mismatch in block at column {col} (attempt {attempt})")
                });
                if self.may_retry(blk) {
                    self.book_retry(cx.mg, blk);
                    return Ok(Verdict::Redo(Redo::Regenerate)); // fresh op indices => fresh fault draws
                }
                // budget exhausted: accept; residual check backstops
            }
        }
        // --- numerical fault injection (after ABFT: this is *not* SDC —
        // the model is a recurrence that went numerically bad, which no
        // checksum identity can flag) ---
        self.blocks_generated += 1;
        let (src, dst) = (blk.start, blk.start + blk.s);
        let perturb =
            cx.mg.fault_plan().and_then(|p| p.basis_perturb_event(0, self.blocks_generated));
        if let Some(w) = perturb {
            // blend the newest basis column toward its predecessor (w = 1
            // makes them identical => rank-deficient panel); host-side
            // mutation of device state, uncharged like SDC
            for d in 0..sys.layout.ndev() {
                let mat = cx.mg.device(d).mat(sys.v[d]);
                let blended: Vec<f64> = mat
                    .col(dst)
                    .iter()
                    .zip(mat.col(dst - 1))
                    .map(|(c, p)| (1.0 - w) * c + w * p)
                    .collect();
                cx.mg.device_mut(d).mat_mut(sys.v[d]).set_col(dst, &blended);
            }
        }
        let Some(monitor) = &mut self.monitor else {
            return Ok(Verdict::Accept { reorth: false });
        };
        // monomial-growth probe: column norms of the block just generated,
        // read from device state like the (equally uncharged, equally
        // armed-only) checkpoint drain
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for c in src..=dst {
            let mut ss = 0.0f64;
            for d in 0..sys.layout.ndev() {
                ss += cx.mg.device(d).mat(sys.v[d]).col(c).iter().map(|x| x * x).sum::<f64>();
            }
            let norm = ss.sqrt();
            lo = lo.min(norm);
            hi = hi.max(norm);
        }
        monitor.record_growth(hi / lo.max(f64::MIN_POSITIVE));
        // --- proactive escalation: consult the monitor (growth probe
        // above, R-diagonal estimate of the previous block's TSQR) before
        // spending this block's orthogonalization. With every rung
        // exhausted or disabled the trigger is consumed and the solve
        // continues unguarded (a hard breakdown is still typed honestly) ---
        let verdict = monitor.take_trigger().and_then(|est| self.climb(cx, blk, est, true));
        Ok(verdict.unwrap_or(Verdict::Accept { reorth: false }))
    }

    fn r_diag(&mut self, r: &Mat) {
        if let Some(m) = &mut self.monitor {
            m.record_r_diag(r);
        }
    }

    fn on_block_error(
        &mut self,
        cx: &mut SolveCtx<'_>,
        blk: &Block<'_>,
        err: &OrthError,
    ) -> Option<Redo<FtHandBack>> {
        match err {
            // a device loss with a verified-block checkpoint in hand: hand
            // back for block-granular recovery instead of bubbling the
            // error up to the cycle-redo path
            OrthError::Gpu(GpuSimError::DeviceLost { device }) => {
                let ck = self.ckpt.take()?;
                Some(Redo::HandBack(FtHandBack::DeviceDown { device: *device, ck }))
            }
            OrthError::Gpu(_) => None,
            OrthError::ChecksumMismatch { .. } if self.may_retry(blk) => {
                self.book_retry(cx.mg, blk);
                self.sdc(cx.mg, || {
                    let (col, attempt) = (blk.c0, blk.attempt + 1);
                    format!(
                        "orthogonalization checksum mismatch at column {col} (attempt {attempt})"
                    )
                });
                Some(Redo::Regenerate)
            }
            _ => {
                // a checksum escape (retry budget exhausted above) is not
                // the ladder's business; every other variant is a numerical
                // breakdown the ladder may still recover
                let numerical = !matches!(err, OrthError::ChecksumMismatch { .. });
                if numerical && self.ladder_budget > 0 {
                    if let Some(monitor) = &mut self.monitor {
                        let cond_est = monitor.take_trigger().unwrap_or(f64::INFINITY);
                        if let Some(Verdict::Redo(redo)) = self.climb(cx, blk, cond_est, false) {
                            return Some(redo);
                        }
                    }
                }
                // numerical breakdown (or persistent checksum failure):
                // type it, and emit the detection instant every other abort
                // arm already emits
                cx.stats.breakdown = Some(BreakdownKind::Orthogonalization {
                    column: blk.c0,
                    reason: err.to_string(),
                });
                if obs::enabled() {
                    obs::instant_cause(
                        "ft.detect",
                        HOST,
                        cx.mg.time(),
                        &format!("orthogonalization breakdown at column {}: {err}", blk.c0),
                    );
                }
                Some(Redo::Break)
            }
        }
    }

    /// With the probe or the ladder armed, refresh the partial-cycle
    /// checkpoint after every verified block, and hand back for a
    /// mid-flight repartition when the probe has a straggler pending and
    /// more blocks are to come on the lopsided machine.
    fn block_done(
        &mut self,
        cx: &mut SolveCtx<'_>,
        state: &CycleState,
        more: bool,
    ) -> Option<FtHandBack> {
        let armed = self.cfg.probe.is_some() || self.cfg.ladder.is_some();
        if !armed || cx.stats.breakdown.is_some() {
            return None;
        }
        CycleCkpt::update(&mut self.ckpt, cx.mg, cx.sys, state);
        if !more {
            return None;
        }
        let (device, imbalance) = self.probe.as_mut()?.straggler_pending.take()?;
        let ck = self.ckpt.take().expect("just updated");
        Some(FtHandBack::Rebalance { device, imbalance, ck })
    }

    /// The initial residual, after which the tuner's first phase window
    /// opens.
    fn initial_residual(&mut self, cx: &mut SolveCtx<'_>) -> GpuResult<f64> {
        let beta0 = residual(cx)?;
        self.seen = (cx.mg.time(), cx.stats.clone());
        Ok(beta0)
    }

    /// A verified solve's system gets its ABFT checksum, and a rebuilt
    /// executor's fresh health EWMAs let the probe signal a straggler again.
    fn on_build(&mut self, mg: &mut MultiGpu, a: &Csr, sys: &mut System) -> GpuResult<()> {
        if self.cfg.verify {
            sys.checksum = Some(checksum(mg, a, &sys.layout)?);
        }
        if let Some(p) = &mut self.probe {
            p.unlatch();
        }
        Ok(())
    }

    fn begin_cycle(&mut self, sv: &Solve<'_>, ck: Option<CycleCkpt>) {
        self.reorth_used = false;
        self.can_switch_basis = sv.shifts.is_some() && sv.basis_cur == BasisChoice::Monomial;
        self.can_promote = sv.prec_cur == Precision::F32;
        if ck.is_some() {
            self.report.block_resumes += 1;
            obs::counter_add(obs::names::FT_BLOCK_RESUMES, 1);
        } else if let Some(p) = &mut self.probe {
            p.unlatch(); // fresh cycle: let the probe raise a new straggler signal
        }
        self.ckpt = ck;
    }

    /// The residual backstop — an explicit residual that disagrees with the
    /// implicit one means undetected corruption reached `x`: roll back to
    /// the checkpoint and redo the cycle — and, on acceptance, the iterate
    /// checkpoint.
    fn cycle_done(&mut self, sv: &mut Solve<'_>, beta: f64, implied: f64) -> GpuResult<bool> {
        let (cfg, mg, verified) = (self.cfg, &mut *sv.mg, sv.sys.checksum.is_some());
        let noise = 1e-12 * sv.beta0;
        if verified && beta > RESIDUAL_SLACK * implied + noise && self.redo_budget > 0 {
            let retry = (cfg.recompute.retries() - self.redo_budget) as u32 + 1;
            self.report.cycles_redone += 1;
            self.redo_budget -= 1;
            let wait = cfg.recompute.backoff_s(retry);
            if wait > 0.0 {
                mg.fast_forward(mg.time() + wait); // space the redo out
            }
            if obs::enabled() {
                let why = format!(
                    "explicit residual {beta:.3e} > {RESIDUAL_SLACK} x implied {implied:.3e}; \
                     iterate rolled back to checkpoint"
                );
                obs::instant_cause("ft.rollback", HOST, mg.time(), &why);
                obs::counter_add(obs::names::FT_CYCLES_REDONE, 1);
            }
            sv.restore(None)?;
            return Ok(false);
        }
        self.redo_budget = cfg.recompute.retries();
        sv.x_ckpt = sv.sys.download_x(sv.mg)?; // checkpoint the accepted iterate
        Ok(true)
    }

    fn hand_back(&mut self, sv: &mut Solve<'_>, h: FtHandBack) -> GpuResult<()> {
        let mg = &*sv.mg;
        match h {
            // block-granular degradation: the probe (or a plan fault) killed
            // a device mid-cycle, but every block up to the checkpoint is
            // verified — rebuild on the survivors and resume the cycle there
            FtHandBack::DeviceDown { device, ck } => {
                let why = format!(
                    "device {device} lost mid-cycle; resuming from block checkpoint \
                     ({} verified columns) on {} survivors",
                    ck.ncols,
                    mg.n_gpus() - 1
                );
                self.degrade(sv, &[device], ck.t_ckpt, Some(ck), &why)
            }
            // mid-flight rebalance: split the *remaining* rows of this cycle
            // across the devices by measured throughput
            FtHandBack::Rebalance { device, imbalance, ck } => {
                let weights = mg.health_report().throughput_weights();
                let new_layout = Layout::proportional_nnz(sv.sys.operator().a, &weights);
                let cause =
                    format!("mid-cycle: straggler device {device} (imbalance {imbalance:.3})");
                self.repartition(sv, new_layout, Some(&cause), Some(ck))
            }
            // numerical-health escalation: the cheap in-cycle rungs (reorth,
            // throttle) are exhausted or unavailable and a structural change
            // is needed. The triggering event is already in
            // `report.escalations`; the action is charged here. Verified basis
            // columns stay valid (the checkpoint holds them as f64 on the
            // host), so a checkpointed cycle resumes where it was
            FtHandBack::Escalate { rung, ck } => {
                obs::close_open(mg.time());
                match rung {
                    EscalationRung::BasisSwitch => {
                        obs::instant_cause(
                            "ft.escalate",
                            HOST,
                            mg.time(),
                            "monomial basis switched to Newton (harvested Ritz shifts) \
                             after condition trigger",
                        );
                        sv.basis_cur = BasisChoice::Newton;
                        sv.spec_full =
                            BasisSpec::from_shifts(sv.shifts.as_deref(), sv.basis_cur, sv.s_cur);
                        // the executor is untouched: resuming is free
                        sv.resume = ck.map(|ck| Resume { ck, reupload: false });
                        Ok(())
                    }
                    EscalationRung::Promote => sv.promote(ck, self),
                    EscalationRung::Reorth | EscalationRung::Throttle => {
                        unreachable!("in-cycle rungs never hand back to the driver")
                    }
                }
            }
        }
    }

    /// A device lost with no checkpoint in hand: redo the cycle on the
    /// survivors.
    fn on_fault(&mut self, sv: &mut Solve<'_>, e: GpuSimError, t_entry: f64) -> GpuResult<()> {
        match e {
            GpuSimError::DeviceLost { device } if sv.mg.n_gpus() > 1 => {
                let survivors = sv.mg.n_gpus() - 1;
                let why = format!("device {device} lost; rebuilding on {survivors} survivors");
                self.degrade(sv, &[device], t_entry, None, &why)
            }
            e => Err(e),
        }
    }

    /// The watchdog, then the tuner, then the rebalancer; the first that
    /// rebuilds ends the boundary.
    fn at_boundary(&mut self, sv: &mut Solve<'_>, t_entry: f64) -> GpuResult<()> {
        if self.watchdog(sv, t_entry)? || self.retune(sv)? {
            return Ok(());
        }
        self.rebalance(sv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orth::TsqrKind;
    use ca_gpusim::{FaultPlan, Schedule, SdcTargets};
    use ca_sparse::gen::laplace2d;

    fn problem() -> (Csr, Vec<f64>, Vec<f64>) {
        let a = laplace2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
        let mut b = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x_true, &mut b);
        (a, b, x_true)
    }

    fn cfg() -> FtConfig {
        FtConfig {
            solver: CaGmresConfig {
                s: 5,
                m: 20,
                rtol: 1e-6,
                max_restarts: 300,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn check_solution(a: &Csr, b: &[f64], x: &[f64], rtol: f64) {
        let mut r = vec![0.0; b.len()];
        ca_sparse::spmv::spmv(a, x, &mut r);
        for i in 0..b.len() {
            r[i] = b[i] - r[i];
        }
        let relres = ca_dense::blas1::nrm2(&r) / ca_dense::blas1::nrm2(b);
        assert!(relres <= rtol * 1.01, "relres {relres} > {rtol}");
    }

    #[test]
    fn clean_run_converges() {
        let (a, b, _) = problem();
        let out = ca_gmres_ft(MultiGpu::with_defaults(2), &a, &b, &cfg());
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert_eq!(out.report.sdc_detected, 0);
        assert_eq!(out.report.blocks_recomputed, 0);
        assert!(!out.report.degraded);
        check_solution(&a, &b, &out.x, cfg().solver.rtol);
    }

    #[test]
    fn spmv_sdc_detected_and_recovered() {
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(7).with_sdc(5e-2, SdcTargets::spmv_only()));
        let c = cfg();
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert!(out.report.sdc_detected > 0, "fault rate high enough to hit SpMV");
        assert!(out.report.blocks_recomputed > 0);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }

    #[test]
    fn device_loss_degrades_and_completes() {
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(3).with_device_loss(1, 200));
        let c = cfg();
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert_eq!(out.report.device_lost, Some(1));
        assert!(out.report.degraded);
        assert_eq!(out.report.ndev_final, 2);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }

    #[test]
    fn transfer_faults_absorbed_by_retry() {
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(11).with_transfer_faults(0.02));
        mg.set_transfer_retry(RetryPolicy::attempts(16));
        let c = cfg();
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert!(out.report.transfer_retries > 0);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }

    #[test]
    fn watchdog_escalates_hung_device_to_loss() {
        // a permanently stalled device never errors on its own — only the
        // watchdog can convert it into the device-loss degradation path
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(21).with_stalls(1, 1.0, 30.0));
        let c = FtConfig { watchdog_timeout_s: Some(0.5), ..cfg() };
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert_eq!(out.report.hung_device, Some(1));
        assert_eq!(out.report.device_lost, Some(1));
        assert!(out.report.degraded);
        assert_eq!(out.report.ndev_final, 2);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }

    #[test]
    fn rebalance_shrinks_slow_device_share() {
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(13).with_slowdown(1, 4.0, 0));
        let c = FtConfig { rebalance: true, ..cfg() };
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert!(out.report.rebalances > 0, "4x slowdown must trip the 1.5x threshold");
        assert!(!out.report.degraded);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }

    #[test]
    fn rebalance_is_inert_without_faults() {
        // zero-fault plan: imbalance stays exactly 1.0, so the rebalanced
        // solve is bit-identical to the static one
        let (a, b, _) = problem();
        let stat = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &cfg());
        let c = FtConfig { rebalance: true, watchdog_timeout_s: Some(1.0), ..cfg() };
        let reb = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &c);
        assert_eq!(reb.report.rebalances, 0);
        assert_eq!(stat.stats.total_iters, reb.stats.total_iters);
        assert_eq!(stat.stats.t_total.to_bits(), reb.stats.t_total.to_bits());
        for (u, v) in stat.x.iter().zip(&reb.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn zero_rate_plan_matches_no_plan() {
        let (a, b, _) = problem();
        let clean = ca_gmres_ft(MultiGpu::with_defaults(2), &a, &b, &cfg());
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(99)); // all rates zero
        let zeroed = ca_gmres_ft(mg, &a, &b, &cfg());
        assert_eq!(clean.stats.total_iters, zeroed.stats.total_iters);
        assert_eq!(clean.stats.t_total.to_bits(), zeroed.stats.t_total.to_bits());
        for (u, v) in clean.x.iter().zip(&zeroed.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn probe_is_bit_invisible_on_healthy_run() {
        // armed probe on a healthy machine: polls happen, checkpoints are
        // captured, and none of it may perturb numerics or the clock
        let (a, b, _) = problem();
        let base = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &cfg());
        let c = FtConfig { probe: Some(HealthProbe::default()), ..cfg() };
        let probed = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &c);
        assert!(probed.report.in_cycle_polls > 0, "probe armed but never polled");
        assert_eq!(probed.report.in_cycle_escalations, 0);
        assert_eq!(probed.report.block_resumes, 0);
        assert_eq!(base.stats.total_iters, probed.stats.total_iters);
        assert_eq!(base.stats.t_total.to_bits(), probed.stats.t_total.to_bits());
        for (u, v) in base.x.iter().zip(&probed.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn prefetch_moves_only_the_clock() {
        // the Fig. 14 overlap under the fault-tolerant guard: with CAQR and
        // the checksums off (the orthogonalization's keep the window shut),
        // the event-driven schedule issues halos ahead of their blocks and
        // follows the barrier schedule's iteration path to the same bits,
        // no later. A fixed budget: a solve that converges mid-cycle wastes
        // its last prefetch
        let (a, b, _) = problem();
        let run = |schedule: Schedule| {
            let mut mg = MultiGpu::with_defaults(3);
            mg.set_schedule(schedule);
            let mut c = FtConfig { verify: false, ..cfg() };
            c.solver.orth.tsqr = TsqrKind::Caqr;
            (c.solver.rtol, c.solver.max_restarts) = (0.0, 4);
            ca_gmres_ft(mg, &a, &b, &c)
        };
        let (sync, event) = (run(Schedule::Barrier), run(Schedule::EventDriven));
        assert_eq!(sync.stats.prefetches, 0, "the barrier schedule prefetched");
        assert!(event.stats.prefetches > 0, "the fault-tolerant solve never prefetched");
        let path = |s: &SolveStats| (s.total_iters, s.restarts);
        assert_eq!(path(&sync.stats), path(&event.stats));
        for (u, v) in sync.x.iter().zip(&event.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        assert!(event.stats.t_total <= sync.stats.t_total, "{event:?} vs {sync:?}");
    }

    #[test]
    fn an_unarmed_guard_times_like_the_plain_guard() {
        // under the barrier schedule the guard in charge shows in no clock:
        // the fault-tolerant solve with nothing armed and the plain solve on
        // the same even layout follow one path and attribute one set of
        // phase times
        let (a, b, _) = problem();
        let c = FtConfig { verify: false, ..cfg() };
        let ft = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &c);
        let mut mg = MultiGpu::with_defaults(3);
        let (n, m, s) = (a.nrows(), c.solver.m, c.solver.s);
        let sys = System::new(&mut mg, &a, Layout::even(n, 3), m, Some(s)).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        let plain = crate::cagmres::ca_gmres(&mut mg, &sys, &c.solver);
        let x = sys.download_x(&mut mg).unwrap();
        for (u, v) in ft.x.iter().zip(&x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        let (f, p) = (&ft.stats, &plain.stats);
        assert_eq!((f.total_iters, f.restarts), (p.total_iters, p.restarts));
        let phases = |s: &SolveStats| [s.t_spmv, s.t_orth, s.t_tsqr, s.t_small];
        for (i, (tf, tp)) in phases(f).into_iter().zip(phases(p)).enumerate() {
            assert!((tf - tp).abs() <= 1e-12 * tp.abs(), "phase {i}: {tf} vs {tp}");
        }
    }

    #[test]
    fn session_cold_matches_one_shot() {
        // the re-entrant entry with no resident state is the consuming
        // entry, bit for bit: solution, clock, and traffic counters
        let (a, b, _) = problem();
        let one_shot = ca_gmres_ft(MultiGpu::with_defaults(2), &a, &b, &cfg());
        let mut mg = MultiGpu::with_defaults(2);
        let (sess, resident) = ca_gmres_ft_session(&mut mg, &a, &b, &cfg(), None, None, false);
        assert!(resident.is_some(), "healthy solve must hand back its device state");
        assert_eq!(one_shot.stats.total_iters, sess.stats.total_iters);
        assert_eq!(one_shot.stats.t_total.to_bits(), sess.stats.t_total.to_bits());
        assert_eq!(one_shot.stats.comm_msgs, sess.stats.comm_msgs);
        assert_eq!(one_shot.stats.comm_bytes, sess.stats.comm_bytes);
        for (u, v) in one_shot.x.iter().zip(&sess.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn session_warm_reuse_skips_staging_and_matches() {
        let (a, b, _) = problem();
        let c = cfg();
        let mut mg = MultiGpu::with_defaults(2);
        let (first, resident) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, None, false);
        assert!(first.stats.converged);
        let mem_after_first: Vec<usize> = (0..2).map(|d| mg.device(d).mem_used()).collect();
        let msgs_cold = mg.counters().total_msgs();

        // warm solve of the same system: same numerics, no new
        // allocations, and strictly less traffic than a cold solve
        let (second, resident2) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, resident, false);
        assert!(second.stats.converged);
        for (u, v) in first.x.iter().zip(&second.x) {
            assert_eq!(u.to_bits(), v.to_bits(), "warm solve changed the solution");
        }
        let mem_after_second: Vec<usize> = (0..2).map(|d| mg.device(d).mem_used()).collect();
        assert_eq!(mem_after_first, mem_after_second, "warm solve must not allocate");
        let msgs_warm = mg.counters().total_msgs() - msgs_cold;
        assert!(msgs_warm < msgs_cold, "warm solve sent {msgs_warm} msgs, cold sent {msgs_cold}");
        // and each solve reports its own traffic, not the executor's total
        assert!(second.stats.comm_msgs < first.stats.comm_msgs);
        assert_eq!(second.stats.comm_msgs, msgs_warm);
        assert_eq!(second.report.executor_rebuilds, 0);

        // eviction returns every byte to the pool
        resident2.unwrap().release(&mut mg);
        for d in 0..2 {
            assert_eq!(mg.device(d).mem_used(), 0, "device {d} leaked after release");
        }
    }

    #[test]
    fn a_warm_system_that_does_not_fit_is_freed_and_the_solve_runs_cold() {
        // one key of `fits` changed at a time: the stale system (checksum
        // included) is released and the solve equals a cold one
        let (a, b, _) = problem();
        let mem = |mg: &MultiGpu| (0..2).map(|d| mg.device(d).mem_used()).collect::<Vec<_>>();
        let (mut other_m, mut other_s, mut unverified, mut f32) = (cfg(), cfg(), cfg(), cfg());
        other_m.solver.m = 24;
        other_s.solver.s = 4;
        unverified.verify = false;
        f32.solver.mpk_prec = Precision::F32;
        for (case, c) in [("m", other_m), ("s", other_s), ("verify", unverified), ("f32", f32)] {
            let mut cold_mg = MultiGpu::with_defaults(2);
            let (cold, _) = ca_gmres_ft_session(&mut cold_mg, &a, &b, &c, None, None, false);
            let mut mg = MultiGpu::with_defaults(2);
            let (_, stale) = ca_gmres_ft_session(&mut mg, &a, &b, &cfg(), None, None, false);
            let (warm, _) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, stale, false);
            assert!(cold.stats.converged && warm.stats.converged, "{case}");
            assert_eq!(warm.stats.total_iters, cold.stats.total_iters, "{case}");
            for (u, v) in warm.x.iter().zip(&cold.x) {
                assert_eq!(u.to_bits(), v.to_bits(), "{case}");
            }
            assert_eq!(mem(&mg), mem(&cold_mg), "{case}: the stale system stayed allocated");
        }
    }

    #[test]
    fn session_rhs_precharged_skips_rhs_upload_only() {
        // with the RHS pre-staged (batched upload charged by the caller),
        // the warm solve books exactly the load_rhs transfers fewer
        let (a, b, _) = problem();
        let c = cfg();
        let run = |precharged: bool| {
            let mut mg = MultiGpu::with_defaults(2);
            let (_, resident) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, None, false);
            let before = mg.counters();
            let (out, _) = ca_gmres_ft_session(&mut mg, &a, &b, &c, None, resident, precharged);
            let after = mg.counters();
            (out, after.total_bytes() - before.total_bytes())
        };
        let (charged_out, charged_bytes) = run(false);
        let (pre_out, pre_bytes) = run(true);
        for (u, v) in charged_out.x.iter().zip(&pre_out.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        let n = a.nrows() as u64;
        assert_eq!(charged_bytes - pre_bytes, 8 * n, "exactly one RHS upload skipped");
    }

    #[test]
    fn probe_detects_hang_within_a_block() {
        // permanently stalled device: the boundary watchdog eats the whole
        // stalled cycle before escalating; the probe escalates at the
        // first block boundary, so its detection latency is a fraction
        let (a, b, _) = problem();
        let plan = FaultPlan::new(21).with_stalls(1, 1.0, 30.0);
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(plan.clone());
        let cb = FtConfig { watchdog_timeout_s: Some(0.5), ..cfg() };
        let base = ca_gmres_ft(mg, &a, &b, &cb);
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(plan);
        let cp = FtConfig {
            watchdog_timeout_s: Some(0.5),
            probe: Some(HealthProbe::default()),
            ..cfg()
        };
        let probed = ca_gmres_ft(mg, &a, &b, &cp);
        assert!(base.stats.converged && probed.stats.converged);
        assert_eq!(base.report.hung_device, Some(1));
        assert_eq!(probed.report.hung_device, Some(1));
        assert_eq!(probed.report.in_cycle_escalations, 1);
        let lb = base.report.detection_latency_s[0];
        let lp = probed.report.detection_latency_s[0];
        assert!(
            lp <= 0.5 * lb,
            "in-cycle latency {lp:.3}s not well under boundary latency {lb:.3}s"
        );
        assert!(probed.stats.t_total <= base.stats.t_total, "earlier detection must not cost time");
        check_solution(&a, &b, &probed.x, cp.solver.rtol);
    }

    #[test]
    fn device_loss_mid_cycle_resumes_from_block() {
        // scan injection points: wherever the loss lands after a verified
        // block, recovery must roll back to that block (not the cycle),
        // and every run must still converge on the survivors
        let (a, b, _) = problem();
        let c = FtConfig { probe: Some(HealthProbe::default()), ..cfg() };
        let mut resumed = 0;
        for after_op in [60, 120, 200, 280, 360] {
            let mut mg = MultiGpu::with_defaults(3);
            mg.set_fault_plan(FaultPlan::new(3).with_device_loss(1, after_op));
            let out = ca_gmres_ft(mg, &a, &b, &c);
            assert!(out.stats.converged, "after_op={after_op}: {:?}", out.stats.breakdown);
            check_solution(&a, &b, &out.x, c.solver.rtol);
            if out.report.device_lost.is_some() {
                // the loss fired before the solve finished
                assert!(out.report.degraded, "after_op={after_op}");
                assert_eq!(out.report.ndev_final, 2, "after_op={after_op}");
            }
            if out.report.block_resumes > 0 {
                resumed += 1;
                assert!(
                    out.report.work_lost_s > 0.0,
                    "after_op={after_op}: rollback must record lost work"
                );
            }
        }
        assert!(resumed >= 1, "no injection point exercised the block-resume path");
    }

    #[test]
    fn probe_rebalances_straggler_mid_cycle() {
        // 4x fail-slow device with only the in-cycle responder armed: the
        // EWMA imbalance trips the probe threshold at a block boundary and
        // the remaining rows are repartitioned without waiting for the
        // restart boundary
        let (a, b, _) = problem();
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(13).with_slowdown(1, 4.0, 0));
        let c = FtConfig {
            probe: Some(HealthProbe {
                watchdog_timeout_s: Some(0.5),
                straggler_threshold: Some(1.5),
            }),
            ..cfg()
        };
        let out = ca_gmres_ft(mg, &a, &b, &c);
        assert!(out.stats.converged, "{:?}", out.stats.breakdown);
        assert!(out.report.mid_cycle_rebalances >= 1, "straggler never rebalanced in-cycle");
        assert!(!out.report.degraded);
        check_solution(&a, &b, &out.x, c.solver.rtol);
    }
}
