//! Numerical-health subsystem: basis-condition monitoring and the
//! escalation ladder.
//!
//! This is the *numerical* mirror of the hardware [`crate::ft::HealthProbe`]
//! stack. Where the hardware probe watches clocks (hangs, stragglers), the
//! [`BasisMonitor`] watches conditioning: every TSQR factorization already
//! reduces a factor to the host — CholQR's Cholesky factor, SVQR's singular
//! values, CAQR's stacked-R, the Gram-Schmidt diagonal — and the squared
//! ratio of its extreme diagonal entries is a free condition estimate for
//! the Gram matrix of the block (`κ(B) ≈ κ(V)²`, the quantity the paper's
//! §IV-A stability caps bound *statically*). A second probe watches the raw
//! monomial-basis growth on freshly generated MPK blocks (max/min column
//! norm), catching ill-conditioning *before* the factorization sees it.
//!
//! **Cost model.** The estimates are O(s) host scans of factors the
//! algorithm already reduced to the host for its own use, so recording them
//! advances no simulated clock and moves no bytes; the growth probe's
//! column-norm read follows the [`crate::ft`] checkpoint precedent (drained
//! over the copy engines, overlapped with the next block's compute, and
//! armed-only). The monitor is therefore **bit-invisible**: disarmed it
//! does not exist (the guard field is `None`), and armed on a
//! well-conditioned run it replays the unmonitored solve bit for bit
//! (numerics, clock, counters). What *is* charged — fully and honestly —
//! is every escalation **action** the monitor triggers: an extra
//! reorthogonalization pass, a regenerated shorter block, a basis-spec
//! switch's regeneration, an f64 rebuild.
//!
//! **The ladder.** Triggers feed a configurable [`Ladder`] in the FT driver,
//! climbed in order of increasing cost:
//!
//! 1. **Reorth** — CGS2-style second BOrth+TSQR pass on the offending (and
//!    subsequent) blocks. Proactive only: it repairs orthogonality drift
//!    the monitor flags *before* breakdown; once a factorization has
//!    actually failed a second pass over the same block cannot run.
//! 2. **Throttle** — finish the cycle with shorter basis blocks (`s`
//!    halved down to [`Ladder::s_floor`]), regenerating only the failed
//!    block in place; the verified prefix and its [`crate::ft`] block
//!    checkpoint survive, so no converged Krylov dimension is discarded.
//!    The plain solve's `adaptive_s` is this rung with a floor of 1.
//! 3. **Basis switch** — monomial → Newton with the already-harvested Ritz
//!    shifts (the paper's own remedy for monomial growth).
//! 4. **Promote** — rebuild the MPK state at f64 and resume. It is one arm
//!    of the restart loop: [`crate::mixed::ca_gmres_mixed`] takes the same
//!    arm when a block breaks down on its f32 basis, with no ladder armed.
//!
//! Every escalation is recorded as an [`EscalationEvent`] (rung, cycle,
//! trigger condition estimate) in `FtReport::escalations`, and the whole
//! condition trajectory is handed to the `Retuner` so post-escalation
//! re-plans tighten the matrix's caps instead of re-walking into the same
//! breakdown.

use ca_dense::Mat;
use ca_obs as obs;

/// Basis-condition monitor configuration (the numerical analog of
/// [`crate::ft::HealthProbe`]).
#[derive(Debug, Clone)]
pub struct BasisMonitor {
    /// Condition estimates at or above this are recorded in the trajectory
    /// as *warnings* (fed to the `Retuner`) but do not trigger escalation.
    pub cond_warn: f64,
    /// Gram-condition estimate above which the monitor raises an
    /// escalation trigger. The default sits where CholQR still has a few
    /// digits left — early enough that the cheap rungs can still help.
    pub cond_fail: f64,
    /// Max/min column-norm ratio of a freshly generated (pre-orth) basis
    /// block above which the growth probe raises a trigger — the monomial
    /// signature of §IV-A, caught before the factorization fails.
    pub growth_fail: f64,
}

impl Default for BasisMonitor {
    fn default() -> Self {
        Self { cond_warn: 1e8, cond_fail: 1e13, growth_fail: 1e12 }
    }
}

/// One rung of the escalation ladder, in increasing cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationRung {
    /// CGS2-style reorthogonalization of the offending block (and the rest
    /// of the cycle).
    Reorth,
    /// In-cycle `s` throttling: regenerate the failed block shorter and
    /// finish the cycle at the reduced step size.
    Throttle,
    /// Basis switch: monomial → Newton with harvested Ritz shifts.
    BasisSwitch,
    /// Precision promotion: rebuild the MPK state at f64.
    Promote,
}

impl EscalationRung {
    /// Short label for obs causes and reports.
    pub fn label(self) -> &'static str {
        match self {
            EscalationRung::Reorth => "reorth",
            EscalationRung::Throttle => "throttle",
            EscalationRung::BasisSwitch => "basis-switch",
            EscalationRung::Promote => "promote",
        }
    }
}

/// One recorded escalation (FtReport::escalations).
#[derive(Debug, Clone)]
pub struct EscalationEvent {
    /// Which rung was taken.
    pub rung: EscalationRung,
    /// Restart cycle (0-based) the escalation happened in.
    pub cycle: usize,
    /// Basis column the trigger pointed at (block start).
    pub column: usize,
    /// Step size in effect when the trigger fired.
    pub s: usize,
    /// Condition estimate that pulled the trigger (`f64::INFINITY` when
    /// the trigger was an actual factorization breakdown rather than a
    /// monitor estimate).
    pub cond_est: f64,
}

impl EscalationEvent {
    /// Append the event to `log` and announce it: the `ft.detect` cause
    /// instant at `t` and the metered escalation counters. The *detection*
    /// is what is recorded here; the action itself (reorth pass, shorter
    /// block, rebuild) is charged by the code that performs it.
    pub(crate) fn record(self, log: &mut Vec<Self>, t: f64) {
        if obs::enabled() {
            let (cond_est, column, s, rung) = (self.cond_est, self.column, self.s, self.rung);
            obs::instant_cause(
                "ft.detect",
                obs::Track::Host,
                t,
                &format!(
                    "numerical-health trigger (cond est {cond_est:.3e}) at column {column} \
                     (s = {s}); escalating: {}",
                    rung.label()
                ),
            );
            obs::counter_add(obs::names::HEALTH_ESCALATIONS, 1);
            obs::counter_add(&obs::names::health_escalations_rung(rung.label()), 1);
        }
        log.push(self);
    }
}

/// The block size the throttle rung finishes a cycle at after a block of
/// `s` steps failed: half of it, never below `floor`. The plain driver's
/// `adaptive_s` is this rung with a floor of 1.
pub(crate) fn throttled(s: usize, floor: usize) -> usize {
    (s / 2).max(floor)
}

/// Escalation-ladder configuration ([`crate::ft::FtConfig::ladder`]).
/// Each rung can be disabled individually; a disabled rung is skipped and
/// the ladder climbs straight to the next one.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// The condition monitor feeding the ladder.
    pub monitor: BasisMonitor,
    /// Rung 1: CGS2 reorthogonalization.
    pub reorth: bool,
    /// Rung 2: in-cycle `s` throttling.
    pub throttle: bool,
    /// Rung 3: monomial → Newton basis switch.
    pub basis_switch: bool,
    /// Rung 4: f32 → f64 precision promotion.
    pub promote: bool,
    /// Total escalations allowed per solve before the driver stops
    /// climbing and reports the breakdown honestly.
    pub max_escalations: usize,
    /// Throttling never shrinks `s` below this.
    pub s_floor: usize,
}

impl Default for Ladder {
    fn default() -> Self {
        Self {
            monitor: BasisMonitor::default(),
            reorth: true,
            throttle: true,
            basis_switch: true,
            promote: true,
            max_escalations: 16,
            s_floor: 2,
        }
    }
}

/// Live state of an armed monitor: a field of the fault-tolerant driver's
/// cycle guard, fed from the engine's hook points.
#[derive(Debug, Default)]
pub(crate) struct MonitorState {
    cond_warn: f64,
    cond_fail: f64,
    growth_fail: f64,
    /// Condition estimates at or above `cond_warn`, in record order — the
    /// trajectory the `Retuner` consumes.
    pub trajectory: Vec<f64>,
    /// Worst estimate since the driver last consumed a trigger.
    trigger: Option<f64>,
    /// Total estimates recorded (including sub-warning ones).
    pub records: u64,
}

impl MonitorState {
    /// Arm a monitor with `cfg`'s thresholds.
    pub(crate) fn new(cfg: &BasisMonitor) -> Self {
        Self {
            cond_warn: cfg.cond_warn,
            cond_fail: cfg.cond_fail,
            growth_fail: cfg.growth_fail,
            ..Self::default()
        }
    }

    /// Record a Gram-condition estimate from a TSQR factor's diagonal:
    /// `(max|r_ii| / min|r_ii|)²` — a free upper-bound flavor of `κ(B)`
    /// read off the host-resident `R`.
    pub(crate) fn record_r_diag(&mut self, r: &Mat) {
        let k = r.nrows().min(r.ncols());
        if k == 0 {
            return;
        }
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for i in 0..k {
            let d = r[(i, i)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        let ratio = hi / lo.max(f64::MIN_POSITIVE);
        self.record_cond(ratio * ratio);
    }

    /// Count `est` (Gram/`κ²` terms), keep it in the trajectory from the
    /// warning level up, and raise the trigger when `fails`.
    fn record(&mut self, est: f64, fails: bool) {
        self.records += 1;
        if est >= self.cond_warn || !est.is_finite() {
            self.trajectory.push(est);
        }
        if fails {
            self.trigger = Some(match self.trigger {
                Some(t) if t >= est => t,
                _ => est,
            });
        }
    }

    /// Record a condition estimate (already in Gram/`κ²` terms).
    pub(crate) fn record_cond(&mut self, est: f64) {
        self.record(est, est >= self.cond_fail || !est.is_finite());
        if obs::enabled() {
            obs::observe(obs::names::HEALTH_COND_EST, est);
            obs::counter_add(obs::names::HEALTH_COND_CHECKS, 1);
        }
    }

    /// Record the max/min column-norm ratio of a freshly generated basis
    /// block (the monomial growth probe). Triggers against
    /// [`BasisMonitor::growth_fail`]; the ratio also lands in the
    /// trajectory (it is a `κ(V)`-scale quantity, so it is squared first).
    pub(crate) fn record_growth(&mut self, ratio: f64) {
        self.record(ratio * ratio, ratio >= self.growth_fail || !ratio.is_finite());
        if obs::enabled() {
            obs::observe(obs::names::HEALTH_BASIS_GROWTH, ratio);
            obs::counter_add(obs::names::HEALTH_GROWTH_CHECKS, 1);
        }
    }

    /// Consume the pending escalation trigger, if any: the worst condition
    /// estimate at or above the failure threshold since the last take.
    pub(crate) fn take_trigger(&mut self) -> Option<f64> {
        self.trigger.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> MonitorState {
        MonitorState::new(&BasisMonitor::default())
    }

    #[test]
    fn armed_monitor_triggers_and_tracks_trajectory() {
        let mut m = armed();
        m.record_cond(1e4); // below warn: counted, not kept
        m.record_cond(1e9); // warn: trajectory only
        assert!(m.take_trigger().is_none());
        m.record_cond(1e14); // fail: trigger
        m.record_cond(1e15); // worse: trigger keeps the max
        assert_eq!(m.take_trigger(), Some(1e15));
        assert!(m.take_trigger().is_none(), "trigger is consumed");
        assert_eq!(m.records, 4);
        assert_eq!(m.trajectory, vec![1e9, 1e14, 1e15]);
    }

    #[test]
    fn growth_probe_triggers_in_cond_units() {
        let mut m = armed();
        m.record_growth(1e3); // benign growth
        assert!(m.take_trigger().is_none());
        m.record_growth(1e13); // past growth_fail
        let t = m.take_trigger().expect("growth trigger");
        assert_eq!(t, 1e26, "trigger carries the squared (κ²) estimate");
    }

    #[test]
    fn r_diag_estimate_squares_the_ratio() {
        let mut m = armed();
        let mut r = Mat::zeros(3, 3);
        r[(0, 0)] = 1.0;
        r[(1, 1)] = 1e-3;
        r[(2, 2)] = 1e-7;
        m.record_r_diag(&r); // ratio 1e7 -> est 1e14 >= fail
        let t = m.take_trigger().expect("cond trigger");
        assert!((t / 1e14 - 1.0).abs() < 1e-9, "estimate {t:e}");
    }

    #[test]
    fn rung_labels_cover_the_ladder() {
        for (rung, label) in [
            (EscalationRung::Reorth, "reorth"),
            (EscalationRung::Throttle, "throttle"),
            (EscalationRung::BasisSwitch, "basis-switch"),
            (EscalationRung::Promote, "promote"),
        ] {
            assert_eq!(rung.label(), label);
        }
    }
}
