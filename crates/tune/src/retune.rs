//! Restart-boundary re-planning: the bridge between the planner and the
//! fault-tolerant driver's `AutoTune` hook.
//!
//! [`Retuner`] implements [`ca_gmres::ft::RestartTuner`]. At each
//! restart boundary the driver hands it the watchdog's
//! [`ca_gpusim::HealthReport`]; on a healthy machine the retuner
//! returns `None` without evaluating anything, so an armed-but-idle
//! autotune run replays the untuned run bit for bit. When devices have
//! slowed or died it re-scores a small `(s, layout)` grid by running
//! each point's restart cycle on the planner's cost-only machine
//! ([`crate::rig`]) — each device's latency EWMA slowing that device's
//! kernels as a fail-slow fault would — and proposes the winner.

use crate::plan::{Candidate, Planner};
use ca_gmres::prelude::*;
use ca_gpusim::{HealthReport, KernelConfig, PerfModel};
use ca_sparse::Csr;

/// Link-slowdown hypotheses tried when explaining a phase-share drift
/// (`1.0` first: the healthy explanation wins ties, keeping the drift
/// detector inert on a machine that merely mismatches the model by a
/// scale factor rather than by shape).
const LINK_LAMBDAS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Step sizes considered when re-planning (the planner's static caps
/// still apply on top).
const S_GRID: [usize; 7] = [2, 3, 5, 8, 10, 15, 20];

/// EWMA-slowdown spread below which the machine counts as healthy and
/// the retuner stays inert.
const IMBALANCE_THRESHOLD: f64 = 1.05;

/// Re-planner for one fault-tolerant solve.
///
/// Borrows the *prepared* (permuted) matrix the solve runs on — layout
/// candidates are produced directly against it, no re-ordering happens
/// at a restart boundary (re-permuting mid-solve would cost a full
/// matrix re-upload; re-slicing only moves the rows that change owner).
#[derive(Debug)]
pub struct Retuner<'a> {
    planner: Planner<'a>,
    base: Candidate,
    /// Largest observed-vs-predicted phase-share deviation tolerated
    /// before the span-ratio drift detector engages (only consulted when
    /// the kernel EWMA looks healthy — the drift path exists for faults
    /// the busy-time telemetry cannot see, like a degraded PCIe link).
    /// Infinite by default, i.e. drift detection is *opt-in*: the
    /// predicted shares are those of a plain, barrier-flattened cycle and
    /// the fault-tolerant driver's phase windows legitimately miss them
    /// by a schedule-dependent margin, so a finite
    /// tolerance here is an operator decision (calibrate it from a
    /// healthy stream's residual deviation), not something an
    /// armed-but-idle tuner may assume — the bit-invisibility contract
    /// only holds while this stays infinite or above that margin.
    pub drift_threshold: f64,
    /// Most recent phase observation from the driver
    /// ([`RestartTuner::observe_phases`]); consumed by a drift re-plan.
    last_phases: Option<PhaseRatios>,
}

impl<'a> Retuner<'a> {
    /// A retuner for a solve of `a` (already permuted/distributed) with
    /// restart length `m`, whose fixed choices (basis, orth, kernel)
    /// are described by `base`. `base.s` is only the starting point —
    /// the live `s` arrives through the hook.
    #[must_use]
    pub fn new(
        a: &'a Csr,
        m: usize,
        model: PerfModel,
        config: KernelConfig,
        base: Candidate,
    ) -> Self {
        Self {
            planner: Planner::new(a, m, model, config),
            base,
            drift_threshold: f64::INFINITY,
            last_phases: None,
        }
    }

    /// A planner whose links run `lambda` times slower — the model-side
    /// mirror of the executor's fail-slow link multiplier, which scales
    /// each copy's whole duration (latency and transfer alike).
    fn link_scaled_planner(&self, lambda: f64) -> Planner<'a> {
        let mut planner = self.planner.clone();
        let model = &mut planner.model;
        for p in ["pcie_bw", "net_bw"] {
            if let Some(v) = model.param(p) {
                model.set_param(p, v / lambda);
            }
        }
        for p in ["pcie_latency_s", "net_latency_s"] {
            if let Some(v) = model.param(p) {
                model.set_param(p, v * lambda);
            }
        }
        planner
    }

    /// Pruned, sorted step-size grid for a re-plan around `s_cur`.
    fn s_options(&self, s_cur: usize) -> Vec<usize> {
        let mut s_opts: Vec<usize> = S_GRID
            .into_iter()
            .chain(std::iter::once(s_cur))
            .filter(|&s| {
                s >= 1 && s <= self.planner.m && {
                    let c = Candidate { s, ..self.base };
                    self.planner.prune_reason(&c).is_none()
                }
            })
            .collect();
        s_opts.sort_unstable();
        s_opts.dedup();
        s_opts
    }

    /// [`Retuner::s_options`] plus `s_cur` itself: the grid of the
    /// incumbent's layout, which prices the incumbent even where tightened
    /// caps now prune it.
    fn with_incumbent(&self, s_cur: usize) -> Vec<usize> {
        let mut grid = self.s_options(s_cur);
        grid.push(s_cur);
        grid.sort_unstable();
        grid.dedup();
        grid
    }

    /// `(s, cycle time)` of the base candidate at each step size of `grid`
    /// (ascending) on `layout` under `slow`, all priced on one machine of
    /// `planner`, deepest first so that every shallower MPK plan is read off
    /// the deepest analysis. A point the machine cannot hold is infinitely
    /// slow.
    fn price(
        &self,
        planner: &Planner<'_>,
        layout: &Layout,
        grid: &[usize],
        slow: &[f64],
    ) -> Vec<(usize, f64)> {
        let deepest_first: Vec<Candidate> =
            grid.iter().rev().map(|&s| Candidate { s, ndev: layout.ndev(), ..self.base }).collect();
        let priced = planner.predict(planner.a, layout, &deepest_first, slow);
        let mut times: Vec<(usize, f64)> = deepest_first
            .iter()
            .zip(priced)
            .map(|(c, p)| (c.s, p.map_or(f64::INFINITY, |(phases, _)| phases.cycle_s)))
            .collect();
        times.reverse();
        times
    }

    /// Span-ratio drift path, consulted only when the kernel EWMA is
    /// clean. Finds the link-slowdown hypothesis whose predicted phase
    /// *shape* best matches the observation; if the healthy hypothesis
    /// misses the observed shares by more than `drift_threshold` while a
    /// degraded-link hypothesis explains them, the step-size grid is
    /// re-scored on the degraded model (larger `s` amortizes the slow
    /// link over fewer, bigger exchanges) and a strictly better winner
    /// re-plans. The layout is kept: a slow link is not a row-balance
    /// problem.
    fn replan_for_drift(&mut self, s_cur: usize, layout: &Layout) -> Option<RetuneDecision> {
        if self.drift_threshold == f64::INFINITY {
            return None; // no deviation exceeds it: nothing to price
        }
        let obs = *self.last_phases.as_ref()?;
        if obs.cycles == 0 || obs.cycle_s <= 0.0 {
            return None;
        }
        let ones = vec![1.0; layout.ndev()];
        let cand = Candidate { s: s_cur, ndev: layout.ndev(), ..self.base };
        let deviation = |p: &Planner<'_>| {
            let predicted = p.predict(p.a, layout, &[cand], &ones);
            predicted[0].as_ref().map_or(f64::INFINITY, |(ph, _)| ph.max_share_deviation(&obs))
        };
        let mut best_lambda = LINK_LAMBDAS[0];
        let mut best_dev = deviation(&self.planner);
        let healthy_dev = best_dev;
        if healthy_dev <= self.drift_threshold {
            return None; // the healthy model already explains the shape
        }
        for &lambda in &LINK_LAMBDAS[1..] {
            let dev = deviation(&self.link_scaled_planner(lambda));
            if dev < best_dev {
                best_dev = dev;
                best_lambda = lambda;
            }
        }
        if best_lambda <= 1.0 {
            return None; // drift, but not link-shaped: nothing to re-plan
        }
        // Re-score the step grid under the explaining model.
        let degraded = self.link_scaled_planner(best_lambda);
        let grid = self.with_incumbent(s_cur);
        let (_, best_s) = fastest(&[self.price(&degraded, layout, &grid, &ones)], s_cur)?;
        // consume the observation: the next drift decision must come
        // from cycles measured under the new plan
        self.last_phases = None;
        Some(RetuneDecision { s: best_s, layout: layout.clone() })
    }
}

/// The point of `priced` — per layout, `(s, cycle time)` ascending in `s`,
/// layout 0 the incumbent's and holding `s_cur` — that is strictly faster
/// than the incumbent `(0, s_cur)`, as `(layout, s)`: layout 0 before
/// layout 1, `s` ascending, a tie keeping the earlier point. `None` keeps
/// the incumbent.
fn fastest(priced: &[Vec<(usize, f64)>], s_cur: usize) -> Option<(usize, usize)> {
    let incumbent = priced[0].iter().find(|&&(s, _)| s == s_cur).expect("the incumbent is priced");
    let mut best_t = incumbent.1;
    let mut best = None;
    for (li, grid) in priced.iter().enumerate() {
        for &(s, t) in grid {
            if (li, s) != (0, s_cur) && t < best_t {
                best_t = t;
                best = Some((li, s));
            }
        }
    }
    best
}

impl RestartTuner for Retuner<'_> {
    fn replan(
        &mut self,
        health: &HealthReport,
        s_cur: usize,
        layout: &Layout,
    ) -> Option<RetuneDecision> {
        let all_alive = health.devices.iter().all(|d| d.alive);
        if all_alive && health.imbalance() <= IMBALANCE_THRESHOLD {
            // kernel telemetry is clean — any remaining signal lives in
            // the phase shape (a degraded link never shows up in the
            // busy-time EWMA). On a genuinely healthy machine the
            // observed shares match the prediction and this returns
            // None, preserving the armed-but-idle bit-identity contract.
            return self.replan_for_drift(s_cur, layout);
        }
        let weights = health.throughput_weights();
        if weights.iter().all(|&w| w <= 0.0) {
            return None; // nothing left to run on; let the driver fail
        }
        let a = self.planner.a;
        // Kernel slowdown multipliers: a dead device keeps multiplier
        // 1.0 — the rebalanced layout gives it zero rows, so its
        // charges are launch-only either way.
        let slow: Vec<f64> = health
            .devices
            .iter()
            .map(|d| if d.alive { d.ewma_slowdown.max(1.0) } else { 1.0 })
            .collect();

        let rebalanced = Layout::proportional_nnz(a, &weights);
        let mut priced =
            vec![self.price(&self.planner, layout, &self.with_incumbent(s_cur), &slow)];
        if rebalanced.starts != layout.starts {
            priced.push(self.price(&self.planner, &rebalanced, &self.s_options(s_cur), &slow));
        }
        // Deterministic argmin; the incumbent (s_cur, current layout) is
        // scored first and ties keep it, so a re-plan only fires when a
        // strictly better point exists.
        let (li, s) = fastest(&priced, s_cur)?;
        Some(RetuneDecision { s, layout: if li == 0 { layout.clone() } else { rebalanced } })
    }

    /// Numerical-health feedback: the ladder found this matrix's basis
    /// degenerating at the step size the events carry. Tighten the
    /// planner's stability caps for the base candidate's basis/precision
    /// context to just below the smallest `s` that broke, so the next
    /// `replan` grid excludes the breakdown region instead of walking
    /// back into it. Reorth events are maintenance (drift repaired in
    /// place, `s` itself not implicated) and leave the caps alone.
    fn observe_escalations(&mut self, events: &[EscalationEvent]) {
        for ev in events {
            if ev.rung == EscalationRung::Reorth {
                continue;
            }
            let cap = ev.s.saturating_sub(1).max(1);
            let l = &mut self.planner.limits;
            match (self.base.prec, self.base.basis) {
                (ca_scalar::Precision::F32, BasisChoice::Monomial) => {
                    l.s_cap_monomial_f32 = l.s_cap_monomial_f32.min(cap);
                    l.cholqr_s_cap_monomial_f32 = l.cholqr_s_cap_monomial_f32.min(cap);
                }
                (_, BasisChoice::Monomial) => {
                    l.s_cap_monomial = l.s_cap_monomial.min(cap);
                    l.cholqr_s_cap_monomial = l.cholqr_s_cap_monomial.min(cap);
                }
                _ => {
                    l.s_cap_shifted = l.s_cap_shifted.min(cap);
                    l.cholqr_s_cap_shifted = l.cholqr_s_cap_shifted.min(cap);
                }
            }
        }
    }

    /// Keep the driver's latest phase-time deltas for the drift check.
    /// Observations covering no finished cycle (a boundary re-entered
    /// after fault recovery) are discarded rather than stored, so a
    /// stale window never fuels a re-plan.
    fn observe_phases(&mut self, obs: &PhaseRatios) {
        if obs.cycles > 0 && obs.cycle_s > 0.0 {
            self.last_phases = Some(*obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_gpusim::DeviceHealth;
    use ca_sparse::gen::laplace2d;

    fn health(ewma: &[f64], alive: &[bool]) -> HealthReport {
        HealthReport {
            devices: ewma
                .iter()
                .zip(alive)
                .enumerate()
                .map(|(d, (&e, &a))| DeviceHealth {
                    device: d,
                    alive: a,
                    ops: 100,
                    busy_s: e,
                    modeled_busy_s: 1.0,
                    ewma_slowdown: e,
                    max_overshoot_s: 0.0,
                })
                .collect(),
        }
    }

    /// The phases `p` predicts for `cand` on `layout` of its matrix, on a
    /// healthy machine.
    fn phases(p: &Planner<'_>, layout: &Layout, cand: Candidate) -> PhaseRatios {
        let priced = p.predict(p.a, layout, &[cand], &vec![1.0; layout.ndev()]);
        priced[0].as_ref().expect("fits").0
    }

    fn base() -> Candidate {
        Candidate {
            s: 5,
            basis: BasisChoice::Newton,
            tsqr: TsqrKind::CholQr,
            borth: BorthKind::Cgs,
            kernel: KernelMode::Mpk,
            ndev: 3,
            ordering: Ordering::Natural,
            reorth: false,
            prec: ca_scalar::Precision::F64,
        }
    }

    #[test]
    fn healthy_report_is_a_no_op() {
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        let layout = Layout::even(a.nrows(), 3);
        let h = health(&[1.0, 1.0, 1.0], &[true, true, true]);
        assert!(r.replan(&h, 5, &layout).is_none());
    }

    #[test]
    fn slowdown_triggers_a_rebalanced_layout() {
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        let layout = Layout::even(a.nrows(), 3);
        let h = health(&[1.0, 1.0, 4.0], &[true, true, true]);
        let d = r.replan(&h, 5, &layout).expect("4x straggler must trigger a re-plan");
        // the straggler must own fewer rows than an even share
        let even = a.nrows() / 3;
        assert!(
            d.layout.nlocal(2) < even,
            "straggler share {} not below even {}",
            d.layout.nlocal(2),
            even
        );
    }

    #[test]
    fn escalations_tighten_the_planner_caps() {
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(
            &a,
            20,
            PerfModel::default(),
            KernelConfig::default(),
            Candidate { basis: BasisChoice::Monomial, ..base() },
        );
        let ev = |rung, s| EscalationEvent { rung, cycle: 1, column: 3, s, cond_est: 1e14 };
        // a reorth is maintenance: caps untouched
        r.observe_escalations(&[ev(EscalationRung::Reorth, 8)]);
        assert_eq!(r.planner.limits.s_cap_monomial, 8);
        // a throttle at s = 8 excludes s >= 8 from future monomial plans
        r.observe_escalations(&[ev(EscalationRung::Throttle, 8)]);
        assert_eq!(r.planner.limits.s_cap_monomial, 7);
        assert_eq!(r.planner.limits.cholqr_s_cap_monomial, 5); // already tighter
                                                               // tightening is monotone across further events
        r.observe_escalations(&[ev(EscalationRung::BasisSwitch, 4)]);
        assert_eq!(r.planner.limits.s_cap_monomial, 3);
        assert_eq!(r.planner.limits.cholqr_s_cap_monomial, 3);
    }

    #[test]
    fn matching_phase_observation_stays_invisible() {
        // feed back the planner's own predicted shares: no drift, no plan
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        r.drift_threshold = 0.05;
        let layout = Layout::even(a.nrows(), 3);
        let cand = Candidate { ndev: 3, ..base() };
        let ph = phases(&r.planner, &layout, cand);
        r.observe_phases(&ph);
        let h = health(&[1.0, 1.0, 1.0], &[true, true, true]);
        assert!(r.replan(&h, 5, &layout).is_none());
    }

    #[test]
    fn link_degrade_drift_replans_despite_clean_ewma() {
        // observation synthesized from an 8x-degraded-link model: every
        // kernel EWMA is 1.0 (a link fault never touches compute), but
        // the phase shape shifts toward the comm-heavy phases. The drift
        // detector must catch it and move to a larger s.
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        r.drift_threshold = 0.05;
        let layout = Layout::even(a.nrows(), 3);
        let cand = Candidate { ndev: 3, ..base() };
        let degraded = phases(&r.link_scaled_planner(8.0), &layout, cand);
        r.observe_phases(&degraded);
        let h = health(&[1.0, 1.0, 1.0], &[true, true, true]);
        let d = r.replan(&h, 5, &layout).expect("link drift must trigger a re-plan");
        assert!(d.s > 5, "slow link favors fewer, larger exchanges; got s={}", d.s);
        assert_eq!(d.layout.starts, layout.starts, "a slow link is not a balance problem");
        // the observation was consumed: the next boundary stays quiet
        // until fresh cycles are measured under the new plan
        assert!(r.replan(&h, d.s, &layout).is_none());
    }

    #[test]
    fn drift_detection_is_opt_in() {
        // same link-shaped observation, but drift_threshold left at its
        // infinite default: an armed-but-unconfigured tuner must stay
        // inert (the bit-invisibility contract for healthy machines)
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        let layout = Layout::even(a.nrows(), 3);
        let cand = Candidate { ndev: 3, ..base() };
        let degraded = phases(&r.link_scaled_planner(8.0), &layout, cand);
        r.observe_phases(&degraded);
        let h = health(&[1.0, 1.0, 1.0], &[true, true, true]);
        assert!(r.replan(&h, 5, &layout).is_none());
    }

    #[test]
    fn dead_device_gets_zero_rows() {
        let a = laplace2d(16, 16);
        let mut r = Retuner::new(&a, 20, PerfModel::default(), KernelConfig::default(), base());
        let layout = Layout::even(a.nrows(), 3);
        let h = health(&[1.0, 1.0, 1.0], &[true, false, true]);
        let d = r.replan(&h, 5, &layout).expect("device loss must trigger a re-plan");
        assert_eq!(d.layout.nlocal(1), 0);
        assert_eq!(d.layout.n(), a.nrows());
    }
}
