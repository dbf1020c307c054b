//! Seeded, deterministic adversarial fault schedules.
//!
//! A [`ChaosSchedule`] is a fully materialized test case: the problem
//! (matrix family and size), the solver shape `(s, m, ndev, schedule
//! policy)`, the composed fault plan, and whether the in-cycle probe is
//! armed. All of it derives from `(campaign_seed, index)` through a
//! SplitMix64 stream — no wall-clock randomness anywhere — so a failing
//! schedule replays from two integers.

use ca_gpusim::{FaultPlan, Schedule, SdcTargets};
use ca_scalar::rng::SplitMix64;

/// Matrix families the campaign draws from — all closed-form generators
/// (no RNG), so a schedule means the same problem on every toolchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixFamily {
    /// 5-point Laplacian on an `nx x ny` grid.
    Laplace2d,
    /// Convection-diffusion (nonsymmetric) on an `nx x ny` grid.
    ConvectionDiffusion,
}

/// One fully materialized chaos test case.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Campaign seed this schedule was drawn from.
    pub campaign_seed: u64,
    /// Index within the campaign.
    pub index: u64,
    /// Fault-plan seed (decorrelated from the synthesis stream).
    pub plan_seed: u64,
    /// Matrix family and grid shape.
    pub family: MatrixFamily,
    /// Grid extents (problem size `nx * ny`).
    pub nx: usize,
    pub ny: usize,
    /// Devices in the virtual machine.
    pub ndev: usize,
    /// CA step size and restart length.
    pub s: usize,
    pub m: usize,
    /// Event-driven (vs barrier) executor schedule.
    pub event_driven: bool,
    /// Whether the in-cycle health probe is armed.
    pub probe: bool,
    /// Per-kernel SDC probability (0 = off).
    pub sdc_rate: f64,
    /// Per-message transfer-failure probability (0 = off).
    pub transfer_rate: f64,
    /// Hard device loss: `(device, after_op)`.
    pub device_loss: Option<(usize, u64)>,
    /// Allocation failure: `(device, at_alloc)`.
    pub alloc_fault: Option<(usize, u64)>,
    /// Fail-slow compute: `(device, factor, after_op)`.
    pub slowdown: Option<(usize, f64, u64)>,
    /// Degraded link: `(device, factor)`.
    pub link_degrade: Option<(usize, f64)>,
    /// Intermittent queue stalls: `(device, rate, stall_s)`.
    pub stalls: Option<(usize, f64, f64)>,
    /// Numerical fault: seeded ill-conditioning basis perturbation,
    /// `(per-block rate, blend magnitude)`.
    pub basis_perturb: Option<(f64, f64)>,
    /// Numerical fault: near-singular Gram nudge, `(per-factorization
    /// rate, pull scale)` — scale 1.0 makes the Gram matrix exactly
    /// singular.
    pub gram_nudge: Option<(f64, f64)>,
    /// Numerical fault: forced cap-violating step size override.
    pub s_override: Option<usize>,
    /// Run the fragile monomial basis instead of the default Newton one
    /// (gives the ladder's basis-switch rung a real population).
    pub monomial: bool,
    /// Run the MPK operator in f32 (gives the promote rung a real
    /// population).
    pub f32_mpk: bool,
}

impl ChaosSchedule {
    /// Synthesize schedule `index` of the campaign seeded `campaign_seed`.
    /// About 1 in 16 schedules is drawn with *every* fault component off
    /// (`is_zero_rate`), feeding the zero-rate-invisibility invariant.
    #[must_use]
    #[allow(clippy::missing_panics_doc)] // draws are range-checked by construction
    pub fn generate(campaign_seed: u64, index: u64) -> Self {
        let mut g = SplitMix64::new(campaign_seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        let ndev = 2 + g.below(3) as usize; // 2..=4
        let family = if g.below(2) == 0 {
            MatrixFamily::Laplace2d
        } else {
            MatrixFamily::ConvectionDiffusion
        };
        let nx = 8 + g.below(7) as usize; // 8..=14
        let ny = 8 + g.below(7) as usize;
        let s = [2usize, 3, 5][g.below(3) as usize];
        let m = [10usize, 15, 20][g.below(3) as usize].max(s);
        let event_driven = g.below(2) == 0;
        let probe = g.below(4) != 0; // armed 3/4 of the time
        let plan_seed = g.next_u64();

        // fault-component bitmask; one draw in 16 forces everything off
        let mask = if g.below(16) == 0 { 0 } else { 1 + g.below(63) };
        let sdc = mask & 0b1 != 0;
        let transfer = mask & 0b10 != 0;
        let loss = mask & 0b100 != 0;
        let slow = mask & 0b1000 != 0;
        let link = mask & 0b1_0000 != 0;
        let stall = mask & 0b10_0000 != 0;
        // alloc faults are rare spice on top of a non-empty mask
        let alloc = mask != 0 && g.below(24) == 0;

        let mut sch = ChaosSchedule {
            campaign_seed,
            index,
            plan_seed,
            family,
            nx,
            ny,
            ndev,
            s,
            m,
            event_driven,
            probe,
            sdc_rate: if sdc { g.in_range(1e-4, 4e-3) } else { 0.0 },
            transfer_rate: if transfer { g.in_range(1e-4, 2e-2) } else { 0.0 },
            device_loss: loss.then(|| (g.below(ndev as u64) as usize, 50 + g.below(2000))),
            alloc_fault: alloc.then(|| (g.below(ndev as u64) as usize, 4 + g.below(64))),
            slowdown: slow
                .then(|| (g.below(ndev as u64) as usize, g.in_range(1.5, 6.0), g.below(500))),
            link_degrade: link.then(|| (g.below(ndev as u64) as usize, g.in_range(1.5, 4.0))),
            stalls: stall.then(|| {
                (g.below(ndev as u64) as usize, g.in_range(1e-4, 2e-3), g.in_range(0.05, 2.0))
            }),
            basis_perturb: None,
            gram_nudge: None,
            s_override: None,
            monomial: false,
            f32_mpk: false,
        };
        // solver-surface draws: the monomial basis half the time, the f32
        // MPK precision a quarter of the time — so the ladder's
        // basis-switch and promote rungs see a real population
        sch.monomial = g.below(2) == 0;
        sch.f32_mpk = g.below(4) == 0;
        // Numerical faults ride on ~1/4 of the non-zero-rate schedules.
        // Drawn strictly after the hardware components (and gated on the
        // same forced-zero mask), so the hardware draw stream of every
        // pre-existing (seed, index) pair is unchanged and the zero-rate
        // population stays exactly `mask == 0`.
        if mask != 0 && g.below(4) == 0 {
            let nmask = 1 + g.below(7); // at least one of the three kinds
            if nmask & 0b1 != 0 {
                sch.basis_perturb = Some((g.in_range(2e-2, 0.15), g.in_range(0.6, 1.0)));
            }
            if nmask & 0b10 != 0 {
                sch.gram_nudge = Some((g.in_range(1e-2, 8e-2), g.in_range(0.8, 1.0)));
            }
            if nmask & 0b100 != 0 {
                // deliberately above the §IV-A caps (and above every drawn
                // s), so the ladder's throttle rung gets real work
                sch.s_override = Some([9usize, 12, 16][g.below(3) as usize]);
            }
        }
        sch
    }

    /// Whether every fault component is off — such a schedule must be
    /// bit-identical to a plan-free run.
    #[must_use]
    pub fn is_zero_rate(&self) -> bool {
        self.sdc_rate == 0.0
            && self.transfer_rate == 0.0
            && self.device_loss.is_none()
            && self.alloc_fault.is_none()
            && self.slowdown.is_none()
            && self.link_degrade.is_none()
            && self.stalls.is_none()
            && self.basis_perturb.is_none()
            && self.gram_nudge.is_none()
            && self.s_override.is_none()
    }

    /// Materialize the composed fault plan.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        let mut p = FaultPlan::new(self.plan_seed);
        if self.sdc_rate > 0.0 {
            p = p.with_sdc(self.sdc_rate, SdcTargets::all());
        }
        if self.transfer_rate > 0.0 {
            p = p.with_transfer_faults(self.transfer_rate);
        }
        if let Some((d, after)) = self.device_loss {
            p = p.with_device_loss(d, after);
        }
        if let Some((d, at)) = self.alloc_fault {
            p = p.with_alloc_fault(d, at);
        }
        if let Some((d, f, after)) = self.slowdown {
            p = p.with_slowdown(d, f, after);
        }
        if let Some((d, f)) = self.link_degrade {
            p = p.with_link_degrade(d, f);
        }
        if let Some((d, r, s)) = self.stalls {
            p = p.with_stalls(d, r, s);
        }
        if let Some((r, mag)) = self.basis_perturb {
            p = p.with_basis_perturb(r, mag);
        }
        if let Some((r, sc)) = self.gram_nudge {
            p = p.with_gram_nudge(r, sc);
        }
        if let Some(s) = self.s_override {
            p = p.with_s_override(s);
        }
        p
    }

    /// Executor schedule policy.
    #[must_use]
    pub fn exec_schedule(&self) -> Schedule {
        if self.event_driven {
            Schedule::EventDriven
        } else {
            Schedule::Barrier
        }
    }

    /// Compact one-line description for logs and reproducers.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.sdc_rate > 0.0 {
            parts.push(format!("sdc={:.1e}", self.sdc_rate));
        }
        if self.transfer_rate > 0.0 {
            parts.push(format!("xfer={:.1e}", self.transfer_rate));
        }
        if let Some((d, op)) = self.device_loss {
            parts.push(format!("loss(d{d}@{op})"));
        }
        if let Some((d, at)) = self.alloc_fault {
            parts.push(format!("alloc(d{d}@{at})"));
        }
        if let Some((d, f, op)) = self.slowdown {
            parts.push(format!("slow(d{d}x{f:.1}@{op})"));
        }
        if let Some((d, f)) = self.link_degrade {
            parts.push(format!("link(d{d}x{f:.1})"));
        }
        if let Some((d, r, s)) = self.stalls {
            parts.push(format!("stall(d{d},{r:.1e},{s:.2}s)"));
        }
        if let Some((r, mag)) = self.basis_perturb {
            parts.push(format!("perturb({r:.1e},w{mag:.2})"));
        }
        if let Some((r, sc)) = self.gram_nudge {
            parts.push(format!("nudge({r:.1e},w{sc:.2})"));
        }
        if let Some(s) = self.s_override {
            parts.push(format!("force-s={s}"));
        }
        if parts.is_empty() {
            parts.push("zero-rate".into());
        }
        format!(
            "#{idx} {fam:?} {nx}x{ny} ndev={ndev} s={s} m={m} {basis}/{prec} {sched} \
             probe={probe} [{faults}]",
            basis = if self.monomial { "mono" } else { "newton" },
            prec = if self.f32_mpk { "f32" } else { "f64" },
            idx = self.index,
            fam = self.family,
            nx = self.nx,
            ny = self.ny,
            ndev = self.ndev,
            s = self.s,
            m = self.m,
            sched = if self.event_driven { "event" } else { "barrier" },
            probe = self.probe,
            faults = parts.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosSchedule::generate(42, 7);
        let b = ChaosSchedule::generate(42, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = ChaosSchedule::generate(42, 8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "indices must decorrelate");
    }

    #[test]
    fn zero_rate_schedules_appear_at_the_expected_rate() {
        let zero = (0..800).filter(|&i| ChaosSchedule::generate(1, i).is_zero_rate()).count();
        // mask==0 is forced with p=1/16; tolerate a wide band
        assert!((20..=130).contains(&zero), "zero-rate count {zero} outside [20,130]");
    }

    #[test]
    fn plans_are_well_formed() {
        for i in 0..200 {
            let sch = ChaosSchedule::generate(3, i);
            let p = sch.plan();
            assert_eq!(p.seed, sch.plan_seed);
            assert!(sch.s <= sch.m);
            assert!((2..=4).contains(&sch.ndev));
            if let Some((d, _, _)) = sch.slowdown {
                assert!(d < sch.ndev);
            }
            if let Some((r, mag)) = sch.basis_perturb {
                assert!(r > 0.0 && mag > 0.0 && mag <= 1.0);
            }
            if let Some((r, sc)) = sch.gram_nudge {
                assert!(r > 0.0 && sc > 0.0 && sc <= 1.0);
            }
            if let Some(s) = sch.s_override {
                assert!(s > sch.s, "a forced s must actually violate the planned one");
            }
            if sch.is_zero_rate() {
                assert_eq!(p.sdc_rate, 0.0);
                assert!(p.device_loss.is_none() && p.stalls.is_none());
                assert!(p.forced_s().is_none());
            }
        }
    }

    #[test]
    fn numerical_faults_appear_in_the_campaign_population() {
        let schedules: Vec<_> = (0..800).map(|i| ChaosSchedule::generate(1, i)).collect();
        let perturb = schedules.iter().filter(|s| s.basis_perturb.is_some()).count();
        let nudge = schedules.iter().filter(|s| s.gram_nudge.is_some()).count();
        let forced = schedules.iter().filter(|s| s.s_override.is_some()).count();
        // each kind rides on ~1/4 * 4/7 of non-zero-rate schedules (~13%)
        assert!(perturb >= 30, "only {perturb} basis-perturb schedules in 800");
        assert!(nudge >= 30, "only {nudge} gram-nudge schedules in 800");
        assert!(forced >= 30, "only {forced} s-override schedules in 800");
    }
}
