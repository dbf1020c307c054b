//! Per-phase time shares of the restart cycle.

/// Per-phase time shares of a window of restart cycles: what the FT
/// driver observes between two cycle boundaries (from the always-on
/// phase accumulators, which match the host-track phase spans) and what
/// the planner predicts for one cycle.
///
/// `ca-tune`'s drift detector compares the observed shares against the
/// plan's predicted shares and triggers a re-plan when they disagree
/// beyond a threshold — even when the health EWMA is clean (e.g. a
/// degraded PCIe link slows copies, which never show up as device
/// busy-time).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseRatios {
    /// Restart cycles in the window.
    pub cycles: usize,
    /// Cycle time, seconds.
    pub cycle_s: f64,
    /// SpMV/MPK time (host `spmv` spans), seconds.
    pub spmv_s: f64,
    /// Block orthogonalization time (host `borth` / `orth` spans), seconds.
    pub borth_s: f64,
    /// TSQR time (host `tsqr` spans), seconds.
    pub tsqr_s: f64,
    /// Host dense math time (host `small` spans), seconds.
    pub small_s: f64,
}

impl PhaseRatios {
    /// Fraction of cycle time in SpMV/MPK (0 when no cycle time).
    pub fn spmv_share(&self) -> f64 {
        share(self.spmv_s, self.cycle_s)
    }

    /// Fraction of cycle time in block orthogonalization.
    pub fn borth_share(&self) -> f64 {
        share(self.borth_s, self.cycle_s)
    }

    /// Fraction of cycle time in TSQR.
    pub fn tsqr_share(&self) -> f64 {
        share(self.tsqr_s, self.cycle_s)
    }

    /// Fraction of cycle time in host dense math.
    pub fn small_share(&self) -> f64 {
        share(self.small_s, self.cycle_s)
    }

    /// Largest absolute disagreement across the four phase shares
    /// against another ratio set (typically plan-predicted shares).
    pub fn max_share_deviation(&self, other: &PhaseRatios) -> f64 {
        (self.spmv_share() - other.spmv_share())
            .abs()
            .max((self.borth_share() - other.borth_share()).abs())
            .max((self.tsqr_share() - other.tsqr_share()).abs())
            .max((self.small_share() - other.small_share()).abs())
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ratios_extract_host_shares() {
        let r = PhaseRatios {
            cycles: 1,
            cycle_s: 1.0,
            spmv_s: 0.4,
            borth_s: 0.2,
            tsqr_s: 0.3,
            small_s: 0.1,
        };
        assert!((r.spmv_share() - 0.4).abs() < 1e-15);
        assert!((r.borth_share() - 0.2).abs() < 1e-15);
        assert!((r.tsqr_share() - 0.3).abs() < 1e-15);
        assert!((r.small_share() - 0.1).abs() < 1e-15);
        assert_eq!(r.max_share_deviation(&r), 0.0);

        // a comm-degraded run: cycle inflates but phase seconds hold, so
        // every share shrinks and the deviation is visible
        let mut slow = r;
        slow.cycle_s = 2.0;
        assert!((r.max_share_deviation(&slow) - 0.2).abs() < 1e-15);
        // empty windows yield zero shares, not NaN
        assert_eq!(PhaseRatios::default().spmv_share(), 0.0);
    }
}
