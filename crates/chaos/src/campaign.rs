//! Run a whole campaign of chaos schedules and aggregate the verdict.
//!
//! A campaign is `schedules` independent runs of [`run_schedule`],
//! indices `0..n` of one `campaign_seed`. Runs execute in parallel (each
//! solve owns its probe and monitor state; the obs recorder is
//! thread-local) and results are collected in index order, so the campaign digest — an FNV fold of every run fingerprint
//! — is independent of worker count. A small sequential prefix
//! additionally runs under an `ca-obs` recording and checks that the
//! span forest is well-nested per track even while faults interrupt
//! cycles mid-flight.

use ca_obs as obs;

use crate::runner::{run_schedule, RunOutcome};
use crate::schedule::ChaosSchedule;
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed every schedule derives from.
    pub seed: u64,
    /// Number of schedules (indices `0..schedules`).
    pub schedules: u64,
    /// How many of the first schedules run under an obs recording with
    /// span-nesting checks.
    pub obs_checked: u64,
    /// Cap on stored violation records (counts are always exact).
    pub max_violations: usize,
    /// Shrink each failing schedule to a minimal reproducer (costs up
    /// to 64 extra solves per failure).
    pub shrink_failures: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2014,
            schedules: 1200,
            obs_checked: 8,
            max_violations: 32,
            shrink_failures: true,
        }
    }
}

/// One recorded invariant violation, with its reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Schedule index within the campaign.
    pub index: u64,
    /// The violated invariants.
    pub problems: Vec<String>,
    /// One-line schedule description (replays from `(seed, index)`).
    pub schedule: String,
    /// Shrunk minimal reproducer, when shrinking was enabled and found
    /// something simpler that still fails.
    pub shrunk: Option<String>,
}

/// Aggregated campaign verdict.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub seed: u64,
    pub schedules: u64,
    /// Runs with every invariant green.
    pub passed: u64,
    /// Caught panics (each is also a violation).
    pub panics: u64,
    /// Runs that converged (host-verified).
    pub converged: u64,
    /// Runs that ended in a typed breakdown.
    pub typed_breakdowns: u64,
    /// Zero-rate schedules replayed against the plan-free baseline.
    pub zero_rate_checked: u64,
    /// Runs with the in-cycle probe armed.
    pub probe_armed: u64,
    /// Probe activity totals across the campaign.
    pub in_cycle_escalations: u64,
    pub block_resumes: u64,
    pub mid_cycle_rebalances: u64,
    /// Numerical-health ladder activity totals, per rung.
    pub ladder_escalations: u64,
    pub ladder_reorths: u64,
    pub ladder_throttles: u64,
    pub ladder_basis_switches: u64,
    pub ladder_promotions: u64,
    /// Detection-latency sample count / mean / max (seconds) across all
    /// runs that detected something.
    pub detections: u64,
    pub detection_latency_mean_s: f64,
    pub detection_latency_max_s: f64,
    /// Span-nesting error from the obs-checked prefix, if any.
    pub span_nesting_error: Option<String>,
    /// FNV fold of every run fingerprint in index order — two campaigns
    /// with the same seed and count must produce the same digest.
    pub digest: u64,
    /// Stored violations (capped at `max_violations`; `violation_count`
    /// is exact).
    pub violation_count: u64,
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    /// Whether the campaign is green: no violations anywhere and the
    /// recorded span forest well-nested.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violation_count == 0 && self.span_nesting_error.is_none()
    }
}

fn fold_digest(digest: u64, fp: u64) -> u64 {
    let mut h = digest ^ fp;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Run the campaign. Deterministic for a given `(seed, schedules)`:
/// every run is self-seeded and the results are folded in index order.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    // one recording per schedule of the obs-checked prefix (each solve
    // restarts the simulated clock, so recordings cannot span solves),
    // nesting checked after every run
    let mut span_nesting_error = None;
    let outcomes: Vec<RunOutcome> = (0..cfg.schedules)
        .map(|i| {
            let schedule = ChaosSchedule::generate(cfg.seed, i);
            if i >= cfg.obs_checked {
                return run_schedule(&schedule);
            }
            obs::start();
            let out = run_schedule(&schedule);
            let rec = obs::finish();
            if span_nesting_error.is_none() {
                span_nesting_error = rec.check_well_nested().err().map(|e| format!("#{i}: {e}"));
            }
            out
        })
        .collect();

    let mut report = CampaignReport {
        seed: cfg.seed,
        schedules: cfg.schedules,
        passed: 0,
        panics: 0,
        converged: 0,
        typed_breakdowns: 0,
        zero_rate_checked: 0,
        probe_armed: 0,
        in_cycle_escalations: 0,
        block_resumes: 0,
        mid_cycle_rebalances: 0,
        ladder_escalations: 0,
        ladder_reorths: 0,
        ladder_throttles: 0,
        ladder_basis_switches: 0,
        ladder_promotions: 0,
        detections: 0,
        detection_latency_mean_s: 0.0,
        detection_latency_max_s: 0.0,
        span_nesting_error,
        digest: 0xCBF2_9CE4_8422_2325,
        violation_count: 0,
        violations: Vec::new(),
    };

    let mut latency_sum = 0.0;
    for out in &outcomes {
        report.digest = fold_digest(report.digest, out.fingerprint);
        if out.passed() {
            report.passed += 1;
        } else {
            report.violation_count += 1;
            if report.violations.len() < cfg.max_violations {
                let shrunk = cfg
                    .shrink_failures
                    .then(|| shrink(&out.schedule))
                    .filter(|s| format!("{s:?}") != format!("{:?}", out.schedule))
                    .map(|s| s.describe());
                report.violations.push(Violation {
                    index: out.schedule.index,
                    problems: out.violations.clone(),
                    schedule: out.schedule.describe(),
                    shrunk,
                });
            }
        }
        if out.panicked.is_some() {
            report.panics += 1;
        }
        if out.converged {
            report.converged += 1;
        }
        if out.breakdown.is_some() {
            report.typed_breakdowns += 1;
        }
        if out.schedule.is_zero_rate() {
            report.zero_rate_checked += 1;
        }
        if out.schedule.probe {
            report.probe_armed += 1;
        }
        report.in_cycle_escalations += out.in_cycle_escalations as u64;
        report.block_resumes += out.block_resumes as u64;
        report.mid_cycle_rebalances += out.mid_cycle_rebalances as u64;
        report.ladder_escalations += out.ladder_rungs.len() as u64;
        for rung in &out.ladder_rungs {
            match rung.as_str() {
                "reorth" => report.ladder_reorths += 1,
                "throttle" => report.ladder_throttles += 1,
                "basis-switch" => report.ladder_basis_switches += 1,
                "promote" => report.ladder_promotions += 1,
                other => unreachable!("unknown ladder rung label {other}"),
            }
        }
        for &lat in &out.detection_latency_s {
            report.detections += 1;
            latency_sum += lat;
            if lat > report.detection_latency_max_s {
                report.detection_latency_max_s = lat;
            }
        }
    }
    if report.detections > 0 {
        report.detection_latency_mean_s = latency_sum / report.detections as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_green_and_digest_stable() {
        let cfg = CampaignConfig { seed: 7, schedules: 24, obs_checked: 4, ..Default::default() };
        let a = run_campaign(&cfg);
        assert!(a.ok(), "violations: {:#?} nesting: {:?}", a.violations, a.span_nesting_error);
        assert_eq!(a.passed, 24);
        assert_eq!(a.panics, 0);
        let b = run_campaign(&cfg);
        assert_eq!(a.digest, b.digest, "campaign digest must be reproducible");
        assert_eq!(a.converged, b.converged);
    }

    #[test]
    #[ignore = "CI campaign: 300 schedules including numerical faults"]
    fn numerical_campaign_exercises_every_ladder_rung() {
        let cfg =
            CampaignConfig { seed: 2014, schedules: 300, obs_checked: 4, ..Default::default() };
        let r = run_campaign(&cfg);
        assert!(r.ok(), "violations: {:#?} nesting: {:?}", r.violations, r.span_nesting_error);
        assert_eq!(r.panics, 0);
        assert!(r.zero_rate_checked > 0, "no zero-rate schedule verified bit-identical");
        assert!(r.ladder_escalations > 0, "ladder never escalated in 300 schedules");
        assert!(r.ladder_reorths > 0, "reorth rung never fired");
        assert!(r.ladder_throttles > 0, "throttle rung never fired");
        assert!(r.ladder_basis_switches > 0, "basis-switch rung never fired");
        assert!(r.ladder_promotions > 0, "promote rung never fired");
    }

    #[test]
    fn campaign_exercises_the_fault_space() {
        // over a modest campaign we should see faulted runs, probe-armed
        // runs, and at least one typed breakdown or escalation somewhere
        let cfg = CampaignConfig { seed: 5, schedules: 32, obs_checked: 2, ..Default::default() };
        let r = run_campaign(&cfg);
        assert!(r.probe_armed > 0, "probe never armed in 32 schedules");
        assert!(r.converged > 0, "nothing converged");
        assert!(r.ok(), "violations: {:#?}", r.violations);
    }
}
