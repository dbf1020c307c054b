//! Shrink a failing chaos schedule to a minimal reproducer.
//!
//! Property-testing style: given a schedule whose run violated an
//! invariant, greedily simplify it while the violation persists —
//! first by dropping whole fault components (does the panic still
//! happen without the SDC stream?), then by halving the surviving
//! rates/factors toward their floors. Deterministic all the way down:
//! candidates are tried in a fixed order and the run itself is seeded,
//! so a shrink session replays exactly.

use crate::runner::run_schedule;
use crate::schedule::ChaosSchedule;

/// Cap on schedule executions during one shrink (each candidate costs a
/// full solve; faulted solves are the expensive kind).
const MAX_SHRINK_RUNS: usize = 64;

fn still_failing(sch: &ChaosSchedule, runs: &mut usize) -> bool {
    *runs += 1;
    !run_schedule(sch).passed()
}

/// Candidate simplifications that drop one fault component entirely, in
/// a fixed order (rarest/heaviest first so the reproducer keeps the
/// component most likely to matter).
fn component_drops(sch: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    if sch.s_override.is_some() {
        let mut c = sch.clone();
        c.s_override = None;
        out.push(c);
    }
    if sch.gram_nudge.is_some() {
        let mut c = sch.clone();
        c.gram_nudge = None;
        out.push(c);
    }
    if sch.basis_perturb.is_some() {
        let mut c = sch.clone();
        c.basis_perturb = None;
        out.push(c);
    }
    if sch.alloc_fault.is_some() {
        let mut c = sch.clone();
        c.alloc_fault = None;
        out.push(c);
    }
    if sch.device_loss.is_some() {
        let mut c = sch.clone();
        c.device_loss = None;
        out.push(c);
    }
    if sch.stalls.is_some() {
        let mut c = sch.clone();
        c.stalls = None;
        out.push(c);
    }
    if sch.slowdown.is_some() {
        let mut c = sch.clone();
        c.slowdown = None;
        out.push(c);
    }
    if sch.link_degrade.is_some() {
        let mut c = sch.clone();
        c.link_degrade = None;
        out.push(c);
    }
    if sch.transfer_rate > 0.0 {
        let mut c = sch.clone();
        c.transfer_rate = 0.0;
        out.push(c);
    }
    if sch.sdc_rate > 0.0 {
        let mut c = sch.clone();
        c.sdc_rate = 0.0;
        out.push(c);
    }
    out
}

/// Candidate simplifications that halve a surviving rate/factor toward
/// its floor (factor floors are 1.0 = no perturbation; a candidate that
/// reaches its floor drops the component instead).
fn rate_halvings(sch: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    if sch.sdc_rate > 1e-6 {
        let mut c = sch.clone();
        c.sdc_rate = sch.sdc_rate / 2.0;
        out.push(c);
    }
    if sch.transfer_rate > 1e-6 {
        let mut c = sch.clone();
        c.transfer_rate = sch.transfer_rate / 2.0;
        out.push(c);
    }
    if let Some((d, f, op)) = sch.slowdown {
        let nf = 1.0 + (f - 1.0) / 2.0;
        if nf > 1.05 {
            let mut c = sch.clone();
            c.slowdown = Some((d, nf, op));
            out.push(c);
        }
    }
    if let Some((d, f)) = sch.link_degrade {
        let nf = 1.0 + (f - 1.0) / 2.0;
        if nf > 1.05 {
            let mut c = sch.clone();
            c.link_degrade = Some((d, nf));
            out.push(c);
        }
    }
    if let Some((d, r, s)) = sch.stalls {
        if r > 1e-6 {
            let mut c = sch.clone();
            c.stalls = Some((d, r / 2.0, s));
            out.push(c);
        }
    }
    if let Some((r, mag)) = sch.basis_perturb {
        if r > 1e-6 {
            let mut c = sch.clone();
            c.basis_perturb = Some((r / 2.0, mag));
            out.push(c);
        }
    }
    if let Some((r, sc)) = sch.gram_nudge {
        if r > 1e-6 {
            let mut c = sch.clone();
            c.gram_nudge = Some((r / 2.0, sc));
            out.push(c);
        }
    }
    out
}

/// Shrink `sch` (whose run must currently violate an invariant) to a
/// simpler schedule that still violates one. Runs component drops to a
/// fixpoint, then rate halvings to a fixpoint, bounded by
/// `MAX_SHRINK_RUNS` solves. Returns the smallest failing schedule
/// found (possibly `sch` itself if nothing simpler still fails).
#[must_use]
pub fn shrink(sch: &ChaosSchedule) -> ChaosSchedule {
    let mut best = sch.clone();
    let mut runs = 0usize;

    // pass 1: drop whole components while the failure persists
    let mut progress = true;
    while progress && runs < MAX_SHRINK_RUNS {
        progress = false;
        for cand in component_drops(&best) {
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
            if still_failing(&cand, &mut runs) {
                best = cand;
                progress = true;
                break; // restart the drop scan from the simpler schedule
            }
        }
    }

    // pass 2: halve surviving rates/factors while the failure persists
    progress = true;
    while progress && runs < MAX_SHRINK_RUNS {
        progress = false;
        for cand in rate_halvings(&best) {
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
            if still_failing(&cand, &mut runs) {
                best = cand;
                progress = true;
                break;
            }
        }
    }

    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosSchedule;

    #[test]
    fn drops_and_halvings_simplify_monotonically() {
        let sch = (0..400)
            .map(|i| ChaosSchedule::generate(17, i))
            .find(|s| s.sdc_rate > 0.0 && s.slowdown.is_some() && s.stalls.is_some())
            .expect("a multi-component schedule in 400 draws");
        let drops = component_drops(&sch);
        assert!(drops.len() >= 3);
        for d in &drops {
            let count = |s: &ChaosSchedule| {
                [
                    s.sdc_rate > 0.0,
                    s.transfer_rate > 0.0,
                    s.device_loss.is_some(),
                    s.alloc_fault.is_some(),
                    s.slowdown.is_some(),
                    s.link_degrade.is_some(),
                    s.stalls.is_some(),
                    s.basis_perturb.is_some(),
                    s.gram_nudge.is_some(),
                    s.s_override.is_some(),
                ]
                .iter()
                .filter(|&&x| x)
                .count()
            };
            let before = count(&sch);
            let after = count(d);
            assert_eq!(after + 1, before, "each drop removes exactly one component");
        }
        for h in rate_halvings(&sch) {
            assert!(h.sdc_rate <= sch.sdc_rate);
            assert!(h.transfer_rate <= sch.transfer_rate);
        }
    }

    #[test]
    fn shrinking_a_passing_schedule_returns_it_unchanged() {
        // a zero-rate schedule passes, so shrink() has nothing to do;
        // `best` never moves off the input (every candidate list is empty)
        let sch = (0..200)
            .map(|i| ChaosSchedule::generate(19, i))
            .find(ChaosSchedule::is_zero_rate)
            .expect("a zero-rate schedule in 200 draws");
        let s = shrink(&sch);
        assert!(s.is_zero_rate());
        assert_eq!(s.index, sch.index);
    }
}
