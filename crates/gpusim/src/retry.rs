//! Typed retry policy shared by every bounded-retry loop in the stack:
//! the executor's transient-transfer retry ([`crate::MultiGpu`]) and the
//! fault-tolerant driver's ABFT block recompute / residual-rollback
//! budgets (`ca-gmres`). One struct replaces scattered attempt-count
//! knobs, and adds an optional capped
//! exponential backoff *in simulated time* — a real recovery system
//! spaces its retries out, and on this substrate that spacing must be
//! priced like everything else.
//!
//! The default policy keeps the historical semantics exactly: 4 attempts,
//! zero backoff. A zero-base backoff adds no simulated time at all, so
//! pre-policy runs replay bit for bit.

/// Bounded retry with capped exponential simulated-time backoff.
///
/// `max_attempts` counts *every* try including the first; `retries()` is
/// the number of re-tries after the first failure. The backoff before
/// re-try `k` (1-based) is `min(cap, base * factor^(k-1))`; with
/// `backoff_base_s == 0.0` (the default) no simulated time is added and
/// the policy is bit-invisible — the same gating discipline the fault
/// plan's multipliers use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try + retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first re-try, in simulated seconds. Zero
    /// disables backoff entirely (bit-identical to the pre-backoff code).
    pub backoff_base_s: f64,
    /// Multiplier applied per further re-try (exponential growth).
    pub backoff_factor: f64,
    /// Upper bound on a single backoff interval, in simulated seconds.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, backoff_base_s: 0.0, backoff_factor: 2.0, backoff_cap_s: 1e-2 }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and no backoff.
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "a retry policy needs at least one attempt");
        Self { max_attempts, ..Self::default() }
    }

    /// Enable capped exponential backoff starting at `base_s` and growing
    /// by `factor` per re-try up to `cap_s`.
    #[must_use]
    pub fn with_backoff(mut self, base_s: f64, factor: f64, cap_s: f64) -> Self {
        assert!(base_s >= 0.0 && factor >= 1.0 && cap_s >= base_s);
        self.backoff_base_s = base_s;
        self.backoff_factor = factor;
        self.backoff_cap_s = cap_s;
        self
    }

    /// Re-tries allowed after the first attempt.
    #[must_use]
    pub fn retries(&self) -> usize {
        (self.max_attempts.saturating_sub(1)) as usize
    }

    /// Backoff before re-try `retry` (1-based: the re-try after the first
    /// failure is `retry = 1`). Returns `0.0` when backoff is disabled.
    #[must_use]
    pub fn backoff_s(&self, retry: u32) -> f64 {
        if self.backoff_base_s <= 0.0 || retry == 0 {
            return 0.0;
        }
        let raw = self.backoff_base_s * self.backoff_factor.powi(retry as i32 - 1);
        raw.min(self.backoff_cap_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_four_attempts_no_backoff() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 4);
        assert_eq!(p.retries(), 3);
        for k in 0..10 {
            assert_eq!(p.backoff_s(k), 0.0, "default backoff must be bit-invisible");
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::attempts(8).with_backoff(1e-4, 2.0, 4e-4);
        assert_eq!(p.backoff_s(1), 1e-4);
        assert_eq!(p.backoff_s(2), 2e-4);
        assert_eq!(p.backoff_s(3), 4e-4);
        assert_eq!(p.backoff_s(4), 4e-4, "capped");
        assert_eq!(p.backoff_s(0), 0.0, "first attempt never waits");
        let total: f64 = (1..=4).map(|k| p.backoff_s(k)).sum();
        assert!((total - (1e-4 + 2e-4 + 4e-4 + 4e-4)).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::attempts(0);
    }
}
