//! Seeded property cases: what the workspace's property tests run on.

use crate::rng::{SplitMix64, Xoshiro256pp};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `case` on `n` generators whose seeds come from one fixed stream, so
/// every run of a test sees the same inputs. A failing case panics again
/// with its index and seed in front of its message; no shrinking — replay
/// it with `case(&mut Xoshiro256pp::seed_from_u64(seed))`.
pub fn cases(n: usize, mut case: impl FnMut(&mut Xoshiro256pp)) {
    let mut seeds = SplitMix64::new(0x2014_0527);
    for i in 0..n {
        let seed = seeds.next_u64();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a panic that carries no message");
            panic!("case {i} of {n} (seed {seed:#018x}): {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_sees_the_same_cases_and_no_two_cases_the_same() {
        let draw = || {
            let mut seen = Vec::new();
            cases(24, |rng| seen.push((rng.next_u64(), rng.index(3..9), rng.in_range(0.25, 4.0))));
            seen
        };
        let first = draw();
        assert_eq!(first, draw());
        assert_eq!(first.len(), 24);
        for (i, a) in first.iter().enumerate() {
            assert!((3..9).contains(&a.1) && (0.25..4.0).contains(&a.2));
            assert!(first[..i].iter().all(|b| b.0 != a.0));
        }
    }

    #[test]
    fn a_failing_case_is_named_by_index_and_seed_and_keeps_its_message() {
        let mut i = 0;
        let failing = || {
            cases(5, |_| {
                i += 1;
                assert!(i < 3, "third case fails");
            })
        };
        let panic = catch_unwind(AssertUnwindSafe(failing)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.starts_with("case 2 of 5 (seed 0x") && msg.ends_with("third case fails"),
            "{msg}"
        );
    }
}
