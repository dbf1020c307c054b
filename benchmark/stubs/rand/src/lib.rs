//! Offline stand-in for `rand` 0.8, covering what `ca_sparse::gen` calls:
//! `SmallRng::seed_from_u64`, `gen::<f64>()`, `gen_bool` and `gen_range`
//! over integer and `f64` ranges. The generator is xoshiro256++ seeded
//! through SplitMix64, as the real `SmallRng` is on 64-bit targets, but
//! range sampling is a plain widening multiply, so sequences are
//! deterministic per seed yet not those of the published crate.

use std::ops::{Range, RangeInclusive};

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` (the only `gen` the callers ask for).
    fn gen<T: From<f64>>(&mut self) -> T {
        T::from((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

pub trait SampleRange<T> {
    fn sample<G: Rng>(self, rng: &mut G) -> T;
}

/// A uniform integer in `[0, span)` by widening multiply.
fn below<G: Rng>(rng: &mut G, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + below(rng, (self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<G: Rng>(self, rng: &mut G) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                lo + below(rng, (hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}
int_ranges!(usize, u32, u64, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample<G: Rng>(self, rng: &mut G) -> f64 {
        self.start + (self.end - self.start) * rng.gen::<f64>()
    }
}

pub mod rngs {
    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl crate::SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *w = x ^ (x >> 31);
            }
            Self { s }
        }
    }

    impl crate::Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
