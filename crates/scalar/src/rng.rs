//! The workspace's two seeded generators. Every stream that reaches a
//! committed digest — synthetic matrices, chaos schedules, service job
//! streams — is drawn from one of them, so neither may change its output
//! for a seed (`tests::streams_are_pinned`).

use core::ops::Range;

/// `u64 -> [0, 1)` from the top 53 bits.
#[inline]
fn unit_of(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64: one word of state, any seed valid. Drives schedule and job
/// synthesis, seeds [`Xoshiro256pp`] and feeds the bit-oracle test inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by remainder.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + unit_of(self.next_u64()) * (hi - lo)
    }

    /// Uniform in `[-1, 1)`, scaled by `1e6` one draw in eight: inputs
    /// whose rounding differs between summation orders (two words drawn).
    pub fn wide(&mut self) -> f64 {
        let u = self.in_range(-1.0, 1.0);
        u * if self.next_u64() & 7 == 0 { 1e6 } else { 1.0 }
    }
}

/// xoshiro256++ seeded through [`SplitMix64`], integer ranges by widening
/// multiply: the generator behind `ca_sparse::gen` and [`crate::cases`].
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: core::array::from_fn(|_| sm.next_u64()) }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, n)` by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in the (non-empty) index range.
    pub fn index(&mut self, r: Range<usize>) -> usize {
        r.start + self.below((r.end - r.start) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_of(self.next_u64())
    }

    /// Uniform in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorded at the parent commit from `ca_chaos::schedule::SplitMix64`
    /// and from the `rand` stand-in `ca_sparse::gen` drew from
    /// (`SmallRng`, then `gen_range` over `0..1000`, `0..=41`, `120..260`,
    /// `-1.0..1.0`, `gen::<f64>()`, eight `gen_bool(0.6)`).
    #[test]
    fn streams_are_pinned() {
        let mut g = SplitMix64::new(20140527);
        let first: [u64; 4] = core::array::from_fn(|_| g.next_u64());
        assert_eq!(
            first,
            [0x038ff3ca19961ec4, 0xad10b936d5362948, 0x8932ae1cdc7c8851, 0xe570b682a923786b]
        );
        assert_eq!(g.below(1000), 861);
        assert_eq!(g.in_range(-1.0, 1.0).to_bits(), 0xbfeb57ab6b7cd014);

        let mut r = Xoshiro256pp::seed_from_u64(20140527);
        let first: [u64; 4] = core::array::from_fn(|_| r.next_u64());
        assert_eq!(
            first,
            [0x29f15095b18a9f19, 0x1123b96e1a7e5a19, 0x6839a513632fb8e9, 0xc264f13279ca6396]
        );
        assert_eq!(r.index(0..1000), 226);
        assert_eq!(r.index(0..42), 25);
        assert_eq!(r.index(120..260), 152);
        assert_eq!(r.in_range(-1.0, 1.0).to_bits(), 0x3fdb996ae8b967ec);
        assert_eq!(r.unit().to_bits(), 0x3feeda75c91aec00);
        let coins: [bool; 8] = core::array::from_fn(|_| r.chance(0.6));
        assert_eq!(coins, [true, false, true, false, true, true, true, true]);
    }

    #[test]
    fn wide_draws_two_words_and_spans_the_dynamic_range() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        let vals: Vec<f64> = (0..64).map(|_| a.wide()).collect();
        assert_eq!(a.next_u64(), (0..129).map(|_| b.next_u64()).last().unwrap());
        assert!(vals.iter().all(|v| v.abs() < 1e6));
        assert!(vals.iter().any(|v| v.abs() > 1.0) && vals.iter().any(|v| v.abs() < 1.0));
    }
}
