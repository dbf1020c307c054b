//! Register-tiled micro-kernels for tall-skinny operands.
//!
//! Every blocked routine in [`blas2`](crate::blas2)/[`blas3`](crate::blas3)
//! — and, through them, every dense kernel of the simulated device — is
//! built from the kernels here. They are *re-schedulings* of the
//! level-1 loops they replace, not new arithmetic: each output scalar
//! sees exactly the operation sequence [`blas1::dot`](crate::blas1::dot) /
//! [`blas1::axpy`](crate::blas1::axpy) would have given it, so results are
//! bit-identical (DESIGN.md, "Host kernels and the summation-order
//! contract"). What changes is how often memory is touched:
//!
//! * [`dots_tn`] accumulates a 4 x 2 block of dot products together, so a
//!   row of the panel is loaded once per block instead of once per output
//!   (6 loads for 8 multiply-adds, from 16);
//! * [`fused_axpy`] applies up to [`SRC_GROUP`] `axpy`s in one pass over a
//!   destination chunk that stays in L1, so the destination is read and
//!   written once per four sources instead of once per source;
//!   its two-destination form (`fused_axpy_pair_with`, behind
//!   [`blas3::update_cols`](crate::blas3::update_cols)) also loads each
//!   source chunk once per two destinations.
//!
//! Vector width is not part of that contract. The four lanes of a dot are
//! exactly one 256-bit register, so on an x86-64 CPU that reports AVX2 the
//! kernels run a second *instantiation* of the same Rust bodies, compiled
//! under `#[target_feature(enable = "avx2")]` — never `fma`, so a multiply
//! and the add after it stay two roundings. The crate-private `Isa` picks
//! the instantiation once per kernel call from what the CPU reports;
//! nothing else can.

use crate::mat::Cols;
use ca_scalar::Scalar;

/// Proof that the CPU reported AVX2: the private field keeps construction
/// inside this module, where only [`Isa::detect`] does it.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx2Detected(());

/// The instruction set a kernel body is instantiated for. Every
/// instantiation performs the same operations in the same order; they
/// differ in how many lanes one instruction carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// What the crate is compiled for (SSE2 on x86-64): the two-sweep
    /// [`lane_pair`] dots, 128-bit `axpy` groups.
    Baseline,
    /// 256-bit registers: single-sweep dots, one register per accumulator.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Detected),
}

impl Isa {
    /// The widest instantiation this CPU can run.
    #[inline]
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2(Avx2Detected(()));
        }
        Isa::Baseline
    }

    /// Every instantiation this CPU can run, for the oracle suites.
    #[cfg(test)]
    pub(crate) fn all_on_this_host() -> Vec<Isa> {
        let mut all = vec![Isa::Baseline];
        all.extend(Some(Isa::detect()).filter(|&isa| isa != Isa::Baseline));
        all
    }

    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(_) => "avx2",
        }
    }
}

/// Sources applied per pass over the destination by [`fused_axpy`].
pub const SRC_GROUP: usize = 4;
/// Rows per destination chunk for callers of [`fused_axpy`]: 4 KiB of
/// `f64`, so the chunk stays in L1 while its sources stream past.
pub const UPDATE_ROWS: usize = 512;

/// Chunks per sweep of [`dot_block`]: 256 rows, so the nine columns of
/// an 8 x 1 block (18 KiB of `f64`) are still in L1 for the second sweep.
const SWEEP_CHUNKS: usize = 64;

/// Adds lanes `L` and `L + 1` of the given 4-row chunks to the running
/// lane accumulators of an `M x N` block: `acc[i][j][l]` gains
/// `a[i][c][L + l] * b[j][c][L + l]` for each chunk `c` in order.
///
/// Not inlined: the accumulators come and go through memory, which makes
/// the compiler keep each lane pair in one vector register (no shuffles),
/// and the loop is compiled once per shape, not once per caller's closure.
#[inline(never)]
fn lane_pair<T: Scalar, const M: usize, const N: usize, const L: usize>(
    a: &[&[[T; 4]]; M],
    b: &[&[[T; 4]]; N],
    acc: &mut [[[T; 2]; N]; M],
) {
    // equal, locally known lengths let the bounds checks leave the loop
    let chunks = b[0].len();
    let a: [&[[T; 4]]; M] = std::array::from_fn(|i| &a[i][..chunks]);
    let b: [&[[T; 4]]; N] = std::array::from_fn(|j| &b[j][..chunks]);
    let mut sum = *acc;
    for c in 0..chunks {
        let av: [[T; 2]; M] = std::array::from_fn(|i| [a[i][c][L], a[i][c][L + 1]]);
        let bv: [[T; 2]; N] = std::array::from_fn(|j| [b[j][c][L], b[j][c][L + 1]]);
        for i in 0..M {
            for j in 0..N {
                for l in 0..2 {
                    sum[i][j][l] += av[i][l] * bv[j][l];
                }
            }
        }
    }
    *acc = sum;
}

/// One `M x N` block of dot products over equally long slices. Output
/// `(i, j)` is `blas1::dot(a[i], b[j])` to the bit: four lane
/// accumulators fed in row order, a scalar tail, and the
/// `(a0 + a1) + (a2 + a3) + tail` fold.
///
/// The rows are swept 256 at a time, twice: lanes 0 and 1 of every 4-row
/// chunk, then lanes 2 and 3. Each lane still adds its rows in order, but
/// only half the accumulators are live at once, so an 8-output block fits
/// the 16 SSE2 registers of the default target without spilling. This is
/// the [`Isa::Baseline`] path; [`dot_block_avx2`] is the other one.
fn dot_block<T: Scalar, const M: usize, const N: usize>(a: [&[T]; M], b: [&[T]; N]) -> [[T; N]; M] {
    let len = b[0].len();
    let ac: [&[[T; 4]]; M] = std::array::from_fn(|i| a[i][..len].as_chunks::<4>().0);
    let bc: [&[[T; 4]]; N] = std::array::from_fn(|j| b[j].as_chunks::<4>().0);
    let chunks = len / 4;
    let (mut lo, mut hi) = ([[[T::ZERO; 2]; N]; M], [[[T::ZERO; 2]; N]; M]);
    for c0 in (0..chunks).step_by(SWEEP_CHUNKS) {
        let c1 = (c0 + SWEEP_CHUNKS).min(chunks);
        let (sa, sb) = (ac.map(|s| &s[c0..c1]), bc.map(|s| &s[c0..c1]));
        lane_pair::<T, M, N, 0>(&sa, &sb, &mut lo);
        lane_pair::<T, M, N, 2>(&sa, &sb, &mut hi);
    }
    let mut out = [[T::ZERO; N]; M];
    for i in 0..M {
        for j in 0..N {
            let mut tail = T::ZERO;
            for r in chunks * 4..len {
                tail += a[i][r] * b[j][r];
            }
            out[i][j] = (lo[i][j][0] + lo[i][j][1]) + (hi[i][j][0] + hi[i][j][1]) + tail;
        }
    }
    out
}

/// Adds all four lanes of the given 4-row chunks to the running lane
/// accumulators of an `M x N` block: `acc[i][j][l]` gains
/// `a[i][c][l] * b[j][c][l]` for each chunk `c` in order — both
/// [`lane_pair`] sweeps in one, compiled for 256-bit registers, in which a
/// `[T; 4]` accumulator is one register: a 4 x 2 or 8 x 1 block is then
/// eight accumulators and at most six operands in sixteen registers (on
/// SSE2 it spills, hence the two sweeps there). Not compiled for `fma`: the
/// multiply and the add after it stay two roundings.
///
/// As in [`lane_pair`], the accumulators come and go through memory so
/// that the compiler keeps each output's lanes together in one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_quad<T: Scalar, const M: usize, const N: usize>(
    a: &[&[[T; 4]]; M],
    b: &[&[[T; 4]]; N],
    acc: &mut [[[T; 4]; N]; M],
) {
    let chunks = b[0].len();
    let a: [&[[T; 4]]; M] = std::array::from_fn(|i| &a[i][..chunks]);
    let b: [&[[T; 4]]; N] = std::array::from_fn(|j| &b[j][..chunks]);
    let mut sum = *acc;
    for c in 0..chunks {
        let av: [[T; 4]; M] = std::array::from_fn(|i| a[i][c]);
        let bv: [[T; 4]; N] = std::array::from_fn(|j| b[j][c]);
        for i in 0..M {
            for j in 0..N {
                for l in 0..4 {
                    sum[i][j][l] += av[i][l] * bv[j][l];
                }
            }
        }
    }
    *acc = sum;
}

/// [`dot_block`] for a CPU that reported AVX2: one sweep over the rows with
/// whole accumulators, then the same tail and fold.
#[cfg(target_arch = "x86_64")]
fn dot_block_avx2<T: Scalar, const M: usize, const N: usize>(
    _: Avx2Detected,
    a: [&[T]; M],
    b: [&[T]; N],
) -> [[T; N]; M] {
    let len = b[0].len();
    let ac: [&[[T; 4]]; M] = std::array::from_fn(|i| a[i][..len].as_chunks::<4>().0);
    let bc: [&[[T; 4]]; N] = std::array::from_fn(|j| b[j].as_chunks::<4>().0);
    let mut acc = [[[T::ZERO; 4]; N]; M];
    // SAFETY: an `Avx2Detected` is only constructed by `Isa::detect`, after
    // the CPU reported AVX2.
    unsafe { lane_quad(&ac, &bc, &mut acc) };
    let mut out = [[T::ZERO; N]; M];
    for i in 0..M {
        for j in 0..N {
            let mut tail = T::ZERO;
            for r in len / 4 * 4..len {
                tail += a[i][r] * b[j][r];
            }
            let s = acc[i][j];
            out[i][j] = (s[0] + s[1]) + (s[2] + s[3]) + tail;
        }
    }
    out
}

/// One block of dot products on columns `i0..i0+M` of `a` and
/// `j0..j0+N` of `b`, handing each wanted output to `put`.
fn put_block<T: Scalar, const M: usize, const N: usize>(
    isa: Isa,
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    (i0, j0): (usize, usize),
    upper: bool,
    put: &mut impl FnMut(usize, usize, T),
) {
    let (ca, cb) = (std::array::from_fn(|i| a.col(i0 + i)), std::array::from_fn(|j| b.col(j0 + j)));
    let d = match isa {
        Isa::Baseline => dot_block::<T, M, N>(ca, cb),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2(seen) => dot_block_avx2::<T, M, N>(seen, ca, cb),
    };
    for j in 0..N {
        for i in 0..M {
            if !upper || i0 + i <= j0 + j {
                put(i0 + i, j0 + j, d[i][j]);
            }
        }
    }
}

/// All dot products `a[:, i] . b[:, j]` of two equally tall column views,
/// computed in register blocks of eight outputs (4 x 2, or 8 x 1 for a
/// last odd column of `b`); `put(i, j, dot)` receives each one exactly
/// once. With `upper` only `i <= j` is produced (the Gram matrix of `a`
/// against itself). A caller that sums `h`-row panels calls this once per
/// panel, panel loop outermost, on [`Cols::rows`] views.
pub fn dots_tn<T: Scalar>(
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    upper: bool,
    put: impl FnMut(usize, usize, T),
) {
    dots_tn_with(Isa::detect(), a, b, upper, put);
}

/// [`dots_tn`] on a given instantiation.
pub(crate) fn dots_tn_with<T: Scalar>(
    isa: Isa,
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    upper: bool,
    mut put: impl FnMut(usize, usize, T),
) {
    assert_eq!(a.nrows(), b.nrows());
    let (ka, kb) = (a.ncols(), b.ncols());
    let mut j0 = 0;
    while j0 < kb {
        let n = (kb - j0).min(2);
        // with `upper`, blocks wholly below the diagonal are not wanted
        let ia = if upper { ka.min(j0 + n) } else { ka };
        let mut i0 = 0;
        while i0 < ia {
            let m = (ia - i0).min(8 / n);
            let at = (i0, j0);
            match (m, n) {
                (4, 2) => put_block::<T, 4, 2>(isa, a, b, at, upper, &mut put),
                (3, 2) => put_block::<T, 3, 2>(isa, a, b, at, upper, &mut put),
                (2, 2) => put_block::<T, 2, 2>(isa, a, b, at, upper, &mut put),
                (1, 2) => put_block::<T, 1, 2>(isa, a, b, at, upper, &mut put),
                (8, 1) => put_block::<T, 8, 1>(isa, a, b, at, upper, &mut put),
                (7, 1) => put_block::<T, 7, 1>(isa, a, b, at, upper, &mut put),
                (6, 1) => put_block::<T, 6, 1>(isa, a, b, at, upper, &mut put),
                (5, 1) => put_block::<T, 5, 1>(isa, a, b, at, upper, &mut put),
                (4, 1) => put_block::<T, 4, 1>(isa, a, b, at, upper, &mut put),
                (3, 1) => put_block::<T, 3, 1>(isa, a, b, at, upper, &mut put),
                (2, 1) => put_block::<T, 2, 1>(isa, a, b, at, upper, &mut put),
                (1, 1) => put_block::<T, 1, 1>(isa, a, b, at, upper, &mut put),
                _ => unreachable!("a block has at most eight outputs"),
            }
            i0 += m;
        }
        j0 += n;
    }
}

/// `dst[r] += f[0] * s[0][r]`, then `f[1] * s[1][r]`, … — `N` chained
/// `axpy`s in one pass, each element seeing them in source order.
#[inline(always)]
fn axpy_group<T: Scalar, const N: usize>(dst: &mut [T], f: [T; N], s: [&[T]; N]) {
    let len = dst.len();
    let s: [&[T]; N] = std::array::from_fn(|k| &s[k][..len]);
    for r in 0..len {
        let mut v = dst[r];
        for k in 0..N {
            v += f[k] * s[k][r];
        }
        dst[r] = v;
    }
}

/// [`axpy_group`] on two destinations that share their sources: each
/// source element is loaded once and feeds both chains. Per destination
/// element the operations are those of [`axpy_group`], in the same order.
#[inline(always)]
fn axpy_pair_group<T: Scalar, const N: usize>(
    (d0, d1): (&mut [T], &mut [T]),
    (f0, f1): ([T; N], [T; N]),
    s: [&[T]; N],
) {
    let len = d0.len();
    let d1 = &mut d1[..len];
    let s: [&[T]; N] = std::array::from_fn(|k| &s[k][..len]);
    for r in 0..len {
        let (mut v0, mut v1) = (d0[r], d1[r]);
        for k in 0..N {
            let x = s[k][r];
            v0 += f0[k] * x;
            v1 += f1[k] * x;
        }
        d0[r] = v0;
        d1[r] = v1;
    }
}

/// The first `N` entries of a group as an array of their own.
#[inline(always)]
fn head<X: Copy, const N: usize>(g: &[X; SRC_GROUP]) -> [X; N] {
    std::array::from_fn(|k| g[k])
}

/// `dst += f * src` for every `(f, src)` of `terms`, in order, skipping
/// terms whose factor is exactly zero (so a zero coefficient hides a
/// non-finite source, as the `axpy` chain it replaces did). Sources are
/// applied [`SRC_GROUP`] per pass over `dst`; per element the additions
/// happen in the same order as one `axpy` per term.
pub fn fused_axpy<'a, T: Scalar>(dst: &mut [T], terms: impl Iterator<Item = (T, &'a [T])>) {
    fused_axpy_with(Isa::detect(), dst, terms);
}

/// [`fused_axpy`] on a given instantiation.
pub(crate) fn fused_axpy_with<'a, T: Scalar>(
    isa: Isa,
    dst: &mut [T],
    terms: impl Iterator<Item = (T, &'a [T])>,
) {
    match isa {
        Isa::Baseline => fused_axpy_body(dst, terms),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa::Avx2` holds an `Avx2Detected`, which only
        // `Isa::detect` constructs, after the CPU reported AVX2.
        Isa::Avx2(_) => unsafe { fused_axpy_avx2(dst, terms) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fused_axpy_avx2<'a, T: Scalar>(dst: &mut [T], terms: impl Iterator<Item = (T, &'a [T])>) {
    fused_axpy_body(dst, terms);
}

#[inline(always)]
fn fused_axpy_body<'a, T: Scalar>(dst: &mut [T], terms: impl Iterator<Item = (T, &'a [T])>) {
    let mut f = [T::ZERO; SRC_GROUP];
    let mut s: [&[T]; SRC_GROUP] = [&[]; SRC_GROUP];
    let mut n = 0;
    for (fk, sk) in terms {
        if fk != T::ZERO {
            debug_assert_eq!(sk.len(), dst.len());
            (f[n], s[n]) = (fk, sk);
            n += 1;
            if n == SRC_GROUP {
                axpy_group(dst, f, s);
                n = 0;
            }
        }
    }
    match n {
        3 => axpy_group::<T, 3>(dst, head(&f), head(&s)),
        2 => axpy_group::<T, 2>(dst, head(&f), head(&s)),
        1 => axpy_group::<T, 1>(dst, head(&f), head(&s)),
        _ => {}
    }
}

/// [`fused_axpy`] for two destinations over the same sources: `d0 += f0 *
/// src` and `d1 += f1 * src` for every `(f0, f1, src)` of `terms`, in
/// order, with the same zero-factor rule per destination. Sources are taken
/// [`SRC_GROUP`] at a time; a group whose factors are all nonzero is applied
/// to both destinations in one pass that loads each source once, any other
/// group falls back to one [`fused_axpy`] pass per destination (which is
/// where its zero factors are skipped). Either way each destination
/// element sees its sources in increasing order.
pub(crate) fn fused_axpy_pair_with<'a, T: Scalar>(
    isa: Isa,
    dst: (&mut [T], &mut [T]),
    terms: impl Iterator<Item = (T, T, &'a [T])>,
) {
    match isa {
        Isa::Baseline => fused_axpy_pair_body(dst, terms),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Isa::Avx2` holds an `Avx2Detected`, which only
        // `Isa::detect` constructs, after the CPU reported AVX2.
        Isa::Avx2(_) => unsafe { fused_axpy_pair_avx2(dst, terms) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fused_axpy_pair_avx2<'a, T: Scalar>(
    dst: (&mut [T], &mut [T]),
    terms: impl Iterator<Item = (T, T, &'a [T])>,
) {
    fused_axpy_pair_body(dst, terms);
}

#[inline(always)]
fn fused_axpy_pair_body<'a, T: Scalar>(
    (d0, d1): (&mut [T], &mut [T]),
    mut terms: impl Iterator<Item = (T, T, &'a [T])>,
) {
    debug_assert_eq!(d0.len(), d1.len());
    let mut f0 = [T::ZERO; SRC_GROUP];
    let mut f1 = [T::ZERO; SRC_GROUP];
    let mut s: [&[T]; SRC_GROUP] = [&[]; SRC_GROUP];
    loop {
        let mut n = 0;
        for (a, b, sk) in terms.by_ref().take(SRC_GROUP) {
            debug_assert_eq!(sk.len(), d0.len());
            (f0[n], f1[n], s[n]) = (a, b, sk);
            n += 1;
        }
        if f0[..n].iter().chain(&f1[..n]).any(|&f| f == T::ZERO) {
            fused_axpy_body(d0, f0[..n].iter().copied().zip(s));
            fused_axpy_body(d1, f1[..n].iter().copied().zip(s));
        } else {
            let (d, f) = ((&mut *d0, &mut *d1), (f0, f1));
            match n {
                4 => axpy_pair_group::<T, 4>(d, f, s),
                3 => axpy_pair_group::<T, 3>(d, (head(&f.0), head(&f.1)), head(&s)),
                2 => axpy_pair_group::<T, 2>(d, (head(&f.0), head(&f.1)), head(&s)),
                1 => axpy_pair_group::<T, 1>(d, (head(&f.0), head(&f.1)), head(&s)),
                _ => {}
            }
        }
        if n < SRC_GROUP {
            return;
        }
    }
}
