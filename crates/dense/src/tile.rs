//! Register-tiled micro-kernels for tall-skinny operands.
//!
//! Every blocked routine in [`blas2`](crate::blas2)/[`blas3`](crate::blas3)
//! — and, through them, every dense kernel of the simulated device — is
//! built from the two kernels here. Both are *re-schedulings* of the
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
//!   written once per four sources instead of once per source.

use crate::mat::Cols;
use ca_scalar::Scalar;

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
/// the 16 SSE2 registers of the default target without spilling.
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

/// [`dot_block`] on columns `i0..i0+M` of `a` and `j0..j0+N` of `b`,
/// handing each wanted output to `put`.
fn put_block<T: Scalar, const M: usize, const N: usize>(
    a: Cols<'_, T>,
    b: Cols<'_, T>,
    (i0, j0): (usize, usize),
    upper: bool,
    put: &mut impl FnMut(usize, usize, T),
) {
    let d = dot_block::<T, M, N>(
        std::array::from_fn(|i| a.col(i0 + i)),
        std::array::from_fn(|j| b.col(j0 + j)),
    );
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
                (4, 2) => put_block::<T, 4, 2>(a, b, at, upper, &mut put),
                (3, 2) => put_block::<T, 3, 2>(a, b, at, upper, &mut put),
                (2, 2) => put_block::<T, 2, 2>(a, b, at, upper, &mut put),
                (1, 2) => put_block::<T, 1, 2>(a, b, at, upper, &mut put),
                (8, 1) => put_block::<T, 8, 1>(a, b, at, upper, &mut put),
                (7, 1) => put_block::<T, 7, 1>(a, b, at, upper, &mut put),
                (6, 1) => put_block::<T, 6, 1>(a, b, at, upper, &mut put),
                (5, 1) => put_block::<T, 5, 1>(a, b, at, upper, &mut put),
                (4, 1) => put_block::<T, 4, 1>(a, b, at, upper, &mut put),
                (3, 1) => put_block::<T, 3, 1>(a, b, at, upper, &mut put),
                (2, 1) => put_block::<T, 2, 1>(a, b, at, upper, &mut put),
                (1, 1) => put_block::<T, 1, 1>(a, b, at, upper, &mut put),
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

/// `dst += f * src` for every `(f, src)` of `terms`, in order, skipping
/// terms whose factor is exactly zero (so a zero coefficient hides a
/// non-finite source, as the `axpy` chain it replaces did). Sources are
/// applied [`SRC_GROUP`] per pass over `dst`; per element the additions
/// happen in the same order as one `axpy` per term.
pub fn fused_axpy<'a, T: Scalar>(dst: &mut [T], terms: impl Iterator<Item = (T, &'a [T])>) {
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
        3 => axpy_group(dst, [f[0], f[1], f[2]], [s[0], s[1], s[2]]),
        2 => axpy_group(dst, [f[0], f[1]], [s[0], s[1]]),
        1 => axpy_group(dst, [f[0]], [s[0]]),
        _ => {}
    }
}
