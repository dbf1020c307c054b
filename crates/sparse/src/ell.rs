//! ELLPACK format — the paper's GPU SpMV layout (Fig. 3 caption), stored in
//! the order the *host* executes it and without the padding the host does
//! not need.
//!
//! ELLPACK keeps a fixed number of slots per row (`width` = longest row)
//! and pads short rows with zero-valued slots. On the GPU the slots are
//! slot-major so that a warp's loads coalesce. This crate's arithmetic runs
//! on a CPU, which is bound by the bytes it streams, so the host copy is
//! **sliced ELLPACK** (SELL-8-σ):
//!
//! * rows are taken in windows of σ = `SIGMA` consecutive slice rows and,
//!   inside a window, ordered by descending kept length (stable: equal rows
//!   stay in row order);
//! * eight sorted rows (`CHUNK`) form a chunk, stored chunk-major — slot
//!   `k` of the chunk's rows contiguous — with only
//!   `min(width, 1 + longest row of the chunk)` slots per lane; the last
//!   chunk is filled up with zero-valued lanes;
//! * `out_row` says which row of the window each lane sums, and
//!   [`Ell::spmv`] walks each chunk front to back once with its eight row
//!   sums in registers, then scatters them.
//!
//! What the simulator prices is still the GPU format: [`Ell::padded_nnz`] is
//! `width * nrows` and [`Ell::bytes`] one value and one 4-byte index per
//! such slot — padding slots are read like real data there. What the host
//! holds is one slot per kept entry, per padding slot left inside a chunk
//! and per fill lane of the last chunk.
//!
//! Per row the arithmetic is fixed and independent of chunk height, window
//! length and sort order: start from `+0.0`, then `+= value[k] * x[col[k]]`
//! for the row's kept entries in order, then the padding slots (value
//! `+0.0`, column `row % ncols`, so a NaN or infinity in `x` there reaches
//! the row sum). A row shorter than `width` keeps **one** padding slot at
//! least, and one is as good as `width - len` of them: every padding slot
//! of a row adds the same term `p = +0.0 * x[row % ncols]`, which is `+0.0`,
//! `-0.0` or NaN; a sum that started from `+0.0` is never `-0.0`, so adding
//! a zero of either sign leaves it as it is, once or many times; and NaN
//! absorbs, once or many times.

use crate::Csr;
use ca_scalar::Scalar;
use std::cmp::Reverse;

/// Rows per chunk. Chosen by measurement on the reference box (4, 8 and 16
/// tried; see EXPERIMENTS.md, "Host wall-clock ledger", PR 14): 8 row sums
/// fit the register file at either precision.
const CHUNK: usize = 8;

/// Rows per sorting window (σ), a multiple of `CHUNK` that fits `out_row`'s
/// `u16`. Chosen by measurement (EXPERIMENTS.md, "Host wall-clock ledger",
/// PR 20): longer windows save under 1 % more slots and spread a chunk's
/// gathers over more of `x`.
const SIGMA: usize = 512;
const _: () = assert!(SIGMA.is_multiple_of(CHUNK) && SIGMA <= 1 << 16);

/// σ: the rows [`Ell::spmv_window`] and [`Hyb::spmv_window`](crate::Hyb::spmv_window)
/// take a window at a time, for callers that split a product into pieces
/// and for the bit oracles of other crates. No result and no price depends
/// on it.
pub const WINDOW_ROWS: usize = SIGMA;

/// `B::from_f64(a.to_f64())`: the identity between equal types, `as`
/// rounding from `f64` to `f32`, exact from `f32` to `f64`.
#[inline(always)]
pub(crate) fn cvt<A: Scalar, B: Scalar>(a: A) -> B {
    B::from_f64(a.to_f64())
}

/// An ELLPACK sparse matrix, generic over the value type (default `f64`).
#[derive(Debug, Clone)]
pub struct Ell<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    width: usize,
    /// Where each chunk starts in `col_idx`/`values`, one entry more than
    /// there are chunks: chunk `c` holds `(chunk_ptr[c + 1] - chunk_ptr[c]) /
    /// CHUNK` slots per lane.
    chunk_ptr: Vec<usize>,
    /// The row each lane sums, relative to the first row of its window:
    /// entry `p` belongs to lane `p % CHUNK` of chunk `p / CHUNK`. One entry
    /// per row; the fill lanes of the last chunk have none.
    out_row: Vec<u16>,
    /// Column indices: slot `k` of lane `l` of chunk `c` sits at
    /// `chunk_ptr[c] + k * CHUNK + l`. Padding slots repeat the row's own
    /// index (mod `ncols`) with a zero value, a standard trick that keeps
    /// gathers in bounds; the lanes past the last row point at column 0.
    col_idx: Vec<u32>,
    /// Values in the same layout.
    values: Vec<T>,
    nnz: usize,
}

impl<T: Scalar> Ell<T> {
    /// Convert from CSR. `width` becomes the maximum row length.
    pub fn from_csr(a: &Csr<T>) -> Self {
        Self::from_csr_rows(a, 0..a.nrows())
    }

    /// The slice `A(rows, :)` (all columns kept, rows in the order given),
    /// values cast to `T` element by element — what `from_csr` of
    /// `a.select_rows(rows).cast::<T>()` holds, without building either.
    pub fn from_csr_rows<S, I>(a: &Csr<S>, rows: I) -> Self
    where
        S: Scalar,
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let width = rows.clone().map(|r| a.row_nnz(r)).max().unwrap_or(0);
        Self::from_csr_rows_capped(a, rows, width, |_, _, _| {})
    }

    /// [`Ell::from_csr_rows`] keeping only the first `width` entries of
    /// each row; the rest go to `spill` as (slice row, column, value), in
    /// slice row order.
    pub(crate) fn from_csr_rows_capped<S, I>(
        a: &Csr<S>,
        rows: I,
        width: usize,
        mut spill: impl FnMut(u32, u32, T),
    ) -> Self
    where
        S: Scalar,
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let (nrows, ncols) = (rows.len(), a.ncols());
        let kept: Vec<u32> = rows.clone().map(|r| a.row_nnz(r).min(width) as u32).collect();
        // longest first inside each window, equal lengths in row order
        let mut out_row: Vec<u16> = (0..nrows).map(|i| (i % SIGMA) as u16).collect();
        for (win, kept) in out_row.chunks_mut(SIGMA).zip(kept.chunks(SIGMA)) {
            win.sort_by_key(|&o| Reverse(kept[o as usize]));
        }
        // a chunk is as wide as its first (longest) row and one padding slot
        let mut chunk_ptr = Vec::with_capacity(nrows.div_ceil(CHUNK) + 1);
        chunk_ptr.push(0);
        for (c, lanes) in out_row.chunks(CHUNK).enumerate() {
            let longest = kept[c * CHUNK / SIGMA * SIGMA + lanes[0] as usize] as usize;
            chunk_ptr.push(chunk_ptr[c] + (longest + 1).min(width) * CHUNK);
        }
        // the lane each row went to
        let mut lane = vec![0u32; nrows];
        for (p, &o) in out_row.iter().enumerate() {
            lane[p / SIGMA * SIGMA + o as usize] = p as u32;
        }
        let slots = chunk_ptr[chunk_ptr.len() - 1];
        let mut col_idx = vec![0u32; slots];
        let mut values = vec![T::ZERO; slots];
        let mut nnz = 0;
        for (i, r) in rows.enumerate() {
            let (cols, vals) = a.row(r);
            let (keep, c, l) =
                (kept[i] as usize, lane[i] as usize / CHUNK, lane[i] as usize % CHUNK);
            let (base, end) = (chunk_ptr[c] + l, chunk_ptr[c + 1]);
            for k in 0..keep {
                col_idx[base + k * CHUNK] = cols[k];
                values[base + k * CHUNK] = cvt(vals[k]);
            }
            // in-bounds padding: self column (width > 0 implies ncols > 0)
            for at in (base + keep * CHUNK..end).step_by(CHUNK) {
                col_idx[at] = (i % ncols) as u32;
            }
            for k in keep..cols.len() {
                spill(i as u32, cols[k], cvt(vals[k]));
            }
            nnz += keep;
        }
        Self { nrows, ncols, width, chunk_ptr, out_row, col_idx, values, nnz }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Slots per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// True stored nonzeros (excludes padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total slots including padding — what the GPU format streams.
    #[inline]
    pub fn padded_nnz(&self) -> usize {
        self.width * self.nrows
    }

    /// Bytes the GPU format occupies (used by the simulator's memory
    /// accounting: one `T::BYTES` value + 4-byte index per slot).
    pub fn bytes(&self) -> usize {
        self.padded_nnz() * (T::BYTES + 4)
    }

    /// `y := A x`, every row summed over its slots in order from `+0.0`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(y.len(), self.nrows);
        self.spmv_window(x, y, 0);
    }

    /// The first `len` slots of row `i`, as `(column, value)`: the row's
    /// kept entries in CSR order when `len` is their count. A lane does not
    /// record it — a padding slot and an explicit zero at the row's padding
    /// column look alike — so the caller says how many there are.
    pub fn row_entries(&self, i: usize, len: usize) -> impl Iterator<Item = (u32, T)> + '_ {
        let w0 = i / SIGMA * SIGMA;
        let window = &self.out_row[w0..(w0 + SIGMA).min(self.nrows)];
        let p = w0 + window.iter().position(|&o| o as usize == i - w0).expect("a row has a lane");
        let (c, l) = (p / CHUNK, p % CHUNK);
        assert!(len * CHUNK <= self.chunk_ptr[c + 1] - self.chunk_ptr[c], "row {i}: {len} slots");
        let slots = (self.chunk_ptr[c] + l..).step_by(CHUNK).take(len);
        slots.map(|k| (self.col_idx[k], self.values[k]))
    }

    /// Rows `[window0 * σ, window0 * σ + y.len())` of `y := A x`, with the
    /// bits the whole product gives them: the one SpMV loop. `y` holds
    /// whole windows of [`WINDOW_ROWS`] rows, but for the last of the
    /// matrix, so disjoint pieces of one product may be computed on
    /// different threads. For `V = T` this is a piece of [`Ell::spmv`];
    /// against `f64` endpoints each gathered `x` element is rounded to `T`,
    /// the row accumulates in `T` and the finished sum is widened on the
    /// store — for `T = f32`, that kernel run on an `f32` copy of `x`
    /// without the copy.
    pub fn spmv_window<V: Scalar>(&self, x: &[V], y: &mut [V], window0: usize) {
        assert_eq!(x.len(), self.ncols);
        let row0 = window0 * SIGMA;
        let end = row0 + y.len();
        assert!(end == self.nrows || (end < self.nrows && y.len().is_multiple_of(SIGMA)));
        for (wi, yw) in y.chunks_mut(SIGMA).enumerate() {
            let row0 = (window0 + wi) * SIGMA;
            let lanes = self.out_row[row0..row0 + yw.len()].chunks(CHUNK);
            for (outs, c) in lanes.zip(row0 / CHUNK..) {
                let (at, end) = (self.chunk_ptr[c], self.chunk_ptr[c + 1]);
                let cols = self.col_idx[at..end].chunks_exact(CHUNK);
                let vals = self.values[at..end].chunks_exact(CHUNK);
                let mut acc = [T::ZERO; CHUNK];
                for (cs, vs) in cols.zip(vals) {
                    for l in 0..CHUNK {
                        acc[l] += vs[l] * cvt::<V, T>(x[cs[l] as usize]);
                    }
                }
                for (&o, &a) in outs.iter().zip(&acc) {
                    yw[o as usize] = cvt(a);
                }
            }
        }
    }
}

/// The slot-major ELLPACK this module stored before it went chunk-major,
/// kept verbatim as the oracle the chunked kernel must match to the bit.
#[cfg(test)]
pub(crate) mod slot_major {
    use crate::Csr;
    use ca_scalar::Scalar;

    pub(crate) struct SlotMajorEll<T: Scalar> {
        nrows: usize,
        width: usize,
        col_idx: Vec<u32>,
        values: Vec<T>,
    }

    impl<T: Scalar> SlotMajorEll<T> {
        pub(crate) fn from_csr(a: &Csr<T>) -> Self {
            let nrows = a.nrows();
            let width = a.max_row_nnz();
            let mut col_idx = vec![0u32; width * nrows];
            let mut values = vec![T::ZERO; width * nrows];
            for i in 0..nrows {
                let (cols, vals) = a.row(i);
                for k in 0..width {
                    let p = k * nrows + i;
                    if k < cols.len() {
                        col_idx[p] = cols[k];
                        values[p] = vals[k];
                    } else {
                        col_idx[p] = if a.ncols() > 0 { (i % a.ncols()) as u32 } else { 0 };
                        values[p] = T::ZERO;
                    }
                }
            }
            Self { nrows, width, col_idx, values }
        }

        pub(crate) fn spmv(&self, x: &[T], y: &mut [T]) {
            y.iter_mut().for_each(|v| *v = T::ZERO);
            let rows = y.len();
            for k in 0..self.width {
                let base = k * self.nrows;
                let cs = &self.col_idx[base..base + rows];
                let vs = &self.values[base..base + rows];
                for i in 0..rows {
                    y[i] += vs[i] * x[cs[i] as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::slot_major::SlotMajorEll;
    use super::*;
    use crate::{Coo, Hyb};
    use ca_scalar::rng::SplitMix64;

    fn sample() -> Csr {
        let mut c = Coo::new(3, 3);
        c.add(0, 0, 1.0);
        c.add(0, 1, 2.0);
        c.add(1, 1, 3.0);
        c.add(2, 0, 5.0);
        c.add(2, 1, -1.0);
        c.add(2, 2, 6.0);
        c.to_csr()
    }

    #[test]
    fn conversion_preserves_shape() {
        let e = Ell::from_csr(&sample());
        assert_eq!(e.nrows(), 3);
        assert_eq!(e.width(), 3);
        assert_eq!(e.nnz(), 6);
        assert_eq!(e.padded_nnz(), 9);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = sample();
        let e = Ell::from_csr(&a);
        let x = [1.0, -2.0, 0.5];
        let mut y_ell = [0.0; 3];
        e.spmv(&x, &mut y_ell);
        let mut y_csr = [0.0; 3];
        crate::spmv::spmv(&a, &x, &mut y_csr);
        for i in 0..3 {
            assert!((y_ell[i] - y_csr[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn empty_rows_padded_safely() {
        let mut c = Coo::new(3, 3);
        c.add(0, 2, 7.0); // rows 1 and 2 empty
        let e = Ell::from_csr(&c.to_csr());
        let x = [1.0, 1.0, 1.0];
        let mut y = [9.0; 3];
        e.spmv(&x, &mut y);
        assert_eq!(y, [7.0, 0.0, 0.0]);
    }

    #[test]
    fn bytes_counts_padding_but_not_chunk_fill() {
        let e = Ell::from_csr(&sample());
        assert_eq!(e.bytes(), 9 * 12);
        let a = crate::gen::laplace2d(3, 3); // 9 rows: one full chunk and one lane
        let e = Ell::from_csr(&a);
        assert_eq!(e.padded_nnz(), 9 * 5);
        assert_eq!(e.bytes(), 9 * 5 * 12);
        assert_eq!(Ell::from_csr(&a.cast::<f32>()).bytes(), 9 * 5 * 8);
    }

    #[test]
    fn selected_rows_equal_the_selected_cast_csr() {
        let a = crate::gen::laplace2d(7, 5);
        let rows = [33usize, 2, 2, 17, 0, 34, 9, 21, 30, 11];
        let x: Vec<f64> = (0..35).map(|i| (i as f64 * 0.37).sin()).collect();
        let direct: Ell<f32> = Ell::from_csr_rows(&a, rows.iter().copied());
        let staged = Ell::from_csr(&a.select_rows(&rows).cast::<f32>());
        assert_eq!(direct.col_idx, staged.col_idx);
        assert_eq!(direct.values, staged.values);
        assert_eq!((&direct.chunk_ptr, &direct.out_row), (&staged.chunk_ptr, &staged.out_row));
        assert_eq!((direct.nnz(), direct.width()), (staged.nnz(), staged.width()));
        let (mut y1, mut y2) = (vec![0.0; 10], vec![0.0; 10]);
        direct.spmv_window(&x, &mut y1, 0);
        staged.spmv_window(&x, &mut y2, 0);
        assert_eq!(y1, y2);
    }

    // ---------- bit-for-bit against the slot-major oracle ----------

    /// `nrows x ncols` with row lengths `0..=max_len`: empty rows, short
    /// rows and (when `max_len > 0`) at least one full-width row.
    fn matrix(rng: &mut SplitMix64, nrows: usize, ncols: usize, max_len: usize) -> Csr {
        let mut c = Coo::new(nrows, ncols);
        for i in 0..nrows {
            let len = match rng.next_u64() % 5 {
                0 => 0,
                1 => max_len,
                _ => (rng.next_u64() % (max_len as u64 + 1)) as usize,
            };
            let len = if i == nrows / 2 { max_len } else { len }.min(ncols);
            let first = (rng.next_u64() % ncols.max(1) as u64) as usize;
            for k in 0..len {
                c.add(i, (first + k * 3) % ncols, rng.wide());
            }
        }
        c.to_csr()
    }

    /// A vector with NaN and both infinities planted, among them at the
    /// pad columns `i % ncols` of short rows.
    fn poisoned(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.next_u64() % 16 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => rng.wide(),
            })
            .collect()
    }

    fn same<T: Scalar>(x: T, y: T) -> bool {
        x.to_bits_u64() == y.to_bits_u64() || (x.to_f64().is_nan() && y.to_f64().is_nan())
    }

    fn assert_bits<T: Scalar>(got: &[T], want: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(same(g, w), "{what}: row {i}: {g} vs {w}");
        }
    }

    const ROWS: [usize; 13] =
        [0, 1, 7, 8, 9, 15, 16, 17, SIGMA - 1, SIGMA, SIGMA + 1, 1000, 2 * SIGMA + 3];

    #[test]
    fn chunked_spmv_matches_the_slot_major_loop() {
        let mut rng = SplitMix64::new(0x2014_0527);
        let mut shapes = 0;
        for nrows in ROWS {
            for (ncols, max_len) in [(1, 1), (5, 0), (13, 4), (nrows.max(2), 9), (40, 23)] {
                let a = matrix(&mut rng, nrows, ncols, max_len);
                for x in [poisoned(&mut rng, ncols), (0..ncols).map(|_| rng.wide()).collect()] {
                    check_ell(&a, &x, &format!("{nrows}x{ncols}, rows up to {max_len}"));
                    shapes += 1;
                }
            }
        }
        assert!(shapes >= 100, "only {shapes} shapes");
    }

    #[test]
    fn hyb_matches_slot_major_ell_plus_its_coo_tail() {
        let mut rng = SplitMix64::new(108);
        for nrows in ROWS {
            let ncols = nrows.max(3);
            let a = matrix(&mut rng, nrows, ncols, 11);
            let x = poisoned(&mut rng, ncols);
            for width in [0, 1, 4, 11] {
                check_hyb(&a, &x, width, &format!("{nrows} rows, width {width}"));
            }
        }
    }

    /// `spmv` at both precisions and `spmv_window` on the `f32` cast against
    /// the slot-major loop; returns the `f64` result.
    fn check_ell(a: &Csr, x: &[f64], what: &str) -> Vec<f64> {
        let nrows = a.nrows();
        let mut want = vec![7.0; nrows];
        SlotMajorEll::from_csr(a).spmv(x, &mut want);
        let mut got = vec![-7.0; nrows];
        Ell::from_csr(a).spmv(x, &mut got);
        assert_bits(&got, &want, &format!("f64 {what}"));

        let (a32, x32) = (a.cast::<f32>(), x.iter().map(|&v| v as f32).collect::<Vec<_>>());
        let mut want32 = vec![7.0f32; nrows];
        SlotMajorEll::from_csr(&a32).spmv(&x32, &mut want32);
        let e32 = Ell::from_csr(&a32);
        let mut got32 = vec![-7.0f32; nrows];
        e32.spmv(&x32, &mut got32);
        assert_bits(&got32, &want32, &format!("f32 {what}"));
        // demote at the gather, widen at the store
        let want_wide: Vec<f64> = want32.iter().map(|&v| v as f64).collect();
        let mut got_wide = vec![-7.0; nrows];
        e32.spmv_window(x, &mut got_wide, 0);
        assert_bits(&got_wide, &want_wide, &format!("f32 widened {what}"));
        got
    }

    /// A hybrid of ELL width `width` at both precisions against its oracle:
    /// slot-major ELL of the first `width` entries of each row, then the
    /// spilled entries in row order.
    fn check_hyb(a: &Csr, x: &[f64], width: usize, what: &str) {
        let nrows = a.nrows();
        let mut head = Coo::new(nrows, a.ncols());
        let mut tail = Vec::new();
        for i in 0..nrows {
            let (cols, vals) = a.row(i);
            for k in 0..cols.len() {
                if k < width {
                    head.add(i, cols[k] as usize, vals[k]);
                } else {
                    tail.push((i, cols[k] as usize, vals[k]));
                }
            }
        }
        let head = head.to_csr();
        let mut want = vec![0.0; nrows];
        SlotMajorEll::from_csr(&head).spmv(x, &mut want);
        let mut want32: Vec<f32> = vec![0.0; nrows];
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        SlotMajorEll::from_csr(&head.cast::<f32>()).spmv(&x32, &mut want32);
        for &(r, c, v) in &tail {
            want[r] += v * x[c];
            want32[r] += v as f32 * x32[c];
        }

        let h = Hyb::from_csr_with_width(a, width);
        assert_eq!(h.spilled(), tail.len(), "hyb {what}");
        let mut got = vec![-1.0; nrows];
        h.spmv(x, &mut got);
        assert_bits(&got, &want, &format!("hyb f64 {what}"));

        let h32 = Hyb::from_csr_with_width(&a.cast::<f32>(), width);
        let mut got_wide = vec![-1.0; nrows];
        h32.spmv_window(x, &mut got_wide, 0);
        let want_wide: Vec<f64> = want32.iter().map(|&v| v as f64).collect();
        assert_bits(&got_wide, &want_wide, &format!("hyb f32 {what}"));
    }

    /// Every path a slice can take — [`check_ell`], and [`check_hyb`] with a
    /// tail; returns the `f64` ELLPACK result.
    fn check_all_paths(a: &Csr, x: &[f64], hyb_width: usize, what: &str) -> Vec<f64> {
        check_hyb(a, x, hyb_width, what);
        check_ell(a, x, what)
    }

    /// Rows of the given lengths over `ncols` columns, row `i` starting at
    /// column `(5 * i + 1) % ncols` and never touching column `avoid`.
    fn with_lengths(lens: &[usize], ncols: usize, avoid: usize, rng: &mut SplitMix64) -> Csr {
        let mut c = Coo::new(lens.len(), ncols);
        for (i, &len) in lens.iter().enumerate() {
            let free = (0..ncols).map(|k| (5 * i + 1 + k) % ncols).filter(|&j| j != avoid);
            for j in free.take(len) {
                c.add(i, j, rng.wide());
            }
        }
        c.to_csr()
    }

    #[test]
    fn sorted_windows_match_the_slot_major_loop() {
        let mut rng = SplitMix64::new(20);
        let n = 2 * SIGMA + 3;
        let padded_rows = n.next_multiple_of(CHUNK);
        // (what, row lengths, host slots where they are worth spelling out)
        let shapes: [(&str, Vec<usize>, Option<usize>); 6] = [
            // equal rows keep the GPU format's slot count but for the fill lanes
            ("all rows equal", vec![3; n], Some(3 * padded_rows)),
            ("all rows empty", vec![0; n], Some(0)),
            // a long row costs its own chunk, not its window (the last window
            // is three rows and has none)
            (
                "one long row per window",
                (0..n).map(|i| [1, 23][(i % SIGMA == 77) as usize]).collect(),
                Some(2 * CHUNK * 23 + (padded_rows - 2 * CHUNK) * 2),
            ),
            (
                "long row last in its window",
                (0..n).map(|i| (i % SIGMA + 1) / SIGMA * 9).collect(),
                None,
            ),
            ("lengths rising", (0..n).map(|i| i % 13).collect(), None),
            ("empty rows between", (0..n).map(|i| (i % 3) * (i % 7)).collect(), None),
        ];
        for (what, lens, slots) in shapes {
            let a = with_lengths(&lens, 40, usize::MAX, &mut rng);
            let e = Ell::from_csr(&a);
            assert_eq!((e.width(), e.nnz()), (a.max_row_nnz(), a.nnz()), "{what}");
            if let Some(slots) = slots {
                assert_eq!(e.values.len(), slots, "{what}");
            }
            for x in [poisoned(&mut rng, 40), (0..40).map(|_| rng.wide()).collect()] {
                let y = check_all_paths(&a, &x, 2, what);
                if e.width() == 0 {
                    assert!(y.iter().all(|v| v.to_bits() == 0), "{what}: rows without slots");
                }
            }
        }
    }

    #[test]
    fn one_padding_slot_carries_what_all_of_them_did() {
        // width 9 over 23 columns; the three rows under test all pad with
        // (or, full, would pad with) column PAD and hold no entry there:
        //   SHORT  2 entries in a chunk 6 wide   -> padding up to its chunk
        //   KEPT   5 entries, longest of a chunk -> the one kept slot
        //   FULL   9 entries, in the next window -> no padding slot at all
        const NCOLS: usize = 23;
        const PAD: usize = 4;
        const SHORT: usize = PAD;
        const KEPT: usize = PAD + NCOLS;
        const FULL: usize = PAD + 23 * NCOLS;
        const { assert!(FULL >= SIGMA && FULL % NCOLS == PAD) };
        let mut rng = SplitMix64::new(0x5e11);
        let mut lens = vec![1usize; 24 * NCOLS];
        (lens[SHORT], lens[KEPT], lens[FULL]) = (2, 5, 9);
        let a = with_lengths(&lens, NCOLS, PAD, &mut rng);
        let e = Ell::from_csr(&a);
        assert_eq!(e.width(), 9);
        // first window: KEPT, SHORT and six rows of one entry share a chunk
        // six slots wide; second window: FULL and seven such rows, nine wide
        assert_eq!(e.out_row[..2], [KEPT as u16, SHORT as u16]);
        assert_eq!(e.out_row[SIGMA], (FULL - SIGMA) as u16);
        assert_eq!(e.chunk_ptr[..3], [0, 6 * CHUNK, 8 * CHUNK]);
        let chunks = (SIGMA / CHUNK, (lens.len() - SIGMA).div_ceil(CHUNK));
        assert_eq!(e.values.len(), CHUNK * (6 + (chunks.0 - 1) * 2 + 9 + (chunks.1 - 1) * 2));

        let clean: Vec<f64> = (0..NCOLS).map(|_| rng.wide()).collect();
        let y_clean = check_all_paths(&a, &clean, 3, "clean");
        assert!(y_clean.iter().all(|v| v.is_finite()));
        // 1e39 is finite in f64 and rounds to +Inf in f32
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e39] {
            let mut x = clean.clone();
            x[PAD] = poison;
            let y = check_all_paths(&a, &x, 3, &format!("x[pad] = {poison}"));
            for (i, (&got, &was)) in y.iter().zip(&y_clean).enumerate() {
                let padded = i % NCOLS == PAD && i != FULL;
                if padded && !poison.is_finite() {
                    assert!(got.is_nan(), "row {i} lost x[pad] = {poison}: {got}");
                } else {
                    assert!(
                        same(got, was),
                        "row {i} moved under x[pad] = {poison}: {got} vs {was}"
                    );
                }
            }
            // the f32 path sees an infinity where f64 saw 1e39
            let mut y32 = vec![0.0; lens.len()];
            Ell::from_csr(&a.cast::<f32>()).spmv_window(&x, &mut y32, 0);
            let lost = poison.is_nan() || (poison as f32).is_infinite();
            assert_eq!((y32[SHORT].is_nan(), y32[KEPT].is_nan()), (lost, lost), "f32 {poison}");
            assert!(y32[FULL].is_finite(), "f32 {poison}: the full row has no padding");
        }
    }

    #[test]
    fn host_slots_stay_within_their_bounds_on_every_generator() {
        use crate::gen;
        let matrices: [(&str, Csr); 10] = [
            ("laplace2d", gen::laplace2d(37, 29)),
            ("laplace3d", gen::laplace3d(11, 9, 13)),
            ("convection_diffusion", gen::convection_diffusion(41, 23, 2.0)),
            ("cantilever", gen::cantilever(7, 6, 5)),
            ("circuit", gen::circuit(3000, 7)),
            ("circuit_hubbed", gen::circuit_hubbed(3000, 7)),
            ("diel_filter", gen::diel_filter(9, 8, 7)),
            ("diel_filter_with", gen::diel_filter_with(9, 8, 7, 0.3)),
            ("kkt", gen::kkt(6, 5, 7)),
            ("random_diag_dominant", gen::random_diag_dominant(1500, 9, 3)),
        ];
        for (name, a) in matrices {
            // whole, and the uneven thirds a three-device layout loads
            let n = a.nrows();
            for rows in [0..n, 0..n / 3 + 5, n / 3 + 5..n - 1] {
                let e: Ell = Ell::from_csr_rows(&a, rows.clone());
                let windows = e.nrows().div_ceil(SIGMA);
                let what = format!("{name} rows {rows:?}");
                assert!(e.values.len() >= e.nnz(), "{what}");
                // never more than the GPU format plus the last chunk's fill
                assert!(e.values.len() <= e.padded_nnz() + (CHUNK - 1) * e.width(), "{what}");
                // sorting leaves at most one chunk of full width per window
                let sorted = e.nnz() + e.nrows() + CHUNK * e.width() * (windows + 1);
                assert!(e.values.len() <= sorted, "{what}: {} > {sorted}", e.values.len());
            }
        }
    }

    /// Bits of every row of `a`, read back through `entries(row, length)`.
    fn read_back<I>(a: &Csr, entries: impl Fn(usize, usize) -> I) -> Vec<Vec<(u32, u64)>>
    where
        I: Iterator<Item = (u32, f64)>,
    {
        let bits = |i| entries(i, a.row_nnz(i)).map(|(c, v): (u32, f64)| (c, v.to_bits()));
        (0..a.nrows()).map(|i| bits(i).collect()).collect()
    }

    #[test]
    fn a_row_reads_back_its_entries_in_order_explicit_zeros_included() {
        let mut rng = SplitMix64::new(0x0e11);
        for nrows in ROWS {
            let ncols = nrows.max(3);
            let mut a = matrix(&mut rng, nrows, ncols, 11);
            // zeros of both signs among the entries, where padding slots
            // would hold `+0.0` too
            for (k, v) in a.values_mut().iter_mut().enumerate() {
                *v = [*v, 0.0, -0.0][k % 3];
            }
            let want = read_back(&a, |i, _| {
                let (cols, vals) = a.row(i);
                cols.iter().copied().zip(vals.iter().copied())
            });
            let e = Ell::from_csr(&a);
            assert_eq!(read_back(&a, |i, len| e.row_entries(i, len)), want, "ell, {nrows} rows");
            for width in [0, 1, 4, 11] {
                let h = Hyb::from_csr_with_width(&a, width);
                let got = read_back(&a, |i, len| h.row_entries(i, len));
                assert_eq!(got, want, "hyb of width {width}, {nrows} rows");
            }
        }
    }

    #[test]
    fn parallel_split_matches_the_slot_major_loop() {
        // a row count that is no multiple of the chunk
        let a = crate::gen::laplace2d(301, 299);
        let e = Ell::from_csr(&a);
        assert!(!a.nrows().is_multiple_of(CHUNK));
        let mut x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.001).sin()).collect();
        x[a.nrows() - 1] = f64::NAN;
        x[12_345] = f64::INFINITY;
        let mut got = vec![0.0; a.nrows()];
        e.spmv(&x, &mut got);
        let mut want = vec![0.0; a.nrows()];
        SlotMajorEll::from_csr(&a).spmv(&x, &mut want);
        assert_bits(&got, &want, "f64");
        // and `spmv` is the window loop from the first window on
        let mut seq = vec![0.0; a.nrows()];
        e.spmv_window(&x, &mut seq, 0);
        assert_bits(&got, &seq, "spmv vs spmv_window");
    }

    #[test]
    fn window_aligned_split_matches_the_sequential_loop() {
        // irregular rows, so that every window is really permuted; what is
        // under test is which rows and chunks `spmv_window` takes when it
        // starts at a window other than the first
        let mut rng = SplitMix64::new(4);
        let nrows = 5 * 1024 + 77;
        let a = matrix(&mut rng, nrows, 600, 9);
        let e = Ell::from_csr(&a);
        assert!(e.out_row.chunks(SIGMA).all(|w| w.windows(2).any(|p| p[0] > p[1])));
        let x = poisoned(&mut rng, 600);
        let mut want = vec![0.0; nrows];
        SlotMajorEll::from_csr(&a).spmv(&x, &mut want);
        for windows in [1, 2, 3, 4, 6, 11] {
            let rows = windows * SIGMA;
            let mut got = vec![-7.0; nrows];
            for (ti, yt) in got.chunks_mut(rows).enumerate() {
                e.spmv_window(&x, yt, ti * windows);
            }
            assert_bits(&got, &want, &format!("{windows} windows at a time"));
        }
    }
}
