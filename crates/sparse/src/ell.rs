//! ELLPACK format — the paper's GPU SpMV layout (Fig. 3 caption), stored in
//! the order the *host* executes it.
//!
//! ELLPACK keeps a fixed number of slots per row (`width` = longest row)
//! and pads short rows with zero-valued slots. On the GPU the slots are
//! slot-major so that a warp's loads coalesce. This crate's arithmetic runs
//! on a CPU, where that order costs a read-modify-write of `y` and a
//! stride-`nrows` jump per slot, so the slots are stored **chunk-major**
//! instead: rows in chunks of eight (`CHUNK`), slot `k` of a chunk's rows
//! contiguous, the last chunk filled up with zero-valued lanes. [`Ell::spmv`]
//! walks each chunk front to back once with its row sums in registers.
//!
//! What the simulator prices is still the GPU format: [`Ell::padded_nnz`] is
//! `width * nrows` and [`Ell::bytes`] one value and one 4-byte index per
//! such slot — padding slots are read like real data, the fill lanes of the
//! last chunk are a host artefact and are not counted.
//!
//! Per row the arithmetic is fixed and independent of the chunk height:
//! start from `+0.0`, then `+= value[k] * x[col[k]]` for every slot
//! `k = 0..width` in order, padding slots included (value zero, column
//! `row % ncols`, so a NaN or infinity in `x` there reaches the row sum).

use crate::Csr;
use ca_scalar::Scalar;
use rayon::prelude::*;

/// Rows per chunk. Chosen by measurement on the reference box (4, 8 and 16
/// tried; see EXPERIMENTS.md, "Host wall-clock ledger", PR 14): 8 row sums
/// fit the register file at either precision.
const CHUNK: usize = 8;

/// Padded slots below which [`Ell::spmv`] stays on the calling thread.
const PAR_THRESHOLD: usize = 200_000;

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
    /// Column indices, `width * CHUNK` per chunk of rows: the entry for
    /// (row `i`, slot `k`) sits at `((i / CHUNK) * width + k) * CHUNK + i % CHUNK`.
    /// Padding slots repeat the row's own index (mod `ncols`) with a zero
    /// value, a standard trick that keeps gathers in bounds; the lanes past
    /// the last row point at column 0.
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
    /// each row; the rest go to `spill` as (slice row, column, value).
    pub(crate) fn from_csr_rows_capped<S, I>(
        a: &Csr<S>,
        rows: I,
        width: usize,
        mut spill: impl FnMut(u32, u32, T),
    ) -> Self
    where
        S: Scalar,
        I: ExactSizeIterator<Item = usize>,
    {
        let (nrows, ncols) = (rows.len(), a.ncols());
        let slots = nrows.div_ceil(CHUNK) * width * CHUNK;
        let mut col_idx = vec![0u32; slots];
        let mut values = vec![T::ZERO; slots];
        let mut nnz = 0;
        for (i, r) in rows.enumerate() {
            let (cols, vals) = a.row(r);
            let keep = cols.len().min(width);
            let base = (i / CHUNK) * width * CHUNK + i % CHUNK;
            for k in 0..keep {
                col_idx[base + k * CHUNK] = cols[k];
                values[base + k * CHUNK] = cvt(vals[k]);
            }
            // in-bounds padding: self column (width > 0 implies ncols > 0)
            for k in keep..width {
                col_idx[base + k * CHUNK] = (i % ncols) as u32;
            }
            for k in keep..cols.len() {
                spill(i as u32, cols[k], cvt(vals[k]));
            }
            nnz += keep;
        }
        Self { nrows, ncols, width, col_idx, values, nnz }
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
    ///
    /// Large matrices are processed in parallel row ranges (rayon); each
    /// output row is owned by exactly one task and its slot order does not
    /// depend on the split, so results are bitwise identical to the
    /// sequential path.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        self.spmv_as(x, y);
    }

    /// `y := A x` against `f64` endpoints: each gathered `x` element is
    /// rounded to `T`, the row accumulates in `T`, and the finished sum is
    /// widened on the store. For `T = f64` this is [`Ell::spmv`]; for
    /// `T = f32` it is that kernel run on an `f32` copy of `x` without the
    /// copy.
    pub fn spmv_widened(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_as(x, y);
    }

    /// The one SpMV loop, over vectors of element type `V`.
    pub(crate) fn spmv_as<V: Scalar>(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        if self.padded_nnz() < PAR_THRESHOLD {
            self.spmv_rows(x, y, 0);
        } else {
            let threads = rayon::current_num_threads().max(1);
            let rows = self.nrows.div_ceil(threads).max(1024).next_multiple_of(CHUNK);
            y.par_chunks_mut(rows).enumerate().for_each(|(ti, yt)| {
                self.spmv_rows(x, yt, ti * rows / CHUNK);
            });
        }
    }

    /// Rows `[chunk0 * CHUNK, chunk0 * CHUNK + y.len())`.
    fn spmv_rows<V: Scalar>(&self, x: &[V], y: &mut [V], chunk0: usize) {
        let stride = self.width * CHUNK;
        for (ci, yc) in y.chunks_mut(CHUNK).enumerate() {
            let at = (chunk0 + ci) * stride;
            let cols = self.col_idx[at..at + stride].chunks_exact(CHUNK);
            let vals = self.values[at..at + stride].chunks_exact(CHUNK);
            let mut acc = [T::ZERO; CHUNK];
            for (cs, vs) in cols.zip(vals) {
                for l in 0..CHUNK {
                    acc[l] += vs[l] * cvt::<V, T>(x[cs[l] as usize]);
                }
            }
            for (yo, &a) in yc.iter_mut().zip(&acc) {
                *yo = cvt(a);
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
        assert_eq!((direct.nnz(), direct.width()), (staged.nnz(), staged.width()));
        let (mut y1, mut y2) = (vec![0.0; 10], vec![0.0; 10]);
        direct.spmv_widened(&x, &mut y1);
        staged.spmv_widened(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    // ---------- bit-for-bit against the slot-major oracle ----------

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn value(&mut self) -> f64 {
            let u = (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            u * if self.next() & 7 == 0 { 1e6 } else { 1.0 }
        }

        /// `nrows x ncols` with row lengths `0..=max_len`: empty rows, short
        /// rows and (when `max_len > 0`) at least one full-width row.
        fn matrix(&mut self, nrows: usize, ncols: usize, max_len: usize) -> Csr {
            let mut c = Coo::new(nrows, ncols);
            for i in 0..nrows {
                let len = match self.next() % 5 {
                    0 => 0,
                    1 => max_len,
                    _ => (self.next() % (max_len as u64 + 1)) as usize,
                };
                let len = if i == nrows / 2 { max_len } else { len }.min(ncols);
                let first = (self.next() % ncols.max(1) as u64) as usize;
                for k in 0..len {
                    c.add(i, (first + k * 3) % ncols, self.value());
                }
            }
            c.to_csr()
        }

        /// A vector with NaN and both infinities planted, among them at the
        /// pad columns `i % ncols` of short rows.
        fn poisoned(&mut self, n: usize) -> Vec<f64> {
            (0..n)
                .map(|_| match self.next() % 16 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => self.value(),
                })
                .collect()
        }
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

    const ROWS: [usize; 9] = [0, 1, 7, 8, 9, 15, 16, 17, 1000];

    #[test]
    fn chunked_spmv_matches_the_slot_major_loop() {
        let mut rng = Rng(0x2014_0527);
        let mut shapes = 0;
        for nrows in ROWS {
            for (ncols, max_len) in [(1, 1), (5, 0), (13, 4), (nrows.max(2), 9), (40, 23)] {
                let a = rng.matrix(nrows, ncols, max_len);
                for x in [rng.poisoned(ncols), (0..ncols).map(|_| rng.value()).collect()] {
                    let what = format!("{nrows}x{ncols}, rows up to {max_len}");
                    let mut want = vec![7.0; nrows];
                    SlotMajorEll::from_csr(&a).spmv(&x, &mut want);
                    let mut got = vec![-7.0; nrows];
                    Ell::from_csr(&a).spmv(&x, &mut got);
                    assert_bits(&got, &want, &format!("f64 {what}"));

                    let (a32, x32) =
                        (a.cast::<f32>(), x.iter().map(|&v| v as f32).collect::<Vec<_>>());
                    let mut want32 = vec![7.0f32; nrows];
                    SlotMajorEll::from_csr(&a32).spmv(&x32, &mut want32);
                    let e32 = Ell::from_csr(&a32);
                    let mut got32 = vec![-7.0f32; nrows];
                    e32.spmv(&x32, &mut got32);
                    assert_bits(&got32, &want32, &format!("f32 {what}"));
                    // demote at the gather, widen at the store
                    let want_wide: Vec<f64> = want32.iter().map(|&v| v as f64).collect();
                    let mut got_wide = vec![-7.0; nrows];
                    e32.spmv_widened(&x, &mut got_wide);
                    assert_bits(&got_wide, &want_wide, &format!("f32 widened {what}"));
                    shapes += 1;
                }
            }
        }
        assert!(shapes >= 90, "only {shapes} shapes");
    }

    #[test]
    fn hyb_matches_slot_major_ell_plus_its_coo_tail() {
        let mut rng = Rng(108);
        for nrows in ROWS {
            let ncols = nrows.max(3);
            let a = rng.matrix(nrows, ncols, 11);
            let x = rng.poisoned(ncols);
            for width in [0, 1, 4, 11] {
                // the oracle: slot-major ELL of the first `width` entries of
                // each row, then the spilled entries in row order
                let mut head = Coo::new(nrows, ncols);
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
                SlotMajorEll::from_csr(&head).spmv(&x, &mut want);
                let mut want32: Vec<f32> = vec![0.0; nrows];
                let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                SlotMajorEll::from_csr(&head.cast::<f32>()).spmv(&x32, &mut want32);
                for &(r, c, v) in &tail {
                    want[r] += v * x[c];
                    want32[r] += v as f32 * x32[c];
                }

                let h = Hyb::from_csr_with_width(&a, width);
                assert_eq!(h.spilled(), tail.len());
                let mut got = vec![-1.0; nrows];
                h.spmv(&x, &mut got);
                assert_bits(&got, &want, &format!("hyb f64 {nrows} rows, width {width}"));

                let h32 = Hyb::from_csr_with_width(&a.cast::<f32>(), width);
                let mut got_wide = vec![-1.0; nrows];
                h32.spmv_widened(&x, &mut got_wide);
                let want_wide: Vec<f64> = want32.iter().map(|&v| v as f64).collect();
                assert_bits(&got_wide, &want_wide, &format!("hyb f32 {nrows} rows, width {width}"));
            }
        }
    }

    #[test]
    fn parallel_split_matches_the_slot_major_loop() {
        // above the threshold, a row count that is no multiple of the chunk
        let a = crate::gen::laplace2d(301, 299);
        let e = Ell::from_csr(&a);
        assert!(e.padded_nnz() >= PAR_THRESHOLD && !a.nrows().is_multiple_of(CHUNK));
        let mut x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.001).sin()).collect();
        x[a.nrows() - 1] = f64::NAN;
        x[12_345] = f64::INFINITY;
        let mut got = vec![0.0; a.nrows()];
        e.spmv(&x, &mut got);
        let mut want = vec![0.0; a.nrows()];
        SlotMajorEll::from_csr(&a).spmv(&x, &mut want);
        assert_bits(&got, &want, "parallel f64");
        // and the split itself is invisible
        let mut seq = vec![0.0; a.nrows()];
        e.spmv_rows(&x, &mut seq, 0);
        assert_bits(&got, &seq, "parallel vs sequential");
    }
}
