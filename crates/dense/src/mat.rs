//! Column-major dense matrix type.
//!
//! Storage follows the LAPACK convention: entry `(i, j)` lives at
//! `data[i + j * ld]` where `ld >= nrows` is the leading dimension. A
//! leading dimension larger than the row count is exactly what the paper's
//! batched-DGEMM trick needs (pad the column stride to a multiple of the
//! batch height, zero-fill the tail), so `Mat` supports it natively.
//!
//! `Mat` is generic over the element type ([`Scalar`]), defaulting to
//! `f64` so existing call sites read and compile exactly as before.

use crate::{DenseError, Result};
use ca_scalar::Scalar;

/// A column-major dense matrix with an explicit leading dimension,
/// generic over the scalar type (default `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    ld: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Create an `nrows x ncols` matrix of zeros (leading dimension = nrows).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, ld: nrows.max(1), data: vec![T::ZERO; nrows.max(1) * ncols] }
    }

    /// An `nrows x ncols` matrix that carries its shape and no storage:
    /// what a cost-only simulated device holds in place of a buffer. Any
    /// element access panics.
    pub fn shape_only(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, ld: nrows.max(1), data: Vec::new() }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Build a matrix from column-major data (ld == nrows).
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(DenseError::DimensionMismatch {
                expected: format!("{} elements", nrows * ncols),
                got: format!("{}", data.len()),
            });
        }
        Ok(Self { nrows, ncols, ld: nrows.max(1), data })
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

    /// Leading dimension (column stride).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Raw column-major storage (includes padding rows when `ld > nrows`).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow column `j` (only the live `nrows` entries, not the padding).
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Mutably borrow column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Borrow two distinct columns simultaneously (`a < b`).
    pub fn two_cols_mut(&mut self, a: usize, b: usize) -> (&mut [T], &mut [T]) {
        assert!(a < b && b < self.ncols);
        let (lo, hi) = self.data.split_at_mut(b * self.ld);
        (&mut lo[a * self.ld..a * self.ld + self.nrows], &mut hi[..self.nrows])
    }

    /// Column `d` mutably, with read-only views of the columns left
    /// (`0..d`) and right (`d+1..ncols`) of it — what an in-place
    /// `V[:, d] += V[:, others] * c` update needs.
    pub fn split_col_mut(&mut self, d: usize) -> (Cols<'_, T>, &mut [T], Cols<'_, T>) {
        let nrows = self.nrows;
        let (lo, col, hi) = self.split_cols_mut(d, d + 1);
        (lo, &mut col[..nrows], hi)
    }

    /// Columns `j0..j1` mutably, as their storage — column `j` starts at
    /// `(j - j0) * ld()` and has `nrows()` live entries — with read-only
    /// views of the columns left (`0..j0`) and right (`j1..ncols`) of them:
    /// what an update of several columns at once from columns outside
    /// their range needs.
    pub fn split_cols_mut(&mut self, j0: usize, j1: usize) -> (Cols<'_, T>, &mut [T], Cols<'_, T>) {
        assert!(j0 <= j1 && j1 <= self.ncols);
        let (ld, nrows) = (self.ld, self.nrows);
        let (lo, rest) = self.data.split_at_mut(j0 * ld);
        let (mid, hi) = rest.split_at_mut((j1 - j0) * ld);
        (
            Cols { data: lo, ld, nrows, ncols: j0 },
            mid,
            Cols { data: hi, ld, nrows, ncols: self.ncols - j1 },
        )
    }

    /// Read-only view of the contiguous columns `j0..j1`.
    pub fn cols(&self, j0: usize, j1: usize) -> Cols<'_, T> {
        assert!(j0 <= j1 && j1 <= self.ncols);
        Cols {
            data: &self.data[j0 * self.ld..j1 * self.ld],
            ld: self.ld,
            nrows: self.nrows,
            ncols: j1 - j0,
        }
    }

    /// Copy of column `j` as a `Vec`.
    pub fn col_to_vec(&self, j: usize) -> Vec<T> {
        self.col(j).to_vec()
    }

    /// Set column `j` from a slice of length `nrows`.
    pub fn set_col(&mut self, j: usize, v: &[T]) {
        assert_eq!(v.len(), self.nrows);
        self.col_mut(j).copy_from_slice(v);
    }

    /// A copy of the contiguous submatrix of columns `j0..j1`.
    pub fn cols_copy(&self, j0: usize, j1: usize) -> Mat<T> {
        assert!(j0 <= j1 && j1 <= self.ncols);
        let mut out = Mat::zeros(self.nrows, j1 - j0);
        for (dst, j) in (j0..j1).enumerate() {
            out.set_col(dst, self.col(j));
        }
        out
    }

    /// A copy of the leading `r x c` block.
    pub fn top_left(&self, r: usize, c: usize) -> Mat<T> {
        assert!(r <= self.nrows && c <= self.ncols);
        Mat::from_fn(r, c, |i, j| self[(i, j)])
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Fill every live entry with `v` (padding untouched except zeros stay).
    pub fn fill(&mut self, v: T) {
        for j in 0..self.ncols {
            for x in self.col_mut(j) {
                *x = v;
            }
        }
    }

    /// In-place scale of all live entries.
    pub fn scale(&mut self, alpha: T) {
        for j in 0..self.ncols {
            for x in self.col_mut(j) {
                *x *= alpha;
            }
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: T, other: &Mat<T>) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        for j in 0..self.ncols {
            let src = other.col(j);
            for (d, &s) in self.col_mut(j).iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> T {
        let mut m = T::ZERO;
        for j in 0..self.ncols {
            for &x in self.col(j) {
                m = m.max(x.abs());
            }
        }
        m
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> T {
        let mut s = T::ZERO;
        for j in 0..self.ncols {
            for &x in self.col(j) {
                s += x * x;
            }
        }
        s.sqrt()
    }

    /// A copy cast element-by-element into another scalar type (`as`
    /// semantics: round to nearest even on narrowing, exact on widening).
    pub fn cast<U: Scalar>(&self) -> Mat<U> {
        Mat::from_fn(self.nrows, self.ncols, |i, j| U::from_f64(self[(i, j)].to_f64()))
    }
}

/// Borrowed view of a contiguous range of columns of a column-major
/// matrix, optionally narrowed to a row panel. The tall-skinny kernels
/// take their operands as views so that two column blocks of one matrix
/// (the device basis `V`) and two separate matrices look alike.
#[derive(Debug, Clone, Copy)]
pub struct Cols<'a, T: Scalar = f64> {
    data: &'a [T],
    ld: usize,
    nrows: usize,
    ncols: usize,
}

impl<'a, T: Scalar> Cols<'a, T> {
    /// A one-column view of a plain slice.
    pub fn single(x: &'a [T]) -> Self {
        Self { data: x, ld: x.len().max(1), nrows: x.len(), ncols: 1 }
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

    /// Column `j` of the view.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Columns `j0..j1` of the view.
    pub fn cols(&self, j0: usize, j1: usize) -> Cols<'a, T> {
        assert!(j0 <= j1 && j1 <= self.ncols);
        let data = if j0 == j1 { &self.data[..0] } else { &self.data[j0 * self.ld..] };
        Cols { data, ld: self.ld, nrows: self.nrows, ncols: j1 - j0 }
    }

    /// The same columns narrowed to rows `r0..r1`.
    pub fn rows(&self, r0: usize, r1: usize) -> Cols<'a, T> {
        assert!(r0 <= r1 && r1 <= self.nrows);
        // a view of no columns has no data to offset into
        let data = if self.ncols == 0 { self.data } else { &self.data[r0..] };
        Cols { data, ld: self.ld, nrows: r1 - r0, ncols: self.ncols }
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of bounds");
        &self.data[i + j * self.ld]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of bounds");
        &mut self.data[i + j * self.ld]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Mat::zeros(3, 2);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m[(2, 1)], 0.0);
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m.col(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn identity_is_identity() {
        let m: Mat = Mat::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut m = Mat::from_fn(4, 3, |i, j| (i + j) as f64);
        let (a, b) = m.two_cols_mut(0, 2);
        a[0] = 100.0;
        b[3] = -1.0;
        assert_eq!(m[(0, 0)], 100.0);
        assert_eq!(m[(3, 2)], -1.0);
    }

    #[test]
    fn cols_copy_extracts_block() {
        let m = Mat::from_fn(3, 4, |i, j| (j * 3 + i) as f64);
        let b = m.cols_copy(1, 3);
        assert_eq!(b.ncols(), 2);
        assert_eq!(b[(0, 0)], m[(0, 1)]);
        assert_eq!(b[(2, 1)], m[(2, 2)]);
    }

    #[test]
    fn from_col_major_checks_len() {
        assert!(Mat::from_col_major(2, 2, vec![1.0f64; 3]).is_err());
        let m = Mat::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::identity(2);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 1)], 4.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    fn f32_instantiation_and_cast() {
        let m32 = Mat::<f32>::from_fn(3, 2, |i, j| (i as f32) + 0.5 * (j as f32));
        assert_eq!(m32[(2, 1)], 2.5f32);
        assert_eq!(m32.fro_norm(), {
            let mut s = 0.0f32;
            for j in 0..2 {
                for &x in m32.col(j) {
                    s += x * x;
                }
            }
            s.sqrt()
        });
        // f64 -> f32 -> f64 round-trips exactly for f32-representable data
        let m64: Mat = m32.cast::<f64>();
        assert_eq!(m64.cast::<f32>(), m32);
        // narrowing quantizes through round-to-nearest-even
        let w = Mat::<f64>::from_fn(1, 1, |_, _| 0.1);
        assert_eq!(w.cast::<f32>()[(0, 0)], 0.1f32);
    }
}
