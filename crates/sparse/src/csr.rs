//! Compressed sparse row format — the workhorse representation.
//!
//! The CPU reference path multiplies straight from CSR (the paper's MKL
//! configuration); the MPK setup walks CSR rows to build boundary sets;
//! submatrix extraction (`select_rows`) produces each device's local and
//! boundary blocks.

use crate::Coo;
use ca_scalar::Scalar;

/// An immutable CSR sparse matrix with `u32` column indices, generic over
/// the value type (default `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
}

impl Csr {
    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.add(i, i, 1.0);
        }
        coo.to_csr()
    }
}

impl<T: Scalar> Csr<T> {
    /// Assemble from raw CSR arrays. Invariants (monotone `row_ptr`,
    /// in-bounds columns) are checked with debug assertions.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < ncols));
        Self { nrows, ncols, row_ptr, col_idx, values }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable value array (structure is fixed; scaling/balancing edits
    /// values in place).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Entry `(i, j)` by binary search over the (sorted) row.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(p) => vals[p],
            Err(_) => T::ZERO,
        }
    }

    /// Maximum row length (the ELLPACK width).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Average nonzeros per row (the paper's `nnz/n` column in Fig. 12).
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Structural bandwidth: `max_i max_{j in row i} |i - j|`.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for i in 0..self.nrows {
            for &c in self.row(i).0 {
                bw = bw.max(i.abs_diff(c as usize));
            }
        }
        bw
    }

    /// Extract the submatrix consisting of the given rows (all columns
    /// kept, column indices unchanged) — `A(i, :)` in the paper's MPK
    /// notation. Rows appear in the order given.
    pub fn select_rows(&self, rows: &[usize]) -> Csr<T> {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut nnz = 0usize;
        for &r in rows {
            nnz += self.row_nnz(r);
            row_ptr.push(nnz);
        }
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let (c, v) = self.row(r);
            col_idx.extend_from_slice(c);
            values.extend_from_slice(v);
        }
        Csr::from_raw(rows.len(), self.ncols, row_ptr, col_idx, values)
    }

    /// Transpose (exact, sorts columns implicitly via counting).
    pub fn transpose(&self) -> Csr<T> {
        let mut cnt = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            cnt[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            cnt[j + 1] += cnt[j];
        }
        let row_ptr = cnt.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut next = cnt;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = next[c as usize];
                col_idx[p] = i as u32;
                values[p] = v;
                next[c as usize] += 1;
            }
        }
        Csr::from_raw(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Whether the sparsity pattern is structurally symmetric.
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// Frobenius norm of the matrix.
    pub fn fro_norm(&self) -> T {
        let mut s = T::ZERO;
        for &v in &self.values {
            s += v * v;
        }
        s.sqrt()
    }

    /// A copy cast element-by-element into another scalar type (`as`
    /// semantics; structure shared verbatim). This is how the
    /// mixed-precision path derives its `f32` operator from the `f64`
    /// source matrix.
    pub fn cast<U: Scalar>(&self) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 2 0]
        // [0 3 4]
        // [5 0 6]
        let mut c = Coo::new(3, 3);
        c.add(0, 0, 1.0);
        c.add(0, 1, 2.0);
        c.add(1, 1, 3.0);
        c.add(1, 2, 4.0);
        c.add(2, 0, 5.0);
        c.add(2, 2, 6.0);
        c.to_csr()
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.max_row_nnz(), 2);
        assert!((m.avg_row_nnz() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_computed() {
        let m = sample();
        assert_eq!(m.bandwidth(), 2); // entry (2,0)
        assert_eq!(Csr::identity(4).bandwidth(), 0);
    }

    #[test]
    fn select_rows_extracts() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 5.0); // old row 2
        assert_eq!(s.get(0, 2), 6.0);
        assert_eq!(s.get(1, 1), 2.0); // old row 0
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 5.0);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn structural_symmetry() {
        assert!(Csr::identity(3).is_structurally_symmetric());
        assert!(!sample().is_structurally_symmetric());
        let mut c = Coo::new(2, 2);
        c.add(0, 1, 1.0);
        c.add(1, 0, 9.0);
        assert!(c.to_csr().is_structurally_symmetric()); // pattern, not values
    }

    #[test]
    fn fro_norm_matches() {
        let m = Csr::identity(4);
        assert!((m.fro_norm() - 2.0).abs() < 1e-15);
    }
}
