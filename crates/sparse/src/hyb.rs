//! Hybrid ELL + COO format (the CUSP-style layout the paper's related
//! work §II references).
//!
//! Pure ELLPACK pays for its padding: one hub row inflates every row's
//! slot count. HYB stores the first `width` entries of each row in ELL
//! (coalesced on a GPU) and spills the remainder to a COO tail; `width`
//! is chosen so that at most a small fraction of entries spill.

use crate::ell::cvt;
use crate::{Csr, Ell};
use ca_scalar::Scalar;

/// A hybrid ELL + COO sparse matrix, generic over the value type
/// (default `f64`).
#[derive(Debug, Clone)]
pub struct Hyb<T: Scalar = f64> {
    /// The regular part (first `width` entries of each row).
    ell: Ell<T>,
    /// Spilled entries as (row, col, value).
    coo: Vec<(u32, u32, T)>,
}

impl<T: Scalar> Hyb<T> {
    /// Convert from CSR with an explicit ELL width (never wider than the
    /// longest row).
    pub fn from_csr_with_width(a: &Csr<T>, width: usize) -> Self {
        Self::build(a, 0..a.nrows(), width.min(a.max_row_nnz()))
    }

    /// Convert from CSR, choosing the width at the given row-length
    /// quantile (e.g. `0.95` keeps 95% of rows fully in the ELL part —
    /// a standard HYB heuristic).
    pub fn from_csr(a: &Csr<T>, quantile: f64) -> Self {
        Self::from_csr_rows(a, 0..a.nrows(), quantile)
    }

    /// [`Hyb::from_csr`] of the slice `A(rows, :)` with its values cast to
    /// `T` — what `from_csr` of `a.select_rows(rows).cast::<T>()` holds,
    /// without building either.
    pub fn from_csr_rows<S, I>(a: &Csr<S>, rows: I, quantile: f64) -> Self
    where
        S: Scalar,
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        assert!((0.0..=1.0).contains(&quantile));
        let mut lens: Vec<usize> = rows.clone().map(|r| a.row_nnz(r)).collect();
        lens.sort_unstable();
        // one slot at least, but no wider than the longest row
        let width = lens.last().map_or(0, |&longest| {
            let idx = ((lens.len() - 1) as f64 * quantile).round() as usize;
            lens[idx].max(1).min(longest)
        });
        Self::build(a, rows, width)
    }

    fn build<S, I>(a: &Csr<S>, rows: I, width: usize) -> Self
    where
        S: Scalar,
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let mut coo = Vec::new();
        let ell = Ell::from_csr_rows_capped(a, rows, width, |r, c, v| coo.push((r, c, v)));
        Self { ell, coo }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.ell.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ell.ncols()
    }

    /// ELL width of the regular part.
    pub fn width(&self) -> usize {
        self.ell.width()
    }

    /// Entries stored in the COO tail.
    pub fn spilled(&self) -> usize {
        self.coo.len()
    }

    /// Total stored nonzeros (both parts, excluding padding).
    pub fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.len()
    }

    /// Bytes occupied: padded ELL slots plus COO triplets (one `T::BYTES`
    /// value + two 4-byte indices each).
    pub fn bytes(&self) -> usize {
        self.ell.bytes() + self.coo.len() * (8 + T::BYTES)
    }

    /// The `len` entries of row `i` in CSR order, as `(column, value)`: the
    /// first ones from the ELL part, the rest from the tail. `len` must be
    /// the row's length ([`Ell::row_entries`] says why).
    pub fn row_entries(&self, i: usize, len: usize) -> impl Iterator<Item = (u32, T)> + '_ {
        let kept = len.min(self.width());
        let first = self.coo.partition_point(|e| (e.0 as usize) < i);
        let tail = &self.coo[first..first + (len - kept)];
        debug_assert!(tail.iter().all(|e| e.0 as usize == i), "row {i} spilled fewer entries");
        self.ell.row_entries(i, kept).chain(tail.iter().map(|&(_, c, v)| (c, v)))
    }

    /// `y := A x`: the ELL part, then the COO tail added entry by entry.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(y.len(), self.nrows());
        self.spmv_window(x, y, 0);
    }

    /// Rows `[window0 * σ, window0 * σ + y.len())` of `y := A x`, as
    /// [`Ell::spmv_window`] takes them: the ELL part of those rows, then
    /// the tail entries that fall in them, in order — per row what the
    /// whole product does. Against `f64` endpoints every operation is in
    /// `T`: a tail entry narrows the widened row sum back to `T` (exact),
    /// adds its product in `T` and widens again.
    pub fn spmv_window<V: Scalar>(&self, x: &[V], y: &mut [V], window0: usize) {
        self.ell.spmv_window(x, y, window0);
        let row0 = window0 * crate::ell::WINDOW_ROWS;
        let rows = row0 as u32..(row0 + y.len()) as u32;
        // the tail is in row order
        let first = self.coo.partition_point(|e| e.0 < rows.start);
        for &(r, c, v) in self.coo[first..].iter().take_while(|e| e.0 < rows.end) {
            let yr = &mut y[(r - rows.start) as usize];
            *yr = cvt(cvt::<V, T>(*yr) + v * cvt::<V, T>(x[c as usize]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Coo};

    /// A matrix with one hub row that ruins pure ELL.
    fn hubbed() -> Csr {
        let mut c = Coo::new(50, 50);
        for i in 0..50 {
            c.add(i, i, 2.0);
            if i + 1 < 50 {
                c.add(i, i + 1, -1.0);
            }
        }
        for j in 0..40 {
            c.add(7, j, 0.1); // hub row with 40+ entries
        }
        c.to_csr()
    }

    #[test]
    fn hyb_matches_csr_spmv() {
        let a = hubbed();
        let h = Hyb::from_csr(&a, 0.95);
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        crate::spmv::spmv(&a, &x, &mut y1);
        h.spmv(&x, &mut y2);
        for i in 0..50 {
            assert!((y1[i] - y2[i]).abs() < 1e-13, "row {i}");
        }
        assert_eq!(h.nnz(), a.nnz());
    }

    #[test]
    fn hyb_shrinks_padding_on_hubbed_matrix() {
        let a = hubbed();
        let pure = Ell::from_csr(&a);
        let hyb = Hyb::from_csr(&a, 0.95);
        assert!(hyb.width() < pure.width());
        assert!(hyb.bytes() < pure.bytes() / 2, "hyb {} vs ell {}", hyb.bytes(), pure.bytes());
        assert!(hyb.spilled() > 0);
    }

    #[test]
    fn width_quantile_extremes() {
        let a = hubbed();
        let all = Hyb::from_csr(&a, 1.0);
        assert_eq!(all.spilled(), 0, "quantile 1.0 keeps everything in ELL");
        let h0 = Hyb::from_csr(&a, 0.0);
        assert!(h0.width() >= 1);
        // spmv still exact at both extremes
        let x = vec![1.0; 50];
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        all.spmv(&x, &mut y1);
        h0.spmv(&x, &mut y2);
        for i in 0..50 {
            assert!((y1[i] - y2[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn regular_matrix_spills_nothing() {
        let a = gen::laplace2d(8, 8);
        let h = Hyb::from_csr(&a, 0.95);
        // 5-point stencil: widths 3..5; the 95th percentile is 5 = max
        assert_eq!(h.spilled(), 0);
        assert_eq!(h.width(), 5);
    }

    #[test]
    fn explicit_width_partition() {
        let a = hubbed();
        let h = Hyb::from_csr_with_width(&a, 2);
        assert_eq!(h.width(), 2);
        assert_eq!(h.nnz(), a.nnz());
        let x = vec![1.0; 50];
        let mut y1 = vec![0.0; 50];
        let mut y2 = vec![0.0; 50];
        crate::spmv::spmv(&a, &x, &mut y1);
        h.spmv(&x, &mut y2);
        for i in 0..50 {
            assert!((y1[i] - y2[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn selected_rows_equal_the_selected_cast_csr() {
        let a = hubbed();
        let rows = [7usize, 3, 49, 0, 7, 20];
        let direct: Hyb<f32> = Hyb::from_csr_rows(&a, rows.iter().copied(), 0.5);
        let staged = Hyb::from_csr(&a.select_rows(&rows).cast::<f32>(), 0.5);
        assert!(direct.spilled() > 0);
        assert_eq!(
            (direct.width(), direct.spilled(), direct.nnz(), direct.bytes()),
            (staged.width(), staged.spilled(), staged.nnz(), staged.bytes())
        );
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let (mut y1, mut y2) = (vec![0.0; 6], vec![0.0; 6]);
        direct.spmv_window(&x, &mut y1, 0);
        staged.spmv_window(&x, &mut y2, 0);
        assert_eq!(y1, y2);
        // the quantile rule asks for one slot at least; rows that are all
        // empty have no ELL part to put it in, and are charged for none
        let empty: Hyb = Hyb::from_csr(&Coo::new(4, 4).to_csr(), 0.95);
        assert_eq!((empty.width(), empty.bytes()), (0, 0));
    }

    #[test]
    fn window_pieces_carry_the_bits_of_the_whole_product() {
        // rows of 1 to 9 entries over three and a half windows, so that the
        // tail has entries in every window and the last one is short
        let n = 3 * crate::ell::WINDOW_ROWS + 200;
        let mut c = Coo::new(n, n);
        for i in 0..n {
            for k in 0..i % 9 + 1 {
                c.add(i, (i * 3 + k * 11) % n, 1.0 / (1 + i % 5 + k) as f64);
            }
        }
        let a = c.to_csr();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        for h in [Hyb::from_csr(&a, 0.3), Hyb::from_csr_with_width(&a, 2)] {
            assert!(h.spilled() > 0);
            let mut whole = vec![0.0; n];
            h.spmv(&x, &mut whole);
            for windows in [1, 2, 3] {
                let mut pieces = vec![-1.0; n];
                for (k, y) in pieces.chunks_mut(windows * crate::ell::WINDOW_ROWS).enumerate() {
                    h.spmv_window(&x, y, k * windows);
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&pieces), bits(&whole), "{windows} windows a piece");
            }
        }
    }
}
