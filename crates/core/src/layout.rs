//! Matrix ordering and block-row distribution across devices.
//!
//! The paper distributes `A` and the basis vectors "in a block row format"
//! (§III) after optionally reordering the matrix with RCM or METIS k-way
//! partitioning (§IV-B). We realize a k-way partition as a symmetric
//! permutation that groups each part's rows contiguously, so the device
//! layout is always a simple block-row split.

use ca_sparse::hypergraph::hypergraph_partition;
use ca_sparse::partition::{block_partition, kway_partition, recursive_bisection};
use ca_sparse::perm::permute_symmetric;
use ca_sparse::rcm::rcm_permutation;
use ca_sparse::Csr;

/// Matrix ordering strategies studied in Fig. 6–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Keep the generator's ordering; equal block-row split.
    Natural,
    /// Reverse Cuthill–McKee; equal block-row split.
    Rcm,
    /// K-way graph partitioning; parts become contiguous blocks.
    Kway,
    /// Recursive-bisection partitioning (the footnote-3 alternative).
    Bisection,
    /// Column-net hypergraph partitioning (the §VII outlook): minimizes
    /// the exact SpMV scatter volume instead of the graph edge-cut.
    Hypergraph,
}

impl std::fmt::Display for Ordering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ordering::Natural => write!(f, "natural"),
            Ordering::Rcm => write!(f, "RCM"),
            Ordering::Kway => write!(f, "k-way"),
            Ordering::Bisection => write!(f, "bisection"),
            Ordering::Hypergraph => write!(f, "hypergraph"),
        }
    }
}

/// Block-row ownership: device `d` owns global rows
/// `starts[d]..starts[d + 1]` of the (reordered) matrix.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Block boundaries, length `n_devices + 1`.
    pub starts: Vec<usize>,
}

impl Layout {
    /// Equal-size block layout.
    pub fn even(n: usize, ndev: usize) -> Self {
        let mut starts = Vec::with_capacity(ndev + 1);
        for d in 0..=ndev {
            starts.push(d * n / ndev);
        }
        Self { starts }
    }

    /// Layout from explicit per-device sizes.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let mut starts = vec![0usize];
        for &s in sizes {
            starts.push(starts.last().unwrap() + s);
        }
        Self { starts }
    }

    /// Block-row layout proportional to per-device throughput weights
    /// (e.g. [`ca_gpusim::HealthReport::throughput_weights`]): device `d`
    /// gets `≈ n · w_d / Σw` rows, rounded by cumulative-weight splitting
    /// so the shares are deterministic and exactly cover `n`. Every device
    /// with a positive weight keeps at least one row when `n` allows, so
    /// a merely-slow device is shrunk, never evicted.
    ///
    /// # Panics
    /// When `weights` is empty or no weight is positive.
    pub fn proportional(n: usize, weights: &[f64]) -> Self {
        let ndev = weights.len();
        assert!(ndev >= 1, "at least one device");
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        assert!(total > 0.0, "at least one positive weight");
        let mut starts = Vec::with_capacity(ndev + 1);
        starts.push(0usize);
        let mut cum = 0.0f64;
        for (d, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                cum += w;
            }
            let mut next = if d + 1 == ndev {
                n // the last boundary is exact regardless of rounding
            } else {
                ((n as f64) * cum / total).round() as usize
            };
            let prev = *starts.last().unwrap();
            // keep positive-weight devices non-empty when rows remain
            if w.is_finite() && w > 0.0 && next == prev && prev < n {
                next = prev + 1;
            }
            starts.push(next.clamp(prev, n));
        }
        Self { starts }
    }

    /// Like [`Layout::proportional`], but splitting by cumulative
    /// *nonzeros* instead of rows: device `d` gets a contiguous block
    /// whose nnz is `≈ nnz(a) · w_d / Σw`. On matrices with non-uniform
    /// row density (saddle-point blocks, hub rows) this is the split that
    /// actually equalizes SpMV work; for uniform rows it reduces to the
    /// row-proportional one.
    ///
    /// # Panics
    /// When `weights` is empty or no weight is positive.
    pub fn proportional_nnz(a: &Csr, weights: &[f64]) -> Self {
        let n = a.nrows();
        let ndev = weights.len();
        assert!(ndev >= 1, "at least one device");
        let total_w: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        assert!(total_w > 0.0, "at least one positive weight");
        let total_nnz = a.nnz() as f64;
        // Rows past the prefix-nnz scan's stopping point (trailing empty
        // rows) must land on a device that can actually work on them: the
        // closing `next = n` boundary goes to the last *positive*-weight
        // device, so a zero-throughput (just-escalated) trailing device
        // stays empty instead of inheriting the tail.
        let last_pos = weights
            .iter()
            .rposition(|w| w.is_finite() && *w > 0.0)
            .expect("at least one positive weight");
        let mut starts = Vec::with_capacity(ndev + 1);
        starts.push(0usize);
        let mut cum_w = 0.0f64;
        let mut row = 0usize;
        let mut cum_nnz = 0usize;
        for (d, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                cum_w += w;
            }
            let prev = *starts.last().unwrap();
            let mut next = if d >= last_pos {
                n
            } else {
                // advance to the first row where the prefix nnz reaches
                // this device's cumulative share
                let target = total_nnz * cum_w / total_w;
                while row < n && (cum_nnz as f64) < target {
                    cum_nnz += a.row(row).0.len();
                    row += 1;
                }
                row
            };
            if w.is_finite() && w > 0.0 && next == prev && prev < n {
                next = prev + 1; // keep slow-but-alive devices non-empty
            }
            // resync the prefix scan past any bumped boundary
            while row < next {
                cum_nnz += a.row(row).0.len();
                row += 1;
            }
            starts.push(next.clamp(prev, n));
        }
        Self { starts }
    }

    /// Number of devices.
    pub fn ndev(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total rows.
    pub fn n(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Row range owned by device `d`.
    pub fn range(&self, d: usize) -> std::ops::Range<usize> {
        self.starts[d]..self.starts[d + 1]
    }

    /// Number of rows owned by device `d`.
    pub fn nlocal(&self, d: usize) -> usize {
        self.starts[d + 1] - self.starts[d]
    }

    /// Owning device of a global row.
    pub fn owner(&self, row: usize) -> usize {
        debug_assert!(row < self.n());
        match self.starts.binary_search(&row) {
            Ok(d) => d.min(self.ndev() - 1),
            Err(d) => d - 1,
        }
    }
}

/// Reorder `a` for the chosen ordering and build the block-row layout for
/// `ndev` devices. Returns `(reordered matrix, perm with perm[new] = old,
/// layout)`. Solutions computed on the reordered system map back through
/// [`ca_sparse::perm::unpermute_vec`].
pub fn prepare(a: &Csr, ordering: Ordering, ndev: usize) -> (Csr, Vec<usize>, Layout) {
    let n = a.nrows();
    match ordering {
        Ordering::Natural => {
            let perm: Vec<usize> = (0..n).collect();
            (a.clone(), perm, Layout::even(n, ndev))
        }
        Ordering::Rcm => {
            let perm = rcm_permutation(a);
            let b = permute_symmetric(a, &perm);
            (b, perm, Layout::even(n, ndev))
        }
        Ordering::Kway | Ordering::Bisection | Ordering::Hypergraph => {
            let part = if ndev == 1 {
                block_partition(n, 1)
            } else {
                match ordering {
                    Ordering::Kway => kway_partition(a, ndev, 4),
                    Ordering::Bisection => recursive_bisection(a, ndev, 4),
                    _ => hypergraph_partition(a, ndev, 3),
                }
            };
            // stable grouping: rows of part 0 first (in original order), etc.,
            // placed by one counting pass
            let sizes = part.sizes();
            let mut next: Vec<usize> = sizes
                .iter()
                .scan(0, |start, &len| {
                    *start += len;
                    Some(*start - len)
                })
                .collect();
            let mut perm = vec![0usize; n];
            for (v, &q) in part.part.iter().enumerate() {
                perm[next[q as usize]] = v;
                next[q as usize] += 1;
            }
            let b = permute_symmetric(a, &perm);
            (b, perm, Layout::from_sizes(&sizes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_sparse::gen::laplace2d;
    use ca_sparse::perm::{is_permutation, permute_vec, unpermute_vec};

    #[test]
    fn even_layout_covers() {
        let l = Layout::even(10, 3);
        assert_eq!(l.ndev(), 3);
        assert_eq!(l.n(), 10);
        assert_eq!(l.nlocal(0) + l.nlocal(1) + l.nlocal(2), 10);
        for d in 0..3 {
            for r in l.range(d) {
                assert_eq!(l.owner(r), d);
            }
        }
    }

    #[test]
    fn owner_at_boundaries() {
        let l = Layout::from_sizes(&[3, 0, 4]);
        assert_eq!(l.owner(0), 0);
        assert_eq!(l.owner(2), 0);
        assert_eq!(l.owner(3), 2);
        assert_eq!(l.owner(6), 2);
    }

    #[test]
    fn proportional_tracks_weights() {
        // a device running 4x slow gets ~1/9 of the rows (weights 1, 1/4, 1)
        let l = Layout::proportional(900, &[1.0, 0.25, 1.0]);
        assert_eq!(l.ndev(), 3);
        assert_eq!(l.n(), 900);
        assert_eq!(l.nlocal(0), 400);
        assert_eq!(l.nlocal(1), 100);
        assert_eq!(l.nlocal(2), 400);
    }

    #[test]
    fn proportional_handles_extremes() {
        // zero-weight (lost) devices get nothing; others cover n
        let l = Layout::proportional(10, &[1.0, 0.0, 1.0]);
        assert_eq!(l.nlocal(1), 0);
        assert_eq!(l.nlocal(0) + l.nlocal(2), 10);
        // a tiny positive weight still keeps one row
        let l2 = Layout::proportional(100, &[1.0, 1e-9, 1.0]);
        assert!(l2.nlocal(1) >= 1);
        assert_eq!(l2.n(), 100);
        // boundaries stay monotone even with wild weights
        let l3 = Layout::proportional(7, &[1e9, 1.0, 1e9, 1.0]);
        for d in 0..4 {
            assert!(l3.starts[d] <= l3.starts[d + 1]);
        }
        assert_eq!(l3.n(), 7);
    }

    #[test]
    fn proportional_nnz_equalizes_work_not_rows() {
        // uniform weights on a uniform-density matrix ≈ even rows
        let a = laplace2d(30, 30);
        let l = Layout::proportional_nnz(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(l.n(), 900);
        for d in 0..3 {
            assert!((l.nlocal(d) as i64 - 300).abs() < 40, "dev {d}: {}", l.nlocal(d));
        }
        // equal nnz shares, not equal row shares
        let nnz_of =
            |l: &Layout, d: usize| -> usize { l.range(d).map(|i| a.row(i).0.len()).sum::<usize>() };
        let l2 = Layout::proportional_nnz(&a, &[1.0, 0.25, 1.0]);
        let total = a.nnz() as f64;
        assert!((nnz_of(&l2, 1) as f64 / total - 1.0 / 9.0).abs() < 0.02);
        assert!((nnz_of(&l2, 0) as f64 / total - 4.0 / 9.0).abs() < 0.02);
        // a zero-weight device gets nothing; a tiny one keeps a row
        let l3 = Layout::proportional_nnz(&a, &[1.0, 0.0, 1.0]);
        assert_eq!(l3.nlocal(1), 0);
        assert_eq!(l3.n(), 900);
        let l4 = Layout::proportional_nnz(&a, &[1.0, 1e-12, 1.0]);
        assert!(l4.nlocal(1) >= 1);
        assert_eq!(l4.n(), 900);
    }

    #[test]
    fn proportional_nnz_zero_weight_last_device_stays_empty() {
        // A matrix whose trailing rows are empty: the prefix-nnz scan
        // stops before row n, and the closing boundary used to hand the
        // tail to the last device even at weight zero (a just-escalated
        // straggler). The split must route the tail to the last *working*
        // device instead.
        let n = 12;
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..8 {
            // rows 0..8 hold one diagonal entry; rows 8..12 are empty
            col_idx.push(i as u32);
            values.push(1.0);
            row_ptr[i + 1] = col_idx.len();
        }
        for i in 8..n {
            row_ptr[i + 1] = col_idx.len();
        }
        let a = Csr::from_raw(n, n, row_ptr, col_idx, values);
        let l = Layout::proportional_nnz(&a, &[1.0, 1.0, 0.0]);
        assert_eq!(l.n(), n, "layout must still cover every row");
        assert_eq!(l.nlocal(2), 0, "zero-weight device got rows {:?}", l.range(2));
        assert_eq!(l.nlocal(0) + l.nlocal(1), n);
        // same story with the zero weight in the middle and at the end
        let l2 = Layout::proportional_nnz(&a, &[1.0, 0.0, 0.0]);
        assert_eq!(l2.nlocal(0), n);
        assert_eq!(l2.nlocal(1), 0);
        assert_eq!(l2.nlocal(2), 0);
        // healthy weights still split the work evenly and cover the tail
        let l3 = Layout::proportional_nnz(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(l3.n(), n);
        assert!(l3.nlocal(2) >= 1, "last healthy device keeps the tail");
    }

    #[test]
    fn prepare_natural_is_identity() {
        let a = laplace2d(5, 5);
        let (b, perm, l) = prepare(&a, Ordering::Natural, 2);
        assert_eq!(b, a);
        assert!(perm.iter().enumerate().all(|(i, &p)| i == p));
        assert_eq!(l.ndev(), 2);
    }

    #[test]
    fn prepare_preserves_system_solution_mapping() {
        // For every ordering, spmv on the reordered matrix of the permuted
        // vector must equal the permuted spmv.
        let a = laplace2d(6, 7);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; n];
        ca_sparse::spmv::spmv(&a, &x, &mut y);
        for ord in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Kway,
            Ordering::Bisection,
            Ordering::Hypergraph,
        ] {
            let (b, perm, _) = prepare(&a, ord, 3);
            assert!(is_permutation(&perm, n), "{ord}");
            let xp = permute_vec(&x, &perm);
            let mut yp = vec![0.0; n];
            ca_sparse::spmv::spmv(&b, &xp, &mut yp);
            let back = unpermute_vec(&yp, &perm);
            for i in 0..n {
                assert!((back[i] - y[i]).abs() < 1e-12, "{ord} row {i}");
            }
        }
    }

    #[test]
    fn kway_layout_matches_part_sizes() {
        let a = laplace2d(10, 10);
        let (_, _, l) = prepare(&a, Ordering::Kway, 3);
        assert_eq!(l.n(), 100);
        assert_eq!(l.ndev(), 3);
        // roughly balanced
        for d in 0..3 {
            assert!(l.nlocal(d) >= 20, "device {d} has {}", l.nlocal(d));
        }
    }
}
