//! Permutation application to matrices and vectors.

use crate::Csr;

/// Symmetrically permute `a`: `B = P A P^T` where `perm[new] = old`, i.e.
/// `b[i, j] = a[perm[i], perm[j]]`.
///
/// Built row by row: new row `i` is old row `perm[i]` with its columns
/// relabelled and sorted. The rules of assembling through [`crate::Coo`]
/// hold: entries that share a column are summed in storage order, and a
/// zero sum is dropped, so a stored `±0.0` goes too (adding a zero changes
/// no nonzero sum).
pub fn permute_symmetric(a: &Csr, perm: &[usize]) -> Csr {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(perm.len(), n);
    let mut inv = vec![0u32; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new as u32;
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    let mut row: Vec<(u32, f64)> = Vec::new();
    for &old in perm {
        let (cols, vals) = a.row(old);
        row.clear();
        row.extend(cols.iter().zip(vals).map(|(&c, &v)| (inv[c as usize], v)));
        row.sort_by_key(|e| e.0);
        let mut k = 0;
        while let Some(&(c, mut v)) = row.get(k) {
            k += 1;
            while let Some(&(_, w)) = row.get(k).filter(|e| e.0 == c) {
                v += w;
                k += 1;
            }
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(n, n, row_ptr, col_idx, values)
}

/// Permute a vector: `out[new] = x[perm[new]]`.
pub fn permute_vec(x: &[f64], perm: &[usize]) -> Vec<f64> {
    perm.iter().map(|&old| x[old]).collect()
}

/// Inverse-permute a vector: `out[perm[new]] = x[new]` (undo
/// [`permute_vec`]).
pub fn unpermute_vec(x: &[f64], perm: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (new, &old) in perm.iter().enumerate() {
        out[old] = x[new];
    }
    out
}

/// Validate that `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn symmetric_permutation_relabels() {
        // A = diag(10, 20, 30) with a(0,1) = 5
        let mut c = Coo::new(3, 3);
        c.add(0, 0, 10.0);
        c.add(1, 1, 20.0);
        c.add(2, 2, 30.0);
        c.add(0, 1, 5.0);
        let a = c.to_csr();
        let perm = vec![2usize, 0, 1]; // new 0 = old 2, etc.
        let b = permute_symmetric(&a, &perm);
        assert_eq!(b.get(0, 0), 30.0);
        assert_eq!(b.get(1, 1), 10.0);
        assert_eq!(b.get(2, 2), 20.0);
        assert_eq!(b.get(1, 2), 5.0); // old (0,1) -> new (1,2)
    }

    #[test]
    fn spmv_commutes_with_permutation() {
        let a = crate::gen::laplace2d(6, 6);
        let n = a.nrows();
        let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 5) % n).collect();
        assert!(is_permutation(&perm, n));
        let b = permute_symmetric(&a, &perm);
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        // y = A x, then permute y; vs permute x, times B.
        let mut y = vec![0.0; n];
        crate::spmv::spmv(&a, &x, &mut y);
        let yp = permute_vec(&y, &perm);
        let xp = permute_vec(&x, &perm);
        let mut y2 = vec![0.0; n];
        crate::spmv::spmv(&b, &xp, &mut y2);
        for i in 0..n {
            assert!((yp[i] - y2[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn permute_unpermute_roundtrip() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let perm = vec![3usize, 1, 0, 2];
        let p = permute_vec(&x, &perm);
        assert_eq!(p, vec![4.0, 2.0, 1.0, 3.0]);
        assert_eq!(unpermute_vec(&p, &perm), x);
    }

    #[test]
    fn is_permutation_detects_bad() {
        assert!(is_permutation(&[1, 0, 2], 3));
        assert!(!is_permutation(&[0, 0, 2], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }
}
