#![allow(clippy::needless_range_loop)]

//! Property tests over the core invariants, spanning crates: seeded cases
//! from [`ca_gmres_repro::scalar::cases`].

use ca_gmres_repro::dense::{leja, norms, Mat};
use ca_gmres_repro::gmres::layout::Layout;
use ca_gmres_repro::gmres::mpk::{mpk, MpkPlan, MpkState};
use ca_gmres_repro::gmres::newton::BasisSpec;
use ca_gmres_repro::gmres::orth::{tsqr, TsqrKind};
use ca_gmres_repro::gpusim::{MatId, MultiGpu};
use ca_gmres_repro::scalar::{cases, rng::Xoshiro256pp};
use ca_gmres_repro::sparse::graph::Graph;
use ca_gmres_repro::sparse::partition::kway_partition;
use ca_gmres_repro::sparse::{balance, gen, perm, rcm, spmv, Coo, Csr};
use std::collections::BTreeSet;

/// Distribute a matrix (host Mat) over devices, returning MatIds.
fn distribute(mg: &mut MultiGpu, full: &Mat) -> Vec<MatId> {
    let (n, cols) = (full.nrows(), full.ncols());
    let ndev = mg.n_gpus();
    (0..ndev)
        .map(|d| {
            let lo = d * n / ndev;
            let hi = (d + 1) * n / ndev;
            let dev = mg.device_mut(d);
            let v = dev.alloc_mat(hi - lo, cols).unwrap();
            for j in 0..cols {
                dev.mat_mut(v).set_col(j, &full.col(j)[lo..hi]);
            }
            v
        })
        .collect()
}

fn collect(mg: &MultiGpu, ids: &[MatId], n: usize, cols: usize) -> Mat {
    let ndev = ids.len();
    let mut out = Mat::zeros(n, cols);
    for d in 0..ndev {
        let lo = d * n / ndev;
        let m = mg.device(d).mat(ids[d]);
        for j in 0..cols {
            out.col_mut(j)[lo..lo + m.nrows()].copy_from_slice(m.col(j));
        }
    }
    out
}

/// Entries uniform in `[-0.5, 0.5)`.
fn random_tall(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Mat {
    Mat::from_fn(n, k, |_, _| rng.unit() - 0.5)
}

/// Cases per property.
const CASES: usize = 24;

#[test]
fn tsqr_invariants_hold() {
    const KINDS: [TsqrKind; 5] =
        [TsqrKind::Mgs, TsqrKind::Cgs, TsqrKind::CholQr, TsqrKind::SvQr, TsqrKind::Caqr];
    cases(CASES, |rng| {
        let kind = KINDS[rng.index(0..5)];
        let (ndev, k) = (rng.index(1..4), rng.index(2..8));
        let n = 120;
        let full = random_tall(n, k, rng);
        let mut mg = MultiGpu::with_defaults(ndev);
        let ids = distribute(&mut mg, &full);
        let r = tsqr(&mut mg, &ids, 0, k, kind, true).unwrap();
        let q = collect(&mg, &ids, n, k);
        // Q has orthonormal columns
        assert!(norms::orthogonality_error(&q) < 1e-9, "{kind:?}");
        // QR reconstructs the input
        assert!(norms::factorization_error(&full, &q, &r) < 1e-11, "{kind:?}");
        // R upper triangular with positive diagonal
        for j in 0..k {
            assert!(r[(j, j)] > 0.0);
            for i in j + 1..k {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    });
}

#[test]
fn mpk_equals_repeated_spmv() {
    cases(CASES, |rng| {
        let a = gen::laplace2d(rng.index(4..9), rng.index(4..9));
        let (ndev, s) = (rng.index(1..4), rng.index(1..5));
        let n = a.nrows();
        let layout = Layout::even(n, ndev);
        let plan = MpkPlan::new(&a, &layout, s);
        let mut mg = MultiGpu::with_defaults(ndev);
        let st = MpkState::load(&mut mg, &a, plan).unwrap();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let v_ids: Vec<MatId> = (0..ndev)
            .map(|d| {
                let nl = layout.nlocal(d);
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s + 1).unwrap();
                let lo = layout.range(d).start;
                dev.mat_mut(v).set_col(0, &x0[lo..lo + nl]);
                v
            })
            .collect();
        mpk(&mut mg, &st, &v_ids, 0, &BasisSpec::monomial(s)).unwrap();
        let mut xk = x0;
        for k in 1..=s {
            let mut y = vec![0.0; n];
            spmv::spmv(&a, &xk, &mut y);
            for d in 0..ndev {
                let lo = layout.range(d).start;
                let col = mg.device(d).mat(v_ids[d]).col(k);
                for (i, &cv) in col.iter().enumerate() {
                    assert!((cv - y[lo + i]).abs() < 1e-11 * y[lo + i].abs().max(1.0));
                }
            }
            xk = y;
        }
    });
}

#[test]
fn rcm_permutation_preserves_spectrum_action() {
    cases(CASES, |rng| {
        let n = rng.index(20..80);
        let a = gen::random_diag_dominant(n, 4, rng.below(1000));
        let p = rcm::rcm_permutation(&a);
        assert!(perm::is_permutation(&p, n));
        let b = perm::permute_symmetric(&a, &p);
        assert_eq!(a.nnz(), b.nnz());
        // action equivalence on a vector
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y1 = vec![0.0; n];
        spmv::spmv(&a, &x, &mut y1);
        let xp = perm::permute_vec(&x, &p);
        let mut y2 = vec![0.0; n];
        spmv::spmv(&b, &xp, &mut y2);
        let y1p = perm::permute_vec(&y1, &p);
        for i in 0..n {
            assert!((y1p[i] - y2[i]).abs() < 1e-12);
        }
    });
}

/// A random square matrix in raw CSR: empty rows, stored `0.0` and `-0.0`,
/// and some columns stored twice (a second copy that cancels the first or
/// not); never three copies, so no summation order can matter.
fn raw_matrix(rng: &mut Xoshiro256pp) -> Csr {
    let n = rng.index(1..40);
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..n {
        let mut cols: Vec<u32> = (0..rng.index(0..7)).map(|_| rng.below(n as u64) as u32).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            let v = match rng.below(5) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.in_range(-1.0, 1.0),
            };
            col_idx.push(c);
            values.push(v);
            if rng.chance(0.2) {
                col_idx.push(c);
                values.push(if rng.chance(0.5) { -v } else { rng.in_range(-1.0, 1.0) });
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(n, n, row_ptr, col_idx, values)
}

/// `P A P^T` assembled through COO: the reference `permute_symmetric` must
/// reproduce entry for entry.
fn permute_by_coo(a: &Csr, p: &[usize]) -> Csr {
    let n = a.nrows();
    let mut inv = vec![0usize; n];
    for (new, &old) in p.iter().enumerate() {
        inv[old] = new;
    }
    let mut coo = Coo::new(n, n);
    for (new, &old) in p.iter().enumerate() {
        let (cols, vals) = a.row(old);
        for (&c, &v) in cols.iter().zip(vals) {
            coo.add(new, inv[c as usize], v);
        }
    }
    coo.to_csr()
}

#[test]
fn permute_symmetric_equals_the_coo_route() {
    cases(CASES * 4, |rng| {
        let a = raw_matrix(rng);
        let n = a.nrows();
        let mut shuffled: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.index(0..i + 1));
        }
        for p in [(0..n).collect(), (0..n).rev().collect(), shuffled] {
            let (b, r) = (perm::permute_symmetric(&a, &p), permute_by_coo(&a, &p));
            assert_eq!((b.row_ptr(), b.col_idx()), (r.row_ptr(), r.col_idx()), "perm {p:?}");
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b), bits(&r), "perm {p:?}");
        }
    });
}

/// A random pattern, not symmetric, diagonal entries included.
fn random_pattern(rng: &mut Xoshiro256pp) -> Csr {
    let n = rng.index(1..50);
    let mut coo = Coo::new(n, n);
    for _ in 0..rng.index(0..4 * n) {
        coo.add(rng.index(0..n), rng.index(0..n), 1.0);
    }
    coo.to_csr()
}

#[test]
fn graph_is_the_symmetrized_pattern_without_diagonal() {
    cases(CASES * 4, |rng| {
        let a = random_pattern(rng);
        let n = a.nrows();
        let mut adj = vec![BTreeSet::new(); n];
        for i in 0..n {
            for &c in a.row(i).0 {
                if c as usize != i {
                    adj[i].insert(c);
                    adj[c as usize].insert(i as u32);
                }
            }
        }
        let g = Graph::from_csr(&a);
        assert_eq!(g.nvertices(), n);
        for (v, want) in adj.iter().enumerate() {
            assert_eq!(g.neighbors(v), want.iter().copied().collect::<Vec<_>>(), "vertex {v}");
        }
    });
}

#[test]
fn bfs_levels_equal_a_level_by_level_search() {
    cases(CASES * 4, |rng| {
        let g = Graph::from_csr(&random_pattern(rng));
        let root = rng.index(0..g.nvertices());
        // one frontier at a time, each level in discovery order
        let mut levels = vec![u32::MAX; g.nvertices()];
        levels[root] = 0;
        let (mut order, mut frontier) = (vec![root as u32], vec![root as u32]);
        for depth in 1.. {
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in g.neighbors(u as usize) {
                    if levels[w as usize] == u32::MAX {
                        levels[w as usize] = depth;
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            order.extend_from_slice(&next);
            frontier = next;
        }
        assert_eq!(g.bfs_levels(root), (levels, order));
    });
}

#[test]
fn kway_covers_a_graph_of_many_small_components() {
    cases(CASES, |rng| {
        // more components than parts: growth stalls, and the remainder is
        // dealt to the smallest parts
        let sizes: Vec<usize> = (0..rng.index(8..20)).map(|_| rng.index(1..6)).collect();
        let n: usize = sizes.iter().sum();
        let mut coo = Coo::new(n, n);
        let mut lo = 0;
        for len in sizes {
            for i in lo..lo + len {
                coo.add(i, i, 4.0);
                if i + 1 < lo + len {
                    coo.add(i, i + 1, -1.0);
                    coo.add(i + 1, i, -1.0);
                }
            }
            lo += len;
        }
        let nparts = rng.index(2..5);
        let p = kway_partition(&coo.to_csr(), nparts, 2);
        assert_eq!(p.part.len(), n);
        assert!(p.part.iter().all(|&q| (q as usize) < nparts), "{:?}", p.part);
        assert_eq!(p.sizes().iter().sum::<usize>(), n);
    });
}

#[test]
fn balance_produces_unit_column_norms() {
    cases(CASES, |rng| {
        let n = rng.index(10..60);
        let a = gen::random_diag_dominant(n, 3, rng.below(1000));
        let (b, bal) = balance::balance(&a);
        let mut col_sq = vec![0.0f64; n];
        for i in 0..n {
            let (cols, vals) = b.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                col_sq[c as usize] += v * v;
            }
        }
        for s in col_sq {
            assert!((s.sqrt() - 1.0).abs() < 1e-10);
        }
        assert!(bal.row_scale.iter().all(|&d| d > 0.0 && d.is_finite()));
    });
}

#[test]
fn leja_order_is_permutation_with_max_modulus_first() {
    cases(CASES, |rng| {
        let pts: Vec<(f64, f64)> =
            (0..rng.index(1..20)).map(|_| (rng.in_range(-100.0, 100.0), 0.0)).collect();
        let ord = leja::leja_order(&pts);
        assert_eq!(ord.len(), pts.len());
        let max_mod = pts.iter().map(|p| p.0.abs()).fold(0.0, f64::max);
        assert!((ord[0].0.abs() - max_mod).abs() < 1e-12);
        // multiset equality
        let mut a: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let mut b: Vec<f64> = ord.iter().map(|p| p.0).collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    });
}

#[test]
fn mpk_plan_boundaries_nested() {
    cases(CASES, |rng| {
        let (s, ndev) = (rng.index(2..6), rng.index(2..4));
        // delta sets shrink as k grows: |delta^(d,k:s)| decreasing in k
        let a = gen::laplace2d(12, 12);
        let layout = Layout::even(a.nrows(), ndev);
        let plan = MpkPlan::new(&a, &layout, s);
        for dp in &plan.devs {
            for k in 1..s {
                assert!(dp.boundary_nnz_from(k) >= dp.boundary_nnz_from(k + 1));
            }
            // need is exactly the union of levels and is disjoint from local
            for &r in &dp.need {
                assert!(!dp.local.contains(&(r as usize)));
            }
        }
    });
}

#[test]
fn newton_spec_change_matrix_consistency() {
    cases(CASES, |rng| {
        let pts: Vec<(f64, f64)> =
            (0..rng.index(1..6)).map(|_| (rng.in_range(-5.0, 5.0), 0.0)).collect();
        let s = rng.index(1..8);
        let spec = BasisSpec::newton(&pts, s);
        assert_eq!(spec.s(), s);
        let b = spec.change_matrix();
        assert_eq!(b.nrows(), s + 1);
        // subdiagonal is all ones (the basis recurrence)
        for k in 0..s {
            assert_eq!(b[(k + 1, k)], 1.0);
        }
    });
}

#[test]
fn gmres_residuals_never_increase_within_cycle() {
    // deterministic property over several matrices
    for seed in [1u64, 7, 23] {
        let a = gen::random_diag_dominant(100, 5, seed);
        let b: Vec<f64> = (0..100).map(|i| ((i + seed as usize) as f64 * 0.3).cos()).collect();
        let (x, stats) = ca_gmres_repro::gmres::cpu::gmres_cpu(
            &a,
            &b,
            40,
            ca_gmres_repro::gmres::orth::BorthKind::Mgs,
            1e-10,
            50,
            &ca_gmres_repro::gpusim::PerfModel::default(),
        );
        assert!(stats.converged);
        let mut r = vec![0.0; 100];
        spmv::spmv(&a, &x, &mut r);
        for i in 0..100 {
            r[i] = b[i] - r[i];
        }
        let rel = ca_gmres_repro::dense::blas1::nrm2(&r) / ca_gmres_repro::dense::blas1::nrm2(&b);
        assert!(rel <= 1e-10 * 1.01);
    }
}
