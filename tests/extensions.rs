#![allow(clippy::needless_range_loop)]

//! Property and integration tests for the beyond-the-paper extensions:
//! HYB format, hypergraph partitioning, rank-revealing QRCP, fused CGS,
//! mixed precision, preconditioning, multi-node topology.

use ca_gmres_repro::dense::{norms, qr, Mat};
use ca_gmres_repro::gmres::precond::{Applied, Precond};
use ca_gmres_repro::scalar::{cases, rng::SplitMix64};
use ca_gmres_repro::sparse::hypergraph::{hypergraph_partition, Hypergraph};
use ca_gmres_repro::sparse::{gen, spmv, Csr, Hyb};

fn random_csr(n: usize, row_nnz: usize, seed: u64) -> Csr {
    gen::random_diag_dominant(n, row_nnz, seed)
}

/// Cases per property.
const CASES: usize = 24;

#[test]
fn hyb_spmv_always_matches_csr() {
    cases(CASES, |rng| {
        let (n, row_nnz) = (rng.index(10..120), rng.index(1..8));
        let a = random_csr(n, row_nnz, rng.below(500));
        let h = Hyb::from_csr(&a, rng.unit());
        assert_eq!(h.nnz(), a.nnz());
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).cos()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv::spmv(&a, &x, &mut y1);
        h.spmv(&x, &mut y2);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-11 * y1[i].abs().max(1.0));
        }
    });
}

#[test]
fn hypergraph_lambda_equals_mpk_scatter_at_s1() {
    // For s = 1, the MPK scatter volume sum_d |delta^(d,1)| equals the
    // column-net (lambda - 1) metric of the block partition: both count,
    // for every column, (number of parts needing it) - 1 ... for
    // structurally symmetric matrices where column j is needed by part p
    // iff p owns a row with a_ij != 0 and does not own row j.
    cases(CASES, |rng| {
        let a = gen::laplace2d(rng.index(4..10), rng.index(4..10));
        let n = a.nrows();
        let ndev = 3;
        let layout = ca_gmres_repro::gmres::layout::Layout::even(n, ndev);
        let plan = ca_gmres_repro::gmres::mpk::MpkPlan::new(&a, &layout, 1);
        let (_, scatter) = plan.comm_volume_per_block();
        let hg = Hypergraph::column_net(&a);
        let part: Vec<u32> = (0..n).map(|v| layout.owner(v) as u32).collect();
        assert_eq!(hg.lambda_minus_one(&part, ndev), scatter);
    });
}

#[test]
fn qrcp_rank_matches_construction() {
    cases(CASES, |rng| {
        // build a matrix with known rank: full_rank random columns plus
        // `extra` linear combinations of them
        let (full_rank, extra) = (rng.index(1..5), rng.index(0..3));
        let m = 40;
        let base = Mat::from_fn(m, full_rank, |_, _| rng.unit() - 0.5);
        let k = full_rank + extra;
        let mut a = Mat::zeros(m, k);
        for j in 0..full_rank {
            a.set_col(j, base.col(j));
        }
        for e in 0..extra {
            // combination with O(1) coefficients
            let mut col = vec![0.0; m];
            for j in 0..full_rank {
                let c = 1.0 + ((e + j) % 3) as f64;
                for i in 0..m {
                    col[i] += c * base[(i, j)];
                }
            }
            a.set_col(full_rank + e, &col);
        }
        let f = qr::householder_qrcp(&a);
        assert_eq!(f.rank(1e-8), full_rank);
        assert!(norms::orthogonality_error(&f.q) < 1e-10);
    });
}

#[test]
fn precond_recover_is_exact_inverse_of_m() {
    cases(CASES, |rng| {
        // recover(M y) == y where M is reassembled from the block diagonal
        let (n, block) = (rng.index(6..60), rng.index(1..6));
        let a = random_csr(n, 3, rng.below(300));
        let ap = Applied::build(&a, Precond::BlockJacobi { block });
        let y: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) - 5.0).collect();
        // compute M y directly from A's block diagonal
        let mut my = vec![0.0; n];
        for i in 0..n {
            let b = i / block;
            let lo = b * block;
            let hi = (lo + block).min(n);
            for j in lo..hi {
                my[i] += a.get(i, j) * y[j];
            }
        }
        let back = ap.recover(&my);
        for i in 0..n {
            assert!(
                (back[i] - y[i]).abs() < 1e-7 * y[i].abs().max(1.0),
                "i={}: {} vs {}",
                i,
                back[i],
                y[i]
            );
        }
    });
}

#[test]
fn hypergraph_partition_scatter_at_most_block_partition() {
    // the hypergraph partitioner optimizes exactly the scatter volume; it
    // must not lose to the trivial block split on the scrambled circuit
    let a = gen::circuit(5000, 13);
    let hg = Hypergraph::column_net(&a);
    let hp = hypergraph_partition(&a, 3, 3);
    let block: Vec<u32> = (0..5000).map(|v| (v * 3 / 5000) as u32).collect();
    let l_h = hg.lambda_minus_one(&hp.part, 3);
    let l_b = hg.lambda_minus_one(&block, 3);
    assert!(l_h < l_b, "hypergraph {l_h} vs block {l_b}");
}

#[test]
fn multinode_slows_gmres_but_ca_less() {
    use ca_gmres_repro::gmres::prelude::*;
    use ca_gmres_repro::gpusim::{KernelConfig, MultiGpu, PerfModel};
    let a = gen::circuit(10_000, 3);
    let (ab, _) = ca_gmres_repro::sparse::balance::balance(&a);
    let (a_ord, p, layout) = prepare(&ab, Ordering::Kway, 4);
    let b: Vec<f64> = (0..10_000).map(|i| ((i % 7) as f64) - 3.0).collect();
    let bp = ca_gmres_repro::sparse::perm::permute_vec(&b, &p);

    let run = |topo: Vec<usize>| {
        let mut mg1 =
            MultiGpu::with_topology(topo.clone(), PerfModel::default(), KernelConfig::default());
        let sys1 = System::new(&mut mg1, &a_ord, layout.clone(), 30, None).unwrap();
        sys1.load_rhs(&mut mg1, &bp).unwrap();
        let g = gmres(
            &mut mg1,
            &sys1,
            &GmresConfig { m: 30, rtol: 0.0, max_restarts: 2, ..Default::default() },
        );
        let mut mg2 = MultiGpu::with_topology(topo, PerfModel::default(), KernelConfig::default());
        let sys2 = System::new(&mut mg2, &a_ord, layout.clone(), 30, Some(10)).unwrap();
        sys2.load_rhs(&mut mg2, &bp).unwrap();
        let cfg = CaGmresConfig { s: 10, m: 30, rtol: 0.0, max_restarts: 3, ..Default::default() };
        let c = ca_gmres(&mut mg2, &sys2, &cfg);
        (g.stats.t_total / g.stats.restarts as f64, c.ca_stats.t_total / c.ca_stats.restarts as f64)
    };
    let (g1, c1) = run(vec![0, 0, 0, 0]); // single node
    let (g2, c2) = run(vec![0, 1, 2, 3]); // one GPU per node
    assert!(g2 > g1, "multi-node must slow GMRES down");
    let speedup1 = g1 / c1;
    let speedup2 = g2 / c2;
    assert!(
        speedup2 > speedup1,
        "CA speedup should grow with comm cost: {speedup1:.2} -> {speedup2:.2}"
    );
}

#[test]
fn fused_cgs_bitwise_matches_cgs_projections() {
    // the fused variant computes the same coefficients (identical order);
    // only the norm path differs — solutions agree to high accuracy
    use ca_gmres_repro::gmres::orth::{tsqr, TsqrKind};
    use ca_gmres_repro::gpusim::{MatId, MultiGpu};
    let (n, k, ndev) = (600usize, 6usize, 2usize);
    let setup = || -> (MultiGpu, Vec<MatId>) {
        let mut mg = MultiGpu::with_defaults(ndev);
        let ids = (0..ndev)
            .map(|d| {
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(n / ndev, k).unwrap();
                let mut rng = SplitMix64::new(d as u64 + 5);
                for j in 0..k {
                    let col: Vec<f64> = (0..n / ndev).map(|_| rng.in_range(-0.5, 0.5)).collect();
                    dev.mat_mut(v).set_col(j, &col);
                }
                v
            })
            .collect();
        (mg, ids)
    };
    let (mut mg1, ids1) = setup();
    let r1 = tsqr(&mut mg1, &ids1, 0, k, TsqrKind::Cgs, true).unwrap();
    let (mut mg2, ids2) = setup();
    let r2 = tsqr(&mut mg2, &ids2, 0, k, TsqrKind::CgsFused, true).unwrap();
    for i in 0..k {
        for j in 0..k {
            assert!(
                (r1[(i, j)] - r2[(i, j)]).abs() < 1e-10 * r1[(i, j)].abs().max(1.0),
                "R({i},{j})"
            );
        }
    }
    // fused used fewer messages
    assert!(mg2.counters().total_msgs() < mg1.counters().total_msgs());
}
