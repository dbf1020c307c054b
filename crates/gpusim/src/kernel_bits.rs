//! Seeded bit-equality suite for the device's dense kernels.
//!
//! The kernels delegate to ca-dense's tiled routines; the oracles below
//! are the per-entry `blas1::dot` / `blas1::axpy` loops `device.rs` used to
//! carry, kept verbatim. Every kernel must reproduce them to the bit (any
//! NaN equals any NaN: which payload survives `NaN + NaN` is not part of
//! the promised operation sequence), charge the same modeled time, stay
//! inert on a lost device, and still take its SDC hit after the product.
//!
//! The device owns no kernel loop, so it has no instantiation of its own to
//! choose: these suites run on the one ca-dense's CPU detection selects.
//! ca-dense's own oracle suite (`reference.rs`) pins every instantiation
//! the host can run, the 128-bit one included, on the same shapes.

use crate::device::{Device, MatId};
use crate::faults::{FaultPlan, SdcKind, SdcTargets};
use crate::model::{GemmVariant, GemvVariant, PerfModel};
use crate::stream::Cmd;
use ca_dense::{blas1, Mat};
use ca_scalar::{rng::SplitMix64, Precision};
use std::sync::Arc;

// ---------- the retained reference loops ----------

fn ref_gemm_tn(
    m: &Mat,
    (a0, a1): (usize, usize),
    (b0, b1): (usize, usize),
    variant: GemmVariant,
) -> Mat {
    let rows = m.nrows();
    let mut c = Mat::zeros(a1 - a0, b1 - b0);
    for jb in 0..b1 - b0 {
        let cb_full = m.col(b0 + jb);
        for ja in 0..a1 - a0 {
            match variant.panel_rows() {
                None => c[(ja, jb)] = blas1::dot(m.col(a0 + ja), cb_full),
                Some(h) => {
                    let nb = rows.div_ceil(h).max(1);
                    for p in 0..nb {
                        let r0 = p * h;
                        let r1 = (r0 + h).min(rows);
                        c[(ja, jb)] += blas1::dot(&m.col(a0 + ja)[r0..r1], &cb_full[r0..r1]);
                    }
                }
            }
        }
    }
    c
}

fn ref_axpy_into(m: &mut Mat, coef: f64, src: usize, dst: usize) {
    if coef != 0.0 && src != dst {
        let (s, d) = if src < dst {
            m.two_cols_mut(src, dst)
        } else {
            let (x, y) = m.two_cols_mut(dst, src);
            (y, x)
        };
        blas1::axpy(-coef, s, d);
    }
}

fn ref_gemm_nn_update(m: &mut Mat, (a0, a1): (usize, usize), (b0, b1): (usize, usize), c: &Mat) {
    for jb in 0..b1 - b0 {
        for ja in 0..a1 - a0 {
            ref_axpy_into(m, c[(ja, jb)], a0 + ja, b0 + jb);
        }
    }
}

fn ref_trsm(m: &mut Mat, j0: usize, r: &Mat) -> ca_dense::Result<()> {
    for j in 0..r.ncols() {
        for l in 0..j {
            ref_axpy_into(m, r[(l, j)], j0 + l, j0 + j);
        }
        let d = r[(j, j)];
        if d == 0.0 {
            return Err(ca_dense::DenseError::SingularTriangular { index: j });
        }
        blas1::scal(1.0 / d, m.col_mut(j0 + j));
    }
    Ok(())
}

fn ref_block_sum_dot(m: &Mat, a: (usize, usize), b: (usize, usize)) -> [f64; 2] {
    let (mut dot, mut abs) = (0.0, 0.0);
    for i in 0..m.nrows() {
        let mut pa = 0.0;
        for j in a.0..a.1 {
            pa += m.col(j)[i];
        }
        let mut pb = 0.0;
        for j in b.0..b.1 {
            pb += m.col(j)[i];
        }
        dot += pa * pb;
        abs += (pa * pb).abs();
    }
    [dot, abs]
}

// ---------- seeded inputs ----------

fn mat(rng: &mut SplitMix64, rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |_, _| rng.wide())
}

/// Coefficients sprinkled with zeros and non-finite values.
fn coeffs(rng: &mut SplitMix64, rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |_, _| match rng.next_u64() % 12 {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => rng.wide(),
    })
}

const ROWS: [usize; 12] = [0, 1, 3, 4, 5, 383, 384, 385, 511, 512, 513, 1000];
/// (columns of the a-block, columns of the b-block)
const WIDTHS: [(usize, usize); 5] = [(1, 1), (5, 2), (7, 3), (11, 11), (13, 6)];
/// `Batched { h: 100 }` runs 128-row panels, which divide none of `ROWS`.
const VARIANTS: [GemmVariant; 3] =
    [GemmVariant::Cublas, GemmVariant::Batched { h: 100 }, GemmVariant::Batched { h: 384 }];

pub(super) fn same(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn assert_bits(got: &Mat, want: &Mat, what: &str) {
    assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()), "{what}: shape");
    for j in 0..want.ncols() {
        for i in 0..want.nrows() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(same(g, w), "{what}: entry ({i},{j}) {g} vs {w}");
        }
    }
}

fn device_with(m: &Mat) -> (Device, MatId) {
    let mut d = Device::new(0, Arc::new(PerfModel::default()), false);
    d.enable_trace();
    let v = d.alloc_mat(m.nrows(), m.ncols()).expect("fits");
    *d.mat_mut(v) = m.clone();
    (d, v)
}

/// Name and modeled seconds of the kernel the device launched last.
pub(super) fn last_kernel(d: &Device) -> (&'static str, f64) {
    match d.trace().last() {
        Some(&Cmd::Kernel { name, modeled, .. }) => (name, modeled),
        other => panic!("no kernel was launched: {other:?}"),
    }
}

/// The a-block left of the b-block, then right of it, with a gap column.
fn block_pairs(ka: usize, kb: usize) -> [((usize, usize), (usize, usize)); 2] {
    [((0, ka), (ka + 1, ka + 1 + kb)), ((kb + 1, kb + 1 + ka), (0, kb))]
}

#[test]
fn gram_kernels_match_the_per_entry_loops() {
    let mut rng = SplitMix64::new(0x2014_0527);
    let mut shapes = 0;
    for rows in ROWS {
        for (ka, kb) in WIDTHS {
            let m = mat(&mut rng, rows, ka + kb + 1);
            let (mut d, v) = device_with(&m);
            for variant in VARIANTS {
                for (a, b) in block_pairs(ka, kb) {
                    let what = format!("rows {rows}, a {a:?}, b {b:?}, {variant:?}");
                    let model = PerfModel::default();
                    let got = d.gemm_tn_cols(v, a, b, variant);
                    assert_bits(
                        &got,
                        &ref_gemm_tn(&m, a, b, variant),
                        &format!("gemm_tn_cols {what}"),
                    );
                    assert_eq!(
                        last_kernel(&d),
                        ("gemm_tn", model.gemm_tn_time(variant, rows, ka, kb, Precision::F64))
                    );

                    let got = d.syrk_cols(v, a.0, a.1, variant);
                    assert_bits(
                        &got,
                        &ref_gemm_tn(&m, a, a, variant),
                        &format!("syrk_cols {what}"),
                    );
                    assert_eq!(
                        last_kernel(&d),
                        ("syrk", model.gemm_tn_time(variant, rows, ka, ka, Precision::F64))
                    );
                    shapes += 1;
                }
            }
            for x in [0, ka + kb] {
                let got = d.gemv_t_cols(v, 0, ka, x, GemvVariant::MagmaTallSkinny);
                let want = ref_gemm_tn(&m, (0, ka), (x, x + 1), GemmVariant::Cublas);
                assert!(
                    got.iter().zip(want.col(0)).all(|(&g, &w)| same(g, w)),
                    "gemv_t_cols rows {rows}"
                );
            }
            let want = ref_block_sum_dot(&m, (0, ka), (ka, ka + kb + 1));
            let got = d.block_sum_dot(v, (0, ka), (ka, ka + kb + 1));
            assert!(same(got[0], want[0]) && same(got[1], want[1]), "block_sum_dot rows {rows}");
            assert_eq!(d.mat(v), &m, "products leave the basis untouched");
        }
    }
    assert!(shapes >= 200, "only {shapes} shapes");
}

#[test]
fn update_kernels_match_the_axpy_chain() {
    let mut rng = SplitMix64::new(108);
    for rows in ROWS {
        for (ka, kb) in WIDTHS {
            let mut m = mat(&mut rng, rows, ka + kb + 1);
            if rows > 0 {
                // a poisoned source that only a zero coefficient may hide
                m[(rows / 2, 0)] = f64::NAN;
                m[(rows / 2, ka + kb)] = f64::INFINITY;
            }
            let c = coeffs(&mut rng, ka, kb);
            for (a, b) in block_pairs(ka, kb) {
                let what = format!("rows {rows}, a {a:?}, b {b:?}");
                let (mut d, v) = device_with(&m);
                let mut want = m.clone();
                let variant = GemmVariant::Batched { h: 384 };
                d.gemm_nn_update(v, a, b, &c, variant);
                ref_gemm_nn_update(&mut want, a, b, &c);
                assert_bits(d.mat(v), &want, &format!("gemm_nn_update {what}"));
                let dt = PerfModel::default().gemm_nn_time(variant, rows, ka, kb);
                assert_eq!(last_kernel(&d), ("gemm_nn", dt));

                // gemv_n_update: the a-block into one column left or right of it
                let dst = b.0;
                d.gemv_n_update(v, a.0, a.1, c.col(0), dst);
                for (k, j) in (a.0..a.1).enumerate() {
                    ref_axpy_into(&mut want, c[(k, 0)], j, dst);
                }
                assert_bits(d.mat(v), &want, &format!("gemv_n_update {what}"));
            }

            // rank1_update: the source column sits inside the destination range
            let (mut d, v) = device_with(&m);
            let mut want = m.clone();
            let src = ka / 2;
            let coeffs: Vec<f64> =
                (0..ka + kb + 1).map(|_| coeffs(&mut rng, 1, 1)[(0, 0)]).collect();
            d.rank1_update(v, src, 0, ka + kb + 1, &coeffs);
            for (j, &cj) in coeffs.iter().enumerate() {
                ref_axpy_into(&mut want, cj, src, j);
            }
            assert_bits(d.mat(v), &want, &format!("rank1_update rows {rows}, {ka}+{kb} columns"));

            // copy_col both ways and onto itself
            for (s, t) in [(0, ka + kb), (ka + kb, 0), (ka, ka)] {
                d.copy_col(v, s, t);
                let src_col = want.col_to_vec(s);
                want.set_col(t, &src_col);
                assert_bits(d.mat(v), &want, "copy_col");
                assert_eq!(
                    last_kernel(&d),
                    ("copy_col", PerfModel::default().blas1_time(2 * rows, Precision::F64))
                );
            }
        }
    }
}

/// `gemm_nn_update` updates its destinations two at a time: a zero,
/// `-0.0`, NaN or infinite coefficient for one destination of a pair must
/// hide, or spread, a poisoned source in that destination alone.
#[test]
fn a_special_coefficient_in_one_destination_of_a_pair_stays_there() {
    let mut rng = SplitMix64::new(16);
    for (rows, ka) in [(5, 1), (5, 4), (513, 6), (5, 7)] {
        let clean = mat(&mut rng, rows, ka + 3);
        let c = mat(&mut rng, ka, 3);
        for (a, b) in [((0, ka), (ka, ka + 3)), ((3, ka + 3), (0, 3))] {
            for at in 0..ka {
                let mut m = clean.clone();
                m[(rows / 2, a.0 + at)] = f64::NAN;
                m[(rows - 1, a.0 + at)] = f64::INFINITY;
                for special in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    for which in 0..2 {
                        let mut c = c.clone();
                        c[(at, which)] = special;
                        let (mut d, v) = device_with(&m);
                        let mut want = m.clone();
                        d.gemm_nn_update(v, a, b, &c, GemmVariant::Cublas);
                        ref_gemm_nn_update(&mut want, a, b, &c);
                        let what = format!(
                            "rows {rows}, a {a:?}, poisoned {at}, {special} for destination {which}"
                        );
                        assert_bits(d.mat(v), &want, &what);
                        let finite = |j: usize| d.mat(v).col(b.0 + j).iter().all(|x| x.is_finite());
                        assert_eq!(finite(which), special == 0.0, "{what}: that destination");
                        assert!(!finite(1 - which), "{what}: the other destination");
                    }
                }
            }
        }
    }
}

#[test]
fn trsm_matches_the_forward_sweep_even_when_singular() {
    let mut rng = SplitMix64::new(7);
    for rows in ROWS {
        for k in [1, 2, 5, 11] {
            let m = mat(&mut rng, rows, k + 3);
            let mut r = coeffs(&mut rng, k, k);
            for j in 0..k {
                r[(j, j)] = 1.0 + j as f64;
            }
            for singular in [None, Some(k / 2)] {
                if let Some(j) = singular {
                    r[(j, j)] = 0.0;
                }
                let (mut d, v) = device_with(&m);
                let mut want = m.clone();
                let res = d.trsm_cols(v, 2, 2 + k, &r);
                assert_eq!(res, ref_trsm(&mut want, 2, &r));
                assert_eq!(res.is_err(), singular.is_some());
                assert_bits(
                    d.mat(v),
                    &want,
                    &format!("trsm_cols rows {rows}, k {k}, {singular:?}"),
                );
                // a failed solve is not a launched kernel: no time charged
                match res {
                    Ok(()) => assert_eq!(
                        last_kernel(&d),
                        ("trsm", PerfModel::default().trsm_time(rows, k))
                    ),
                    Err(_) => assert!(d.trace().is_empty()),
                }
            }
        }
    }
}

#[test]
fn lost_device_returns_neutral_values_and_mutates_nothing() {
    let mut rng = SplitMix64::new(1);
    let m = mat(&mut rng, 100, 6);
    let (mut d, v) = device_with(&m);
    d.set_faults(Some(Arc::new(FaultPlan::new(0).with_device_loss(0, 0))));
    d.scal_col(v, 0, 1.0); // the first op kills the device
    assert!(d.is_lost());
    let (ops, clock) = (d.ops(), d.clock());
    let c = mat(&mut rng, 2, 3);
    for variant in VARIANTS {
        assert_eq!(d.gemm_tn_cols(v, (0, 2), (3, 6), variant), Mat::zeros(2, 3));
        assert_eq!(d.syrk_cols(v, 0, 3, variant), Mat::identity(3));
        d.gemm_nn_update(v, (0, 2), (3, 6), &c, variant);
    }
    assert_eq!(d.gemv_t_cols(v, 0, 4, 5, GemvVariant::Cublas), vec![0.0; 4]);
    assert_eq!(d.block_sum_dot(v, (0, 2), (2, 6)), [0.0; 2]);
    d.gemv_n_update(v, 0, 2, &[1.0, 2.0], 4);
    d.rank1_update(v, 0, 1, 6, &[1.0; 5]);
    d.copy_col(v, 0, 5);
    assert_eq!(d.trsm_cols(v, 0, 3, &Mat::zeros(3, 3)), Ok(()), "not even the pivots are read");
    assert_eq!(d.mat(v), &m);
    assert_eq!((d.ops(), d.clock()), (ops, clock));
}

#[test]
fn sdc_is_injected_after_the_product() {
    let mut rng = SplitMix64::new(5);
    let m = mat(&mut rng, 500, 9);
    let plan = Arc::new(FaultPlan::new(9).with_sdc(1.0, SdcTargets::gemm_only()));
    for variant in VARIANTS {
        let (mut d, v) = device_with(&m);
        d.set_faults(Some(plan.clone()));
        let flipped = |clean: Mat, op: u64| {
            let e = plan.sdc_event(0, op, SdcKind::Gemm).expect("rate 1 hits every op");
            let idx = (e.lane % (clean.nrows() * clean.ncols()) as u64) as usize;
            let (i, j) = (idx % clean.nrows(), idx / clean.nrows());
            let mut hit = clean;
            hit[(i, j)] = f64::from_bits(hit[(i, j)].to_bits() ^ (1u64 << e.bit));
            hit
        };
        let op = d.ops();
        let got = d.gemm_tn_cols(v, (0, 5), (5, 9), variant);
        assert_bits(&got, &flipped(ref_gemm_tn(&m, (0, 5), (5, 9), variant), op), "gemm_tn_cols");
        let op = d.ops();
        let got = d.syrk_cols(v, 2, 9, variant);
        // the flip lands on one triangle of the mirrored Gram matrix only
        assert_bits(&got, &flipped(ref_gemm_tn(&m, (2, 9), (2, 9), variant), op), "syrk_cols");
        assert_eq!(d.sdc_injected(), 2);
    }
}
