//! Seeded bit-equality suite for the device's sparse kernels.
//!
//! The kernels used to compute into fresh vectors — a zeroed SpMV output, a
//! clone of the slice's row ids, a collected `shifted`, a collected column —
//! and now write in place. The oracles below are those bodies, kept verbatim
//! over plain slices, on top of a row-by-row statement of what the ELLPACK
//! and hybrid SpMV promise (slot order from `+0.0`, padding slots multiplied,
//! then the COO tail). Every kernel must reproduce them to the bit (any NaN
//! equals any NaN), charge the same modeled time, count one op, take its SDC
//! hit on the same element and bit of the SpMV output, and stay inert on a
//! lost device.
//!
//! One matrix-powers step used to be a launch per slice and a column copy;
//! it is one kernel now. That sequence, `Device::mpk_step_unfused`, is the
//! oracle of the fused kernel's bits, of its clock (the same bytes, the
//! launches but one refunded) and of where its one SDC hit lands.

use crate::device::{Device, SpStorage};
use crate::faults::{FaultPlan, SdcKind, SdcTargets};
use crate::kernel_bits::{last_kernel, same};
use crate::model::PerfModel;
use crate::stream::Cmd;
use ca_scalar::rng::SplitMix64;
use ca_scalar::Precision;
use ca_sparse::{Coo, Csr, Ell, Hyb};
use std::ops::Range;
use std::sync::Arc;

// ---------- the retained reference loops ----------

/// `A(rows, :) * x` as the slot-major ELLPACK of width `width` followed by
/// the COO tail computed it, per row; f32 slices round `x` and the values
/// first, accumulate in f32 and widen the finished sum.
fn ref_spmv(a: &Csr, rows: &[u32], width: usize, prec: Precision, x: &[f64]) -> Vec<f64> {
    let row = |i: usize, r: u32| {
        let (cols, vals) = a.row(r as usize);
        let pad = i % a.ncols().max(1);
        match prec {
            Precision::F64 => {
                let mut acc = 0.0f64;
                for k in 0..width {
                    acc +=
                        if k < cols.len() { vals[k] * x[cols[k] as usize] } else { 0.0 * x[pad] };
                }
                for k in width..cols.len() {
                    acc += vals[k] * x[cols[k] as usize];
                }
                acc
            }
            Precision::F32 => {
                let mut acc = 0.0f32;
                for k in 0..width {
                    acc += if k < cols.len() {
                        vals[k] as f32 * x[cols[k] as usize] as f32
                    } else {
                        0.0 * x[pad] as f32
                    };
                }
                for k in width..cols.len() {
                    acc += vals[k] as f32 * x[cols[k] as usize] as f32;
                }
                acc as f64
            }
        }
    };
    rows.iter().enumerate().map(|(i, &r)| row(i, r)).collect()
}

/// The old `spmv_shift_scatter` after its SpMV.
#[allow(clippy::too_many_arguments)]
fn ref_shift_scatter(
    y: Vec<f64>,
    rows_v: &[u32],
    prec: Precision,
    zc: &[f64],
    zn: &mut [f64],
    re: f64,
    im2: f64,
    scale: f64,
) {
    let shifted: Vec<f64> = if re != 0.0 || scale != 1.0 {
        match prec {
            Precision::F64 => {
                rows_v.iter().zip(&y).map(|(&r, &yi)| scale * (yi - re * zc[r as usize])).collect()
            }
            Precision::F32 => rows_v
                .iter()
                .zip(&y)
                .map(|(&r, &yi)| {
                    (scale as f32 * (yi as f32 - re as f32 * zc[r as usize] as f32)) as f64
                })
                .collect(),
        }
    } else {
        y
    };
    if im2 != 0.0 {
        match prec {
            Precision::F64 => {
                for (&r, &v) in rows_v.iter().zip(&shifted) {
                    let old = zn[r as usize];
                    zn[r as usize] = v + im2 * old;
                }
            }
            Precision::F32 => {
                for (&r, &v) in rows_v.iter().zip(&shifted) {
                    let old = zn[r as usize];
                    zn[r as usize] = (v as f32 + im2 as f32 * old as f32) as f64;
                }
            }
        }
    } else {
        for (&r, &v) in rows_v.iter().zip(&shifted) {
            zn[r as usize] = v;
        }
    }
}

// ---------- seeded inputs ----------

const N: usize = 203;

/// Rows of 0 to 9 entries and one hub row that gives the hybrid format a tail.
fn irregular(rng: &mut SplitMix64) -> Csr {
    let mut c = Coo::new(N, N);
    for i in 0..N {
        let len = if i == 77 { 40 } else { (rng.next_u64() % 10) as usize };
        let first = (rng.next_u64() % N as u64) as usize;
        for k in 0..len {
            c.add(i, (first + 5 * k) % N, rng.wide());
        }
    }
    c.to_csr()
}

fn finite(rng: &mut SplitMix64) -> Vec<f64> {
    (0..N).map(|_| rng.wide()).collect()
}

/// NaN, both infinities, `-0.0` and a finite value that rounds to an
/// infinity in `f32`, planted among ordinary values.
fn poisoned(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.next_u64() % 24 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 1e39,
            _ => rng.wide(),
        })
        .collect()
}

/// The contiguous local block, scattered level rows, a lone row, no rows.
fn row_sets(rng: &mut SplitMix64) -> Vec<Vec<u32>> {
    let scattered = (0..N as u32).filter(|_| rng.next_u64().is_multiple_of(3)).collect();
    vec![(40..121).collect(), scattered, vec![77], Vec::new()]
}

#[derive(Clone, Copy, Debug)]
enum Format {
    Ell,
    Hyb,
}

const FORMATS: [(Format, Precision); 4] = [
    (Format::Ell, Precision::F64),
    (Format::Ell, Precision::F32),
    (Format::Hyb, Precision::F64),
    (Format::Hyb, Precision::F32),
];

/// The slice in the given format, its ELL width, and what one SpMV on it is
/// charged.
fn storage(a: &Csr, rows: &[u32], (format, prec): (Format, Precision)) -> (SpStorage, usize, f64) {
    let rows_usize: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
    let sel = a.select_rows(&rows_usize);
    let (model, n) = (PerfModel::default(), rows.len());
    match (format, prec) {
        (Format::Ell, Precision::F64) => {
            let e = Ell::from_csr(&sel);
            let (w, dt) = (e.width(), model.spmv_time(e.padded_nnz(), n, prec));
            (SpStorage::Ell(e), w, dt)
        }
        (Format::Ell, Precision::F32) => {
            let e = Ell::from_csr(&sel.cast::<f32>());
            let (w, dt) = (e.width(), model.spmv_time(e.padded_nnz(), n, prec));
            (SpStorage::EllF32(e), w, dt)
        }
        (Format::Hyb, Precision::F64) => {
            let h = Hyb::from_csr(&sel, 0.5);
            let (w, dt) = (h.width(), model.spmv_hyb_time(h.width() * n, h.spilled(), n, prec));
            (SpStorage::Hyb(h), w, dt)
        }
        (Format::Hyb, Precision::F32) => {
            let h = Hyb::from_csr(&sel.cast::<f32>(), 0.5);
            let (w, dt) = (h.width(), model.spmv_hyb_time(h.width() * n, h.spilled(), n, prec));
            (SpStorage::HybF32(h), w, dt)
        }
    }
}

fn blas1_at(prec: Precision, words: usize) -> f64 {
    PerfModel::default().blas1_time(words, prec)
}

fn device(faults: &Option<Arc<FaultPlan>>) -> Device {
    let mut d = Device::new(0, Arc::new(PerfModel::default()), false);
    d.enable_trace();
    d.set_faults(faults.clone());
    d
}

/// The SpMV output after the plan's hit on op `op`, if it has one.
fn with_sdc(mut y: Vec<f64>, faults: &Option<Arc<FaultPlan>>, op: u64) -> Vec<f64> {
    if let Some(e) = faults.as_ref().and_then(|p| p.sdc_event(0, op, SdcKind::Spmv)) {
        e.apply(&mut y);
    }
    y
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(same(g, w), "{what}: element {i}: {g} vs {w}");
    }
}

fn fault_arms() -> [Option<Arc<FaultPlan>>; 2] {
    [None, Some(Arc::new(FaultPlan::new(9).with_sdc(1.0, SdcTargets::spmv_only())))]
}

/// The SpMV input of one arm: NaN and infinities without a fault plan,
/// finite under SDC — a flipped exponent bit turns a NaN into a number whose
/// sign and mantissa are the NaN's payload, which no kernel promises.
fn input(rng: &mut SplitMix64, faults: &Option<Arc<FaultPlan>>) -> Vec<f64> {
    if faults.is_some() {
        finite(rng)
    } else {
        poisoned(rng, N)
    }
}

/// `(re, im2, scale)`: monomial, real shift, scaled, shifted and scaled,
/// second step of a conjugate pair without and with a real part, Chebyshev.
const STEPS: [(f64, f64, f64); 7] = [
    (0.0, 0.0, 1.0),
    (1.5, 0.0, 1.0),
    (0.0, 0.0, 0.5),
    (0.7, 0.0, 2.0),
    (0.0, 9.0, 1.0),
    (2.0, 9.0, 1.0),
    (4.0, -1.0, 0.57),
];

#[test]
fn scatter_kernels_match_the_collecting_bodies() {
    let mut rng = SplitMix64::new(0x2014_0527);
    let a = irregular(&mut rng);
    let mut cases = 0;
    for rows in row_sets(&mut rng) {
        for fp in FORMATS {
            for faults in fault_arms() {
                let (st, width, spmv_dt) = storage(&a, &rows, fp);
                let prec = fp.1;
                let fused =
                    spmv_dt + blas1_at(prec, 2 * rows.len()) - PerfModel::default().launch_s;
                let mut d = device(&faults);
                let s = d.load_slice_storage(st, rows.clone()).expect("fits");
                let (zc, zn) = (d.alloc_vec(N).expect("fits"), d.alloc_vec(N).expect("fits"));
                let what = format!("{} rows, {fp:?}, sdc {}", rows.len(), faults.is_some());

                for (re, im2, scale) in STEPS {
                    let (x, old) = (input(&mut rng, &faults), poisoned(&mut rng, N));
                    d.vec_mut(zc).copy_from_slice(&x);
                    d.vec_mut(zn).copy_from_slice(&old);
                    let op = d.ops();
                    d.spmv_shift_scatter(s, zc, zn, re, im2, scale);

                    let y = with_sdc(ref_spmv(&a, &rows, width, prec, &x), &faults, op);
                    let mut want = old;
                    ref_shift_scatter(y, &rows, prec, &x, &mut want, re, im2, scale);
                    let what = format!("spmv_shift_scatter({re}, {im2}, {scale}) {what}");
                    assert_bits(d.vec(zn), &want, &what);
                    assert_bits(d.vec(zc), &x, &format!("{what}: z_cur"));
                    assert_eq!(last_kernel(&d), ("mpk_step", fused), "{what}");
                    assert_eq!(d.ops(), op + 1, "{what}");
                    cases += 1;
                }

                // the double buffer the other way round
                let (x, old) = (input(&mut rng, &faults), poisoned(&mut rng, N));
                d.vec_mut(zn).copy_from_slice(&x);
                d.vec_mut(zc).copy_from_slice(&old);
                let op = d.ops();
                d.spmv_shift_scatter(s, zn, zc, 0.3, 2.0, 1.25);
                let y = with_sdc(ref_spmv(&a, &rows, width, prec, &x), &faults, op);
                let mut want = old;
                ref_shift_scatter(y, &rows, prec, &x, &mut want, 0.3, 2.0, 1.25);
                assert_bits(d.vec(zc), &want, &format!("swapped buffers {what}"));

                let hits = if faults.is_some() { STEPS.len() as u64 + 1 } else { 0 };
                assert_eq!(d.sdc_injected(), hits, "{what}");
            }
        }
    }
    assert!(cases >= 200, "only {cases} cases");
}

#[test]
fn spmv_to_mat_col_matches_the_copying_body() {
    let mut rng = SplitMix64::new(108);
    let a = irregular(&mut rng);
    for rows in row_sets(&mut rng) {
        for fp in FORMATS {
            for faults in fault_arms() {
                let (st, width, spmv_dt) = storage(&a, &rows, fp);
                let mut d = device(&faults);
                let s = d.load_slice_storage(st, rows.clone()).expect("fits");
                let x = d.alloc_vec(N).expect("fits");
                let v = d.alloc_mat(rows.len(), 3).expect("fits");
                let xs = input(&mut rng, &faults);
                d.vec_mut(x).copy_from_slice(&xs);
                let side: Vec<f64> = (0..rows.len()).map(|_| rng.wide()).collect();
                d.mat_mut(v).set_col(0, &side);
                d.mat_mut(v).set_col(2, &side);
                let op = d.ops();
                d.spmv_to_mat_col(s, x, v, 1);
                let want = with_sdc(ref_spmv(&a, &rows, width, fp.1, &xs), &faults, op);
                let what = format!(
                    "spmv_to_mat_col {} rows, {fp:?}, sdc {}",
                    rows.len(),
                    faults.is_some()
                );
                assert_bits(d.mat(v).col(1), &want, &what);
                assert_bits(d.mat(v).col(0), &side, &format!("{what}: left neighbour"));
                assert_bits(d.mat(v).col(2), &side, &format!("{what}: right neighbour"));
                assert_eq!(last_kernel(&d), ("spmv", spmv_dt), "{what}");
                assert_eq!(d.ops(), op + 1);
                assert_eq!(d.sdc_injected(), faults.is_some() as u64);
            }
        }
    }
}

// ---------- one step, one kernel ----------

/// The slices of one step: the contiguous local block (`40..121`, or no
/// rows at all), then the boundary levels.
fn part_sets(rng: &mut SplitMix64) -> Vec<(&'static str, Vec<Vec<u32>>)> {
    let local: Vec<u32> = (40..121).collect();
    let outside = |rng: &mut SplitMix64, every: u64| -> Vec<u32> {
        (0..N as u32)
            .filter(|r| !local.contains(r) && rng.next_u64().is_multiple_of(every))
            .collect()
    };
    let (near, far) = (outside(rng, 3), outside(rng, 5));
    vec![
        ("no levels", vec![local.clone()]),
        ("one empty level", vec![local.clone(), Vec::new()]),
        ("zero-row local block", vec![Vec::new(), near.clone()]),
        // levels may share rows with each other (the later slice wins, in
        // both sequences), never with the local block
        ("three levels, one a lone row", vec![local.clone(), near, far, vec![5]]),
    ]
}

/// A device holding `parts`, its double buffer filled with `x` and `old`,
/// and a three-column basis whose columns all hold `side`.
#[allow(clippy::type_complexity)]
fn loaded(
    a: &Csr,
    parts: &[Vec<u32>],
    fp: (Format, Precision),
    faults: &Option<Arc<FaultPlan>>,
    (x, old, side): (&[f64], &[f64], &[f64]),
) -> (Device, Vec<crate::SpId>, (crate::VecId, crate::VecId), crate::MatId) {
    let mut d = device(faults);
    let ids = parts
        .iter()
        .map(|rows| d.load_slice_storage(storage(a, rows, fp).0, rows.clone()).expect("fits"))
        .collect();
    let (zc, zn) = (d.alloc_vec(N).expect("fits"), d.alloc_vec(N).expect("fits"));
    d.vec_mut(zc).copy_from_slice(x);
    d.vec_mut(zn).copy_from_slice(old);
    let v = d.alloc_mat(parts[0].len(), 3).expect("fits");
    for j in 0..3 {
        d.mat_mut(v).set_col(j, side);
    }
    (d, ids, (zc, zn), v)
}

#[test]
fn fused_step_is_the_per_slice_sequence_less_its_launches() {
    let mut rng = SplitMix64::new(0x0521);
    let a = irregular(&mut rng);
    let model = PerfModel::default();
    let launch = model.launch_s;
    let mut cases = 0;
    for (name, parts) in part_sets(&mut rng) {
        for fp in FORMATS {
            for step in STEPS {
                let prec = fp.1;
                let (x, old) = (poisoned(&mut rng, N), poisoned(&mut rng, N));
                let side: Vec<f64> = (0..parts[0].len()).map(|_| rng.wide()).collect();
                let what = format!("{name}, {fp:?}, step {step:?}");
                let run = |fused: bool| {
                    let (mut d, ids, (zc, zn), v) =
                        loaded(&a, &parts, fp, &None, (&x, &old, &side));
                    if fused {
                        d.mpk_step(&ids, zc, zn, step, (v, 1), None);
                    } else {
                        d.mpk_step_unfused(&ids, zc, zn, step, v, 1);
                    }
                    assert_bits(d.vec(zc), &x, &format!("{what}: z_cur"));
                    assert_bits(d.mat(v).col(0), &side, &format!("{what}: left neighbour"));
                    assert_bits(d.mat(v).col(2), &side, &format!("{what}: right neighbour"));
                    (d.vec(zn).to_vec(), d.mat(v).col(1).to_vec(), d.ops(), d.take_trace())
                };
                let (zn, col, ops, trace) = run(true);
                let (zn_want, col_want, ops_want, trace_want) = run(false);
                // every element, touched or not
                assert_bits(&zn, &zn_want, &format!("{what}: z_next"));
                assert_bits(&col, &col_want, &format!("{what}: basis column"));
                assert_eq!((ops, ops_want), (1, parts.len() as u64 + 1), "{what}: ops");

                // the clock. What the sequence is charged, command by command:
                let spmv: Vec<f64> = parts.iter().map(|rows| storage(&a, rows, fp).2).collect();
                let epilogue = |rows: &Vec<u32>| blas1_at(prec, 2 * rows.len());
                let copy = model.blas1_time(2 * parts[0].len(), Precision::F64);
                let mut unfused: Vec<f64> =
                    parts.iter().zip(&spmv).map(|(r, t)| t + epilogue(r) - launch).collect();
                unfused.push(copy);
                let modeled = |t: &[Cmd]| -> Vec<f64> {
                    t.iter()
                        .map(|c| match c {
                            Cmd::Kernel { modeled, .. } => *modeled,
                            other => panic!("{what}: {other:?}"),
                        })
                        .collect()
                };
                assert_eq!(modeled(&trace_want), unfused, "{what}: the sequence");
                // ... and the one kernel: one launch, then each of those
                // kernels' streaming time
                let mut fused = launch;
                for (rows, t) in parts.iter().zip(&spmv) {
                    fused += (t - launch) + (epilogue(rows) - launch);
                }
                fused += copy - launch;
                assert_eq!(modeled(&trace), [fused], "{what}: the kernel");
                assert!(matches!(trace[0], Cmd::Kernel { name: "mpk_step", .. }));
                // which is the sequence with every launch but one refunded
                let saved = unfused.iter().sum::<f64>() - fused;
                let launches = parts.len() as f64 * launch;
                assert!((saved - launches).abs() < 1e-12 * launches, "{what}: saved {saved}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 4 * FORMATS.len() * STEPS.len());
}

#[test]
fn the_one_sdc_hit_lands_in_the_concatenated_spmv_output() {
    // the outputs of the slices, local block first, are one array to the
    // hit: undoing the flip on the oracle's y is the only difference
    // between a faulty step and a clean one
    let mut rng = SplitMix64::new(5);
    let a = irregular(&mut rng);
    let plan = FaultPlan::new(9).with_sdc(1.0, SdcTargets::spmv_only());
    let e = plan.sdc_event(0, 0, SdcKind::Spmv).expect("rate 1 hits every op");
    let faults = Some(Arc::new(plan));
    // hits that landed in the local block, and beyond it
    let (mut in_local, mut in_levels) = (0, 0);
    for (name, parts) in part_sets(&mut rng) {
        for fp in FORMATS {
            let (x, old) = (finite(&mut rng), finite(&mut rng));
            let side = vec![0.0; parts[0].len()];
            let (mut d, ids, (zc, zn), v) = loaded(&a, &parts, fp, &faults, (&x, &old, &side));
            let step = (0.7, 9.0, 2.0);
            d.mpk_step(&ids, zc, zn, step, (v, 1), None);
            assert_eq!((d.sdc_injected(), d.ops()), (1, 1), "{name}, {fp:?}");

            let mut y: Vec<f64> = parts
                .iter()
                .flat_map(|rows| ref_spmv(&a, rows, storage(&a, rows, fp).1, fp.1, &x))
                .collect();
            let hit = (e.lane % y.len() as u64) as usize;
            y[hit] = f64::from_bits(y[hit].to_bits() ^ (1u64 << e.bit));
            if hit < parts[0].len() {
                in_local += 1;
            } else {
                in_levels += 1;
            }
            let mut want = old;
            let mut y = &y[..];
            for rows in &parts {
                let (yp, rest) = y.split_at(rows.len());
                ref_shift_scatter(yp.to_vec(), rows, fp.1, &x, &mut want, step.0, step.1, step.2);
                y = rest;
            }
            assert_bits(d.vec(zn), &want, &format!("{name}, {fp:?}"));
            if let Some(&first) = parts[0].first() {
                let local = first as usize..first as usize + parts[0].len();
                assert_bits(d.mat(v).col(1), &want[local], &format!("{name}, {fp:?}: column"));
            }
        }
    }
    assert!(in_local > 0 && in_levels > 0, "local {in_local}, levels {in_levels}");
}

#[test]
fn local_block_copies_match_the_indexed_loops() {
    let mut rng = SplitMix64::new(7);
    let model = PerfModel::default();
    for range in [40..121, 0..N, 9..10, 5..5] {
        let rows: Vec<u32> = range.clone().map(|r| r as u32).collect();
        let mut d = device(&None);
        let z = d.alloc_vec(N).expect("fits");
        let v = d.alloc_mat(rows.len(), 2).expect("fits");
        let zs = poisoned(&mut rng, N);
        let what = format!("rows {range:?}");

        // gather_vec_to_col: V[i, col] := z[rows[i]]
        d.vec_mut(z).copy_from_slice(&zs);
        let op = d.ops();
        d.gather_vec_to_col(z, range.clone(), v, 1);
        let want: Vec<f64> = rows.iter().map(|&r| zs[r as usize]).collect();
        assert_bits(d.mat(v).col(1), &want, &format!("gather_vec_to_col {what}"));
        assert_bits(d.mat(v).col(0), &vec![0.0; rows.len()], "gather_vec_to_col: neighbour");
        assert_eq!(
            last_kernel(&d),
            ("gather_col", model.blas1_time(2 * rows.len(), Precision::F64))
        );
        assert_eq!(d.ops(), op + 1);

        // scatter_col_to_vec_p: z[rows[i]] := quantize(V[i, col])
        for prec in [Precision::F64, Precision::F32] {
            let col: Vec<f64> = poisoned(&mut rng, rows.len());
            d.mat_mut(v).set_col(0, &col);
            d.vec_mut(z).copy_from_slice(&zs);
            let op = d.ops();
            d.scatter_col_to_vec_p(v, 0, z, range.clone(), prec);
            let mut want = zs.clone();
            for (i, &r) in rows.iter().enumerate() {
                want[r as usize] = prec.quantize(col[i]);
            }
            assert_bits(d.vec(z), &want, &format!("scatter_col_to_vec_p {prec:?} {what}"));
            assert_eq!(last_kernel(&d), ("scatter_col", blas1_at(prec, 2 * rows.len())));
            assert_eq!(d.ops(), op + 1);
        }
    }
}

#[test]
fn lost_device_runs_no_sparse_kernel() {
    let mut rng = SplitMix64::new(1);
    let a = irregular(&mut rng);
    let local: Range<usize> = 40..121;
    let rows: Vec<u32> = local.clone().map(|r| r as u32).collect();
    for fp in FORMATS {
        let (st, ..) = storage(&a, &rows, fp);
        let mut d = device(&Some(Arc::new(FaultPlan::new(0).with_device_loss(0, 0))));
        let s = d.load_slice_storage(st, rows.clone()).expect("fits");
        let (zc, zn) = (d.alloc_vec(N).expect("fits"), d.alloc_vec(N).expect("fits"));
        let v = d.alloc_mat(rows.len(), 2).expect("fits");
        let (x, old) = (poisoned(&mut rng, N), poisoned(&mut rng, N));
        d.vec_mut(zc).copy_from_slice(&x);
        d.vec_mut(zn).copy_from_slice(&old);
        d.mat_mut(v).set_col(1, &x[..rows.len()]);
        d.scal_col(v, 0, 1.0); // the first op kills the device
        assert!(d.is_lost());
        let (ops, clock, cmds) = (d.ops(), d.clock(), d.trace().len());

        d.mpk_step(&[s], zc, zn, (1.5, 9.0, 0.5), (v, 1), None);
        d.mpk_step_unfused(&[s], zc, zn, (1.5, 9.0, 0.5), v, 1);
        d.spmv_to_mat_col(s, zc, v, 1);
        d.gather_vec_to_col(zc, local.clone(), v, 1);
        d.scatter_col_to_vec_p(v, 1, zn, local.clone(), Precision::F32);

        assert_bits(d.vec(zc), &x, "z_cur");
        assert_bits(d.vec(zn), &old, "z_next");
        assert_bits(d.mat(v).col(1), &x[..rows.len()], "basis column");
        assert_eq!((d.ops(), d.clock(), d.trace().len()), (ops, clock, cmds));
        assert_eq!(d.sdc_injected(), 0);
    }
}

// ---------- the sliced host layout ----------
//
// `ca_sparse::Ell` orders the rows by length inside windows of `WINDOW` slice
// rows, stores each chunk of eight no wider than its longest row plus one
// padding slot, and scatters the row sums back. None of that may show: the
// row-by-row oracle above still multiplies all `width - len` padding slots
// of the GPU format, in slice row order.

/// The sorting window of `ca_sparse::Ell`.
const WINDOW: usize = ca_sparse::ell::WINDOW_ROWS;

const ROW_COUNTS: [usize; 9] = [0, 1, 7, 8, 9, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 3];

/// `n x n` with `lens[i]` entries in row `i`, from column `i + 1` on
/// (cyclically, so its padding column `i` comes last) and none in a column
/// of `avoid`.
fn rows_of(lens: &[usize], avoid: &[usize], rng: &mut SplitMix64) -> Csr {
    let n = lens.len();
    let mut c = Coo::new(n, n);
    for (i, &len) in lens.iter().enumerate() {
        let free = (1..=n).map(|k| (i + k) % n).filter(|j| !avoid.contains(j));
        for j in free.take(len) {
            c.add(i, j, rng.wide());
        }
    }
    c.to_csr()
}

/// Runs of equal rows, runs of empty rows, rows of up to nine entries and
/// one of 40 per window (the hybrid format's tail).
fn windowed(rng: &mut SplitMix64, n: usize) -> Csr {
    let lens: Vec<usize> = (0..n)
        .map(|i| match (i % WINDOW, i / 16 % 4) {
            (77, _) => 40,
            (_, 0) => 3,
            (_, 1) => 0,
            _ => (rng.next_u64() % 10) as usize,
        })
        .collect();
    rows_of(&lens, &[], rng)
}

#[test]
fn sorted_windows_do_not_show_through_the_device() {
    let mut rng = SplitMix64::new(20);
    for n in ROW_COUNTS {
        let a = windowed(&mut rng, n);
        let rows: Vec<u32> = (0..n as u32).collect();
        for fp in FORMATS {
            let (st, width, spmv_dt) = storage(&a, &rows, fp);
            let prec = fp.1;
            let mut d = device(&None);
            let s = d.load_slice_storage(st, rows.clone()).expect("fits");
            let (zc, zn) = (d.alloc_vec(n).expect("fits"), d.alloc_vec(n).expect("fits"));
            let v = d.alloc_mat(n, 1).expect("fits");
            for (re, im2, scale) in [STEPS[0], STEPS[3], STEPS[5]] {
                let (x, old) = (poisoned(&mut rng, n), poisoned(&mut rng, n));
                d.vec_mut(zc).copy_from_slice(&x);
                d.vec_mut(zn).copy_from_slice(&old);
                d.mpk_step(&[s], zc, zn, (re, im2, scale), (v, 0), None);
                let y = ref_spmv(&a, &rows, width, prec, &x);
                let mut want = old;
                ref_shift_scatter(y.clone(), &rows, prec, &x, &mut want, re, im2, scale);
                let what = format!("{n} rows, {fp:?}, step ({re}, {im2}, {scale})");
                assert_bits(d.vec(zn), &want, &format!("mpk_step {what}"));
                assert_bits(d.mat(v).col(0), &want, &format!("mpk_step column {what}"));
                d.spmv_to_mat_col(s, zc, v, 0);
                assert_bits(d.mat(v).col(0), &y, &format!("spmv_to_mat_col {what}"));
                assert_eq!(last_kernel(&d), ("spmv", spmv_dt), "{what}");
            }
        }
    }
}

#[test]
fn one_kept_padding_slot_poisons_what_all_of_them_did() {
    // three rows that hold no entry in each other's or their own column:
    //   SHORT  2 entries, sorted into KEPT's chunk -> padded up to the chunk
    //   KEPT   5 entries, the longest of its chunk -> the one kept slot
    //   FULL   9 entries = width, the next window  -> no padding slot
    // so x[SHORT], x[KEPT] and x[FULL] are read by padding slots only
    const SHORT: usize = 5;
    const KEPT: usize = 100;
    const FULL: usize = WINDOW + 9;
    const { assert!(SHORT < KEPT && KEPT < WINDOW) };
    let n = 2 * WINDOW + 3;
    let mut rng = SplitMix64::new(0x5e11);
    let mut lens = vec![1; n];
    (lens[SHORT], lens[KEPT], lens[FULL]) = (2, 5, 9);
    let a = rows_of(&lens, &[SHORT, KEPT, FULL], &mut rng);
    let rows: Vec<u32> = (0..n as u32).collect();
    let clean: Vec<f64> = (0..n).map(|_| rng.wide()).collect();

    for fp in FORMATS {
        let (st, width, _) = storage(&a, &rows, fp);
        let mut d = device(&None);
        let s = d.load_slice_storage(st, rows.clone()).expect("fits");
        let (zc, zn) = (d.alloc_vec(n).expect("fits"), d.alloc_vec(n).expect("fits"));
        let v = d.alloc_mat(n, 1).expect("fits");
        let mut run = |x: &[f64]| {
            d.vec_mut(zc).copy_from_slice(x);
            d.mpk_step(&[s], zc, zn, (0.0, 0.0, 1.0), (v, 0), None);
            let got = d.vec(zn).to_vec();
            assert_bits(&got, &ref_spmv(&a, &rows, width, fp.1, x), &format!("{fp:?}"));
            got
        };
        let y_clean = run(&clean);
        assert!(y_clean.iter().all(|v| v.is_finite()));
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e39] {
            let mut x = clean.clone();
            (x[SHORT], x[KEPT], x[FULL]) = (poison, poison, poison);
            let y = run(&x);
            // a hybrid slice of width 1 pads no row at all; the oracle above
            // has already said so, the rest is about plain ELLPACK
            let Format::Ell = fp.0 else { continue };
            assert_eq!(width, 9);
            let lost = poison.is_nan()
                || poison.is_infinite()
                || (fp.1 == Precision::F32 && (poison as f32).is_infinite());
            for (i, (&got, &was)) in y.iter().zip(&y_clean).enumerate() {
                if lost && (i == SHORT || i == KEPT) {
                    assert!(got.is_nan(), "{fp:?}: row {i} lost x[{i}] = {poison}: {got}");
                } else {
                    assert!(same(got, was), "{fp:?}: row {i} moved under {poison}");
                }
            }
        }
    }
}
