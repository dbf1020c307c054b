//! Calibration: replay micro-kernel shapes through the simulator and fit
//! a [`MachineProfile`].
//!
//! The replay set mirrors the paper's Figure 11 methodology — sweep the
//! block width `k` through the shapes CA-GMRES actually produces (tall
//! 40000-row panels, `k` from 2 to 31) and record the achieved rate per
//! kernel family — plus straight-line fits that recover the underlying
//! [`PerfModel`] parameters from the measured times:
//!
//! * BLAS-1 copies at several lengths give `launch_s` (intercept) and
//!   `blas1_bw` (slope);
//! * GEMV and TRSM sweeps give their bandwidths by a slope fit through
//!   the known launch overhead;
//! * the two GEMM variants are two-parameter fits (throughput cap and
//!   bandwidth cap) solved by least squares over the `k` sweep;
//! * one-sided uploads of 8 B and 4 MiB against a two-device executor
//!   separate `host_msg_s`, `pcie_latency_s`, and `pcie_bw`;
//! * host compute probes give `host_flops` and `host_mem_bw`.
//!
//! Parameters that replay alone cannot identify — one factor of a
//! product that only ever appears as the product (`geqr2.bw` next to
//! `geqr2.tput`, `dev_mem_bw` under `eff_spmv`), or hardware facts with
//! no kernel to time (`dev_mem_capacity`, the `net_*` pair on a
//! single-node box) — are carried over from the hint model and marked
//! [`crate::profile::ParamSource::Hint`].
//!
//! Everything here is deterministic: fixed shapes, fixed synthetic
//! operands, exact closed-form fits. Re-running calibration against the
//! same model reproduces the committed profile bit for bit (CI asserts
//! this).

use crate::profile::{MachineProfile, NamedCurve};
use ca_gpusim::device::SpStorage;
use ca_gpusim::{Device, EffCurve, GemmVariant, GemvVariant, KernelConfig, MultiGpu, PerfModel};
use ca_scalar::Precision::{self, F32, F64};
use ca_sparse::{Csr, Ell};

/// Panel height for the dense-kernel sweeps (the paper's basis panels on
/// one M2090 are this order of magnitude).
const PANEL_ROWS: usize = 40_000;
/// Block widths for the Figure 11 GEMM/GEMV sweeps.
const GEMM_KS: [usize; 7] = [2, 4, 8, 12, 16, 24, 31];
const GEMV_KS: [usize; 3] = [2, 8, 24];
const GEQR2_KS: [usize; 2] = [8, 24];
const TRSM_KS: [usize; 2] = [4, 16];
/// Vector lengths for the BLAS-1 intercept/slope fit.
const BLAS1_ROWS: [usize; 4] = [2_048, 8_192, 32_768, 131_072];
/// Grid sides for the SpMV probe (5-point Laplacian, ELL width 5).
const SPMV_GRIDS: [usize; 2] = [40, 80];

/// Run the full replay set against `hint` and fit a profile.
///
/// `hint` is both the machine being profiled (the replay executes on a
/// [`MultiGpu`] built from it) and the source of the non-identifiable
/// parameters.
#[must_use]
pub fn calibrate(hint: &PerfModel, config: KernelConfig, machine: &str) -> MachineProfile {
    let mut fit: Vec<(&'static str, f64)> = Vec::new();
    let mut curves: Vec<NamedCurve> = Vec::new();

    let mut mg = MultiGpu::new(1, hint.clone(), config);

    // ---- BLAS-1: intercept = launch, slope = 1/bandwidth ----
    let (xs, ts): (Vec<f64>, Vec<f64>) = BLAS1_ROWS
        .iter()
        .map(|&r| {
            let v = mg.device_mut(0).alloc_mat(r, 2).expect("calibration alloc");
            (16.0 * r as f64, probe(&mut mg, |dev| dev.copy_col(v, 0, 1)))
        })
        .unzip();
    let (launch_s, inv_blas1_bw) = fit_affine(&xs, &ts);
    fit.push(("launch_s", launch_s));
    fit.push(("blas1_bw", 1.0 / inv_blas1_bw));
    curves.push(NamedCurve {
        name: "blas1".into(),
        unit: "GB/s".into(),
        curve: EffCurve::from_knots(
            xs.iter().zip(&ts).map(|(&x, &t)| (x / 8.0, x / t / 1e9)).collect(),
        ),
    });

    // ---- shared tall panel for the dense-kernel sweeps ----
    let panel = mg.device_mut(0).alloc_mat(PANEL_ROWS, 34).expect("calibration alloc");
    fill_panel(mg.device_mut(0), panel, 34);

    // ---- GEMV (both variants): slope fit through the known launch ----
    for (variant, pname, cname) in [
        (GemvVariant::Cublas, "gemv_cublas_bw", "gemv_cublas"),
        (GemvVariant::MagmaTallSkinny, "gemv_magma_bw", "gemv_magma"),
    ] {
        let (xs, ts): (Vec<f64>, Vec<f64>) = GEMV_KS
            .iter()
            .map(|&k| {
                let t = probe(&mut mg, |dev| {
                    dev.gemv_t_cols(panel, 0, k, 33, variant);
                });
                (8.0 * PANEL_ROWS as f64 * (k + 1) as f64, t)
            })
            .unzip();
        let ys: Vec<f64> = ts.iter().map(|t| t - launch_s).collect();
        fit.push((pname, 1.0 / fit_slope(&xs, &ys)));
        curves.push(NamedCurve {
            name: cname.into(),
            unit: "GB/s".into(),
            curve: EffCurve::from_knots(
                GEMV_KS
                    .iter()
                    .zip(xs.iter().zip(&ts))
                    .map(|(&k, (&x, &t))| (k as f64, x / t / 1e9))
                    .collect(),
            ),
        });
    }

    // ---- GEMM (both variants): 2-parameter (tput, bw) fit over the
    // Figure 11 k sweep, using SYRK panels W^T W ----
    let batched = match config.gemm {
        b @ GemmVariant::Batched { .. } => b,
        GemmVariant::Cublas => GemmVariant::Batched { h: 384 },
    };
    for (variant, tname, bname, cname) in [
        (batched, "gemm_batched.tput", "gemm_batched.bw", "gemm_batched"),
        (GemmVariant::Cublas, "gemm_cublas.tput", "gemm_cublas.bw", "gemm_cublas"),
    ] {
        let m = PANEL_ROWS as f64;
        let mut fs = Vec::new(); // flop regressor
        let mut gs = Vec::new(); // effective-bytes regressor
        let mut ys = Vec::new();
        let mut knots = Vec::new();
        for &k in &GEMM_KS {
            let t = probe(&mut mg, |dev| {
                dev.syrk_cols(panel, 0, k, variant);
            });
            let flops = 2.0 * m * (k * k) as f64;
            // the bandwidth cap is scaled by the skinny factor
            // k2/(k2+2) for both variants: fold it into the regressor
            let skinny = k as f64 / (k + 2) as f64;
            let (launches, geff) = match variant {
                GemmVariant::Cublas => (1.0, 8.0 * m * (2 * k) as f64 / skinny),
                GemmVariant::Batched { h } => {
                    let rows = (h.div_ceil(32).max(1)) * 32;
                    let nbatch = PANEL_ROWS.div_ceil(rows);
                    let padded = (nbatch * rows) as f64;
                    let bytes = 8.0 * padded * (2 * k) as f64 + 8.0 * (nbatch * k * k) as f64;
                    (2.0, bytes / skinny)
                }
            };
            fs.push(flops);
            gs.push(geff);
            ys.push(t - launches * launch_s);
            knots.push((k as f64, flops / t / 1e9));
        }
        let (u, w) = fit2(&fs, &gs, &ys);
        fit.push((tname, 1.0 / u));
        fit.push((bname, 1.0 / w));
        curves.push(NamedCurve {
            name: cname.into(),
            unit: "GFLOP/s".into(),
            curve: EffCurve::from_knots(knots),
        });
    }

    // ---- GEQR2: flop and byte terms share the 4 m k^2 shape, so only
    // their combined rate is identifiable; take bw from the hint ----
    {
        let m = PANEL_ROWS as f64;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut knots = Vec::new();
        for &k in &GEQR2_KS {
            fill_panel(mg.device_mut(0), panel, 34); // restore full rank
            let t = probe(&mut mg, |dev| {
                dev.local_qr_cols(panel, 0, k);
            });
            let work = 4.0 * m * (k * k) as f64;
            xs.push(work);
            ys.push(t - k as f64 * launch_s);
            knots.push((k as f64, work / t / 1e9));
        }
        let rho = fit_slope(&xs, &ys); // 1/tput + 1/bw
        let inv_bw = 1.0 / hint.param("geqr2.bw").expect("known param");
        if rho > inv_bw {
            fit.push(("geqr2.tput", 1.0 / (rho - inv_bw)));
        }
        curves.push(NamedCurve {
            name: "geqr2".into(),
            unit: "GFLOP/s".into(),
            curve: EffCurve::from_knots(knots),
        });
    }

    // ---- TRSM: slope fit ----
    {
        let m = PANEL_ROWS as f64;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut knots = Vec::new();
        for &k in &TRSM_KS {
            let r = upper_triangular(k);
            let t = probe(&mut mg, |dev| {
                dev.trsm_cols(panel, 0, k, &r).expect("nonsingular R");
            });
            let bytes = 16.0 * m * k as f64;
            xs.push(bytes);
            ys.push(t - launch_s);
            knots.push((k as f64, bytes / t / 1e9));
        }
        fit.push(("trsm_bw", 1.0 / fit_slope(&xs, &ys)));
        curves.push(NamedCurve {
            name: "trsm".into(),
            unit: "GB/s".into(),
            curve: EffCurve::from_knots(knots),
        });
    }

    // ---- SpMV, per precision: only the product eff_spmv * dev_mem_bw is
    // identifiable; recover the efficiency against the hint's memory
    // bandwidth (f32 is the curve the mixed-precision planner evaluates) ----
    for (prec, param, name) in [(F64, "eff_spmv", "spmv"), (F32, "eff_spmv_f32", "spmv_f32")] {
        let mut knots = Vec::new();
        let mut last_rate = 0.0;
        for &g in &SPMV_GRIDS {
            let (rows, rate) = spmv_probe(&mut mg, &ca_sparse::gen::laplace2d(g, g), prec);
            knots.push((rows as f64, rate / 1e9));
            last_rate = rate;
        }
        fit.push((param, last_rate / hint.param("dev_mem_bw").expect("known param")));
        curves.push(NamedCurve {
            name: name.into(),
            unit: "GB/s".into(),
            curve: EffCurve::from_knots(knots),
        });
    }

    // ---- transfers: a two-device executor separates the per-message
    // host cost from the per-copy PCIe latency ----
    {
        let mut mg2 = MultiGpu::new(2, hint.clone(), config);
        let two = host_probe(&mut mg2, &[8, 8]); // lat + 8/bw + 2 msg
        let one = host_probe(&mut mg2, &[8, 0]); // lat + 8/bw + 1 msg
        let host_msg_s = two - one;
        let big: usize = 4 << 20;
        let t_big = host_probe(&mut mg2, &[big, 0]);
        let pcie_bw = (big - 8) as f64 / (t_big - one);
        let pcie_latency_s = one - 8.0 / pcie_bw - host_msg_s;
        fit.push(("host_msg_s", host_msg_s));
        fit.push(("pcie_bw", pcie_bw));
        fit.push(("pcie_latency_s", pcie_latency_s));

        // host compute probes
        let h0 = mg2.host_time();
        mg2.host_compute(2e9, 0.0);
        let h1 = mg2.host_time();
        mg2.host_compute(0.0, 2e9);
        let h2 = mg2.host_time();
        fit.push(("host_flops", 2e9 / (h1 - h0)));
        fit.push(("host_mem_bw", 2e9 / (h2 - h1)));
    }

    MachineProfile::assemble(machine, hint, &fit, curves)
}

/// Run `op` on device 0 and return its busy-time delta (the exact kernel
/// charge: no faults are installed, so observed == modeled).
fn probe<F: Fn(&mut Device) + Sync>(mg: &mut MultiGpu, op: F) -> f64 {
    let t0 = mg.device(0).busy_time();
    mg.run(|d, dev| {
        if d == 0 {
            op(dev);
        }
    });
    mg.device(0).busy_time() - t0
}

/// Host-clock delta of one synchronous upload batch, from a flattened
/// clock (so link backlog from the previous probe cannot leak in).
fn host_probe(mg: &mut MultiGpu, bytes: &[usize]) -> f64 {
    mg.sync();
    let h0 = mg.host_time();
    mg.to_host(bytes).expect("no faults installed");
    mg.host_time() - h0
}

/// Load `a` as one full-matrix ELL slice at `prec` on device 0 and time
/// one SpMV; returns (rows, achieved bytes/s) under the byte model of
/// [`ca_gpusim::PerfModel::spmv_time`]: `w + 4`-byte (value, index) slots,
/// `w`-byte results and `2w` bytes of gather per slot, `w` = `prec.bytes()`.
fn spmv_probe(mg: &mut MultiGpu, a: &Csr, prec: Precision) -> (usize, f64) {
    let n = a.nrows();
    let storage = match prec {
        F64 => SpStorage::Ell(Ell::from_csr(a)),
        F32 => SpStorage::EllF32(Ell::from_csr(&a.cast::<f32>())),
    };
    let (padded, w) = (storage.shape().slots, prec.bytes());
    let dev = mg.device_mut(0);
    let sp = dev.load_slice_storage(storage, (0..n as u32).collect()).expect("calibration alloc");
    let x = dev.alloc_vec(n).expect("calibration alloc");
    let y = dev.alloc_mat(n, 1).expect("calibration alloc");
    let t = probe(mg, |dev| dev.spmv_to_mat_col(sp, x, y, 0));
    let bytes = (padded * (w + 4) + n * w + 2 * padded * w) as f64;
    (n, bytes / (t - mg.model().param("launch_s").unwrap_or(0.0)))
}

/// Deterministic full-rank filler for the shared measurement panel.
fn fill_panel(dev: &mut Device, panel: ca_gpusim::MatId, cols: usize) {
    let rows = dev.mat(panel).nrows();
    for j in 0..cols {
        let col: Vec<f64> = (0..rows)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(j as u64 * 0x85eb_ca6b);
                let noise = (h >> 11) as f64 / (1u64 << 53) as f64;
                0.5 + noise + if i % 34 == j { 2.0 } else { 0.0 }
            })
            .collect();
        dev.mat_mut(panel).set_col(j, &col);
    }
}

/// Deterministic nonsingular upper-triangular factor for the TRSM probe.
fn upper_triangular(k: usize) -> ca_dense::Mat {
    ca_dense::Mat::from_fn(k, k, |i, j| {
        if j > i {
            1.0 / (i + j + 1) as f64
        } else if j == i {
            2.0 + i as f64 * 0.25
        } else {
            0.0
        }
    })
}

/// Least squares `t ~ a + c x`; exact on exactly-affine data.
fn fit_affine(xs: &[f64], ts: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let st: f64 = ts.iter().sum();
    let sxt: f64 = xs.iter().zip(ts).map(|(x, t)| x * t).sum();
    let c = (n * sxt - sx * st) / (n * sxx - sx * sx);
    ((st - c * sx) / n, c)
}

/// Least squares through the origin `t ~ c x`.
fn fit_slope(xs: &[f64], ts: &[f64]) -> f64 {
    let sxt: f64 = xs.iter().zip(ts).map(|(x, t)| x * t).sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    sxt / sxx
}

/// Least squares `t ~ u f + w g` (two regressors, normal equations).
fn fit2(fs: &[f64], gs: &[f64], ts: &[f64]) -> (f64, f64) {
    let sff: f64 = fs.iter().map(|f| f * f).sum();
    let sgg: f64 = gs.iter().map(|g| g * g).sum();
    let sfg: f64 = fs.iter().zip(gs).map(|(f, g)| f * g).sum();
    let sft: f64 = fs.iter().zip(ts).map(|(f, t)| f * t).sum();
    let sgt: f64 = gs.iter().zip(ts).map(|(g, t)| g * t).sum();
    let det = sff * sgg - sfg * sfg;
    ((sft * sgg - sgt * sfg) / det, (sgt * sff - sft * sfg) / det)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ParamSource;

    #[test]
    fn fits_recover_the_default_model() {
        let hint = PerfModel::default();
        let p = calibrate(&hint, KernelConfig::default(), "roundtrip");
        // identifiable parameters must come back within fitting noise
        for name in [
            "launch_s",
            "blas1_bw",
            "gemv_cublas_bw",
            "gemv_magma_bw",
            "gemm_batched.tput",
            "gemm_batched.bw",
            "gemm_cublas.tput",
            "gemm_cublas.bw",
            "geqr2.tput",
            "trsm_bw",
            "eff_spmv",
            "eff_spmv_f32",
            "pcie_bw",
            "pcie_latency_s",
            "host_msg_s",
            "host_flops",
            "host_mem_bw",
        ] {
            let truth = hint.param(name).unwrap();
            let got = p.param(name).unwrap();
            let rel = ((got - truth) / truth).abs();
            assert!(rel < 1e-6, "{name}: fitted {got:e} vs true {truth:e} (rel {rel:e})");
        }
        // non-identifiable ones are carried over exactly and marked
        for p in p.params.iter().filter(|p| p.source == ParamSource::Hint) {
            assert_eq!(Some(p.value), hint.param(&p.name), "{}", p.name);
        }
    }

    #[test]
    fn calibration_is_deterministic() {
        let hint = PerfModel::default();
        let a = calibrate(&hint, KernelConfig::default(), "det");
        let b = calibrate(&hint, KernelConfig::default(), "det");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn fitted_profile_tracks_a_perturbed_machine() {
        // slow the PCIe bus and the batched GEMM: the fit must follow
        let mut machine = PerfModel::default();
        machine.set_param("pcie_bw", 2.9e9);
        machine.set_param("gemm_batched.tput", 80e9);
        let p = calibrate(&machine, KernelConfig::default(), "slowed");
        let bw = p.param("pcie_bw").unwrap();
        assert!((bw - 2.9e9).abs() / 2.9e9 < 1e-6, "pcie_bw fitted {bw:e}");
        let tput = p.param("gemm_batched.tput").unwrap();
        assert!((tput - 80e9).abs() / 80e9 < 1e-6, "gemm tput fitted {tput:e}");
    }
}
