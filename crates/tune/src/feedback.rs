//! Trace-driven calibration: fit a [`MachineProfile`] from a recorded
//! metrics snapshot instead of a micro-kernel replay.
//!
//! [`calibrate()`](crate::calibrate()) learns the machine by *probing*
//! it — replaying synthetic kernel shapes on an idle simulator. This
//! module learns the machine from *production traffic*: any instrumented
//! run (a solve, a whole `ca-serve` shift) whose device command traces
//! were ingested into `ca-obs` leaves behind, per kernel, paired
//! `kernel.<name>.s` / `kernel.<name>.modeled_s` histograms — the charged
//! duration including every fail-slow perturbation next to the
//! fault-free modeled duration — plus byte counters and copy-time
//! histograms for every PCIe transfer. [`calibrate_from_metrics`] turns
//! those into a profile:
//!
//! * kernels are grouped into **families** that share model parameters
//!   (BLAS-1, GEMV, GEMM, GEQR2, TRSM, SpMV); each family's observed
//!   slowdown `λ = Σ actual_s / Σ modeled_s` rescales its
//!   throughput-like parameters as `fitted = hint / λ`;
//! * the PCIe link's slowdown is fitted from total moved bytes and total
//!   copy seconds against the hint's expected copy time, scaling
//!   `pcie_bw` down and `pcie_latency_s` up — the same shape as the
//!   executor's fail-slow link multiplier;
//! * each observed family also contributes an informational
//!   `observed.<family>.slowdown` curve to the profile.
//!
//! On a healthy recording every kernel's charged duration equals its
//! modeled duration bit for bit, so the family ratios are exactly `1.0`
//! and the fitted parameters reproduce the hint exactly — a planner built
//! from the metrics-fitted profile ranks candidates identically to one
//! built from the hint. Sub-ppb ratios (float accumulation noise, e.g.
//! in the link fit's differently-ordered sums) are snapped to `1.0` so
//! that identity survives the parts of the fit that are not bitwise.

use crate::profile::{MachineProfile, NamedCurve};
use ca_gpusim::{EffCurve, PerfModel};
use ca_obs::names;
use ca_obs::MetricsSnapshot;

/// Kernel families sharing model parameters: `(family, kernels,
/// throughput-like params scaled by 1/λ)`.
const FAMILIES: &[(&str, &[&str], &[&str])] = &[
    (
        "blas1",
        &[
            "axpy",
            "scal",
            "dot",
            "copy_col",
            "abft_colsum",
            "abft_dot",
            "abft_block_dot",
            "scatter_col",
            "halo_pack",
            "halo_unpack",
        ],
        &["blas1_bw"],
    ),
    (
        "gemv",
        &["gemv_t", "gemv_n", "rank1_update", "gemm_q_last"],
        &["gemv_cublas_bw", "gemv_magma_bw"],
    ),
    (
        "gemm",
        &["syrk", "syrk_f32", "gemm_tn", "gemm_nn", "gemm_q_small", "gemm_q_rest"],
        &["gemm_batched.tput", "gemm_batched.bw", "gemm_cublas.tput", "gemm_cublas.bw"],
    ),
    ("geqr2", &["geqr2", "geqr2_tree"], &["geqr2.tput", "geqr2.bw"]),
    ("trsm", &["trsm"], &["trsm_bw"]),
    ("spmv", &["spmv", "mpk_step"], &["eff_spmv", "eff_spmv_f32"]),
];

/// Relative deviation from `1.0` below which an observed slowdown is
/// treated as float-accumulation noise and snapped to exactly `1.0`.
const LAMBDA_SNAP: f64 = 1e-9;

fn snap(lambda: f64) -> f64 {
    if (lambda - 1.0).abs() < LAMBDA_SNAP {
        1.0
    } else {
        lambda
    }
}

/// One family's fitted slowdown, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySlowdown {
    /// Family name (`blas1`, `gemv`, `gemm`, `geqr2`, `trsm`, `spmv`,
    /// or `link` for the PCIe fit).
    pub family: String,
    /// Observed-over-modeled time ratio (`1.0` = healthy).
    pub lambda: f64,
    /// Observed seconds backing the fit.
    pub observed_s: f64,
}

/// Fit a [`MachineProfile`] from the metrics of an instrumented run.
///
/// `metrics` must come from a recording whose device command traces were
/// ingested (`ca_gpusim::obs_ingest_traces`), so the per-kernel
/// `kernel.<name>.{s,modeled_s}` histogram pairs exist. Families with no
/// observed kernels keep their hint parameters (source `Hint`); observed
/// families get `Fit` parameters scaled by the measured slowdown and an
/// `observed.<family>.slowdown` curve. The PCIe link is fitted from
/// `comm.{h2d,d2h}.bytes*` counters and `copy.{h2d,d2h}.s` histograms.
#[must_use]
pub fn calibrate_from_metrics(
    metrics: &MetricsSnapshot,
    hint: &PerfModel,
    machine: &str,
) -> MachineProfile {
    let view = metrics.view();
    let mut fit: Vec<(&'static str, f64)> = Vec::new();
    let mut curves: Vec<NamedCurve> = Vec::new();

    // ---- kernel families: λ = Σ actual / Σ modeled ----
    for &(family, kernels, params) in FAMILIES {
        let (mut actual, mut modeled) = (0.0_f64, 0.0_f64);
        for &k in kernels {
            let (Some(a), Some(m)) = (
                view.histogram(&names::kernel_seconds(k)),
                view.histogram(&names::kernel_modeled_seconds(k)),
            ) else {
                continue;
            };
            actual += a.sum;
            modeled += m.sum;
        }
        if modeled <= 0.0 || !actual.is_finite() {
            continue; // family unobserved: hint params stand
        }
        let lambda = snap(actual / modeled);
        for &p in params {
            let hint_v = hint.param(p).expect("family param names are model params");
            fit.push((p, hint_v / lambda));
        }
        curves.push(NamedCurve {
            name: format!("observed.{family}.slowdown"),
            unit: "x".into(),
            // single knot: x = observed seconds backing the fit, y = λ
            // (the curve is constant, so evaluation is unaffected)
            curve: EffCurve::from_knots(vec![(actual, lambda)]),
        });
    }

    // ---- PCIe link: observed copy seconds vs the hint's expectation ----
    let copied_bytes: u64 = [
        names::COMM_D2H_BYTES,
        names::COMM_D2H_BYTES_F32,
        names::COMM_H2D_BYTES,
        names::COMM_H2D_BYTES_F32,
    ]
    .iter()
    .filter_map(|n| view.counter(n))
    .sum();
    let copies = [names::COPY_D2H_S, names::COPY_H2D_S]
        .iter()
        .filter_map(|n| view.histogram(n))
        .fold((0.0_f64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    let (copy_s, ncopies) = copies;
    if ncopies > 0 && copy_s > 0.0 {
        let expected = ncopies as f64 * hint.pcie_latency_s + copied_bytes as f64 / hint.pcie_bw;
        if expected > 0.0 {
            let lambda = snap(copy_s / expected).max(f64::MIN_POSITIVE);
            fit.push(("pcie_bw", hint.pcie_bw / lambda));
            fit.push(("pcie_latency_s", hint.pcie_latency_s * lambda));
            curves.push(NamedCurve {
                name: "observed.link.slowdown".into(),
                unit: "x".into(),
                curve: EffCurve::from_knots(vec![(copy_s, lambda)]),
            });
        }
    }

    MachineProfile::assemble(machine, hint, &fit, curves)
}

/// The observed slowdowns a metrics-fitted profile encodes, read back
/// from its `observed.<family>.slowdown` curves (one knot each: x the
/// observed seconds backing the fit, y the slowdown factor). Families
/// absent from the profile were unobserved.
#[must_use]
pub fn observed_slowdowns(profile: &MachineProfile) -> Vec<FamilySlowdown> {
    profile
        .curves
        .iter()
        .filter_map(|c| {
            let family = c.name.strip_prefix("observed.")?.strip_suffix(".slowdown")?;
            let (observed_s, lambda) = c.curve.knots()[0];
            Some(FamilySlowdown { family: family.to_string(), lambda, observed_s })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ParamSource;
    use ca_gmres::prelude::*;
    use ca_gpusim::{obs_ingest_traces, FaultPlan, KernelConfig, MultiGpu};
    use ca_sparse::gen::laplace2d;

    /// Record an instrumented 2-device CA-GMRES solve and return its
    /// metrics snapshot.
    fn recorded_solve(plan: Option<FaultPlan>) -> MetricsSnapshot {
        let a = laplace2d(24, 24);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let mut mg = MultiGpu::new(2, PerfModel::default(), KernelConfig::default());
        if let Some(p) = plan {
            mg.set_fault_plan(p);
        }
        mg.enable_trace();
        ca_obs::start();
        let (ap, perm, layout) = prepare(&a, Ordering::Natural, 2);
        let bp = ca_sparse::perm::permute_vec(&b, &perm);
        let cfg = CaGmresConfig {
            m: 20,
            s: 5,
            rtol: 1e-8,
            max_restarts: 8,
            basis: BasisChoice::Newton,
            ..CaGmresConfig::default()
        };
        let sys = System::new(&mut mg, &ap, layout, cfg.m, Some(cfg.s)).expect("system fits");
        sys.load_rhs(&mut mg, &bp).expect("load rhs");
        let _ = ca_gmres(&mut mg, &sys, &cfg);
        obs_ingest_traces(&mg.take_traces());
        ca_obs::finish().metrics
    }

    #[test]
    fn healthy_metrics_fit_reproduces_the_hint_exactly() {
        let snap = recorded_solve(None);
        let hint = PerfModel::default();
        let prof = calibrate_from_metrics(&snap, &hint, "healthy");
        // every fitted parameter equals the hint bit for bit: charged
        // durations match modeled durations on a healthy machine and the
        // link fit snaps its accumulation noise to λ = 1
        for p in &prof.params {
            let h = hint.param(&p.name).unwrap();
            assert_eq!(
                p.value.to_bits(),
                h.to_bits(),
                "{} fitted {} != hint {}",
                p.name,
                p.value,
                h
            );
        }
        // the solve exercises blas1/gemv/gemm/spmv at least; all
        // observed families report λ = 1.0 exactly
        let slow = observed_slowdowns(&prof);
        assert!(slow.len() >= 3, "families observed: {slow:?}");
        for f in &slow {
            assert_eq!(f.lambda, 1.0, "family {} drifted: {}", f.family, f.lambda);
        }
        // ranking identity follows: to_model(hint) == hint
        let (model, _) = prof.to_model(&hint);
        assert_eq!(model, hint);
        let nfit = prof.params.iter().filter(|p| p.source == ParamSource::Fit).count();
        assert!(nfit > 0, "some parameters must carry the Fit source");
    }

    #[test]
    fn degraded_device_shifts_the_family_fit() {
        // 3x fail-slow on device 1: every kernel family that ran there
        // observes λ > 1, so fitted throughputs drop below the hint
        let snap = recorded_solve(Some(FaultPlan::new(7).with_slowdown(1, 3.0, 0)));
        let hint = PerfModel::default();
        let prof = calibrate_from_metrics(&snap, &hint, "degraded");
        let slow = observed_slowdowns(&prof);
        let spmv = slow.iter().find(|f| f.family == "spmv").expect("spmv observed");
        assert!(spmv.lambda > 1.2, "spmv λ = {}", spmv.lambda);
        let eff = prof.param("eff_spmv").unwrap();
        assert!(eff < hint.eff_spmv, "fitted eff_spmv {} not below hint", eff);
        // the link was not degraded: its fit stays at the hint
        let bw = prof.param("pcie_bw").unwrap();
        assert_eq!(bw.to_bits(), hint.pcie_bw.to_bits());
    }

    #[test]
    fn degraded_link_shifts_only_the_link_fit() {
        let snap = recorded_solve(Some(FaultPlan::new(7).with_link_degrade(1, 4.0)));
        let hint = PerfModel::default();
        let prof = calibrate_from_metrics(&snap, &hint, "slow-link");
        // kernels never touch the link: compute families stay at λ = 1
        for f in observed_slowdowns(&prof) {
            if f.family != "link" {
                assert_eq!(f.lambda, 1.0, "family {} drifted: {}", f.family, f.lambda);
            }
        }
        let bw = prof.param("pcie_bw").unwrap();
        assert!(bw < hint.pcie_bw, "fitted pcie_bw {} not below hint {}", bw, hint.pcie_bw);
        let lat = prof.param("pcie_latency_s").unwrap();
        assert!(lat > hint.pcie_latency_s);
    }

    #[test]
    fn empty_snapshot_is_all_hints() {
        let prof = calibrate_from_metrics(&MetricsSnapshot::default(), &PerfModel::default(), "x");
        assert!(prof.params.iter().all(|p| p.source == ParamSource::Hint));
        assert!(prof.curves.is_empty());
        let hint = PerfModel::default();
        let (model, _) = prof.to_model(&hint);
        assert_eq!(model, hint);
    }

    #[test]
    fn fit_is_deterministic() {
        let s1 = recorded_solve(None);
        let s2 = recorded_solve(None);
        let hint = PerfModel::default();
        let a = calibrate_from_metrics(&s1, &hint, "m");
        let b = calibrate_from_metrics(&s2, &hint, "m");
        assert_eq!(a.to_json(), b.to_json());
    }
}
