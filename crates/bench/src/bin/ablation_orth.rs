//! Ablation study of the orthogonalization extensions beyond the paper's
//! figures — the follow-up directions it cites in §VII:
//!
//! * mixed-precision CholQR (\[23\]): time vs orthogonality error, with and
//!   without the "2x" recovery pass;
//! * fused CGS (footnote 5): round trips saved vs plain CGS;
//! * batched-DGEMM panel height h (the §V-F alignment discussion);
//! * adaptive step size (\[23\]): solve success where fixed-s breaks.

use ca_bench::{lcg_vec, random_block, table, Study};
use ca_dense::norms::orthogonality_error;
use ca_gmres::orth::{tsqr, OrthConfig, TsqrKind};
use ca_gmres::prelude::*;
use ca_gpusim::{GemmVariant, KernelConfig, MatId, MultiGpu, PerfModel};

ca_bench::row!(Row {
    study: String ["study"],
    config: String ["config"],
    time_ms: f64 ["sim ms" "{:.3}"],
    orth_err: f64 ["||I-Q'Q||" |r| if r.orth_err.is_nan() {
        "-".into()
    } else {
        format!("{:.1e}", r.orth_err)
    }],
    extra: String ["notes"],
});

fn collect_q(mg: &MultiGpu, ids: &[MatId], n: usize, cols: usize) -> ca_dense::Mat {
    let mut out = ca_dense::Mat::zeros(n, cols);
    for (d, &id) in ids.iter().enumerate() {
        let lo = d * (n / ids.len());
        let m = mg.device(d).mat(id);
        for j in 0..cols {
            out.col_mut(j)[lo..lo + m.nrows()].copy_from_slice(m.col(j));
        }
    }
    out
}

fn main() {
    let study = Study::new("ablation_orth", &[]);
    let mut rows: Vec<Row> = Vec::new();
    let (n, k, ndev) = (200_000usize, 30usize, 3usize);
    // one TSQR sequence on a fresh random block: simulated ms, ||I - Q'Q||, messages
    let factor = |kinds: &[TsqrKind], config: KernelConfig| {
        let mut mg = MultiGpu::new(ndev, PerfModel::default(), config);
        let ids = random_block(&mut mg, n, k, 1);
        mg.reset_time();
        mg.reset_counters();
        for &kind in kinds {
            tsqr(&mut mg, &ids, 0, k, kind, true).expect("factors");
        }
        mg.sync();
        let q = collect_q(&mg, &ids, n, k);
        (1e3 * mg.time(), orthogonality_error(&q), mg.counters().total_msgs())
    };
    let row = |name: &str, config: String, (time_ms, orth_err, _): (f64, f64, u64), extra| Row {
        study: name.into(),
        config,
        time_ms,
        orth_err,
        extra,
    };

    // --- study 1: mixed precision ---
    for (label, kinds) in [
        ("CholQR f64", &[TsqrKind::CholQr][..]),
        ("CholQR f32", &[TsqrKind::CholQrMixed]),
        ("2x CholQR f32", &[TsqrKind::CholQrMixed, TsqrKind::CholQrMixed]),
        // the [23] scheme: cheap f32 first pass, f64 recovery pass
        ("f32 + f64 recovery", &[TsqrKind::CholQrMixed, TsqrKind::CholQr]),
    ] {
        rows.push(row(
            "mixed-precision",
            label.into(),
            factor(kinds, KernelConfig::default()),
            String::new(),
        ));
    }

    // --- study 2: fused CGS round trips ---
    for (label, kind) in [("CGS", TsqrKind::Cgs), ("fused CGS", TsqrKind::CgsFused)] {
        let run = factor(&[kind], KernelConfig::default());
        rows.push(row("fused-cgs", label.into(), run, format!("{} msgs", run.2)));
    }

    // --- study 3: batched GEMM panel height ---
    for h in [32usize, 128, 384, 1024, 4096] {
        let gemm = GemmVariant::Batched { h };
        let run = factor(&[TsqrKind::CholQr], KernelConfig { gemm, ..Default::default() });
        let panels = n / ndev / gemm.panel_rows().unwrap() + 1;
        rows.push(row("batched-h", format!("h = {h}"), run, format!("{panels} panels")));
    }

    // --- study 4: adaptive step size on the breakdown case ---
    let (ab, _) = ca_sparse::balance::balance(&ca_sparse::gen::laplace2d(20, 20));
    let (a_ord, _, layout) = prepare(&ab, Ordering::Natural, 2);
    let b = lcg_vec(1, 1, a_ord.nrows());
    for adaptive in [false, true] {
        let mut mg = MultiGpu::with_defaults(2);
        let cfg = CaGmresConfig {
            s: 24,
            m: 48,
            basis: BasisChoice::Monomial,
            orth: OrthConfig { tsqr: TsqrKind::CholQr, ..Default::default() },
            rtol: 1e-8,
            max_restarts: 100,
            adaptive_s: adaptive,
            ..Default::default()
        };
        let sys = System::new(&mut mg, &a_ord, layout.clone(), cfg.m, Some(cfg.s)).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        let out = ca_gmres(&mut mg, &sys, &cfg);
        let st = &out.stats;
        rows.push(row(
            "adaptive-s",
            format!("monomial s=24, adaptive={adaptive}"),
            (1e3 * st.t_total, f64::NAN, 0),
            format!(
                "converged={}, s_final={}, breakdown={:?}",
                st.converged,
                out.s_final,
                st.breakdown.is_some()
            ),
        ));
    }

    println!("Ablation — orthogonalization extensions ([23], footnotes 5/6)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
