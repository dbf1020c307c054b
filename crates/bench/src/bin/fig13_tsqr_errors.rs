//! Figure 13: average/min/max TSQR error norms inside CA-GMRES(20, 30)
//! and CA-GMRES(30, 30) on the G3_circuit analog (1 GPU), for the five
//! orthogonalization procedures.
//!
//! Expected shape (paper §VI-A): all procedures give comparable
//! factorization errors ||QR - V||/||V||; orthogonality errors
//! ||I - Q^T Q|| rank CAQR < MGS < CholQR/SVQR (the Gram condition-number
//! squaring); CGS needs the "2x" pass to converge; element-wise errors of
//! CholQR/SVQR grow markedly at (s, m) = (30, 30).

use ca_bench::{g3_circuit, table, Problem, Study};
use ca_gmres::cagmres::TsqrErrorSample;
use ca_gmres::prelude::*;

ca_bench::row!(Row {
    s: usize ["(s,m)" |r| format!("({},{})", r.s, r.m)],
    m: usize,
    algorithm: String ["algorithm"],
    pass: u8 ["pass"],
    samples: usize ["#"],
    orth_err_min: f64 ["orth min" "{:.1e}"],
    orth_err_avg: f64 ["orth avg" "{:.1e}"],
    orth_err_max: f64 ["orth max" "{:.1e}"],
    fact_err_avg: f64 ["fact avg" "{:.1e}"],
    elem_err_avg: f64 ["elem avg" "{:.1e}"],
    converged: bool ["conv"],
});

fn summarize(s: usize, m: usize, name: &str, pass: u8, e: &[&TsqrErrorSample], conv: bool) -> Row {
    let pick = |f: fn(&TsqrErrorSample) -> f64| -> (f64, f64, f64) {
        let vals: Vec<f64> = e.iter().map(|x| f(x)).collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0, f64::max);
        let avg = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        (min, avg, max)
    };
    let (omin, oavg, omax) = pick(|x| x.orth_err);
    let (_, favg, _) = pick(|x| x.fact_err);
    let (_, eavg, _) = pick(|x| x.elem_err);
    Row {
        s,
        m,
        algorithm: name.into(),
        pass,
        samples: e.len(),
        orth_err_min: omin,
        orth_err_avg: oavg,
        orth_err_max: omax,
        fact_err_avg: favg,
        elem_err_avg: eavg,
        converged: conv,
    }
}

fn main() {
    let study = Study::new("fig13_tsqr_errors", &["--large"]);
    let p = Problem::new(&g3_circuit(study.scale).a, Ordering::Kway, 1);
    let mut rows: Vec<Row> = Vec::new();

    for (s, m) in [(20usize, 30usize), (30, 30)] {
        for (kind, reorth, label) in [
            (TsqrKind::Mgs, false, "MGS"),
            (TsqrKind::Cgs, true, "2xCGS"),
            (TsqrKind::CholQr, false, "CholQR"),
            (TsqrKind::SvQr, false, "SVQR"),
            (TsqrKind::Caqr, false, "CAQR"),
        ] {
            let out = p.ca_gmres(&CaGmresConfig {
                s,
                m,
                orth: OrthConfig { tsqr: kind, reorth, ..Default::default() },
                // fixed-length run: 12 restart cycles of error sampling
                // (a convergent 1e-4 run finishes before the basis
                // conditioning gets interesting at this scale)
                rtol: 0.0,
                max_restarts: 12,
                capture_tsqr_errors: true,
                ..Default::default()
            });
            for pass in [1u8, 2] {
                let samples: Vec<&TsqrErrorSample> =
                    out.tsqr_errors.iter().filter(|e| e.pass == pass).collect();
                if !samples.is_empty() {
                    rows.push(summarize(s, m, label, pass, &samples, out.stats.converged));
                }
            }
            if out.tsqr_errors.is_empty() {
                eprintln!("[fig13] {label} (s={s}): no samples ({:?})", out.stats.breakdown);
            }
        }
    }

    println!("Figure 13 — TSQR error norms inside CA-GMRES on G3_circuit (1 GPU)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
