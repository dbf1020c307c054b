//! Figure 12 (table): test-matrix properties — size, density, ratio of the
//! two dominant Ritz values theta_1/theta_2 (what drives monomial-basis
//! decay, §IV-A), and kappa(B), the condition number of the last Gram
//! matrix from the first restart loop under the Fig. 14 setups.

use ca_bench::{table, Problem, Study};
use ca_gmres::cagmres::probe_gram_condition;
use ca_gmres::newton::newton_shifts_from_hessenberg;
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;

ca_bench::row!(Row {
    name: String ["name"],
    n_thousands: f64 ["n/1000" "{:.1}"],
    nnz_per_n: f64 ["nnz/n" "{:.1}"],
    theta_ratio: f64 ["theta1/theta2" "{:.5}"],
    kappa_gram_monomial: f64 ["kappa(B) monomial" "{:.2e}"],
    kappa_gram_newton: f64 ["kappa(B) Newton" "{:.2e}"],
});

fn main() {
    let study = Study::new("fig12_matrices", &["--large"]);
    let s = 15usize;
    let mut rows = Vec::new();

    for t in study.suite() {
        let p = Problem::new(&t.a, Ordering::Natural, 1);
        let mut mg = MultiGpu::with_defaults(1);
        let m_probe = t.m.min(60);
        let sys = p.load(&mut mg, m_probe, Some(s));

        // Ritz values from one GMRES cycle.
        let out = gmres(
            &mut mg,
            &sys,
            &GmresConfig { m: m_probe, rtol: 1e-30, max_restarts: 1, ..Default::default() },
        );
        let h = out.first_hessenberg.expect("cycle ran");
        let shifts = newton_shifts_from_hessenberg(&h, s).unwrap_or_default();
        let mut moduli: Vec<f64> = {
            let hm = h.top_left(h.ncols(), h.ncols());
            ca_dense::hessenberg::hessenberg_eigenvalues(&hm)
                .unwrap_or_default()
                .iter()
                .map(|&(re, im)| (re * re + im * im).sqrt())
                .collect()
        };
        moduli.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let theta_ratio =
            if moduli.len() >= 2 && moduli[1] > 0.0 { moduli[0] / moduli[1] } else { f64::NAN };

        sys.load_rhs(&mut mg, &p.b).unwrap();
        let kappa_mono = probe_gram_condition(&mut mg, &sys, &BasisSpec::monomial(s)).unwrap();
        sys.load_rhs(&mut mg, &p.b).unwrap();
        let kappa_newton = if shifts.is_empty() {
            f64::NAN
        } else {
            probe_gram_condition(&mut mg, &sys, &BasisSpec::newton(&shifts, s)).unwrap()
        };

        rows.push(Row {
            name: t.name.into(),
            n_thousands: t.a.nrows() as f64 / 1e3,
            nnz_per_n: t.a.avg_row_nnz(),
            theta_ratio,
            kappa_gram_monomial: kappa_mono,
            kappa_gram_newton: kappa_newton,
        });
    }

    println!("Figure 12 — test-matrix properties (synthetic analogs, s = {s})\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
