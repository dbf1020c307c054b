//! Figure 6: surface-to-volume ratio of the matrix powers kernel,
//! `nnz(A(delta^(d,1:s), :)) / nnz(A^(d))`, as a function of `s` for the
//! three orderings (natural, RCM, k-way) on `cant` and `G3_circuit`.
//!
//! Expected shape (paper §IV-B): `cant` is naturally banded so the ratio
//! grows ~linearly under every ordering; `G3_circuit` under natural
//! ordering blows up almost immediately (long-range nets reach everything)
//! while RCM and especially k-way partitioning rescue it, though the ratio
//! still grows superlinearly.

use ca_bench::{cant, g3_circuit, table, Study};
use ca_gmres::prelude::*;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    ordering: String ["ordering"],
    s: usize ["s"],
    /// max over devices of the surface-to-volume ratio
    ratio_max: f64 ["surf/vol (max)" "{:.3}"],
    /// mean over devices
    ratio_mean: f64 ["surf/vol (mean)" "{:.3}"],
    /// extra flops W^(d,s) summed over devices
    extra_work: usize ["extra flops W"],
});

fn main() {
    let study = Study::new("fig06_surface_to_volume", &["--large"]);
    let ndev = 3;
    let mut rows = Vec::new();

    for t in [cant(study.scale), g3_circuit(study.scale)] {
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::Kway, Ordering::Bisection] {
            let (a_ord, _, layout) = prepare(&t.a, ord, ndev);
            for s in [1usize, 2, 3, 4, 5, 6, 8, 10] {
                let plan = MpkPlan::new(&a_ord, &layout, s);
                let ratios: Vec<f64> = plan.devs.iter().map(|d| d.surface_to_volume()).collect();
                rows.push(Row {
                    matrix: t.name.into(),
                    ordering: ord.to_string(),
                    s,
                    ratio_max: ratios.iter().cloned().fold(0.0, f64::max),
                    ratio_mean: ratios.iter().sum::<f64>() / ratios.len() as f64,
                    extra_work: plan.devs.iter().map(|d| d.extra_work()).sum(),
                });
            }
        }
    }

    println!("Figure 6 — MPK surface-to-volume ratio vs s ({ndev} GPUs)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
