//! Figure 10 (table): properties of the TSQR algorithms — measured GPU-CPU
//! communication round trips and kernel class, against the paper's
//! analytic counts: MGS (s+1)(s+2)/2 reductions, CGS ~2(s+1), CholQR /
//! SVQR / CAQR a single reduction + broadcast.

use ca_bench::{table, Study};
use ca_gmres::orth::{tsqr, TsqrKind};
use ca_gpusim::{MatId, MultiGpu};

ca_bench::row!(Row {
    algorithm: String["algorithm"],
    orth_error_bound: String["||I-Q'Q||"],
    flops: String["# flops"],
    kernel_class: String["kernels"],
    measured_roundtrips: u64["measured round trips"],
    paper_roundtrips: String["analytic"],
});

fn main() {
    let study = Study::new("fig10_tsqr_properties", &[]);
    let s1 = 30usize; // s + 1 columns, the paper's typical block
    let n = 60_000usize;
    let ndev = 3usize;
    let mut rows = Vec::new();

    for (kind, bound, flops, class, paper) in [
        (TsqrKind::Mgs, "O(eps k)", "2ns^2", "BLAS-1 xDOT", format!("{}", s1 * (s1 + 1))),
        (TsqrKind::Cgs, "O(eps k^s)", "2ns^2", "BLAS-2 xGEMV", format!("{}", 2 * s1)),
        (TsqrKind::CgsFused, "O(eps k^s)", "2ns^2", "BLAS-2 xGEMV", format!("{}", 2 * s1)),
        (TsqrKind::CholQr, "O(eps k^2)", "2ns^2", "BLAS-3 xGEMM", "2".into()),
        (TsqrKind::SvQr, "O(eps k^2)", "2ns^2", "BLAS-3 xGEMM", "2".into()),
        (TsqrKind::Caqr, "O(eps)", "4ns^2", "BLAS-1,2 xGEQR2", "2".into()),
    ] {
        let mut mg = MultiGpu::with_defaults(ndev);
        let ids: Vec<MatId> = (0..ndev)
            .map(|d| {
                let nl = n / ndev;
                let dev = mg.device_mut(d);
                let v = dev.alloc_mat(nl, s1).unwrap();
                for j in 0..s1 {
                    let col: Vec<f64> =
                        (0..nl).map(|i| (((d * nl + i) * (j + 3)) as f64 * 1e-4).sin()).collect();
                    dev.mat_mut(v).set_col(j, &col);
                }
                v
            })
            .collect();
        mg.reset_counters();
        tsqr(&mut mg, &ids, 0, s1, kind, true).expect("random block must factor");
        let c = mg.counters();
        // count communication phases per GPU (the paper's "# GPU-CPU
        // comm." tallies one per direction); our CGS exceeds the paper's
        // 2(s+1) because we do not fuse the norm into the GEMV (their
        // footnote 5 describes the fused variant)
        let measured = (c.msgs_to_host + c.msgs_to_dev) / ndev as u64;
        rows.push(Row {
            algorithm: kind.to_string(),
            orth_error_bound: bound.into(),
            flops: flops.into(),
            kernel_class: class.into(),
            measured_roundtrips: measured,
            paper_roundtrips: paper,
        });
    }

    println!("Figure 10 — TSQR algorithm properties (s+1 = {s1} columns, {ndev} GPUs)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
