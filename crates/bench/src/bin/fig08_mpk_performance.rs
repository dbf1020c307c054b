//! Figure 8: matrix powers kernel performance — simulated time to generate
//! m = 100 basis vectors vs `s`, split into total (solid line in the
//! paper) and SpMV-only compute (dashed line), on 3 GPUs.
//!
//! Expected shape (paper §IV-B): compute time grows ~linearly with `s`
//! (boundary-row extra work); communication time (the gap) collapses
//! quickly for small `s` as latency amortizes, then creeps back up as the
//! volume term dominates — a shallow minimum at moderate `s`, with peak
//! speedups over s = 1 in the 10-20% range.

use ca_bench::{cant, g3_circuit, rhs_for, table, Study};
use ca_gmres::mpk::{mpk, MpkState};
use ca_gmres::prelude::*;
use ca_gpusim::{MatId, MultiGpu};

ca_bench::row!(Row {
    matrix: String ["matrix"],
    ordering: String ["ordering"],
    s: usize ["s"],
    total_ms: f64 ["total (ms)" "{:.3}"],
    spmv_only_ms: f64 ["SpMV-only (ms)" "{:.3}"],
    comm_ms: f64 ["comm (ms)" "{:.3}"],
    speedup_vs_s1: f64 ["speedup vs s=1" "{:.3}"],
});

fn main() {
    let study = Study::new("fig08_mpk_performance", &["--large"]);
    let ndev = 3;
    let m = 100usize;
    let mut rows = Vec::new();

    let cases = [(cant(study.scale), Ordering::Natural), (g3_circuit(study.scale), Ordering::Kway)];
    for (t, ord) in cases {
        let (a_ord, _, layout) = prepare(&t.a, ord, ndev);
        let b = rhs_for(&a_ord);
        let mut t_s1 = f64::NAN;
        for s in [1usize, 2, 3, 4, 5, 6, 8, 10, 12, 15] {
            let mut mg = MultiGpu::with_defaults(ndev);
            let st = MpkState::load(&mut mg, &a_ord, MpkPlan::new(&a_ord, &layout, s)).unwrap();
            // basis storage: m+1 columns
            let v_ids: Vec<MatId> = (0..ndev)
                .map(|d| {
                    let nl = layout.nlocal(d);
                    let dev = mg.device_mut(d);
                    let v = dev.alloc_mat(nl, m + 1).unwrap();
                    let lo = layout.range(d).start;
                    dev.mat_mut(v).set_col(0, &b[lo..lo + nl]);
                    v
                })
                .collect();
            mg.reset_time();
            let mut t_exchange = 0.0;
            let mut t_steps = 0.0;
            let mut col = 0usize;
            while col < m {
                let blk = s.min(m - col);
                let phases = mpk(&mut mg, &st, &v_ids, col, &BasisSpec::monomial(blk)).unwrap();
                t_exchange += phases.exchange;
                t_steps += phases.steps;
                col += blk;
            }
            mg.sync();
            let total = mg.time();
            if s == 1 {
                t_s1 = total;
            }
            rows.push(Row {
                matrix: t.name.into(),
                ordering: ord.to_string(),
                s,
                total_ms: 1e3 * total,
                spmv_only_ms: 1e3 * t_steps,
                comm_ms: 1e3 * t_exchange,
                speedup_vs_s1: t_s1 / total,
            });
        }
    }

    println!("Figure 8 — MPK time to generate {m} vectors ({ndev} GPUs, simulated)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
