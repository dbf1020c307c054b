//! Extension study (the paper's §VII outlook): partitioning algorithms
//! compared on the metrics that matter to MPK/SpMV — graph edge-cut,
//! exact scatter volume (the hypergraph lambda-1 metric), load balance,
//! and the resulting MPK surface-to-volume ratio and solver time.
//!
//! Expectation: the hypergraph model minimizes the true communication
//! volume (it is the quantity it optimizes); the graph k-way method is
//! close on structurally symmetric matrices (where edge-cut ≈ volume) and
//! all partitioners crush the naive block split on the scrambled circuit.

use ca_bench::{balanced_problem, cant, g3_circuit, table, Problem, Study};
use ca_gmres::prelude::*;
use ca_sparse::hypergraph::Hypergraph;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    method: String ["method"],
    edge_cut: usize ["edge cut"],
    lambda1_volume: usize ["lambda-1 vol"],
    imbalance: f64 ["imbal" "{:.3}"],
    mpk_surf_vol_s5: f64 ["surf/vol s=5" "{:.3}"],
    gmres_ms_per_res: f64 ["GMRES ms/res" "{:.3}"],
});

fn main() {
    let study = Study::new("ext_partitioners", &["--large"]);
    let ndev = 3usize;
    let mut rows: Vec<Row> = Vec::new();

    for t in [g3_circuit(study.scale), cant(study.scale)] {
        let (a_bal, _) = balanced_problem(&t.a);
        let hg = Hypergraph::column_net(&a_bal);
        for ord in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::Kway,
            Ordering::Bisection,
            Ordering::Hypergraph,
        ] {
            let p = Problem::new(&t.a, ord, ndev);
            // translate the block layout back to a partition vector on the
            // ORIGINAL row numbering for metric evaluation
            let mut part = vec![0u32; a_bal.nrows()];
            for (new, &old) in p.perm.iter().enumerate() {
                part[old] = p.layout.owner(new) as u32;
            }
            let partition = ca_sparse::partition::Partition { part: part.clone(), nparts: ndev };
            let plan = MpkPlan::new(&p.a, &p.layout, 5);
            let sv = plan.devs.iter().map(|d| d.surface_to_volume()).sum::<f64>() / ndev as f64;
            // steady-state GMRES timing with this distribution
            let g =
                p.gmres(&GmresConfig { m: t.m, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 2 });

            rows.push(Row {
                matrix: t.name.into(),
                method: ord.to_string(),
                edge_cut: partition.edge_cut(&a_bal),
                lambda1_volume: hg.lambda_minus_one(&part, ndev),
                imbalance: partition.imbalance(),
                mpk_surf_vol_s5: sv,
                gmres_ms_per_res: g.stats.total_per_restart_ms(),
            });
        }
    }

    println!("Extension — partitioner comparison ({ndev} GPUs)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
