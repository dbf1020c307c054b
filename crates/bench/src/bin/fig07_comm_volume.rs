//! Figure 7: total MPK communication volume to generate m = 100 basis
//! vectors, `(m/s) * (|union_d delta^(d,1:s)| + sum_d |delta^(d,1:s)|)`,
//! vs `s`, for the three orderings on `cant` and `G3_circuit`.
//!
//! Expected shape (paper §IV-B): volume rises quickly for small `s`
//! (boundary sets grow faster than the 1/s message-count saving), then
//! flattens; for `s > ~5` MPK moves more total data than plain SpMV but in
//! s-times fewer messages. KWY beats RCM on the irregular circuit matrix
//! and loses to it on the naturally banded cant.
//!
//! The analytic table counts *elements*; a trailing executed-run section
//! cross-checks the *byte* accounting against the simulator's
//! precision-labelled counters: a fixed-budget mixed-precision solve
//! (`mpk_prec = f32`) must move the identical message count as the f64
//! solve while every f32-tagged byte is exactly half its f64 width —
//! `bytes_f64_run - bytes_mixed_run == bytes_f32_tagged` holds as an
//! integer identity, not a tolerance.

use ca_bench::{cant, g3_circuit, table, Problem, Study, TestMatrix};
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;
use ca_scalar::Precision;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    ordering: String ["ordering"],
    s: usize ["s"],
    gather_elems: usize ["gather/blk"],
    scatter_elems: usize ["scatter/blk"],
    total_for_m100: usize ["total(m=100)"],
    relative_to_spmv: f64 ["vs SpMV" "{:.2}x"],
});

ca_bench::row!(
    /// One executed f64-vs-mixed counter comparison (same plan, same message
    /// schedule; only the payload width differs).
    HaloCheck {
        matrix: String ["matrix"],
        s: usize ["s"],
        msgs: u64 ["msgs"],
        bytes_f64_run: u64 ["bytes f64"],
        bytes_mixed_run: u64 ["bytes mixed"],
        bytes_f32_tagged: u64 ["f32-tagged"]
            ["saved" |c| (c.bytes_f64_run - c.bytes_mixed_run).to_string()],
    }
);

ca_bench::row!(Output { rows: Vec<Row>, halo_check: Vec<HaloCheck> });

/// Run a fixed two-cycle budget at `prec` and return the machine-wide
/// transfer counters. Two cycles because the first restart of a Newton
/// solve is the f64 shift-harvest cycle — only the second executes the
/// s-step MPK whose halos carry the precision under test.
fn counted_run(t: &TestMatrix, s: usize, prec: Precision) -> ca_gpusim::CommCounters {
    let ndev = 3;
    let p = Problem::new(&t.a, Ordering::Natural, ndev);
    let cfg = CaGmresConfig {
        s,
        m: 30,
        rtol: 0.0,
        max_restarts: 2,
        mpk_prec: prec,
        ..Default::default()
    };
    let mut mg = MultiGpu::with_defaults(ndev);
    let out = ca_gmres_mixed(&mut mg, &p.a, &p.b, p.layout, &cfg).expect("simulated solve failed");
    assert!(!out.escalated, "{}: f32 basis broke down inside the fixed budget", t.name);
    mg.counters()
}

fn halo_check(t: &TestMatrix, s: usize) -> HaloCheck {
    let k64 = counted_run(t, s, Precision::F64);
    let k32 = counted_run(t, s, Precision::F32);
    assert_eq!(
        k32.total_msgs(),
        k64.total_msgs(),
        "{}: precision must not change the message count",
        t.name
    );
    assert_eq!(k64.total_bytes_f32(), 0, "{}: f64 run moved f32-tagged bytes", t.name);
    assert!(k32.total_bytes_f32() > 0, "{}: mixed run moved no f32-tagged bytes", t.name);
    assert_eq!(
        k64.total_bytes() - k32.total_bytes(),
        k32.total_bytes_f32(),
        "{}: f32 halo bytes not exactly half their f64 width",
        t.name
    );
    HaloCheck {
        matrix: t.name.into(),
        s,
        msgs: k64.total_msgs(),
        bytes_f64_run: k64.total_bytes(),
        bytes_mixed_run: k32.total_bytes(),
        bytes_f32_tagged: k32.total_bytes_f32(),
    }
}

fn main() {
    let study = Study::new("fig07_comm_volume", &["--large"]);
    let ndev = 3;
    let m = 100usize;
    let mut rows = Vec::new();

    for t in [cant(study.scale), g3_circuit(study.scale)] {
        for ord in [Ordering::Natural, Ordering::Rcm, Ordering::Kway] {
            let (a_ord, _, layout) = prepare(&t.a, ord, ndev);
            let spmv_total = MpkPlan::new(&a_ord, &layout, 1).comm_volume_total(m);
            for s in [1usize, 2, 3, 4, 5, 6, 8, 10] {
                let plan = MpkPlan::new(&a_ord, &layout, s);
                let (g, sc) = plan.comm_volume_per_block();
                let total = plan.comm_volume_total(m);
                rows.push(Row {
                    matrix: t.name.into(),
                    ordering: ord.to_string(),
                    s,
                    gather_elems: g,
                    scatter_elems: sc,
                    total_for_m100: total,
                    relative_to_spmv: total as f64 / spmv_total.max(1) as f64,
                });
            }
        }
    }

    println!("Figure 7 — MPK communication volume for m = {m} vectors ({ndev} GPUs)\n");
    println!("{}", table(&rows));

    // executed cross-check: f32 halos are exactly half-width on the wire
    let checks: Vec<HaloCheck> =
        [cant(study.scale), g3_circuit(study.scale)].iter().map(|t| halo_check(t, 6)).collect();
    println!("\nExecuted cross-check — f64 vs mixed (f32 basis), two cycles, natural ordering:\n");
    println!("{}", table(&checks));

    study.write_json(&Output { rows, halo_check: checks });
}
