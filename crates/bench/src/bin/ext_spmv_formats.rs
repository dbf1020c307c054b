//! Extension study: ELLPACK vs HYB (ELL + COO) sparse formats on a
//! circuit matrix with realistic high-fanout nets.
//!
//! The paper's GPUs use ELLPACK (Fig. 3 caption); CUSP (§II) popularized
//! the hybrid format. One clock-tree net sets every ELLPACK row's slot
//! count, so padding — priced like real data — dominates the SpMV.
//! Expectation: HYB cuts both device memory and GMRES SpMV time on the
//! hubbed matrix while leaving the regular matrices untouched.

use ca_bench::{lcg_vec, table, Study};
use ca_gmres::mpk::SpmvFormat;
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    format: String ["format"],
    device_mib: f64 ["device MiB" "{:.2}"],
    spmv_ms_per_res: f64 ["SpMV ms/res" "{:.3}"],
    total_ms_per_res: f64 ["total ms/res" "{:.3}"],
    iters: usize ["iters"],
});

fn run(a: &ca_sparse::Csr, name: &str, format: SpmvFormat) -> Row {
    let (ab, bal) = ca_sparse::balance::balance(a);
    let b = bal.scale_rhs(&lcg_vec(0x9E3779B97F4A7C15, 1, a.nrows()));
    let (a_ord, perm, layout) = prepare(&ab, Ordering::Kway, 3);
    let bp = ca_sparse::perm::permute_vec(&b, &perm);

    let mut mg = MultiGpu::with_defaults(3);
    let mem = |mg: &MultiGpu| (0..3).map(|d| mg.device(d).mem_used()).sum::<usize>();
    let mem0 = mem(&mg);
    let sys =
        System::with_format(&mut mg, &a_ord, layout, 30, None, format, Precision::F64).unwrap();
    let mem1 = mem(&mg);
    sys.load_rhs(&mut mg, &bp).unwrap();
    let cfg = GmresConfig { m: 30, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 3 };
    let out = gmres(&mut mg, &sys, &cfg);
    Row {
        matrix: name.into(),
        format: match format {
            SpmvFormat::Ell => "ELLPACK".into(),
            SpmvFormat::Hyb { quantile } => format!("HYB q={quantile}"),
        },
        device_mib: (mem1 - mem0) as f64 / (1 << 20) as f64,
        spmv_ms_per_res: out.stats.spmv_per_restart_ms(),
        total_ms_per_res: out.stats.total_per_restart_ms(),
        iters: out.stats.total_iters,
    }
}

fn main() {
    let study = Study::new("ext_spmv_formats", &[]);
    let hubbed = ca_sparse::gen::circuit_hubbed(40_000, 7);
    let regular = ca_sparse::gen::circuit(40_000, 7);
    println!(
        "hubbed circuit: max row {} vs avg {:.1}; regular: max row {}\n",
        hubbed.max_row_nnz(),
        hubbed.avg_row_nnz(),
        regular.max_row_nnz()
    );
    let mut rows: Vec<Row> = Vec::new();
    for (a, name) in [(&hubbed, "circuit+hubs"), (&regular, "circuit")] {
        for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.97 }] {
            rows.push(run(a, name, format));
        }
    }

    println!("Extension — sparse format study (GMRES(30), 3 GPUs, 3 cycles)\n");
    println!("{}", table(&rows));
    study.write_json(&rows);
}
