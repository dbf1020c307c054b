//! Extension study: ELLPACK vs HYB (ELL + COO) sparse formats on a
//! circuit matrix with realistic high-fanout nets.
//!
//! The paper's GPUs use ELLPACK (Fig. 3 caption); CUSP (§II) popularized
//! the hybrid format. One clock-tree net sets every ELLPACK row's slot
//! count, so padding — priced like real data — dominates the SpMV.
//! Expectation: HYB cuts both device memory and GMRES SpMV time on the
//! hubbed matrix while leaving the regular matrices untouched.

use ca_bench::{format_table, write_json};
use ca_gmres::mpk::SpmvFormat;
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;

struct Row {
    matrix: String,
    format: String,
    device_mib: f64,
    spmv_ms_per_res: f64,
    total_ms_per_res: f64,
    iters: usize,
}

ca_bench::jv_struct!(Row { matrix, format, device_mib, spmv_ms_per_res, total_ms_per_res, iters });

fn run(a: &ca_sparse::Csr, name: &str, format: SpmvFormat, rows: &mut Vec<Row>) {
    let (ab, bal) = ca_sparse::balance::balance(a);
    let n = a.nrows();
    let mut st = 0x9E3779B97F4A7C15u64;
    let b: Vec<f64> = (0..n)
        .map(|_| {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((st >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let bb = bal.scale_rhs(&b);
    let (a_ord, perm, layout) = prepare(&ab, Ordering::Kway, 3);
    let bp = ca_sparse::perm::permute_vec(&bb, &perm);

    let mut mg = MultiGpu::with_defaults(3);
    let mem0: usize = (0..3).map(|d| mg.device(d).mem_used()).sum();
    let sys =
        System::with_format(&mut mg, &a_ord, layout, 30, None, format, Precision::F64).unwrap();
    let mem1: usize = (0..3).map(|d| mg.device(d).mem_used()).sum();
    sys.load_rhs(&mut mg, &bp).unwrap();
    let out = gmres(
        &mut mg,
        &sys,
        &GmresConfig { m: 30, orth: BorthKind::Cgs, rtol: 0.0, max_restarts: 3 },
    );
    rows.push(Row {
        matrix: name.into(),
        format: match format {
            SpmvFormat::Ell => "ELLPACK".into(),
            SpmvFormat::Hyb { quantile } => format!("HYB q={quantile}"),
        },
        device_mib: (mem1 - mem0) as f64 / (1 << 20) as f64,
        spmv_ms_per_res: out.stats.spmv_per_restart_ms(),
        total_ms_per_res: out.stats.total_per_restart_ms(),
        iters: out.stats.total_iters,
    });
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();
    let hubbed = ca_sparse::gen::circuit_hubbed(40_000, 7);
    let regular = ca_sparse::gen::circuit(40_000, 7);
    println!(
        "hubbed circuit: max row {} vs avg {:.1}; regular: max row {}\n",
        hubbed.max_row_nnz(),
        hubbed.avg_row_nnz(),
        regular.max_row_nnz()
    );
    for (a, name) in [(&hubbed, "circuit+hubs"), (&regular, "circuit")] {
        for format in [SpmvFormat::Ell, SpmvFormat::Hyb { quantile: 0.97 }] {
            run(a, name, format, &mut rows);
        }
    }

    println!("Extension — sparse format study (GMRES(30), 3 GPUs, 3 cycles)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                r.format.clone(),
                format!("{:.2}", r.device_mib),
                format!("{:.3}", r.spmv_ms_per_res),
                format!("{:.3}", r.total_ms_per_res),
                r.iters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["matrix", "format", "device MiB", "SpMV ms/res", "total ms/res", "iters"],
            &table
        )
    );
    write_json("ext_spmv_formats", &rows);
}
