//! Figure 11: performance of the tall-skinny kernels (simulated Gflop/s).
//!
//! * (a) DGEMM forming the `30x30` Gram matrix of an `n x 30` block:
//!   CUBLAS vs the paper's batched DGEMM vs threaded-MKL (host model).
//!   Expected: batched > MKL > CUBLAS across the whole range.
//! * (b) DGEMV `V^T x`: CUBLAS vs the optimized MAGMA tall-skinny kernel
//!   (and DDOT for reference). Expected: MAGMA ~5x CUBLAS.
//! * (c) TSQR with the five algorithms on 1–3 GPUs vs LAPACK (host):
//!   effective Gflop/s uses the DGEQRF+DORGQR flop count `4 n k^2` like
//!   the paper. Expected: CholQR/SVQR on top, CGS next, MGS ≈ CAQR,
//!   near-linear device scaling.

use ca_bench::{random_block, table, Study, PCG_INC};
use ca_gmres::orth::{tsqr, TsqrKind};
use ca_gpusim::{GemmVariant, GemvVariant, MultiGpu, PerfModel};
use ca_scalar::Precision::F64;

ca_bench::row!(Point {
    part: String,
    kernel: String ["kernel"],
    n: usize ["n"],
    gflops: f64 ["Gflop/s" "{:.2}"],
});

fn main() {
    let study = Study::new("fig11_kernels", &[]);
    let model = PerfModel::default();
    let k = 30usize; // s + 1
    let sizes = [20_000usize, 50_000, 100_000, 200_000, 400_000];
    let mut pts: Vec<Point> = Vec::new();
    let mut point = |part: &str, kernel: String, n: usize, flops: f64, t: f64| {
        pts.push(Point { part: part.into(), kernel, n, gflops: flops / t / 1e9 });
    };

    // ---- (a) DGEMM Gram product ----
    for &n in &sizes {
        let flops = 2.0 * n as f64 * (k * k) as f64;
        for (name, t) in [
            ("CUBLAS DGEMM", model.gemm_tn_time(GemmVariant::Cublas, n, k, k, F64)),
            ("batched DGEMM", model.gemm_tn_time(GemmVariant::Batched { h: 384 }, n, k, k, F64)),
            ("MKL DGEMM (CPU)", model.host_gemm_time(n, k, k)),
        ] {
            point("a", name.into(), n, flops, t);
        }
    }

    // ---- (b) DGEMV ----
    for &n in &sizes {
        let flops = 2.0 * n as f64 * k as f64;
        for (name, t) in [
            ("CUBLAS DGEMV", model.gemv_t_time(GemvVariant::Cublas, n, k)),
            ("MAGMA ts-DGEMV", model.gemv_t_time(GemvVariant::MagmaTallSkinny, n, k)),
            ("DDOT x k", k as f64 * model.blas1_time(2 * n, F64)),
        ] {
            point("b", name.into(), n, flops, t);
        }
    }

    // ---- (c) TSQR, 1-3 GPUs, effective Gflop/s on 4nk^2 ----
    let n = 120_000usize;
    let qr_flops = 4.0 * n as f64 * (k * k) as f64;
    for kind in [
        TsqrKind::Mgs,
        TsqrKind::Cgs,
        TsqrKind::CholQr,
        TsqrKind::SvQr,
        TsqrKind::Caqr,
        TsqrKind::CaqrTree,
    ] {
        for ndev in 1..=3usize {
            let mut mg = MultiGpu::with_defaults(ndev);
            let ids = random_block(&mut mg, n, k, PCG_INC);
            mg.reset_time();
            tsqr(&mut mg, &ids, 0, k, kind, true).expect("random block factors");
            mg.sync();
            point("c", format!("{kind} ({ndev} GPU)"), n, qr_flops, mg.time());
        }
    }
    // LAPACK reference: host DGEQRF+DORGQR at host_gemm-class throughput/3
    // (QR runs below GEMM speed on tall-skinny; same derating the paper's
    // MKL numbers show).
    let t_lapack = qr_flops / (model.host_gemm_flops / 3.0)
        + 8.0 * n as f64 * k as f64 * (k as f64 / 2.0) / model.host_mem_bw;
    point("c", "LAPACK (16-core CPU)".into(), n, qr_flops, t_lapack);

    for (part, title) in [
        ("a", "Figure 11a — DGEMM (n x 30 Gram product)"),
        ("b", "Figure 11b — DGEMV (tall-skinny V^T x)"),
        ("c", "Figure 11c — TSQR (n = 120k, 30 columns)"),
    ] {
        println!("{title}\n");
        println!("{}", table(pts.iter().filter(|p| p.part == part)));
    }
    study.write_json(&pts);
}
