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

use ca_bench::{format_table, write_json};
use ca_gmres::orth::{tsqr, TsqrKind};
use ca_gpusim::{GemmVariant, GemvVariant, MatId, MultiGpu, PerfModel};
use ca_scalar::Precision::F64;

struct Point {
    part: String,
    kernel: String,
    n: usize,
    gflops: f64,
}

ca_bench::jv_struct!(Point { part, kernel, n, gflops });

fn fill_block(mg: &mut MultiGpu, n: usize, cols: usize) -> Vec<MatId> {
    let ndev = mg.n_gpus();
    (0..ndev)
        .map(|d| {
            let nl = n / ndev;
            let dev = mg.device_mut(d);
            let v = dev.alloc_mat(nl, cols).unwrap();
            let mut state = (d as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            for j in 0..cols {
                let col: Vec<f64> = (0..nl)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                    })
                    .collect();
                dev.mat_mut(v).set_col(j, &col);
            }
            v
        })
        .collect()
}

fn main() {
    let model = PerfModel::default();
    let k = 30usize; // s + 1
    let sizes = [20_000usize, 50_000, 100_000, 200_000, 400_000];
    let mut pts: Vec<Point> = Vec::new();

    // ---- (a) DGEMM Gram product ----
    for &n in &sizes {
        let flops = 2.0 * n as f64 * (k * k) as f64;
        for (name, t) in [
            ("CUBLAS DGEMM", model.gemm_tn_time(GemmVariant::Cublas, n, k, k, F64)),
            ("batched DGEMM", model.gemm_tn_time(GemmVariant::Batched { h: 384 }, n, k, k, F64)),
            ("MKL DGEMM (CPU)", model.host_gemm_time(n, k, k)),
        ] {
            pts.push(Point { part: "a".into(), kernel: name.into(), n, gflops: flops / t / 1e9 });
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
            pts.push(Point { part: "b".into(), kernel: name.into(), n, gflops: flops / t / 1e9 });
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
            let ids = fill_block(&mut mg, n, k);
            mg.reset_time();
            tsqr(&mut mg, &ids, 0, k, kind, true).expect("random block factors");
            mg.sync();
            let t = mg.time();
            pts.push(Point {
                part: "c".into(),
                kernel: format!("{kind} ({ndev} GPU)"),
                n,
                gflops: qr_flops / t / 1e9,
            });
        }
    }
    // LAPACK reference: host DGEQRF+DORGQR at host_gemm-class throughput/3
    // (QR runs below GEMM speed on tall-skinny; same derating the paper's
    // MKL numbers show).
    let t_lapack = qr_flops / (model.host_gemm_flops / 3.0)
        + 8.0 * n as f64 * k as f64 * (k as f64 / 2.0) / model.host_mem_bw;
    pts.push(Point {
        part: "c".into(),
        kernel: "LAPACK (16-core CPU)".into(),
        n,
        gflops: qr_flops / t_lapack / 1e9,
    });

    for part in ["a", "b", "c"] {
        let title = match part {
            "a" => "Figure 11a — DGEMM (n x 30 Gram product)",
            "b" => "Figure 11b — DGEMV (tall-skinny V^T x)",
            _ => "Figure 11c — TSQR (n = 120k, 30 columns)",
        };
        println!("{title}\n");
        let table: Vec<Vec<String>> = pts
            .iter()
            .filter(|p| p.part == part)
            .map(|p| vec![p.kernel.clone(), p.n.to_string(), format!("{:.2}", p.gflops)])
            .collect();
        println!("{}", format_table(&["kernel", "n", "Gflop/s"], &table));
    }
    write_json("fig11_kernels", &pts);
}
