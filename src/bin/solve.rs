//! `solve` — command-line CA-GMRES solver.
//!
//! Solves `A x = b` from a Matrix Market file (or a built-in generator)
//! on simulated multi-GPU hardware and reports convergence, phase timings
//! and communication counts.
//!
//! ```text
//! cargo run --release --bin solve -- --matrix path/to/A.mtx --gpus 3 --s 10 --m 60
//! cargo run --release --bin solve -- --gen circuit:50000 --tsqr svqr --ordering kway
//! ```

use ca_gmres_repro::gmres::precond::{Applied, Precond};
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::MultiGpu;
use ca_gmres_repro::sparse::{balance, gen, io, perm as permute, Csr};

#[derive(Debug)]
struct Args {
    matrix: Option<String>,
    generator: Option<String>,
    gpus: usize,
    s: usize,
    m: usize,
    rtol: f64,
    tsqr: TsqrKind,
    ordering: Ordering,
    reorth: bool,
    adaptive: bool,
    no_balance: bool,
    gmres: bool,
    precond: Precond,
}

fn usage() -> ! {
    eprintln!(
        "usage: solve [--matrix FILE.mtx | --gen NAME[:N]] [options]

options:
  --gpus N          simulated GPU count (default 3)
  --s N             MPK step size (default 10)
  --m N             restart length (default 60)
  --rtol X          relative residual target (default 1e-8)
  --tsqr KIND       mgs | cgs | cgs-fused | cholqr | cholqr-f32 | svqr | caqr | caqr-tree
  --ordering ORD    natural | rcm | kway | bisection  (default kway)
  --reorth          run BOrth+TSQR twice (\"2x\")
  --adaptive        on an orthogonalization breakdown, finish the cycle at half s
  --no-balance      skip the row/column balancing preprocessing
  --precond P       none | jacobi | block:N  (right preconditioning)
  --gmres           run standard GMRES instead of CA-GMRES

generators: laplace2d:N | laplace3d:N | convdiff:N | cant:N | circuit:N |
            dielfilter:N | kkt:N  (N = approximate row count)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        matrix: None,
        generator: None,
        gpus: 3,
        s: 10,
        m: 60,
        rtol: 1e-8,
        tsqr: TsqrKind::CholQr,
        ordering: Ordering::Kway,
        reorth: false,
        adaptive: false,
        no_balance: false,
        gmres: false,
        precond: Precond::None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--matrix" => args.matrix = Some(val()),
            "--gen" => args.generator = Some(val()),
            "--gpus" => args.gpus = val().parse().unwrap_or_else(|_| usage()),
            "--s" => args.s = val().parse().unwrap_or_else(|_| usage()),
            "--m" => args.m = val().parse().unwrap_or_else(|_| usage()),
            "--rtol" => args.rtol = val().parse().unwrap_or_else(|_| usage()),
            "--tsqr" => {
                args.tsqr = match val().as_str() {
                    "mgs" => TsqrKind::Mgs,
                    "cgs" => TsqrKind::Cgs,
                    "cgs-fused" => TsqrKind::CgsFused,
                    "cholqr" => TsqrKind::CholQr,
                    "cholqr-f32" => TsqrKind::CholQrMixed,
                    "svqr" => TsqrKind::SvQr,
                    "caqr" => TsqrKind::Caqr,
                    "caqr-tree" => TsqrKind::CaqrTree,
                    _ => usage(),
                }
            }
            "--ordering" => {
                args.ordering = match val().as_str() {
                    "natural" => Ordering::Natural,
                    "rcm" => Ordering::Rcm,
                    "kway" => Ordering::Kway,
                    "bisection" => Ordering::Bisection,
                    _ => usage(),
                }
            }
            "--reorth" => args.reorth = true,
            "--adaptive" => args.adaptive = true,
            "--no-balance" => args.no_balance = true,
            "--precond" => {
                let v = val();
                args.precond = match v.as_str() {
                    "none" => Precond::None,
                    "jacobi" => Precond::Jacobi,
                    other => match other.strip_prefix("block:") {
                        Some(bs) => {
                            Precond::BlockJacobi { block: bs.parse().unwrap_or_else(|_| usage()) }
                        }
                        None => usage(),
                    },
                };
            }
            "--gmres" => args.gmres = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if args.matrix.is_none() && args.generator.is_none() {
        args.generator = Some("circuit:20000".into());
        eprintln!("[solve] no input given; using --gen circuit:20000");
    }
    args
}

fn load_matrix(args: &Args) -> Csr {
    if let Some(path) = &args.matrix {
        return io::read_matrix_market(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        });
    }
    let spec = args.generator.as_deref().unwrap();
    let (name, size) = match spec.split_once(':') {
        Some((n, s)) => (n, s.parse::<usize>().unwrap_or_else(|_| usage())),
        None => (spec, 20_000),
    };
    let cube = |per_node: usize| ((size / per_node) as f64).cbrt().ceil().max(2.0) as usize;
    match name {
        "laplace2d" => {
            let d = (size as f64).sqrt().ceil() as usize;
            gen::laplace2d(d, d)
        }
        "laplace3d" => {
            let d = cube(1);
            gen::laplace3d(d, d, d)
        }
        "convdiff" => {
            let d = (size as f64).sqrt().ceil() as usize;
            gen::convection_diffusion(d, d, 2.0)
        }
        "cant" => {
            let d = cube(3);
            gen::cantilever(d, d, d)
        }
        "circuit" => gen::circuit(size, 1),
        "dielfilter" => {
            let d = cube(2);
            gen::diel_filter(d, d, d)
        }
        "kkt" => {
            let d = cube(1);
            gen::kkt(d, d, d)
        }
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let a = load_matrix(&args);
    let n = a.nrows();
    println!(
        "matrix: {} rows, {} nnz ({:.1} per row), bandwidth {}",
        n,
        a.nnz(),
        a.avg_row_nnz(),
        a.bandwidth()
    );

    // rhs: pseudo-random (spectrally flat)
    let mut st = 0x853c49e6748fea9bu64;
    let b: Vec<f64> = (0..n)
        .map(|_| {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((st >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();

    // preprocessing pipeline: precondition, then balance
    let prec = Applied::build(&a, args.precond);
    let a_prec = prec.a_precond.clone();
    let (a_work, b_work, bal) = if args.no_balance {
        (a_prec, b.clone(), None)
    } else {
        let (ab, bl) = balance::balance(&a_prec);
        let bb = bl.scale_rhs(&b);
        (ab, bb, Some(bl))
    };
    let (a_ord, pvec, layout) = prepare(&a_work, args.ordering, args.gpus);
    let b_ord = permute::permute_vec(&b_work, &pvec);
    println!(
        "preprocessing: precond={:?}, balance={}, ordering={}, {} GPUs, block sizes {:?}",
        args.precond,
        !args.no_balance,
        args.ordering,
        args.gpus,
        (0..args.gpus).map(|d| layout.nlocal(d)).collect::<Vec<_>>()
    );

    let mut mg = MultiGpu::with_defaults(args.gpus);
    let stats;
    let label;
    let sys;
    if args.gmres {
        sys = System::new(&mut mg, &a_ord, layout, args.m, None).unwrap();
        sys.load_rhs(&mut mg, &b_ord).unwrap();
        let out = gmres(
            &mut mg,
            &sys,
            &GmresConfig { m: args.m, orth: BorthKind::Cgs, rtol: args.rtol, max_restarts: 5000 },
        );
        stats = out.stats;
        label = format!("GMRES({})", args.m);
    } else {
        sys = System::new(&mut mg, &a_ord, layout, args.m, Some(args.s)).unwrap();
        sys.load_rhs(&mut mg, &b_ord).unwrap();
        let kernel = ca_gmres::mpk::fastest_kernel(&mg, &a_ord, &sys.layout, args.s);
        let cfg = CaGmresConfig {
            s: args.s,
            m: args.m,
            orth: OrthConfig { tsqr: args.tsqr, reorth: args.reorth, ..Default::default() },
            kernel,
            rtol: args.rtol,
            max_restarts: 5000,
            adaptive_s: args.adaptive,
            ..Default::default()
        };
        let out = ca_gmres(&mut mg, &sys, &cfg);
        label = format!(
            "CA-GMRES({}, {}) {}{} [{:?} kernel{}]",
            args.s,
            args.m,
            if args.reorth { "2x" } else { "" },
            args.tsqr,
            kernel,
            if out.s_final != args.s {
                format!(", last block at s = {}", out.s_final)
            } else {
                String::new()
            }
        );
        stats = out.stats;
    }

    println!("\n== {label} ==");
    println!("converged:        {}", stats.converged);
    if let Some(bd) = &stats.breakdown {
        println!("breakdown:        {bd}");
    }
    println!("iterations:       {}", stats.total_iters);
    println!("restart cycles:   {}", stats.restarts);
    println!("final rel. res.:  {:.3e}", stats.final_relres);
    println!("simulated time:   {:.3} ms", 1e3 * stats.t_total);
    println!("  SpMV/MPK:       {:.3} ms", 1e3 * stats.t_spmv);
    println!("  orthogonaliz.:  {:.3} ms (TSQR {:.3} ms)", 1e3 * stats.t_orth, 1e3 * stats.t_tsqr);
    println!("  host small ops: {:.3} ms", 1e3 * stats.t_small);
    println!("PCIe messages:    {}", stats.comm_msgs);
    println!("PCIe bytes:       {:.2} MiB", stats.comm_bytes as f64 / (1 << 20) as f64);

    // verify on the original system
    let y = permute::unpermute_vec(&sys.download_x(&mut mg).unwrap(), &pvec);
    let y = match &bal {
        Some(bl) => bl.unscale_solution(&y),
        None => y,
    };
    let x = prec.recover(&y);
    let mut r = vec![0.0; n];
    ca_gmres_repro::sparse::spmv::spmv(&a, &x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let relres = ca_gmres_repro::dense::blas1::nrm2(&r) / ca_gmres_repro::dense::blas1::nrm2(&b);
    println!("verified (original system) rel. res.: {relres:.3e}");
}
