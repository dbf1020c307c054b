//! CAQR on a layout where a device holds fewer rows than a basis block has
//! columns — none at all, or three under a five-column block. Both CAQR
//! variants reduce the devices' R factors with `ca_dense::qr::tsqr_root`,
//! which zero-pads a short R, so every entry that runs a CA cycle
//! converges there to a true residual below its tolerance.

use ca_gmres_repro::dense::blas1::nrm2;
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::MultiGpu;
use ca_gmres_repro::sparse::{gen, spmv, Csr};

const TSQRS: [TsqrKind; 2] = [TsqrKind::Caqr, TsqrKind::CaqrTree];

fn relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    spmv::spmv(a, x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    nrm2(&r) / nrm2(b)
}

fn config(tsqr: TsqrKind, s: usize, m: usize) -> CaGmresConfig {
    let orth = OrthConfig { tsqr, ..Default::default() };
    CaGmresConfig { s, m, orth, rtol: 1e-8, ..Default::default() }
}

#[test]
fn every_entry_runs_caqr_on_empty_and_thin_devices() {
    let a = gen::laplace2d(20, 20);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
    for sizes in [[150, 0, 250], [150, 3, 247]] {
        for tsqr in TSQRS {
            let case = format!("{sizes:?}, {tsqr}");
            let cfg = config(tsqr, 5, 20);
            let layout = Layout::from_sizes(&sizes);

            let mut mg = MultiGpu::with_defaults(3);
            let sys = System::new(&mut mg, &a, layout.clone(), cfg.m, Some(cfg.s)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            let out = ca_gmres(&mut mg, &sys, &cfg);
            assert!(out.stats.converged, "ca_gmres on {case}: {:?}", out.stats.breakdown);
            let x = sys.download_x(&mut mg).unwrap();
            assert!(relres(&a, &x, &b) < 1e-6, "ca_gmres on {case}: {}", relres(&a, &x, &b));

            let mut mg = MultiGpu::with_defaults(3);
            let out = ca_gmres_mixed(&mut mg, &a, &b, layout.clone(), &cfg).unwrap();
            assert!(out.stats.converged, "ca_gmres_mixed on {case}: {:?}", out.stats.breakdown);
            assert!(relres(&a, &out.x, &b) < 1e-6, "ca_gmres_mixed on {case}");

            let mut mg = MultiGpu::with_defaults(3);
            let sys = System::new(&mut mg, &a, layout, cfg.m, Some(cfg.s)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            let eigs =
                ArnoldiConfig { s: cfg.s, m: cfg.m, nev: 2, orth: cfg.orth, ..Default::default() };
            let out = arnoldi_eigs(&mut mg, &sys, &eigs).unwrap();
            assert_eq!(out.pairs.len(), 2, "arnoldi_eigs on {case}: {:?}", out.stats.breakdown);
            assert!(out.stats.restarts > 0, "arnoldi_eigs on {case} ran no cycle");
        }
    }

    // four rows over three devices, two-column blocks: a device of one row
    // is thinner than a block, and m < n keeps the solve past its first
    // cycle
    let a = gen::laplace2d(1, 4);
    let b = [1.0, -2.0, 3.0, 0.5];
    for tsqr in TSQRS {
        let ft = FtConfig { solver: config(tsqr, 2, 2), ..Default::default() };
        let out = ca_gmres_ft(MultiGpu::with_defaults(3), &a, &b, &ft);
        assert!(out.stats.converged, "ca_gmres_ft, {tsqr}: {:?}", out.stats.breakdown);
        assert!(relres(&a, &out.x, &b) < 1e-6, "ca_gmres_ft, {tsqr}: {}", relres(&a, &out.x, &b));
    }
}
