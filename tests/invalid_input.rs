//! Every solver entry refuses an input it cannot run with a typed outcome
//! — `stats.breakdown == Some(BreakdownKind::InvalidInput { .. })`, with a
//! NaN relative residual — and never a panic: a shape or a tolerance before
//! it touches a device, a non-finite right-hand side or matrix entry at the
//! initial residual, before any restart cycle. The eigensolver refuses a
//! zero start residual as well, where a solver has its answer `x = 0`. So
//! no non-finite input reaches an MPK block, whose devices read boundary
//! rows their owners computed on a fault-free machine (bit-identical to
//! computing them again for finite values only).

use ca_gmres_repro::gmres::cagmres::KernelMode;
use ca_gmres_repro::gmres::prelude::*;
use ca_gmres_repro::gpusim::MultiGpu;
use ca_gmres_repro::sparse::{gen, Csr};

const NDEV: usize = 2;
/// Basis room of the systems the borrowing entries are handed.
const ROOM: usize = 20;

/// `(case, s, m, the s-step plan the borrowed system carries)`.
const CASES: [(&str, usize, usize, Option<usize>); 6] = [
    ("s = 0", 0, 10, Some(5)),
    ("s > m", 12, 10, Some(5)),
    ("m = 0", 1, 0, Some(5)),
    ("m > sys.m", 5, ROOM + 10, Some(5)),
    ("MPK without a plan", 5, 10, None),
    ("MPK plan shorter than s", 8, 10, Some(5)),
];

/// Refused before any cycle, with no relative residual to report: a
/// refusal never reads as convergence.
fn assert_refused(entry: &str, case: &str, stats: &SolveStats) {
    assert!(
        matches!(stats.breakdown, Some(BreakdownKind::InvalidInput { .. })),
        "{entry} on {case}: {:?}",
        stats.breakdown
    );
    assert!(!stats.converged && stats.restarts == 0, "{entry} on {case} ran");
    assert!(stats.final_relres.is_nan(), "{entry} on {case}: relres {}", stats.final_relres);
}

/// The eigensolver asked for two dominant eigenvalues of `a` from the start
/// residual `b` (two devices, a 4-step plan, 20 restarts) refuses to run.
fn assert_eigs_refused(case: &str, a: &Csr, b: &[f64]) {
    let n = a.nrows();
    let mut mg = MultiGpu::with_defaults(NDEV);
    let sys = System::new(&mut mg, a, Layout::even(n, NDEV), ROOM, Some(4)).unwrap();
    sys.load_rhs(&mut mg, b).unwrap();
    let cfg = ArnoldiConfig { s: 4, m: 12, nev: 2, max_restarts: 20, ..Default::default() };
    let out = arnoldi_eigs(&mut mg, &sys, &cfg).unwrap();
    assert_refused("arnoldi_eigs", case, &out.stats);
    assert!(out.pairs.is_empty(), "arnoldi_eigs on {case}: {:?}", out.pairs);
}

#[test]
fn every_entry_types_what_it_cannot_run() {
    let a = gen::laplace2d(8, 8);
    let n = a.nrows();
    let b = vec![1.0; n];
    let mut refused = 0;
    for (case, s, m, plan) in CASES {
        let cfg = CaGmresConfig { s, m, kernel: KernelMode::Mpk, ..Default::default() };
        let loaded = |s_opt: Option<usize>| {
            let mut mg = MultiGpu::with_defaults(NDEV);
            let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, s_opt).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            (mg, sys)
        };

        let (mut mg, sys) = loaded(plan);
        assert_refused("ca_gmres", case, &ca_gmres(&mut mg, &sys, &cfg).stats);
        refused += 1;
        // the eigensolver generates with the plan the system carries: with
        // none it runs plain SpMV blocks, which is no error
        if plan.is_some() {
            let (mut mg, sys) = loaded(plan);
            let out = arnoldi_eigs(&mut mg, &sys, &ArnoldiConfig { s, m, ..Default::default() });
            assert_refused("arnoldi_eigs", case, &out.unwrap().stats);
            refused += 1;
        }
        // the baseline has no `s`: only its `m` can be wrong
        if m == 0 || m > ROOM {
            let (mut mg, sys) = loaded(None);
            let out = gmres(&mut mg, &sys, &GmresConfig { m, ..Default::default() });
            assert_refused("gmres", case, &out.stats);
            refused += 1;
        }

        // the entries that build their own system size it from `cfg`: only
        // `s` and `m` themselves can be wrong
        if s == 0 || s > m {
            let mut mg = MultiGpu::with_defaults(NDEV);
            let layout = Layout::even(n, NDEV);
            let out = ca_gmres_mixed(&mut mg, &a, &b, layout, &cfg).unwrap();
            assert_refused("ca_gmres_mixed", case, &out.stats);
            assert_eq!(out.x, vec![0.0; n]);
            let ft = FtConfig { solver: cfg, ..Default::default() };
            let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
            assert_refused("ca_gmres_ft", case, &out.stats);
            refused += 2;
        }
    }
    assert_eq!(refused, 19, "every (entry, case) pair of the table was exercised");
}

#[test]
fn a_tolerance_no_iterate_can_meet_is_refused() {
    // no residual meets either; `rtol = 0` stays valid (the planner's fixed
    // budget runs every restart)
    let a = gen::laplace2d(8, 8);
    let n = a.nrows();
    let b = vec![1.0; n];
    for (case, rtol) in [("rtol = NaN", f64::NAN), ("rtol = -1", -1.0)] {
        let cfg = CaGmresConfig { s: 4, m: 12, rtol, max_restarts: 5, ..Default::default() };
        let mut mg = MultiGpu::with_defaults(NDEV);
        let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, Some(4)).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        assert_refused("ca_gmres", case, &ca_gmres(&mut mg, &sys, &cfg).stats);
        let gcfg = GmresConfig { m: 12, rtol, max_restarts: 5, ..Default::default() };
        assert_refused("gmres", case, &gmres(&mut mg, &sys, &gcfg).stats);
        let layout = Layout::even(n, NDEV);
        let out = ca_gmres_mixed(&mut MultiGpu::with_defaults(NDEV), &a, &b, layout, &cfg);
        assert_refused("ca_gmres_mixed", case, &out.unwrap().stats);
        let ft = FtConfig { solver: cfg, ..Default::default() };
        let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
        assert_refused("ca_gmres_ft", case, &out.stats);
    }
}

#[test]
fn the_eigensolver_refuses_a_pair_count_it_cannot_extract() {
    // the eigensolver's own rule beside the solver's: `1 <= nev < m`
    let a = gen::laplace2d(8, 8);
    let n = a.nrows();
    for (case, m, nev) in [("nev = 0", 10, 0), ("nev = m", 10, 10), ("m = 1", 1, 1)] {
        let mut mg = MultiGpu::with_defaults(NDEV);
        let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, None).unwrap();
        sys.load_rhs(&mut mg, &vec![1.0; n]).unwrap();
        let cfg = ArnoldiConfig { s: 1, m, nev, ..Default::default() };
        let out = arnoldi_eigs(&mut mg, &sys, &cfg).unwrap();
        assert_refused("arnoldi_eigs", case, &out.stats);
        assert!(out.pairs.is_empty());
    }
}

#[test]
fn a_right_hand_side_of_the_wrong_length_is_refused() {
    let a = gen::laplace2d(6, 6);
    let b = vec![1.0; a.nrows() - 1];
    let cfg = CaGmresConfig { s: 4, m: 12, ..Default::default() };
    let mut mg = MultiGpu::with_defaults(NDEV);
    let layout = Layout::even(a.nrows(), NDEV);
    let mixed = ca_gmres_mixed(&mut mg, &a, &b, layout, &cfg).unwrap();
    assert_refused("ca_gmres_mixed", "short b", &mixed.stats);
    let ft = FtConfig { solver: cfg, ..Default::default() };
    let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
    assert_refused("ca_gmres_ft", "short b", &out.stats);
}

#[test]
fn a_non_finite_right_hand_side_is_refused_never_converged() {
    // the probe: NaN or Inf in `b` used to come back `converged` at 0
    // restarts from all four entries — the initial residual norm lost the
    // NaN, and an infinite one met an infinite target
    let a = gen::laplace2d(8, 8);
    let n = a.nrows();
    let cfg = CaGmresConfig { s: 4, m: 12, kernel: KernelMode::Mpk, ..Default::default() };
    for (case, poison) in [("NaN in b", f64::NAN), ("Inf in b", f64::INFINITY)] {
        let mut b = vec![1.0; n];
        b[n / 3] = poison;
        let loaded = || {
            let mut mg = MultiGpu::with_defaults(NDEV);
            let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, Some(4)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            (mg, sys)
        };
        let (mut mg, sys) = loaded();
        assert_refused("ca_gmres", case, &ca_gmres(&mut mg, &sys, &cfg).stats);
        let (mut mg, sys) = loaded();
        let out = gmres(&mut mg, &sys, &GmresConfig { m: 12, ..Default::default() });
        assert_refused("gmres", case, &out.stats);
        let mut mg = MultiGpu::with_defaults(NDEV);
        let layout = Layout::even(n, NDEV);
        let out = ca_gmres_mixed(&mut mg, &a, &b, layout, &cfg).unwrap();
        assert_refused("ca_gmres_mixed", case, &out.stats);
        let ft = FtConfig { solver: cfg, ..Default::default() };
        let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
        assert_refused("ca_gmres_ft", case, &out.stats);
        assert_eigs_refused(case, &a, &b);
    }
}

#[test]
fn a_non_finite_matrix_entry_is_refused_never_run() {
    // `A x0` at `x0 = 0` multiplies every entry: NaN or Inf anywhere in `A`
    // makes the initial residual norm NaN
    let cfg = CaGmresConfig { s: 4, m: 12, kernel: KernelMode::Mpk, ..Default::default() };
    for (case, poison) in [("NaN in A", f64::NAN), ("Inf in A", f64::INFINITY)] {
        let mut a = gen::laplace2d(8, 8);
        let n = a.nrows();
        let entry = a.row_ptr()[n / 3] + 1;
        a.values_mut()[entry] = poison;
        let b = vec![1.0; n];
        let loaded = || {
            let mut mg = MultiGpu::with_defaults(NDEV);
            let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, Some(4)).unwrap();
            sys.load_rhs(&mut mg, &b).unwrap();
            (mg, sys)
        };
        let (mut mg, sys) = loaded();
        assert_refused("ca_gmres", case, &ca_gmres(&mut mg, &sys, &cfg).stats);
        let (mut mg, sys) = loaded();
        let out = gmres(&mut mg, &sys, &GmresConfig { m: 12, ..Default::default() });
        assert_refused("gmres", case, &out.stats);
        let mut mg = MultiGpu::with_defaults(NDEV);
        let layout = Layout::even(n, NDEV);
        let out = ca_gmres_mixed(&mut mg, &a, &b, layout, &cfg).unwrap();
        assert_refused("ca_gmres_mixed", case, &out.stats);
        let ft = FtConfig { solver: cfg, ..Default::default() };
        let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
        assert_refused("ca_gmres_ft", case, &out.stats);
        assert_eigs_refused(case, &a, &b);
    }
}

#[test]
fn a_zero_right_hand_side_is_solved_by_zero_and_refused_by_the_eigensolver() {
    // `b = 0` is its own answer: every solver entry returns `x = 0`
    // converged before any cycle; the eigensolver's start vector spans no
    // Krylov space, so it refuses to run
    let a = gen::laplace2d(8, 8);
    let n = a.nrows();
    let b = vec![0.0; n];
    let cfg = CaGmresConfig { s: 4, m: 12, kernel: KernelMode::Mpk, ..Default::default() };
    let solved = |entry: &str, stats: &SolveStats, x: &[f64]| {
        assert!(stats.converged && stats.restarts == 0, "{entry}: {stats:?}");
        assert_eq!(stats.final_relres, 0.0, "{entry}");
        assert!(stats.breakdown.is_none(), "{entry}: {:?}", stats.breakdown);
        assert_eq!(x, vec![0.0; n], "{entry}");
    };
    let loaded = || {
        let mut mg = MultiGpu::with_defaults(NDEV);
        let sys = System::new(&mut mg, &a, Layout::even(n, NDEV), ROOM, Some(4)).unwrap();
        sys.load_rhs(&mut mg, &b).unwrap();
        (mg, sys)
    };
    let (mut mg, sys) = loaded();
    let stats = ca_gmres(&mut mg, &sys, &cfg).stats;
    solved("ca_gmres", &stats, &sys.download_x(&mut mg).unwrap());
    let (mut mg, sys) = loaded();
    let stats = gmres(&mut mg, &sys, &GmresConfig { m: 12, ..Default::default() }).stats;
    solved("gmres", &stats, &sys.download_x(&mut mg).unwrap());
    let mut mg = MultiGpu::with_defaults(NDEV);
    let layout = Layout::even(n, NDEV);
    let out = ca_gmres_mixed(&mut mg, &a, &b, layout, &cfg).unwrap();
    solved("ca_gmres_mixed", &out.stats, &out.x);
    let ft = FtConfig { solver: cfg, ..Default::default() };
    let out = ca_gmres_ft(MultiGpu::with_defaults(NDEV), &a, &b, &ft);
    solved("ca_gmres_ft", &out.stats, &out.x);
    assert_eigs_refused("b = 0", &a, &b);
}
