//! Extension study: numerical stability at aggressive step sizes — the
//! escalation ladder vs static caps vs an oracle.
//!
//! The planner's §IV-A stability caps (monomial `s <= 8`, CholQR monomial
//! `s <= 5`) are *static*: they exclude step sizes whose unscaled power
//! basis is expected to degenerate, trading communication savings for
//! safety on every matrix uniformly. The numerical-health ladder makes
//! that trade per solve instead: run at the aggressive `s`, watch the
//! Gram-condition estimate the TSQR factors already paid for, and climb a
//! cost-ordered escalation ladder (reorthogonalize, throttle `s`
//! in-cycle, switch monomial -> Newton on harvested Ritz shifts, promote
//! f32 -> f64) only when the basis actually degenerates.
//!
//! Three arms per `(matrix, s)` point, all CholQR + monomial (the
//! fragile combination the caps exist for), `m` = 24, rtol = 1e-8:
//!
//! * **static** — ladder off. Beyond the caps the solver is allowed to
//!   break down; the breakdown must be *typed* (that contract is also
//!   chaos-tested). This is what the static caps protect against.
//! * **ladder** — [`Ladder::default()`] armed. Same start point; the
//!   monitor triggers rungs as conditioning decays.
//! * **oracle** — Newton basis from the start (and ladder off): the
//!   configuration a planner with perfect foresight would have picked.
//!
//! Acceptance (asserted): at >= 1 point beyond the static monomial cap
//! the unguarded solver fails while the ladder-guarded one converges to
//! the same host-verified tolerance; the oracle converges everywhere.
//!
//! Flags: `--smoke` first matrix + two `s` points, canonical DIGEST
//! lines, no files written (CI pins the output to
//! `bench_results/smoke/ext_stability.txt`).

use ca_bench::{table, xhash, Study};
use ca_chaos::runner::host_relres;
use ca_gmres::prelude::*;
use ca_gpusim::MultiGpu;
use ca_sparse::{gen, Csr};

const NDEV: usize = 3;
const M: usize = 24;
const RTOL: f64 = 1e-8;
const MAX_RESTARTS: usize = 400;
/// The planner's static monomial stability cap (§IV-A).
const STATIC_CAP: usize = 8;
/// Step sizes swept — the last three sit beyond the static cap.
const S_SWEEP: [usize; 5] = [6, 8, 10, 12, 16];

ca_bench::row!(Row {
    matrix: String ["matrix"],
    s: usize ["s"],
    arm: String ["arm"],
    converged: bool ["converged" |r| match (r.converged, &r.breakdown) {
        (true, _) => "yes".into(),
        (false, Some(_)) => "breakdown".into(),
        (false, None) => "exhausted".into(),
    }],
    breakdown: Option<String>,
    restarts: usize ["restarts/iters" |r| format!("{}/{}", r.restarts, r.total_iters)],
    total_iters: usize,
    tts_ms: f64 ["tts ms" "{:.3}"],
    relres: f64 ["relres" "{:.2e}"],
    /// Rung labels of every escalation, in firing order.
    escalations: Vec<String> ["escalations" |r| {
        let count = |k: &str| r.escalations.iter().filter(|e| e.as_str() == k).count();
        if r.escalations.is_empty() {
            return "-".into();
        }
        let (re, th, bs, pr) =
            (count("reorth"), count("throttle"), count("basis-switch"), count("promote"));
        format!("r{re}/t{th}/b{bs}/p{pr}")
    }],
    /// Worst Gram-condition estimate the monitor recorded.
    cond_peak: f64 ["cond peak" |r| if r.cond_peak > 0.0 {
        format!("{:.1e}", r.cond_peak)
    } else {
        "-".into()
    }],
});

fn problems() -> Vec<(String, Csr)> {
    vec![
        ("laplace2d_16".into(), gen::laplace2d(16, 16)),
        ("convdiff_16".into(), gen::convection_diffusion(16, 16, 1.5)),
    ]
}

fn rhs(a: &Csr) -> Vec<f64> {
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 3) % 11) as f64 * 0.2).collect();
    let mut b = vec![0.0; n];
    ca_sparse::spmv::spmv(a, &x_true, &mut b);
    b
}

fn arm_config(arm: &str, s: usize) -> FtConfig {
    let mut cfg = FtConfig::default();
    cfg.solver.s = s;
    cfg.solver.m = M;
    cfg.solver.rtol = RTOL;
    cfg.solver.max_restarts = MAX_RESTARTS;
    cfg.solver.orth = OrthConfig { tsqr: TsqrKind::CholQr, ..OrthConfig::default() };
    cfg.solver.basis = if arm == "oracle" { BasisChoice::Newton } else { BasisChoice::Monomial };
    if arm == "ladder" {
        cfg.ladder = Some(Ladder::default());
    }
    cfg
}

fn run_arm(study: &Study, name: &str, a: &Csr, b: &[f64], arm: &str, s: usize) -> Row {
    let cfg = arm_config(arm, s);
    let mg = MultiGpu::with_defaults(NDEV);
    let out = ca_gmres_ft(mg, a, b, &cfg);
    study.digest(format_args!(
        "{name} s={s} {arm} conv={} restarts={} esc={} xhash={:016x} t_bits={:016x}",
        out.stats.converged,
        out.stats.restarts,
        out.report.escalations.len(),
        xhash(&out.x),
        out.stats.t_total.to_bits()
    ));
    let relres = host_relres(a, b, &out.x);
    if out.stats.converged {
        assert!(
            relres <= RTOL * 10.0,
            "{name} s={s} {arm}: claimed convergence but host relres {relres:.3e}"
        );
    } else {
        assert!(
            out.stats.breakdown.is_some() || out.stats.restarts >= MAX_RESTARTS,
            "{name} s={s} {arm}: non-convergence with no typed breakdown"
        );
    }
    Row {
        matrix: name.to_string(),
        s,
        arm: arm.to_string(),
        converged: out.stats.converged,
        breakdown: out.stats.breakdown.as_ref().map(|bd| format!("{bd:?}")),
        restarts: out.stats.restarts,
        total_iters: out.stats.total_iters,
        tts_ms: out.stats.t_total * 1e3,
        relres,
        escalations: out.report.escalations.iter().map(|e| e.rung.label().to_string()).collect(),
        cond_peak: out.report.cond_trajectory.iter().copied().fold(0.0, f64::max),
    }
}

fn main() {
    let study = Study::new("ext_stability", &["--smoke"]);
    // the smoke run: first matrix, one point inside and one past the cap
    let mut problems = problems();
    problems.truncate(if study.smoke { 1 } else { 2 });
    let sweep = S_SWEEP.into_iter().filter(|&s| !study.smoke || s == 6 || s == 12);

    let mut rows: Vec<Row> = Vec::new();
    for (name, a) in &problems {
        let b = rhs(a);
        for s in sweep.clone() {
            for arm in ["static", "ladder", "oracle"] {
                rows.push(run_arm(&study, name, a, &b, arm, s));
            }
        }
    }

    // --- acceptance: the ladder must buy real headroom past the cap ---
    let mut rescued = 0usize;
    for point in rows.chunks(3) {
        let [stat, lad, ora] = point else { unreachable!("three arms per point") };
        assert!(ora.converged, "{} s={}: oracle (Newton) must converge", ora.matrix, ora.s);
        if stat.s > STATIC_CAP && !stat.converged && lad.converged {
            rescued += 1;
        }
    }
    assert!(rescued >= 1, "ladder rescued no (matrix, s) point beyond the static cap {STATIC_CAP}");

    println!(
        "\nExtension — numerical stability: CholQR + monomial CA-GMRES(s, {M}) on {NDEV} GPUs, \
         rtol = {RTOL:.0e}; static caps vs escalation ladder vs Newton oracle \
         (static monomial cap s = {STATIC_CAP}; {rescued} point(s) past it rescued by the ladder)"
    );
    println!("{}", table(&rows));

    if !study.smoke {
        study.write_json(&rows);
    }
}
