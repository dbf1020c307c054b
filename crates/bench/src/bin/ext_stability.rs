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
//! lines, no files written (CI diffs the output of two runs).

use ca_bench::{format_table, write_json, Scale};
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

struct Row {
    matrix: String,
    s: usize,
    arm: String,
    converged: bool,
    breakdown: Option<String>,
    restarts: usize,
    total_iters: usize,
    tts_ms: f64,
    relres: f64,
    /// Rung labels of every escalation, in firing order.
    escalations: Vec<String>,
    /// Worst Gram-condition estimate the monitor recorded.
    cond_peak: f64,
}

ca_bench::jv_struct!(Row {
    matrix,
    s,
    arm,
    converged,
    breakdown,
    restarts,
    total_iters,
    tts_ms,
    relres,
    escalations,
    cond_peak,
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

fn host_relres(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    ca_sparse::spmv::spmv(a, x, &mut ax);
    let rr: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let bb: f64 = b.iter().map(|bi| bi * bi).sum();
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
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

fn run_arm(name: &str, a: &Csr, b: &[f64], arm: &str, s: usize) -> Row {
    let cfg = arm_config(arm, s);
    let mg = MultiGpu::with_defaults(NDEV);
    let out = ca_gmres_ft(mg, a, b, &cfg);
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
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let _ = Scale::from_args();

    let mut rows: Vec<Row> = Vec::new();
    for (mi, (name, a)) in problems().into_iter().enumerate() {
        if smoke && mi > 0 {
            break;
        }
        let b = rhs(&a);
        for s in S_SWEEP {
            if smoke && s != 6 && s != 12 {
                continue;
            }
            for arm in ["static", "ladder", "oracle"] {
                let row = run_arm(&name, &a, &b, arm, s);
                if smoke {
                    let cfg = arm_config(arm, s);
                    let mg = MultiGpu::with_defaults(NDEV);
                    let out = ca_gmres_ft(mg, &a, &b, &cfg);
                    println!(
                        "DIGEST {name} s={s} {arm} conv={} restarts={} esc={} xhash={:016x} \
                         t_bits={:016x}",
                        out.stats.converged,
                        out.stats.restarts,
                        out.report.escalations.len(),
                        ca_obs::fnv1a_words(out.x.iter().map(|v| v.to_bits())),
                        out.stats.t_total.to_bits()
                    );
                }
                rows.push(row);
            }
        }
    }

    // --- acceptance: the ladder must buy real headroom past the cap ---
    let find = |m: &str, s: usize, arm: &str| {
        rows.iter().find(|r| r.matrix == m && r.s == s && r.arm == arm).unwrap()
    };
    let mut rescued = 0usize;
    for (name, _) in problems().iter().take(if smoke { 1 } else { usize::MAX }) {
        for s in S_SWEEP {
            if smoke && s != 6 && s != 12 {
                continue;
            }
            let stat = find(name, s, "static");
            let lad = find(name, s, "ladder");
            let ora = find(name, s, "oracle");
            assert!(ora.converged, "{name} s={s}: oracle (Newton) must converge");
            if s > STATIC_CAP && !stat.converged && lad.converged {
                rescued += 1;
            }
        }
    }
    assert!(rescued >= 1, "ladder rescued no (matrix, s) point beyond the static cap {STATIC_CAP}");

    println!(
        "\nExtension — numerical stability: CholQR + monomial CA-GMRES(s, {M}) on {NDEV} GPUs, \
         rtol = {RTOL:.0e}; static caps vs escalation ladder vs Newton oracle \
         (static monomial cap s = {STATIC_CAP}; {rescued} point(s) past it rescued by the ladder)"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let esc = if r.escalations.is_empty() {
                "-".to_string()
            } else {
                let count = |k: &str| r.escalations.iter().filter(|e| e == &k).count();
                format!(
                    "r{}/t{}/b{}/p{}",
                    count("reorth"),
                    count("throttle"),
                    count("basis-switch"),
                    count("promote")
                )
            };
            vec![
                r.matrix.clone(),
                r.s.to_string(),
                r.arm.clone(),
                if r.converged {
                    "yes".into()
                } else if r.breakdown.is_some() {
                    "breakdown".into()
                } else {
                    "exhausted".into()
                },
                format!("{}/{}", r.restarts, r.total_iters),
                format!("{:.3}", r.tts_ms),
                format!("{:.2e}", r.relres),
                esc,
                if r.cond_peak > 0.0 { format!("{:.1e}", r.cond_peak) } else { "-".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "matrix",
                "s",
                "arm",
                "converged",
                "restarts/iters",
                "tts ms",
                "relres",
                "escalations",
                "cond peak"
            ],
            &table
        )
    );

    if !smoke {
        write_json("ext_stability", &rows);
    }
}
