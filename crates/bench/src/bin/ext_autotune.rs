//! Extension study: cost-model autotuning vs the paper's hand-tuned
//! defaults vs an oracle.
//!
//! The Figure 12/14 configurations were hand-tuned per matrix. This
//! study lets `ca-tune` do that search automatically:
//!
//! 1. **Calibrate** — fit a [`ca_tune::MachineProfile`] from simulated
//!    micro-kernel sweeps (the Figure 11 shapes). The profile is
//!    written to `bench_results/profiles/default.json`; a ca-tune test
//!    re-fits it and asserts bit-identity, so the committed artifact is
//!    pinned to the calibration code.
//! 2. **Plan** — for every suite matrix, rank the candidate space
//!    `(s, basis, TSQR, kernel, device count)` by the planner's
//!    cycle-time prediction — one restart cycle of the solver run on a
//!    cost-only machine, no arithmetic — *without running any solve*.
//! 3. **Validate** — replay the top `ORACLE_K` predictions plus the
//!    paper-default configuration through real simulated solves under a
//!    fixed work budget (`rtol = 0`, [`RESTARTS`] restart cycles, so
//!    every run executes the same iteration count and time-to-solution
//!    differences are pure speed). The best actual time among those
//!    runs is the oracle.
//!
//! Asserted invariants (the subsystem's acceptance bar):
//! * the planner's pick is within 10% time-to-solution of the oracle on
//!   every matrix;
//! * the predicted cycle time is within 25% of the simulated actual for
//!   every validated candidate;
//! * the tuned pick strictly beats the paper default on at least half
//!   the suite.
//!
//! Flags: `--large` near-paper sizes; `--matrix <name>` one suite
//! entry; `--smoke` first matrix only with a reduced grid, canonical
//! DIGEST lines, no files written (CI pins the output to
//! `bench_results/smoke/ext_autotune.txt`).

use ca_bench::{balanced_problem, table, Study, TestMatrix};
use ca_gmres::prelude::*;
use ca_gpusim::{KernelConfig, PerfModel};
use ca_tune::{calibrate, Candidate, CandidateSpace, MachineProfile, Planner};

const NDEV: usize = 3;
/// Validated candidates per matrix (top of the ranking).
const ORACLE_K: usize = 10;
/// Fixed CA-cycle budget for validation runs.
const RESTARTS: usize = 4;

ca_bench::row!(Row {
    matrix: String ["matrix"],
    config: String ["config"],
    rank: usize ["rank" |r| if r.rank == usize::MAX { "-".into() } else { r.rank.to_string() }],
    predicted_cycle_ms: f64 ["pred ms" "{:.3}"],
    actual_cycle_ms: f64 ["actual ms" "{:.3}"],
    rel_err: f64 ["err" |r| format!("{:.1}%", r.rel_err * 100.0)],
    tts_ms: f64 ["tts ms" "{:.3}"],
    tuned_pick: bool ["" |r| match (r.tuned_pick, r.paper_default, r.oracle_best) {
        (true, _, true) => "pick+oracle".into(),
        (true, _, false) => "pick".into(),
        (false, true, _) => "default".into(),
        (false, false, true) => "oracle".into(),
        _ => String::new(),
    }],
    paper_default: bool,
    oracle_best: bool,
});

fn paper_default() -> Candidate {
    let d = CaGmresConfig::default();
    Candidate {
        s: d.s,
        basis: d.basis,
        tsqr: d.orth.tsqr,
        borth: d.orth.borth,
        kernel: d.kernel,
        ndev: NDEV,
        ordering: Ordering::Natural,
        reorth: d.orth.reorth,
        prec: d.mpk_prec,
    }
}

fn validate(
    study: &Study,
    t: &TestMatrix,
    profile: &MachineProfile,
    rows: &mut Vec<Row>,
    failures: &mut Vec<String>,
) {
    let (a, b) = balanced_problem(&t.a);
    let planner =
        Planner::with_profile(&a, t.m, profile, &PerfModel::default(), KernelConfig::default());
    let space = if study.smoke { CandidateSpace::smoke(NDEV) } else { CandidateSpace::paper(NDEV) };
    let plan = planner.plan(&space);
    assert!(!plan.ranked.is_empty(), "{}: empty plan", t.name);
    let mut h = ca_obs::fnv1a(b"");
    for r in &plan.ranked {
        let label = format!("{h:016x} {} {:016x}", r.cand.label(), r.predicted_cycle_s.to_bits());
        h = ca_obs::fnv1a(label.as_bytes());
    }
    study.digest(format_args!(
        "{} plan ranked={} pruned={} rankhash={h:016x}",
        t.name,
        plan.ranked.len(),
        plan.pruned.len()
    ));

    // validation pool: top-K of the ranking + the paper default
    let mut pool: Vec<(usize, Candidate)> =
        plan.ranked.iter().take(ORACLE_K).enumerate().map(|(i, r)| (i + 1, r.cand)).collect();
    let dflt = paper_default();
    if !pool.iter().any(|(_, c)| *c == dflt) {
        let rank =
            plan.ranked.iter().position(|r| r.cand == dflt).map(|i| i + 1).unwrap_or(usize::MAX);
        pool.push((rank, dflt));
    }

    let mut results: Vec<(usize, Candidate, ca_tune::CrossCheck)> = pool
        .iter()
        .map(|&(rank, cand)| (rank, cand, planner.cross_validate(&cand, &b, RESTARTS)))
        .collect();
    results.sort_by(|x, y| x.2.tts_s.total_cmp(&y.2.tts_s));
    let oracle_tts = results[0].2.tts_s;
    let oracle_cand = results[0].1;
    let pick = plan.ranked[0].cand;
    let tts_of = |c: Candidate| results.iter().find(|(_, r, _)| *r == c).unwrap().2.tts_s;
    let (pick_tts, default_tts) = (tts_of(pick), tts_of(dflt));

    if pick_tts > 1.10 * oracle_tts {
        failures.push(format!(
            "{}: tuned pick {} is {:.1}% off the oracle {}",
            t.name,
            pick.label(),
            (pick_tts / oracle_tts - 1.0) * 100.0,
            oracle_cand.label()
        ));
    }
    for (_, cand, chk) in &results {
        if chk.rel_err > 0.25 {
            failures.push(format!(
                "{}: {} predicted {:.3} ms vs actual {:.3} ms ({:.0}% off)",
                t.name,
                cand.label(),
                chk.predicted_cycle_s * 1e3,
                chk.actual_cycle_s * 1e3,
                chk.rel_err * 100.0
            ));
        }
    }
    for (_, cand, chk) in &results {
        study.digest(format_args!(
            "{} run {} pred_bits={:016x} act_bits={:016x} tts_bits={:016x}",
            t.name,
            cand.label(),
            chk.predicted_cycle_s.to_bits(),
            chk.actual_cycle_s.to_bits(),
            chk.tts_s.to_bits()
        ));
    }

    for (rank, cand, chk) in &results {
        rows.push(Row {
            matrix: t.name.to_string(),
            config: cand.label(),
            rank: *rank,
            predicted_cycle_ms: chk.predicted_cycle_s * 1e3,
            actual_cycle_ms: chk.actual_cycle_s * 1e3,
            rel_err: chk.rel_err,
            tts_ms: chk.tts_s * 1e3,
            tuned_pick: *cand == pick,
            paper_default: *cand == dflt,
            oracle_best: chk.tts_s == oracle_tts,
        });
    }
    eprintln!(
        "[ext_autotune] {}: pick {} tts {:.3} ms (oracle {:.3}, default {:.3})",
        t.name,
        pick.label(),
        pick_tts * 1e3,
        oracle_tts * 1e3,
        default_tts * 1e3
    );
}

fn main() {
    let mut study = Study::new("ext_autotune", &["--large", "--smoke", "--matrix <name>"]);

    // one machine-wide profile: fitted once, shared by every matrix
    let profile = calibrate(&PerfModel::default(), KernelConfig::default(), "m2090-sim");
    println!("DIGEST profile hash={}", profile.hash_hex());
    if !study.smoke {
        study.write("profiles/default.json", &profile.to_json());
    }
    study.meta.profile_hash = Some(profile.hash_hex());

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for t in study.suite() {
        validate(&study, &t, &profile, &mut rows, &mut failures);
    }

    // cycle-time accuracy and pick-vs-oracle are hard failures;
    // beats-default is a suite-level majority criterion
    assert!(failures.is_empty(), "acceptance failures:\n{}", failures.join("\n"));
    if !study.smoke && study.matrix.is_none() {
        let tts = |m: &str, pick: fn(&Row) -> bool| {
            rows.iter().find(|r| r.matrix == m && pick(r)).map(|r| r.tts_ms)
        };
        let mut matrices: Vec<&str> = rows.iter().map(|r| r.matrix.as_str()).collect();
        matrices.dedup();
        let beats = matrices
            .iter()
            .filter(|m| {
                let (tuned, dflt) = (tts(m, |r| r.tuned_pick), tts(m, |r| r.paper_default));
                matches!((tuned, dflt), (Some(t), Some(d)) if t < d)
            })
            .count();
        assert!(
            2 * beats >= matrices.len(),
            "tuned pick beat the paper default on only {beats}/{} matrices",
            matrices.len()
        );
    }

    println!(
        "\nExtension — autotuning: calibrated planner vs paper default vs oracle ({NDEV} GPUs, \
         fixed {RESTARTS}-cycle budget)"
    );
    println!("{}", table(&rows));

    if !study.smoke {
        study.write_json(&rows);
    }
}
