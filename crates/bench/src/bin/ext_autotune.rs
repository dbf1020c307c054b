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
//! DIGEST lines, no files written (CI diffs the output of two runs).

use ca_bench::{balanced_problem, format_table, set_run_meta, write_json, RunMeta, Scale};
use ca_gmres::prelude::*;
use ca_gpusim::{KernelConfig, PerfModel};
use ca_tune::{calibrate, fnv1a64, Candidate, CandidateSpace, MachineProfile, Planner};

const NDEV: usize = 3;
/// Validated candidates per matrix (top of the ranking).
const ORACLE_K: usize = 10;
/// Fixed CA-cycle budget for validation runs.
const RESTARTS: usize = 4;

struct Row {
    matrix: String,
    config: String,
    rank: usize,
    predicted_cycle_ms: f64,
    actual_cycle_ms: f64,
    rel_err: f64,
    tts_ms: f64,
    tuned_pick: bool,
    paper_default: bool,
    oracle_best: bool,
}

ca_bench::jv_struct!(Row {
    matrix,
    config,
    rank,
    predicted_cycle_ms,
    actual_cycle_ms,
    rel_err,
    tts_ms,
    tuned_pick,
    paper_default,
    oracle_best,
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

fn study(
    t: &ca_bench::TestMatrix,
    profile: &MachineProfile,
    smoke: bool,
    rows: &mut Vec<Row>,
    failures: &mut Vec<String>,
) {
    let (a, b) = balanced_problem(&t.a);
    let planner =
        Planner::with_profile(&a, t.m, profile, &PerfModel::default(), KernelConfig::default());
    let space = if smoke { CandidateSpace::smoke(NDEV) } else { CandidateSpace::paper(NDEV) };
    let plan = planner.plan(&space);
    assert!(!plan.ranked.is_empty(), "{}: empty plan", t.name);
    if smoke {
        let mut h = fnv1a64(b"");
        for r in &plan.ranked {
            h = fnv1a64(
                format!("{h:016x} {} {:016x}", r.cand.label(), r.predicted_cycle_s.to_bits())
                    .as_bytes(),
            );
        }
        println!(
            "DIGEST {} plan ranked={} pruned={} rankhash={h:016x}",
            t.name,
            plan.ranked.len(),
            plan.pruned.len()
        );
    }

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
    let pick_tts = results.iter().find(|(_, c, _)| *c == pick).unwrap().2.tts_s;
    let default_tts = results.iter().find(|(_, c, _)| *c == dflt).unwrap().2.tts_s;

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
    if smoke {
        for (_, cand, chk) in &results {
            println!(
                "DIGEST {} run {} pred_bits={:016x} act_bits={:016x} tts_bits={:016x}",
                t.name,
                cand.label(),
                chk.predicted_cycle_s.to_bits(),
                chk.actual_cycle_s.to_bits(),
                chk.tts_s.to_bits()
            );
        }
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
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = Scale::from_args();
    let filter: Option<String> = ca_bench::flag_value(&args, "--matrix");

    // one machine-wide profile: fitted once, shared by every matrix
    let profile = calibrate(&PerfModel::default(), KernelConfig::default(), "m2090-sim");
    println!("DIGEST profile hash={}", profile.hash_hex());
    if !smoke {
        let dir = ca_bench::bench_dir().join("profiles");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join("default.json");
            let _ = std::fs::write(&path, profile.to_json());
            eprintln!("[ca-bench] wrote {}", path.display());
        }
    }
    set_run_meta(RunMeta { profile_hash: Some(profile.hash_hex()), ..RunMeta::default() });

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (i, t) in ca_bench::suite(scale).into_iter().enumerate() {
        if filter.as_deref().is_some_and(|f| f != t.name) {
            continue;
        }
        if smoke && i > 0 {
            break;
        }
        study(&t, &profile, smoke, &mut rows, &mut failures);
    }

    // cycle-time accuracy and pick-vs-oracle are hard failures;
    // beats-default is a suite-level majority criterion
    assert!(failures.is_empty(), "acceptance failures:\n{}", failures.join("\n"));
    let matrices: Vec<String> = {
        let mut m: Vec<String> = rows.iter().map(|r| r.matrix.clone()).collect();
        m.dedup();
        m
    };
    if !smoke && filter.is_none() {
        let beats = matrices
            .iter()
            .filter(|m| {
                let tuned = rows.iter().find(|r| &r.matrix == *m && r.tuned_pick).map(|r| r.tts_ms);
                let dflt =
                    rows.iter().find(|r| &r.matrix == *m && r.paper_default).map(|r| r.tts_ms);
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
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mark = match (r.tuned_pick, r.paper_default, r.oracle_best) {
                (true, _, true) => "pick+oracle",
                (true, _, false) => "pick",
                (false, true, _) => "default",
                (false, false, true) => "oracle",
                _ => "",
            };
            vec![
                r.matrix.clone(),
                r.config.clone(),
                if r.rank == usize::MAX { "-".into() } else { r.rank.to_string() },
                format!("{:.3}", r.predicted_cycle_ms),
                format!("{:.3}", r.actual_cycle_ms),
                format!("{:.1}%", r.rel_err * 100.0),
                format!("{:.3}", r.tts_ms),
                mark.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["matrix", "config", "rank", "pred ms", "actual ms", "err", "tts ms", ""],
            &table
        )
    );

    if !smoke {
        write_json("ext_autotune", &rows);
    }
}
