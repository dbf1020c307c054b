//! `ca-perf` — the two-clock benchmark of the CA-GMRES reproduction.
//!
//! ```text
//! ca-perf run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! ca-perf trace   [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
//! ca-perf compare A.json B.json
//! ```
//!
//! With `--workload` the process runs that one workload and ends its
//! standard output with the result line of the benchmark contract.
//! Without it, every workload runs in a child process of its own (so peak
//! memory is per workload) and the metrics are printed side by side.
//! `trace` is `run --trace 1`: the separate traced run that yields the
//! per-layer numbers. See `README.md`.

// Numeric probes index several parallel slices at once, like the crates
// they measure.
#![allow(clippy::needless_range_loop)]

mod compare;
mod gate;
mod layers;
mod record;
mod report;
mod run;
mod span;
mod spec;
mod stats;

use ca_obs::Jv;
use record::Record;
use std::process::{Command, ExitCode, Stdio};

/// Prefix of the line on which a single-workload process hands its full
/// record to the parent.
const DETAIL: &str = "DETAIL ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<String>,
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { spec::QUICK_SECONDS } else { spec::DEFAULT_SECONDS })
    }
}

fn parse(mut words: impl Iterator<Item = String>, traced: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        traced,
        quick: false,
        out: None,
    };
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--workload" => args.workload = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where `trace` leaves its span files (git-ignored).
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload in this process; the result line comes last.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let workloads = spec::workloads(args.quick);
    let w = workloads.iter().find(|w| w.name == name).ok_or_else(|| {
        format!("unknown workload '{name}'; there are {:?}", workloads.map(|w| w.name))
    })?;
    let mut rec = if args.traced {
        layers::trace_workload(w, args.seed, args.seconds(), &out_dir())
    } else {
        run::run_workload(w, args.seed, args.seconds())
    };
    rec.notes.insert(0, ("why".into(), Jv::Str(w.why.into())));
    report::print_record(&rec);
    println!("{DETAIL}{}", rec.to_jv().render());
    println!("{}", rec.contract_line());
    Ok(rec.failed == 0)
}

/// Run every workload, each in a child process, and print them together.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut records = Vec::new();
    for w in spec::workloads(args.quick) {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", w.name, "--trace", if args.traced { "1" } else { "0" }])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds().to_string()])
            .env("RAYON_NUM_THREADS", report::rayon_threads().to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if args.quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end
        let out = cmd.output().map_err(|e| format!("cannot start the {} process: {e}", w.name))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let detail = text.lines().find_map(|l| l.strip_prefix(DETAIL)).ok_or_else(|| {
            format!("the {} process ended with {} and no record", w.name, out.status)
        })?;
        let rec = Record::from_jv(&Jv::parse(detail)?)?;
        records.push(rec);
    }
    report::print_table(&records, args.traced);
    if let Some(path) = &args.out {
        let mode = if args.traced { "trace" } else { "run" };
        let mut text =
            report::document(mode, args.seed, args.seconds(), args.quick, &records).render_pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    for r in records.iter().filter(|r| r.failed > 0) {
        eprintln!("{}: {} of {} failed: {:?}", r.workload, r.failed, r.attempted, r.failures);
    }
    Ok(records.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let outcome = match words.next().as_deref() {
        Some(mode @ ("run" | "trace")) => {
            parse(words, mode == "trace").and_then(|args| match &args.workload {
                Some(name) => single(name, &args),
                None => all(&args),
            })
        }
        Some("compare") => match (words.next(), words.next(), words.next()) {
            (Some(a), Some(b), None) => report::read_document(&a)
                .and_then(|a| Ok((a, report::read_document(&b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b)),
            _ => Err("compare takes two files written by `run --out`".into()),
        },
        _ => Err("usage: ca-perf run|trace [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--quick] [--out FILE] | ca-perf compare A.json B.json"
            .into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // the metrics were printed; something failed its check or regressed
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("ca-perf: {e}");
            ExitCode::from(1)
        }
    }
}
