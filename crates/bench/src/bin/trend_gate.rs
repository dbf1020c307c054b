//! Bench-trend gate CLI: diff a freshly generated result envelope
//! against the committed baseline and exit nonzero on schema drift,
//! digest drift, or a >10% time regression.
//!
//! Usage:
//!
//! ```text
//! trend_gate <figure> [--baseline <dir>] [--fresh <dir>] [--tol <frac>]
//! ```
//!
//! `<figure>` names the artifact stem (e.g. `ext_profile_smoke`); the
//! gate reads `<baseline>/<figure>.json` (default `bench_results/`,
//! i.e. the committed baseline) and `<fresh>/<figure>.json` (default
//! `$CA_BENCH_DIR`, where a just-run `--smoke` study wrote its
//! envelope).

use ca_bench::trend;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure: Option<String> = None;
    let mut baseline_dir = "bench_results".to_string();
    let mut fresh_dir = std::env::var("CA_BENCH_DIR").ok();
    let mut tol = trend::DEFAULT_TOL;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_dir = it.next().expect("--baseline <dir>").clone(),
            "--fresh" => fresh_dir = Some(it.next().expect("--fresh <dir>").clone()),
            "--tol" => {
                tol = it.next().expect("--tol <frac>").parse().expect("--tol must be a number")
            }
            f if figure.is_none() && !f.starts_with('-') => figure = Some(f.to_string()),
            other => {
                eprintln!("trend_gate: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(figure) = figure else {
        eprintln!("usage: trend_gate <figure> [--baseline <dir>] [--fresh <dir>] [--tol <frac>]");
        std::process::exit(2);
    };
    let Some(fresh_dir) = fresh_dir else {
        eprintln!("trend_gate: no fresh dir (pass --fresh or set CA_BENCH_DIR)");
        std::process::exit(2);
    };

    let read = |dir: &str| {
        let path = std::path::Path::new(dir).join(format!("{figure}.json"));
        std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .map(|s| (path, s))
    };
    let ((bpath, base), (fpath, fresh)) = match (read(&baseline_dir), read(&fresh_dir)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b, f] {
                if let Err(e) = r {
                    eprintln!("trend_gate: {e}");
                }
            }
            std::process::exit(2);
        }
    };

    match trend::compare_json(&base, &fresh, tol) {
        Ok(rep) if rep.ok() => {
            println!(
                "trend_gate: {figure} OK ({} digests, {} times within {:.0}%) [{} vs {}]",
                rep.digests_checked,
                rep.times_checked,
                tol * 100.0,
                bpath.display(),
                fpath.display()
            );
        }
        Ok(rep) => {
            eprintln!("trend_gate: {figure} FAILED ({} finding(s)):", rep.failures.len());
            for f in &rep.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("trend_gate: {figure}: {e}");
            std::process::exit(2);
        }
    }
}
