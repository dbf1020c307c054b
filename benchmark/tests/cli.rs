//! The command line end to end, on the `--quick` sizes: what `run` and
//! `trace` print must carry exactly the names `BENCHMARK.json` lists, in
//! the form the benchmark contract fixes, and the span file must be a
//! well-nested tree.

use ca_obs::Jv;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Jv {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Jv::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"))
        .unwrap()
}

/// The `name` of every entry of the list `key`.
fn names(doc: &Jv, key: &str) -> Vec<String> {
    let entries = doc.get(key).and_then(Jv::as_arr).unwrap_or_else(|| panic!("no list '{key}'"));
    entries
        .iter()
        .map(|e| e.get("name").and_then(Jv::as_str).expect("entry has a name").to_string())
        .collect()
}

fn ca_perf(args: &[&str]) -> (String, bool) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_ca-perf")).args(args).output().expect("ca-perf starts");
    (String::from_utf8(out.stdout).expect("UTF-8 output"), out.status.success())
}

fn tmp(file: &str) -> String {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file).display().to_string()
}

/// `(name, unit)` of the metrics on a result line, after checking its form.
fn result_line(stdout: &str) -> Vec<(String, String)> {
    let line = stdout.lines().last().expect("some output");
    let doc = Jv::parse(line).expect("the last line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Jv::Bool(true)));
    assert!(doc.get("attempted").and_then(Jv::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Jv::as_u64), Some(0));
    let metrics = doc.get("metrics").and_then(Jv::as_obj).unwrap();
    metrics
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            assert!(m.get("value").and_then(Jv::as_f64).is_some_and(f64::is_finite), "{name}");
            (name.clone(), m.get("unit").and_then(Jv::as_str).unwrap().to_string())
        })
        .collect()
}

fn listed(bench: &Jv, key: &str) -> Vec<(String, String)> {
    let entries = bench.get(key).and_then(Jv::as_arr).unwrap();
    let unit = |e: &Jv| e.get("unit").and_then(Jv::as_str).unwrap().to_string();
    names(bench, key).into_iter().zip(entries.iter().map(unit)).collect()
}

#[test]
fn quick_run_prints_exactly_the_listed_names() {
    let bench = benchmark_json();
    let out = tmp("quick-run.json");
    let (stdout, ok) = ca_perf(&["run", "--quick", "--seed", "11", "--out", &out]);
    assert!(ok, "run --quick failed:\n{stdout}");

    // the table: a header naming the workloads, then one row per metric
    let mut lines = stdout.lines();
    let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
    assert_eq!(header[..4], ["metric", "unit", "better", "bound"]);
    assert_eq!(header[4..], names(&bench, "workloads"));
    let rows: Vec<&str> = lines.map(|l| l.split_whitespace().next().unwrap()).collect();
    let mut expected = names(&bench, "end_to_end");
    expected.push("fail_frac".into());
    assert_eq!(rows, expected);

    // the ledger file says the same and parses back with ca_obs::Jv
    let doc = Jv::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("seed").and_then(Jv::as_u64), Some(11));
    let workloads = doc.get("workloads").and_then(Jv::as_arr).unwrap();
    let got: Vec<&str> =
        workloads.iter().map(|w| w.get("workload").and_then(Jv::as_str).unwrap()).collect();
    assert_eq!(got, names(&bench, "workloads"));
    for w in workloads {
        let metrics: Vec<&str> = w
            .get("metrics")
            .and_then(Jv::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, names(&bench, "end_to_end"));
        assert_eq!(w.get("fail_frac").and_then(Jv::as_f64), Some(0.0));
        for (name, m) in w.get("metrics").and_then(Jv::as_obj).unwrap() {
            assert!(m.get("value").and_then(Jv::as_f64).unwrap() > 0.0, "{name} must never read 0");
        }
    }

    // a run compared with itself: nothing regressed, every exact row equal
    let (table, ok) = ca_perf(&["compare", &out, &out]);
    assert!(ok, "{table}");
    assert!(table.contains(" 0 changed,") && table.contains(" 0 regressed"), "{table}");
}

#[test]
fn one_workload_ends_with_the_contract_line() {
    let bench = benchmark_json();
    let (stdout, ok) = ca_perf(&[
        "run",
        "--quick",
        "--workload",
        "g3_exch",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert_eq!(result_line(&stdout), listed(&bench, "end_to_end"));

    let (stdout, ok) = ca_perf(&["run", "--quick", "--workload", "nope", "--trace", "0"]);
    assert!(!ok && stdout.is_empty(), "an unknown workload prints no result: {stdout}");
}

#[test]
fn traced_workload_reports_every_layer_and_a_well_nested_span_file() {
    let bench = benchmark_json();
    let (stdout, ok) = ca_perf(&[
        "run",
        "--quick",
        "--workload",
        "convdiff_orth",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(ok, "{stdout}");
    assert_eq!(result_line(&stdout), listed(&bench, "per_layer"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-convdiff_orth.json");
    let doc =
        Jv::parse(&std::fs::read_to_string(path).expect("the traced run wrote its spans")).unwrap();
    let events = doc.get("traceEvents").and_then(Jv::as_arr).unwrap();
    let interval = |e: &Jv| {
        let ts = e.get("ts").and_then(Jv::as_f64).unwrap();
        (ts, ts + e.get("dur").and_then(Jv::as_f64).unwrap())
    };
    let mut names_seen = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let args = e.get("args").unwrap();
        assert_eq!(args.get("id").and_then(Jv::as_u64), Some(i as u64));
        names_seen.push(e.get("name").and_then(Jv::as_str).unwrap());
        if let Some(p) = args.get("parent").and_then(Jv::as_u64) {
            assert!((p as usize) < i, "span {i} names a later parent");
            let (outer, inner) = (interval(&events[p as usize]), interval(e));
            // microseconds printed in decimal: allow the last digit
            assert!(
                inner.0 >= outer.0 - 1e-3 && inner.1 <= outer.1 + 1e-3,
                "span {i} leaves its parent"
            );
        }
    }
    for name in [
        "run",
        "setup",
        "sparse.balance",
        "sparse.partition",
        "core.system_new",
        "core.load_rhs",
        "solve",
        "verify",
        "replay.cycle",
        "block[0]",
        "core.gen_block",
        "core.borth",
        "core.tsqr",
        "dense.syrk_tn",
        "gpusim.cmd",
        "tune.plan",
    ] {
        assert!(names_seen.contains(&name), "no span '{name}'");
    }
    // self times add up to the roots
    let table = doc.get("selfTime").and_then(Jv::as_arr).unwrap();
    let self_sum: f64 = table.iter().map(|r| r.get("self_s").and_then(Jv::as_f64).unwrap()).sum();
    let roots: f64 = events
        .iter()
        .filter(|e| matches!(e.get("args").and_then(|a| a.get("parent")), Some(Jv::Null)))
        .map(|e| e.get("dur").and_then(Jv::as_f64).unwrap() * 1e-6)
        .sum();
    assert!((self_sum - roots).abs() <= 1e-6 * roots, "self {self_sum} s, roots {roots} s");
}
