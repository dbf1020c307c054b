//! A study binary given an argument it does not take — an unknown or
//! misspelled flag, a flag another study takes, a value flag without its
//! value — prints its usage line and exits with status 2: before any work,
//! without writing an artifact, and without a panic.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let name = std::path::Path::new(bin).file_name().unwrap().to_string_lossy();
    let run = format!("ca-bench-usage-{}-{name}{}", std::process::id(), args.concat());
    let dir = std::env::temp_dir().join(run);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out =
        Command::new(bin).args(args).env("CA_BENCH_DIR", &dir).output().expect("the binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(err.starts_with("usage: "), "{bin} {args:?}: {err}");
    assert!(!err.contains("panicked"), "{bin} {args:?}: {err}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} worked before refusing");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
    std::fs::remove_dir(&dir).expect("an empty scratch dir");
}

#[test]
fn a_value_flag_last_on_the_line_is_a_usage_error() {
    assert_usage_error(env!("CARGO_BIN_EXE_ext_overlap"), &["--matrix"]);
    assert_usage_error(env!("CARGO_BIN_EXE_ext_chaos"), &["--smoke", "--schedules"]);
    assert_usage_error(env!("CARGO_BIN_EXE_fig14_cagmres_table"), &["--matrix"]);
    assert_usage_error(env!("CARGO_BIN_EXE_ext_chaos"), &["--schedules", "many"]);
}

#[test]
fn a_flag_the_study_does_not_take_is_a_usage_error() {
    // a typo used to run the full study and overwrite its committed artifact
    assert_usage_error(env!("CARGO_BIN_EXE_fig08_mpk_performance"), &["--smok"]);
    // service studies are queue-bound: `--large` used to be read and dropped
    assert_usage_error(env!("CARGO_BIN_EXE_ext_service"), &["--large"]);
    // fig14's substring filter is the exact `--matrix` of every other study
    assert_usage_error(env!("CARGO_BIN_EXE_fig14_cagmres_table"), &["--only", "G3"]);
}
