//! A study binary given a flag without its value says how the flag is used
//! and exits with status 2 — before any work, and without a panic.

use std::process::Command;

#[test]
fn a_value_flag_last_on_the_line_exits_2_with_a_usage_line() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_ext_overlap"), "--matrix"),
        (env!("CARGO_BIN_EXE_ext_chaos"), "--schedules"),
        (env!("CARGO_BIN_EXE_fig14_cagmres_table"), "--only"),
    ] {
        let out = Command::new(bin).args(["--smoke", flag]).output().expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("usage: {flag} <value>")), "{bin} {flag}: {err}");
        assert!(!err.contains("panicked"), "{bin} {flag}: {err}");
    }
    let chaos = env!("CARGO_BIN_EXE_ext_chaos");
    let out = Command::new(chaos).args(["--schedules", "many"]).output().expect("the binary runs");
    assert_eq!(out.status.code(), Some(2));
}
