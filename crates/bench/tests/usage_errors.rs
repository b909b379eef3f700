//! Bench bins reject malformed runner flags at the process level: exit
//! status 2 and a message naming the flag, never a silent fall back to
//! the default.

use std::process::{Command, Output};

fn table5(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table5_apps")).args(args).output().unwrap()
}

fn assert_usage_error(out: Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected flag must not print the table");
}

#[test]
fn malformed_jobs_exits_with_status_2() {
    assert_usage_error(table5(&["--jobs", "x"]), "invalid value `x` for --jobs");
    assert_usage_error(table5(&["--jobs=soup"]), "invalid value `soup` for --jobs");
}

#[test]
fn metrics_out_without_a_path_exits_with_status_2() {
    assert_usage_error(table5(&["--metrics-out"]), "missing value for --metrics-out");
}

#[test]
fn well_formed_flags_still_run() {
    let out = table5(&["--jobs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("MiniFE"));
}
