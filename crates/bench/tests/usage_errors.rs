//! Bench bins reject malformed command lines at the process level: exit
//! status 2, a message naming the flag, value or name, and nothing on
//! stdout — never a silent fall back to a default.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ecohmem-repro")).args(args).output().unwrap()
}

fn assert_usage_error(out: Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected command line must not run anything");
}

#[test]
fn unknown_flag_exits_with_status_2() {
    assert_usage_error(repro(&["--fast"]), "unknown flag `--fast`");
    assert_usage_error(repro(&["table5_apps", "--app", "minife"]), "unknown flag `--app`");
}

#[test]
fn unknown_experiment_exits_with_status_2_and_lists_the_names() {
    let out = repro(&["fig99"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_usage_error(out, "unknown experiment `fig99`");
    for e in bench::repro::EXPERIMENTS {
        assert!(stderr.contains(e.name) && stderr.contains(e.paper_ref), "{stderr}");
    }
}

#[test]
fn malformed_jobs_exits_with_status_2() {
    assert_usage_error(repro(&["--jobs", "x"]), "invalid value `x` for --jobs");
    assert_usage_error(repro(&["--jobs=soup"]), "invalid value `soup` for --jobs");
}

#[test]
fn path_flags_without_a_value_exit_with_status_2() {
    assert_usage_error(repro(&["--metrics-out"]), "missing value for --metrics-out");
    assert_usage_error(repro(&["--svg"]), "missing value for --svg");
}

#[test]
fn chaos_soak_rejects_malformed_values() {
    let chaos =
        |args: &[&str]| Command::new(env!("CARGO_BIN_EXE_chaos_soak")).args(args).output().unwrap();
    assert_usage_error(chaos(&["--seed", "soup"]), "invalid value `soup` for --seed");
    assert_usage_error(chaos(&["--budget-secs", "x"]), "invalid value `x` for --budget-secs");
    assert_usage_error(chaos(&["--seed"]), "missing value for --seed");
}

#[test]
fn obs_overhead_refuses_any_argument() {
    let obs = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_obs_overhead")).args(args).output().unwrap()
    };
    assert_usage_error(obs(&["--calls", "10"]), "unexpected argument `--calls`");
    assert_usage_error(obs(&["fast"]), "unexpected argument `fast`");
}

#[test]
fn well_formed_flags_still_run() {
    let out = repro(&["table5_apps", "--jobs", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("MiniFE"));
}
