//! End-to-end robustness tests for the four CLI tools: bad inputs must
//! produce a one-line diagnostic and a nonzero exit, never a panic, and
//! `--lenient` must salvage a truncated trace.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin(tool: &str) -> &'static str {
    match tool {
        "profile" => env!("CARGO_BIN_EXE_ecohmem-profile"),
        "inspect" => env!("CARGO_BIN_EXE_ecohmem-inspect"),
        "advise" => env!("CARGO_BIN_EXE_ecohmem-advise"),
        "run" => env!("CARGO_BIN_EXE_ecohmem-run"),
        other => panic!("unknown tool {other}"),
    }
}

fn invoke(tool: &str, args: &[&str]) -> Output {
    Command::new(bin(tool)).args(args).output().expect("tool binary spawns")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_clean_failure(out: &Output, context: &str) {
    assert!(!out.status.success(), "{context}: expected a failing exit status");
    let err = stderr(out);
    assert!(
        err.contains("error") || err.contains("usage"),
        "{context}: no diagnostic on stderr: {err:?}"
    );
    assert!(!err.contains("panicked"), "{context}: tool panicked: {err}");
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ecohmem-cli-{}-{name}", std::process::id()))
}

#[test]
fn missing_input_files_fail_cleanly() {
    let gone = "/nonexistent/ecohmem/missing.json";
    for tool in ["inspect", "advise"] {
        let out = invoke(tool, &[gone]);
        assert_clean_failure(&out, tool);
        assert_eq!(out.status.code(), Some(1), "{tool} exit code");
        assert!(stderr(&out).contains("i/o error"), "{tool}: {}", stderr(&out));
    }
    let out = invoke("run", &["minife", "--report", gone]);
    assert_clean_failure(&out, "run");
}

#[test]
fn unknown_names_are_usage_errors() {
    let out = invoke("profile", &["no-such-app"]);
    assert_clean_failure(&out, "profile unknown app");
    assert_eq!(out.status.code(), Some(2));

    let out = invoke("run", &["minife"]); // missing --report
    assert_clean_failure(&out, "run without report");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn truncated_trace_fails_strict_but_loads_lenient() {
    let trace_path = scratch("t.trace.json");
    let trace = trace_path.to_str().unwrap();
    let out = invoke("profile", &["minife", "--rate", "20", "--out", trace]);
    assert!(out.status.success(), "profile: {}", stderr(&out));

    let json = std::fs::read_to_string(&trace_path).unwrap();
    let cut_path = scratch("t.cut.json");
    let cut = cut_path.to_str().unwrap();
    std::fs::write(&cut_path, &json[..json.len() - 40]).unwrap();

    let out = invoke("inspect", &[cut]);
    assert_clean_failure(&out, "inspect strict on truncated trace");
    assert!(stderr(&out).contains("parse error"), "{}", stderr(&out));

    let out = invoke("inspect", &[cut, "--lenient"]);
    assert!(out.status.success(), "inspect --lenient: {}", stderr(&out));
    assert!(stderr(&out).contains("warning"), "{}", stderr(&out));

    let report_path = scratch("t.report.json");
    let out = invoke("advise", &[cut, "--lenient", "--out", report_path.to_str().unwrap()]);
    assert!(out.status.success(), "advise --lenient: {}", stderr(&out));

    for p in [trace_path, cut_path, report_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn streamed_advice_matches_the_batch_analyzer() {
    let trace_path = scratch("s.trace.json");
    let trace = trace_path.to_str().unwrap();
    let out = invoke("profile", &["minife", "--rate", "20", "--out", trace]);
    assert!(out.status.success(), "profile: {}", stderr(&out));

    let batch_path = scratch("s.batch.json");
    let streamed_path = scratch("s.streamed.json");
    let out = invoke("advise", &[trace, "--out", batch_path.to_str().unwrap()]);
    assert!(out.status.success(), "advise: {}", stderr(&out));
    let out = invoke("advise", &[trace, "--stream", "--out", streamed_path.to_str().unwrap()]);
    assert!(out.status.success(), "advise --stream: {}", stderr(&out));
    let batch = std::fs::read(&batch_path).unwrap();
    assert!(!batch.is_empty());
    assert_eq!(std::fs::read(&streamed_path).unwrap(), batch, "--stream writes the same report");

    let json = std::fs::read_to_string(&trace_path).unwrap();
    let cut_path = scratch("s.cut.json");
    let cut = cut_path.to_str().unwrap();
    std::fs::write(&cut_path, &json[..json.len() - 40]).unwrap();
    let out = invoke("advise", &[cut, "--stream"]);
    assert_clean_failure(&out, "advise --stream strict on truncated trace");
    let salvaged_path = scratch("s.salvaged.json");
    let out =
        invoke("advise", &[cut, "--stream", "--lenient", "--out", salvaged_path.to_str().unwrap()]);
    assert!(out.status.success(), "advise --stream --lenient: {}", stderr(&out));
    assert!(stderr(&out).contains("warning"), "{}", stderr(&out));

    for p in [trace_path, batch_path, streamed_path, cut_path, salvaged_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn truncated_report_fails_cleanly() {
    let trace_path = scratch("r.trace.json");
    let report_path = scratch("r.report.json");
    let out = invoke("profile", &["minife", "--rate", "20", "--out", trace_path.to_str().unwrap()]);
    assert!(out.status.success(), "profile: {}", stderr(&out));
    let out =
        invoke("advise", &[trace_path.to_str().unwrap(), "--out", report_path.to_str().unwrap()]);
    assert!(out.status.success(), "advise: {}", stderr(&out));

    let json = std::fs::read_to_string(&report_path).unwrap();
    let cut_path = scratch("r.cut.json");
    std::fs::write(&cut_path, &json[..json.len() / 2]).unwrap();

    let out = invoke("run", &["minife", "--report", cut_path.to_str().unwrap()]);
    assert_clean_failure(&out, "run with truncated report");

    for p in [trace_path, report_path, cut_path] {
        let _ = std::fs::remove_file(p);
    }
}
