//! Integration tests driving the actual CLI binaries end to end through
//! temp files, the way a user runs the toolchain.

use std::path::PathBuf;
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecohmem-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bin(name: &str) -> Command {
    let path = match name {
        "profile" => env!("CARGO_BIN_EXE_ecohmem-profile"),
        "inspect" => env!("CARGO_BIN_EXE_ecohmem-inspect"),
        "advise" => env!("CARGO_BIN_EXE_ecohmem-advise"),
        "run" => env!("CARGO_BIN_EXE_ecohmem-run"),
        "fleet" => env!("CARGO_BIN_EXE_ecohmem-fleet"),
        "serve" => env!("CARGO_BIN_EXE_ecohmem-serve"),
        "stream" => env!("CARGO_BIN_EXE_ecohmem-stream"),
        _ => unreachable!(),
    };
    Command::new(path)
}

#[test]
fn full_toolchain_round_trip() {
    let dir = tmpdir("roundtrip");
    let trace = dir.join("minife.trace.json");
    let report = dir.join("minife.report.json");

    let out = bin("profile")
        .args(["minife", "--out", trace.to_str().unwrap(), "--rate", "50"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists());

    let out = bin("inspect").args([trace.to_str().unwrap(), "--top", "3"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("application minife"), "{stdout}");

    let out = bin("advise")
        .args([trace.to_str().unwrap(), "--dram-gib", "12", "--out", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(report.exists());

    let out = bin("run").args(["minife", "--report", report.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("speedup"), "{stdout}");
    // MiniFE's win must survive the file round trip.
    let speedup: f64 = stdout
        .split("speedup ")
        .nth(1)
        .and_then(|s| s.split('x').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("speedup in output");
    assert!(speedup > 1.5, "speedup {speedup}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn advise_emits_parseable_text_reports() {
    let dir = tmpdir("text");
    let trace = dir.join("t.json");
    let report_txt = dir.join("r.txt");

    assert!(bin("profile")
        .args(["minife", "--out", trace.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    assert!(bin("advise")
        .args([
            trace.to_str().unwrap(),
            "--dram-gib",
            "8",
            "--text",
            "--out",
            report_txt.to_str().unwrap(),
        ])
        .output()
        .unwrap()
        .status
        .success());

    // The emitted text parses back with the library parser.
    let text = std::fs::read_to_string(&report_txt).unwrap();
    let tracefile = cli::load_trace(trace.to_str().unwrap()).unwrap();
    let parsed = memtrace::parse_report(&text, &tracefile.binmap, &|name| match name {
        "dram" => Some(memtrace::TierId::DRAM),
        "pmem" => Some(memtrace::TierId::PMEM),
        _ => None,
    })
    .unwrap();
    assert!(!parsed.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_traces_round_trip_through_the_toolchain() {
    let dir = tmpdir("binary");
    let trace = dir.join("t.bin");
    let report = dir.join("r.json");
    assert!(bin("profile")
        .args(["minife", "--out", trace.to_str().unwrap(), "--binary"])
        .output()
        .unwrap()
        .status
        .success());
    // The file really is binary.
    let head = std::fs::read(&trace).unwrap();
    assert_eq!(&head[..8], b"ECOHMEM\0");
    // advise and inspect sniff the format.
    assert!(bin("inspect").args([trace.to_str().unwrap()]).output().unwrap().status.success());
    assert!(bin("advise")
        .args([trace.to_str().unwrap(), "--out", report.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_with_status_2() {
    let out = bin("profile").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin("advise").args(["nonexistent-app"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "missing file is a runtime error");
    let out = bin("run").args(["minife"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing --report");

    // An undeclared flag is refused by name before any work starts — a
    // typo must never fall back to a default silently.
    let refused = |tool: &str, args: &[&str], flag: &str| {
        let out = bin(tool).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tool} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag --{flag}")), "{tool}: {stderr}");
    };
    refused("advise", &["minife.trace.json", "--dram-gb", "12"], "dram-gb");
    refused("profile", &["minife", "--sampling-hz", "50"], "sampling-hz");
    refused("inspect", &["minife.trace.json", "--head", "3"], "head");
    refused("run", &["minife", "--report", "r.json", "--baseline"], "baseline");
    refused("fleet", &["--node", "4"], "node");
    refused("serve", &["--port", "7878"], "port");
    refused("stream", &["minife", "--address", "127.0.0.1:7878"], "address");
}

/// A numeric flag that is present but does not parse is a usage error
/// naming the flag and the value — never a silent fall back to the
/// default.
#[test]
fn malformed_numeric_flags_exit_with_status_2() {
    let dir = tmpdir("badflags");
    let trace = dir.join("minife.trace.json");
    let report = dir.join("minife.report.json");
    let t = trace.to_str().unwrap();
    let r = report.to_str().unwrap();
    assert!(bin("profile").args(["minife", "--out", t]).status().unwrap().success());

    let rejected = |out: std::process::Output, flag: &str, value: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("invalid value `{value}` for --{flag}")), "{stderr}");
    };
    rejected(
        bin("advise").args([t, "--dram-gib", "12x", "--out", r]).output().unwrap(),
        "dram-gib",
        "12x",
    );
    assert!(!report.exists(), "a rejected flag must not produce a report");

    assert!(bin("advise").args([t, "--dram-gib", "12", "--out", r]).status().unwrap().success());
    rejected(
        bin("run").args(["minife", "--report", r, "--jobs", "x"]).output().unwrap(),
        "jobs",
        "x",
    );
    rejected(bin("fleet").args(["--nodes", "4q"]).output().unwrap(), "nodes", "4q");
    rejected(bin("serve").args(["--once", "1x"]).output().unwrap(), "once", "1x");
    std::fs::remove_dir_all(&dir).ok();
}
