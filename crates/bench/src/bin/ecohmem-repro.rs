//! Reproduces the paper's evaluation: runs the named experiments of the
//! `bench::repro` registry (all of them, in registry order, when none is
//! named) and prints each one's text under an `== <name> ==` heading.
//!
//! ```text
//! ecohmem-repro [NAME]... [--jobs N] [--metrics-out PATH] [--svg DIR]
//! ```
//!
//! `--jobs` sets the worker count (default: `ECOHMEM_JOBS`, then the
//! available parallelism); the text is identical at any count.
//! `--metrics-out` writes the run's `ecohmem.run_metrics/1` document.
//! `--svg` writes the figures the selected experiments draw into DIR.
//! An unknown flag or name, or a malformed value, exits with status 2.

use bench::repro::{self, Experiment};
use bench::Runner;

/// A parsed command line.
#[derive(Debug, Default)]
struct Invocation {
    experiments: Vec<&'static Experiment>,
    jobs: Option<usize>,
    metrics_out: Option<String>,
    svg_dir: Option<String>,
}

/// Parses the arguments after the program name. Flags take their value as
/// `--flag V` or `--flag=V`; a value may not be empty or start with `--`.
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            let experiment =
                repro::find(&arg).ok_or_else(|| format!("unknown experiment `{arg}`"))?;
            inv.experiments.push(experiment);
            continue;
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (flag, None),
        };
        if !matches!(name, "jobs" | "metrics-out" | "svg") {
            return Err(format!("unknown flag `{arg}`"));
        }
        let value = inline
            .or_else(|| args.next_if(|v| !v.starts_with("--")))
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing value for --{name}"))?;
        match name {
            "jobs" => {
                let n: usize =
                    value.parse().map_err(|_| format!("invalid value `{value}` for --jobs"))?;
                inv.jobs = Some(n.max(1));
            }
            "metrics-out" => inv.metrics_out = Some(value),
            _ => inv.svg_dir = Some(value),
        }
    }
    if inv.experiments.is_empty() {
        inv.experiments = repro::EXPERIMENTS.iter().collect();
    }
    Ok(inv)
}

fn usage() -> String {
    let mut text =
        "usage: ecohmem-repro [NAME]... [--jobs N] [--metrics-out PATH] [--svg DIR]\n\nexperiments:"
            .to_string();
    for e in repro::EXPERIMENTS {
        text.push_str(&format!("\n  {:<24} {}", e.name, e.paper_ref));
    }
    text
}

fn main() {
    let inv = parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("ecohmem-repro: {msg}\n\n{}", usage());
        std::process::exit(2)
    });
    let mut runner =
        Runner::with_jobs("ecohmem-repro", inv.jobs.unwrap_or_else(memsim::jobs_from_env));
    if let Some(path) = inv.metrics_out {
        runner = runner.with_metrics_out(path);
    }
    if let Some(dir) = &inv.svg_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }
    for experiment in inv.experiments {
        let report = (experiment.run)(&runner);
        print!("== {} ==\n{}", experiment.name, report.text);
        let Some(dir) = &inv.svg_dir else { continue };
        for (file, svg) in &report.svgs {
            let path = format!("{dir}/{file}");
            if let Err(e) = std::fs::write(&path, svg) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
    }
    runner.report();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_argv(items: &[&str]) -> Result<Invocation, String> {
        parse(items.iter().map(|s| s.to_string()))
    }

    fn names(inv: &Invocation) -> Vec<&str> {
        inv.experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn jobs_flag_parses_both_spellings() {
        let jobs = |items: &[&str]| parse_argv(items).map(|inv| inv.jobs);
        assert_eq!(jobs(&["--jobs", "4"]), Ok(Some(4)));
        assert_eq!(jobs(&["fig2_mlc", "--jobs=7"]), Ok(Some(7)));
        assert_eq!(jobs(&["--jobs", "0"]), Ok(Some(1)));
        assert_eq!(jobs(&["--jobs", "soup"]), Err("invalid value `soup` for --jobs".into()));
        assert_eq!(jobs(&["--jobs"]), Err("missing value for --jobs".into()));
        assert_eq!(jobs(&["fig2_mlc"]), Ok(None));
    }

    #[test]
    fn path_flags_parse_both_spellings() {
        let inv = parse_argv(&["--metrics-out", "m.json", "--svg=figs"]).unwrap();
        assert_eq!(inv.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(inv.svg_dir.as_deref(), Some("figs"));
        let inv = parse_argv(&["--metrics-out=x/y.json"]).unwrap();
        assert_eq!(inv.metrics_out.as_deref(), Some("x/y.json"));
        assert_eq!(inv.svg_dir, None);
        for flag in ["metrics-out", "svg"] {
            let missing = format!("missing value for --{flag}");
            let bare = format!("--{flag}");
            let empty = format!("--{flag}=");
            assert_eq!(parse_argv(&[&bare]).unwrap_err(), missing);
            assert_eq!(parse_argv(&[&empty]).unwrap_err(), missing);
            assert_eq!(parse_argv(&[&bare, "--jobs", "4"]).unwrap_err(), missing);
        }
    }

    #[test]
    fn names_select_experiments_in_the_given_order() {
        let inv = parse_argv(&["table5_apps", "fig2_mlc"]).unwrap();
        assert_eq!(names(&inv), ["table5_apps", "fig2_mlc"]);
        let all = parse_argv(&["--jobs", "2"]).unwrap();
        assert_eq!(names(&all), repro::EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_names_and_flags_are_rejected() {
        assert_eq!(parse_argv(&["fig99"]).unwrap_err(), "unknown experiment `fig99`");
        assert_eq!(parse_argv(&["--fast"]).unwrap_err(), "unknown flag `--fast`");
        assert_eq!(parse_argv(&["--app=minife"]).unwrap_err(), "unknown flag `--app=minife`");
    }

    #[test]
    fn usage_lists_every_experiment_with_its_paper_reference() {
        let text = usage();
        for e in repro::EXPERIMENTS {
            assert!(text.contains(e.name) && text.contains(e.paper_ref), "{}", e.name);
        }
    }
}
