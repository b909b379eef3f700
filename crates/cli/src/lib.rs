//! # cli — the ecoHMEM command-line toolchain
//!
//! The original ecoHMEM release is a *toolchain*, not a library: users run
//! a profiling launcher, explore the trace, run the Advisor on it, and
//! launch the application under FlexMalloc with the resulting report. This
//! crate mirrors that workflow with on-disk artifacts:
//!
//! ```text
//! ecohmem-profile minife --out minife.trace.json     # Extrae
//! ecohmem-inspect minife.trace.json                  # Paramedir
//! ecohmem-advise  minife.trace.json --dram-gib 12 \
//!                 --out minife.report.json           # HMem Advisor
//! ecohmem-run     minife --report minife.report.json # FlexMalloc
//! ```
//!
//! Applications are the built-in workload models (`minife`, `minimd`,
//! `lulesh`, `hpcg`, `cloverleaf3d`, `lammps`, `openfoam`); machines are
//! the built-in presets (`pmem6`, `pmem2`, `hbm`).

use memsim::MachineConfig;
use memtrace::{TraceError, TraceFile, Warning};
use std::collections::HashMap;

/// The flags one tool accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// `--key value` options.
    pub options: &'static [&'static str],
    /// Bare `--switch` flags.
    pub switches: &'static [&'static str],
}

/// Minimal flag parser: positional arguments plus the tool's declared
/// `--key value` options and `--switch` flags. No external dependency
/// needed for a handful of tools.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` options (last occurrence wins).
    pub options: HashMap<String, String>,
    /// Bare `--switch` flags.
    pub switches: Vec<String>,
}

impl Args {
    /// Parses an argument list against the tool's declared flags: a
    /// declared option takes the next token as its value, a declared
    /// switch stands alone, and any other token is positional. An
    /// undeclared `--flag`, or an option without a value, is an error
    /// naming the flag.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, flags: &Flags) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                out.positional.push(tok);
                continue;
            };
            if flags.switches.contains(&key) {
                out.switches.push(key.to_string());
            } else if flags.options.contains(&key) {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => {
                        out.options.insert(key.to_string(), value);
                    }
                    _ => return Err(format!("missing value for --{key}")),
                }
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(out)
    }

    /// Parses the process's own arguments (skipping `argv[0]`). A usage
    /// error exits with status 2, like [`Self::opt_or`].
    pub fn from_env(flags: &Flags) -> Args {
        Self::parse(std::env::args().skip(1), flags).unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// An option value, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An option parsed into any `FromStr` type: `Ok(None)` when absent,
    /// an error naming the flag and the value when it does not parse.
    fn opt_parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.opt(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// An option parsed into any `FromStr` type, with a default for an
    /// absent flag. A value that does not parse is a usage error: the
    /// process exits with status 2 and names the flag and the value.
    pub fn opt_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.opt_parse(key) {
            Ok(v) => v.unwrap_or(default),
            Err(msg) => exit_usage(&msg),
        }
    }

    /// True if a bare switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// Worker count for tools that can overlap simulations: `--jobs N` if
    /// given (clamped to ≥ 1), else `ECOHMEM_JOBS`, else the machine's
    /// available parallelism (see [`memsim::jobs_from_env`]). A value that
    /// does not parse exits with status 2, like [`Self::opt_or`].
    pub fn jobs(&self) -> usize {
        match self.opt("jobs") {
            Some(_) => self.opt_or("jobs", 1usize).max(1),
            None => memsim::jobs_from_env(),
        }
    }
}

/// Prints `tool: msg` to stderr, naming the tool after `argv[0]`, and
/// exits with status 2 (usage error).
fn exit_usage(msg: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let tool = std::path::Path::new(&argv0)
        .file_name()
        .map_or(argv0.clone(), |n| n.to_string_lossy().into_owned());
    eprintln!("{tool}: {msg}");
    std::process::exit(2);
}

/// Handles the shared `--metrics-out PATH` flag: when the flag is present,
/// construction turns observability on ([`ecohmem_obs::set_enabled`]) so
/// the run records metrics, and [`MetricsOut::finish`] writes the
/// `RunMetrics` JSON document (schema `ecohmem.run_metrics/1`) to PATH.
/// Without the flag both are no-ops, so tools can call this
/// unconditionally.
#[derive(Debug)]
pub struct MetricsOut {
    label: String,
    path: Option<String>,
    started: std::time::Instant,
}

impl MetricsOut {
    /// Reads `--metrics-out` from parsed arguments; `label` (the tool
    /// name) becomes the document's `label` field.
    pub fn from_args(label: &str, args: &Args) -> MetricsOut {
        let path = args.opt("metrics-out").map(str::to_string);
        if path.is_some() {
            ecohmem_obs::set_enabled(true);
        }
        MetricsOut { label: label.to_string(), path, started: std::time::Instant::now() }
    }

    /// Writes the `RunMetrics` document if `--metrics-out` was given. Call
    /// once, after the tool's real work.
    pub fn finish(&self) {
        let Some(path) = &self.path else { return };
        let wall = self.started.elapsed().as_secs_f64();
        let doc = ecohmem_obs::run_metrics(&self.label, wall);
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("{}: error: cannot write metrics to {path}: {e}", self.label);
        }
    }
}

/// Loads a trace file in either encoding, sniffing the binary magic.
pub fn load_trace(path: &str) -> Result<TraceFile, TraceError> {
    let data = std::fs::read(path)?;
    if data.starts_with(b"ECOHMEM\0") {
        memtrace::read_trace(&data[..])
    } else {
        TraceFile::from_json(std::str::from_utf8(&data).map_err(|e| {
            TraceError::Malformed(format!("trace is neither binary nor UTF-8 JSON: {e}"))
        })?)
    }
}

/// Loads a trace file leniently, sniffing the binary magic like
/// [`load_trace`]: a truncated JSON tail is repaired when possible, and
/// malformed events are dropped with warnings instead of failing the load.
pub fn load_trace_lenient(path: &str) -> Result<(TraceFile, Vec<Warning>), TraceError> {
    let data = std::fs::read(path)?;
    if data.starts_with(b"ECOHMEM\0") {
        let mut trace = memtrace::read_trace(&data[..])?;
        let warnings = trace.sanitize();
        Ok((trace, warnings))
    } else {
        let (mut trace, mut warnings) =
            TraceFile::from_json_lenient(&String::from_utf8_lossy(&data))?;
        warnings.extend(trace.sanitize());
        Ok((trace, warnings))
    }
}

/// Prints accumulated warnings to stderr, one per line.
pub fn print_warnings(tool: &str, warnings: &[Warning]) {
    for w in warnings {
        eprintln!("{tool}: warning: {w}");
    }
}

/// Resolves a machine preset name.
pub fn machine_by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "pmem6" | "optane-pmem6" => Some(MachineConfig::optane_pmem6()),
        "pmem2" | "optane-pmem2" => Some(MachineConfig::optane_pmem2()),
        "hbm" | "hbm-ddr" => Some(MachineConfig::hbm_ddr()),
        _ => None,
    }
}

/// Prints a message to stderr and exits with status 2 (usage error).
pub fn usage_error(tool: &str, msg: &str, usage: &str) -> ! {
    eprintln!("{tool}: {msg}\n\nusage: {usage}");
    std::process::exit(2);
}

/// Unwraps a result or exits with status 1 and the error on stderr.
pub fn ok_or_die<T, E: std::fmt::Display>(tool: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{tool}: error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = Flags {
        options: &["dram-gib", "out", "jobs", "metrics-out"],
        switches: &["stores", "bw-aware", "fast"],
    };

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()), &FLAGS)
    }

    #[test]
    fn parses_positionals_options_and_switches() {
        let a =
            parse(&["minife", "--dram-gib", "12", "--stores", "--out", "r.json", "extra"]).unwrap();
        assert_eq!(a.positional, vec!["minife", "extra"]);
        assert_eq!(a.opt("dram-gib"), Some("12"));
        assert_eq!(a.opt("out"), Some("r.json"));
        assert!(a.has("stores"));
        assert!(!a.has("bw-aware"));
        assert_eq!(a.opt_or("dram-gib", 0u64), 12);
        assert_eq!(a.opt_or("missing", 7u64), 7);
        let a = parse(&["--dram-gib", "12x"]).unwrap();
        assert_eq!(
            a.opt_parse::<u64>("dram-gib"),
            Err("invalid value `12x` for --dram-gib".into())
        );
        assert_eq!(a.opt_parse::<u64>("missing"), Ok(None));
    }

    #[test]
    fn undeclared_flags_are_refused_by_name() {
        assert_eq!(parse(&["t.json", "--dram-gb", "12"]).unwrap_err(), "unknown flag --dram-gb");
        assert_eq!(parse(&["--stores", "--lenient"]).unwrap_err(), "unknown flag --lenient");
    }

    #[test]
    fn an_option_needs_a_value() {
        assert_eq!(parse(&["--dram-gib"]).unwrap_err(), "missing value for --dram-gib");
        assert_eq!(parse(&["--out", "--stores"]).unwrap_err(), "missing value for --out");
    }

    #[test]
    fn a_switch_never_takes_the_next_token() {
        let a = parse(&["--fast", "minife", "--bw-aware"]).unwrap();
        assert!(a.has("fast") && a.has("bw-aware"));
        assert!(a.opt("fast").is_none());
        assert_eq!(a.positional, vec!["minife"]);
    }

    #[test]
    fn jobs_prefers_the_flag_and_clamps() {
        assert_eq!(parse(&["--jobs", "3"]).unwrap().jobs(), 3);
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs(), 1);
        // Without the flag it falls back to the environment/parallelism
        // default, which is always at least one worker.
        assert!(Args::default().jobs() >= 1);
    }

    #[test]
    fn metrics_out_writes_a_document_only_when_asked() {
        // Without the flag, finish() is a no-op.
        MetricsOut::from_args("unit", &Args::default()).finish();

        let path = std::env::temp_dir().join(format!("ecohmem-cli-metrics-{}", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let a = parse(&["--metrics-out", path_str.as_str()]).unwrap();
        let m = MetricsOut::from_args("unit", &a);
        ecohmem_obs::incr("cli.metrics.test");
        m.finish();
        let doc = ecohmem_obs::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("label").and_then(ecohmem_obs::Json::as_str), Some("unit"));
        assert!(doc.get("metrics").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn machine_presets_resolve() {
        assert!(machine_by_name("pmem6").is_some());
        assert!(machine_by_name("pmem2").is_some());
        assert!(machine_by_name("hbm").is_some());
        assert!(machine_by_name("knl").is_none());
    }
}
