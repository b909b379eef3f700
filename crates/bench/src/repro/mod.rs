//! The paper's evaluation as one registry of experiments.
//!
//! Every table and figure of the evaluation (Figs. 2–7, Tables I–VIII,
//! §VIII-D) and every extension experiment is an [`Experiment`]: a name,
//! the part of the paper it reproduces, and a function that runs it on a
//! [`Runner`] and returns a [`Report`] — the text table it prints plus the
//! SVG figures its own results draw. The `ecohmem-repro` bin runs any
//! subset of [`EXPERIMENTS`]; `tests/paper_eval.rs` runs all of them and
//! pins the text and the committed `figures/*.svg` byte for byte.
//!
//! Experiments are deterministic: the text depends neither on the job
//! count nor on which experiments ran before in the same process.

use crate::Runner;
use memsim::{run, ExecMode, MachineConfig, RunResult};
use memtrace::{PlacementReport, TierId};
use profiler::{analyze, profile_run_cached, ProfileSet, ProfilerConfig};

/// `println!` into a `String`: experiments render their text with it.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

mod characterization;
mod evaluation;
mod extensions;

/// What one experiment produced.
#[derive(Debug)]
pub struct Report {
    /// The rendered tables and notes, as the driver prints them.
    pub text: String,
    /// `(file name, SVG document)` for each figure the results draw.
    pub svgs: Vec<(&'static str, String)>,
}

impl Report {
    fn from_text(text: String) -> Self {
        Report { text, svgs: Vec::new() }
    }
}

/// One reproducible experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name the driver selects it by.
    pub name: &'static str,
    /// The part of the paper it reproduces or extends.
    pub paper_ref: &'static str,
    /// Runs the experiment.
    pub run: fn(&Runner) -> Report,
}

/// Registry entries named after the functions that run them.
macro_rules! experiments {
    ($($module:ident::$run:ident: $paper_ref:literal,)*) => {
        &[$(Experiment { name: stringify!($run), paper_ref: $paper_ref, run: $module::$run },)*]
    };
}

/// Every experiment, in the order `ecohmem-repro` runs them by default.
pub const EXPERIMENTS: &[Experiment] = experiments![
    characterization::fig2_mlc: "Fig. 2",
    characterization::fig3_lulesh_bw: "Fig. 3",
    characterization::fig45_lifetimes: "Figs. 4-5",
    characterization::table1_formats: "Table I",
    characterization::table234_classify: "Tables II-IV",
    evaluation::table5_apps: "Table V",
    evaluation::fig6_sweep: "Fig. 6",
    evaluation::table6_memstats: "Table VI",
    evaluation::table7_cloverleaf: "Table VII",
    evaluation::table8_full_apps: "Table VIII",
    evaluation::fig7_bw_aware: "Fig. 7",
    evaluation::secd_callstack_format: "§VIII-D",
    extensions::ablation_thresholds: "extension: §VII-B1 thresholds",
    extensions::ablation_sampling: "extension: §VIII sampling rate",
    extensions::combined_placement: "extension: §III proactive + reactive",
    extensions::ablation_input_scale: "extension: §VIII input size",
    extensions::ablation_granularity: "extension: §III object vs page",
    extensions::ablation_value_function: "extension: §IV-B value function",
    extensions::ablation_greedy_optimal: "extension: §IV-B greedy vs exact",
    extensions::online_vs_offline: "extension: online placement",
    extensions::robustness_curve: "extension: fault injection",
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The paper's profiling step: a Memory-Mode run profiled at 100 Hz,
/// analyzed into per-site statistics.
fn profile(app: &memsim::AppModel, machine: &MachineConfig) -> ProfileSet {
    let (trace, _) = profile_run_cached(
        app,
        machine,
        ExecMode::MemoryMode,
        TierId::PMEM,
        &ProfilerConfig::default(),
    );
    analyze(&trace).unwrap()
}

/// Deploys `report` through FlexMalloc (the pipeline's deploy ASLR seed)
/// and runs the application with it.
fn deploy(report: &PlacementReport, app: &memsim::AppModel, machine: &MachineConfig) -> RunResult {
    let mut fm = flexmalloc::FlexMalloc::new(report, &app.binmap, 202, app.ranks).unwrap();
    run(app, machine, ExecMode::AppDirect, &mut fm)
}

/// Speedup over Memory Mode of the run `report` places.
fn speedup_with(report: &PlacementReport, app: &memsim::AppModel, machine: &MachineConfig) -> f64 {
    let placed = deploy(report, app, machine);
    baselines::run_memory_mode(app, machine).total_time / placed.total_time
}
