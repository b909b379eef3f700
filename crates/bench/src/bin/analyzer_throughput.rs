//! Columnar hot-path throughput: trace synthesis + analysis at 10× the
//! reference workload scale, best of three runs each.
//!
//! ```text
//! cargo run --release -p bench --bin analyzer_throughput -- --jobs 4 \
//!     --metrics-out BENCH_analyzer_throughput.json
//! ```

use bench::{Runner, Table};
use memsim::{ExecMode, FixedTier, MachineConfig};
use memtrace::TierId;
use profiler::{analyze_with_jobs, synthesize_trace_with_jobs, ProfilerConfig};
use std::time::Instant;

const SCALE: f64 = 10.0;
const ITERS: usize = 3;

/// Best-of-N wall time plus the last result (best-of suppresses scheduler
/// noise without needing a long run).
fn time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("ITERS >= 1"))
}

fn main() {
    let runner = Runner::from_env("analyzer_throughput");
    // The point of this bin is the measurement; collect metrics even when
    // --metrics-out was not given.
    ecohmem_obs::set_enabled(true);
    let jobs = runner.jobs();

    let machine = MachineConfig::optane_pmem6();
    let app = workloads::scale_model(&workloads::lulesh::model(), SCALE);
    let result =
        memsim::run(&app, &machine, ExecMode::MemoryMode, &mut FixedTier::new(TierId::PMEM));
    let cfg = ProfilerConfig::default();

    let (synth_s, trace) = time(|| synthesize_trace_with_jobs(&app, &result, &cfg, jobs));
    eprintln!("trace: {} events at {SCALE}x scale, jobs={jobs}", trace.len());

    let (analyze_s, profile) = time(|| analyze_with_jobs(&trace, jobs).expect("valid trace"));
    assert!(!profile.sites.is_empty(), "analysis produced no sites");

    let mut t = Table::new(&["stage", "ms", "M events/s"]);
    for (stage, secs) in
        [("synthesize", synth_s), ("analyze", analyze_s), ("combined", synth_s + analyze_s)]
    {
        t.row(vec![
            stage.into(),
            format!("{:.2}", secs * 1e3),
            format!("{:.1}", trace.len() as f64 / secs / 1e6),
        ]);
    }
    println!("{}", t.render());

    runner.report();
}
