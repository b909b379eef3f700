//! The bench experiment runner: one object every experiment drives its
//! simulations through.
//!
//! The runner owns three things:
//!
//! * **Worker count.** Fixed at construction ([`Runner::with_jobs`]); the
//!   `ecohmem-repro` driver takes it from `--jobs N`, falling back to
//!   [`memsim::jobs_from_env`].
//! * **Parallel mapping.** [`Runner::map`] spreads independent experiment
//!   cells over [`memsim::parallel_map`]'s work-stealing scoped-thread pool.
//!   Results come back in submission order, so tables rendered from them
//!   are byte-identical at any job count; only stderr stats differ.
//! * **End-of-run stats.** [`Runner::report`] prints cache hits/misses,
//!   engine invocations, wall time and the estimated speedup over a serial
//!   run to *stderr*, keeping stdout reserved for table output. Counters
//!   are snapshotted at construction, so the report shows this process's
//!   deltas even if earlier code already touched the global cache.
//!
//! Memoization itself lives a layer down, in [`memsim::global_cache`]: any
//! job that routes fixed-tier runs through the cache (directly or via
//! `baselines::run_memory_mode` / `profiler::profile_run_cached` /
//! `ecohmem_core::run_pipeline`) shares those simulations with every other
//! job in the process, across threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Parallel experiment driver with end-of-run statistics.
pub struct Runner {
    label: String,
    jobs: usize,
    started: Instant,
    /// Total nanoseconds spent inside jobs, summed over all workers — the
    /// serial-time estimate the speedup figure is computed from.
    busy_nanos: AtomicU64,
    hits_at_start: u64,
    misses_at_start: u64,
    engine_runs_at_start: u64,
    /// Where to write the `RunMetrics` JSON document, if requested.
    metrics_out: Option<String>,
}

impl Runner {
    /// Builds a runner with an explicit worker count (clamped to ≥ 1).
    pub fn with_jobs(label: &str, jobs: usize) -> Self {
        Runner {
            label: label.to_string(),
            jobs: jobs.max(1),
            started: Instant::now(),
            busy_nanos: AtomicU64::new(0),
            hits_at_start: memsim::global_cache().hits(),
            misses_at_start: memsim::global_cache().misses(),
            engine_runs_at_start: memsim::run_invocations(),
            metrics_out: None,
        }
    }

    /// Routes the `RunMetrics` document to `path` at [`Runner::report`]
    /// time. Forces observability on so there is something to report.
    pub fn with_metrics_out(mut self, path: impl Into<String>) -> Self {
        ecohmem_obs::set_enabled(true);
        self.metrics_out = Some(path.into());
        self
    }

    /// The worker count this runner maps with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item on the work-stealing pool and returns the
    /// results in the items' original order (scheduling never reorders
    /// output — see [`memsim::parallel_map`]).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let busy = &self.busy_nanos;
        memsim::parallel_map(items, self.jobs, |item| {
            let t0 = Instant::now();
            let out = f(item);
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        })
    }

    /// Cache hits observed since this runner was built.
    pub fn cache_hits(&self) -> u64 {
        memsim::global_cache().hits().saturating_sub(self.hits_at_start)
    }

    /// Cache misses observed since this runner was built.
    pub fn cache_misses(&self) -> u64 {
        memsim::global_cache().misses().saturating_sub(self.misses_at_start)
    }

    /// Engine invocations since this runner was built.
    pub fn engine_runs(&self) -> u64 {
        memsim::run_invocations().saturating_sub(self.engine_runs_at_start)
    }

    /// Prints the end-of-run statistics line to stderr. Call once, after
    /// the last `map`; stdout stays clean for table output.
    ///
    /// When built with [`Runner::with_metrics_out`], also writes the `RunMetrics`
    /// JSON document there.
    pub fn report(&self) {
        let wall = self.started.elapsed().as_secs_f64();
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let speedup = if wall > 0.0 { busy / wall } else { 1.0 };
        eprintln!(
            "[runner] {}: jobs={} engine_runs={} cache_hits={} cache_misses={} \
             wall={:.2}s serial_est={:.2}s speedup={:.2}x",
            self.label,
            self.jobs,
            self.engine_runs(),
            self.cache_hits(),
            self.cache_misses(),
            wall,
            busy,
            speedup,
        );
        if let Some(path) = &self.metrics_out {
            let doc = ecohmem_obs::run_metrics(&self.label, wall);
            if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
                eprintln!("[runner] {}: cannot write {path}: {e}", self.label);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecohmem_obs::Json;

    #[test]
    fn report_writes_metrics_document() {
        let dir = std::env::temp_dir().join(format!("ecohmem-runner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");

        let r = Runner::with_jobs("emit-test", 2)
            .with_metrics_out(metrics.to_string_lossy().into_owned());
        ecohmem_obs::count("runner.emit.test", 3);
        r.report();

        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ecohmem.run_metrics/1"));
        let counters = doc.get("metrics").unwrap().get("counters").unwrap();
        assert!(counters.get("runner.emit.test").and_then(Json::as_u64) >= Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn map_preserves_order_and_counts_busy_time() {
        let r = Runner::with_jobs("test", 3);
        let out = r.map((0..20u64).collect(), |x| x * x);
        assert_eq!(out, (0..20u64).map(|x| x * x).collect::<Vec<_>>());
        // report() must not panic even with trivial jobs.
        r.report();
    }

    #[test]
    fn runner_observes_cache_and_engine_deltas() {
        let app = workloads::minife::model();
        let mach = memsim::MachineConfig::optane_pmem6();
        let r = Runner::with_jobs("delta-test", 2);
        let results = r.map(vec![(); 4], |()| {
            memsim::global_cache()
                .run_fixed(&app, &mach, memsim::ExecMode::MemoryMode, mach.largest_tier(), None)
                .total_time
        });
        assert!(results.iter().all(|&t| t == results[0]));
        // Four fetches of one key: at most one miss charged to this runner
        // (another harness may have populated the key already), and the
        // hit/miss deltas must add up to the four fetches.
        assert!(r.cache_misses() <= 1);
        assert_eq!(r.cache_hits() + r.cache_misses(), 4);
    }
}
