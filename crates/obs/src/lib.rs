//! Structured observability for the ecoHMEM toolchain.
//!
//! The paper's methodology is only trustworthy because every stage is
//! measurable — Extrae events, Paramedir metrics, per-site miss densities,
//! Algorithm 1's bandwidth classes. This crate gives the reproduction the
//! same property: named counters/gauges/histograms in a sharded
//! [`MetricsRegistry`], monotonic nested timing [spans](fn@span), a JSON
//! Lines event sink, and a `RunMetrics` document that ties a placement
//! decision back to the numbers that produced it.
//!
//! # Cost model
//!
//! Instrumentation is *always compiled in* and gated at run time: every
//! free function here starts with a branch on one relaxed atomic load.
//! When observability is off (the default) that branch is the entire cost
//! — under a nanosecond per call on current hardware; the
//! `obs_overhead` bench bin measures it. Hot loops therefore do not need
//! `#[cfg]`s or feature flags.
//!
//! # Enabling
//!
//! `ECOHMEM_OBS` controls the subsystem process-wide:
//!
//! | value           | effect                                   |
//! |-----------------|------------------------------------------|
//! | unset, `0`, `off` | disabled (free functions are no-ops)   |
//! | `1`, `on`       | metrics on, no event sink                |
//! | `human`         | metrics on, indented span log on stderr  |
//! | `jsonl:PATH`    | metrics on, JSON Lines span events to PATH |
//!
//! Programs can override the environment with [`set_enabled`] (the CLI's
//! `--metrics-out` does; tests do for isolation).
//!
//! This crate deliberately has **zero dependencies**: `memtrace` sits on
//! top of it for JSON (de)serialization, so it must stay at the bottom of
//! the workspace graph.

pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use json::{Json, JsonError};
pub use metrics::{registry, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{thread_span_depth, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet initialized, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// True when observability is on. This is the hot-path gate: one relaxed
/// atomic load and a compare; the environment is consulted only on the
/// very first call in the process.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        s => s == 2,
    }
}

#[cold]
fn init_from_env() -> bool {
    let setting = std::env::var("ECOHMEM_OBS").unwrap_or_default();
    let on = match setting.as_str() {
        "" | "0" | "off" => false,
        "human" => {
            sink::install_human();
            true
        }
        s if s.starts_with("jsonl:") => {
            if let Err(e) = sink::install_jsonl(&s["jsonl:".len()..]) {
                eprintln!("[obs] cannot open {s}: {e}; events will not be sinked");
            }
            true
        }
        // "1", "on", and anything unrecognized-but-set: metrics only.
        _ => true,
    };
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces observability on or off, overriding `ECOHMEM_OBS`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds `delta` to the counter `name`. No-op while disabled.
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        registry().counter(name).add(delta);
    }
}

/// Adds 1 to the counter `name`. No-op while disabled.
#[inline]
pub fn incr(name: &str) {
    count(name, 1);
}

/// Sets the gauge `name`. No-op while disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        registry().gauge(name).set(v);
    }
}

/// Raises the gauge `name` to `v` if larger (high-water mark). No-op
/// while disabled.
#[inline]
pub fn gauge_raise(name: &str, v: f64) {
    if enabled() {
        registry().gauge(name).raise(v);
    }
}

/// Records `v` in the histogram `name`. No-op while disabled.
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        registry().histogram(name).observe(v);
    }
}

/// Opens a timing span; the returned guard ends it on drop. Inert (and
/// nearly free) while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard::begin(name)
    } else {
        SpanGuard::disabled()
    }
}

/// Snapshot of the global registry (empty while nothing was recorded).
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// Clears the global registry. Tests use this between scenarios.
pub fn reset() {
    registry().reset();
}

/// Builds the `RunMetrics` JSON document for one run: per-stage timings
/// (derived from `span.*.ns` histograms) plus the full metric snapshot.
///
/// Schema (`ecohmem.run_metrics/1`):
///
/// ```json
/// {
///   "schema": "ecohmem.run_metrics/1",
///   "label": "fig6_sweep",
///   "wall_seconds": 1.62,
///   "stages": {"pipeline.advise": {"count": 12, "total_ns": 48211, "mean_ns": 4017.6}},
///   "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// }
/// ```
pub fn run_metrics(label: &str, wall_seconds: f64) -> Json {
    let snap = snapshot();
    let mut stages = Vec::new();
    for (name, h) in &snap.histograms {
        if let Some(stage) = name.strip_prefix("span.").and_then(|n| n.strip_suffix(".ns")) {
            stages.push((
                stage.to_string(),
                Json::obj(vec![
                    ("count", Json::U64(h.count)),
                    ("total_ns", Json::U64(h.sum)),
                    ("mean_ns", Json::f64(h.mean)),
                ]),
            ));
        }
    }
    Json::Obj(vec![
        ("schema".into(), Json::str("ecohmem.run_metrics/1")),
        ("label".into(), Json::str(label)),
        ("wall_seconds".into(), Json::f64(wall_seconds)),
        ("stages".into(), Json::Obj(stages)),
        ("metrics".into(), snap.to_json()),
    ])
}

/// Serializes tests that flip the global enabled flag (they would race
/// under the default parallel test harness otherwise).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_no_ops() {
        let _l = test_lock();
        set_enabled(false);
        let before = registry().counter("off.test").get();
        count("off.test", 5);
        incr("off.test");
        observe("off.hist", 3);
        gauge_set("off.g", 1.0);
        assert_eq!(registry().counter("off.test").get(), before);
        let g = span("off.span");
        drop(g);
        set_enabled(true);
    }

    #[test]
    fn enabled_calls_record() {
        let _l = test_lock();
        set_enabled(true);
        count("on.test", 2);
        incr("on.test");
        observe("on.hist", 10);
        gauge_raise("on.g", 4.0);
        assert_eq!(registry().counter("on.test").get(), 3);
        assert_eq!(registry().histogram("on.hist").sum(), 10);
        assert_eq!(registry().gauge("on.g").get(), 4.0);
    }

    #[test]
    fn run_metrics_document_has_stages_and_metrics() {
        let _l = test_lock();
        set_enabled(true);
        {
            let _s = span("unit.stage");
        }
        count("unit.counter", 7);
        let doc = run_metrics("unit-test", 0.5);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("ecohmem.run_metrics/1"));
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("unit-test"));
        let stage = parsed.get("stages").unwrap().get("unit.stage").unwrap();
        assert!(stage.get("count").unwrap().as_u64().unwrap() >= 1);
        let counters = parsed.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("unit.counter").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn disabled_path_is_cheap() {
        // The real number comes from the obs_overhead bench bin; this is a
        // coarse regression tripwire with generous CI headroom.
        let _l = test_lock();
        set_enabled(false);
        let n = 2_000_000u64;
        let t0 = std::time::Instant::now();
        for i in 0..n {
            count("overhead.probe", i & 1);
        }
        let per_call = t0.elapsed().as_nanos() as f64 / n as f64;
        set_enabled(true);
        assert!(per_call < 100.0, "disabled obs::count costs {per_call:.1} ns/call");
    }
}
