//! The metrics registry: named atomic counters, gauges and histograms.
//!
//! Hot paths (the simulator engine, the sampler) update metrics from many
//! threads at once, so the registry is sharded: a metric name hashes to one
//! of `SHARDS` independently-locked maps, and the lock is only taken to
//! *find* a metric — updates land on the returned `Arc`'d atomics without
//! any lock. Call sites that care can cache the handle; casual call sites
//! use the free functions in the crate root, which are a no-op branch on a
//! relaxed atomic while observability is disabled.

use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independently-locked name→metric maps.
const SHARDS: usize = 16;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge storing an `f64` (as bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger — a high-water mark.
    /// NaN inputs are ignored.
    pub fn raise(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets: bucket *i* counts values whose highest
/// set bit is *i* (value 0 lands in bucket 0).
const BUCKETS: usize = 64;

/// A histogram over `u64` values (durations in nanoseconds, byte counts)
/// with power-of-two buckets. The sum is an exact integer — concurrent
/// `observe`s conserve it bit-for-bit, which the property tests rely on.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&self, v: u64) {
        let bucket = (63 - v.max(1).leading_zeros()) as usize;
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect()
    }
}

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
}

/// The sharded name→metric registry. One global instance lives behind
/// [`registry`]; tests construct their own for isolation.
#[derive(Default)]
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name; only the lock for this shard is contended.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % SHARDS as u64) as usize
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.shards[shard_of(name)].counters.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.shards[shard_of(name)].gauges.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.shards[shard_of(name)].histograms.lock().expect("metrics lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Drops every metric. Handles cached by call sites keep working but
    /// are no longer visible to [`Self::snapshot`].
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.counters.lock().expect("metrics lock").clear();
            shard.gauges.lock().expect("metrics lock").clear();
            shard.histograms.lock().expect("metrics lock").clear();
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (name, c) in shard.counters.lock().expect("metrics lock").iter() {
                snap.counters.push((name.clone(), c.get()));
            }
            for (name, g) in shard.gauges.lock().expect("metrics lock").iter() {
                snap.gauges.push((name.clone(), g.get()));
            }
            for (name, h) in shard.histograms.lock().expect("metrics lock").iter() {
                snap.histograms.push((
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        mean: h.mean(),
                        buckets: h.nonzero_buckets(),
                    },
                ));
            }
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact integer sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// `(log2 bucket, count)` pairs for non-empty buckets.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the power-of-two
    /// buckets: the upper bound of the bucket holding the ranked
    /// observation, clamped to the recorded maximum. Resolution is a
    /// factor of two — good enough for the p50/p99 latency surfaces the
    /// serve daemon exports, without storing raw samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let hi = if bucket >= 63 { u64::MAX } else { (1u64 << (bucket + 1)) - 1 };
                return hi.min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of a registry, name-sorted for stable output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The value of a gauge, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The state of a histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Renders the snapshot as a JSON value.
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().map(|(n, v)| (n.clone(), Json::U64(*v))).collect::<Vec<_>>();
        let gauges =
            self.gauges.iter().map(|(n, v)| (n.clone(), Json::f64(*v))).collect::<Vec<_>>();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    Json::obj(vec![
                        ("count", Json::U64(h.count)),
                        ("sum", Json::U64(h.sum)),
                        ("max", Json::U64(h.max)),
                        ("mean", Json::f64(h.mean)),
                        (
                            "buckets",
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|(log2, n)| {
                                        Json::Arr(vec![Json::U64(*log2 as u64), Json::U64(*n)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
        ])
    }
}

/// The process-global registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_come_from_the_right_bucket() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.observe(v);
        }
        let snap = HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            mean: h.mean(),
            buckets: h.nonzero_buckets(),
        };
        // p50 lands in the 100s bucket [64, 127]; p99 in the 5000s
        // bucket, clamped to the observed max.
        let p50 = snap.quantile(0.5);
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        assert_eq!(snap.quantile(0.99), 5000);
        assert_eq!(snap.quantile(0.0), 1);
        let empty = HistogramSnapshot { count: 0, sum: 0, max: 0, mean: 0.0, buckets: Vec::new() };
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        r.counter("a.b").add(3);
        r.counter("a.b").inc();
        r.counter("z").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.b"), 4);
        assert_eq!(snap.counter("z"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.counters.first().map(|(n, _)| n.as_str()), Some("a.b"));
    }

    #[test]
    fn gauge_raise_is_a_high_water_mark() {
        let g = Gauge::default();
        g.raise(3.0);
        g.raise(1.0);
        assert_eq!(g.get(), 3.0);
        g.raise(f64::NAN);
        assert_eq!(g.get(), 3.0);
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
    }

    #[test]
    fn histogram_sum_is_exact() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1 << 40, u32::MAX as u64] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 6 + (1 << 40) + u32::MAX as u64);
        assert_eq!(h.max(), 1 << 40);
        let total: u64 = h.nonzero_buckets().iter().map(|(_, n)| n).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn concurrent_updates_conserve_totals() {
        let r = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = r.counter("hits");
                    let h = r.histogram("lat");
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), 4000);
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 4000);
        assert_eq!(h.sum, 4 * (999 * 1000 / 2));
    }

    #[test]
    fn snapshot_renders_json() {
        let r = MetricsRegistry::new();
        r.counter("c").add(2);
        r.gauge("g").set(1.5);
        r.histogram("h").observe(7);
        let j = r.snapshot().to_json();
        let parsed = crate::json::Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(parsed.get("counters").unwrap().get("c").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("gauges").unwrap().get("g").unwrap().as_f64(), Some(1.5));
        let h = parsed.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn reset_clears_names() {
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        r.reset();
        assert!(r.snapshot().counters.is_empty());
    }
}
