//! Bounded-channel streaming: the producer/consumer seam of the online
//! engine.
//!
//! A real streaming profiler produces events faster than a planner wants
//! to consume them in bursts; an unbounded buffer would quietly grow to
//! the size of the trace and defeat the point of streaming. A
//! [`StreamSession`] therefore moves *columnar batches* ([`EventBatch`])
//! over the bounded queue from [`crate::durability::queue`]: when the
//! consumer thread (which drives a [`StreamIngestor`]) falls behind,
//! `send` blocks — backpressure, not buffering. Batching amortizes the
//! per-message synchronization over [`STREAM_BATCH`] events without
//! changing the result: the ingestor's batch entry point is defined as
//! event-at-a-time ingestion, so batch boundaries are unobservable in
//! the profile.
//!
//! Failure flows in both directions, and a dead consumer is never a
//! hang: the queue's senders observe the receiver's death *even while
//! blocked on a full queue*, so a `Strict` ingestor error terminates the
//! consumer, in-flight and subsequent `send`s fail with
//! [`IngestError::ConsumerGone`], and [`StreamSession::finish`] surfaces
//! the original [`TraceError`].

use crate::config::OnlineConfig;
use crate::durability::queue::{self, Sender};
use crate::error::IngestError;
use crate::ingest::{StreamIngestor, StreamMeta};
use memtrace::columns::EventBatch;
use memtrace::{DegradationPolicy, TraceError, TraceEvent, TraceFile, Warning};
use profiler::ProfileSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Events per batch when streaming a whole trace ([`stream_profile`]).
/// Amortizes channel synchronization; small enough that backpressure
/// still engages within a fraction of `channel_capacity` batches.
pub const STREAM_BATCH: usize = 256;

/// A live streaming-ingestion session: producer handle on this side, the
/// ingestor running on its own consumer thread.
#[derive(Debug)]
pub struct StreamSession {
    tx: Option<Sender<EventBatch>>,
    consumer: JoinHandle<Result<StreamIngestor, TraceError>>,
    /// Events sent but not yet consumed — the observed channel depth.
    in_flight: Arc<AtomicU64>,
}

impl StreamSession {
    /// Spawns the consumer thread. The channel depth comes from
    /// `cfg.channel_capacity` (clamped to ≥ 1), counted in batches.
    pub fn spawn(meta: StreamMeta, policy: DegradationPolicy, cfg: OnlineConfig) -> Self {
        let (tx, rx) = queue::bounded::<EventBatch>(cfg.channel_capacity.max(1));
        let in_flight = Arc::new(AtomicU64::new(0));
        let consumer_depth = Arc::clone(&in_flight);
        let consumer = std::thread::spawn(move || {
            let mut ingestor = StreamIngestor::new(meta, policy, cfg);
            while let Some(batch) = rx.recv() {
                consumer_depth.fetch_sub(batch.len() as u64, Ordering::Relaxed);
                ingestor.push_batch(&batch)?;
            }
            Ok(ingestor)
        });
        StreamSession { tx: Some(tx), consumer, in_flight }
    }

    /// Offers one event, blocking while the channel is full. Fails with
    /// [`IngestError::ConsumerGone`] when the consumer has hung up (a
    /// `Strict` failure) — the producer should stop and call
    /// [`Self::finish`] for the underlying error.
    pub fn send(&self, event: TraceEvent) -> Result<(), IngestError> {
        self.send_batch(EventBatch::from_events(std::slice::from_ref(&event)))
    }

    /// Offers a columnar batch, blocking while the channel is full.
    /// Fails with [`IngestError::ConsumerGone`] when the consumer has
    /// hung up (a `Strict` failure), *including* when the hangup happens
    /// while this call is blocked on a full queue — the producer should
    /// stop and call [`Self::finish`] for the underlying error. Empty
    /// batches are accepted and ignored.
    pub fn send_batch(&self, batch: EventBatch) -> Result<(), IngestError> {
        let Some(tx) = &self.tx else {
            return Err(IngestError::ConsumerGone);
        };
        if batch.is_empty() {
            return Ok(());
        }
        let n = batch.len() as u64;
        let depth = self.in_flight.fetch_add(n, Ordering::Relaxed) + n;
        ecohmem_obs::gauge_raise("online.channel.depth_hwm", depth as f64);
        ecohmem_obs::count("online.events.streamed", n);
        ecohmem_obs::incr("online.batches.streamed");
        match tx.send(batch) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.in_flight.fetch_sub(n, Ordering::Relaxed);
                Err(IngestError::ConsumerGone)
            }
        }
    }

    /// Closes the stream and joins the consumer: the final profile (as of
    /// `duration`) plus warnings, or the error that stopped ingestion.
    pub fn finish(mut self, duration: f64) -> Result<(ProfileSet, Vec<Warning>), TraceError> {
        drop(self.tx.take());
        let ingestor = self
            .consumer
            .join()
            .map_err(|_| TraceError::Malformed("stream consumer thread panicked".into()))??;
        ingestor.finish(duration)
    }
}

/// Streams a whole trace file through a bounded-channel session — the
/// drop-in streaming replacement for `profiler::analyze` (strict) and
/// `profiler::analyze_lenient` (with a lenient policy). Batches are
/// sliced straight off the trace's [`EventBatch`].
pub fn stream_profile(
    trace: &TraceFile,
    policy: DegradationPolicy,
    cfg: OnlineConfig,
) -> Result<(ProfileSet, Vec<Warning>), TraceError> {
    let session = StreamSession::spawn(StreamMeta::of(trace), policy, cfg);
    let n = trace.len();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + STREAM_BATCH).min(n);
        if session.send_batch(trace.events.slice_ops(lo..hi)).is_err() {
            break; // consumer died; finish() reports why
        }
        lo = hi;
    }
    session.finish(trace.duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtrace::{BinaryMap, CallStack, Frame, ModuleId, ObjectId, SiteId};

    fn toy_trace(events: Vec<TraceEvent>) -> TraceFile {
        TraceFile {
            app_name: "toy".into(),
            seed: 1,
            ranks: 1,
            sampling_hz: 100.0,
            load_sample_period: 1.0,
            store_sample_period: 1.0,
            duration: 2.0,
            stacks: vec![(SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x10)]))],
            binmap: BinaryMap::default(),
            events: EventBatch::from_events(&events),
        }
    }

    fn valid_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Alloc {
                time: 0.0,
                object: ObjectId(1),
                site: SiteId(0),
                size: 128,
                address: 0x1000,
            },
            TraceEvent::LoadMissSample {
                time: 0.5,
                address: 0x1040,
                latency_cycles: 300.0,
                function: memtrace::FuncId(0),
            },
            TraceEvent::Free { time: 1.0, object: ObjectId(1) },
        ]
    }

    #[test]
    fn streams_a_valid_trace() {
        let trace = toy_trace(valid_events());
        let (profile, warnings) =
            stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(profile.sites.len(), 1);
        assert_eq!(profile.sites[0].load_misses_est, 1.0);
    }

    #[test]
    fn capacity_one_still_delivers_everything() {
        // The smallest possible channel forces a block on every send;
        // correctness must not depend on the channel depth.
        let trace = toy_trace(valid_events());
        let cfg = OnlineConfig { channel_capacity: 1, ..OnlineConfig::default() };
        let (p1, _) = stream_profile(&trace, DegradationPolicy::Strict, cfg).unwrap();
        let (p2, _) =
            stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn batch_boundaries_are_unobservable() {
        // Singleton sends and STREAM_BATCH-chunked sends must converge on
        // the same profile: batching is transport, not semantics.
        let trace = toy_trace(valid_events());
        let session = StreamSession::spawn(
            StreamMeta::of(&trace),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
        );
        for e in trace.events.iter_events() {
            session.send(e).unwrap();
        }
        let (one_by_one, _) = session.finish(trace.duration).unwrap();
        let (chunked, _) =
            stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap();
        assert_eq!(one_by_one, chunked);
    }

    #[test]
    fn strict_failure_propagates_through_the_channel() {
        let mut events = valid_events();
        events.push(TraceEvent::Free { time: 1.5, object: ObjectId(1) }); // double free
        let trace = toy_trace(events);
        let err =
            stream_profile(&trace, DegradationPolicy::Strict, OnlineConfig::default()).unwrap_err();
        assert!(err.to_string().contains("double free"), "{err}");
        // The lenient policies salvage the same stream.
        let (p, w) =
            stream_profile(&trace, DegradationPolicy::Warn, OnlineConfig::default()).unwrap();
        assert_eq!(p.sites.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn dead_consumer_unblocks_senders_with_consumer_gone() {
        // Regression: a producer blocked on a full channel used to hang
        // forever when the consumer died. The bounded queue now wakes
        // blocked senders on receiver death, and the session reports the
        // hangup as a structured error instead of a bare `false`.
        let trace = toy_trace(valid_events());
        let cfg = OnlineConfig { channel_capacity: 1, ..OnlineConfig::default() };
        let session = StreamSession::spawn(StreamMeta::of(&trace), DegradationPolicy::Strict, cfg);
        // Kill the consumer with a Strict violation: free of an unknown
        // object. Then keep pushing until the producer observes the death
        // — every send either lands in the dying queue or fails, but none
        // may hang.
        let poison = TraceEvent::Free { time: 0.1, object: ObjectId(999) };
        let mut saw_gone = None;
        for _ in 0..1000 {
            if let Err(e) = session.send(poison.clone()) {
                saw_gone = Some(e);
                break;
            }
        }
        let err = saw_gone.expect("producer observed the dead consumer");
        assert!(matches!(err, IngestError::ConsumerGone), "{err}");
        assert!(err.to_string().contains("consumer is gone"), "{err}");
        // The root cause is still reported at finish.
        let fin = session.finish(trace.duration).unwrap_err();
        assert!(fin.to_string().contains("never-allocated"), "{fin}");
    }
}
