//! The scripted serve-daemon session perfbench's `serve` workload drives:
//! the deterministic feed plan, the isolated single-stream run a served
//! tenant must reproduce byte-for-byte, and the plan pre-encoded as wire
//! frames.

use advisor::{AdvisorConfig, Algorithm};
use ecohmem_online::{
    IncrementalAdvisor, OnlineConfig, PlacementRevision, StreamIngestor, StreamMeta,
};
use ecohmem_serve::proto::{self, Frame as WireFrame};
use ecohmem_serve::Mode;
use memtrace::{DegradationPolicy, EventBatch, TraceEvent, TraceFile};
use std::sync::Arc;

/// DRAM budget handed to every tenant's advisor.
pub const DRAM_GIB: u64 = 12;
/// Events per ingest batch in the feed plan.
pub const BATCH: usize = 256;
/// A tick lands after every `TICK_STRIDE` batches.
pub const TICK_STRIDE: usize = 4;

/// One step of the scripted session.
pub enum Op {
    /// Ingest a batch of events.
    Batch(Vec<TraceEvent>),
    /// Advance the advisor clock.
    Tick(f64),
}

/// The deterministic batch/tick schedule every driver follows.
pub fn feed_plan(trace: &TraceFile) -> Vec<Op> {
    let mut ops = Vec::new();
    let b = &trace.events;
    for (i, rows) in b.ops.chunks(BATCH).enumerate() {
        let chunk: Vec<TraceEvent> = rows.iter().map(|&op| b.event_of(op)).collect();
        let last = chunk.last().unwrap().time();
        ops.push(Op::Batch(chunk));
        if (i + 1) % TICK_STRIDE == 0 {
            ops.push(Op::Tick(last));
        }
    }
    ops.push(Op::Tick(trace.duration));
    ops
}

/// The single-stream ground truth a served tenant must reproduce.
pub fn isolated_run(trace: &TraceFile) -> Vec<PlacementRevision> {
    let cfg = OnlineConfig::default();
    let mut ingestor = StreamIngestor::new(StreamMeta::of(trace), DegradationPolicy::Strict, cfg);
    let mut advisor = IncrementalAdvisor::new(AdvisorConfig::loads_only(DRAM_GIB), Algorithm::Base)
        .with_hysteresis(cfg.hysteresis);
    let mut revisions = Vec::new();
    for op in feed_plan(trace) {
        match op {
            Op::Batch(events) => {
                ingestor.push_batch(&EventBatch::from_events(&events)).unwrap();
            }
            Op::Tick(now) => revisions.extend(advisor.tick(&mut ingestor, now)),
        }
    }
    revisions
}

/// Pre-encoded post-handshake byte stream for one trace: the feed plan
/// as Events/Tick frames, terminated by Shutdown. Shared via `Arc` across
/// all tenants streaming the same trace — the driver never re-encodes.
pub fn blast_body(trace: &TraceFile) -> Arc<Vec<u8>> {
    let mut body = Vec::new();
    for op in feed_plan(trace) {
        match op {
            Op::Batch(events) => {
                body.extend_from_slice(&proto::encode_events_frame(&events, Mode::Bin))
            }
            Op::Tick(now) => proto::encode_into(&WireFrame::Tick { now }, &mut body),
        }
    }
    proto::encode_into(&WireFrame::Shutdown, &mut body);
    Arc::new(body)
}
