//! Crash safety and overload tolerance for the online placement engine.
//!
//! The layers, bottom up:
//!
//! - [`queue`] — a bounded MPSC channel whose senders *see* a dead
//!   receiver (no silent forever-blocks) and can send with a deadline,
//!   the primitive behind explicit load shedding.
//! - [`codec`] — bit-exact binary serialization of
//!   [`StreamIngestor`](crate::StreamIngestor) and
//!   [`IncrementalAdvisor`](crate::IncrementalAdvisor) state, the
//!   foundation of the byte-identical recovery guarantee.
//! - [`journal`] — a write-ahead log of event batches and ticks, with
//!   CRC-checked records, segment rotation, and torn-tail truncation.
//! - [`checkpoint`] — atomic (tmp + rename) snapshots of engine state,
//!   CRC-guarded with fallback to the newest intact checkpoint.
//! - [`engine`] — [`engine::DurableEngine`] composes the
//!   above: every mutation is journaled before it is applied, recovery
//!   is `last checkpoint + replay of the journal suffix`, and the
//!   recovered state is *identical* to an uninterrupted run.
//! - [`supervisor`] — runs the engine on a worker thread behind panics:
//!   restart with exponential backoff and a budget, degrade per
//!   [`DegradationPolicy`](memtrace::DegradationPolicy), shed load
//!   explicitly under overload, and export staleness.

pub mod checkpoint;
// Public only so integration tests can compare and restore checkpoint
// bytes; the format's supported entry points are `DurableEngine` and
// `CheckpointStore`.
#[doc(hidden)]
pub mod codec;
pub mod engine;
pub mod journal;
pub mod queue;
pub mod supervisor;

pub use checkpoint::{CheckpointStore, LoadReport};
pub use engine::{DurabilityConfig, DurableEngine, RecoveryReport};
pub use journal::{Journal, OpenReport, Record};
pub use supervisor::{Admission, PlacementView, Supervisor, SupervisorConfig, SupervisorOutcome};
