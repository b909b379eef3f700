//! # ecohmem-online — the online placement engine
//!
//! The paper's methodology is offline: profile a full run, analyze the
//! trace, advise a placement, deploy it on the *next* run. This crate
//! closes the loop at runtime, in three layers:
//!
//! * [`StreamIngestor`] / [`StreamSession`] — streaming trace ingestion:
//!   the batch analyzer's statistics maintained one event at a time, with
//!   sliding-window and exponentially-decayed miss estimators
//!   ([`DecayedWindow`]), fed through a *bounded* channel so a slow
//!   planner exerts backpressure instead of buffering the trace.
//! * [`IncrementalAdvisor`] — the greedy knapsack (and optional
//!   bandwidth-aware pass) re-solved on epoch ticks over cached per-site
//!   profiles, rebuilding only the sites dirtied since the last tick and
//!   emitting plan diffs as [`PlacementRevision`]s.
//! * [`OnlinePolicy`] — a `memsim` placement policy that runs the advisor
//!   inside a simulated run and turns revisions into object migrations,
//!   which the engine applies at phase boundaries under a migration cost
//!   model (bytes moved / tier bandwidth + fixed per-migration overhead).
//!
//! The design contract, property-tested in `tests/convergence.rs`: with
//! aging disabled, the online path over a complete trace converges to the
//! offline pipeline — same profile, same placement. With a window or decay
//! configured, it tracks the *current* hot set instead, which is what lets
//! it beat any static placement on phase-shifting workloads (see the
//! `online_vs_offline` bench and `workloads::phaseshift`).

//!
//! A fourth layer, [`durability`], makes the loop crash-safe: every
//! ingested batch is journaled (write-ahead) before it is applied,
//! checkpoints bound replay time, and a [`Supervisor`] restarts the
//! engine through panics with byte-identical recovered state, shedding
//! load explicitly under overload instead of stalling producers.

pub mod channel;
pub mod config;
pub mod durability;
pub mod error;
pub mod incremental;
pub mod ingest;
pub mod policy;
pub mod stats;

pub use channel::{stream_profile, StreamSession};
pub use config::OnlineConfig;
pub use durability::{
    Admission, DurabilityConfig, DurableEngine, PlacementView, RecoveryReport, Supervisor,
    SupervisorConfig, SupervisorOutcome,
};
pub use error::IngestError;
pub use incremental::{IncrementalAdvisor, PlacementRevision, ProfileSource};
pub use ingest::{BwContext, StreamIngestor, StreamMeta};
pub use memtrace::DegradationPolicy;
pub use policy::OnlinePolicy;
pub use stats::DecayedWindow;
