//! # ecoHMEM — profile-guided object placement for hybrid memory systems
//!
//! A from-scratch Rust reproduction of *"ecoHMEM: Improving Object Placement
//! Methodology for Hybrid Memory Systems in HPC"* (Jordà, Rai, Ayguadé,
//! Labarta, Peña — IEEE CLUSTER 2022), including every substrate the paper
//! depends on:
//!
//! | crate | paper counterpart |
//! |---|---|
//! | [`memtrace`] | trace/report formats, call stacks (Table I), ASLR |
//! | [`memsim`] | the DRAM + Optane PMem machine (Fig. 2 economics, Memory Mode cache) |
//! | [`workloads`] | the seven evaluated applications (Table V) as trace-equivalent models |
//! | [`profiler`] | Extrae (PEBS sampling) + Paramedir (trace analysis) |
//! | [`advisor`] | HMem Advisor: density knapsack (§IV-B) + bandwidth-aware pass (§VII) |
//! | [`flexmalloc`] | the runtime allocation interposer with BOM matching (§VI) |
//! | [`baselines`] | Memory Mode, kernel tiering, ProfDP (§VIII) |
//! | [`ecohmem_core`] | the end-to-end pipeline (Fig. 1) and experiment sweeps |
//! | [`ecohmem_online`] | beyond the paper: streaming ingestion, incremental advisor, dynamic migration |
//!
//! ## Quickstart
//!
//! ```
//! use ecohmem::prelude::*;
//!
//! // Pick an application model and the paper's default pipeline setup.
//! let app = ecohmem::workloads::minife::model();
//! let cfg = PipelineConfig::paper_default();
//!
//! // profile -> analyze -> advise -> deploy, plus the Memory Mode baseline.
//! let outcome = run_pipeline(&app, &cfg).unwrap();
//! assert!(outcome.speedup() > 1.5); // the paper's MiniFE-sized win
//! ```
//!
//! The experiment harness regenerating every table and figure of the paper
//! lives in the `bench` crate (`cargo run -p bench --release --bin
//! ecohmem-repro -- fig6_sweep`, or no name for all of them); see
//! `EXPERIMENTS.md` for the full index and measured-vs-paper numbers.

pub use advisor;
pub use baselines;
pub use ecohmem_core;
pub use ecohmem_online;
pub use flexmalloc;
pub use memsim;
pub use memtrace;
pub use profiler;
pub use workloads;

/// The types most programs need.
pub mod prelude {
    pub use advisor::{Advisor, AdvisorConfig, Algorithm, BwThresholds};
    pub use baselines::{run_memory_mode, KernelTiering, ProfDp};
    pub use ecohmem_core::{
        run_pipeline, sweep, DegradationPolicy, PipelineConfig, PipelineOutcome,
    };
    pub use ecohmem_online::{
        stream_profile, IncrementalAdvisor, OnlineConfig, OnlinePolicy, PlacementRevision,
    };
    pub use flexmalloc::FlexMalloc;
    pub use memsim::{run, AppModel, ExecMode, MachineConfig, RunResult};
    pub use memtrace::{FaultKind, FaultSpec, PlacementReport, StackFormat, TierId, Warning};
    pub use profiler::{analyze, profile_run, ProfilerConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let m = MachineConfig::optane_pmem6();
        assert_eq!(m.tier(TierId::DRAM).name, "dram");
        let _ = AdvisorConfig::loads_only(12);
    }
}
