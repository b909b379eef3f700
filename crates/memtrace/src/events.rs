//! Trace events emitted by the (simulated) Extrae profiler.
//!
//! The real Extrae records allocation routine instrumentation (size, call
//! stack, returned address, timestamps) plus PEBS samples: LLC load misses
//! (`MEM_LOAD_RETIRED.L3_MISS`, which carry a data linear address and access
//! latency) and all-store samples (`MEM_INST_RETIRED.ALL_STORES`, which carry
//! a data linear address and L1D hit/miss but *no latency* — the asymmetry
//! §V and §VIII-B build on).

use crate::ids::{FuncId, ObjectId, SiteId};
use serde::{Deserialize, Serialize};

/// One event in a profiling trace. Times are seconds since process start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A heap allocation returned successfully.
    Alloc {
        /// Event time (seconds).
        time: f64,
        /// Instance id of the allocation.
        object: ObjectId,
        /// Allocation site (call-stack identity); the stack itself lives in
        /// the trace file's site table.
        site: SiteId,
        /// Requested size in bytes.
        size: u64,
        /// Returned (virtual) address.
        address: u64,
    },
    /// A heap block was freed.
    Free {
        /// Event time (seconds).
        time: f64,
        /// The freed instance.
        object: ObjectId,
    },
    /// A PEBS sample of a load that missed the LLC.
    LoadMissSample {
        /// Event time (seconds).
        time: f64,
        /// Sampled data linear address.
        address: u64,
        /// Measured access latency in core cycles (loads only; PEBS store
        /// records carry no latency).
        latency_cycles: f64,
        /// Function performing the access (for Table VII breakdowns).
        function: FuncId,
    },
    /// A PEBS sample of a retired store.
    StoreSample {
        /// Event time (seconds).
        time: f64,
        /// Sampled data linear address.
        address: u64,
        /// Whether the store missed the L1D (§V uses L1D store misses as the
        /// best available proxy because LLC store-miss PEBS events do not
        /// exist).
        l1d_miss: bool,
        /// Function performing the access.
        function: FuncId,
    },
    /// Start of an application phase (iteration); used to segment bandwidth
    /// time series.
    PhaseMarker {
        /// Event time (seconds).
        time: f64,
        /// Phase ordinal.
        phase: u32,
    },
}

impl TraceEvent {
    /// The event timestamp in seconds.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::Alloc { time, .. }
            | TraceEvent::Free { time, .. }
            | TraceEvent::LoadMissSample { time, .. }
            | TraceEvent::StoreSample { time, .. }
            | TraceEvent::PhaseMarker { time, .. } => *time,
        }
    }

    /// Overwrites the event timestamp (used by the fault injectors to model
    /// clock damage; production code never rewrites times).
    pub fn set_time(&mut self, t: f64) {
        match self {
            TraceEvent::Alloc { time, .. }
            | TraceEvent::Free { time, .. }
            | TraceEvent::LoadMissSample { time, .. }
            | TraceEvent::StoreSample { time, .. }
            | TraceEvent::PhaseMarker { time, .. } => *time = t,
        }
    }

    /// True for allocation-routine instrumentation events.
    pub fn is_allocation_event(&self) -> bool {
        matches!(self, TraceEvent::Alloc { .. } | TraceEvent::Free { .. })
    }

    /// True for hardware-sampling events.
    pub fn is_sample(&self) -> bool {
        matches!(self, TraceEvent::LoadMissSample { .. } | TraceEvent::StoreSample { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_time_accessor() {
        let e = TraceEvent::Alloc {
            time: 1.5,
            object: ObjectId(1),
            site: SiteId(0),
            size: 64,
            address: 0x1000,
        };
        assert_eq!(e.time(), 1.5);
        assert!(e.is_allocation_event());
        assert!(!e.is_sample());
    }

    #[test]
    fn sample_classification() {
        let l = TraceEvent::LoadMissSample {
            time: 0.1,
            address: 0x2000,
            latency_cycles: 400.0,
            function: FuncId(2),
        };
        assert!(l.is_sample());
        let s = TraceEvent::StoreSample {
            time: 0.2,
            address: 0x2040,
            l1d_miss: true,
            function: FuncId(2),
        };
        assert!(s.is_sample());
        assert!(!s.is_allocation_event());
    }

    #[test]
    fn json_round_trip() {
        let e = TraceEvent::PhaseMarker { time: 2.0, phase: 3 };
        let j = crate::jsonio::event_to_json(&e);
        let back = crate::jsonio::event_from_json(&j).unwrap();
        assert_eq!(e, back);
    }
}
