//! Configuration for the online engine: how miss statistics age and how
//! often the incremental advisor re-plans.

use serde::{Deserialize, Serialize};

/// Tuning knobs shared by the streaming ingestor, the incremental advisor
/// and the dynamic placement policy.
///
/// The two aging knobs select the estimator a site's miss statistic
/// reports (see [`crate::stats::DecayedWindow`]):
///
/// * both `None` — the raw running total. This is the *offline-equivalent*
///   setting: feeding a full trace through the ingestor reproduces the
///   batch analyzer's estimates exactly (property-tested).
/// * `window: Some(w)` — a sliding window: only activity in the last `w`
///   time units counts.
/// * `half_life: Some(h)` — exponential decay with half-life `h`; takes
///   precedence over the window when both are set.
///
/// Time units are seconds on the trace path and *phases* on the simulator
/// policy path (the engine reports per-phase heat, not timestamps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Sliding-window length for miss statistics (`None` = unbounded).
    pub window: Option<f64>,
    /// Exponential-decay half-life for miss statistics (`None` = no decay).
    pub half_life: Option<f64>,
    /// The incremental advisor re-plans every this many phases (policy
    /// path) — the "epoch tick". Clamped to ≥ 1.
    pub epoch_phases: u32,
    /// Fixed time cost per applied migration, seconds: the syscall and
    /// page-table work of a `move_pages`-style remap, on top of the
    /// bytes-moved / tier-bandwidth transfer term charged by the engine.
    pub migration_overhead: f64,
    /// Plan hysteresis: a challenger must look this fraction hotter than an
    /// incumbent fast-tier site to evict it. `0.0` disables (required for
    /// exact offline equivalence); the reactive preset uses a positive
    /// value so windowed-estimate noise between near-equal sites does not
    /// thrash migrations back and forth.
    pub hysteresis: f64,
}

impl Default for OnlineConfig {
    /// The offline-equivalent configuration: unbounded statistics, re-plan
    /// every phase, no hysteresis.
    fn default() -> Self {
        OnlineConfig {
            window: None,
            half_life: None,
            epoch_phases: 1,
            migration_overhead: 50e-6,
            hysteresis: 0.0,
        }
    }
}

impl OnlineConfig {
    /// A reactive preset for phase-adaptive placement: a short sliding
    /// window so the advisor tracks the *current* hot set instead of the
    /// whole-run aggregate, re-planning every phase, with enough hysteresis
    /// that estimate noise between near-equal sites does not churn.
    pub fn reactive() -> Self {
        OnlineConfig { window: Some(4.0), hysteresis: 0.5, ..OnlineConfig::default() }
    }

    /// Epoch length with the ≥ 1 clamp applied.
    pub fn epoch(&self) -> u32 {
        self.epoch_phases.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_offline_equivalent() {
        let c = OnlineConfig::default();
        assert!(c.window.is_none());
        assert!(c.half_life.is_none());
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn reactive_has_a_window() {
        assert!(OnlineConfig::reactive().window.is_some());
    }

    #[test]
    fn epoch_clamps_to_one() {
        let c = OnlineConfig { epoch_phases: 0, ..OnlineConfig::default() };
        assert_eq!(c.epoch(), 1);
    }
}
