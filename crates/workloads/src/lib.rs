//! # workloads — synthetic application models for the ecoHMEM evaluation
//!
//! The paper evaluates five mini-applications (MiniFE, MiniMD, LULESH,
//! HPCG, CloverLeaf3D) and two production applications (LAMMPS, OpenFOAM).
//! ecoHMEM observes applications only through their allocation calls and
//! hardware-sampled memory accesses, so a reproduction does not need the
//! applications themselves — it needs trace-equivalent models: the same
//! allocation-site structure (sizes, counts, lifetimes, call stacks) and
//! per-phase access behaviour (loads, stores, LLC-miss density, pattern,
//! bandwidth phases) that the real codes exhibit on the paper's inputs.
//!
//! Each module documents how its model maps to the paper's published
//! characterization: Table V (ranks, input, memory high-water mark),
//! Table VI (memory-boundness, DRAM-cache hit ratio), and for LULESH the
//! object-lifetime structure of Figs. 3–5 and Tables II/III.

pub mod builder;
pub mod cloverleaf3d;
pub mod colocations;
pub mod granularity;
pub mod hpcg;
pub mod lammps;
pub mod lulesh;
pub mod minife;
pub mod minimd;
pub mod openfoam;
pub mod phaseshift;
pub mod scaling;

pub use builder::{AppBuilder, TableVRow};
pub use granularity::paginate_model;
pub use scaling::scale_model;

use memsim::AppModel;

/// All paper applications, in Table V order.
pub fn all_models() -> Vec<AppModel> {
    vec![
        minife::model(),
        minimd::model(),
        lulesh::model(),
        hpcg::model(),
        cloverleaf3d::model(),
        lammps::model(),
        openfoam::model(),
    ]
}

/// The five mini-applications of Fig. 6.
pub fn miniapp_models() -> Vec<AppModel> {
    vec![minife::model(), minimd::model(), lulesh::model(), hpcg::model(), cloverleaf3d::model()]
}

/// Table V characteristic rows for every application.
pub fn all_specs() -> Vec<TableVRow> {
    vec![
        minife::spec(),
        minimd::spec(),
        lulesh::spec(),
        hpcg::spec(),
        cloverleaf3d::spec(),
        lammps::spec(),
        openfoam::spec(),
    ]
}

/// Looks a model up by (lowercase) name.
pub fn model_by_name(name: &str) -> Option<AppModel> {
    match name.to_ascii_lowercase().as_str() {
        "minife" => Some(minife::model()),
        "minimd" => Some(minimd::model()),
        "lulesh" => Some(lulesh::model()),
        "hpcg" => Some(hpcg::model()),
        "cloverleaf3d" => Some(cloverleaf3d::model()),
        "lammps" => Some(lammps::model()),
        "openfoam" => Some(openfoam::model()),
        // Synthetic phase-shift adversary for static placement; not part
        // of the paper's Table V set, so absent from `all_models()`.
        "phaseshift" => Some(phaseshift::model()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for m in all_models() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn high_water_marks_are_in_table_v_ballpark() {
        // Table V gives MB/rank; aggregate HWM should be within 2x of
        // rank_count × per-rank HWM (the model aggregates all ranks).
        for (model, spec) in all_models().iter().zip(all_specs()) {
            let expected = spec.hwm_mb_per_rank as f64 * spec.ranks as f64 * 1e6;
            let got = model.high_water_mark() as f64;
            let ratio = got / expected;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{}: hwm {got:.3e} vs table {expected:.3e} (ratio {ratio:.2})",
                model.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(model_by_name("LULESH").is_some());
        assert!(model_by_name("OpenFOAM").is_some());
        assert!(model_by_name("nope").is_none());
    }

    /// The engine stops a phase's fixed-point solve at the first step that
    /// leaves the duration bit-identical. Over every shipped model, in
    /// both modes, that must give the same result, bit for bit, as
    /// always taking all the steps.
    #[cfg(debug_assertions)]
    #[test]
    fn fixed_point_exit_matches_the_full_solve() {
        use memsim::{engine, ExecMode, FixedTier, MachineConfig};
        use memtrace::TierId;
        let machine = MachineConfig::optane_pmem6();
        let runs = [
            (ExecMode::AppDirect, TierId::DRAM),
            (ExecMode::AppDirect, TierId::PMEM),
            (ExecMode::MemoryMode, TierId::PMEM),
        ];
        for app in all_models().into_iter().chain([phaseshift::model()]) {
            for (mode, tier) in runs {
                let policy = || FixedTier::with_fallback(tier, TierId::PMEM);
                let exit = engine::run(&app, &machine, mode, &mut policy());
                let full = engine::run_all_iterations(&app, &machine, mode, &mut policy());
                // Debug renders every float in its shortest round-trip
                // form, so equal text means equal bits for every float
                // but a NaN (and a NaN still has to be a NaN on both).
                assert!(
                    format!("{exit:?}") == format!("{full:?}"),
                    "{} {mode:?} on {tier}: the early exit changed the result",
                    app.name
                );
            }
        }
    }

    #[test]
    fn models_have_distinct_sites_and_stacks() {
        for m in all_models() {
            let mut stacks = std::collections::HashSet::new();
            for (_, s) in &m.sites {
                assert!(stacks.insert(s.clone()), "{}: duplicate stack", m.name);
            }
        }
    }
}
