//! End-to-end differential check of the columnar analyzer on the three
//! reference workloads: the scalar fallback and the columnar path must
//! produce identical profiles, and
//! those profiles must drive the Advisor to byte-identical placement
//! reports. This is the integration-level twin of
//! `crates/profiler/tests/columnar_differential.rs` — real traces, real
//! advisor, the exact artifacts the pipeline ships.

use ecohmem::prelude::*;

const APPS: [&str; 3] = ["minife", "lulesh", "hpcg"];

#[test]
fn columnar_and_legacy_paths_ship_identical_artifacts() {
    for app_name in APPS {
        let app = ecohmem::workloads::model_by_name(app_name).unwrap();
        let cfg = PipelineConfig::paper_default();
        let backing = cfg.machine.largest_tier();
        let (trace, _) = ecohmem::profiler::profile_run_cached(
            &app,
            &cfg.machine,
            ExecMode::MemoryMode,
            backing,
            &cfg.profiler,
        );

        let legacy = ecohmem::profiler::analyze_legacy(&trace).unwrap();
        let columnar = ecohmem::profiler::analyze(&trace).unwrap();
        assert_eq!(legacy, columnar, "{app_name}: columnar profile drifted from scalar");

        // The profiles being equal, the advisor must emit byte-identical
        // placement reports — the artifact FlexMalloc actually consumes.
        let advisor = Advisor::new(cfg.advisor.clone()).with_thresholds(cfg.thresholds);
        let from_legacy =
            advisor.advise(&legacy, cfg.algorithm, cfg.stack_format).unwrap().to_json().unwrap();
        let from_columnar =
            advisor.advise(&columnar, cfg.algorithm, cfg.stack_format).unwrap().to_json().unwrap();
        assert_eq!(from_legacy, from_columnar, "{app_name}: placement report drifted");
    }
}
