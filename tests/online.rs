//! End-to-end acceptance for the online placement engine: the economics
//! the `online_vs_offline` experiment reports, pinned as invariants.
//!
//! * Steady-state (MiniFE): the hot set never changes, so offline
//!   profiling is unbeatable — the online engine must converge to within a
//!   few percent of it after the cold-start phases.
//! * Phase-shifting (`workloads::phaseshift`): every static placement
//!   strands half the hot accesses in PMEM, so dynamic migration must win
//!   outright, and must actually migrate (not fluke into a good static
//!   placement).

use ecohmem::prelude::*;

fn online_run(app: &AppModel) -> (RunResult, ecohmem_online::OnlinePolicy) {
    let mut policy = OnlinePolicy::new(AdvisorConfig::loads_only(12), OnlineConfig::reactive());
    let machine = MachineConfig::optane_pmem6();
    let result = run(app, &machine, ExecMode::AppDirect, &mut policy);
    (result, policy)
}

fn offline_placed_time(app: &AppModel) -> f64 {
    let mut cfg = PipelineConfig::paper_default();
    cfg.advisor = AdvisorConfig::loads_only(12);
    run_pipeline(app, &cfg).unwrap().placed.total_time
}

#[test]
fn online_stays_within_five_percent_of_offline_on_steady_state() {
    let app = ecohmem::workloads::minife::model();
    let offline = offline_placed_time(&app);
    let (online, policy) = online_run(&app);
    assert!(
        online.total_time <= offline * 1.05,
        "online {:.2}s vs offline {:.2}s ({:+.1}%) — cold start must cost ≤ 5%",
        online.total_time,
        offline,
        (online.total_time / offline - 1.0) * 100.0,
    );
    // The engine reports what the adaptation cost.
    assert!(online.migrations > 0, "convergence requires promotions");
    assert!(online.migrated_bytes > 0);
    assert!(online.migration_time > 0.0);
    assert!(policy.epochs() > 0);
    assert!(!policy.revisions().is_empty());
}

#[test]
fn online_beats_static_offline_on_a_phase_shifting_workload() {
    let app = ecohmem::workloads::model_by_name("phaseshift").unwrap();
    let offline = offline_placed_time(&app);
    let (online, policy) = online_run(&app);
    assert!(
        online.total_time < offline,
        "online {:.2}s must beat static offline {:.2}s across the phase shift",
        online.total_time,
        offline,
    );
    // The win must come from migration across the shift, not luck: the hot
    // array flips mid-run, so at least one multi-GiB move is required.
    assert!(online.migrations > 0);
    assert!(online.migrated_bytes >= 10 << 30, "the flipped hot array must actually move");
    assert!(
        policy.revisions().iter().any(|r| r.epoch > 0),
        "the plan must be revised after the cold-start epoch",
    );
    // And online must still beat doing nothing at all.
    let machine = MachineConfig::optane_pmem6();
    let memory_mode = run_memory_mode(&app, &machine);
    assert!(online.total_time < memory_mode.total_time);
}

#[test]
fn dirty_set_accounting_saves_rebuild_work() {
    // On a steady workload most sites are clean most epochs: the advisor
    // must rebuild far fewer profiles than epochs × sites.
    let app = ecohmem::workloads::minife::model();
    let (_, policy) = online_run(&app);
    let sites = 13; // minife model allocation sites
    let naive = policy.epochs() * sites;
    assert!(
        policy.rebuilt_sites() < naive / 2,
        "rebuilt {} of a naive {} site-rebuilds — the dirty set is not pruning",
        policy.rebuilt_sites(),
        naive,
    );
}

/// Satellite differential contract: ticking the incremental advisor over a
/// *fully recorded* trace must converge to exactly the tier assignment the
/// offline advisor derives from the batch-analyzed profile. Hysteresis is
/// zero (the offline-equivalent setting), so after the final tick at the
/// trace's end there is no information difference left between the paths.
#[test]
fn incremental_advisor_matches_offline_assignment_over_a_recorded_trace() {
    use ecohmem_online::{StreamIngestor, StreamMeta};
    use memsim::FixedTier;

    for app_name in ["minife", "lulesh", "hpcg"] {
        let app = ecohmem::workloads::model_by_name(app_name).unwrap();
        let machine = MachineConfig::optane_pmem6();
        let backing = machine.largest_tier();
        let (trace, _) = profile_run(
            &app,
            &machine,
            ExecMode::MemoryMode,
            &mut FixedTier::new(backing),
            &ProfilerConfig::default(),
        );

        // Offline: batch analysis, one knapsack solve over the whole profile.
        let profile = analyze(&trace).unwrap();
        let config = AdvisorConfig::loads_only(12);
        let offline = advisor::knapsack::assign(&profile, &config);

        // Online: the same events pushed through the streaming ingestor,
        // with periodic mid-stream ticks (which may disagree — information
        // is still arriving) and one final tick at the recorded duration.
        let mut ingestor = StreamIngestor::new(
            StreamMeta::of(&trace),
            DegradationPolicy::Strict,
            OnlineConfig::default(),
        );
        let mut online = IncrementalAdvisor::new(config, Algorithm::Base);
        let stride = (trace.events.len() / 7).max(1);
        for (i, event) in trace.events.iter_events().enumerate() {
            ingestor.push(event).unwrap();
            if (i + 1) % stride == 0 {
                let now = ingestor.now();
                online.tick(&mut ingestor, now);
            }
        }
        online.tick(&mut ingestor, trace.duration);
        assert!(online.epochs() >= 2, "{app_name}: the stream must tick mid-flight too");

        let mismatches: Vec<_> = profile
            .sites
            .iter()
            .map(|s| s.site)
            .filter(|&site| online.tier_of(site) != offline.tier_of(site))
            .map(|site| (site, offline.tier_of(site), online.tier_of(site)))
            .collect();
        assert!(
            mismatches.is_empty(),
            "{app_name}: online assignment diverged from offline on {} of {} sites \
             [(site, offline, online)]: {mismatches:?}",
            mismatches.len(),
            profile.sites.len(),
        );
    }
}
