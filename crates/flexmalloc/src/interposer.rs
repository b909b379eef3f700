//! The interposer: a [`memsim::PlacementPolicy`] driven by a placement
//! report.

use crate::matching::{MatchStats, Matcher};
use memsim::policy::{AllocContext, PlacementPolicy};
use memtrace::{BinaryMap, LoadMap, PlacementReport, TierId, TraceError, Warning};

/// FlexMalloc: intercepts every allocation, matches its call stack against
/// the Advisor report, and routes it to the assigned tier's heap manager.
#[derive(Debug)]
pub struct FlexMalloc {
    matcher: Matcher,
    binmap: BinaryMap,
    layout: LoadMap,
    ranks: u32,
    stats: MatchStats,
    name: String,
}

impl FlexMalloc {
    /// Initializes the interposer for a process image: the report, the
    /// program's binary map, and the ASLR seed of *this* execution (which
    /// differs from the profiling run's — the whole point of the Table I
    /// formats).
    pub fn new(
        report: &PlacementReport,
        binmap: &BinaryMap,
        aslr_seed: u64,
        ranks: u32,
    ) -> Result<Self, TraceError> {
        let layout = LoadMap::randomize(binmap, aslr_seed);
        let matcher = Matcher::new(report, binmap, &layout)?;
        let name = format!("flexmalloc-{}", matcher.format());
        let stats = MatchStats { collisions: matcher.colliding_entries(), ..MatchStats::default() };
        Ok(FlexMalloc { matcher, binmap: binmap.clone(), layout, ranks, stats, name })
    }

    /// Lenient initialization: never fails. Report entries that cannot be
    /// resolved in this process image — a stale report after a rebuild —
    /// are dropped and counted in [`MatchStats::unresolvable`]; their
    /// allocations take the fallback tier at runtime, the same graceful
    /// path FlexMalloc has always used for unlisted stacks.
    pub fn new_lenient(
        report: &PlacementReport,
        binmap: &BinaryMap,
        aslr_seed: u64,
        ranks: u32,
    ) -> (Self, Vec<Warning>) {
        let layout = LoadMap::randomize(binmap, aslr_seed);
        let (matcher, warnings) = Matcher::new_lenient(report, binmap, &layout);
        let name = format!("flexmalloc-{}", matcher.format());
        let stats = MatchStats {
            unresolvable: matcher.unresolvable_entries(),
            collisions: matcher.colliding_entries(),
            ..MatchStats::default()
        };
        (FlexMalloc { matcher, binmap: binmap.clone(), layout, ranks, stats, name }, warnings)
    }

    /// Matching statistics so far.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// The matcher in use (for cost inspection).
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }
}

impl PlacementPolicy for FlexMalloc {
    fn name(&self) -> &str {
        &self.name
    }

    fn place(&mut self, ctx: &AllocContext<'_>) -> TierId {
        // Capture the call stack: the runtime sees absolute addresses under
        // this execution's ASLR layout.
        let Some(captured) = self.layout.absolutize(ctx.stack) else {
            self.stats.unmatched += 1;
            return self.matcher.fallback();
        };
        match self.matcher.match_stack(&captured, &self.binmap, &self.layout) {
            Some(tier) => {
                self.stats.matched += 1;
                tier
            }
            None => {
                self.stats.unmatched += 1;
                self.matcher.fallback()
            }
        }
    }

    fn fallback(&self) -> TierId {
        self.matcher.fallback()
    }

    fn overhead_seconds_per_alloc(&self) -> f64 {
        self.matcher.cost_per_alloc()
    }

    fn resident_dram_bytes(&self) -> u64 {
        // Debug info is loaded by every MPI process (§VIII-D: "the same
        // data is loaded in each MPI process, 16 in this case").
        self.matcher.debug_info_bytes() * self.ranks as u64
    }

    fn observes_phases(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{run, ExecMode, MachineConfig};
    use memtrace::{CallStack, Frame, ModuleId, ReportEntry, ReportStack, SiteId, StackFormat};

    fn toy_app() -> memsim::AppModel {
        let mut b = memtrace::BinaryMapBuilder::new();
        b.add_module("a.out", 64 * 1024, 1 << 20, vec!["main.c".into()]);
        memsim::AppModel {
            name: "toy".into(),
            ranks: 2,
            threads_per_rank: 1,
            input_desc: String::new(),
            sites: vec![
                (SiteId(0), CallStack::new(vec![Frame::new(ModuleId(0), 0x40)])),
                (SiteId(1), CallStack::new(vec![Frame::new(ModuleId(0), 0x240)])),
            ],
            binmap: b.build(),
            function_names: vec!["k".into()],
            phases: vec![memsim::PhaseSpec {
                label: None,
                compute_instructions: 1e9,
                allocs: vec![
                    memsim::AllocOp { site: SiteId(0), size: 1 << 20, count: 1 },
                    memsim::AllocOp { site: SiteId(1), size: 1 << 20, count: 3 },
                ],
                frees: vec![],
                accesses: vec![],
            }],
        }
    }

    fn report_for_toy() -> PlacementReport {
        let app = toy_app();
        let mut r = PlacementReport::new(StackFormat::Bom, memtrace::TierId::PMEM);
        r.push(ReportEntry {
            stack: ReportStack::Bom(app.sites[0].1.clone()),
            tier: memtrace::TierId::DRAM,
            max_size: 1 << 20,
        });
        r
    }

    #[test]
    fn listed_sites_follow_the_report_and_others_fall_back() {
        let app = toy_app();
        let mach = MachineConfig::optane_pmem6();
        let mut fm = FlexMalloc::new(&report_for_toy(), &app.binmap, 42, app.ranks).unwrap();
        let result = run(&app, &mach, ExecMode::AppDirect, &mut fm);
        let dram: Vec<_> = result.objects_in_tier(memtrace::TierId::DRAM);
        let pmem: Vec<_> = result.objects_in_tier(memtrace::TierId::PMEM);
        assert_eq!(dram.len(), 1);
        assert_eq!(pmem.len(), 3);
        assert_eq!(fm.stats().matched, 1);
        assert_eq!(fm.stats().unmatched, 3);
    }

    #[test]
    fn works_under_any_aslr_seed() {
        let app = toy_app();
        let mach = MachineConfig::optane_pmem6();
        for seed in [1, 99, 12345] {
            let mut fm = FlexMalloc::new(&report_for_toy(), &app.binmap, seed, app.ranks).unwrap();
            let result = run(&app, &mach, ExecMode::AppDirect, &mut fm);
            assert_eq!(result.objects_in_tier(memtrace::TierId::DRAM).len(), 1);
        }
    }

    #[test]
    fn hr_mode_pins_debug_info_per_rank() {
        let app = toy_app();
        let hr = report_for_toy().to_human_readable(&app.binmap).unwrap();
        let fm = FlexMalloc::new(&hr, &app.binmap, 1, app.ranks).unwrap();
        assert_eq!(fm.resident_dram_bytes(), (1 << 20) * 2);
        assert!(fm.overhead_seconds_per_alloc() > 0.0);
    }

    #[test]
    fn bom_mode_has_no_resident_footprint() {
        let app = toy_app();
        let fm = FlexMalloc::new(&report_for_toy(), &app.binmap, 1, app.ranks).unwrap();
        assert_eq!(fm.resident_dram_bytes(), 0);
    }

    #[test]
    fn lenient_init_survives_a_fully_stale_report() {
        let app = toy_app();
        let mach = MachineConfig::optane_pmem6();
        let mut stale = report_for_toy();
        for e in &mut stale.entries {
            if let ReportStack::Bom(s) = &mut e.stack {
                *s = CallStack::new(vec![Frame::new(ModuleId(400), 0x40)]);
            }
        }
        assert!(FlexMalloc::new(&stale, &app.binmap, 42, app.ranks).is_err());
        let (mut fm, warnings) = FlexMalloc::new_lenient(&stale, &app.binmap, 42, app.ranks);
        assert!(!warnings.is_empty());
        assert_eq!(fm.stats().unresolvable, 1);
        let result = run(&app, &mach, ExecMode::AppDirect, &mut fm);
        // Everything falls back: degraded placement, completed run.
        assert_eq!(result.objects_in_tier(memtrace::TierId::PMEM).len(), 4);
        assert_eq!(fm.stats().matched, 0);
    }

    #[test]
    fn empty_report_routes_everything_to_fallback() {
        let app = toy_app();
        let mach = MachineConfig::optane_pmem6();
        let empty = PlacementReport::new(StackFormat::Bom, memtrace::TierId::PMEM);
        let mut fm = FlexMalloc::new(&empty, &app.binmap, 7, app.ranks).unwrap();
        let result = run(&app, &mach, ExecMode::AppDirect, &mut fm);
        assert_eq!(result.objects_in_tier(memtrace::TierId::PMEM).len(), 4);
    }
}
