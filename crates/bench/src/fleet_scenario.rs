//! The fleet scenario perfbench's `fleet` component simulates (2 × 2 in
//! untraced runs, 16 × 4 in traced ones): rotated mixed colocations on
//! the paper's PMem-6 node with seeded arrival churn. `tests/fleet.rs`
//! pins the 16-node × 4-tenant instance at churn seed `0xEC0` for every
//! scheduler in `tests/golden/fleet_sweep16x4.txt`.

use memsim::fleet::{ChurnConfig, FleetConfig, SchedulerPolicy};
use memsim::{MachineConfig, TenantSpec};
use workloads::colocations;

/// Arrivals spread over this many seconds of simulated time.
pub const DEFAULT_SPREAD_S: f64 = 5.0;

/// Builds the scenario: `nodes` × `per_node` rotated mixed
/// minife/lulesh/hpcg/phaseshift colocations on the paper's PMem-6 node,
/// 1 GiB grant quanta, seeded arrival churn.
pub fn scenario(
    nodes: u32,
    per_node: usize,
    scheduler: SchedulerPolicy,
    seed: u64,
) -> (FleetConfig, Vec<TenantSpec>) {
    let mut cfg = FleetConfig::new(MachineConfig::optane_pmem6(), nodes, scheduler);
    cfg.quantum_bytes = 1 << 30;
    cfg.churn = ChurnConfig { seed, arrival_spread_s: DEFAULT_SPREAD_S };
    (cfg, colocations::mixed_colocations(nodes, per_node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_validates() {
        let (cfg, tenants) = scenario(16, 4, SchedulerPolicy::PaperGreedy, 0xEC0);
        cfg.validate().unwrap();
        assert_eq!(tenants.len(), 16 * 4);
    }
}
