//! Uncapped scenarios give each core a fair share of memory that need not
//! be a whole number of pages; the footprint the generator draws over
//! must still be exactly the mapped one, so no access faults.

use mixtlb_cache::SharedCacheConfig;
use mixtlb_sim::designs;
use mixtlb_smp::{MultiProgrammedScenario, ShootdownModel, SmpScenarioConfig};

#[test]
fn uncapped_standard_scenarios_never_fault() {
    // Seeds on which the last, partially covered page used to be drawn.
    for seed in [8, 16] {
        let cfg = SmpScenarioConfig::standard().with_seed(seed);
        assert_eq!(cfg.per_core_cap, None);
        let scenario = MultiProgrammedScenario::prepare(&["gups", "memcached"], &cfg);
        let mut machine = scenario.build_machine(
            designs::haswell_split,
            SharedCacheConfig::haswell_llc(),
            ShootdownModel::default(),
        );
        for core in machine.run_serial(40_000).cores {
            assert_eq!(core.stats.faults, 0, "seed {seed}, core {}", core.id);
        }
    }
}
