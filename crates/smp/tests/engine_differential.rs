//! An SMP core translates exactly like the single-core engine: with no
//! shootdowns, one core's counters, TLB statistics and stall cycles equal
//! those of a `TranslationEngine` replaying the same generator on a clone
//! of the same page table through the same walk memory (private caches,
//! then a shared LLC).

use std::sync::Arc;

use mixtlb_cache::{SharedCache, SharedCacheConfig};
use mixtlb_sim::{designs, TranslationEngine, WalkBackend};
use mixtlb_smp::{
    CoreStats, MultiProgrammedScenario, ShootdownModel, SmpScenarioConfig, SmpWalkMemory,
};

const REFS: u64 = 20_000;

#[test]
fn one_smp_core_matches_the_engine_for_every_design() {
    let cfg = SmpScenarioConfig::quick();
    let scenario = MultiProgrammedScenario::prepare(&["gups"], &cfg);
    for (name, factory) in designs::all_cpu_designs() {
        let mut machine = scenario.build_machine(
            factory,
            SharedCacheConfig::tiny(),
            ShootdownModel::default(),
        );
        let report = machine.run_serial(REFS);
        let core = &report.cores[0];

        let mut pt = scenario.clone_page_table(0);
        let llc = Arc::new(SharedCache::new(SharedCacheConfig::tiny()));
        let mut engine = TranslationEngine::with_memory(
            factory(),
            WalkBackend::Native(&mut pt),
            SmpWalkMemory::new(llc),
        );
        engine.set_asid(core.asid);
        engine.run(scenario.generator(0).take(REFS as usize));
        let e = engine.stats();
        let want = CoreStats {
            accesses: e.accesses,
            l1_hits: e.l1_hits,
            l2_hits: e.l2_hits,
            walks: e.walks,
            faults: e.faults,
            dirty_microops: e.dirty_microops,
            local_stall_cycles: e.stall_cycles,
            llc_stall_cycles: engine.memory().llc_stall_cycles(),
            ..CoreStats::default()
        };
        assert_eq!(core.stats, want, "{name}: CoreStats");
        let h = engine.hierarchy();
        assert_eq!(core.l1, h.l1.stats(), "{name}: L1 TlbStats");
        assert_eq!(
            core.l2,
            h.l2.as_ref().map(|t| t.stats()),
            "{name}: L2 TlbStats"
        );
    }
}
