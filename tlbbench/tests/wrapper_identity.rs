//! The timing wrapper is transparent: wrapped and unwrapped replays give
//! identical physical addresses, engine statistics and TLB statistics on
//! every design, and every trait method forwards unchanged.

#![forbid(unsafe_code)]

use mixtlb_core::{BatchAccess, Lookup, TlbDevice};
use mixtlb_pagetable::PageTable;
use mixtlb_sim::designs;
use mixtlb_sim::{NativeScenario, TranslationEngine, WalkBackend};
use mixtlb_smp::{MultiProgrammedScenario, SmpScenarioConfig};
use mixtlb_trace::{TraceEvent, TraceGenerator, WorkloadSpec};
use mixtlb_types::{Asid, PageSize, Permissions, Pfn, Translation, Vpn};
use tlbbench::timed::{self, Level, Timed};
use tlbbench::{oracle, workloads};

/// One operation on a device, rendered for comparison.
type Op<'a> = Box<dyn Fn(&mut dyn TlbDevice) -> String + 'a>;

fn small_trace(name: &str, memhog: f64) -> (PageTable, Vec<TraceEvent>) {
    let cfg = mixtlb_perf::corpus_config().with_memhog(memhog);
    let scenario = NativeScenario::prepare(&WorkloadSpec::by_name(name).unwrap(), &cfg);
    let events = TraceGenerator::new(scenario.spec(), scenario.seed(), scenario.region())
        .take(6_000)
        .collect();
    (scenario.clone_page_table(), events)
}

#[test]
fn wrapped_replays_are_output_identical_on_every_design() {
    for (trace, memhog) in [("gups", 0.0), ("memcached", 0.5)] {
        let (pt, events) = small_trace(trace, memhog);
        let reference = oracle::reference_pas(&pt, &events).unwrap();
        let want = oracle::pa_digest(reference.iter().map(|&pa| Some(pa)));
        for (name, factory) in designs::all_cpu_designs() {
            let run = |hierarchy, batched: bool| {
                let mut pt = pt.clone();
                let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
                let mut out = Vec::new();
                if batched {
                    engine.translate_batch(&events, &mut out);
                } else {
                    out = events.iter().map(|ev| engine.access(ev)).collect();
                }
                let (stats, l1, l2, caches) = engine.finish();
                (
                    oracle::pa_digest(out.iter().copied()),
                    stats,
                    l1,
                    l2,
                    caches,
                )
            };
            for batched in [true, false] {
                drop(timed::drain());
                let plain = run(factory(), batched);
                let wrapped = run(timed::wrap(factory()), batched);
                assert_eq!(
                    plain.0, want,
                    "{name}/{trace}: PAs differ from the page table"
                );
                assert_eq!(plain, wrapped, "{name}/{trace} batched={batched}");
                let records = timed::drain();
                assert_eq!(records.len(), 2, "{name}: one record per level");
                let l2 = records.iter().find(|r| r.level == Level::L2).unwrap();
                assert_eq!(
                    l2.misses.len() as u64,
                    plain.1.walks,
                    "{name}: one captured miss per walk"
                );
                assert_eq!(
                    l2.spans.lookups,
                    plain.3.unwrap().lookups,
                    "{name}: L2 lookups counted"
                );
            }
        }
    }
}

#[test]
fn every_trait_method_forwards_unchanged() {
    let t = |vpn: u64, pfn: u64, size| {
        let mut t = Translation::new(Vpn::new(vpn), Pfn::new(pfn), size, Permissions::rw_user());
        t.accessed = true;
        t
    };
    let small: Vec<Translation> = (0..8)
        .map(|i| t(0x4000 + i, 0x9000 + i, PageSize::Size4K))
        .collect();
    let big = t(0x8_0000, 0x20_0000, PageSize::Size2M);
    let asid = Asid::for_index(3);
    for (name, factory) in designs::all_cpu_designs() {
        for level in [Level::L1, Level::L2] {
            let pick = |h: mixtlb_sim::TlbHierarchy| match level {
                Level::L1 => h.l1,
                Level::L2 => h.l2.unwrap(),
            };
            let mut plain = pick(factory());
            let mut wrapped: Box<dyn TlbDevice> =
                Box::new(Timed::new(pick(factory()), level, name));
            let ctx = format!("{name} {level:?}");
            assert_eq!(plain.name(), wrapped.name(), "{ctx}");
            assert_eq!(plain.capacity(), wrapped.capacity(), "{ctx}");
            assert_eq!(plain.supports_asids(), wrapped.supports_asids(), "{ctx}");
            assert_eq!(plain.flush_sets(), wrapped.flush_sets(), "{ctx}");
            for size in PageSize::ALL {
                assert_eq!(
                    plain.invalidate_sets(Vpn::new(0x4000), size),
                    wrapped.invalidate_sets(Vpn::new(0x4000), size),
                    "{ctx}"
                );
            }
            let kind = mixtlb_types::AccessKind::Load;
            let store = mixtlb_types::AccessKind::Store;
            let batch: Vec<BatchAccess> = (0..12u64)
                .map(|i| BatchAccess {
                    vpn: Vpn::new(0x4000 + i % 9),
                    kind: if i % 3 == 0 { store } else { kind },
                    pc: 0x40_0000 + i,
                })
                .collect();
            let ops: Vec<Op> = vec![
                Box::new(|d| format!("{:?}", d.lookup(Vpn::new(0x4001), kind))),
                Box::new(|d| {
                    d.fill(Vpn::new(0x4001), &small[1], &small);
                    String::new()
                }),
                Box::new(|d| format!("{:?}", d.lookup_pc(Vpn::new(0x4002), store, 0x40_1000))),
                Box::new(|d| format!("{:?}", d.peek_run(Vpn::new(0x4003)))),
                Box::new(|d| {
                    d.fill_asid(asid, Vpn::new(0x8_0000), &big, &[big]);
                    String::new()
                }),
                Box::new(|d| {
                    format!(
                        "{:?}",
                        d.lookup_asid(asid, Vpn::new(0x8_0010), kind, 0x40_2000)
                    )
                }),
                Box::new(|d| {
                    let mut out: Vec<Lookup> = Vec::new();
                    let n = d.lookup_batch(asid, &batch, &mut out);
                    format!("{n} {out:?}")
                }),
                Box::new(|d| {
                    d.invalidate(Vpn::new(0x4001), PageSize::Size4K);
                    format!("{:?}", d.lookup(Vpn::new(0x4001), kind))
                }),
                Box::new(|d| {
                    d.invalidate_asid(asid, Vpn::new(0x8_0000), PageSize::Size2M);
                    format!("{:?}", d.lookup_asid(asid, Vpn::new(0x8_0000), kind, 0))
                }),
                Box::new(|d| {
                    d.flush_asid(asid);
                    format!("{:?}", d.lookup(Vpn::new(0x4004), kind))
                }),
                Box::new(|d| format!("{:?}", d.stats())),
                Box::new(|d| {
                    d.reset_stats();
                    format!("{:?}", d.stats())
                }),
                Box::new(|d| {
                    d.fill(Vpn::new(0x4005), &small[5], &small);
                    d.flush();
                    format!("{:?} {:?}", d.lookup(Vpn::new(0x4005), kind), d.stats())
                }),
            ];
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(op(plain.as_mut()), op(wrapped.as_mut()), "{ctx}: op {i}");
            }
        }
    }
    drop(timed::drain());
}

#[test]
fn wrapped_smp_replay_is_identical() {
    let cfg = SmpScenarioConfig::quick().with_shootdown_interval(2_000);
    let scenario = MultiProgrammedScenario::prepare(&["gups", "memcached"], &cfg);
    for design in ["split", "mix"] {
        let plain_factory = workloads::Workload::SmpShootdown
            .designs()
            .into_iter()
            .find(|(n, _)| *n == design)
            .unwrap()
            .1;
        let wrapped_factory = workloads::timed_factory(design).unwrap();
        let run = |factory| {
            let mut m = scenario.build_machine(
                factory,
                mixtlb_cache::SharedCacheConfig::haswell_llc(),
                mixtlb_smp::ShootdownModel::default(),
            );
            workloads::smp_fingerprint(&m.run_serial(5_000))
        };
        drop(timed::drain());
        assert_eq!(run(plain_factory), run(wrapped_factory), "{design}");
        let invalidates: u64 = timed::drain().iter().map(|r| r.spans.invalidates).sum();
        assert!(
            invalidates > 0,
            "{design}: shootdowns reach the wrapped devices"
        );
    }
}
