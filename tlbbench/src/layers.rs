//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Every unit is replayed twice. The plain replay is timed as a whole
//! (`sim.batch_ns`, `smp.access_ns`, streamed time). The wrapped replay
//! puts a [`timed::Timed`] device on every TLB level through the public
//! `TlbHierarchy` API: it gives the `core` spans, captures the pages the
//! L2 missed, and must produce exactly the plain replay's outputs. The
//! captured walks are then replayed in isolation through
//! [`Walker::walk`] (`pagetable`) and through the page-walk cache and the
//! cache hierarchy (`cache`), in engine order and configuration.
//! Streamed workloads also time `BlockReader::read_block`,
//! `RawBlock::verify` and `decode_block` separately (`trace`).

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use mixtlb_cache::{CacheHierarchy, HierarchyConfig, PageWalkCache};
use mixtlb_pagetable::{PageTable, WalkResult, Walker};
use mixtlb_sim::designs::DesignFactory;
use mixtlb_sim::{TranslationEngine, WalkBackend};
use mixtlb_trace::{decode_block, BlockReader, RawBlock, TraceEvent, V2_BLOCK_EVENTS};
use mixtlb_types::{AccessKind, VirtAddr, Vpn};

use crate::metrics::{self, Metrics, Outcome};
use crate::run::{self, Args, Tally};
use crate::timed::{self, DeviceSpans, Level};
use crate::workloads::{self, EngineRun, Prepared, Trace, Workload};

/// Page-walk-cache entries, as the translation engine configures it.
const PWC_ENTRIES: usize = 32;

/// Everything the traced run accumulates, over all rounds.
#[derive(Debug, Default)]
struct Acc {
    rounds: u64,
    l1: DeviceSpans,
    l2: DeviceSpans,
    l1_mix: DeviceSpans,
    l2_mix: DeviceSpans,
    /// Plain (unwrapped) replay: accesses and nanoseconds.
    accesses: u64,
    plain_ns: u64,
    /// Wrapped replay nanoseconds over the same units.
    wrapped_ns: u64,
    /// Engine batch time (native: the plain replay; streamed: the
    /// translate calls of the staged replay).
    batch_ns: u64,
    walks: u64,
    pte_reads: u64,
    walk_ns: u64,
    pte_accesses: u64,
    pwc_probes: u64,
    pwc_hits: u64,
    cache_ns: u64,
    /// Streamed workloads: staged read / verify / decode, and the plain
    /// `stream_chunks` time.
    read_ns: u64,
    verify_ns: u64,
    decode_ns: u64,
    blocks: u64,
    streamed_ns: u64,
    shootdowns: u64,
    sets_swept: u64,
}

impl Acc {
    fn add_records(&mut self, records: Vec<timed::DeviceRecord>) -> Vec<Vec<(Vpn, AccessKind)>> {
        let mut misses = Vec::new();
        for r in records {
            let mix = r.design == "mix";
            let (all, only_mix) = match r.level {
                Level::L1 => (&mut self.l1, &mut self.l1_mix),
                Level::L2 => (&mut self.l2, &mut self.l2_mix),
            };
            all.merge(&r.spans);
            if mix {
                only_mix.merge(&r.spans);
            }
            if r.level == Level::L2 {
                misses.push(r.misses);
            }
        }
        misses
    }

    /// Replays captured walks in isolation: the walker alone, then the
    /// page-walk cache and cache hierarchy over the walks' PTE references.
    fn replay_walks(&mut self, pt: &PageTable, misses: &[(Vpn, AccessKind)]) {
        let mut pt = pt.clone();
        let mut walks: Vec<WalkResult> = Vec::with_capacity(misses.len());
        let start = Instant::now();
        for &(vpn, kind) in misses {
            walks.push(Walker::walk(&mut pt, VirtAddr::from_page(vpn, 0), kind));
        }
        self.walk_ns += workloads::elapsed_ns(start);
        black_box(&walks);
        self.walks += walks.len() as u64;
        self.pte_reads += walks.iter().map(|w| w.pte_reads.len() as u64).sum::<u64>();

        let mut pwc = PageWalkCache::new(PWC_ENTRIES);
        let mut caches = CacheHierarchy::new(HierarchyConfig::haswell());
        let mut accesses = 0u64;
        let start = Instant::now();
        for w in &walks {
            let last = w.pte_reads.len().saturating_sub(1);
            for (i, &pa) in w.pte_reads.iter().enumerate() {
                if i != last && pwc.access(pa) {
                    continue;
                }
                black_box(caches.access(pa));
                accesses += 1;
            }
            for &pa in &w.pte_writes {
                black_box(caches.access(pa));
                accesses += 1;
            }
        }
        self.cache_ns += workloads::elapsed_ns(start);
        let (hits, misses) = pwc.stats();
        self.pwc_hits += hits;
        self.pwc_probes += hits + misses;
        self.pte_accesses += accesses + hits + misses;
    }
}

/// Read, verify, decode and translate of one streamed trace, each timed
/// on its own (plain devices).
struct Staged {
    run: EngineRun,
    read_ns: u64,
    verify_ns: u64,
    decode_ns: u64,
    blocks: u64,
}

fn stream_staged(trace: &Trace, factory: DesignFactory) -> io::Result<Staged> {
    let path = trace
        .path
        .as_ref()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "trace has no v2 file"))?;
    let mut reader = BlockReader::open(path)?;
    let mut block = RawBlock::new();
    let mut events: Vec<TraceEvent> = Vec::with_capacity(V2_BLOCK_EVENTS);
    let mut pt = trace.page_table.clone();
    let mut engine = TranslationEngine::new(factory(), WalkBackend::Native(&mut pt));
    let mut out = Vec::with_capacity(trace.reference.len());
    let (mut read_ns, mut verify_ns, mut decode_ns, mut batch_ns, mut blocks) = (0, 0, 0, 0, 0);
    loop {
        let t = Instant::now();
        let more = reader.read_block(&mut block)?;
        read_ns += workloads::elapsed_ns(t);
        if !more {
            break;
        }
        blocks += 1;
        let t = Instant::now();
        block.verify()?;
        verify_ns += workloads::elapsed_ns(t);
        let t = Instant::now();
        decode_block(&block, &mut events)?;
        decode_ns += workloads::elapsed_ns(t);
        let t = Instant::now();
        engine.translate_batch(&events, &mut out);
        batch_ns += workloads::elapsed_ns(t);
    }
    let (stats, l1, l2, _) = engine.finish();
    Ok(Staged {
        run: EngineRun {
            ns: batch_ns,
            out,
            stats,
            l1,
            l2,
            event_digest: None,
        },
        read_ns,
        verify_ns,
        decode_ns,
        blocks,
    })
}

/// Checks that the wrapped replay produced exactly the plain one's
/// outputs and statistics.
fn identical(plain: &EngineRun, wrapped: &EngineRun) -> Vec<String> {
    let mut why = Vec::new();
    if plain.out != wrapped.out {
        why.push("wrapped replay changed the PAs".to_owned());
    }
    if plain.stats != wrapped.stats {
        why.push("wrapped replay changed the engine stats".to_owned());
    }
    if plain.l1 != wrapped.l1 || plain.l2 != wrapped.l2 {
        why.push("wrapped replay changed the TLB stats".to_owned());
    }
    why
}

fn engine_round(
    workload: Workload,
    traces: &[Trace],
    acc: &mut Acc,
    tally: &mut Tally,
) -> Result<(), String> {
    for trace in traces {
        for (design, factory) in workload.designs() {
            let ctx = format!("{design}/{}", trace.name);
            let n = trace.reference.len() as u64;
            let plain = if workload == Workload::StreamIngest {
                let plain = workloads::replay_stream(trace, factory(), false)
                    .map_err(|e| format!("streaming {}: {e}", trace.name))?;
                acc.streamed_ns += plain.ns;
                let staged = stream_staged(trace, factory)
                    .map_err(|e| format!("staging {}: {e}", trace.name))?;
                let (failed, why) = staged.run.failures(trace);
                tally.add(&format!("{ctx} staged"), n, failed, why);
                acc.read_ns += staged.read_ns;
                acc.verify_ns += staged.verify_ns;
                acc.decode_ns += staged.decode_ns.saturating_sub(staged.verify_ns);
                acc.blocks += staged.blocks;
                acc.batch_ns += staged.run.ns;
                plain
            } else {
                let plain = workloads::replay_batch(trace, factory());
                acc.batch_ns += plain.ns;
                plain
            };
            let (failed, why) = plain.failures(trace);
            tally.add(&ctx, n, failed, why);
            acc.accesses += n;
            acc.plain_ns += plain.ns;

            drop(timed::drain());
            let wrapped = if workload == Workload::StreamIngest {
                workloads::replay_stream(trace, timed::wrap(factory()), false)
                    .map_err(|e| format!("streaming {}: {e}", trace.name))?
            } else {
                workloads::replay_batch(trace, timed::wrap(factory()))
            };
            let why = identical(&plain, &wrapped);
            tally.add(&format!("{ctx} wrapped"), n, why.len() as u64, why);
            acc.wrapped_ns += wrapped.ns;
            for misses in acc.add_records(timed::drain()) {
                acc.replay_walks(&trace.page_table, &misses);
            }
        }
    }
    Ok(())
}

fn smp_round(
    workload: Workload,
    scenario: &mixtlb_smp::MultiProgrammedScenario,
    acc: &mut Acc,
    first: &mut [Option<workloads::SmpFingerprint>],
    tally: &mut Tally,
) -> Result<(), String> {
    for ((design, factory), first) in workload.designs().into_iter().zip(first.iter_mut()) {
        let plain = workloads::replay_smp(scenario, factory);
        let why = workloads::smp_checks(&plain, first);
        let n: u64 = plain.cores.iter().map(|c| c.stats.accesses).sum();
        tally.add(design, n, why.len() as u64, why);
        acc.accesses += n;
        acc.plain_ns += u64::try_from(plain.elapsed.as_nanos()).unwrap_or(u64::MAX);
        acc.shootdowns += plain.total_shootdowns();
        acc.sets_swept += plain
            .cores
            .iter()
            .map(|c| c.stats.sets_swept_global)
            .sum::<u64>();

        let wrapped_factory =
            workloads::timed_factory(design).ok_or_else(|| format!("no wrapped {design}"))?;
        drop(timed::drain());
        let wrapped = workloads::replay_smp(scenario, wrapped_factory);
        let why = if workloads::smp_fingerprint(&wrapped) == workloads::smp_fingerprint(&plain) {
            Vec::new()
        } else {
            vec!["wrapped replay changed the SMP stats".to_owned()]
        };
        tally.add(&format!("{design} wrapped"), n, why.len() as u64, why);
        acc.wrapped_ns += u64::try_from(wrapped.elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Cores drop in order, so the k-th L2 record is core k's.
        for (core, misses) in acc.add_records(timed::drain()).into_iter().enumerate() {
            acc.replay_walks(&scenario.clone_page_table(core), &misses);
        }
    }
    Ok(())
}

/// Which layer each workload is built to stress.
fn intended_layer(workload: Workload) -> &'static str {
    match workload {
        Workload::FragWalk => "walk",
        Workload::StreamIngest => "trace",
        Workload::SmpShootdown => "core",
    }
}

/// The traced run: every `per_layer` metric of `BENCHMARK.json`, plus the
/// layer-sum report on standard error.
pub fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = run::Setups::default();
    let mut prepared = setups.prepare(args, dir, &mut tally)?;
    while setups.count() < run::SETUP_MIN_REPS {
        drop(prepared);
        prepared = setups.prepare(args, dir, &mut tally)?;
    }
    let setup = setups.fastest();
    let overhead = timed::timer_overhead_ns();
    let mut acc = Acc::default();
    let mut first = vec![None; args.workload.designs().len()];
    if let Prepared::Smp(scenario) = &prepared {
        // Untimed: every SMP address, plain and wrapped, against the page
        // table, which the timed `run_serial` replays do not return.
        for (design, factory) in args.workload.designs() {
            let wrapped =
                workloads::timed_factory(design).ok_or_else(|| format!("no wrapped {design}"))?;
            run::check_smp(scenario, design, factory, &mut tally)?;
            run::check_smp(scenario, &format!("{design} wrapped"), wrapped, &mut tally)?;
        }
        drop(timed::drain());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while acc.rounds == 0 || Instant::now() < deadline {
        match &prepared {
            Prepared::Traces(traces) => engine_round(args.workload, traces, &mut acc, &mut tally)?,
            Prepared::Smp(scenario) => {
                smp_round(args.workload, scenario, &mut acc, &mut first, &mut tally)?
            }
        }
        acc.rounds += 1;
    }

    let per_round = |count: u64| count as f64 / acc.rounds as f64;
    // Span time less the timer's own cost, per operation.
    let net = |ns: u64, spans: u64, ops: u64| {
        metrics::ratio(ns as f64 - overhead * spans as f64, ops as f64)
    };
    let lookup = |s: &DeviceSpans| net(s.lookup_ns, s.lookup_spans, s.lookups);
    let mut fills = acc.l1.clone();
    fills.merge(&acc.l2);
    let mut fills_mix = acc.l1_mix.clone();
    fills_mix.merge(&acc.l2_mix);
    let core_ns = (fills.lookup_ns + fills.fill_ns + fills.invalidate_ns + fills.flush_ns) as f64
        - overhead * fills.spans() as f64;

    let accesses = acc.accesses as f64;
    let core_per = metrics::ratio(core_ns, accesses);
    let walk_per = metrics::ratio(acc.walk_ns as f64, accesses);
    let cache_per = metrics::ratio(acc.cache_ns as f64, accesses);
    let is_smp = args.workload == Workload::SmpShootdown;
    let batch_ns = metrics::ratio(acc.batch_ns as f64, accesses);
    let smp_ns = metrics::ratio(acc.plain_ns as f64, accesses);
    // The residual: what the engine (or SmpCore) loop itself costs once
    // the device spans and the isolated walk and cache estimates are out.
    let total = if is_smp { smp_ns } else { batch_ns };
    let self_ns = total - core_per - walk_per - cache_per;
    let trace_per = |ns: u64| metrics::ratio(ns as f64, accesses);
    let streamed = metrics::ratio(acc.streamed_ns as f64, accesses);

    let mut m = Metrics::default();
    m.push("core.l1.lookup_ns", lookup(&acc.l1), "ns");
    m.push("core.l1.lookups", per_round(acc.l1.lookups), "count");
    m.push(
        "core.l1.hit_ratio",
        metrics::ratio(acc.l1.hits as f64, acc.l1.lookups as f64),
        "ratio",
    );
    m.push("core.l2.lookup_ns", lookup(&acc.l2), "ns");
    m.push("core.l2.lookups", per_round(acc.l2.lookups), "count");
    m.push(
        "core.l2.hit_ratio",
        metrics::ratio(acc.l2.hits as f64, acc.l2.lookups as f64),
        "ratio",
    );
    m.push(
        "core.fill_ns",
        net(fills.fill_ns, fills.fills, fills.fills),
        "ns",
    );
    m.push("core.fills", per_round(fills.fills), "count");
    m.push(
        "core.invalidate_ns",
        net(fills.invalidate_ns, fills.invalidates, fills.invalidates),
        "ns",
    );
    m.push("core.invalidates", per_round(fills.invalidates), "count");
    m.push(
        "core.flush_ns",
        net(fills.flush_ns, fills.flushes, fills.flushes),
        "ns",
    );
    m.push("core.l1.lookup_ns.mix", lookup(&acc.l1_mix), "ns");
    m.push("core.l2.lookup_ns.mix", lookup(&acc.l2_mix), "ns");
    m.push(
        "core.fill_ns.mix",
        net(fills_mix.fill_ns, fills_mix.fills, fills_mix.fills),
        "ns",
    );
    m.push(
        "core.invalidate_ns.mix",
        net(
            fills_mix.invalidate_ns,
            fills_mix.invalidates,
            fills_mix.invalidates,
        ),
        "ns",
    );
    m.push(
        "core.flush_ns.mix",
        net(fills_mix.flush_ns, fills_mix.flushes, fills_mix.flushes),
        "ns",
    );
    m.push(
        "pagetable.walk_ns",
        metrics::ratio(acc.walk_ns as f64, acc.walks as f64),
        "ns",
    );
    m.push("pagetable.walks", per_round(acc.walks), "count");
    m.push(
        "pagetable.pte_reads_per_walk",
        metrics::ratio(acc.pte_reads as f64, acc.walks as f64),
        "count",
    );
    m.push(
        "cache.pte_access_ns",
        metrics::ratio(acc.cache_ns as f64, acc.pte_accesses as f64),
        "ns",
    );
    m.push("cache.pte_accesses", per_round(acc.pte_accesses), "count");
    m.push(
        "cache.pwc_hit_ratio",
        metrics::ratio(acc.pwc_hits as f64, acc.pwc_probes as f64),
        "ratio",
    );
    m.push("trace.read_ns", trace_per(acc.read_ns), "ns");
    m.push("trace.verify_ns", trace_per(acc.verify_ns), "ns");
    m.push("trace.decode_ns", trace_per(acc.decode_ns), "ns");
    m.push("trace.blocks", per_round(acc.blocks), "count");
    m.push("sim.batch_ns", if is_smp { 0.0 } else { batch_ns }, "ns");
    m.push("sim.self_ns", if is_smp { 0.0 } else { self_ns }, "ns");
    m.push(
        "sim.window_ratio",
        if is_smp {
            0.0
        } else {
            1.0 - metrics::ratio(acc.l1.lookups as f64, accesses)
        },
        "ratio",
    );
    m.push("smp.access_ns", if is_smp { smp_ns } else { 0.0 }, "ns");
    m.push("smp.self_ns", if is_smp { self_ns } else { 0.0 }, "ns");
    m.push("smp.shootdowns", per_round(acc.shootdowns), "count");
    m.push(
        "smp.sets_per_shootdown",
        metrics::ratio(acc.sets_swept as f64, acc.shootdowns as f64),
        "count",
    );
    m.push("os.prepare_s", setup.prepare_s, "s");
    m.push("trace.generate_s", setup.generate_s, "s");
    m.push("trace.record_s", setup.record_s, "s");
    m.push(
        "trace_overhead",
        metrics::ratio(acc.plain_ns as f64, acc.wrapped_ns as f64),
        "ratio",
    );

    // Layer sum: the parts timed from outside against the whole they
    // should explain. The residual is what no outside span covers: the
    // engine's (or SmpCore's) own loop, plus for streamed workloads the
    // pipeline glue between the staged parts.
    let trace_parts = trace_per(acc.read_ns) + trace_per(acc.verify_ns) + trace_per(acc.decode_ns);
    let streaming = args.workload == Workload::StreamIngest;
    let whole = if streaming { streamed } else { total };
    let glue = if streaming {
        streamed - batch_ns - trace_parts
    } else {
        0.0
    };
    let residual = self_ns + glue;
    let own = if is_smp { "smp" } else { "sim" };
    let mut layers = vec![
        ("core", core_per),
        ("walk", walk_per + cache_per),
        (own, self_ns),
    ];
    if streaming {
        layers.push(("trace", trace_parts));
    }
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(name, _)| name);
    let intended = intended_layer(args.workload);
    m.push(
        "sum.residual_share",
        metrics::ratio(residual, whole),
        "ratio",
    );
    m.push(
        "sum.dominant_is_intended",
        f64::from(u8::from(dominant == intended)),
        "count",
    );

    eprintln!(
        "{} traced: seed {} rounds {} timer {:.1} ns/span trace_overhead {:.3}",
        args.workload.name(),
        args.seed,
        acc.rounds,
        overhead,
        metrics::ratio(acc.plain_ns as f64, acc.wrapped_ns as f64)
    );
    eprintln!(
        "layer sum, ns per access, against {} {:.1} ns:",
        if streaming {
            "streamed"
        } else if is_smp {
            "smp.access"
        } else {
            "sim.batch"
        },
        whole
    );
    eprintln!(
        "  core {:.1} = l1 lookups {:.1} + l2 lookups {:.1} + fills {:.1} + invalidates/flushes {:.1}",
        core_per,
        metrics::ratio(acc.l1.lookup_ns as f64 - overhead * acc.l1.lookup_spans as f64, accesses),
        metrics::ratio(acc.l2.lookup_ns as f64 - overhead * acc.l2.lookup_spans as f64, accesses),
        metrics::ratio(fills.fill_ns as f64 - overhead * fills.fills as f64, accesses),
        metrics::ratio(
            (fills.invalidate_ns + fills.flush_ns) as f64 - overhead * (fills.invalidates + fills.flushes) as f64,
            accesses
        ),
    );
    eprintln!(
        "  walk {:.1} = pagetable {walk_per:.1} + cache {cache_per:.1}",
        walk_per + cache_per
    );
    eprintln!("  {own} self {self_ns:.1} (the {own} loop: its time less core, walk and cache)");
    if streaming {
        eprintln!(
            "  trace {trace_parts:.1} = read {:.1} + verify {:.1} + decode {:.1}; staged batch {batch_ns:.1}; glue {glue:.1}",
            trace_per(acc.read_ns),
            trace_per(acc.verify_ns),
            trace_per(acc.decode_ns)
        );
    }
    eprintln!(
        "  residual (self + glue) {residual:.1} ns = {:.1}% of the whole; dominant layer {dominant}, intended {intended}{}",
        100.0 * metrics::ratio(residual, whole),
        if dominant == intended { "" } else { " (MISMATCH)" }
    );
    for reason in &tally.reasons {
        eprintln!("FAILED {reason}");
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}
