//! The four workloads: how each is generated from a seed (the set-up the
//! `setup_s` metric times) and how one unit of it is replayed and checked.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mixtlb_cache::SharedCacheConfig;
use mixtlb_core::TlbStats;
use mixtlb_pagetable::PageTable;
use mixtlb_sim::designs::{self, DesignFactory};
use mixtlb_sim::{
    EngineStats, NativeScenario, PolicyChoice, ScenarioConfig, TlbHierarchy, TranslationEngine,
    WalkBackend,
};
use mixtlb_smp::{
    stream_chunks, CoreStats, MultiProgrammedScenario, ShootdownModel, SmpMachine, SmpReport,
    SmpScenarioConfig, StreamConfig,
};
use mixtlb_trace::{TraceEvent, TraceFileV2, TraceGenerator, WorkloadSpec};
use mixtlb_types::{Pfn, PhysAddr};

use crate::oracle;
use crate::timed;

/// Events per trace: the pinned corpus length, so at seed 42 the
/// `stream-ingest` files reproduce the committed corpus byte for byte.
pub const TRACE_EVENTS: usize = 150_000;

/// Events per `frag-walk` trace: most of them walk, so a shorter trace
/// keeps a round short and a run times many rounds.
pub const FRAG_TRACE_EVENTS: usize = 20_000;

/// Accesses each SMP core replays per unit.
pub const SMP_REFS: u64 = 40_000;

/// Each SMP core's footprint: 1.5 GB, a whole number of 2 MB pages.
/// Uncapped, `MultiProgrammedScenario::prepare` gives a core its fair
/// share of memory, which is not a whole number of 4 KB pages: it maps
/// only the whole pages while the generator draws over every byte, so on
/// some seeds an access faults (see `README.md`).
pub const SMP_FOOTPRINT: u64 = 1536 << 20;

/// The `smp-shootdown` scenario: `SmpScenarioConfig::standard()` with
/// each core's footprint capped at [`SMP_FOOTPRINT`].
pub fn smp_config(seed: u64) -> SmpScenarioConfig {
    SmpScenarioConfig {
        per_core_cap: Some(SMP_FOOTPRINT),
        ..SmpScenarioConfig::standard().with_seed(seed)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memhog-fragmented memory: most misses walk.
    FragWalk,
    /// v2 files streamed through read/verify/decode into the engine.
    StreamIngest,
    /// Two simulated cores with periodic shootdowns.
    SmpShootdown,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FragWalk,
        Workload::StreamIngest,
        Workload::SmpShootdown,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FragWalk => "frag-walk",
            Workload::StreamIngest => "stream-ingest",
            Workload::SmpShootdown => "smp-shootdown",
        }
    }

    /// Parses a command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traces a native or streamed workload replays.
    fn traces(self) -> &'static [&'static str] {
        match self {
            Workload::FragWalk => &["gups", "memcached", "mcf"],
            // High-locality traces: most accesses are reuse-window hits,
            // so read/verify/decode outweighs translation.
            Workload::StreamIngest => &["streamcluster", "pathfinder", "hotspot"],
            Workload::SmpShootdown => &["gups", "memcached"],
        }
    }

    /// Events per generated trace.
    pub fn trace_events(self) -> usize {
        match self {
            Workload::FragWalk => FRAG_TRACE_EVENTS,
            _ => TRACE_EVENTS,
        }
    }

    /// The designs the workload replays.
    pub fn designs(self) -> Vec<(&'static str, DesignFactory)> {
        match self {
            Workload::FragWalk => designs::all_cpu_designs(),
            Workload::StreamIngest | Workload::SmpShootdown => vec![
                ("split", designs::haswell_split as DesignFactory),
                ("mix", designs::mix),
            ],
        }
    }

    /// The scenario the `index`-th trace is generated against.
    fn scenario_config(self, seed: u64, index: usize) -> ScenarioConfig {
        match self {
            // Each trace fragments its own memory from its own seed, so a
            // run averages three memhog layouts instead of repeating one.
            Workload::FragWalk => ScenarioConfig {
                mem_bytes: 4 << 30,
                memhog_fraction: 0.5,
                policy: PolicyChoice::Ths,
                footprint_cap: Some(1536 << 20),
                seed: seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
            // The pinned corpus configuration.
            _ => mixtlb_perf::corpus_config().with_seed(seed),
        }
    }
}

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `NativeScenario::prepare` / `MultiProgrammedScenario::prepare`.
    pub prepare_s: f64,
    /// Trace generation.
    pub generate_s: f64,
    /// Writing v2 files.
    pub record_s: f64,
    /// Everything, reference digests included.
    pub total_s: f64,
}

/// One generated trace with its reference.
pub struct Trace {
    /// Catalog workload name.
    pub name: &'static str,
    /// The events (native workloads replay them from memory).
    pub events: Vec<TraceEvent>,
    /// The v2 file the events were written to (streamed workloads).
    pub path: Option<PathBuf>,
    /// The faulted page table; every replay runs on a fresh clone.
    pub page_table: PageTable,
    /// The page table's own PA for every event.
    pub reference: Vec<PhysAddr>,
    /// Digest of `reference`.
    pub reference_digest: u64,
    /// Digest of the generated events.
    pub event_digest: u64,
}

/// A prepared workload.
pub enum Prepared {
    /// Traces replayed by the engine (from memory or streamed from files).
    Traces(Vec<Trace>),
    /// The multi-programmed SMP scenario.
    Smp(Box<MultiProgrammedScenario>),
}

/// Builds a workload from `seed`. Streamed workloads write their v2 files
/// into `dir`.
pub fn prepare(
    workload: Workload,
    seed: u64,
    dir: &Path,
) -> Result<(Prepared, SetupTimes), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    if workload == Workload::SmpShootdown {
        let scenario = MultiProgrammedScenario::prepare(workload.traces(), &smp_config(seed));
        times.prepare_s = start.elapsed().as_secs_f64();
        times.total_s = times.prepare_s;
        return Ok((Prepared::Smp(Box::new(scenario)), times));
    }
    let mut traces = Vec::new();
    for (index, &name) in workload.traces().iter().enumerate() {
        let cfg = workload.scenario_config(seed, index);
        let spec = WorkloadSpec::by_name(name).ok_or_else(|| format!("unknown trace {name}"))?;
        let t = Instant::now();
        let scenario = NativeScenario::prepare(&spec, &cfg);
        times.prepare_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let events: Vec<TraceEvent> =
            TraceGenerator::new(scenario.spec(), scenario.seed(), scenario.region())
                .take(workload.trace_events())
                .collect();
        times.generate_s += t.elapsed().as_secs_f64();
        let path = if workload == Workload::StreamIngest {
            let t = Instant::now();
            let path = dir.join(format!("{name}.mtc2"));
            TraceFileV2::record(&path, events.iter().copied())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            times.record_s += t.elapsed().as_secs_f64();
            Some(path)
        } else {
            None
        };
        let page_table = scenario.clone_page_table();
        let reference = oracle::reference_pas(&page_table, &events)?;
        let reference_digest = oracle::pa_digest(reference.iter().map(|&pa| Some(pa)));
        let event_digest = oracle::event_digest(&events);
        traces.push(Trace {
            name,
            events,
            path,
            page_table,
            reference,
            reference_digest,
            event_digest,
        });
    }
    times.total_s = start.elapsed().as_secs_f64();
    Ok((Prepared::Traces(traces), times))
}

/// The streamed traces that are also in the committed corpus
/// (`crates/perf/corpus`, seed 42, 150k events).
pub fn corpus_traces(traces: &[Trace]) -> impl Iterator<Item = (&Trace, &Path)> {
    let catalog = mixtlb_perf::corpus_catalog();
    traces.iter().filter_map(move |t| {
        let path = t.path.as_deref()?;
        catalog
            .iter()
            .any(|c| c.name == t.name)
            .then_some((t, path))
    })
}

/// Checks the streamed files that regenerate a corpus trace against the
/// committed corpus file's fingerprint. Only meaningful at seed 42.
pub fn corpus_mismatches(traces: &[Trace]) -> Vec<String> {
    let dir = mixtlb_perf::default_corpus_dir();
    corpus_traces(traces)
        .filter_map(|(trace, path)| {
            let got = mixtlb_perf::file_fingerprint(path).map_err(|e| e.to_string());
            let want = mixtlb_perf::file_fingerprint(&mixtlb_perf::corpus_path(&dir, trace.name))
                .map_err(|e| e.to_string());
            match (got, want) {
                (Ok(got), Ok(want)) if got == want => None,
                (got, want) => Some(format!(
                    "{}: fingerprint {got:?}, committed corpus {want:?}",
                    trace.name
                )),
            }
        })
        .collect()
}

/// The outcome of replaying one trace through one design.
pub struct EngineRun {
    /// Host nanoseconds of the timed phase.
    pub ns: u64,
    /// One PA per event, in order.
    pub out: Vec<Option<PhysAddr>>,
    /// Engine counters.
    pub stats: EngineStats,
    /// L1 statistics.
    pub l1: TlbStats,
    /// L2 statistics.
    pub l2: Option<TlbStats>,
    /// Digest of the events streamed, when asked for.
    pub event_digest: Option<u64>,
}

impl EngineRun {
    /// Failed translations (PA mismatches and faults) plus one per broken
    /// conservation law or wrong event digest, with the reasons.
    pub fn failures(&self, trace: &Trace) -> (u64, Vec<String>) {
        let mut why = oracle::engine_laws(&self.stats, trace.reference.len() as u64);
        let wrong = oracle::mismatches(&self.out, &trace.reference);
        if wrong > 0 {
            why.push(format!("{wrong} PAs differ from the page table"));
        }
        if let Some(d) = self.event_digest {
            if d != trace.event_digest {
                why.push("streamed events differ from the generated ones".to_owned());
            }
        }
        let checks = why.len() as u64 - u64::from(wrong > 0);
        (wrong + checks, why)
    }
}

/// Replays a trace from memory through `translate_batch`. Only the batch
/// call is timed.
pub fn replay_batch(trace: &Trace, hierarchy: TlbHierarchy) -> EngineRun {
    let mut pt = trace.page_table.clone();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut out = Vec::with_capacity(trace.events.len());
    let start = Instant::now();
    engine.translate_batch(std::hint::black_box(&trace.events), &mut out);
    let ns = elapsed_ns(start);
    let (stats, l1, l2, _) = engine.finish();
    EngineRun {
        ns,
        out,
        stats,
        l1,
        l2,
        event_digest: None,
    }
}

/// Streams a v2 file through `stream_chunks` (synchronous shape) into
/// `translate_batch`. Read, verify, decode and translation are timed
/// together; with `digest_events` the streamed events are digested too.
pub fn replay_stream(
    trace: &Trace,
    hierarchy: TlbHierarchy,
    digest_events: bool,
) -> io::Result<EngineRun> {
    let path = trace
        .path
        .as_ref()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "trace has no v2 file"))?;
    let mut pt = trace.page_table.clone();
    let mut engine = TranslationEngine::new(hierarchy, WalkBackend::Native(&mut pt));
    let mut out = Vec::with_capacity(trace.reference.len());
    let mut digest = oracle::Digest::default();
    let start = Instant::now();
    stream_chunks(path, &StreamConfig::synchronous(), |_, events| {
        engine.translate_batch(events, &mut out);
        if digest_events {
            events.iter().for_each(|ev| digest.event(ev));
        }
    })?;
    let ns = elapsed_ns(start);
    let (stats, l1, l2, _) = engine.finish();
    Ok(EngineRun {
        ns,
        out,
        stats,
        l1,
        l2,
        event_digest: digest_events.then(|| digest.value()),
    })
}

/// A fresh machine for the design, on the scenario's state.
fn smp_machine(scenario: &MultiProgrammedScenario, factory: DesignFactory) -> SmpMachine {
    scenario.build_machine(
        factory,
        SharedCacheConfig::haswell_llc(),
        ShootdownModel::default(),
    )
}

/// One SMP replay: a fresh machine for the design, [`SMP_REFS`] accesses
/// per core, run serially.
pub fn replay_smp(scenario: &MultiProgrammedScenario, factory: DesignFactory) -> SmpReport {
    smp_machine(scenario, factory).run_serial(SMP_REFS)
}

/// Checks every SMP physical address, which `run_serial` does not return.
/// The cores take turns through the quiesced `SmpMachine::access`, one
/// event each from their own generator, [`SMP_REFS`] each. At every
/// shootdown interval the core that just translated migrates that page
/// with `SmpMachine::broadcast_remap`, so the page is cached in its TLBs
/// when the sweep runs, and an entry a missed or narrowed sweep leaves
/// behind on any core reads as a wrong address. The reference is each
/// core's own page-table clone with the same migrations applied:
/// `broadcast_remap` moves the page to the frame with bit 33 flipped in
/// every space that maps it. Returns the accesses and the wrong
/// addresses, faults included.
pub fn check_smp_pas(
    scenario: &MultiProgrammedScenario,
    factory: DesignFactory,
) -> Result<(u64, u64), String> {
    let interval = SmpScenarioConfig::standard().shootdown_interval;
    let mut machine = smp_machine(scenario, factory);
    let cores = scenario.core_count();
    let mut streams: Vec<_> = (0..cores).map(|c| scenario.generator(c)).collect();
    let mut reference: Vec<PageTable> = (0..cores).map(|c| scenario.clone_page_table(c)).collect();
    let (mut accesses, mut wrong) = (0u64, 0u64);
    for i in 1..=SMP_REFS {
        for (core, stream) in streams.iter_mut().enumerate() {
            let Some(ev) = stream.next() else { continue };
            let vpn = ev.va.vpn();
            let mapped = reference[core].lookup(vpn);
            let want = mapped.and_then(|t| t.translate(ev.va).ok());
            let got = machine.access(core, &ev);
            accesses += 1;
            if want.is_none() || got != want {
                wrong += 1;
            }
            if i % interval != 0 {
                continue;
            }
            if machine.broadcast_remap(core, vpn) != mapped.map(|t| t.size) {
                wrong += 1;
            }
            for pt in &mut reference {
                if let Some(t) = pt.lookup(vpn) {
                    pt.remap(t.vpn, t.size, Pfn::new(t.pfn.raw() ^ (1 << 33)))
                        .map_err(|e| format!("migrating {vpn:?} in the reference: {e:?}"))?;
                }
            }
        }
    }
    Ok((accesses, wrong))
}

/// Per-core replay state that must repeat exactly between two serial
/// runs of the same design on the same scenario.
pub type SmpFingerprint = Vec<(CoreStats, TlbStats, Option<TlbStats>)>;

/// The deterministic part of an SMP report.
pub fn smp_fingerprint(report: &SmpReport) -> SmpFingerprint {
    report.cores.iter().map(|c| (c.stats, c.l1, c.l2)).collect()
}

/// Checks one SMP replay. Per core: every access served by exactly one
/// of L1, L2 or a walk, no faults, the configured access and shootdown
/// counts, one L1 lookup per access. And every serial replay of a design
/// must reproduce `first`, the design's first replay, exactly (the first
/// replay is recorded there).
pub fn smp_checks(report: &SmpReport, first: &mut Option<SmpFingerprint>) -> Vec<String> {
    let interval = SmpScenarioConfig::standard().shootdown_interval;
    let mut broken = Vec::new();
    for c in &report.cores {
        let s = &c.stats;
        if s.faults != 0 {
            broken.push(format!("core {}: {} faults", c.id, s.faults));
        }
        if s.accesses != s.l1_hits + s.l2_hits + s.walks {
            broken.push(format!(
                "core {}: accesses {} != l1 {} + l2 {} + walks {}",
                c.id, s.accesses, s.l1_hits, s.l2_hits, s.walks
            ));
        }
        if s.accesses != SMP_REFS {
            broken.push(format!(
                "core {}: {} accesses, want {SMP_REFS}",
                c.id, s.accesses
            ));
        }
        if s.shootdowns_initiated != SMP_REFS / interval {
            broken.push(format!(
                "core {}: {} shootdowns, want {}",
                c.id,
                s.shootdowns_initiated,
                SMP_REFS / interval
            ));
        }
        if c.l1.lookups != s.accesses {
            broken.push(format!(
                "core {}: {} L1 lookups for {} accesses",
                c.id, c.l1.lookups, s.accesses
            ));
        }
    }
    let print = smp_fingerprint(report);
    match first {
        Some(f) if *f != print => broken.push("serial replay is not deterministic".to_owned()),
        Some(_) => {}
        None => *first = Some(print),
    }
    broken
}

/// Wrapped SMP factories: fn pointers, as `build_machine` requires.
pub fn timed_factory(design: &str) -> Option<DesignFactory> {
    fn split() -> TlbHierarchy {
        timed::wrap(designs::haswell_split())
    }
    fn mix() -> TlbHierarchy {
        timed::wrap(designs::mix())
    }
    match design {
        "split" => Some(split),
        "mix" => Some(mix),
        _ => None,
    }
}

/// A private scratch directory inside the working directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.tlbbench-work/<pid>` under the current directory.
    pub fn create() -> io::Result<WorkDir> {
        let dir = PathBuf::from(".tlbbench-work").join(std::process::id().to_string());
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves the parent when other runs still use it.
        let _ = self.0.parent().map(fs::remove_dir);
    }
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
