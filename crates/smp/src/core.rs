//! One simulated core: a translation engine over its private TLB
//! hierarchy, private caches and page table, plus its trace stream and
//! shootdown cadence.

use std::sync::Arc;

// Atomics come from mixtlb-check's facade (instrumented under the `model`
// feature, plain `std::sync::atomic` re-exports otherwise).
use mixtlb_check::sync::{AtomicU64, Ordering};

use mixtlb_cache::{AccessResult, CacheHierarchy, HierarchyConfig, SharedCache};
use mixtlb_core::TlbStats;
use mixtlb_pagetable::PageTable;
use mixtlb_sim::{TlbHierarchy, TranslationEngine, WalkBackend, WalkMemory};
use mixtlb_trace::TraceGenerator;
use mixtlb_types::{Asid, PhysAddr, Pfn, Translation, Vpn};

use crate::shootdown::{ShootdownModel, SweepWidths};

/// Counters of one core's replay.
///
/// Every field except [`CoreStats::llc_stall_cycles`] is a pure function
/// of the core's own stream and private state — identical between serial
/// and parallel replay. `llc_stall_cycles` depends on how the cores'
/// accesses interleave in the shared LLC and is reported separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Trace events replayed.
    pub accesses: u64,
    /// L1 TLB hits.
    pub l1_hits: u64,
    /// L2 TLB hits (on L1 misses).
    pub l2_hits: u64,
    /// Page-table walks.
    pub walks: u64,
    /// Faulting walks (zero after pre-faulting).
    pub faults: u64,
    /// Dirty-bit update micro-ops on store hits.
    pub dirty_microops: u64,
    /// Deterministic stall cycles (the engine's `stall_cycles`): L2 TLB
    /// probe latency, extra serial probes, and private-cache latency of
    /// walk references.
    pub local_stall_cycles: u64,
    /// Stall cycles from shared-LLC/DRAM walk references
    /// (interleaving-dependent; excluded from determinism comparisons).
    pub llc_stall_cycles: u64,
    /// Shootdowns this core initiated.
    pub shootdowns_initiated: u64,
    /// Cycles this core paid initiating them (IPIs + own sweep + waiting
    /// for remote acknowledgements).
    pub shootdown_cycles_initiated: u64,
    /// TLB sets this core swept in its own hierarchy for its own
    /// shootdowns.
    pub sets_swept_local: u64,
    /// Machine-wide TLB sets swept per shootdown this core initiated
    /// (own + every remote) — the paper's Sec. 5.1 mirrored-sweep cost.
    pub sets_swept_global: u64,
    /// Invalidation epochs this core closed (epoch-batched shootdown
    /// model; 0 when epochs are disabled).
    pub epochs_closed: u64,
    /// Cycles the *epoch-batched* model charges this core as initiator
    /// for the same invalidations `shootdown_cycles_initiated` prices
    /// eagerly: one IPI round per closed epoch, sweeps capped at the
    /// full-flush ceiling. Accumulated side by side with the eager
    /// counters in the same replay, so the two models are directly
    /// comparable on one run.
    pub shootdown_cycles_epoch: u64,
    /// Machine-wide TLB sets swept under the epoch-batched model for
    /// epochs this core closed (eager counterpart: `sets_swept_global`).
    pub sets_swept_global_epoch: u64,
}

/// The memory one core's walks reference: its private L1D/L2
/// ([`HierarchyConfig::haswell_private`]), then the machine's shared LLC
/// behind a private miss. Private latency stalls translation and is
/// deterministic; LLC latency depends on how the cores interleave, so it
/// is booked apart, in [`SmpWalkMemory::llc_stall_cycles`].
#[derive(Debug)]
pub struct SmpWalkMemory {
    private: CacheHierarchy,
    llc: Arc<SharedCache>,
    llc_stall_cycles: u64,
}

impl SmpWalkMemory {
    /// Fresh private caches in front of `llc`.
    pub fn new(llc: Arc<SharedCache>) -> SmpWalkMemory {
        SmpWalkMemory {
            private: CacheHierarchy::new(HierarchyConfig::haswell_private()),
            llc,
            llc_stall_cycles: 0,
        }
    }

    /// Cycles walk references spent in the shared LLC (or DRAM behind it).
    pub fn llc_stall_cycles(&self) -> u64 {
        self.llc_stall_cycles
    }
}

impl WalkMemory for SmpWalkMemory {
    fn reference(&mut self, pa: PhysAddr) -> AccessResult {
        let private = self.private.access(pa);
        // `dram` here means "left the core": the LLC answers (or DRAM
        // behind it).
        if private.dram {
            self.llc_stall_cycles += self.llc.access(pa).cycles;
        }
        private
    }

    fn dirty_write(&mut self, pa: PhysAddr) {
        if self.private.access(pa).dram {
            self.llc.access(pa);
        }
    }
}

/// What one core must know about one *remote* core to charge shootdown
/// costs without inspecting its state: precomputed eager per-size costs,
/// and the geometry (sweep widths, full-flush ceiling) the epoch-batched
/// model prices at epoch close.
#[derive(Debug, Clone, Default)]
pub(crate) struct RemoteTables {
    /// The remote core's index (into the absorbed-cost ledgers).
    pub core: usize,
    /// Cycles the remote absorbs for one eager shootdown, by size code.
    pub eager_cycles_by_size: [u64; 3],
    /// The remote's sweep width by size code (sets per invalidated page).
    pub sweep_by_size: [u64; 3],
    /// The remote's full-flush ceiling: sets one whole-device flush
    /// visits, which caps a batched epoch sweep.
    pub flush_sets: u64,
}

/// Cost tables a core needs to charge shootdowns without touching any
/// other core's state: everything is precomputed from TLB geometry by
/// [`crate::SmpMachine`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ShootdownTables {
    /// Cycles the initiator pays, by page-size code.
    pub initiated_cost_by_size: [u64; 3],
    /// Machine-wide sets swept, by page-size code.
    pub global_sets_by_size: [u64; 3],
    /// This core's own full-flush ceiling (see [`RemoteTables::flush_sets`]).
    pub own_flush_sets: u64,
    /// The cycle-cost model, for pricing epoch closes whose sweep extents
    /// depend on run-time pending counts and cannot be precomputed.
    pub model: ShootdownModel,
    /// Per remote core, in a fixed order.
    pub remotes: Vec<RemoteTables>,
}

/// The machine's absorbed-shootdown-cost ledgers, one counter per core
/// per pricing model. Workers publish remote costs here with commutative
/// atomic adds, so totals are interleaving-independent.
#[derive(Debug, Default)]
pub(crate) struct AbsorbedLedger {
    /// Cycles absorbed under the eager per-shootdown IPI model.
    pub eager: Vec<AtomicU64>,
    /// Cycles absorbed under the epoch-batched model, for the same
    /// invalidations.
    pub epoch: Vec<AtomicU64>,
}

impl AbsorbedLedger {
    pub fn with_cores(n: usize) -> AbsorbedLedger {
        AbsorbedLedger {
            eager: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One core of an [`crate::SmpMachine`].
pub struct SmpCore {
    pub(crate) id: usize,
    /// The core's one translation datapath: TLBs, PWC, walks of its own
    /// page table through [`SmpWalkMemory`].
    pub(crate) engine: TranslationEngine<'static, SmpWalkMemory>,
    generator: TraceGenerator,
    region: Vpn,
    footprint_pages: u64,
    /// Initiate a shootdown every this many accesses (0 = never).
    shootdown_interval: u64,
    shootdown_count: u64,
    /// Close an invalidation epoch every this many accesses (0 = never).
    /// A trailing partial epoch is closed at the end of the run, so over
    /// one run both pricing models cover the same invalidations.
    epoch_interval: u64,
    /// Invalidations accumulated in the open epoch, by page-size code.
    pending_invalidations: [u64; 3],
    pub(crate) sweep: SweepWidths,
    pub(crate) tables: ShootdownTables,
    /// The shootdown counters; the translation counters live in the
    /// engine and are merged in by [`SmpCore::stats`].
    stats: CoreStats,
}

impl std::fmt::Debug for SmpCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmpCore")
            .field("id", &self.id)
            .field("asid", &self.asid())
            .field("design", &self.engine.hierarchy().name())
            .finish()
    }
}

impl SmpCore {
    /// Assembles a core. Walks go through [`SmpWalkMemory`]: private
    /// caches, then the machine's shared `llc`.
    pub fn new(
        id: usize,
        hierarchy: TlbHierarchy,
        pt: PageTable,
        generator: TraceGenerator,
        region: Vpn,
        footprint_pages: u64,
        llc: Arc<SharedCache>,
    ) -> SmpCore {
        let mut engine = TranslationEngine::with_memory(
            hierarchy,
            WalkBackend::Owned(pt),
            SmpWalkMemory::new(llc),
        );
        engine.set_asid(Asid::for_index(id));
        SmpCore {
            id,
            engine,
            generator,
            region,
            footprint_pages: footprint_pages.max(1),
            shootdown_interval: 0,
            shootdown_count: 0,
            epoch_interval: 0,
            pending_invalidations: [0; 3],
            sweep: SweepWidths::default(),
            tables: ShootdownTables::default(),
            stats: CoreStats::default(),
        }
    }

    /// Sets the shootdown cadence: one initiated shootdown every
    /// `interval` accesses (0 disables).
    pub fn with_shootdown_interval(mut self, interval: u64) -> SmpCore {
        self.shootdown_interval = interval;
        self
    }

    /// Sets the epoch cadence: the epoch-batched pricing model closes an
    /// invalidation epoch every `interval` accesses (0 disables epoch
    /// accounting entirely). Epoch closes are a pure function of the
    /// core's own access count, so they preserve serial/parallel
    /// determinism.
    pub fn with_epoch_interval(mut self, interval: u64) -> SmpCore {
        self.epoch_interval = interval;
        self
    }

    /// The core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The core's address-space identifier.
    pub fn asid(&self) -> Asid {
        // Wrapping index→tag mapping: core ids are unbounded, hardware
        // tags are 12-bit. `Asid::new(id as u16 + 1)` panicked at id 4095
        // and silently truncated ids ≥ 65536; wrapped collisions are
        // harmless here because each core's TLBs are private and run
        // exactly one space.
        Asid::for_index(self.id)
    }

    /// The running counters.
    pub fn stats(&self) -> CoreStats {
        let e = self.engine.stats();
        CoreStats {
            accesses: e.accesses,
            l1_hits: e.l1_hits,
            l2_hits: e.l2_hits,
            walks: e.walks,
            faults: e.faults,
            dirty_microops: e.dirty_microops,
            local_stall_cycles: e.stall_cycles,
            llc_stall_cycles: self.engine.memory().llc_stall_cycles(),
            ..self.stats
        }
    }

    /// Mutable access for the machine's quiesced shootdown path.
    pub(crate) fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }

    /// The L1 TLB statistics.
    pub fn l1_stats(&self) -> TlbStats {
        self.engine.hierarchy().l1.stats()
    }

    /// The L2 TLB statistics, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<TlbStats> {
        self.engine.hierarchy().l2.as_ref().map(|t| t.stats())
    }

    /// Replays `refs` events, initiating shootdowns on the configured
    /// cadence. Remote shootdown costs are published into `absorbed`
    /// (one counter per core per pricing model) — the only cross-core
    /// communication, and a commutative sum, so totals are
    /// interleaving-independent. When an epoch cadence is configured, a
    /// trailing partial epoch is closed before returning, so the eager
    /// and epoch-batched ledgers cover the same invalidations.
    pub(crate) fn run(&mut self, refs: u64, absorbed: &AbsorbedLedger) {
        for _ in 0..refs {
            // lint: allow(panic) — trace generators are infinite iterators
            let ev = self.generator.next().expect("generator is infinite");
            self.engine.access(&ev);
            let accesses = self.engine.accesses();
            if self.shootdown_interval > 0 && accesses.is_multiple_of(self.shootdown_interval) {
                self.initiate_shootdown(absorbed);
            }
            if self.epoch_interval > 0 && accesses.is_multiple_of(self.epoch_interval) {
                self.close_epoch(absorbed);
            }
        }
        if self.epoch_interval > 0 {
            self.close_epoch(absorbed);
        }
    }

    /// Migrates the page covering `vpn` to a new frame (flipping a high
    /// frame bit, which keeps alignment; the functional model only needs
    /// the frame to differ) and sweeps it from the local TLBs and MMU
    /// caches. Returns the old mapping, or `None` if `vpn` is unmapped.
    pub(crate) fn migrate(&mut self, vpn: Vpn) -> Option<Translation> {
        let pt = self.engine.page_table_mut();
        let t = pt.lookup(vpn)?;
        pt.remap(t.vpn, t.size, Pfn::new(t.pfn.raw() ^ (1 << 33)))
            // lint: allow(panic) — the mapping was just looked up on this core's table
            .expect("page was just looked up");
        self.engine.invalidate(t.vpn, t.size);
        Some(t)
    }

    /// Initiates one shootdown: deterministically pick a mapped page of
    /// this core's footprint, migrate it to a new frame, invalidate the
    /// local TLBs, and charge the machine-wide cost under the eager
    /// model. The invalidation is also appended to the open epoch, so
    /// the batched model prices the same event at the next epoch close.
    pub(crate) fn initiate_shootdown(&mut self, absorbed: &AbsorbedLedger) {
        self.shootdown_count += 1;
        // Weyl-style scramble: deterministic, spreads over the footprint.
        let idx = self
            .shootdown_count
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 11;
        let vpn = Vpn::new(self.region.raw() + idx % self.footprint_pages);
        let Some(t) = self.migrate(vpn) else { return };
        let code = t.size.encode() as usize;
        self.stats.shootdowns_initiated += 1;
        self.stats.sets_swept_local += self.sweep.by_size[code];
        self.stats.sets_swept_global += self.tables.global_sets_by_size[code];
        self.stats.shootdown_cycles_initiated += self.tables.initiated_cost_by_size[code];
        self.pending_invalidations[code] += 1;
        for remote in &self.tables.remotes {
            // lint: allow(relaxed-ordering) — commutative cost tally into
            // another core's absorbed counter. Nothing reads these during
            // replay; reports load them after `thread::scope` joins, which
            // already orders every increment. Only atomicity is needed,
            // and Relaxed keeps the hot replay loop free of fences.
            absorbed.eager[remote.core].fetch_add(remote.eager_cycles_by_size[code], Ordering::Relaxed);
        }
    }

    /// Closes the open invalidation epoch under the batched pricing
    /// model: one IPI round for every invalidation accumulated since the
    /// last close, each core's sweep capped at its full-flush ceiling
    /// ([`ShootdownModel::batched_sweep_sets`]). A close with nothing
    /// pending is free — no IPI round is sent, mirroring a kernel that
    /// skips quiescent epochs. Pure function of this core's own stream
    /// plus precomputed remote geometry, so serial/parallel determinism
    /// is preserved.
    pub(crate) fn close_epoch(&mut self, absorbed: &AbsorbedLedger) {
        if self.pending_invalidations == [0; 3] {
            return;
        }
        let model = self.tables.model;
        let own_pending: u64 = (0..3)
            .map(|code| self.pending_invalidations[code] * self.sweep.by_size[code])
            .sum();
        let own_swept = ShootdownModel::batched_sweep_sets(own_pending, self.tables.own_flush_sets);
        let mut global_swept = own_swept;
        let mut cost = model.initiator_cycles + own_swept * model.per_set_cycles;
        for remote in &self.tables.remotes {
            let pending_sets: u64 = (0..3)
                .map(|code| self.pending_invalidations[code] * remote.sweep_by_size[code])
                .sum();
            let swept = ShootdownModel::batched_sweep_sets(pending_sets, remote.flush_sets);
            let remote_cycles = model.remote_cost(swept);
            global_swept += swept;
            cost += remote_cycles;
            // lint: allow(relaxed-ordering) — same commutative tally as the
            // eager ledger above: written during replay, read only after
            // the join edge of `thread::scope` orders every increment.
            absorbed.epoch[remote.core].fetch_add(remote_cycles, Ordering::Relaxed);
        }
        self.stats.epochs_closed += 1;
        self.stats.shootdown_cycles_epoch += cost;
        self.stats.sets_swept_global_epoch += global_swept;
        self.pending_invalidations = [0; 3];
    }
}
