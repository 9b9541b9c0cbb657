//! A transparent timing [`TlbDevice`] wrapper: every trait method is
//! forwarded to the wrapped device unchanged, and the calls into the
//! device are timed from outside with [`Instant`].
//!
//! Counters are plain owned fields on the wrapper (no atomics on the hot
//! path). When the wrapper is dropped — with the engine or SMP machine
//! that owns it — it hands its spans to a sink local to the dropping
//! thread, which the traced run drains after each replay. That is the
//! only way to get the numbers back out of an [`mixtlb_smp::SmpMachine`],
//! whose cores are built from a plain `fn() -> TlbHierarchy` factory.
//! Every replay the benchmark traces runs and drops on its own thread.

use std::cell::RefCell;
use std::time::Instant;

use mixtlb_core::{BatchAccess, CoalescedRun, Lookup, TlbDevice, TlbStats};
use mixtlb_sim::TlbHierarchy;
use mixtlb_types::{AccessKind, Asid, PageSize, Translation, Vpn};

use crate::workloads::elapsed_ns;

/// Which level of the hierarchy a wrapper sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The L1 TLB.
    L1,
    /// The L2 TLB.
    L2,
}

/// Time and counts one wrapped device accumulated over its lifetime.
/// Times are raw host nanoseconds including the timer's own cost; the
/// traced run subtracts [`timer_overhead_ns`] per span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceSpans {
    /// Lookup calls (a batched lookup counts as one span).
    pub lookup_spans: u64,
    /// Accesses probed across all lookup calls.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Nanoseconds inside lookup calls.
    pub lookup_ns: u64,
    /// Fill calls.
    pub fills: u64,
    /// Nanoseconds inside fill calls.
    pub fill_ns: u64,
    /// Invalidate calls.
    pub invalidates: u64,
    /// Nanoseconds inside invalidate calls.
    pub invalidate_ns: u64,
    /// Flush calls.
    pub flushes: u64,
    /// Nanoseconds inside flush calls.
    pub flush_ns: u64,
}

impl DeviceSpans {
    /// Every timed call, for timer-overhead correction.
    pub fn spans(&self) -> u64 {
        self.lookup_spans + self.fills + self.invalidates + self.flushes
    }

    /// Adds another device's spans into this one.
    pub fn merge(&mut self, other: &DeviceSpans) {
        self.lookup_spans += other.lookup_spans;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.lookup_ns += other.lookup_ns;
        self.fills += other.fills;
        self.fill_ns += other.fill_ns;
        self.invalidates += other.invalidates;
        self.invalidate_ns += other.invalidate_ns;
        self.flushes += other.flushes;
        self.flush_ns += other.flush_ns;
    }
}

/// What one dropped wrapper reports: where it sat, its spans, and — for
/// a capturing L2 — the pages whose lookups missed (each became a walk).
#[derive(Debug, Clone)]
pub struct DeviceRecord {
    /// Hierarchy level.
    pub level: Level,
    /// The design the device belongs to (`TlbHierarchy::name`).
    pub design: String,
    /// Accumulated spans.
    pub spans: DeviceSpans,
    /// Missed pages in lookup order (L2 only).
    pub misses: Vec<(Vpn, AccessKind)>,
}

thread_local! {
    static SINK: RefCell<Vec<DeviceRecord>> = const { RefCell::new(Vec::new()) };
}

/// Takes every record the wrappers dropped on this thread since the last
/// drain.
pub fn drain() -> Vec<DeviceRecord> {
    SINK.with(|sink| std::mem::take(&mut *sink.borrow_mut()))
}

/// The transparent timing wrapper.
pub struct Timed {
    inner: Box<dyn TlbDevice>,
    level: Level,
    design: String,
    spans: DeviceSpans,
    misses: Vec<(Vpn, AccessKind)>,
}

impl Timed {
    /// Wraps `inner`. At the L2, every missed lookup's page is kept (each
    /// became a walk, which the traced run replays in isolation).
    pub fn new(inner: Box<dyn TlbDevice>, level: Level, design: &str) -> Timed {
        Timed {
            inner,
            level,
            design: design.to_owned(),
            spans: DeviceSpans::default(),
            misses: Vec::new(),
        }
    }

    fn note_lookup(&mut self, start: Instant, vpn: Vpn, kind: AccessKind, result: &Lookup) {
        self.spans.lookup_ns += elapsed_ns(start);
        self.spans.lookup_spans += 1;
        self.spans.lookups += 1;
        if result.is_hit() {
            self.spans.hits += 1;
        } else if self.level == Level::L2 {
            self.misses.push((vpn, kind));
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let record = DeviceRecord {
            level: self.level,
            design: std::mem::take(&mut self.design),
            spans: std::mem::take(&mut self.spans),
            misses: std::mem::take(&mut self.misses),
        };
        // Drop must not panic: during thread teardown the sink may be
        // gone already, and the record is dropped with it.
        let _ = SINK.try_with(|sink| {
            if let Ok(mut sink) = sink.try_borrow_mut() {
                sink.push(record);
            }
        });
    }
}

impl TlbDevice for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        let start = Instant::now();
        let result = self.inner.lookup(vpn, kind);
        self.note_lookup(start, vpn, kind, &result);
        result
    }

    fn lookup_pc(&mut self, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        let start = Instant::now();
        let result = self.inner.lookup_pc(vpn, kind, pc);
        self.note_lookup(start, vpn, kind, &result);
        result
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let start = Instant::now();
        self.inner.fill(vpn, requested, line);
        self.spans.fill_ns += elapsed_ns(start);
        self.spans.fills += 1;
    }

    fn invalidate(&mut self, vpn: Vpn, size: PageSize) {
        let start = Instant::now();
        self.inner.invalidate(vpn, size);
        self.spans.invalidate_ns += elapsed_ns(start);
        self.spans.invalidates += 1;
    }

    fn peek_run(&self, vpn: Vpn) -> Option<CoalescedRun> {
        self.inner.peek_run(vpn)
    }

    fn flush(&mut self) {
        let start = Instant::now();
        self.inner.flush();
        self.spans.flush_ns += elapsed_ns(start);
        self.spans.flushes += 1;
    }

    fn lookup_asid(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        let start = Instant::now();
        let result = self.inner.lookup_asid(asid, vpn, kind, pc);
        self.note_lookup(start, vpn, kind, &result);
        result
    }

    fn fill_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        let start = Instant::now();
        self.inner.fill_asid(asid, vpn, requested, line);
        self.spans.fill_ns += elapsed_ns(start);
        self.spans.fills += 1;
    }

    fn invalidate_asid(&mut self, asid: Asid, vpn: Vpn, size: PageSize) {
        let start = Instant::now();
        self.inner.invalidate_asid(asid, vpn, size);
        self.spans.invalidate_ns += elapsed_ns(start);
        self.spans.invalidates += 1;
    }

    fn flush_asid(&mut self, asid: Asid) {
        let start = Instant::now();
        self.inner.flush_asid(asid);
        self.spans.flush_ns += elapsed_ns(start);
        self.spans.flushes += 1;
    }

    fn supports_asids(&self) -> bool {
        self.inner.supports_asids()
    }

    fn lookup_batch(&mut self, asid: Asid, batch: &[BatchAccess], out: &mut Vec<Lookup>) -> usize {
        let first = out.len();
        let start = Instant::now();
        let consumed = self.inner.lookup_batch(asid, batch, out);
        self.spans.lookup_ns += elapsed_ns(start);
        self.spans.lookup_spans += 1;
        self.spans.lookups += consumed as u64;
        for (access, result) in batch.iter().zip(&out[first..]) {
            if result.is_hit() {
                self.spans.hits += 1;
            } else if self.level == Level::L2 {
                self.misses.push((access.vpn, access.kind));
            }
        }
        consumed
    }

    fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
        self.inner.invalidate_sets(vpn, size)
    }

    fn flush_sets(&self) -> u64 {
        self.inner.flush_sets()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn stats(&self) -> TlbStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// Rebuilds `hierarchy` with both levels wrapped, through the public
/// [`TlbHierarchy::new`] / [`TlbHierarchy::with_entries`] and the public
/// `l1`/`l2` fields. The L2 wrapper captures missed pages.
pub fn wrap(hierarchy: TlbHierarchy) -> TlbHierarchy {
    let name = hierarchy.name().to_owned();
    let entries = hierarchy.total_entries();
    let TlbHierarchy { l1, l2, .. } = hierarchy;
    let l1: Box<dyn TlbDevice> = Box::new(Timed::new(l1, Level::L1, &name));
    let l2 = l2.map(|l2| Box::new(Timed::new(l2, Level::L2, &name)) as Box<dyn TlbDevice>);
    TlbHierarchy::new(&name, l1, l2).with_entries(entries)
}

/// Median cost in nanoseconds of one `Instant::now()` + `elapsed()` pair
/// with nothing between — what each span over-reports.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            elapsed_ns(start)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}
