//! The correctness reference, which holds by construction: a physical
//! address does not depend on the TLB design, so every design's output
//! must equal the page table's own answer, `PageTable::lookup(vpn)`
//! followed by `Translation::translate(va)`, for every event.

use mixtlb_pagetable::PageTable;
use mixtlb_sim::EngineStats;
use mixtlb_trace::TraceEvent;
use mixtlb_types::{AccessKind, PhysAddr};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one event in: its PC, VA and access kind.
    pub fn event(&mut self, ev: &TraceEvent) {
        self.word(ev.pc);
        self.word(ev.va.raw());
        self.word(match ev.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::Fetch => 2,
        });
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a PA stream (`None`, a fault, mixes in as all-ones).
pub fn pa_digest(pas: impl IntoIterator<Item = Option<PhysAddr>>) -> u64 {
    let mut d = Digest::default();
    for pa in pas {
        d.word(pa.map_or(u64::MAX, PhysAddr::raw));
    }
    d.value()
}

/// Digest of an event stream.
pub fn event_digest(events: &[TraceEvent]) -> u64 {
    let mut d = Digest::default();
    for ev in events {
        d.event(ev);
    }
    d.value()
}

/// The page table's own translation of every event. Errors when an event
/// is unmapped: such a workload would fault by construction and could not
/// serve as a reference.
pub fn reference_pas(pt: &PageTable, events: &[TraceEvent]) -> Result<Vec<PhysAddr>, String> {
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            pt.lookup(ev.va.vpn())
                .and_then(|t| t.translate(ev.va).ok())
                .ok_or_else(|| format!("event {i} at {:#x} is unmapped", ev.va.raw()))
        })
        .collect()
}

/// Translations whose PA differs from the reference (a fault counts as a
/// difference), plus one per missing or extra output.
pub fn mismatches(out: &[Option<PhysAddr>], reference: &[PhysAddr]) -> u64 {
    let differ = out
        .iter()
        .zip(reference)
        .filter(|(got, want)| **got != Some(**want))
        .count();
    (differ + out.len().abs_diff(reference.len())) as u64
}

/// The engine's conservation laws: every access was served by exactly
/// one of L1, L2 or a walk, none faulted, and the count matches the
/// events replayed. Returns the broken laws.
pub fn engine_laws(stats: &EngineStats, events: u64) -> Vec<String> {
    let mut broken = Vec::new();
    if stats.faults != 0 {
        broken.push(format!("{} faults", stats.faults));
    }
    if stats.accesses != stats.l1_hits + stats.l2_hits + stats.walks {
        broken.push(format!(
            "accesses {} != l1 {} + l2 {} + walks {}",
            stats.accesses, stats.l1_hits, stats.l2_hits, stats.walks
        ));
    }
    if stats.accesses != events {
        broken.push(format!("{} accesses for {events} events", stats.accesses));
    }
    broken
}
