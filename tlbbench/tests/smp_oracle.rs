//! The SMP address check passes on the workload's designs and catches a
//! TLB that keeps a page after its shootdown.

#![forbid(unsafe_code)]

use mixtlb_core::{CoalescedRun, Lookup, TlbDevice, TlbStats};
use mixtlb_sim::{designs, TlbHierarchy};
use mixtlb_smp::MultiProgrammedScenario;
use mixtlb_types::{AccessKind, Asid, PageSize, Translation, Vpn};
use tlbbench::workloads::{self, Workload, SMP_REFS};

fn scenario() -> MultiProgrammedScenario {
    MultiProgrammedScenario::prepare(&["gups", "memcached"], &workloads::smp_config(42))
}

/// Forwards everything the SMP core calls, except that invalidations are
/// dropped: a sweep that misses the page.
struct Forgetful(Box<dyn TlbDevice>);

impl TlbDevice for Forgetful {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn lookup(&mut self, vpn: Vpn, kind: AccessKind) -> Lookup {
        self.0.lookup(vpn, kind)
    }

    fn lookup_asid(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, pc: u64) -> Lookup {
        self.0.lookup_asid(asid, vpn, kind, pc)
    }

    fn fill(&mut self, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        self.0.fill(vpn, requested, line);
    }

    fn fill_asid(&mut self, asid: Asid, vpn: Vpn, requested: &Translation, line: &[Translation]) {
        self.0.fill_asid(asid, vpn, requested, line);
    }

    fn invalidate(&mut self, _vpn: Vpn, _size: PageSize) {}

    fn invalidate_asid(&mut self, _asid: Asid, _vpn: Vpn, _size: PageSize) {}

    fn peek_run(&self, vpn: Vpn) -> Option<CoalescedRun> {
        self.0.peek_run(vpn)
    }

    fn flush(&mut self) {
        self.0.flush();
    }

    fn supports_asids(&self) -> bool {
        self.0.supports_asids()
    }

    fn invalidate_sets(&self, vpn: Vpn, size: PageSize) -> u64 {
        self.0.invalidate_sets(vpn, size)
    }

    fn flush_sets(&self) -> u64 {
        self.0.flush_sets()
    }

    fn capacity(&self) -> usize {
        self.0.capacity()
    }

    fn stats(&self) -> TlbStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
}

fn forgetful_split() -> TlbHierarchy {
    let h = designs::haswell_split();
    let name = h.name().to_owned();
    let entries = h.total_entries();
    let TlbHierarchy { l1, l2, .. } = h;
    let l1: Box<dyn TlbDevice> = Box::new(Forgetful(l1));
    let l2 = l2.map(|l2| Box::new(Forgetful(l2)) as Box<dyn TlbDevice>);
    TlbHierarchy::new(&name, l1, l2).with_entries(entries)
}

#[test]
fn every_smp_address_matches_the_page_table() {
    let scenario = scenario();
    let cores = scenario.core_count() as u64;
    for (design, factory) in Workload::SmpShootdown.designs() {
        let (accesses, wrong) = workloads::check_smp_pas(&scenario, factory).unwrap();
        assert_eq!(accesses, cores * SMP_REFS, "{design}");
        assert_eq!(wrong, 0, "{design}");
    }
}

#[test]
fn a_sweep_that_misses_the_page_gives_wrong_addresses() {
    let (_, wrong) = workloads::check_smp_pas(&scenario(), forgetful_split).unwrap();
    assert!(wrong > 0, "stale entries must read as wrong addresses");
}
