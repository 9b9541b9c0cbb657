//! Seeded hot-path bugs: container construction inside a fill helper
//! reachable from the `lookup_batch` hot root. Expected findings, all in
//! `mirror_sets`:
//!   1. `BTreeSet::new` builds an ordered set per fill.
//!   2. `.collect::<Vec<_>>()` materializes the set (turbofish form).
//!   3. `HashMap::new` builds a per-fill index.
//!   4. `.collect()` rebuilds a vector from a range.
//! `Vec::with_capacity` in `lookup_batch` is not flagged: pre-sized
//! buffers are outside this rule.

use std::collections::{BTreeSet, HashMap};

pub struct Tlb {
    sets: usize,
}

impl Tlb {
    fn lookup_batch(&mut self, vpns: &[u64]) -> Vec<usize> {
        let mut out = Vec::with_capacity(vpns.len());
        for &vpn in vpns {
            out.extend(self.mirror_sets(vpn));
        }
        out
    }

    fn mirror_sets(&self, vpn: u64) -> Vec<usize> {
        let mut sets = BTreeSet::new();
        sets.insert(vpn as usize % self.sets);
        let ordered = sets.into_iter().collect::<Vec<_>>();
        let mut index: HashMap<usize, usize> = HashMap::new();
        index.insert(0, ordered.len());
        (0..index.len()).collect()
    }
}
