//! Generic set-associative storage with per-set true-LRU replacement,
//! shared by every TLB design in the workspace.
//!
//! Layout is structure-of-arrays: entries, tag keys, LRU stamps, and a
//! per-set validity bitmask live in four dense direct-indexed planes. The
//! bitmask is the probe fast path — `occupied` hands a whole set's
//! occupancy to the caller as one `u64` mask, so hot loops iterate set bits
//! instead of testing `Option`s way by way, and an empty or singleton
//! set is recognized without touching the entry plane at all. The key
//! plane is the tag-compare fast path: one `u64` per slot (a whole 8-way
//! set in one cache line), so a probe compares keys and reads an entry
//! only on a key match.

/// An entry's tag key for the dense key plane: a `u64` derived from the
/// fields probes compare. Equal tags must give equal keys; unequal tags
/// may collide, because every key match is confirmed against the entry.
pub(crate) trait SlotKey {
    /// The entry's key.
    fn key(&self) -> u64;
}

/// A set of way indices as a bitmask, yielded in ascending order.
/// Returned by [`SetStorage::find_all`]; being `Copy` and detached from
/// the storage, it stays valid across entry removal and insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WayMask(u64);

impl Iterator for WayMask {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayMask {}

/// Set-associative slots of entries `E` with tag keys, LRU stamps and a
/// validity bitmask plane (one `u64` per set, hence at most 64 ways).
#[derive(Debug, Clone)]
pub(crate) struct SetStorage<E> {
    ways: usize,
    slots: Vec<Option<E>>,
    /// `E::key` of each slot's entry, written on every insert. Stale for
    /// invalid ways: every reader masks with `valid`.
    keys: Vec<u64>,
    stamps: Vec<u64>,
    valid: Vec<u64>,
    tick: u64,
}

impl<E: SlotKey> SetStorage<E> {
    pub(crate) fn new(sets: usize, ways: usize) -> SetStorage<E> {
        assert!(sets > 0 && ways > 0, "TLB geometry must be non-zero");
        assert!(ways <= 64, "validity bitmask plane holds at most 64 ways");
        let slots = sets * ways;
        SetStorage {
            ways,
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            keys: vec![0; slots],
            stamps: vec![0; slots],
            valid: vec![0; sets],
            tick: 0,
        }
    }

    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Bitmask with one bit set per way this set could hold.
    fn ways_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// The occupied ways of `set`, ascending, as a detached mask.
    pub(crate) fn occupied(&self, set: usize) -> WayMask {
        WayMask(self.valid[set])
    }

    /// The occupied ways of `set` whose key satisfies `accept`, ascending.
    /// Reads only the key plane: one cache line for an 8-way set.
    pub(crate) fn keyed(&self, set: usize, mut accept: impl FnMut(u64) -> bool) -> WayMask {
        let base = set * self.ways;
        let mut mask = 0u64;
        for (w, &k) in self.keys[base..base + self.ways].iter().enumerate() {
            mask |= u64::from(accept(k)) << w;
        }
        WayMask(mask & self.valid[set])
    }

    /// The lowest invalid way of `set`, if any — straight off the bitmask.
    pub(crate) fn free_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & self.ways_mask();
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// Immutable view of a way's slot.
    pub(crate) fn get(&self, set: usize, way: usize) -> Option<&E> {
        self.slots[set * self.ways + way].as_ref()
    }

    /// Mutable view of a way's slot. Callers must not change the fields
    /// the entry's key is derived from: the key plane is written only on
    /// insert.
    pub(crate) fn get_mut(&mut self, set: usize, way: usize) -> Option<&mut E> {
        self.slots[set * self.ways + way].as_mut()
    }

    /// Marks a way most-recently-used.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamps[set * self.ways + way] = self.tick;
    }

    /// Index of the first way in `set` whose key is `key` and whose entry
    /// satisfies `pred`.
    pub(crate) fn find(
        &self,
        set: usize,
        key: u64,
        mut pred: impl FnMut(&E) -> bool,
    ) -> Option<usize> {
        // Early exit on the first confirmed match: probes of small sets
        // usually hit at a low way.
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.keys[base + w] == key && self.get(set, w).is_some_and(&mut pred) {
                return Some(w);
            }
        }
        None
    }

    /// All ways in `set` whose key is `key` and whose entries satisfy
    /// `pred`, as a detached way bitmask. The mask is `Copy`, so callers
    /// may mutate the storage (remove, re-insert) while iterating — and
    /// nothing is allocated, which keeps invalidation sweeps off the heap.
    pub(crate) fn find_all(
        &self,
        set: usize,
        key: u64,
        mut pred: impl FnMut(&E) -> bool,
    ) -> WayMask {
        let mut out = 0u64;
        for w in self.keyed(set, |k| k == key) {
            if self.get(set, w).is_some_and(&mut pred) {
                out |= 1u64 << w;
            }
        }
        WayMask(out)
    }

    /// Inserts into an empty way, or evicts the LRU way, marking the new
    /// entry most-recently-used. Returns the displaced entry, if any.
    pub(crate) fn insert_lru(&mut self, set: usize, entry: E) -> Option<E> {
        self.insert_with_priority(set, entry, true)
    }

    /// Inserts into an empty way, or evicts the LRU way. With `mru =
    /// false` the new entry lands at the LRU position (LIP-style): it is
    /// the next eviction candidate until a lookup touches it. Mirrored
    /// fill copies in non-probed sets use this so a burst of mirrors
    /// cannot displace entries that lookups are actually using.
    pub(crate) fn insert_with_priority(&mut self, set: usize, entry: E, mru: bool) -> Option<E> {
        self.tick += 1;
        let base = set * self.ways;
        let way = match self.free_way(set) {
            Some(way) => way,
            None => (0..self.ways)
                .min_by_key(|&w| self.stamps[base + w])
                // lint: allow(panic) — ways >= 1 by construction, the min always exists
                .expect("at least one way"),
        };
        self.keys[base + way] = entry.key();
        let evicted = self.slots[base + way].replace(entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[base + way] = if mru { self.tick } else { 0 };
        evicted
    }

    /// Writes an entry into a specific way (assumed invalid or
    /// replaceable), marking it least-recently-used so a lookup must touch
    /// it before it outranks anything.
    pub(crate) fn insert_at(&mut self, set: usize, way: usize, entry: E) {
        self.keys[set * self.ways + way] = entry.key();
        self.slots[set * self.ways + way] = Some(entry);
        self.valid[set] |= 1u64 << way;
        self.stamps[set * self.ways + way] = 0;
    }

    /// Removes and returns the entry in a way.
    pub(crate) fn remove(&mut self, set: usize, way: usize) -> Option<E> {
        self.stamps[set * self.ways + way] = 0;
        self.valid[set] &= !(1u64 << way);
        self.slots[set * self.ways + way].take()
    }

    /// Clears every slot.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.stamps.fill(0);
        self.valid.fill(0);
        self.tick = 0;
    }

    /// Number of valid entries.
    pub(crate) fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SlotKey for u32 {
        fn key(&self) -> u64 {
            u64::from(*self)
        }
    }

    #[test]
    fn insert_prefers_empty_ways() {
        let mut s: SetStorage<u32> = SetStorage::new(2, 2);
        assert_eq!(s.insert_lru(0, 10), None);
        assert_eq!(s.insert_lru(0, 11), None);
        assert_eq!(s.occupancy(), 2);
        // Set full now: LRU (10) evicted.
        assert_eq!(s.insert_lru(0, 12), Some(10));
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 2);
        s.insert_lru(0, 1);
        s.insert_lru(0, 2);
        let w1 = s.find(0, 1, |_| true).unwrap();
        s.touch(0, w1);
        assert_eq!(s.insert_lru(0, 3), Some(2));
    }

    #[test]
    fn find_and_remove() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 4);
        s.insert_lru(0, 5);
        s.insert_lru(0, 6);
        s.insert_lru(0, 5);
        assert_eq!(s.find_all(0, 5, |_| true).len(), 2);
        assert_eq!(s.find_all(0, 5, |_| true).collect::<Vec<_>>(), [0, 2]);
        let w = s.find(0, 6, |_| true).unwrap();
        assert_eq!(s.remove(0, w), Some(6));
        assert_eq!(s.find(0, 6, |_| true), None);
        assert_eq!(s.occupancy(), 2);
    }

    #[test]
    fn key_match_is_confirmed_by_the_predicate() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 4);
        s.insert_lru(0, 7);
        s.insert_lru(0, 7);
        // Same key in both ways; the predicate decides.
        assert_eq!(s.find(0, 7, |&e| e == 8), None);
        let mut n = 0;
        let second = |_: &u32| {
            n += 1;
            n == 2
        };
        assert_eq!(s.find_all(0, 7, second).collect::<Vec<_>>(), [1]);
        // A key nobody holds never consults the entries at all.
        assert_eq!(s.find(0, 9, |_| panic!("no entry has key 9")), None);
    }

    #[test]
    fn removed_ways_leave_stale_keys_masked() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 2);
        s.insert_lru(0, 3);
        s.remove(0, 0);
        assert_eq!(s.keyed(0, |k| k == 3).len(), 0);
        assert_eq!(s.free_way(0), Some(0));
        s.insert_at(0, 1, 4);
        assert_eq!(s.keyed(0, |k| k == 4).collect::<Vec<_>>(), [1]);
        assert_eq!(s.occupied(0).collect::<Vec<_>>(), [1]);
        s.insert_at(0, 0, 4);
        assert_eq!(s.free_way(0), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut s: SetStorage<u32> = SetStorage::new(2, 2);
        s.insert_lru(0, 1);
        s.insert_lru(1, 2);
        s.clear();
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.occupied(0).0, 0);
        assert_eq!(s.occupied(1).0, 0);
        assert_eq!(s.keyed(1, |k| k == 2).len(), 0);
    }

    #[test]
    fn validity_mask_tracks_mutations() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 4);
        assert_eq!(s.occupied(0).0, 0b0000);
        s.insert_lru(0, 1);
        s.insert_lru(0, 2);
        assert_eq!(s.occupied(0).0, 0b0011);
        assert_eq!(s.occupied(0).len(), 2);
        s.insert_at(0, 3, 9);
        assert_eq!(s.occupied(0).0, 0b1011);
        s.remove(0, 0);
        assert_eq!(s.occupied(0).0, 0b1010);
        assert_eq!(s.occupied(0).len(), 2);
    }

    #[test]
    fn full_64_way_set_works() {
        let mut s: SetStorage<u32> = SetStorage::new(1, 64);
        for i in 0..64 {
            assert_eq!(s.insert_lru(0, i), None);
        }
        assert_eq!(s.occupied(0).0, u64::MAX);
        assert_eq!(s.keyed(0, |k| k == 63).collect::<Vec<_>>(), [63]);
        // 65th insert evicts the LRU (the first inserted).
        assert_eq!(s.insert_lru(0, 64), Some(0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _: SetStorage<u32> = SetStorage::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn over_wide_geometry_panics() {
        let _: SetStorage<u32> = SetStorage::new(1, 65);
    }
}
