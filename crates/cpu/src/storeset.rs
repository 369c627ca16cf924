//! StoreSet memory-dependence predictor (Chrysos & Emer, ISCA '98).
//!
//! Table I lists StoreSet as the memory-dependence predictor. Loads that have
//! historically conflicted with a store are steered to wait for that store;
//! everything else speculates past unresolved stores, and a mis-speculation
//! (detected when the store's address resolves) trains the tables.
//!
//! Structure: the SSIT maps a PC to a store-set id; the LFST maps a store-set
//! id to the most recently dispatched in-flight store of that set.

use row_common::ids::Pc;
use row_common::persist::{Persist, PersistError, Reader, SparseTable, Writer};

const SSIT_BITS: usize = 10; // 1024 entries
const MAX_SETS: usize = 256;

/// StoreSet predictor state.
///
/// # Example
/// ```
/// use row_common::ids::Pc;
/// use row_cpu::storeset::StoreSets;
///
/// let mut ss = StoreSets::new();
/// let (ld, st) = (Pc::new(0x10), Pc::new(0x20));
/// assert!(ss.dependence_for_load(ld).is_none()); // untrained: speculate
/// ss.train_violation(ld, st);
/// ss.store_dispatched(st, 7);
/// assert_eq!(ss.dependence_for_load(ld), Some(7)); // now waits for store 7
/// ```
#[derive(Clone, Debug)]
pub struct StoreSets {
    ssit: SparseTable<Option<u16>>,
    lfst: SparseTable<Option<u64>>,
    next_set: u16,
}

impl StoreSets {
    /// Creates cleared tables.
    pub fn new() -> Self {
        StoreSets {
            ssit: SparseTable::new(1 << SSIT_BITS),
            lfst: SparseTable::new(MAX_SETS),
            next_set: 0,
        }
    }

    fn idx(pc: Pc) -> usize {
        ((pc.raw() >> 2) as usize ^ (pc.raw() >> (2 + SSIT_BITS as u64)) as usize)
            & ((1 << SSIT_BITS) - 1)
    }

    /// Records that the store at `pc` (instruction id `uid`) was dispatched;
    /// it becomes the last fetched store of its set, if it belongs to one.
    pub fn store_dispatched(&mut self, pc: Pc, uid: u64) {
        if let Some(set) = self.ssit[Self::idx(pc)] {
            self.lfst[set as usize] = Some(uid);
        }
    }

    /// The store `uid` a load at `pc` should wait for, if any.
    pub fn dependence_for_load(&self, pc: Pc) -> Option<u64> {
        let set = self.ssit[Self::idx(pc)]?;
        self.lfst[set as usize]
    }

    /// Clears the last-fetched-store entry when the store `uid` (at `pc`)
    /// completes or retires.
    pub fn store_completed(&mut self, pc: Pc, uid: u64) {
        if let Some(set) = self.ssit[Self::idx(pc)] {
            if self.lfst[set as usize] == Some(uid) {
                self.lfst[set as usize] = None;
            }
        }
    }

    /// Trains on a memory-order violation between the load at `load_pc` and
    /// the store at `store_pc`: both are placed in the same store set.
    pub fn train_violation(&mut self, load_pc: Pc, store_pc: Pc) {
        let li = Self::idx(load_pc);
        let si = Self::idx(store_pc);
        let set = match (self.ssit[li], self.ssit[si]) {
            (Some(a), Some(b)) => {
                // Merge: both adopt the smaller id (the paper's rule).
                let s = a.min(b);
                self.ssit[li] = Some(s);
                self.ssit[si] = Some(s);
                s
            }
            (Some(a), None) => {
                self.ssit[si] = Some(a);
                a
            }
            (None, Some(b)) => {
                self.ssit[li] = Some(b);
                b
            }
            (None, None) => {
                let s = self.next_set % MAX_SETS as u16;
                self.next_set = self.next_set.wrapping_add(1);
                self.ssit[li] = Some(s);
                self.ssit[si] = Some(s);
                s
            }
        };
        let _ = set;
    }
}

impl Default for StoreSets {
    fn default() -> Self {
        StoreSets::new()
    }
}

impl Persist for StoreSets {
    // Both tables sparse: only trained SSIT entries and in-flight stores.
    fn persist(&self, w: &mut Writer) {
        self.ssit.persist(w);
        self.lfst.persist(w);
        w.put_u16(self.next_set);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.ssit.restore(r)?;
        self.lfst.restore(r)?;
        self.next_set = r.get_u16()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_loads_speculate() {
        let ss = StoreSets::new();
        assert!(ss.dependence_for_load(Pc::new(0x44)).is_none());
    }

    #[test]
    fn violation_creates_dependence() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 42);
        assert_eq!(ss.dependence_for_load(ld), Some(42));
    }

    #[test]
    fn completion_clears_dependence() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 42);
        ss.store_completed(st, 42);
        assert!(ss.dependence_for_load(ld).is_none());
    }

    #[test]
    fn newer_store_of_same_set_supersedes() {
        let mut ss = StoreSets::new();
        let (ld, st) = (Pc::new(0x100), Pc::new(0x200));
        ss.train_violation(ld, st);
        ss.store_dispatched(st, 1);
        ss.store_dispatched(st, 2);
        assert_eq!(ss.dependence_for_load(ld), Some(2));
        // Completing the *old* incarnation must not clear the new one.
        ss.store_completed(st, 1);
        assert_eq!(ss.dependence_for_load(ld), Some(2));
    }

    #[test]
    fn sets_merge_on_shared_violations() {
        let mut ss = StoreSets::new();
        let (ld1, st1) = (Pc::new(0x10), Pc::new(0x20));
        let (ld2, st2) = (Pc::new(0x30), Pc::new(0x40));
        ss.train_violation(ld1, st1);
        ss.train_violation(ld2, st2);
        // ld1 also violates st2: the sets merge.
        ss.train_violation(ld1, st2);
        ss.store_dispatched(st2, 9);
        assert_eq!(ss.dependence_for_load(ld1), Some(9));
    }

    #[test]
    fn unrelated_pcs_stay_independent() {
        let mut ss = StoreSets::new();
        ss.train_violation(Pc::new(0x10), Pc::new(0x20));
        ss.store_dispatched(Pc::new(0x20), 1);
        assert!(ss.dependence_for_load(Pc::new(0x5000)).is_none());
    }
}
