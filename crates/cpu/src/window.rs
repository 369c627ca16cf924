//! The core's in-flight window: the ROB's uids and entries, the ready set
//! and the load queue, all indexed by position in program order.
//!
//! Two rules of the pipeline let a ring stand in for maps keyed by uid or
//! by order:
//!
//! * **Uids rise from head to tail.** Dispatch hands out uids in rising
//!   order, commit removes the head and a squash removes a suffix. A
//!   squashed instruction is dispatched again under a new uid, so the uids
//!   may have gaps: the entry of uid `u` sits at most `u - head uid` after
//!   the head, and exactly there unless a squash left a gap before it.
//! * **Program orders are contiguous.** A squash puts the suffix it removes
//!   back at the front of the replay queue, which dispatch drains before
//!   the stream. So the entry of order `o` sits at index `o - head order`.
//!
//! [`Window::push_back`] refuses an entry that would break either rule, and
//! a restore refuses an image whose window breaks them.
//!
//! Images keep the layout of the maps this type replaced: the ROB's uids,
//! then `(uid, entry)` by ascending uid (a `FastMap`'s sorted layout), and
//! the ready set and the load queue each as `(order, uid)` by ascending
//! order (a `BTreeMap`'s).

use std::collections::VecDeque;

use row_common::bitset::IndexSet;
use row_common::persist::{Codec, PersistError, Reader, Writer};
use row_common::Cycle;

use crate::instr::{Instr, Op};

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub(crate) struct RobEntry {
    pub(crate) order: u64,
    pub(crate) instr: Instr,
    pub(crate) pending_deps: u32,
    pub(crate) in_iq: bool,
    pub(crate) issued_at: Option<Cycle>,
    pub(crate) completed_at: Option<Cycle>,
    /// For loads: which store forwarded to it (uid, order).
    pub(crate) forwarded_from: Option<(u64, u64)>,
}

impl RobEntry {
    /// Whether the entry holds a load-queue slot: loads and atomics do.
    fn in_lq(&self) -> bool {
        matches!(self.instr.op, Op::Load { .. } | Op::Atomic { .. })
    }
}

row_common::codec_struct!(RobEntry {
    order,
    instr,
    pending_deps,
    in_iq,
    issued_at,
    completed_at,
    forwarded_from,
});

/// The in-flight instructions of one core, head (oldest) first.
pub(crate) struct Window {
    /// The entries' uids, rising.
    uids: VecDeque<u64>,
    /// The entries, parallel to `uids`.
    entries: VecDeque<RobEntry>,
    /// The entries whose operands are ready and that have not issued, one
    /// bit per `order & mask`. The window holds at most `mask + 1`
    /// consecutive orders, so no two entries share a bit.
    ready: IndexSet,
    /// The number of bits set in `ready`.
    ready_len: usize,
    mask: u64,
    /// The most entries the window may hold (the ROB's size).
    capacity: usize,
    /// The loads and atomics, `(order, uid)`, oldest first.
    lq: VecDeque<(u64, u64)>,
}

impl Window {
    /// An empty window for a ROB of `capacity` entries. Only the ready
    /// set's bits are allocated here; the deques grow as entries arrive.
    pub(crate) fn new(capacity: usize) -> Self {
        let slots = capacity.next_power_of_two();
        Window {
            uids: VecDeque::new(),
            entries: VecDeque::new(),
            ready: IndexSet::new(slots),
            ready_len: 0,
            mask: slots as u64 - 1,
            capacity,
            lq: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.uids.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }

    /// The head's uid and entry.
    pub(crate) fn head(&self) -> Option<(u64, &RobEntry)> {
        Some((*self.uids.front()?, self.entries.front()?))
    }

    /// The entries, head first, with their uids.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &RobEntry)> + '_ {
        self.uids.iter().copied().zip(&self.entries)
    }

    /// The entries, head first.
    pub(crate) fn entries(&self) -> &VecDeque<RobEntry> {
        &self.entries
    }

    /// The index of entry `uid`, or `None` when no live entry has it. It
    /// probes `uid - head uid`, exact unless a squash left a gap before
    /// `uid`, and searches only when that misses.
    pub(crate) fn index_of(&self, uid: u64) -> Option<usize> {
        let (&head, &tail) = (self.uids.front()?, self.uids.back()?);
        if uid < head || uid > tail {
            return None;
        }
        let guess = (uid - head) as usize;
        if self.uids.get(guess) == Some(&uid) {
            return Some(guess);
        }
        self.uids.binary_search(&uid).ok()
    }

    /// Whether `uid` names a live entry.
    pub(crate) fn contains(&self, uid: u64) -> bool {
        self.index_of(uid).is_some()
    }

    pub(crate) fn get(&self, uid: u64) -> Option<&RobEntry> {
        self.index_of(uid).map(|i| &self.entries[i])
    }

    pub(crate) fn get_mut(&mut self, uid: u64) -> Option<&mut RobEntry> {
        self.index_of(uid).map(|i| &mut self.entries[i])
    }

    /// The index of program order `order`, which must be in the window.
    fn index_of_order(&self, order: u64) -> usize {
        let head = self.entries.front().expect("a live order").order;
        (order - head) as usize
    }

    /// The uid and entry of program order `order`, which must be in the
    /// window.
    pub(crate) fn by_order(&self, order: u64) -> (u64, &RobEntry) {
        let i = self.index_of_order(order);
        (self.uids[i], &self.entries[i])
    }

    /// [`Window::by_order`], mutably.
    pub(crate) fn by_order_mut(&mut self, order: u64) -> (u64, &mut RobEntry) {
        let i = self.index_of_order(order);
        (self.uids[i], &mut self.entries[i])
    }

    /// Appends entry `uid` at the tail, and to the load queue if it is a
    /// load or an atomic.
    ///
    /// # Panics
    /// Panics if the window is full, if `uid` does not rise above the
    /// tail's, or if the entry's order does not follow the tail's.
    pub(crate) fn push_back(&mut self, uid: u64, e: RobEntry) {
        assert!(self.len() < self.capacity, "the window is full");
        if let (Some(&t), Some(te)) = (self.uids.back(), self.entries.back()) {
            assert!(t < uid, "window uids must rise");
            assert_eq!(te.order + 1, e.order, "window orders must be contiguous");
        }
        if e.in_lq() {
            self.lq.push_back((e.order, uid));
        }
        self.uids.push_back(uid);
        self.entries.push_back(e);
    }

    /// Removes the head (at commit), with its load-queue slot and ready
    /// bit.
    pub(crate) fn pop_front(&mut self) -> Option<(u64, RobEntry)> {
        let uid = self.uids.pop_front()?;
        let e = self.entries.pop_front().expect("parallel to the uids");
        self.clear_ready(e.order);
        if e.in_lq() {
            let slot = self.lq.pop_front();
            debug_assert_eq!(slot, Some((e.order, uid)), "load queue out of step");
        }
        Some((uid, e))
    }

    /// Removes the tail if its order is at least `order`, with its
    /// load-queue slot and ready bit. A squash from `order` repeats this
    /// until it returns `None`.
    pub(crate) fn pop_back_from(&mut self, order: u64) -> Option<(u64, RobEntry)> {
        if self.entries.back()?.order < order {
            return None;
        }
        let uid = self.uids.pop_back().expect("parallel to the entries");
        let e = self.entries.pop_back().expect("present");
        self.clear_ready(e.order);
        if e.in_lq() {
            let slot = self.lq.pop_back();
            debug_assert_eq!(slot, Some((e.order, uid)), "load queue out of step");
        }
        Some((uid, e))
    }

    // ------------------------------------------------------------------
    // The ready set
    // ------------------------------------------------------------------

    /// Marks the entry of `order` ready to issue.
    pub(crate) fn set_ready(&mut self, order: u64) {
        let slot = (order & self.mask) as usize;
        if !self.ready.contains(slot) {
            self.ready.insert(slot);
            self.ready_len += 1;
        }
    }

    /// Unmarks the entry of `order` (it issued, or it left the window).
    pub(crate) fn clear_ready(&mut self, order: u64) {
        let slot = (order & self.mask) as usize;
        if self.ready.contains(slot) {
            self.ready.remove(slot);
            self.ready_len -= 1;
        }
    }

    /// Whether no entry is ready to issue.
    pub(crate) fn nothing_ready(&self) -> bool {
        self.ready_len == 0
    }

    /// The orders of the ready entries, ascending: the ring's bits from the
    /// head's slot to its end, then from its start up to the head's slot.
    pub(crate) fn ready_orders(&self) -> impl Iterator<Item = u64> + '_ {
        let head = self.entries.front().map_or(0, |e| e.order);
        let start = (head & self.mask) as usize;
        let mut next = self.ready.next_from(start);
        let mut wrapped = false;
        std::iter::from_fn(move || {
            let slot = loop {
                match next {
                    Some(s) if !wrapped || s < start => break s,
                    None if !wrapped => {
                        wrapped = true;
                        next = self.ready.next_from(0);
                    }
                    _ => return None,
                }
            };
            next = self.ready.next_from(slot + 1);
            Some(head + ((slot as u64).wrapping_sub(start as u64) & self.mask))
        })
    }

    // ------------------------------------------------------------------
    // The load queue
    // ------------------------------------------------------------------

    /// Occupied load-queue slots.
    pub(crate) fn lq_len(&self) -> usize {
        self.lq.len()
    }

    /// The order of the oldest load or atomic.
    pub(crate) fn oldest_lq_order(&self) -> Option<u64> {
        self.lq.front().map(|&(o, _)| o)
    }

    /// The loads and atomics of order `from` or younger, oldest first.
    pub(crate) fn lq_from(&self, from: u64) -> impl Iterator<Item = &RobEntry> + '_ {
        let start = self.lq.partition_point(|&(o, _)| o < from);
        self.lq
            .range(start..)
            .map(|&(o, _)| &self.entries[self.index_of_order(o)])
    }

    // ------------------------------------------------------------------
    // Image
    // ------------------------------------------------------------------

    /// Writes the ROB's uids, then its length and each `(uid, entry)` in
    /// window order, which is ascending uid.
    pub(crate) fn encode_rob(&self, w: &mut Writer) {
        self.uids.encode(w);
        w.put_len(self.len());
        for (uid, e) in self.iter() {
            uid.encode(w);
            e.encode(w);
        }
    }

    /// Writes the ready set: its length, then `(order, uid)` ascending.
    pub(crate) fn encode_ready(&self, w: &mut Writer) {
        w.put_len(self.ready_len);
        for order in self.ready_orders() {
            order.encode(w);
            self.by_order(order).0.encode(w);
        }
    }

    /// Writes the load queue: its length, then `(order, uid)` ascending.
    pub(crate) fn encode_lq(&self, w: &mut Writer) {
        self.lq.encode(w);
    }

    /// Reads what [`Window::encode_rob`] wrote into this window, emptied
    /// first, and rebuilds the load queue from the entries. Refuses more
    /// entries than the ROB holds, uids that do not rise, entries that do
    /// not match the uids, and a gap in the orders.
    pub(crate) fn restore_rob(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.uids.clear();
        self.entries.clear();
        self.lq.clear();
        if self.ready_len > 0 {
            self.ready.clear();
            self.ready_len = 0;
        }
        let n = r.get_len()?;
        if n > self.capacity {
            return Err(PersistError::Corrupt("ROB holds more entries than it has"));
        }
        self.uids.reserve(n);
        self.entries.reserve(n);
        for _ in 0..n {
            let uid = r.get_u64()?;
            if self.uids.back().is_some_and(|&t| t >= uid) {
                return Err(PersistError::Corrupt("ROB uids do not rise"));
            }
            self.uids.push_back(uid);
        }
        if r.get_len()? != n {
            return Err(PersistError::Corrupt("ROB entries do not match the ROB"));
        }
        for i in 0..n {
            let uid = r.get_u64()?;
            let e = RobEntry::decode(r)?;
            if uid != self.uids[i] {
                return Err(PersistError::Corrupt("ROB entries do not match the ROB"));
            }
            if self
                .entries
                .back()
                .is_some_and(|t| t.order.checked_add(1) != Some(e.order))
            {
                return Err(PersistError::Corrupt("ROB orders have a gap"));
            }
            if e.in_lq() {
                self.lq.push_back((e.order, uid));
            }
            self.entries.push_back(e);
        }
        Ok(())
    }

    /// Reads what [`Window::encode_ready`] wrote, after
    /// [`Window::restore_rob`]. Refuses orders that do not rise and an
    /// entry that names no window entry.
    pub(crate) fn restore_ready(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let n = r.get_len()?;
        let mut last = None;
        for _ in 0..n {
            let (order, uid) = (r.get_u64()?, r.get_u64()?);
            if last.is_some_and(|l| l >= order) {
                return Err(PersistError::Corrupt("ready orders do not rise"));
            }
            let head = self.entries.front().map(|e| e.order);
            let i = head.and_then(|h| order.checked_sub(h));
            if i.and_then(|i| self.uids.get(i as usize)) != Some(&uid) {
                return Err(PersistError::Corrupt("ready entry names no window entry"));
            }
            self.set_ready(order);
            last = Some(order);
        }
        Ok(())
    }

    /// Reads what [`Window::encode_lq`] wrote, after
    /// [`Window::restore_rob`], and refuses it unless it lists exactly the
    /// window's loads and atomics in order.
    pub(crate) fn restore_lq(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let n = r.get_len()?;
        let mismatch = PersistError::Corrupt("load queue does not match the window's loads");
        if n != self.lq.len() {
            return Err(mismatch);
        }
        for i in 0..n {
            if (r.get_u64()?, r.get_u64()?) != self.lq[i] {
                return Err(mismatch);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl Window {
    /// The uids and entries, for tests that forge a malformed window.
    pub(crate) fn parts_mut(&mut self) -> (&mut VecDeque<u64>, &mut VecDeque<RobEntry>) {
        (&mut self.uids, &mut self.entries)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use row_common::fastmap::FastMap;
    use row_common::ids::{Addr, Pc};
    use row_common::persist::to_bytes;
    use row_common::rng::SplitMix64;

    use super::*;

    fn entry(order: u64, load: bool) -> RobEntry {
        let op = if load {
            Op::Load {
                addr: Addr::new(0x40 * order),
            }
        } else {
            Op::Alu { latency: 1 }
        };
        RobEntry {
            order,
            instr: Instr::simple(Pc::new(0x10), op),
            pending_deps: 0,
            in_iq: true,
            issued_at: None,
            completed_at: None,
            forwarded_from: None,
        }
    }

    /// A window driven the way a core drives it: dispatch at the tail
    /// under fresh uids, commit at the head, and squash a suffix whose
    /// orders dispatch again under new uids. It mirrors the ready set and
    /// the load queue in ordered std collections.
    struct Model {
        w: Window,
        next_uid: u64,
        next_order: u64,
        ready: BTreeSet<u64>,
        lq: BTreeMap<u64, u64>,
        rng: SplitMix64,
    }

    impl Model {
        fn new(capacity: usize, seed: u64) -> Self {
            Model {
                w: Window::new(capacity),
                next_uid: 1,
                next_order: 0,
                ready: BTreeSet::new(),
                lq: BTreeMap::new(),
                rng: SplitMix64::new(seed),
            }
        }

        fn dispatch(&mut self, load: bool) {
            let (uid, order) = (self.next_uid, self.next_order);
            self.next_uid += 1;
            self.next_order += 1;
            self.w.push_back(uid, entry(order, load));
            if load {
                self.lq.insert(order, uid);
            }
        }

        fn forget(&mut self, uid: u64, e: &RobEntry) {
            self.ready.remove(&e.order);
            if let Some(u) = self.lq.remove(&e.order) {
                assert_eq!(u, uid);
            }
        }

        fn commit(&mut self, n: usize) {
            for _ in 0..n {
                let Some((uid, e)) = self.w.pop_front() else {
                    return;
                };
                self.forget(uid, &e);
            }
        }

        /// Squashes from the entry `k` places after the head.
        fn squash(&mut self, k: usize) {
            let from = self.w.head().expect("a live head").1.order + k as u64;
            while let Some((uid, e)) = self.w.pop_back_from(from) {
                self.forget(uid, &e);
            }
            self.next_order = from;
        }

        fn random_step(&mut self) {
            let len = self.w.len();
            let (pick, k) = (self.rng.below(10), self.rng.below(len.max(1) as u64));
            match pick {
                0..=3 if len < self.w.capacity => self.dispatch(k % 3 == 0),
                4 | 5 => self.commit(1 + k as usize % 2),
                6 if len > 0 => self.squash(k as usize),
                7..=9 if len > 0 => {
                    let order = self.w.head().expect("a live head").1.order + k;
                    if self.ready.insert(order) {
                        self.w.set_ready(order);
                    } else {
                        self.ready.remove(&order);
                        self.w.clear_ready(order);
                    }
                }
                _ => {}
            }
        }

        fn live_uid_span(&self) -> std::ops::RangeInclusive<u64> {
            let first = self.w.uids.front().map_or(0, |&u| u.saturating_sub(3));
            first..=self.next_uid + 3
        }
    }

    #[test]
    fn uid_lookup_finds_every_live_uid_in_a_wrapped_window_with_squash_gaps() {
        let mut m = Model::new(16, 0);
        (0..12).for_each(|_| m.dispatch(false));
        m.commit(8);
        (0..10).for_each(|_| m.dispatch(false));
        // Two squashes, each dispatched again under new uids: two gaps.
        m.squash(6);
        (0..8).for_each(|_| m.dispatch(false));
        m.squash(10);
        (0..4).for_each(|_| m.dispatch(false));
        let (a, b) = m.w.uids.as_slices();
        assert!(!a.is_empty() && !b.is_empty(), "the storage wraps");
        let uids: Vec<u64> = m.w.uids.iter().copied().collect();
        let gaps = uids.windows(2).filter(|p| p[1] != p[0] + 1).count();
        assert_eq!(gaps, 2);
        for uid in m.live_uid_span() {
            let linear = uids.iter().position(|&u| u == uid);
            assert_eq!(m.w.index_of(uid), linear, "uid {uid} in {uids:?}");
            assert_eq!(m.w.contains(uid), linear.is_some());
        }
    }

    #[test]
    fn uid_lookup_matches_a_linear_search_under_random_traffic() {
        let mut m = Model::new(24, 3);
        for _ in 0..4_000 {
            m.random_step();
            for uid in m.live_uid_span() {
                let linear = m.w.uids.iter().position(|&u| u == uid);
                assert_eq!(m.w.index_of(uid), linear);
            }
        }
    }

    #[test]
    fn ready_walk_yields_ascending_orders_across_the_ring_wrap() {
        // 12 entries over 16 slots: a window whose head sits late in the
        // ring wraps to its start.
        let mut m = Model::new(12, 7);
        let mut wrapped = 0;
        for _ in 0..5_000 {
            m.random_step();
            let walk: Vec<u64> = m.w.ready_orders().collect();
            assert_eq!(walk, m.ready.iter().copied().collect::<Vec<_>>());
            assert_eq!(m.w.ready_len, m.ready.len());
            assert_eq!(m.w.nothing_ready(), m.ready.is_empty());
            let head_slot = m.w.head().map_or(0, |(_, e)| e.order & m.w.mask);
            wrapped += walk.iter().any(|&o| o & m.w.mask < head_slot) as u32;
        }
        assert!(wrapped > 100, "the walk wrapped only {wrapped} times");
    }

    #[test]
    fn load_queue_stays_in_step_under_commit_and_squash() {
        let mut m = Model::new(20, 11);
        for _ in 0..5_000 {
            m.random_step();
            let fifo: Vec<(u64, u64)> = m.w.lq.iter().copied().collect();
            let want: Vec<(u64, u64)> = m.lq.iter().map(|(&o, &u)| (o, u)).collect();
            assert_eq!(fifo, want);
            assert_eq!(m.w.lq_len(), m.lq.len());
            assert_eq!(m.w.oldest_lq_order(), m.lq.keys().next().copied());
            let from = m.next_order.saturating_sub(m.rng.below(24));
            let scan: Vec<u64> = m.w.lq_from(from).map(|e| e.order).collect();
            assert_eq!(
                scan,
                m.lq.range(from..).map(|(&o, _)| o).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn images_keep_the_map_layouts_and_restore_exactly() {
        let mut m = Model::new(24, 5);
        for _ in 0..600 {
            m.random_step();
        }
        assert!(!m.w.is_empty() && !m.ready.is_empty() && !m.lq.is_empty());
        let mut w = Writer::new();
        m.w.encode_rob(&mut w);
        m.w.encode_ready(&mut w);
        m.w.encode_lq(&mut w);
        let image = w.into_bytes();

        let mut entries = FastMap::new();
        for (uid, e) in m.w.iter() {
            entries.insert(uid, e.clone());
        }
        let ready: BTreeMap<u64, u64> = m.ready.iter().map(|&o| (o, m.w.by_order(o).0)).collect();
        let mut maps = to_bytes(&m.w.uids);
        maps.extend(to_bytes(&entries));
        maps.extend(to_bytes(&ready));
        maps.extend(to_bytes(&m.lq));
        assert_eq!(image, maps);

        let mut back = Window::new(24);
        let mut r = Reader::new(&image);
        back.restore_rob(&mut r).expect("rob");
        back.restore_ready(&mut r).expect("ready");
        back.restore_lq(&mut r).expect("lq");
        assert_eq!(r.remaining(), 0);
        let mut again = Writer::new();
        back.encode_rob(&mut again);
        back.encode_ready(&mut again);
        back.encode_lq(&mut again);
        assert_eq!(again.into_bytes(), image);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn an_order_gap_is_refused_at_dispatch() {
        let mut w = Window::new(8);
        w.push_back(1, entry(5, false));
        w.push_back(2, entry(7, false));
    }

    #[test]
    #[should_panic(expected = "rise")]
    fn a_uid_that_does_not_rise_is_refused_at_dispatch() {
        let mut w = Window::new(8);
        w.push_back(4, entry(5, false));
        w.push_back(4, entry(6, false));
    }
}
