//! A generic cycle-keyed event wheel.
//!
//! The memory system and interconnect schedule message deliveries and state
//! transitions at absolute cycles. [`EventQueue`] is a deterministic timing
//! wheel: events at the same cycle pop in insertion order (FIFO), so
//! simulation outcomes never depend on tie-breaking.
//!
//! # Layout
//!
//! The near window is `WHEEL` ring buckets, one per cycle in
//! `[cur, cur + WHEEL)`; cycle `c` lives in bucket `c % WHEEL`, so a push or
//! pop within the window is O(1) with no per-event sequence numbers or heap
//! rebalancing. Events beyond the window overflow into a `BTreeMap` keyed by
//! absolute cycle and are promoted into their ring bucket as the watermark
//! `cur` sweeps forward. `cur` never passes `now`, and a whole empty stretch
//! is skipped in one jump when the near window is empty, so draining a cycle
//! costs O(events) and an idle queue costs O(1) per probe.

use std::collections::{BTreeMap, VecDeque};

use crate::clock::Cycle;
use crate::persist::{Codec, PersistError, Reader, Writer};

/// Near-window width in cycles. Covers every fixed latency in the system
/// (worst is `mem_latency` = 160, plus mesh hops); only transport
/// retransmit backoffs overflow into the far map. Power of two so the
/// bucket index is a mask.
const WHEEL: u64 = 256;

/// An event queue delivering items in (cycle, insertion-order) order.
///
/// # Example
/// ```
/// use row_common::{Cycle, sched::EventQueue};
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(10), "b");
/// q.push(Cycle::new(5), "a");
/// q.push(Cycle::new(10), "c");
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("a"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("b"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("c"));
/// assert_eq!(q.pop_ready(Cycle::new(10)), None);
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    /// Ring of per-cycle FIFO buckets for cycles in `[cur, cur + WHEEL)`.
    near: Vec<VecDeque<T>>,
    /// Overflow for cycles `>= cur + WHEEL`, promoted as `cur` advances.
    far: BTreeMap<u64, VecDeque<T>>,
    /// Watermark: every event at a cycle `< cur` has been delivered.
    /// Invariant: `cur` never exceeds the largest `now` seen.
    cur: u64,
    near_len: usize,
    far_len: usize,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: (0..WHEEL).map(|_| VecDeque::new()).collect(),
            far: BTreeMap::new(),
            cur: 0,
            near_len: 0,
            far_len: 0,
        }
    }

    #[inline]
    fn bucket(c: u64) -> usize {
        (c & (WHEEL - 1)) as usize
    }

    /// Schedules `item` for delivery at cycle `at`. A cycle already behind
    /// the watermark (impossible for the simulator's `now + latency`
    /// schedules) is clamped to the watermark rather than lost.
    pub fn push(&mut self, at: Cycle, item: T) {
        let at = at.raw().max(self.cur);
        if at < self.cur + WHEEL {
            self.near[Self::bucket(at)].push_back(item);
            self.near_len += 1;
        } else {
            self.far.entry(at).or_default().push_back(item);
            self.far_len += 1;
        }
    }

    /// Moves every far bucket that now fits the near window into its ring
    /// slot. Only called when the target slots are empty: either the window
    /// advanced past them one cycle at a time, or the whole ring is empty.
    fn promote(&mut self) {
        while let Some((&k, _)) = self.far.first_key_value() {
            if k >= self.cur + WHEEL {
                break;
            }
            let q = self.far.remove(&k).expect("first key present");
            debug_assert!(self.near[Self::bucket(k)].is_empty());
            self.far_len -= q.len();
            self.near_len += q.len();
            self.near[Self::bucket(k)] = q;
        }
    }

    /// Pops the next event whose cycle is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let now = now.raw();
        loop {
            if self.near_len == 0 {
                // Near window drained: skip the empty stretch in one jump —
                // to the first far bucket if it is due, else to `now` (never
                // past `now`, so a later same-cycle push still delivers
                // this cycle, exactly like the old heap).
                let Some((&k, _)) = self.far.first_key_value() else {
                    self.cur = self.cur.max(now);
                    return None;
                };
                if k > now {
                    if self.cur < now {
                        self.cur = now;
                        self.promote();
                    }
                    return None;
                }
                self.cur = self.cur.max(k);
                self.promote();
                continue;
            }
            if self.cur > now {
                return None;
            }
            if let Some(item) = self.near[Self::bucket(self.cur)].pop_front() {
                self.near_len -= 1;
                return Some(item);
            }
            if self.cur == now {
                return None;
            }
            self.cur += 1;
            // Cycle `cur + WHEEL - 1` just became representable in the slot
            // vacated above; pull it in from the far map if scheduled.
            if let Some(q) = self.far.remove(&(self.cur + WHEEL - 1)) {
                self.far_len -= q.len();
                self.near_len += q.len();
                self.near[Self::bucket(self.cur + WHEEL - 1)] = q;
            }
        }
    }

    /// The cycle of the earliest pending event. It scans the wheel's
    /// buckets from the current cycle to the first non-empty one, all
    /// `WHEEL` of them when the next event is in the overflow map. This is
    /// on the simulation hot path: `Core::sleep_until` calls it after every
    /// core step whose phases are all idle.
    pub fn next_cycle(&self) -> Option<Cycle> {
        if self.near_len > 0 {
            for d in 0..WHEEL {
                let c = self.cur + d;
                if !self.near[Self::bucket(c)].is_empty() {
                    return Some(Cycle::new(c));
                }
            }
        }
        self.far.first_key_value().map(|(&k, _)| Cycle::new(k))
    }

    /// Every pending event with its cycle, in delivery order: ascending
    /// cycle, FIFO within a cycle.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &T)> {
        let window = if self.near_len > 0 { WHEEL } else { 0 };
        let near = (0..window).flat_map(move |d| {
            let c = self.cur + d;
            let q = &self.near[Self::bucket(c)];
            q.iter().map(move |item| (Cycle::new(c), item))
        });
        let far = self.far.iter();
        near.chain(far.flat_map(|(&k, q)| q.iter().map(move |item| (Cycle::new(k), item))))
    }

    /// The event pushed last of those due at `at`: the one a push at `at`
    /// would queue right behind.
    pub fn last_mut(&mut self, at: Cycle) -> Option<&mut T> {
        let at = at.raw().max(self.cur);
        if at < self.cur + WHEEL {
            self.near[Self::bucket(at)].back_mut()
        } else {
            self.far.get_mut(&at)?.back_mut()
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far_len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T: Codec> Codec for EventQueue<T> {
    fn encode(&self, w: &mut Writer) {
        // Encode in delivery order — the same wire format (and bytes) as
        // the pre-wheel heap layout.
        w.put_len(self.len());
        for (at, item) in self.iter() {
            at.encode(w);
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut q = EventQueue::new();
        for _ in 0..n {
            let at = Cycle::decode(r)?;
            let item = T::decode(r)?;
            q.push(at, item);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_cycle_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(1));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(2));
        assert_eq!(q.pop_ready(Cycle::new(100)), Some(3));
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Cycle::new(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop_ready(Cycle::new(5)), Some(i));
        }
    }

    #[test]
    fn does_not_deliver_early() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), "x");
        assert_eq!(q.pop_ready(Cycle::new(9)), None);
        assert_eq!(q.next_cycle(), Some(Cycle::new(10)));
        assert_eq!(q.pop_ready(Cycle::new(10)), Some("x"));
        assert!(q.is_empty());
    }

    #[test]
    fn codec_round_trip_preserves_delivery_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 1u64);
        q.push(Cycle::new(5), 2);
        q.push(Cycle::new(10), 3);
        q.push(Cycle::new(5), 4);
        let mut w = Writer::new();
        q.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored: EventQueue<u64> = Codec::decode(&mut Reader::new(&bytes)).unwrap();
        let mut orig = Vec::new();
        let mut rest = Vec::new();
        while let Some(v) = q.pop_ready(Cycle::new(100)) {
            orig.push(v);
        }
        while let Some(v) = restored.pop_ready(Cycle::new(100)) {
            rest.push(v);
        }
        assert_eq!(orig, rest);
        assert_eq!(orig, vec![2, 4, 1, 3]);
    }

    #[test]
    fn iter_and_last_mut_follow_delivery_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(WHEEL + 9), 5u32); // far
        q.push(Cycle::new(3), 1);
        q.push(Cycle::new(7), 3);
        q.push(Cycle::new(3), 2);
        let seen: Vec<(u64, u32)> = q.iter().map(|(c, &v)| (c.raw(), v)).collect();
        assert_eq!(seen, vec![(3, 1), (3, 2), (7, 3), (WHEEL + 9, 5)]);
        *q.last_mut(Cycle::new(3)).expect("due at 3") = 20;
        *q.last_mut(Cycle::new(WHEEL + 9)).expect("far") = 50;
        assert_eq!(q.last_mut(Cycle::new(4)), None);
        let mut drained = Vec::new();
        while let Some(v) = q.pop_ready(Cycle::new(2 * WHEEL)) {
            drained.push(v);
        }
        assert_eq!(drained, vec![1, 20, 3, 50]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle::new(1), ());
        q.push(Cycle::new(2), ());
        assert_eq!(q.len(), 2);
        q.pop_ready(Cycle::new(5));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_events_promote_across_the_window() {
        // Events far past the near window must surface in order, including
        // two far buckets and one near one.
        let mut q = EventQueue::new();
        q.push(Cycle::new(WHEEL * 3 + 7), "c");
        q.push(Cycle::new(5), "a");
        q.push(Cycle::new(WHEEL + 1), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_cycle(), Some(Cycle::new(5)));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL)), Some("a"));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL)), None);
        assert_eq!(q.next_cycle(), Some(Cycle::new(WHEEL + 1)));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL + 1)), Some("b"));
        assert_eq!(q.pop_ready(Cycle::new(WHEEL * 4)), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn empty_probe_then_same_cycle_push_still_delivers() {
        // The watermark must not pass `now` on an empty probe: a push at
        // the same cycle after a None must still deliver this cycle (the
        // heap behaved this way, and the mem tick loop relies on it).
        let mut q = EventQueue::new();
        assert_eq!(q.pop_ready(Cycle::new(50)), None);
        q.push(Cycle::new(50), 9);
        assert_eq!(q.pop_ready(Cycle::new(50)), Some(9));
    }

    #[test]
    fn big_now_jump_skips_empty_stretch() {
        // A restore-style jump: events decoded at large absolute cycles,
        // then probed at a large `now` — must not cost O(now) or strand
        // far buckets that fall inside the new near window.
        let mut q = EventQueue::new();
        q.push(Cycle::new(1_000_000), 1u32);
        q.push(Cycle::new(1_000_100), 2);
        q.push(Cycle::new(1_000_000 + 2 * WHEEL), 3);
        assert_eq!(q.pop_ready(Cycle::new(999_999)), None);
        assert_eq!(q.pop_ready(Cycle::new(1_000_000)), Some(1));
        assert_eq!(q.pop_ready(Cycle::new(1_000_099)), None);
        assert_eq!(q.pop_ready(Cycle::new(1_000_100)), Some(2));
        assert_eq!(q.pop_ready(Cycle::new(2_000_000)), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_near_and_far_pushes_keep_fifo_per_cycle() {
        let mut q = EventQueue::new();
        let c = WHEEL + 10;
        q.push(Cycle::new(c), 1u32); // far at push time
        let mut drained = Vec::new();
        for now in 0..=c {
            while let Some(v) = q.pop_ready(Cycle::new(now)) {
                drained.push((now, v));
            }
            if now == 20 {
                q.push(Cycle::new(c), 2); // near by then? still far-ish — same cycle, later
            }
        }
        assert_eq!(drained, vec![(c, 1), (c, 2)]);
    }
}
