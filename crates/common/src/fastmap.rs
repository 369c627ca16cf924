//! An open-addressed, arena-backed hash map for the simulator's hot paths.
//!
//! [`FastMap`] replaces `std::collections::HashMap` where lookups happen
//! every simulated cycle (directory entries, private-cache coherence and
//! MSHR state, the core's dependency lists). It differs from the std map
//! in the three ways the hot loop cares about:
//!
//! * **No SipHash.** Keys are small integers (line addresses, instruction
//!   uids, core ids); a single multiplicative mix replaces the keyed SipHash
//!   rounds the std map pays per probe.
//! * **Arena storage, linear probing.** The slot table holds `u32` indices
//!   into parallel key/value arenas, so probing touches one cache line of
//!   indices and a hit costs one indirection. Removal swap-removes the arena
//!   and backward-shifts the probe chain — no tombstones.
//! * **Deterministic iteration.** Iteration walks the arena, whose order is
//!   a pure function of the insert/remove history — identical across runs,
//!   processes, and `--jobs N` workers (no per-process hash seed). The
//!   [`Codec`] impl additionally encodes entries **sorted by key**, matching
//!   the std `HashMap` codec byte for byte, so checkpoints are unchanged.
//!
//! Iteration order is *stable*, not *sorted*: diagnostics that promise
//! sorted output must sort, exactly as they had to with the std map.

use crate::persist::{Codec, PersistError, Reader, Writer};
use crate::{CoreId, LineAddr};

/// Slot value marking an empty probe slot.
const EMPTY: u32 = u32::MAX;

/// Keys a [`FastMap`] accepts: cheap to copy, totally ordered (for the
/// sorted [`Codec`]), and hashable in a handful of ALU ops.
pub trait FastKey: Copy + Eq + Ord {
    /// A well-mixed 64-bit hash of the key.
    fn hash64(self) -> u64;
}

#[inline]
fn mix64(k: u64) -> u64 {
    // SplitMix64-style finalizer: multiplicative spread plus xor-shifts so
    // sequential keys (line numbers, uids) don't cluster in the low bits.
    let h = (k ^ (k >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

impl FastKey for u64 {
    #[inline]
    fn hash64(self) -> u64 {
        mix64(self)
    }
}

impl FastKey for u32 {
    #[inline]
    fn hash64(self) -> u64 {
        mix64(self as u64)
    }
}

impl FastKey for LineAddr {
    #[inline]
    fn hash64(self) -> u64 {
        mix64(self.raw())
    }
}

impl FastKey for CoreId {
    #[inline]
    fn hash64(self) -> u64 {
        mix64(self.index() as u64)
    }
}

impl FastKey for (CoreId, u64) {
    #[inline]
    fn hash64(self) -> u64 {
        // Fold the core into the high bits before mixing; request ids stay
        // in the low bits, so distinct (core, id) pairs rarely pre-collide.
        mix64(((self.0.index() as u64) << 48) ^ self.1)
    }
}

impl FastKey for (LineAddr, u16) {
    #[inline]
    fn hash64(self) -> u64 {
        // A line with a small tag (the memory system's holder index keys a
        // line by 64-core chunk): the tag goes into the high bits, as above.
        mix64(((self.1 as u64) << 48) ^ self.0.raw())
    }
}

/// An open-addressed hash map with arena storage and deterministic,
/// insertion-stable iteration order. See the module docs for the contract.
///
/// # Example
/// ```
/// use row_common::fastmap::FastMap;
/// let mut m: FastMap<u64, &str> = FastMap::new();
/// m.insert(7, "seven");
/// m.insert(3, "three");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// assert_eq!(m.remove(&7), Some("seven"));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FastMap<K, V> {
    /// Power-of-two probe table of arena indices (`EMPTY` = free).
    slots: Vec<u32>,
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K: FastKey, V> FastMap<K, V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FastMap {
            slots: Vec::new(),
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Probe slot index where `k` lives, if present.
    #[inline]
    fn find_slot(&self, k: K) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (k.hash64() as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if self.keys[s as usize] == k {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns a reference to the value for `k`.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find_slot(*k)
            .map(|i| &self.vals[self.slots[i] as usize])
    }

    /// Returns a mutable reference to the value for `k`.
    #[inline]
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find_slot(*k)
            .map(|i| &mut self.vals[self.slots[i] as usize])
    }

    /// Whether `k` is present.
    #[inline]
    pub fn contains_key(&self, k: &K) -> bool {
        self.find_slot(*k).is_some()
    }

    /// Grows/initializes the slot table so one more insert stays under a
    /// 3/4 load factor.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY; 16];
        } else if (self.keys.len() + 1) * 4 > self.slots.len() * 3 {
            let new_len = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(new_len, EMPTY);
            let mask = new_len - 1;
            for (idx, k) in self.keys.iter().enumerate() {
                let mut i = (k.hash64() as usize) & mask;
                while self.slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = idx as u32;
            }
        }
    }

    /// Inserts `k → v`, returning the previous value if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.reserve_one();
        let mask = self.mask();
        let mut i = (k.hash64() as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                self.slots[i] = self.keys.len() as u32;
                self.keys.push(k);
                self.vals.push(v);
                return None;
            }
            if self.keys[s as usize] == k {
                return Some(std::mem::replace(&mut self.vals[s as usize], v));
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns a mutable reference to the value for `k`, inserting
    /// `default()` first if absent (the `entry().or_insert_with()` shape).
    pub fn get_or_insert_with(&mut self, k: K, default: impl FnOnce() -> V) -> &mut V {
        self.reserve_one();
        let mask = self.mask();
        let mut i = (k.hash64() as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                self.slots[i] = self.keys.len() as u32;
                self.keys.push(k);
                self.vals.push(default());
                let last = self.vals.len() - 1;
                return &mut self.vals[last];
            }
            if self.keys[s as usize] == k {
                return &mut self.vals[s as usize];
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.keys.clear();
        self.vals.clear();
    }

    /// Removes `k`, returning its value if present.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let slot = self.find_slot(*k)?;
        let idx = self.slots[slot] as usize;
        self.erase_slot(slot);
        let last = self.keys.len() - 1;
        self.keys.swap_remove(idx);
        let v = self.vals.swap_remove(idx);
        if idx != last {
            // The arena entry that lived at `last` moved to `idx`; repoint
            // its probe slot.
            let mask = self.mask();
            let mut j = (self.keys[idx].hash64() as usize) & mask;
            loop {
                if self.slots[j] == last as u32 {
                    self.slots[j] = idx as u32;
                    break;
                }
                j = (j + 1) & mask;
            }
        }
        Some(v)
    }

    /// Backward-shift deletion: closes the probe chain over freed slot `i`
    /// so lookups never need tombstones.
    fn erase_slot(&mut self, mut i: usize) {
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY {
                break;
            }
            let ideal = (self.keys[s as usize].hash64() as usize) & mask;
            // The entry at `j` may fill the hole at `i` only if its ideal
            // slot is cyclically outside (i, j] — i.e. the move does not
            // put it ahead of its own probe chain.
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = EMPTY;
    }

    /// Iterates `(key, &value)` in arena (insertion-stable) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter())
    }

    /// Iterates `(key, &mut value)` in arena (insertion-stable) order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        self.keys.iter().copied().zip(self.vals.iter_mut())
    }

    /// Iterates keys in arena (insertion-stable) order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.keys.iter().copied()
    }

    /// Iterates values in arena (insertion-stable) order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.vals.iter()
    }

    /// Iterates values mutably in arena (insertion-stable) order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.vals.iter_mut()
    }
}

impl<K: FastKey, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap::new()
    }
}

impl<K: FastKey, V> std::ops::Index<&K> for FastMap<K, V> {
    type Output = V;
    /// Panics if `k` is absent, like the std map's `Index`.
    #[inline]
    fn index(&self, k: &K) -> &V {
        self.get(k).expect("FastMap: key not present")
    }
}

impl<K: FastKey + Codec, V: Codec> Codec for FastMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        // Sorted-by-key order: byte-identical to the std HashMap codec, so
        // swapping map types never changes checkpoint bytes.
        let mut order: Vec<u32> = (0..self.keys.len() as u32).collect();
        order.sort_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
        w.put_len(order.len());
        for i in order {
            self.keys[i as usize].encode(w);
            self.vals[i as usize].encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut m = FastMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: FastMap<u64, u64> = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        for k in 0..100u64 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.len(), 100);
        for k in 0..100u64 {
            assert_eq!(m.get(&k), Some(&(k * 10)));
        }
        assert_eq!(m.insert(7, 1), Some(70));
        for k in 0..50u64 {
            assert_eq!(m.remove(&(k * 2)), Some(k * 20));
        }
        assert_eq!(m.len(), 50);
        for k in 0..100u64 {
            assert_eq!(m.get(&k).is_some(), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: FastMap<u64, Vec<u64>> = FastMap::new();
        m.get_or_insert_with(3, Vec::new).push(1);
        m.get_or_insert_with(3, Vec::new).push(2);
        assert_eq!(m.get(&3), Some(&vec![1, 2]));
    }

    #[test]
    fn matches_std_hashmap_under_random_ops() {
        let mut rng = SplitMix64::new(0xfa57);
        let mut fast: FastMap<u64, u64> = FastMap::new();
        let mut std: std::collections::HashMap<u64, u64> = Default::default();
        for step in 0..20_000u64 {
            let k = rng.next_u64() % 257; // small key space → heavy collisions
            match rng.next_u64() % 4 {
                0 | 1 => {
                    assert_eq!(fast.insert(k, step), std.insert(k, step));
                }
                2 => {
                    assert_eq!(fast.remove(&k), std.remove(&k));
                }
                _ => {
                    assert_eq!(fast.get(&k), std.get(&k));
                    assert_eq!(fast.contains_key(&k), std.contains_key(&k));
                }
            }
            assert_eq!(fast.len(), std.len());
        }
        let mut a: Vec<(u64, u64)> = fast.iter().map(|(k, &v)| (k, v)).collect();
        let mut b: Vec<(u64, u64)> = std.iter().map(|(&k, &v)| (k, v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn codec_bytes_match_std_hashmap() {
        let mut fast: FastMap<u64, u32> = FastMap::new();
        let mut std: std::collections::HashMap<u64, u32> = Default::default();
        for (k, v) in [(9u64, 1u32), (2, 2), (14, 3), (3, 4)] {
            fast.insert(k, v);
            std.insert(k, v);
        }
        fast.remove(&14);
        std.remove(&14);
        let mut wf = Writer::new();
        fast.encode(&mut wf);
        let mut ws = Writer::new();
        std.encode(&mut ws);
        assert_eq!(wf.into_bytes(), ws.into_bytes());
    }

    #[test]
    fn iteration_order_is_a_function_of_history() {
        // Two maps built with the same op sequence iterate identically —
        // the property `--jobs N` byte-equality rests on.
        let build = || {
            let mut m: FastMap<u64, u64> = FastMap::new();
            for k in 0..40 {
                m.insert(k * 3, k);
            }
            for k in 0..10 {
                m.remove(&(k * 9));
            }
            m.insert(1000, 1);
            m
        };
        let a: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b);
    }
}
