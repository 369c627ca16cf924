//! A generic set-associative cache array with true-LRU replacement.
//!
//! The array tracks *presence* (tags) only; coherence state lives in the
//! controllers. Victim selection accepts an evictability predicate so cache
//! locking (Atomic Queue) can pin lines, exactly as the paper's AQ annotates
//! set/way to block evictions of locked lines.

use row_common::config::CacheConfig;
use row_common::ids::LineAddr;
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};

/// Outcome of inserting a line into a [`CacheArray`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insert {
    /// The line was already present (refreshed LRU).
    Hit,
    /// Inserted into an empty/invalid way.
    Placed,
    /// Inserted after evicting the returned victim.
    Evicted(LineAddr),
    /// Every candidate way is pinned; the line was *not* cached.
    NoVictim,
}

#[derive(Clone, Debug)]
struct Way {
    tag: Option<LineAddr>,
    /// Larger = more recently used.
    lru: u64,
}

/// Set-associative tag array with true-LRU replacement.
///
/// # Example
/// ```
/// use row_common::config::CacheConfig;
/// use row_common::ids::LineAddr;
/// use row_mem::array::CacheArray;
///
/// let mut c = CacheArray::new(CacheConfig { size_bytes: 1024, ways: 2, hit_latency: 1 });
/// c.insert(LineAddr::new(1), |_| true);
/// assert!(c.contains(LineAddr::new(1)));
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    data: Vec<Way>,
    tick: u64,
}

impl CacheArray {
    /// Builds an array from a geometry description.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        CacheArray {
            sets,
            ways: cfg.ways,
            data: vec![Way { tag: None, lru: 0 }; sets * cfg.ways],
            tick: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) % self.sets
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        &mut self.data[set * self.ways..(set + 1) * self.ways]
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub const fn ways(&self) -> usize {
        self.ways
    }

    /// Whether `line` is present (does not update LRU).
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        self.data[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|w| w.tag == Some(line))
    }

    /// Looks up `line`, refreshing LRU on hit.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        for w in self.set_slice(set) {
            if w.tag == Some(line) {
                w.lru = tick;
                return true;
            }
        }
        false
    }

    /// Inserts `line`, evicting the LRU way among those for which
    /// `evictable` returns `true`. Pinned (non-evictable) lines are never
    /// chosen as victims.
    pub fn insert(&mut self, line: LineAddr, evictable: impl Fn(LineAddr) -> bool) -> Insert {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let slice = self.set_slice(set);
        // Already present?
        for w in slice.iter_mut() {
            if w.tag == Some(line) {
                w.lru = tick;
                return Insert::Hit;
            }
        }
        // Empty way?
        for w in slice.iter_mut() {
            if w.tag.is_none() {
                w.tag = Some(line);
                w.lru = tick;
                return Insert::Placed;
            }
        }
        // LRU among evictable ways.
        let victim = slice
            .iter_mut()
            .filter(|w| w.tag.is_some_and(&evictable))
            .min_by_key(|w| w.lru);
        match victim {
            Some(w) => {
                let old = w.tag.expect("victim has a tag");
                w.tag = Some(line);
                w.lru = tick;
                Insert::Evicted(old)
            }
            None => Insert::NoVictim,
        }
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        for w in self.set_slice(set) {
            if w.tag == Some(line) {
                w.tag = None;
                w.lru = 0;
                return true;
            }
        }
        false
    }

    /// Number of resident lines (O(capacity); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.data.iter().filter(|w| w.tag.is_some()).count()
    }
}

row_common::codec_struct!(Way { tag, lru });

impl Persist for CacheArray {
    // Geometry (sets/ways) is config-derived; tags and LRU state are mutable.
    fn persist(&self, w: &mut Writer) {
        self.data.encode(w);
        w.put_u64(self.tick);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let data = Vec::<Way>::decode(r)?;
        if data.len() != self.data.len() {
            return Err(PersistError::Corrupt("cache array geometry mismatch"));
        }
        self.data = data;
        self.tick = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, sets: usize) -> CacheArray {
        CacheArray::new(CacheConfig {
            size_bytes: ways * sets * 64,
            ways,
            hit_latency: 1,
        })
    }

    fn line_in_set(set: usize, k: u64, sets: usize) -> LineAddr {
        LineAddr::new(set as u64 + k * sets as u64)
    }

    #[test]
    fn insert_then_contains() {
        let mut c = tiny(2, 4);
        assert_eq!(c.insert(LineAddr::new(5), |_| true), Insert::Placed);
        assert!(c.contains(LineAddr::new(5)));
        assert!(!c.contains(LineAddr::new(6)));
    }

    #[test]
    fn reinsert_is_hit() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(5), |_| true);
        assert_eq!(c.insert(LineAddr::new(5), |_| true), Insert::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 4);
        let a = line_in_set(0, 0, 4);
        let b = line_in_set(0, 1, 4);
        let d = line_in_set(0, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        c.touch(a); // b is now LRU
        assert_eq!(c.insert(d, |_| true), Insert::Evicted(b));
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = tiny(2, 4);
        let a = line_in_set(1, 0, 4);
        let b = line_in_set(1, 1, 4);
        let d = line_in_set(1, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        // `a` is LRU but pinned: `b` must be evicted instead.
        assert_eq!(c.insert(d, |l| l != a), Insert::Evicted(b));
        assert!(c.contains(a));
    }

    #[test]
    fn all_pinned_yields_no_victim() {
        let mut c = tiny(2, 4);
        let a = line_in_set(2, 0, 4);
        let b = line_in_set(2, 1, 4);
        let d = line_in_set(2, 2, 4);
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        assert_eq!(c.insert(d, |_| false), Insert::NoVictim);
        assert!(!c.contains(d));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2, 4);
        c.insert(LineAddr::new(9), |_| true);
        assert!(c.invalidate(LineAddr::new(9)));
        assert!(!c.contains(LineAddr::new(9)));
        assert!(!c.invalidate(LineAddr::new(9)));
    }

    #[test]
    fn occupancy_counts() {
        let mut c = tiny(2, 4);
        assert_eq!(c.occupancy(), 0);
        c.insert(LineAddr::new(1), |_| true);
        c.insert(LineAddr::new(2), |_| true);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny(1, 4);
        for k in 0..4u64 {
            assert_eq!(c.insert(LineAddr::new(k), |_| true), Insert::Placed);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (
                to_bytes(&Way {
                    tag: Some(LineAddr::new(0x11)),
                    lru: 0x22,
                }),
                "0111000000000000002200000000000000",
            ),
            (
                to_bytes(&Way {
                    tag: None,
                    lru: 0x33,
                }),
                "003300000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
