//! A generic set-associative cache array with true-LRU replacement.
//!
//! The array tracks *presence* (tags) only; coherence state lives in the
//! controllers. Victim selection accepts an evictability predicate so cache
//! locking (Atomic Queue) can pin lines, exactly as the paper's AQ annotates
//! set/way to block evictions of locked lines.

use std::ops::Range;

use row_common::config::CacheConfig;
use row_common::ids::LineAddr;
use row_common::persist::{
    decode_sparse, encode_sparse, Codec, Persist, PersistError, Reader, Writer,
};

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

/// One way: 16 bytes, so a set's tags span few host cache lines.
#[derive(Clone, Debug, Default, PartialEq)]
struct Way {
    /// [`key`] of the line held, 0 when empty.
    key: u64,
    /// Larger = more recently used.
    lru: u64,
}

/// A line's nonzero tag key.
fn key(line: LineAddr) -> u64 {
    line.raw() + 1
}

impl Way {
    fn line(&self) -> Option<LineAddr> {
        (self.key != 0).then(|| LineAddr::new(self.key - 1))
    }
}

/// Set-associative tag array with true-LRU replacement.
///
/// A set's ways are allocated on its first insert, so an array costs the
/// sets a run touched. An unallocated set holds no line: `contains`,
/// `touch` and `invalidate` miss on it. Which sets are allocated is
/// representation, not state: it is never persisted or compared, and a
/// restore allocates only the sets its image lists a line in.
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
    /// Per set, 0 while unallocated, else 1 + the index of its block of
    /// `ways` ways in `pool`.
    slot: Vec<u32>,
    /// The allocated sets' ways, one block per set, in allocation order.
    pool: Vec<Way>,
    tick: u64,
}

impl CacheArray {
    /// Builds an array from a geometry description. No set is allocated.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets, or has 2^32
    /// sets or more.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(u32::try_from(sets).is_ok(), "too many cache sets: {sets}");
        CacheArray {
            sets,
            ways: cfg.ways,
            slot: vec![0; sets],
            pool: Vec::new(),
            tick: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) % self.sets
    }

    /// Where the ways of `set` sit in `pool`; empty while it is
    /// unallocated.
    fn block(&self, set: usize) -> Range<usize> {
        match self.slot[set] as usize {
            0 => 0..0,
            s => (s - 1) * self.ways..s * self.ways,
        }
    }

    /// The ways of `set`, allocating them empty on its first use.
    fn alloc(&mut self, set: usize) -> &mut [Way] {
        if self.slot[set] == 0 {
            self.pool
                .resize(self.pool.len() + self.ways, Way::default());
            self.slot[set] = (self.pool.len() / self.ways) as u32;
        }
        let block = self.block(set);
        &mut self.pool[block]
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
        self.pool[self.block(self.set_of(line))]
            .iter()
            .any(|w| w.key == key(line))
    }

    /// Looks up `line`, refreshing LRU on hit.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (block, key) = (self.block(self.set_of(line)), key(line));
        for w in &mut self.pool[block] {
            if w.key == key {
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
        let (set, key) = (self.set_of(line), key(line));
        let slice = self.alloc(set);
        // Already present?
        for w in slice.iter_mut() {
            if w.key == key {
                w.lru = tick;
                return Insert::Hit;
            }
        }
        // Empty way?
        for w in slice.iter_mut() {
            if w.key == 0 {
                w.key = key;
                w.lru = tick;
                return Insert::Placed;
            }
        }
        // LRU among evictable ways.
        let victim = slice
            .iter_mut()
            .filter(|w| w.line().is_some_and(&evictable))
            .min_by_key(|w| w.lru);
        match victim {
            Some(w) => {
                let old = w.line().expect("victim has a tag");
                w.key = key;
                w.lru = tick;
                Insert::Evicted(old)
            }
            None => Insert::NoVictim,
        }
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let (block, key) = (self.block(self.set_of(line)), key(line));
        for w in &mut self.pool[block] {
            if w.key == key {
                *w = Way::default();
                return true;
            }
        }
        false
    }

    /// Number of resident lines (O(allocated ways); for tests/stats).
    pub fn occupancy(&self) -> usize {
        self.pool.iter().filter(|w| w.key != 0).count()
    }
}

// The wire form is the line as an `Option`, then the LRU stamp.
impl Codec for Way {
    fn encode(&self, w: &mut Writer) {
        self.line().encode(w);
        self.lru.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let key = match Option::<LineAddr>::decode(r)? {
            None => 0,
            Some(line) => line
                .raw()
                .checked_add(1)
                .ok_or(PersistError::Corrupt("cache line address out of range"))?,
        };
        Ok(Way {
            key,
            lru: u64::decode(r)?,
        })
    }
}

impl Persist for CacheArray {
    // Geometry (sets/ways) is config-derived; tags and LRU state are
    // mutable. Way `k` of set `s` is entry `s * ways + k` of one sparse
    // table, so only occupied ways are written.
    fn persist(&self, w: &mut Writer) {
        let ways = self.ways;
        let occupied = (0..self.sets).flat_map(|set| {
            let base = set * ways;
            self.pool[self.block(set)]
                .iter()
                .enumerate()
                .map(move |(k, way)| (base + k, way))
        });
        encode_sparse(w, self.sets * ways, occupied);
        w.put_u64(self.tick);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.slot.fill(0);
        self.pool.clear();
        let ways = self.ways;
        decode_sparse(r, self.sets * ways, |i, way| {
            self.alloc(i / ways)[i % ways] = way;
        })?;
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
    fn sets_are_allocated_on_first_insert_only() {
        let mut c = tiny(2, 4);
        let (a, b) = (line_in_set(1, 0, 4), line_in_set(1, 1, 4));
        assert!(!c.touch(a) && !c.contains(a) && !c.invalidate(a));
        assert!(c.pool.is_empty(), "misses allocate nothing");
        c.insert(a, |_| true);
        c.insert(b, |_| true);
        assert_eq!(c.pool.len(), 2, "one set of two ways");
        assert!(c.invalidate(a) && c.invalidate(b));
        assert_eq!((c.pool.len(), c.occupancy()), (2, 0));
    }

    /// Allocation is not state: a restore keeps only the sets the image
    /// lists a line in, and writes the image back byte for byte.
    #[test]
    fn restore_allocates_only_the_listed_sets() {
        let mut c = tiny(2, 4);
        for k in 0..4 {
            c.insert(LineAddr::new(k), |_| true);
        }
        c.invalidate(LineAddr::new(0));
        let image = persisted(&c);
        let mut d = tiny(2, 4);
        d.insert(LineAddr::new(7), |_| true);
        d.restore(&mut Reader::new(&image)).unwrap();
        assert_eq!((d.pool.len(), d.occupancy()), (3 * 2, 3));
        assert!(!d.contains(LineAddr::new(0)) && !d.contains(LineAddr::new(7)));
        assert_eq!(persisted(&d), image);
    }

    fn persisted(c: &CacheArray) -> Vec<u8> {
        let mut w = Writer::new();
        c.persist(&mut w);
        w.into_bytes()
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        // Two sets of two ways: way 1 of set 1 is entry 3.
        let mut array = tiny(2, 2);
        array.insert(LineAddr::new(1), |_| true);
        array.insert(LineAddr::new(3), |_| true);
        array.invalidate(LineAddr::new(1));
        let pins = [
            (
                persisted(&array),
                "04000000000000000100000000000000\
                 03000000000000000103000000000000000200000000000000\
                 0200000000000000",
            ),
            (
                to_bytes(&Way {
                    key: key(LineAddr::new(0x11)),
                    lru: 0x22,
                }),
                "0111000000000000002200000000000000",
            ),
            (to_bytes(&Way { key: 0, lru: 0x33 }), "003300000000000000"),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
