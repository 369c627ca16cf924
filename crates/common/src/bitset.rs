//! A dense set of small indices, visited in ascending order.
//!
//! The simulation loop keeps its per-cycle work lists as [`IndexSet`]s: the
//! cores to step this cycle and the private caches with queued requests.
//! Both must be visited in ascending index (message sequencing depends on
//! it), membership changes in O(1), and a set over `n` indices costs
//! `n / 8` bytes. Each core also keeps its ready instructions in one, by
//! program order modulo its ROB's size rounded up to a power of two.
//!
//! # Example
//!
//! ```
//! use row_common::bitset::IndexSet;
//!
//! let mut s = IndexSet::new(200);
//! s.insert(130);
//! s.insert(3);
//! assert_eq!(s.next_from(0), Some(3));
//! assert_eq!(s.next_from(4), Some(130));
//! s.remove(130);
//! assert_eq!(s.next_from(4), None);
//! ```

/// A set of indices below a fixed capacity, one bit per index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    /// An empty set over the indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Adds `i`.
    ///
    /// # Panics
    /// Panics if `i` is not below the capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` (a no-op when absent).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member at or above `from`, if any. Walking with
    /// `next_from(i + 1)` visits the set in ascending order and tolerates
    /// the removal of `i` in between.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.next_from(0);
        std::iter::from_fn(move || {
            let i = next?;
            next = self.next_from(i + 1);
            Some(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_members_in_ascending_order_across_words() {
        let mut s = IndexSet::new(300);
        for i in [299, 0, 64, 63, 128, 65] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 64, 65, 128, 299]);
        assert_eq!(s.next_from(66), Some(128));
        assert_eq!(s.next_from(300), None);
        s.remove(0);
        s.remove(0);
        assert!(!s.contains(0) && s.contains(299));
        assert!(!s.contains(1_000));
        assert!(!s.is_empty());
        assert!(IndexSet::new(300).is_empty());
    }

    #[test]
    fn removing_the_current_member_keeps_the_walk_going() {
        let mut s = IndexSet::new(71);
        for i in [70, 5, 1] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        let mut next = s.next_from(0);
        while let Some(i) = next {
            seen.push(i);
            s.remove(i);
            next = s.next_from(i + 1);
        }
        assert_eq!(seen, [1, 5, 70]);
        assert!(s.is_empty());
    }
}
