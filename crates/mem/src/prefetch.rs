//! IP-stride prefetcher for the L1D (Table I lists one).
//!
//! Classic design: a small table indexed by load PC tracking the last address
//! and the last observed stride; two consecutive equal strides train the
//! entry, after which the next `degree` lines along the stride are prefetched.

use row_common::ids::{Addr, LineAddr, Pc};
use row_common::persist::{Persist, PersistError, Reader, SparseTable, Writer};

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// An IP (instruction-pointer) stride prefetcher.
///
/// # Example
/// ```
/// use row_common::ids::{Addr, Pc};
/// use row_mem::prefetch::IpStridePrefetcher;
///
/// let mut p = IpStridePrefetcher::new(64, 2);
/// let pc = Pc::new(0x400);
/// assert!(p.observe(pc, Addr::new(0)).is_empty());    // first touch
/// assert!(p.observe(pc, Addr::new(64)).is_empty());   // stride learned
/// assert!(!p.observe(pc, Addr::new(128)).is_empty()); // confident: prefetch
/// ```
#[derive(Clone, Debug)]
pub struct IpStridePrefetcher {
    table: SparseTable<StrideEntry>,
    degree: u64,
}

impl IpStridePrefetcher {
    /// Creates a prefetcher with `entries` table slots issuing `degree`
    /// prefetches per trigger.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize, degree: u64) -> Self {
        assert!(entries > 0, "prefetcher needs at least one entry");
        IpStridePrefetcher {
            table: SparseTable::new(entries),
            degree,
        }
    }

    /// Observes a demand load and returns the lines to prefetch (possibly
    /// empty).
    pub fn observe(&mut self, pc: Pc, addr: Addr) -> Vec<LineAddr> {
        let idx = (pc.raw() as usize ^ (pc.raw() >> 8) as usize) % self.table.len();
        let e = &mut self.table[idx];
        let mut out = Vec::new();
        if e.tag != pc.raw() {
            *e = StrideEntry {
                tag: pc.raw(),
                last_addr: addr.raw(),
                stride: 0,
                confidence: 0,
            };
            return out;
        }
        let stride = addr.raw() as i64 - e.last_addr as i64;
        if stride != 0 && stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            e.stride = stride;
        }
        e.last_addr = addr.raw();
        if e.confidence >= 1 && e.stride != 0 {
            for k in 1..=self.degree {
                let target = addr.raw() as i64 + e.stride * k as i64;
                if target >= 0 {
                    let line = Addr::new(target as u64).line();
                    if line != addr.line() && !out.contains(&line) {
                        out.push(line);
                    }
                }
            }
        }
        out
    }
}

row_common::codec_struct!(StrideEntry {
    tag,
    last_addr,
    stride,
    confidence,
});

impl Persist for IpStridePrefetcher {
    // Table size and degree are config-derived; only the training state
    // moves, written sparse.
    fn persist(&self, w: &mut Writer) {
        self.table.persist(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.table.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_stride_trains_and_prefetches() {
        let mut p = IpStridePrefetcher::new(16, 2);
        let pc = Pc::new(0x1000);
        assert!(p.observe(pc, Addr::new(0)).is_empty());
        assert!(p.observe(pc, Addr::new(128)).is_empty());
        let pf = p.observe(pc, Addr::new(256));
        assert_eq!(pf, vec![Addr::new(384).line(), Addr::new(512).line()]);
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut p = IpStridePrefetcher::new(16, 2);
        let pc = Pc::new(0x2000);
        let mut issued = 0;
        for a in [5u64, 977, 13, 40_001, 7, 90_000] {
            issued += p.observe(pc, Addr::new(a * 8)).len();
        }
        assert_eq!(issued, 0);
    }

    #[test]
    fn small_strides_within_line_do_not_duplicate_line() {
        let mut p = IpStridePrefetcher::new(16, 4);
        let pc = Pc::new(0x3000);
        p.observe(pc, Addr::new(0));
        p.observe(pc, Addr::new(8));
        let pf = p.observe(pc, Addr::new(16));
        // stride 8: next lines are 24..48 — all in line 0, filtered out.
        assert!(pf.is_empty(), "got {pf:?}");
    }

    #[test]
    fn pc_collision_retags() {
        let mut p = IpStridePrefetcher::new(1, 1);
        p.observe(Pc::new(1), Addr::new(0));
        p.observe(Pc::new(1), Addr::new(64));
        // Different PC lands in the same (only) slot and resets it.
        assert!(p.observe(Pc::new(2), Addr::new(4096)).is_empty());
        // Original PC must retrain from scratch.
        assert!(p.observe(Pc::new(1), Addr::new(128)).is_empty());
    }

    #[test]
    fn negative_stride_prefetches_backwards() {
        let mut p = IpStridePrefetcher::new(16, 1);
        let pc = Pc::new(0x4000);
        p.observe(pc, Addr::new(1024));
        p.observe(pc, Addr::new(896));
        let pf = p.observe(pc, Addr::new(768));
        assert_eq!(pf, vec![Addr::new(640).line()]);
    }

    #[test]
    fn never_prefetches_negative_addresses() {
        let mut p = IpStridePrefetcher::new(16, 2);
        let pc = Pc::new(0x5000);
        p.observe(pc, Addr::new(256));
        p.observe(pc, Addr::new(128));
        let pf = p.observe(pc, Addr::new(0));
        assert!(pf.is_empty(), "got {pf:?}");
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [(
            to_bytes(&StrideEntry {
                tag: 0x11,
                last_addr: 0x22,
                stride: -0x33,
                confidence: 3,
            }),
            "11000000000000002200000000000000cdffffffffffffff03",
        )];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
