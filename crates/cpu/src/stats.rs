//! Per-core statistics: everything the paper's figures need.

use row_common::stats::{AtomicLatencyBreakdown, LogHistogram, RunningMean};
use row_common::Cycle;

/// Counters and accumulators gathered by one core over a run.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: u64,
    /// Atomic RMWs committed.
    pub atomics: u64,
    /// Atomics whose detector marked them contended.
    pub contended_atomics: u64,
    /// Atomics that executed eager (includes locality-override flips).
    pub atomics_eager: u64,
    /// Atomics that executed lazy.
    pub atomics_lazy: u64,
    /// Atomics that received data via store→atomic forwarding.
    pub atomics_forwarded: u64,
    /// Predicted-lazy atomics flipped eager by the locality override.
    pub locality_overrides: u64,
    /// Loads served by store→load forwarding from the SB.
    pub loads_forwarded: u64,
    /// Memory-order violations (load squashes trained into StoreSet).
    pub violations: u64,
    /// Loads squashed by external invalidations (TSO consistency).
    pub inv_squashes: u64,
    /// Deadlock-breaker firings (locked atomic squashed and retried lazy).
    pub deadlock_breaks: u64,
    /// Lock re-acquisitions: an atomic's line was stolen while it waited for
    /// older atomics to lock first (in-order lock acquisition).
    pub lock_reacquires: u64,
    /// Fig. 6 latency breakdown of committed atomics.
    pub breakdown: AtomicLatencyBreakdown,
    /// Full dispatch→unlock latency distribution of committed atomics,
    /// log-bucketed so soak runs can report p50/p99/p999 per policy.
    pub atomic_latency: LogHistogram,
    /// Fig. 4, first bar: instructions older than an atomic not yet executed
    /// when the atomic issued its memory request.
    pub older_unexecuted_at_issue: RunningMean,
    /// Fig. 4, second bar: instructions younger than an atomic that had
    /// already started executing when the atomic issued.
    pub younger_started_at_issue: RunningMean,
    /// Cycle this core finished its parallel phase (trace drained and
    /// pipeline empty).
    pub finished_at: Option<Cycle>,
}

impl CoreStats {
    /// Atomics per 10 000 committed instructions (Fig. 5, left axis).
    pub fn atomics_per_10k(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.atomics as f64 * 10_000.0 / self.committed as f64
        }
    }

    /// Fraction of atomics detected contended (Fig. 5, right axis).
    pub fn contended_fraction(&self) -> f64 {
        if self.atomics == 0 {
            0.0
        } else {
            self.contended_atomics as f64 / self.atomics as f64
        }
    }

    /// Merges another core's stats into this one (for whole-app aggregates).
    pub fn merge(&mut self, other: &CoreStats) {
        self.committed += other.committed;
        self.atomics += other.atomics;
        self.contended_atomics += other.contended_atomics;
        self.atomics_eager += other.atomics_eager;
        self.atomics_lazy += other.atomics_lazy;
        self.atomics_forwarded += other.atomics_forwarded;
        self.locality_overrides += other.locality_overrides;
        self.loads_forwarded += other.loads_forwarded;
        self.violations += other.violations;
        self.inv_squashes += other.inv_squashes;
        self.deadlock_breaks += other.deadlock_breaks;
        self.lock_reacquires += other.lock_reacquires;
        self.breakdown.merge(&other.breakdown);
        self.atomic_latency.merge(&other.atomic_latency);
        self.older_unexecuted_at_issue
            .merge(&other.older_unexecuted_at_issue);
        self.younger_started_at_issue
            .merge(&other.younger_started_at_issue);
        self.finished_at = match (self.finished_at, other.finished_at) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

row_common::codec_struct!(CoreStats {
    committed,
    atomics,
    contended_atomics,
    atomics_eager,
    atomics_lazy,
    atomics_forwarded,
    locality_overrides,
    loads_forwarded,
    violations,
    inv_squashes,
    deadlock_breaks,
    lock_reacquires,
    breakdown,
    atomic_latency,
    older_unexecuted_at_issue,
    younger_started_at_issue,
    finished_at,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CoreStats {
            committed: 20_000,
            atomics: 10,
            contended_atomics: 4,
            ..CoreStats::default()
        };
        assert!((s.atomics_per_10k() - 5.0).abs() < 1e-12);
        assert!((s.contended_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(CoreStats::default().atomics_per_10k(), 0.0);
        assert_eq!(CoreStats::default().contended_fraction(), 0.0);
    }

    #[test]
    fn merge_takes_latest_finish() {
        let mut a = CoreStats {
            finished_at: Some(Cycle::new(10)),
            committed: 1,
            ..CoreStats::default()
        };
        let b = CoreStats {
            finished_at: Some(Cycle::new(30)),
            committed: 2,
            ..CoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.finished_at, Some(Cycle::new(30)));
        assert_eq!(a.committed, 3);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let mut s = CoreStats {
            committed: 0x11,
            atomics: 0x12,
            contended_atomics: 0x13,
            atomics_eager: 0x14,
            atomics_lazy: 0x15,
            atomics_forwarded: 0x16,
            locality_overrides: 0x17,
            loads_forwarded: 0x18,
            violations: 0x19,
            inv_squashes: 0x1a,
            deadlock_breaks: 0x1b,
            lock_reacquires: 0x1c,
            finished_at: Some(Cycle::new(0x1d)),
            ..CoreStats::default()
        };
        s.breakdown.record(0x21, 0x22, 0x23);
        s.atomic_latency.add(0x24);
        s.older_unexecuted_at_issue.add(0x25);
        s.younger_started_at_issue.add(0x26);
        // The histogram's own (hand-written) bytes sit between the two
        // pinned runs.
        let histogram = to_hex(&to_bytes(&s.atomic_latency));
        let head = "1100000000000000120000000000000013000000000000001400000000000000150000000000000016000000000000001700000000000000180000000000000019000000000000001a000000000000001b000000000000001c00000000000000210000000000000000000000000000000100000000000000220000000000000000000000000000000100000000000000230000000000000000000000000000000100000000000000";
        let tail = "250000000000000000000000000000000100000000000000260000000000000000000000000000000100000000000000011d00000000000000";
        assert_eq!(to_hex(&to_bytes(&s)), format!("{head}{histogram}{tail}"));
    }
}
