//! Statistics primitives used to regenerate the paper's figures.
//!
//! These are deliberately simple value types: simulators mutate them on the
//! hot path, experiment runners read them out at the end, and the benchmark
//! harness formats them into the rows/series the paper reports.

use std::fmt;

use crate::json::Value;
use crate::persist::{Codec, PersistError, Reader, Writer};

/// An online mean over `u64` samples.
///
/// # Example
/// ```
/// use row_common::stats::RunningMean;
/// let mut m = RunningMean::new();
/// m.add(10);
/// m.add(20);
/// assert_eq!(m.mean(), 15.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunningMean {
    sum: u128,
    count: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        RunningMean { sum: 0, count: 0 }
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: u64) {
        self.sum += sample as u128;
        self.count += 1;
    }

    /// The mean of all samples, or 0.0 if none were added.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub const fn sum(&self) -> u128 {
        self.sum
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Sub-buckets per power-of-two octave in a [`LogHistogram`].
const LOG_HIST_SUBS: usize = 4;

/// Total buckets in a [`LogHistogram`]: 4 exact buckets for 0..=3 plus 4
/// sub-buckets for each octave `[2^m, 2^(m+1))`, `m` in 2..=63.
const LOG_HIST_BUCKETS: usize = LOG_HIST_SUBS + 62 * LOG_HIST_SUBS;

/// A log-bucketed latency histogram with sub-buckets per octave.
///
/// Plain power-of-two buckets would put a p999 up to 2x away from the true
/// sample. This histogram splits every octave `[2^m, 2^(m+1))` into 4
/// linear sub-buckets, bounding the relative quantization error to ~25%
/// while staying a fixed 252-slot array — small enough to sit in per-core
/// stats and cheap enough for the commit path. Values 0..=3 get exact
/// buckets.
///
/// # Example
/// ```
/// use row_common::stats::LogHistogram;
/// let mut h = LogHistogram::new();
/// for v in [10u64, 20, 30, 40, 5000] {
///     h.add(v);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.percentile(0.5);
/// assert!((20..=40).contains(&p50), "p50 {p50}");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; LOG_HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for a sample.
    fn bucket(sample: u64) -> usize {
        if sample < LOG_HIST_SUBS as u64 {
            return sample as usize;
        }
        let msb = 63 - sample.leading_zeros() as usize;
        let sub = ((sample >> (msb - 2)) & 0b11) as usize;
        (msb - 1) * LOG_HIST_SUBS + sub
    }

    /// Inclusive upper bound of bucket `i` (the value `percentile` reports).
    fn bucket_upper(i: usize) -> u64 {
        if i < LOG_HIST_SUBS {
            return i as u64;
        }
        let msb = i / LOG_HIST_SUBS + 1;
        let sub = (i % LOG_HIST_SUBS) as u64;
        // Last sub-bucket of the top octave would overflow; saturate.
        let base = 1u128 << msb;
        let width = 1u128 << (msb - 2);
        let upper = base + width * (sub as u128 + 1) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: u64) {
        self.buckets[Self::bucket(sample)] += 1;
        self.count += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the sub-bucket containing the `q` quantile (`q` in
    /// \[0,1\]), clamped to the largest sample. Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Codec for LogHistogram {
    fn encode(&self, w: &mut Writer) {
        self.buckets.encode(w);
        w.put_u64(self.count);
        w.put_u128(self.sum);
        w.put_u64(self.max);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let buckets = Vec::<u64>::decode(r)?;
        if buckets.len() != LOG_HIST_BUCKETS {
            return Err(PersistError::Corrupt("log histogram bucket count"));
        }
        Ok(LogHistogram {
            buckets,
            count: r.get_u64()?,
            sum: r.get_u128()?,
            max: r.get_u64()?,
        })
    }
}

/// The three-segment atomic latency breakdown of Fig. 6:
/// dispatch→issue, issue→lock, lock→unlock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AtomicLatencyBreakdown {
    /// Cycles from dispatch until the atomic's memory request issues.
    pub dispatch_to_issue: RunningMean,
    /// Cycles from issue until the cacheline is locked in the L1D.
    pub issue_to_lock: RunningMean,
    /// Cycles the cacheline stays locked (lock until STU writes and unlocks).
    pub lock_to_unlock: RunningMean,
}

impl AtomicLatencyBreakdown {
    /// Creates an empty breakdown.
    pub const fn new() -> Self {
        AtomicLatencyBreakdown {
            dispatch_to_issue: RunningMean::new(),
            issue_to_lock: RunningMean::new(),
            lock_to_unlock: RunningMean::new(),
        }
    }

    /// Records one completed atomic.
    pub fn record(&mut self, dispatch_to_issue: u64, issue_to_lock: u64, lock_to_unlock: u64) {
        self.dispatch_to_issue.add(dispatch_to_issue);
        self.issue_to_lock.add(issue_to_lock);
        self.lock_to_unlock.add(lock_to_unlock);
    }

    /// Mean total dispatch→unlock latency.
    pub fn total_mean(&self) -> f64 {
        self.dispatch_to_issue.mean() + self.issue_to_lock.mean() + self.lock_to_unlock.mean()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &AtomicLatencyBreakdown) {
        self.dispatch_to_issue.merge(&other.dispatch_to_issue);
        self.issue_to_lock.merge(&other.issue_to_lock);
        self.lock_to_unlock.merge(&other.lock_to_unlock);
    }
}

impl fmt::Display for AtomicLatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d→i {:.1} | i→l {:.1} | l→u {:.1}",
            self.dispatch_to_issue.mean(),
            self.issue_to_lock.mean(),
            self.lock_to_unlock.mean()
        )
    }
}

/// Prediction-accuracy bookkeeping for Fig. 12.
///
/// A prediction is *correct* when the predicted class (contended or not)
/// matches the detector's outcome for that atomic instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccuracyCounter {
    /// Predicted contended, detected contended.
    pub true_contended: u64,
    /// Predicted non-contended, detected non-contended.
    pub true_uncontended: u64,
    /// Predicted contended, detected non-contended.
    pub false_contended: u64,
    /// Predicted non-contended, detected contended.
    pub false_uncontended: u64,
}

impl AccuracyCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        AccuracyCounter {
            true_contended: 0,
            true_uncontended: 0,
            false_contended: 0,
            false_uncontended: 0,
        }
    }

    /// Records one (prediction, outcome) pair.
    pub fn record(&mut self, predicted_contended: bool, detected_contended: bool) {
        match (predicted_contended, detected_contended) {
            (true, true) => self.true_contended += 1,
            (false, false) => self.true_uncontended += 1,
            (true, false) => self.false_contended += 1,
            (false, true) => self.false_uncontended += 1,
        }
    }

    /// Total predictions recorded.
    pub const fn total(&self) -> u64 {
        self.true_contended + self.true_uncontended + self.false_contended + self.false_uncontended
    }

    /// Fraction of correct predictions, or 1.0 when nothing was recorded
    /// (an app with no atomics has a vacuously perfect predictor).
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            (self.true_contended + self.true_uncontended) as f64 / t as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &AccuracyCounter) {
        self.true_contended += other.true_contended;
        self.true_uncontended += other.true_uncontended;
        self.false_contended += other.false_contended;
        self.false_uncontended += other.false_uncontended;
    }
}

/// Counters of the recoverable memory-system transport under lossy chaos.
///
/// Injection counters (`*_injected`) record what the fault model did to the
/// wire; recovery counters (`retries`, `nack_retransmits`, `dup_dropped`,
/// `corrupt_dropped`) record what the transport did about it. In a healthy
/// run `delivered == sent` (exactly-once delivery) and `giveups == 0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransportStats {
    /// Logical messages submitted for sequenced delivery.
    pub sent: u64,
    /// Logical messages handed to a protocol endpoint (each exactly once).
    pub delivered: u64,
    /// Timeout-driven retransmissions.
    pub retries: u64,
    /// Retransmissions answered to a corruption NACK.
    pub nack_retransmits: u64,
    /// Transmissions the fault model dropped on the wire.
    pub drops_injected: u64,
    /// Transmissions the fault model duplicated on the wire.
    pub dups_injected: u64,
    /// Transmissions whose payload the fault model corrupted.
    pub corrupts_injected: u64,
    /// Arrivals discarded as duplicates (already delivered or buffered).
    pub dup_dropped: u64,
    /// Arrivals discarded on checksum mismatch (then NACKed).
    pub corrupt_dropped: u64,
    /// Acknowledgements sent by receivers.
    pub acks_sent: u64,
    /// Messages abandoned after the retransmission budget ran out. Any
    /// non-zero value is an error surfaced through the protocol-error path.
    pub giveups: u64,
}

impl TransportStats {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &TransportStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.retries += other.retries;
        self.nack_retransmits += other.nack_retransmits;
        self.drops_injected += other.drops_injected;
        self.dups_injected += other.dups_injected;
        self.corrupts_injected += other.corrupts_injected;
        self.dup_dropped += other.dup_dropped;
        self.corrupt_dropped += other.corrupt_dropped;
        self.acks_sent += other.acks_sent;
        self.giveups += other.giveups;
    }
}

crate::codec_struct!(TransportStats {
    sent,
    delivered,
    retries,
    nack_retransmits,
    drops_injected,
    dups_injected,
    corrupts_injected,
    dup_dropped,
    corrupt_dropped,
    acks_sent,
    giveups,
});

crate::codec_struct!(RunningMean { sum, count });

crate::codec_struct!(AtomicLatencyBreakdown {
    dispatch_to_issue,
    issue_to_lock,
    lock_to_unlock,
});

crate::codec_struct!(AccuracyCounter {
    true_contended,
    true_uncontended,
    false_contended,
    false_uncontended,
});

/// Every scalar metric one sweep job produces, in a form that serializes
/// to the per-figure `BENCH_<fig>.json` records and parses back losslessly
/// (sweep resume re-renders cached jobs byte-identically to fresh runs).
///
/// This is the figure-facing projection of a simulation run: the sim crate
/// converts its `RunResult` into one of these, the bench harness formats
/// tables from them, and the sweep engine persists them.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct JobStats {
    /// Parallel-phase execution time in cycles.
    pub cycles: u64,
    /// Instructions committed, all cores.
    pub committed: u64,
    /// Atomic RMWs committed.
    pub atomics: u64,
    /// Atomics whose detector marked them contended.
    pub contended_atomics: u64,
    /// Atomics executed eagerly (includes locality-override flips).
    pub atomics_eager: u64,
    /// Atomics executed lazily.
    pub atomics_lazy: u64,
    /// Atomics fed by store→atomic forwarding.
    pub atomics_forwarded: u64,
    /// Predicted-lazy atomics flipped eager by the locality override.
    pub locality_overrides: u64,
    /// Fills served cache-to-cache from remote private caches.
    pub remote_fills: u64,
    /// Mean L1D miss latency in cycles (Fig. 11).
    pub miss_latency_mean: f64,
    /// Mean older not-yet-executed instructions at eager issue (Fig. 4).
    pub older_unexecuted_mean: f64,
    /// Mean younger already-started instructions at lazy issue (Fig. 4).
    pub younger_started_mean: f64,
    /// Mean dispatch→issue segment of the atomic latency (Fig. 6).
    pub breakdown_dispatch_to_issue: f64,
    /// Mean issue→lock segment (Fig. 6).
    pub breakdown_issue_to_lock: f64,
    /// Mean lock→unlock segment (Fig. 6).
    pub breakdown_lock_to_unlock: f64,
    /// Fraction of branch predictions that missed.
    pub branch_miss_rate: f64,
    /// RoW contention-prediction quadrants, when the RoW policy ran.
    pub accuracy: Option<AccuracyCounter>,
    /// Recoverable-transport counters, when the run used lossy chaos.
    pub transport: Option<TransportStats>,
}

impl JobStats {
    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Atomics per 10 000 committed instructions (Fig. 5).
    pub fn atomics_per_10k(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.atomics as f64 * 10_000.0 / self.committed as f64
        }
    }

    /// Fraction of atomics detected contended (Fig. 5).
    pub fn contended_fraction(&self) -> f64 {
        if self.atomics == 0 {
            0.0
        } else {
            self.contended_atomics as f64 / self.atomics as f64
        }
    }

    /// Mean dispatch→unlock atomic latency (Fig. 6 total).
    pub fn breakdown_total(&self) -> f64 {
        self.breakdown_dispatch_to_issue
            + self.breakdown_issue_to_lock
            + self.breakdown_lock_to_unlock
    }

    /// Timeout retries plus NACK retransmissions (0 without lossy chaos).
    pub fn transport_retries(&self) -> u64 {
        self.transport.map_or(0, |t| t.retries + t.nack_retransmits)
    }

    /// The stats as one JSON object, field order fixed so identical stats
    /// always render identically.
    pub fn to_json(&self) -> Value {
        crate::object! {
            "cycles": self.cycles,
            "committed": self.committed,
            "atomics": self.atomics,
            "contended_atomics": self.contended_atomics,
            "atomics_eager": self.atomics_eager,
            "atomics_lazy": self.atomics_lazy,
            "atomics_forwarded": self.atomics_forwarded,
            "locality_overrides": self.locality_overrides,
            "remote_fills": self.remote_fills,
            "miss_latency_mean": self.miss_latency_mean,
            "older_unexecuted_mean": self.older_unexecuted_mean,
            "younger_started_mean": self.younger_started_mean,
            "breakdown_dispatch_to_issue": self.breakdown_dispatch_to_issue,
            "breakdown_issue_to_lock": self.breakdown_issue_to_lock,
            "breakdown_lock_to_unlock": self.breakdown_lock_to_unlock,
            "branch_miss_rate": self.branch_miss_rate,
            "accuracy": self.accuracy.map(|a| crate::object! {
                "true_contended": a.true_contended,
                "true_uncontended": a.true_uncontended,
                "false_contended": a.false_contended,
                "false_uncontended": a.false_uncontended,
            }),
            "transport": self.transport.map(|t| crate::object! {
                "sent": t.sent,
                "delivered": t.delivered,
                "retries": t.retries,
                "nack_retransmits": t.nack_retransmits,
                "drops_injected": t.drops_injected,
                "dups_injected": t.dups_injected,
                "corrupts_injected": t.corrupts_injected,
                "dup_dropped": t.dup_dropped,
                "corrupt_dropped": t.corrupt_dropped,
                "acks_sent": t.acks_sent,
                "giveups": t.giveups,
            }),
        }
    }

    /// Parses a [`JobStats::to_json`] object back.
    ///
    /// Returns `None` when any required field is missing or ill-typed (the
    /// caller treats that as "cell absent" and re-runs the job).
    pub fn from_json(v: &Value) -> Option<JobStats> {
        let u = |k: &str| v.get(k).and_then(Value::as_u64);
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        let accuracy = match v.get("accuracy") {
            None | Some(Value::Null) => None,
            Some(a) => {
                let q = |k: &str| a.get(k).and_then(Value::as_u64);
                Some(AccuracyCounter {
                    true_contended: q("true_contended")?,
                    true_uncontended: q("true_uncontended")?,
                    false_contended: q("false_contended")?,
                    false_uncontended: q("false_uncontended")?,
                })
            }
        };
        let transport = match v.get("transport") {
            None | Some(Value::Null) => None,
            Some(t) => {
                let q = |k: &str| t.get(k).and_then(Value::as_u64);
                Some(TransportStats {
                    sent: q("sent")?,
                    delivered: q("delivered")?,
                    retries: q("retries")?,
                    nack_retransmits: q("nack_retransmits")?,
                    drops_injected: q("drops_injected")?,
                    dups_injected: q("dups_injected")?,
                    corrupts_injected: q("corrupts_injected")?,
                    dup_dropped: q("dup_dropped")?,
                    corrupt_dropped: q("corrupt_dropped")?,
                    acks_sent: q("acks_sent")?,
                    giveups: q("giveups")?,
                })
            }
        };
        Some(JobStats {
            cycles: u("cycles")?,
            committed: u("committed")?,
            atomics: u("atomics")?,
            contended_atomics: u("contended_atomics")?,
            atomics_eager: u("atomics_eager")?,
            atomics_lazy: u("atomics_lazy")?,
            atomics_forwarded: u("atomics_forwarded")?,
            locality_overrides: u("locality_overrides")?,
            remote_fills: u("remote_fills")?,
            miss_latency_mean: f("miss_latency_mean")?,
            older_unexecuted_mean: f("older_unexecuted_mean")?,
            younger_started_mean: f("younger_started_mean")?,
            breakdown_dispatch_to_issue: f("breakdown_dispatch_to_issue")?,
            breakdown_issue_to_lock: f("breakdown_issue_to_lock")?,
            breakdown_lock_to_unlock: f("breakdown_lock_to_unlock")?,
            branch_miss_rate: f("branch_miss_rate")?,
            accuracy,
            transport,
        })
    }
}

/// Geometric mean of a slice of ratios, ignoring non-positive entries.
/// Returns 1.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        1.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basic() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.add(4);
        m.add(8);
        assert_eq!(m.mean(), 6.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum(), 12);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.add(10);
        let mut b = RunningMean::new();
        b.add(20);
        b.add(30);
        a.merge(&b);
        assert_eq!(a.mean(), 20.0);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn log_histogram_buckets_are_contiguous_and_ordered() {
        // Every sample must land in a bucket whose bounds contain it, and
        // bucket indices must be monotone in the sample value.
        let mut last = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 2, u64::MAX]) {
            let b = LogHistogram::bucket(v);
            assert!(b >= last, "bucket index regressed at {v}");
            assert!(v <= LogHistogram::bucket_upper(b), "{v} above its bucket");
            last = b;
        }
        assert!(LogHistogram::bucket(u64::MAX) < LOG_HIST_BUCKETS);
    }

    #[test]
    fn log_histogram_percentiles_are_tight() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.add(v);
        }
        // Sub-bucketing bounds relative error to ~25%; power-of-two buckets
        // would report up to 2x here.
        let p50 = h.percentile(0.5);
        assert!((500..=640).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(1.0), 1000);
        assert!(h.percentile(0.5) <= h.percentile(0.999));
        assert_eq!(LogHistogram::new().percentile(0.5), 0);
    }

    #[test]
    fn log_histogram_merge_and_roundtrip() {
        let mut a = LogHistogram::new();
        a.add(3);
        a.add(70);
        let mut b = LogHistogram::new();
        b.add(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 5000);
        assert_eq!(crate::persist::roundtrip(&a).unwrap(), a);
    }

    #[test]
    fn breakdown_records_and_totals() {
        let mut b = AtomicLatencyBreakdown::new();
        b.record(10, 20, 30);
        b.record(20, 40, 60);
        assert_eq!(b.dispatch_to_issue.mean(), 15.0);
        assert_eq!(b.total_mean(), 15.0 + 30.0 + 45.0);
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn accuracy_counts_quadrants() {
        let mut a = AccuracyCounter::new();
        a.record(true, true);
        a.record(false, false);
        a.record(true, false);
        a.record(false, true);
        assert_eq!(a.total(), 4);
        assert_eq!(a.accuracy(), 0.5);
    }

    #[test]
    fn accuracy_empty_is_perfect() {
        assert_eq!(AccuracyCounter::new().accuracy(), 1.0);
    }

    #[test]
    fn transport_stats_merge_and_roundtrip() {
        let mut a = TransportStats {
            sent: 10,
            delivered: 10,
            retries: 3,
            nack_retransmits: 1,
            drops_injected: 2,
            dups_injected: 4,
            corrupts_injected: 1,
            dup_dropped: 4,
            corrupt_dropped: 1,
            acks_sent: 14,
            giveups: 0,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.sent, 20);
        assert_eq!(a.retries, 6);
        assert_eq!(crate::persist::roundtrip(&a).unwrap(), a);
    }

    #[test]
    fn job_stats_round_trip_through_json() {
        let s = JobStats {
            cycles: 123_456,
            committed: 48_000,
            atomics: 300,
            contended_atomics: 120,
            atomics_eager: 180,
            atomics_lazy: 120,
            atomics_forwarded: 7,
            locality_overrides: 3,
            remote_fills: 99,
            miss_latency_mean: 161.25,
            older_unexecuted_mean: 48.5,
            younger_started_mean: 1.0 / 3.0,
            breakdown_dispatch_to_issue: 10.125,
            breakdown_issue_to_lock: 0.0,
            breakdown_lock_to_unlock: 5e-3,
            branch_miss_rate: 0.0123,
            accuracy: Some(AccuracyCounter {
                true_contended: 1,
                true_uncontended: 2,
                false_contended: 3,
                false_uncontended: 4,
            }),
            transport: Some(TransportStats {
                sent: 10,
                delivered: 10,
                retries: 1,
                ..TransportStats::default()
            }),
        };
        let json = s.to_json().to_string();
        let v = crate::json::parse(&json).expect("valid JSON");
        let back = JobStats::from_json(&v).expect("complete record");
        assert_eq!(back, s);
        // Re-serialization is byte-identical — what sweep resume relies on.
        assert_eq!(back.to_json().to_string(), json);
    }

    #[test]
    fn job_stats_none_fields_and_derived_rates() {
        let s = JobStats {
            cycles: 100,
            committed: 250,
            atomics: 10,
            contended_atomics: 4,
            ..JobStats::default()
        };
        let v = crate::json::parse(&s.to_json().to_string()).unwrap();
        let back = JobStats::from_json(&v).unwrap();
        assert_eq!(back.accuracy, None);
        assert_eq!(back.transport, None);
        assert_eq!(back.transport_retries(), 0);
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.atomics_per_10k() - 400.0).abs() < 1e-12);
        assert!((s.contended_fraction() - 0.4).abs() < 1e-12);
        // Missing required field => None, not a panic.
        let broken = crate::json::parse("{\"cycles\": 1}").unwrap();
        assert!(JobStats::from_json(&broken).is_none());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
        // Non-positive entries are ignored, not propagated as NaN.
        assert!((geomean(&[4.0, 0.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use crate::persist::{to_bytes, to_hex};
        let pins = [
            (
                to_bytes(&TransportStats {
                    sent: 0x11,
                    delivered: 0x22,
                    retries: 0x33,
                    nack_retransmits: 0x44,
                    drops_injected: 0x55,
                    dups_injected: 0x66,
                    corrupts_injected: 0x77,
                    dup_dropped: 0x88,
                    corrupt_dropped: 0x99,
                    acks_sent: 0xaa,
                    giveups: 0xbb,
                }),
                "110000000000000022000000000000003300000000000000440000000000000055000000000000006600000000000000770000000000000088000000000000009900000000000000aa00000000000000bb00000000000000",
            ),
            (
                to_bytes(&RunningMean {
                    sum: 0x1122_3344_5566_7788_99aa,
                    count: 0xbb,
                }),
                "aa998877665544332211000000000000bb00000000000000",
            ),
            (
                to_bytes(&AtomicLatencyBreakdown {
                    dispatch_to_issue: RunningMean {
                        sum: 0x11,
                        count: 0x22,
                    },
                    issue_to_lock: RunningMean {
                        sum: 0x33,
                        count: 0x44,
                    },
                    lock_to_unlock: RunningMean {
                        sum: 0x55,
                        count: 0x66,
                    },
                }),
                "110000000000000000000000000000002200000000000000330000000000000000000000000000004400000000000000550000000000000000000000000000006600000000000000",
            ),
            (
                to_bytes(&AccuracyCounter {
                    true_contended: 0x11,
                    true_uncontended: 0x22,
                    false_contended: 0x33,
                    false_uncontended: 0x44,
                }),
                "1100000000000000220000000000000033000000000000004400000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
