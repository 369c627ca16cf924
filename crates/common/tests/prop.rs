//! Randomized property tests for the shared foundations.
//!
//! These were originally written against `proptest`; they now drive the same
//! assertions from the crate's own deterministic [`SplitMix64`] so the suite
//! builds with no external dependencies (the build environment is offline).

use row_common::clock::{Cycle, TIMESTAMP_MODULUS};
use row_common::rng::SplitMix64;
use row_common::sched::EventQueue;
use row_common::stats::{LogHistogram, RunningMean};

/// Events always pop in nondecreasing cycle order, FIFO within a cycle.
#[test]
fn event_queue_orders_any_schedule() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _ in 0..64 {
        let n = 1 + rng.below(200) as usize;
        let pushes: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.below(1000), rng.below(100) as u32))
            .collect();
        let mut q = EventQueue::new();
        for (i, &(at, tag)) in pushes.iter().enumerate() {
            q.push(Cycle::new(at), (at, i, tag));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((at, i, _)) = q.pop_ready(Cycle::new(1000)) {
            if let Some((pat, pi)) = last {
                assert!(
                    at > pat || (at == pat && i > pi),
                    "out of order: ({at},{i}) after ({pat},{pi})"
                );
            }
            last = Some((at, i));
            popped += 1;
        }
        assert_eq!(popped, pushes.len());
    }
}

/// The 14-bit latency equals the true latency modulo 2^14 for any pair.
#[test]
fn timestamp14_latency_is_mod_2_14() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _ in 0..256 {
        let issue = rng.below(1u64 << 40);
        let delta = rng.below(1u64 << 20);
        let issued = Cycle::new(issue);
        let fill = Cycle::new(issue + delta);
        assert_eq!(
            fill.latency_since14(issued.timestamp14()),
            delta % TIMESTAMP_MODULUS
        );
    }
}

/// Histogram moments agree with a direct computation.
#[test]
fn histogram_moments_match_naive() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for _ in 0..64 {
        let n = 1 + rng.below(300) as usize;
        let samples: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut h = LogHistogram::new();
        let mut m = RunningMean::new();
        for &s in &samples {
            h.add(s);
            m.add(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max(), *samples.iter().max().unwrap());
        assert!((h.mean() - m.mean()).abs() < 1e-6);
        // Percentiles are monotone and never exceed the largest sample.
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p99 && p99 <= h.max());
    }
}

/// `below(n)` is always `< n`, for any seed.
#[test]
fn rng_below_is_bounded() {
    let mut seeder = SplitMix64::new(0x5eed_0004);
    for _ in 0..64 {
        let seed = seeder.next_u64();
        let bound = 1 + seeder.below(1_000_000);
        let mut r = SplitMix64::new(seed);
        for _ in 0..50 {
            assert!(r.below(bound) < bound);
        }
    }
}

/// Split streams never equal their parent's continuation.
#[test]
fn rng_split_diverges() {
    let mut seeder = SplitMix64::new(0x5eed_0005);
    for _ in 0..64 {
        let mut parent = SplitMix64::new(seeder.next_u64());
        let mut child = parent.split();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }
}
