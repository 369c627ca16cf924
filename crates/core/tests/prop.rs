//! Randomized property tests for the RoW predictor and detectors.
//!
//! Driven by the in-tree deterministic [`SplitMix64`] instead of `proptest`
//! so the suite builds offline; the assertions are unchanged.

use row_common::clock::{Cycle, TIMESTAMP_MODULUS};
use row_common::config::{DetectorKind, PredictorKind, RowConfig};
use row_common::ids::Pc;
use row_common::rng::SplitMix64;
use row_core::detect::{marks_on_external, marks_on_fill};
use row_core::predictor::ContentionPredictor;
use row_core::RowEngine;

const KINDS: [PredictorKind; 2] = [PredictorKind::UpDown, PredictorKind::SaturateOnContention];

/// The XOR index never leaves the table, for any PC.
#[test]
fn index_is_always_in_range() {
    let mut rng = SplitMix64::new(0xc0de_0001);
    for _ in 0..256 {
        let pc = rng.next_u64();
        let entries = 1usize << rng.below(10);
        let p = ContentionPredictor::new(PredictorKind::UpDown, entries, 4, 1);
        assert!(p.index(Pc::new(pc)) < entries);
    }
}

/// Counters stay within [0, 2^bits) under any training sequence.
#[test]
fn counters_stay_bounded() {
    let mut rng = SplitMix64::new(0xc0de_0002);
    for _ in 0..64 {
        let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
        let bits = 1 + rng.below(5) as u32;
        let n = 1 + rng.below(300) as usize;
        let mut p = ContentionPredictor::new(kind, 64, bits, 1);
        for _ in 0..n {
            let pc = rng.next_u64();
            let contended = rng.chance(0.5);
            p.train(Pc::new(pc), contended);
            assert!(u32::from(p.counter(Pc::new(pc))) < (1 << bits));
        }
    }
}

/// A PC trained only with contention eventually predicts lazy; trained
/// only without, eventually predicts eager — for every predictor kind.
#[test]
fn training_converges() {
    let mut rng = SplitMix64::new(0xc0de_0003);
    for kind in KINDS {
        for _ in 0..16 {
            let pc = rng.next_u64();
            let mut row = RowEngine::new(RowConfig::new(DetectorKind::rw_dir_default(), kind));
            for _ in 0..20 {
                row.complete(Pc::new(pc), false, true);
            }
            assert!(row.predicts_contended(Pc::new(pc)));
            for _ in 0..20 {
                row.complete(Pc::new(pc), true, false);
            }
            assert!(!row.predicts_contended(Pc::new(pc)));
        }
    }
}

/// The ready window strictly contains the execution window: anything EW
/// marks, RW marks too.
#[test]
fn rw_window_contains_ew() {
    for addr_known in [false, true] {
        for locked in [false, true] {
            if marks_on_external(DetectorKind::ExecutionWindow, addr_known, locked) {
                assert!(marks_on_external(
                    DetectorKind::ReadyWindow,
                    addr_known,
                    locked
                ));
            }
        }
    }
}

/// The fill heuristic fires iff the sender is remote-private and the
/// 14-bit latency exceeds the threshold.
#[test]
fn fill_rule_matches_definition() {
    let mut rng = SplitMix64::new(0xc0de_0004);
    for _ in 0..512 {
        let issue = rng.below(1u64 << 30);
        let delta = rng.below(1u64 << 15);
        let threshold = rng.below(2_000);
        let remote = rng.chance(0.5);
        let k = DetectorKind::ReadyWindowDir {
            latency_threshold: threshold,
        };
        let fires = marks_on_fill(
            k,
            remote,
            Cycle::new(issue).timestamp14(),
            Cycle::new(issue + delta),
        );
        let expected = remote && (delta % TIMESTAMP_MODULUS) > threshold;
        assert_eq!(fires, expected);
    }
}

/// Accuracy counters always partition the total.
#[test]
fn accuracy_partitions() {
    let mut rng = SplitMix64::new(0xc0de_0005);
    for _ in 0..64 {
        let n = rng.below(200) as usize;
        let mut row = RowEngine::new(RowConfig::best());
        for _ in 0..n {
            row.complete(Pc::new(0x10), rng.chance(0.5), rng.chance(0.5));
        }
        let a = row.accuracy();
        assert_eq!(a.total() as usize, n);
        assert!(a.accuracy() >= 0.0 && a.accuracy() <= 1.0);
    }
}
