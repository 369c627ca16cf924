//! The failing-case minimizer: the codebase's one greedy-zeroing pass and
//! one bisection pass.
//!
//! A failing run (watchdog stall, protocol violation, oracle mismatch,
//! forbidden litmus outcome) usually arrives with far more perturbation
//! than the bug needs, which makes the repro noisy. Each triage path turns
//! its failing input into a slice of integer knobs and shrinks it while the
//! failure predicate keeps holding, the way property-testing shrinkers do:
//!
//! 1. **Greedy elimination** (`zero_knobs`) — try zeroing each knob
//!    outright, keeping any zeroing that still fails, and repeat until no
//!    knob can be removed.
//! 2. **Binary search** (`bisect_knobs`) — for each surviving knob,
//!    binary-search the smallest value that still fails.
//!
//! The callers differ only in their knobs: [`shrink_chaos`] runs both passes
//! over a [`FaultConfig`]'s four intensities; `fuzz::minimize` zeroes
//! burst-presence flags, then bisects each survivor's window and magnitude,
//! then shrinks its chaos knobs here; explore zeroes decision-vector
//! alternatives. The predicate runs a full simulation per probe, so total
//! probes — `O(knobs² + knobs·log(max value))` — are a few dozen runs in
//! practice. Every result satisfies the predicate: knobs only ever move to
//! probed-and-failing values.

use row_common::config::FaultConfig;

/// Greedy elimination: zeroes each nonzero knob in turn, keeping the zero
/// whenever `fails` still holds for the whole slice, and repeats until a
/// pass zeroes nothing.
pub(crate) fn zero_knobs(knobs: &mut [u64], mut fails: impl FnMut(&[u64]) -> bool) {
    loop {
        let mut progress = false;
        for k in 0..knobs.len() {
            let was = knobs[k];
            if was == 0 {
                continue;
            }
            knobs[k] = 0;
            if fails(knobs) {
                progress = true;
            } else {
                knobs[k] = was;
            }
        }
        if !progress {
            break;
        }
    }
}

/// Binary search: lowers each nonzero knob, in slice order, to the smallest
/// value for which `fails` still holds (the knobs before it already
/// lowered, those after it as given).
pub(crate) fn bisect_knobs(knobs: &mut [u64], mut fails: impl FnMut(&[u64]) -> bool) {
    for k in 0..knobs.len() {
        // `hi` always names a probed-and-failing value.
        let mut hi = knobs[k];
        let mut lo = 0u64;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            knobs[k] = mid;
            if fails(knobs) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        knobs[k] = hi;
    }
}

/// Minimizes `initial` — which must fail — under the failure predicate
/// `fails`: both passes over `[extra latency, drop, dup, corrupt]`. The RNG
/// seed is never changed; only fault intensities shrink.
pub fn shrink_chaos(
    initial: FaultConfig,
    mut fails: impl FnMut(&FaultConfig) -> bool,
) -> FaultConfig {
    let with = |k: &[u64]| FaultConfig {
        max_extra_latency: k[0],
        drop_ppm: k[1] as u32,
        dup_ppm: k[2] as u32,
        corrupt_ppm: k[3] as u32,
        ..initial
    };
    let mut knobs = [
        initial.max_extra_latency,
        u64::from(initial.drop_ppm),
        u64::from(initial.dup_ppm),
        u64::from(initial.corrupt_ppm),
    ];
    zero_knobs(&mut knobs, |k| fails(&with(k)));
    bisect_knobs(&mut knobs, |k| fails(&with(k)));
    with(&knobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> FaultConfig {
        FaultConfig {
            seed: 7,
            max_extra_latency: 40,
            drop_ppm: 10_000,
            dup_ppm: 10_000,
            corrupt_ppm: 10_000,
        }
    }

    #[test]
    fn single_knob_threshold_shrinks_to_threshold() {
        let mut probes = 0u32;
        let min = shrink_chaos(full(), |c| {
            probes += 1;
            c.drop_ppm >= 137
        });
        assert_eq!(min.drop_ppm, 137);
        assert_eq!(min.max_extra_latency, 0);
        assert_eq!(min.dup_ppm, 0);
        assert_eq!(min.corrupt_ppm, 0);
        assert_eq!(min.seed, 7, "seed must never change");
        assert!(probes < 64, "shrink took {probes} probes");
    }

    #[test]
    fn conjunction_keeps_both_knobs_minimal() {
        let min = shrink_chaos(full(), |c| c.dup_ppm > 0 && c.max_extra_latency >= 5);
        assert_eq!(min.dup_ppm, 1);
        assert_eq!(min.max_extra_latency, 5);
        assert_eq!(min.drop_ppm, 0);
        assert_eq!(min.corrupt_ppm, 0);
    }

    #[test]
    fn result_always_fails() {
        // An awkward predicate (fails only on even drop rates above 100):
        // whatever comes out must itself satisfy it.
        let pred = |c: &FaultConfig| c.drop_ppm > 100 && c.drop_ppm.is_multiple_of(2);
        let mut cfg = full();
        cfg.drop_ppm = 10_000;
        assert!(pred(&cfg));
        let min = shrink_chaos(cfg, pred);
        assert!(pred(&min), "shrunk config no longer fails: {min:?}");
    }

    /// Pins every candidate each predicate is asked about, in order: the
    /// probe count, the fnv1a of the recorded probes, and the result.
    #[test]
    fn probe_sequences_are_pinned() {
        type Pred = fn(&FaultConfig) -> bool;
        let cases: [(Pred, usize, &str, &str); 3] = [
            (
                |c| c.drop_ppm >= 137,
                18,
                "b2b092b65d9dcc66",
                "7,0,137,0,0;",
            ),
            (
                |c| c.dup_ppm > 0 && c.max_extra_latency >= 5,
                25,
                "28e63590f058e259",
                "7,5,0,1,0;",
            ),
            (
                |c| (c.drop_ppm >= 321 || c.dup_ppm >= 500) && c.corrupt_ppm >= 3,
                32,
                "d8d311917fabc16d",
                "7,0,0,500,3;",
            ),
        ];
        let show = |c: &FaultConfig| {
            format!(
                "{},{},{},{},{};",
                c.seed, c.max_extra_latency, c.drop_ppm, c.dup_ppm, c.corrupt_ppm
            )
        };
        for (pred, probes, hash, result) in cases {
            let mut seen = String::new();
            let min = shrink_chaos(full(), |c| {
                seen.push_str(&show(c));
                pred(c)
            });
            assert_eq!(seen.matches(';').count(), probes, "{result}");
            let h = row_common::persist::fnv1a(seen.as_bytes());
            assert_eq!(format!("{h:016x}"), hash, "{result}");
            assert_eq!(show(&min), result);
        }
    }

    #[test]
    fn everything_irrelevant_shrinks_to_nothing() {
        let min = shrink_chaos(full(), |_| true);
        assert_eq!(
            (
                min.max_extra_latency,
                min.drop_ppm,
                min.dup_ppm,
                min.corrupt_ppm
            ),
            (0, 0, 0, 0)
        );
    }
}
