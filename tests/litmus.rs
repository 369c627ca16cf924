//! TSO litmus conformance: sampling, bounded-exhaustive exploration, and
//! the planted-bug regression path.
//!
//! These are the teeth of the `norush litmus`/`norush explore` machinery:
//! every declared-forbidden outcome must stay unreachable under every
//! policy, the explorer must *witness* every allowed outcome of the core
//! four tests (SB/MP/LB/IRIW), and the planted `--inject-early-unblock`
//! directory bug must be found and minimize to a deterministic repro.

mod bundle;

use norush::sim::{explore, run_litmus, run_schedule, ExploreOptions};
use norush::workloads::litmus::{LitmusTest, OutcomeClass};

fn opts(policy: &str) -> ExploreOptions {
    ExploreOptions {
        policy: policy.into(),
        ..ExploreOptions::default()
    }
}

const POLICIES: &[&str] = &["eager", "lazy", "row"];

#[test]
fn sampling_full_suite_conforms_under_every_policy() {
    for policy in POLICIES {
        for test in LitmusTest::all() {
            let r = run_litmus(&test, &opts(policy), 8, 42).unwrap();
            assert!(
                r.violation.is_none(),
                "{policy}/{}: {:?}",
                test.name,
                r.violation.map(|v| (v.kind, v.detail))
            );
            assert_eq!(r.runs, 8);
        }
    }
}

#[test]
fn explore_sb_witnesses_all_four_outcomes() {
    for policy in POLICIES {
        let test = LitmusTest::sb();
        let r = explore(&test, &opts(policy)).unwrap();
        assert!(
            r.violation.is_none(),
            "{policy}: {:?}",
            r.violation.map(|v| v.detail)
        );
        assert!(
            r.unwitnessed.is_empty(),
            "{policy}: unwitnessed {:?} after {} runs, outcomes {:?}",
            r.unwitnessed,
            r.runs,
            r.outcomes.keys().collect::<Vec<_>>()
        );
        assert!(!r.truncated);
    }
}

#[test]
fn explore_mp_and_lb_forbidden_unreachable_and_allowed_witnessed() {
    for policy in POLICIES {
        for test in [LitmusTest::mp(), LitmusTest::lb()] {
            let r = explore(&test, &opts(policy)).unwrap();
            assert!(
                r.violation.is_none(),
                "{policy}/{}: {:?}",
                test.name,
                r.violation.map(|v| (v.kind, v.detail))
            );
            assert!(
                r.unwitnessed.is_empty(),
                "{policy}/{}: unwitnessed {:?} after {} runs",
                test.name,
                r.unwitnessed,
                r.runs
            );
        }
    }
}

#[test]
fn explore_iriw_forbidden_unreachable_and_allowed_witnessed() {
    // IRIW has 4 cores and 15 allowed outcomes; explore under one policy
    // to keep the test inside CI budgets (the CLI smoke and nightly lane
    // cover the full cross). The hardest outcome, (1,0,0,0), takes four
    // deviations — hold both GetX and one reader's GetS past the L3-miss
    // round trip, then hold the invalidation that would otherwise squash
    // and replay that reader's other load — and the invalidation send is a
    // late decision point, hence the raised bounds.
    let test = LitmusTest::iriw();
    let mut o = opts("eager");
    o.max_decisions = 13;
    o.max_delays = 4;
    let r = explore(&test, &o).unwrap();
    assert!(r.violation.is_none(), "{:?}", r.violation.map(|v| v.detail));
    assert!(
        r.unwitnessed.is_empty(),
        "unwitnessed {:?} after {} runs",
        r.unwitnessed,
        r.runs
    );
}

#[test]
fn explore_rmw_fence_tests_conform() {
    for policy in POLICIES {
        for test in [LitmusTest::sb_rmw(), LitmusTest::mp_rmw()] {
            let r = explore(&test, &opts(policy)).unwrap();
            assert!(
                r.violation.is_none(),
                "{policy}/{}: {:?}",
                test.name,
                r.violation.map(|v| (v.kind, v.detail))
            );
        }
    }
}

#[test]
fn dedup_and_dpor_actually_prune() {
    let r = explore(&LitmusTest::sb(), &opts("eager")).unwrap();
    // The delay-bounded tree over 9 ternary decisions with at most 3
    // deviations has sum_{w<=3} C(9,w)*2^w = 835 prefixes; dedup + DPOR
    // must cut a visible share of them.
    assert!(r.runs < 835, "no pruning happened ({} runs)", r.runs);
    assert!(r.dedup_hits + r.dpor_pruned > 0);
    assert!(r.states > 0);
}

#[test]
fn planted_early_unblock_bug_is_found_and_minimizes() {
    // The buggy arm is GetS-served-from-Shared, which takes three readers
    // of one line (Exclusive grant, downgrade to Shared, then the
    // Shared-state grant) plus a racing writer whose transaction the stray
    // Unblock can release prematurely — exactly the 3r1w shape.
    let test = LitmusTest::r3w1();
    // Sanity: without the bug the same bounded exploration is clean.
    let clean = explore(&test, &opts("eager")).unwrap();
    assert!(
        clean.violation.is_none(),
        "unplanted 3r1w must explore clean: {:?}",
        clean.violation.map(|v| (v.kind, v.detail))
    );
    let mut o = opts("eager");
    o.planted_bug = true;
    let r = explore(&test, &o).unwrap();
    let v = r
        .violation
        .expect("explore must catch the planted early-unblock bug");
    assert!(v.minimized.len() <= v.schedule.len());
    assert!(
        !v.minimized_detail.is_empty() && !v.minimized_detail.contains("did not reproduce"),
        "minimized schedule must still violate: {}",
        v.minimized_detail
    );
    // The minimized schedule replays deterministically to a violation.
    let replay = run_schedule(&test, &o, &v.minimized).unwrap();
    let violated = replay.error.is_some()
        || replay.timed_out
        || replay
            .outcome
            .as_ref()
            .is_some_and(|out| test.classify(out) != OutcomeClass::Allowed);
    assert!(violated, "minimized replay did not reproduce");
    // Its triage bundle is pinned byte for byte.
    let dir = std::env::temp_dir().join(format!("norush-explore-planted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp repro dir");
    norush::sim::explore::write_triage(&test, &o, &v, &dir);
    // The online checker observed no record before the violation, so the
    // journal tail is empty.
    bundle::assert_pinned(
        &dir,
        &[
            ("explore_failure.txt", "efd9c0091d71a6c1"),
            ("journal_tail.txt", "cbf29ce484222325"),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn litmus_runs_light_protocol_coverage() {
    let r = run_litmus(&LitmusTest::sb_rmw(), &opts("eager"), 4, 7).unwrap();
    assert!(r.coverage.covered() > 0, "litmus runs must record coverage");
}
