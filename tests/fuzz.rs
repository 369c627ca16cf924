//! End-to-end tests for the coverage-guided protocol-schedule fuzzer:
//! the planted early-unblock directory bug is found within a bounded
//! budget and its minimized schedule replays deterministically; clean
//! campaigns report zero findings with nonzero coverage under every
//! policy; and campaigns are byte-identical across worker counts and
//! across kill-and-resume.

mod bundle;

use norush::sim::fuzz::{self, FuzzOptions, FuzzState, ScheduleGenome};

/// Budget used by the planted-bug tests — must stay within the CI smoke
/// budget (`norush fuzz --budget 64` in the workflow).
const PLANTED_BUDGET: u64 = 64;

fn planted_opts() -> FuzzOptions {
    let mut opts = FuzzOptions::smoke("lazy");
    opts.budget = PLANTED_BUDGET;
    opts.planted_bug = true;
    opts
}

#[test]
fn fuzzer_finds_planted_early_unblock_bug() {
    let opts = planted_opts();
    let outcome = fuzz::fuzz(&opts, FuzzState::new(), |_| {}).expect("valid config");
    let finding = outcome
        .finding
        .expect("planted early-unblock race must surface within the smoke budget");
    assert!(
        outcome.state.runs_done <= PLANTED_BUDGET,
        "campaign must stop at the first finding"
    );
    // The minimized schedule replays the violation deterministically.
    let replay = |g: &ScheduleGenome| {
        fuzz::run_one(&opts, g)
            .expect("valid config")
            .violation
            .map(|e| e.to_string())
    };
    let first = replay(&finding.minimized).expect("minimized schedule must still fail");
    let second = replay(&finding.minimized).expect("minimized schedule must fail every time");
    assert_eq!(first, second, "minimized replay must be deterministic");
    assert_eq!(first, finding.minimized_error);
    // And round-trips through the hex repro form.
    let hex = finding.minimized.to_hex();
    let decoded = ScheduleGenome::from_hex(&hex).expect("hex genome round-trips");
    assert_eq!(decoded, finding.minimized);
    // Its triage bundle is pinned byte for byte.
    let dir = std::env::temp_dir().join(format!("norush-fuzz-planted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fuzz::write_triage(&opts, &finding, &dir).expect("triage bundle written");
    bundle::assert_pinned(
        &dir,
        &[
            ("fuzz.ckpt", "f8e0f5454636d955"),
            ("fuzz_failure.txt", "639536bf64c068c4"),
            ("journal_tail.txt", "08e248171ea9bcc5"),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_campaigns_find_nothing_but_cover_transitions() {
    for policy in ["eager", "lazy", "row"] {
        let mut opts = FuzzOptions::smoke(policy);
        opts.budget = 16;
        let outcome = fuzz::fuzz(&opts, FuzzState::new(), |_| {}).expect("valid config");
        assert!(
            outcome.finding.is_none(),
            "clean {policy} campaign must report zero findings"
        );
        assert!(
            outcome.state.global.covered() > 0,
            "clean {policy} campaign must still light coverage"
        );
        assert_eq!(outcome.state.runs_done, 16);
    }
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let mut opts = FuzzOptions::smoke("lazy");
    opts.budget = 24;
    let run = |jobs: usize| {
        let mut o = opts.clone();
        o.jobs = jobs;
        let outcome = fuzz::fuzz(&o, FuzzState::new(), |_| {}).expect("valid config");
        fuzz::report_json(&o, &outcome)
    };
    assert_eq!(
        run(1),
        run(4),
        "worker count must not influence the campaign"
    );
}

#[test]
fn kill_and_resume_is_bit_exact() {
    let mut opts = FuzzOptions::smoke("lazy");
    opts.budget = 24;
    // Straight-through reference campaign.
    let full = fuzz::fuzz(&opts, FuzzState::new(), |_| {}).expect("valid config");
    // "Killed" campaign: stop after the first generation boundary by
    // snapshotting the persisted state bytes there, then resume from them.
    let fp = opts.fingerprint();
    let mut first_boundary: Option<Vec<u8>> = None;
    let mut part = opts.clone();
    part.budget = fuzz::GEN_CANDIDATES as u64; // one generation, then stop
    let partial = fuzz::fuzz(&part, FuzzState::new(), |s| {
        if first_boundary.is_none() {
            first_boundary = Some(s.to_bytes(fp));
        }
    })
    .expect("valid config");
    assert_eq!(partial.state.generation, 1);
    let restored =
        FuzzState::from_bytes(&first_boundary.expect("one boundary fired"), fp).expect("roundtrip");
    assert_eq!(
        restored, partial.state,
        "boundary snapshot equals final state"
    );
    let resumed = fuzz::fuzz(&opts, restored, |_| {}).expect("valid config");
    assert_eq!(resumed.state, full.state, "resume must be bit-exact");
    assert_eq!(
        fuzz::report_json(&opts, &resumed),
        fuzz::report_json(&opts, &full),
        "resumed report must match the straight-through report byte for byte"
    );
}
