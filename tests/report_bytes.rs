//! Golden bytes of every machine-readable report: `norush-figure-v1`,
//! `norush-soak-v1`, `norush-fuzz-v1` and `norush-litmus-v1`.
//!
//! Each test renders hand-built inputs and compares the result with a
//! committed file under `tests/golden/`, byte for byte. The reports are
//! diffed by CI and read back by resume, so any change to escaping, number
//! formatting or layout must show up here as a deliberate golden update.

use std::path::{Path, PathBuf};

use norush::common::config::{DelayBurst, FaultConfig, PerturbConfig};
use norush::common::coverage::{CoverageMap, SLOT_COUNT};
use norush::common::stats::{AccuracyCounter, JobStats, LogHistogram, TransportStats};
use norush::sim::explore::{self, ExploreReport, ExploreViolation};
use norush::sim::fuzz::{self, Finding, FuzzOptions, FuzzOutcome, FuzzState, ScheduleGenome};
use norush::sim::soak::{self, SoakOptions, SoakOutcome};
use norush::sim::{FigureResults, JobRecord};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Asserts that `actual` equals the committed golden file `name`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        actual == want,
        "{name} drifted from its golden bytes\n--- golden\n{want}\n--- rendered\n{actual}"
    );
}

fn coverage(slots: &[usize]) -> CoverageMap {
    let mut m = CoverageMap::new();
    for &s in slots {
        m.record(s);
    }
    m
}

// ---------------------------------------------------------------------------
// norush-figure-v1
// ---------------------------------------------------------------------------

fn stats(cycles: u64) -> JobStats {
    JobStats {
        cycles,
        committed: 160_000,
        atomics: 1_576,
        contended_atomics: 742,
        atomics_eager: 11,
        atomics_lazy: 1_565,
        atomics_forwarded: 3,
        locality_overrides: 2,
        remote_fills: 210,
        miss_latency_mean: 552.1,
        older_unexecuted_mean: 0.0,
        younger_started_mean: 1.0 / 3.0,
        breakdown_dispatch_to_issue: 5155.0,
        breakdown_issue_to_lock: 866.25,
        breakdown_lock_to_unlock: 5e-9,
        branch_miss_rate: 0.021,
        accuracy: None,
        transport: None,
    }
}

fn figure(jobs: Vec<JobRecord>) -> FigureResults {
    FigureResults {
        figure: "fig_golden".into(),
        cores: 4,
        instructions_per_core: 300,
        config_fingerprint: 0x0123_4567_89ab_cdef,
        jobs_used: 2,
        wall_s: 41.2516,
        jobs,
    }
}

fn figure_with_jobs() -> FigureResults {
    let full = JobStats {
        accuracy: Some(AccuracyCounter {
            true_contended: 10,
            true_uncontended: 20,
            false_contended: 3,
            false_uncontended: 4,
        }),
        transport: Some(TransportStats {
            sent: 1_000,
            delivered: 990,
            retries: 7,
            nack_retransmits: 2,
            drops_injected: 5,
            dups_injected: 6,
            corrupts_injected: 1,
            dup_dropped: 6,
            corrupt_dropped: 1,
            acks_sent: 980,
            giveups: 0,
        }),
        ..stats(123_456)
    };
    figure(vec![
        JobRecord {
            label: "pc/row".into(),
            fingerprint: 0x93ad_62cb_bf00_1c3e,
            stats: full,
            wall_s: 1.2044,
            retried: false,
        },
        JobRecord {
            label: "pc/\"odd\" label".into(),
            fingerprint: 7,
            stats: stats(98_765),
            wall_s: 0.0004,
            retried: true,
        },
    ])
}

#[test]
fn figure_report_bytes() {
    let r = figure_with_jobs();
    assert_golden("figure.json", &r.to_json());
    assert_golden("figure_canonical.json", &r.canonical_json());
}

#[test]
fn empty_figure_report_bytes() {
    assert_golden("figure_empty.json", &figure(Vec::new()).to_json());
}

#[test]
fn figure_golden_files_load_back_to_the_same_bytes() {
    for name in ["figure.json", "figure_empty.json"] {
        let loaded = FigureResults::load(&golden_path(name)).expect("golden file loads");
        assert_golden(name, &loaded.to_json());
    }
    let loaded = FigureResults::load(&golden_path("figure.json")).expect("golden file loads");
    let want = figure_with_jobs();
    assert_eq!(loaded.jobs.len(), 2);
    for (got, want) in loaded.jobs.iter().zip(&want.jobs) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.fingerprint, want.fingerprint);
        assert_eq!(got.stats, want.stats, "stats round-trip exactly");
        assert_eq!(got.retried, want.retried);
    }
}

// ---------------------------------------------------------------------------
// norush-soak-v1
// ---------------------------------------------------------------------------

#[test]
fn soak_report_bytes() {
    let opts = SoakOptions {
        phases: 2,
        cores: 4,
        seed: 7,
        policies: vec!["lazy".into(), "row".into()],
        phase_cycles: 500_000,
        ..SoakOptions::default()
    };
    let mut lat = LogHistogram::new();
    for s in [10, 20, 20, 300, 4_000, 65_000] {
        lat.add(s);
    }
    let outcomes = [
        SoakOutcome {
            phase: 0,
            kernel: "counter",
            policy: "lazy".into(),
            chaos: Some(FaultConfig {
                seed: 1,
                max_extra_latency: 40,
                drop_ppm: 200,
                dup_ppm: 200,
                corrupt_ppm: 100,
            }),
            status: "ok",
            error: None,
            cycles: 123_456,
            ipc: 1.234_567_89,
            atomics: 789,
            lat: Some(lat),
            checker: Some((1_200, 300, 17)),
        },
        SoakOutcome {
            phase: 1,
            kernel: "mpmc-queue",
            policy: "row".into(),
            chaos: None,
            status: "violation",
            error: Some("oracle: \"lost\" update\n  at cycle 5\tword \\0x40\r\u{1}".into()),
            cycles: 999,
            ipc: 0.0,
            atomics: 0,
            lat: None,
            checker: None,
        },
    ];
    assert_golden("soak.json", &soak::report_json(&opts, &outcomes));
}

// ---------------------------------------------------------------------------
// norush-fuzz-v1
// ---------------------------------------------------------------------------

fn fuzz_state() -> FuzzState {
    FuzzState {
        generation: 3,
        runs_done: 48,
        global: coverage(&[0, 1, 5, 40, 60, SLOT_COUNT - 1]),
        corpus: Vec::new(),
    }
}

#[test]
fn clean_fuzz_report_bytes() {
    let outcome = FuzzOutcome {
        state: fuzz_state(),
        finding: None,
    };
    assert_golden(
        "fuzz_clean.json",
        &fuzz::report_json(&FuzzOptions::smoke("lazy"), &outcome),
    );
}

#[test]
fn fuzz_finding_report_bytes() {
    let mut opts = FuzzOptions::smoke("row");
    opts.planted_bug = true;
    let mut perturb = PerturbConfig::default();
    perturb.push(DelayBurst {
        start: 1_000,
        len: 256,
        extra: 40,
        salt: 0xdead_beef,
    });
    perturb.push(DelayBurst {
        start: 9_000,
        len: 64,
        extra: 1,
        salt: u64::MAX,
    });
    let genome = ScheduleGenome {
        fault: FaultConfig {
            seed: 11,
            max_extra_latency: 12,
            drop_ppm: 300,
            dup_ppm: 0,
            corrupt_ppm: 50,
        },
        perturb,
    };
    let outcome = FuzzOutcome {
        state: fuzz_state(),
        finding: Some(Finding {
            kind: "protocol",
            error: "protocol violation: \"Unblock\" from core 2\nline 0x40".into(),
            generation: 2,
            candidate: 5,
            genome,
            minimized: ScheduleGenome::neutral(),
            minimized_error: "protocol violation\tminimized".into(),
        }),
    };
    assert_golden("fuzz_finding.json", &fuzz::report_json(&opts, &outcome));
}

// ---------------------------------------------------------------------------
// norush-litmus-v1
// ---------------------------------------------------------------------------

fn cell(test: &str, policy: &str) -> ExploreReport {
    ExploreReport {
        test: test.into(),
        policy: policy.into(),
        runs: 8,
        states: 0,
        dedup_hits: 0,
        dpor_pruned: 0,
        max_decision_points: 6,
        outcomes: [(vec![0, 1], 5), (vec![1, 1], 3)].into_iter().collect(),
        unwitnessed: Vec::new(),
        violation: None,
        truncated: false,
        coverage: coverage(&[2, 3]),
    }
}

#[test]
fn litmus_report_with_a_violation_bytes() {
    let bad = ExploreReport {
        outcomes: [(vec![0, 0], 1), (vec![1, 0], 7)].into_iter().collect(),
        unwitnessed: vec![vec![1, 1], vec![0, 1]],
        violation: Some(ExploreViolation {
            kind: "forbidden-outcome".into(),
            detail: "outcome (0,0) is \"forbidden\"\nunder TSO".into(),
            schedule: vec![0, 2, 0, 1],
            minimized: vec![0, 1],
            minimized_detail: "outcome (0,0)".into(),
        }),
        coverage: coverage(&[3, 4, 50]),
        ..cell("sb", "lazy")
    };
    let cells = [cell("sb", "eager"), bad];
    assert_golden(
        "litmus_violation.json",
        &explore::report_json("sample", &[("samples", 8), ("seed", 42)], &cells),
    );
}

#[test]
fn litmus_report_with_every_outcome_witnessed_bytes() {
    let explored = ExploreReport {
        states: 120,
        dedup_hits: 31,
        dpor_pruned: 9,
        truncated: true,
        ..cell("mp", "row")
    };
    let cells = [cell("sb", "row"), explored];
    assert_golden(
        "litmus_ok.json",
        &explore::report_json("explore", &[("depth", 10), ("delays", 2)], &cells),
    );
}
