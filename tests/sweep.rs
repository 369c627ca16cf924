//! Sweep-engine contract tests.
//!
//! The contract is host-independence: a sweep's results — the tables the
//! figures print and the `BENCH_<figure>.json` they write — must be
//! byte-identical whether the grid ran on 1, 2, or 8 workers, in whatever
//! completion order the scheduler produced. Resume must re-run exactly the
//! missing cells and converge to the same canonical bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use norush::common::config::CheckConfig;
use norush::sim::{
    bench_streams, ExperimentConfig, FigureResults, Machine, SimError, Sweep, SweepCheckpoint,
    SweepError, SweepEvent, SweepOptions, Variant,
};
use norush::workloads::Benchmark;

fn tiny_exp() -> ExperimentConfig {
    ExperimentConfig {
        cores: 4,
        instructions: 1_500,
        seed: 42,
        cycle_limit: 50_000_000,
        paper_caches: false,
        check: CheckConfig::default(),
    }
}

fn tiny_sweep(figure: &str) -> Sweep {
    Sweep::grid(
        figure,
        &tiny_exp(),
        &[Benchmark::Pc, Benchmark::Sps],
        &[Variant::eager(), Variant::lazy()],
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("norush_sweep_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Worker count must not leak into results: 2-worker and 8-worker runs are
/// byte-identical to `--jobs 1` in canonical JSON (wall-clock and
/// worker-count fields zeroed; everything else exact).
#[test]
fn results_are_identical_across_worker_counts() {
    let sweep = tiny_sweep("det");
    let run = |workers: usize| {
        sweep
            .run(&SweepOptions {
                workers,
                ..SweepOptions::default()
            })
            .expect("sweep runs")
            .canonical_json()
    };
    let one = run(1);
    assert_eq!(one, run(2), "2 workers diverged from 1 worker");
    assert_eq!(one, run(8), "8 workers diverged from 1 worker");
}

/// Deleting one cell from the results file re-runs exactly that job; the
/// rest are served from cache, and the final bytes match the original.
#[test]
fn resume_reruns_only_the_missing_cell() {
    let dir = temp_dir("resume");
    let path = dir.join("BENCH_resume.json");
    let sweep = tiny_sweep("resume");
    let original = sweep
        .run(&SweepOptions {
            workers: 2,
            results_path: Some(path.clone()),
            ..SweepOptions::default()
        })
        .expect("first run");

    // Knock one cell out of the persisted results.
    let mut damaged = FigureResults::load(&path).expect("loads");
    let removed = damaged.jobs.remove(1);
    damaged.save(&path).expect("saves");

    let ran = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    let progress = |ev: &SweepEvent<'_>| match ev {
        SweepEvent::Finished { label, .. } => {
            assert_eq!(*label, removed.label, "re-ran a cell that was cached");
            ran.fetch_add(1, Ordering::Relaxed);
        }
        SweepEvent::Cached { .. } => {
            cached.fetch_add(1, Ordering::Relaxed);
        }
    };
    let resumed = sweep
        .run(&SweepOptions {
            workers: 2,
            results_path: Some(path.clone()),
            resume: true,
            progress: Some(&progress),
            ..SweepOptions::default()
        })
        .expect("resumed run");

    assert_eq!(ran.load(Ordering::Relaxed), 1, "exactly one cell re-runs");
    assert_eq!(
        cached.load(Ordering::Relaxed),
        sweep.jobs.len() - 1,
        "every other cell is served from the file"
    );
    assert_eq!(
        resumed.canonical_json(),
        original.canonical_json(),
        "resume converges to the original bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A results file from a *different* sweep definition (mismatched config
/// fingerprint) must be ignored wholesale, not partially reused.
#[test]
fn resume_ignores_results_from_a_different_sweep() {
    let dir = temp_dir("stale");
    let path = dir.join("BENCH_stale.json");
    let sweep = tiny_sweep("stale");
    sweep
        .run(&SweepOptions {
            workers: 2,
            results_path: Some(path.clone()),
            ..SweepOptions::default()
        })
        .expect("first run");

    // Same figure name, different grid (seed changed) → different
    // fingerprints end to end.
    let mut other_exp = tiny_exp();
    other_exp.seed = 7;
    let other = Sweep::grid(
        "stale",
        &other_exp,
        &[Benchmark::Pc, Benchmark::Sps],
        &[Variant::eager(), Variant::lazy()],
    );
    let cached = AtomicUsize::new(0);
    let progress = |ev: &SweepEvent<'_>| {
        if matches!(ev, SweepEvent::Cached { .. }) {
            cached.fetch_add(1, Ordering::Relaxed);
        }
    };
    other
        .run(&SweepOptions {
            workers: 2,
            results_path: Some(path.clone()),
            resume: true,
            progress: Some(&progress),
            ..SweepOptions::default()
        })
        .expect("stale-file run");
    assert_eq!(
        cached.load(Ordering::Relaxed),
        0,
        "no cell of a different sweep may be reused"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full (non-canonical) file parses and round-trips: load → serialize
/// reproduces the exact bytes on disk (floats use shortest-round-trip
/// formatting everywhere).
#[test]
fn persisted_results_round_trip_exactly() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("BENCH_roundtrip.json");
    let sweep = tiny_sweep("roundtrip");
    sweep
        .run(&SweepOptions {
            workers: 2,
            results_path: Some(path.clone()),
            ..SweepOptions::default()
        })
        .expect("runs");
    let bytes = std::fs::read_to_string(&path).expect("file exists");
    let loaded = FigureResults::load(&path).expect("loads");
    assert_eq!(loaded.to_json(), bytes, "load→serialize is the identity");
    std::fs::remove_dir_all(&dir).ok();
}

/// `tiny_sweep(figure)` run with per-cell checkpoints every 2,000 cycles
/// into `dir` (the path `figure` takes under `NORUSH_CKPT_DIR`).
fn run_checkpointed(figure: &str, dir: &std::path::Path) -> Result<FigureResults, SweepError> {
    tiny_sweep(figure).run(&SweepOptions {
        workers: 2,
        checkpoint: Some(SweepCheckpoint {
            every: 2_000,
            dir: dir.to_path_buf(),
        }),
        ..SweepOptions::default()
    })
}

/// Where the sweep keeps the first cell's (`pc/eager`) checkpoint.
fn first_cell_checkpoint(figure: &str, dir: &std::path::Path) -> (String, std::path::PathBuf) {
    let job = &tiny_sweep(figure).jobs[0];
    let path = dir.join(format!("{figure}_{:016x}.ckpt", job.fingerprint()));
    (job.label.clone(), path)
}

fn is_empty(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).expect("dir exists").next().is_none()
}

/// Per-cell checkpoints change nothing in the results, and every finished
/// cell deletes its spent checkpoint.
#[test]
fn cell_checkpoints_leave_results_unchanged_and_clean_up() {
    let dir = temp_dir("ckpt_plain");
    let plain = tiny_sweep("ckpt")
        .run(&SweepOptions::default())
        .expect("runs");
    let checkpointed = run_checkpointed("ckpt", &dir).expect("runs");
    assert_eq!(checkpointed.canonical_json(), plain.canonical_json());
    assert!(
        is_empty(&dir),
        "a finished sweep leaves no checkpoint behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A cell whose checkpoint is already on disk resumes from it, converges
/// to the uninterrupted results, and deletes the file.
#[test]
fn cell_resumes_from_its_checkpoint() {
    let dir = temp_dir("ckpt_resume");
    let (_, path) = first_cell_checkpoint("ckpt", &dir);
    let exp = tiny_exp();
    let mut m = Machine::new(
        &Variant::eager().apply(exp.system()),
        bench_streams(Benchmark::Pc, &exp),
    );
    assert!(m.run_for(5_000).expect("clean run").is_none(), "mid-run");
    std::fs::write(&path, m.checkpoint().expect("checkpointable")).expect("writes");

    let plain = tiny_sweep("ckpt")
        .run(&SweepOptions::default())
        .expect("runs");
    let resumed = run_checkpointed("ckpt", &dir).expect("resumes");
    assert_eq!(resumed.canonical_json(), plain.canonical_json());
    assert!(!path.exists(), "the resumed cell deletes its checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt checkpoint fails its cell by name; the sweep does not quietly
/// start that cell over.
#[test]
fn corrupt_cell_checkpoint_fails_the_sweep() {
    let dir = temp_dir("ckpt_corrupt");
    let (label, path) = first_cell_checkpoint("ckpt", &dir);
    std::fs::write(&path, b"not a checkpoint").expect("writes");
    match run_checkpointed("ckpt", &dir) {
        Err(SweepError::Job {
            label: failed,
            error,
        }) => {
            assert_eq!(failed, label);
            assert!(matches!(*error, SimError::Checkpoint(_)), "{error}");
        }
        other => panic!("expected the cell to fail, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
