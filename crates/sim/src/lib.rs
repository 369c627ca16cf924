//! Multicore simulation orchestration and the experiment runner.
//!
//! * [`machine`] — [`Machine`]: N cores + the shared memory system stepped
//!   to completion, producing a [`RunResult`] with every metric the paper's
//!   figures need.
//! * [`experiment`] — the benchmark runner ([`run_benchmark`] on a
//!   [`Variant`]'s system, plus its checkpointed form), the RoW
//!   detector × predictor variants, the Fig. 2 microbenchmark runner and
//!   [`ExperimentConfig`] scaling (`quick` vs `paper`).
//! * [`checkpoint`] — the on-disk checkpoint container (atomic writes,
//!   magic/version/config-hash/checksum validation) backing
//!   [`Machine::checkpoint`](machine::Machine::checkpoint) and crash-resilient
//!   sweeps.
//! * [`shrink`] — the one failing-case minimizer: a greedy knob-zeroing
//!   pass and a per-knob binary search over integer knobs, used by the
//!   chaos shrinker, the fuzzer and the explorer for minimal repros.
//! * [`sweep`] — the declarative sweep engine: each figure as a
//!   [`Sweep`] of `(benchmark × variant × seed)` [`Job`]s executed by a
//!   scoped-thread worker pool with deterministic job-order aggregation,
//!   timeout retry, incremental `BENCH_<figure>.json` persistence
//!   ([`FigureResults`]) and fingerprint-matched resume.
//! * [`fuzz`](mod@fuzz) — the coverage-guided protocol-schedule fuzzer behind
//!   `norush fuzz`: delay-burst/chaos genomes mutated against the
//!   transition-coverage map, deterministic generation batches over the
//!   sweep worker pool, schedule minimization and soak-style triage on any
//!   violation, and the `norush-fuzz-v1` report.
//! * [`explore`](mod@explore) — the litmus conformance runner and bounded-exhaustive
//!   schedule explorer behind `norush litmus`/`norush explore`: DFS over
//!   message-delivery and atomic-commit decision points with partial-order
//!   reduction and state-hash dedup, checking declared forbidden outcomes
//!   unreachable and allowed outcomes witnessed (`norush-litmus-v1`), with
//!   its report renderer and triage bundle writer.
//! * [`soak`] — the phased lock-service soak behind `norush soak`:
//!   kernel-rotating, chaos-escalating phases with the online
//!   linearizability checker armed, checkpointed cells under cycle and wall
//!   budgets, triage on the first violation, and the `norush-soak-v1`
//!   report.
//! * [`triage`] — the shared failure-triage bundle writers (`--repro-dir`
//!   rotation, failure/journal-tail/checkpoint files, chaos
//!   shrink-and-report) used by `run`, `soak`, `fuzz`, and `explore`.
//!
//! The five command-line policy names (`eager`, `lazy`, `row`, `row-fwd`,
//! `far`) resolve in one place, [`Variant::by_name`].
//!
//! # Example
//!
//! ```no_run
//! use row_sim::{run_benchmark, ExperimentConfig, Variant};
//! use row_workloads::Benchmark;
//!
//! let exp = ExperimentConfig::quick();
//! let eager = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Pc, &exp)?;
//! let lazy = run_benchmark(&Variant::lazy().apply(exp.system()), Benchmark::Pc, &exp)?;
//! println!("pc: lazy/eager = {:.2}", lazy.cycles as f64 / eager.cycles as f64);
//! # Ok::<(), row_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiment;
pub mod explore;
pub mod fuzz;
pub mod machine;
pub mod shrink;
pub mod soak;
pub mod sweep;
pub mod triage;

pub use experiment::{
    bench_streams, microbench_cycle_limit, run_benchmark, run_benchmark_checkpointed,
    run_microbench, run_microbench_result, ExperimentConfig, RowVariant,
};
pub use explore::{
    explore, fmt_outcome, run_litmus, run_schedule, run_schedule_full, schedule_from_hex,
    schedule_to_hex, ExploreOptions, ExploreReport, ExploreViolation, ScheduleRun, LITMUS_SCHEMA,
};
pub use fuzz::{
    fuzz, minimize, report_json, write_triage, Finding, FuzzOptions, FuzzOutcome, FuzzState,
    ScheduleGenome, FUZZ_SCHEMA, GEN_CANDIDATES,
};
pub use machine::{Machine, ProfileReport, RewindReport, RunResult, SimError, SimTimeout};
pub use shrink::shrink_chaos;
pub use sweep::{
    available_workers, parallel_map, parse_workers, FigureResults, Job, JobRecord, JobSpec, Sweep,
    SweepCheckpoint, SweepError, SweepEvent, SweepOptions, Variant,
};
