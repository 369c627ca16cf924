//! The declarative sweep engine: every paper figure as a parallel grid run.
//!
//! Each evaluation figure is a grid of `(benchmark × variant ×
//! config-override)` cells, and every cell is one deterministic,
//! state-sharing-free [`Machine`] run — so the sweep layer is embarrassingly
//! parallel at the host level. Every figure of the `figure` driver runs
//! through this one engine:
//!
//! * [`Job`] / [`JobSpec`] / [`Variant`] — one declarative cell: which
//!   benchmark, which policy knobs, which scale, which seed.
//! * [`Sweep`] — a named collection of jobs, built from grid axes
//!   ([`Sweep::grid`]) or pushed individually ([`Sweep::push`]).
//! * [`Sweep::run`] — a std-only scoped-thread worker pool that pulls jobs
//!   from a shared queue, retries cycle-budget timeouts once with a raised
//!   budget, reports per-job progress through a callback, and aggregates
//!   results **in job order regardless of completion order**, so `--jobs 8`
//!   is byte-identical to `--jobs 1`.
//! * [`FigureResults`] — the unified `BENCH_<figure>.json` container every
//!   figure writes (schema in `results/README.md`): figure id, config
//!   fingerprint, per-job stats, wall-clock, workers used. The file is
//!   rewritten atomically after every finished job, so a killed sweep leaves
//!   a loadable partial result.
//! * Resume — [`SweepOptions::resume`] loads an existing results file and
//!   skips every job whose config fingerprint matches a stored cell; a
//!   killed `paper`-scale sweep restarts from the first missing cell. This
//!   composes with per-run checkpointing ([`SweepOptions::checkpoint`]):
//!   the cell that was mid-flight when the process died resumes from its
//!   on-disk machine checkpoint instead of from cycle zero.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use row_common::config::{AtomicPlacement, AtomicPolicy, FenceModel, RowConfig};
use row_common::json::{self, parse, Value};
use row_common::object;
use row_common::persist::{fnv1a, write_atomic};
use row_common::stats::JobStats;
use row_common::SystemConfig;
use row_workloads::{Benchmark, MicroRmw, MicroVariant};

use crate::experiment::{
    bench_streams, microbench_cycle_limit, run_benchmark_checkpointed, run_microbench_result,
    ExperimentConfig, RowVariant,
};
use crate::machine::{Machine, RunResult, SimError};

/// Schema identifier stamped into every `BENCH_<figure>.json`.
pub const FIGURE_SCHEMA: &str = "norush-figure-v1";

/// Budget multiplier applied when a timed-out job is retried.
pub const RETRY_BUDGET_FACTOR: u64 = 4;

/// A named policy/placement/structure configuration — one point on the
/// "variant" axis of a sweep grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Variant {
    /// Short name used in job labels (`"eager"`, `"RW+Dir_U/D+fwd"`, `"aq4"`).
    pub name: String,
    /// The atomic execution policy.
    pub policy: AtomicPolicy,
    /// Store→atomic forwarding enabled.
    pub forwarding: bool,
    /// Near (cache-locked) or far (at-home) atomic placement.
    pub placement: AtomicPlacement,
    /// Atomic Queue depth override (`None` keeps the scale's default).
    pub aq_entries: Option<usize>,
}

impl Variant {
    /// A custom-named variant of `policy` with all structure knobs default.
    pub fn custom(name: impl Into<String>, policy: AtomicPolicy) -> Self {
        Variant {
            name: name.into(),
            policy,
            forwarding: false,
            placement: AtomicPlacement::default(),
            aq_entries: None,
        }
    }

    /// The always-eager baseline.
    pub fn eager() -> Self {
        Variant::custom("eager", AtomicPolicy::Eager)
    }

    /// Always-lazy execution.
    pub fn lazy() -> Self {
        Variant::custom("lazy", AtomicPolicy::Lazy)
    }

    /// Eager with store→atomic forwarding (Fig. 13's `eager+Fwd`).
    pub fn eager_fwd() -> Self {
        Variant::custom("eager+fwd", AtomicPolicy::Eager).with_forwarding()
    }

    /// Far atomics: the RMW executes at the home directory bank.
    pub fn far() -> Self {
        let mut v = Variant::custom("far", AtomicPolicy::Eager);
        v.placement = AtomicPlacement::Far;
        v
    }

    /// A RoW variant, forwarding disabled (Fig. 9 style).
    pub fn row(v: RowVariant) -> Self {
        Variant::custom(v.name(), AtomicPolicy::Row(v.config()))
    }

    /// A RoW variant with the locality override and forwarding (Fig. 13).
    pub fn row_fwd(v: RowVariant) -> Self {
        Variant::custom(
            format!("{}+fwd", v.name()),
            AtomicPolicy::Row(v.config().with_locality_override(true)),
        )
        .with_forwarding()
    }

    /// Returns the variant with store→atomic forwarding enabled.
    pub fn with_forwarding(mut self) -> Self {
        self.forwarding = true;
        self
    }

    /// Returns the variant with an Atomic Queue depth override.
    pub fn with_aq_entries(mut self, entries: usize) -> Self {
        self.aq_entries = Some(entries);
        self
    }

    /// The command-line policy table, in `norush compare` order: `eager`,
    /// `lazy`, `row` (best RoW, no locality override), `row-fwd` (best RoW
    /// with the override and store→atomic forwarding, §IV-E) and `far`
    /// (§VII).
    pub fn policy_table() -> [Variant; 5] {
        [
            Variant::eager(),
            Variant::lazy(),
            Variant::custom(
                "row",
                AtomicPolicy::Row(RowConfig::best().with_locality_override(false)),
            ),
            Variant::custom("row-fwd", AtomicPolicy::Row(RowConfig::best())).with_forwarding(),
            Variant::far(),
        ]
    }

    /// Looks `name` up in [`Variant::policy_table`]. Every tool that takes
    /// a `--policy` name resolves it here.
    ///
    /// # Errors
    /// `unknown policy` for any other name.
    pub fn by_name(name: &str) -> Result<Variant, String> {
        Variant::policy_table()
            .into_iter()
            .find(|v| v.name == name)
            .ok_or_else(|| format!("unknown policy `{name}`"))
    }

    /// `sys` with this variant's policy, forwarding, placement and Atomic
    /// Queue override applied.
    pub fn apply(&self, sys: SystemConfig) -> SystemConfig {
        let mut sys = sys
            .with_policy(self.policy)
            .with_forward_to_atomics(self.forwarding)
            .with_placement(self.placement);
        if let Some(aq) = self.aq_entries {
            sys.core.aq_entries = aq;
        }
        sys
    }
}

/// What one sweep cell simulates.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // specs are built once per cell, never in bulk
pub enum JobSpec {
    /// A multicore benchmark run under a [`Variant`] at a given scale.
    Bench {
        /// The workload.
        bench: Benchmark,
        /// Policy/placement/structure knobs.
        variant: Variant,
        /// Scale, seed, and robustness configuration.
        exp: ExperimentConfig,
    },
    /// A single-core Fig. 2 microbenchmark cell.
    Micro {
        /// The RMW instruction under test.
        rmw: MicroRmw,
        /// Plain/`lock`/`mfence` combination.
        variant: MicroVariant,
        /// Fenced (old-core) or unfenced (modern-core) model.
        fence: FenceModel,
        /// Loop iterations.
        iterations: u64,
    },
}

/// One cell of a sweep: a unique label plus the spec to simulate.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Unique-within-the-sweep display label, e.g. `"canneal/eager"`.
    pub label: String,
    /// What to run.
    pub spec: JobSpec,
}

impl Job {
    /// The job's config fingerprint: an FNV-1a hash over the label and the
    /// complete spec (benchmark, variant knobs, scale, seed, robustness
    /// config). Two jobs agree on their fingerprint exactly when they would
    /// run the same simulation — this is what sweep resume matches on.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{}|{:?}", self.label, self.spec).as_bytes())
    }
}

/// A declarative experiment sweep: the unit every figure submits.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Figure identifier (`"fig01"`, `"headline"`, …); names the results
    /// file `BENCH_<figure>.json`.
    pub figure: String,
    /// The base scale, recorded in the results header.
    pub exp: ExperimentConfig,
    /// The cells, in deterministic declaration order.
    pub jobs: Vec<Job>,
}

impl Sweep {
    /// An empty sweep for `figure` at scale `exp`.
    pub fn new(figure: impl Into<String>, exp: &ExperimentConfig) -> Self {
        Sweep {
            figure: figure.into(),
            exp: *exp,
            jobs: Vec::new(),
        }
    }

    /// Builds the full `(benchmark × variant)` grid at scale `exp`, each
    /// cell labelled `"<bench>/<variant>"`.
    pub fn grid(
        figure: impl Into<String>,
        exp: &ExperimentConfig,
        benches: &[Benchmark],
        variants: &[Variant],
    ) -> Self {
        let mut sweep = Sweep::new(figure, exp);
        for &bench in benches {
            for variant in variants {
                sweep.push(
                    format!("{}/{}", bench.name(), variant.name),
                    JobSpec::Bench {
                        bench,
                        variant: variant.clone(),
                        exp: *exp,
                    },
                );
            }
        }
        sweep
    }

    /// Appends one cell.
    ///
    /// # Panics
    /// Panics if `label` repeats an existing cell's label — lookups and
    /// resume both key on labels being unique.
    pub fn push(&mut self, label: impl Into<String>, spec: JobSpec) {
        let label = label.into();
        assert!(
            self.jobs.iter().all(|j| j.label != label),
            "duplicate sweep label `{label}`"
        );
        self.jobs.push(Job { label, spec });
    }

    /// The sweep-wide config fingerprint: a hash over the figure id and
    /// every job fingerprint, in order. A results file whose header carries
    /// a different value belongs to a different sweep definition and is
    /// ignored by resume.
    pub fn config_fingerprint(&self) -> u64 {
        let mut text = self.figure.clone();
        for job in &self.jobs {
            text.push_str(&format!("|{:016x}", job.fingerprint()));
        }
        fnv1a(text.as_bytes())
    }

    /// Executes the sweep and returns the complete, job-ordered results.
    ///
    /// Worker threads pull cells from a shared queue; a cell that fails with
    /// [`SimError::Timeout`] is retried once with a [`RETRY_BUDGET_FACTOR`]×
    /// cycle budget. When [`SweepOptions::results_path`] is set the results
    /// file is rewritten (atomically) after every finished job; with
    /// [`SweepOptions::resume`] also set, cells already present in that file
    /// under matching fingerprints are returned from cache without
    /// simulating.
    ///
    /// # Errors
    /// The first failing job **in declaration order** as
    /// [`SweepError::Job`]; remaining workers stop picking up new cells once
    /// any job fails. [`SweepError::Io`] when the results file cannot be
    /// written.
    pub fn run(&self, opts: &SweepOptions<'_>) -> Result<FigureResults, SweepError> {
        let t0 = Instant::now();
        let fingerprints: Vec<u64> = self.jobs.iter().map(Job::fingerprint).collect();
        let config_fingerprint = self.config_fingerprint();
        let total = self.jobs.len();
        let slots: Vec<Mutex<Option<JobRecord>>> =
            self.jobs.iter().map(|_| Mutex::new(None)).collect();

        // Resume: prefill slots from an existing results file, keyed by
        // per-job fingerprint, but only when the file describes this sweep.
        let prev = opts
            .results_path
            .as_deref()
            .filter(|_| opts.resume)
            .and_then(|path| FigureResults::load(path).ok())
            .filter(|prev| prev.config_fingerprint == config_fingerprint);
        for (i, job) in self.jobs.iter().enumerate() {
            let mut stored = prev.iter().flat_map(|p| &p.jobs);
            if let Some(rec) =
                stored.find(|r| r.fingerprint == fingerprints[i] && r.label == job.label)
            {
                *slots[i].lock().expect("poisoned") = Some(rec.clone());
                if let Some(cb) = opts.progress {
                    cb(&SweepEvent::Cached { label: &job.label });
                }
            }
        }

        let pending: Vec<usize> = (0..total)
            .filter(|&i| slots[i].lock().expect("poisoned").is_none())
            .collect();
        let workers = opts.workers.clamp(1, pending.len().max(1));
        let abort = AtomicBool::new(false);
        let persist_guard = Mutex::new(());
        let errors = parallel_map(&pending, workers, |_, &i| {
            if abort.load(Ordering::Relaxed) {
                return None;
            }
            let job = &self.jobs[i];
            let started = Instant::now();
            let ckpt = opts.checkpoint.as_ref().map(|c| {
                (
                    c.every,
                    c.dir
                        .join(format!("{}_{:016x}.ckpt", self.figure, fingerprints[i])),
                )
            });
            let (outcome, retried) = run_with_retry(&job.spec, &ckpt);
            let result = match outcome {
                Ok(result) => result,
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    return Some((i, e));
                }
            };
            let record = JobRecord {
                label: job.label.clone(),
                fingerprint: fingerprints[i],
                stats: JobStats::from(&result),
                wall_s: started.elapsed().as_secs_f64(),
                retried,
            };
            let wall_s = record.wall_s;
            *slots[i].lock().expect("poisoned") = Some(record);
            if let Some(cb) = opts.progress {
                cb(&SweepEvent::Finished {
                    label: &job.label,
                    wall_s,
                    retried,
                });
            }
            if let Some(path) = &opts.results_path {
                let _g = persist_guard.lock().expect("poisoned");
                let partial = assemble(
                    self,
                    config_fingerprint,
                    workers,
                    t0.elapsed().as_secs_f64(),
                    &slots,
                );
                // Persist best-effort: an unwritable partial file must not
                // kill the sweep mid-flight; the final save reports the error.
                let _ = partial.save(path);
            }
            None
        });

        // `pending` is in declaration order, and so are the results.
        if let Some((i, err)) = errors.into_iter().flatten().next() {
            return Err(SweepError::Job {
                label: self.jobs[i].label.clone(),
                error: Box::new(err),
            });
        }
        let results = assemble(
            self,
            config_fingerprint,
            workers,
            t0.elapsed().as_secs_f64(),
            &slots,
        );
        debug_assert_eq!(results.jobs.len(), total, "every slot filled");
        if let Some(path) = &opts.results_path {
            results
                .save(path)
                .map_err(|e| SweepError::Io(format!("{}: {e}", path.display())))?;
        }
        Ok(results)
    }
}

/// Collects the filled slots, in job order, into a [`FigureResults`].
fn assemble(
    sweep: &Sweep,
    config_fingerprint: u64,
    jobs_used: usize,
    wall_s: f64,
    slots: &[Mutex<Option<JobRecord>>],
) -> FigureResults {
    let jobs: Vec<JobRecord> = slots
        .iter()
        .filter_map(|s| s.lock().expect("poisoned").clone())
        .collect();
    FigureResults {
        figure: sweep.figure.clone(),
        cores: sweep.exp.cores,
        instructions_per_core: sweep.exp.instructions,
        config_fingerprint,
        jobs_used,
        wall_s,
        jobs,
    }
}

/// Executes one spec, retrying a cycle-budget timeout once with a raised
/// budget (the first attempt's diagnostics are superseded by the retry).
/// Returns the outcome and whether a retry ran.
fn run_with_retry(
    spec: &JobSpec,
    ckpt: &Option<(u64, PathBuf)>,
) -> (Result<RunResult, SimError>, bool) {
    match execute(spec, 1, ckpt) {
        Err(SimError::Timeout(_)) => (execute(spec, RETRY_BUDGET_FACTOR, ckpt), true),
        other => (other, false),
    }
}

/// Runs one cell with its cycle budget scaled by `budget_factor`.
fn execute(
    spec: &JobSpec,
    budget_factor: u64,
    ckpt: &Option<(u64, PathBuf)>,
) -> Result<RunResult, SimError> {
    match spec {
        JobSpec::Bench {
            bench,
            variant,
            exp,
        } => {
            let sys = variant.apply(exp.system());
            let exp = ExperimentConfig {
                cycle_limit: exp.cycle_limit.saturating_mul(budget_factor),
                ..*exp
            };
            match ckpt {
                None => Machine::new(&sys, bench_streams(*bench, &exp)).run(exp.cycle_limit),
                Some((every, path)) => {
                    run_benchmark_checkpointed(&sys, *bench, &exp, *every, path, true, |_| {})
                }
            }
        }
        JobSpec::Micro {
            rmw,
            variant,
            fence,
            iterations,
        } => run_microbench_result(
            *rmw,
            *variant,
            *fence,
            *iterations,
            microbench_cycle_limit(*iterations).saturating_mul(budget_factor),
        ),
    }
}

impl From<&RunResult> for JobStats {
    fn from(r: &RunResult) -> JobStats {
        JobStats {
            cycles: r.cycles,
            committed: r.total.committed,
            atomics: r.total.atomics,
            contended_atomics: r.total.contended_atomics,
            atomics_eager: r.total.atomics_eager,
            atomics_lazy: r.total.atomics_lazy,
            atomics_forwarded: r.total.atomics_forwarded,
            locality_overrides: r.total.locality_overrides,
            remote_fills: r.remote_fills,
            miss_latency_mean: r.miss_latency.mean(),
            older_unexecuted_mean: r.total.older_unexecuted_at_issue.mean(),
            younger_started_mean: r.total.younger_started_at_issue.mean(),
            breakdown_dispatch_to_issue: r.total.breakdown.dispatch_to_issue.mean(),
            breakdown_issue_to_lock: r.total.breakdown.issue_to_lock.mean(),
            breakdown_lock_to_unlock: r.total.breakdown.lock_to_unlock.mean(),
            branch_miss_rate: r.branch_miss_rate,
            accuracy: r.accuracy,
            transport: r.transport,
        }
    }
}

/// Per-run checkpointing for sweep cells (PR 3 composition): each benchmark
/// cell writes `<dir>/<figure>_<fingerprint>.ckpt` every `every` cycles and
/// resumes from it when present.
#[derive(Clone, Debug)]
pub struct SweepCheckpoint {
    /// Cycles between checkpoint writes.
    pub every: u64,
    /// Directory the per-cell checkpoint files live in.
    pub dir: PathBuf,
}

/// Progress reported through [`SweepOptions::progress`].
#[derive(Clone, Copy, Debug)]
pub enum SweepEvent<'a> {
    /// A job completed.
    Finished {
        /// The job's label.
        label: &'a str,
        /// Host wall-clock seconds the job took.
        wall_s: f64,
        /// Whether the job needed a raised-budget retry.
        retried: bool,
    },
    /// A job was satisfied from the results file without running (resume).
    Cached {
        /// The job's label.
        label: &'a str,
    },
}

/// Execution knobs for [`Sweep::run`].
pub struct SweepOptions<'a> {
    /// Worker threads (≥ 1; clamped to the number of pending jobs).
    pub workers: usize,
    /// Where to persist/load `BENCH_<figure>.json` (incremental writes).
    pub results_path: Option<PathBuf>,
    /// Skip jobs already present in `results_path` (fingerprint-matched).
    pub resume: bool,
    /// Per-cell machine checkpointing (crash resilience inside a cell).
    pub checkpoint: Option<SweepCheckpoint>,
    /// Per-job progress callback (called from worker threads).
    pub progress: Option<&'a (dyn Fn(&SweepEvent<'_>) + Sync)>,
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        SweepOptions {
            workers: available_workers(),
            results_path: None,
            resume: false,
            checkpoint: None,
            progress: None,
        }
    }
}

/// The host's available parallelism (≥ 1) — the default worker count.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Upper bound on a worker count; far beyond any host, it only exists so a
/// typo like `--jobs 80000` fails loudly instead of spawning a thread herd.
pub const MAX_WORKERS: usize = 4096;

/// Parses a worker count `v` in `[1, MAX_WORKERS]`; `source` (the flag or
/// variable it came from) prefixes the error message.
///
/// # Errors
/// A printable message for a non-numeric or out-of-range count.
pub fn parse_workers(source: &str, v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|e| format!("{source}: `{v}` is not a worker count ({e})"))?;
    if !(1..=MAX_WORKERS).contains(&n) {
        return Err(format!(
            "{source}: {n} out of range [1, {MAX_WORKERS}] (need at least one worker)"
        ));
    }
    Ok(n)
}

/// Runs `f` over every item on a scoped-thread worker pool and returns the
/// results **in item order regardless of completion order** — the one pool
/// behind [`Sweep::run`], the fuzzer's generations and the CLI's litmus and
/// explore cells. `workers` is clamped to `[1, items.len()]`; the callback
/// receives `(index, item)`.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.max(1).min(items.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= items.len() {
                    break;
                }
                let r = f(k, &items[k]);
                *slots[k].lock().expect("worker never panics holding a slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("worker never panics holding a slot")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// A sweep failure.
#[derive(Debug)]
pub enum SweepError {
    /// A job's simulation failed (first failure in declaration order).
    Job {
        /// The failing job's label.
        label: String,
        /// The underlying simulation error.
        error: Box<SimError>,
    },
    /// The results file could not be written.
    Io(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Job { label, error } => write!(f, "job `{label}` failed: {error}"),
            SweepError::Io(e) => write!(f, "cannot write sweep results: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One finished cell in a [`FigureResults`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// The job's config fingerprint (resume key).
    pub fingerprint: u64,
    /// Every metric the figure tables need.
    pub stats: JobStats,
    /// Host wall-clock seconds of the run that produced the cell.
    pub wall_s: f64,
    /// Whether the run needed a raised-budget retry.
    pub retried: bool,
}

/// The unified per-figure results container behind `BENCH_<figure>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureResults {
    /// Figure identifier.
    pub figure: String,
    /// Cores per simulated machine at this scale.
    pub cores: usize,
    /// Instructions per thread at this scale.
    pub instructions_per_core: u64,
    /// Sweep-wide config fingerprint (see [`Sweep::config_fingerprint`]).
    pub config_fingerprint: u64,
    /// Worker threads the producing run used.
    pub jobs_used: usize,
    /// Total sweep wall-clock in seconds.
    pub wall_s: f64,
    /// Finished cells, in declaration order (a partial file holds a prefix
    /// subset).
    pub jobs: Vec<JobRecord>,
}

impl FigureResults {
    /// Looks a cell up by label, panicking with the available labels on a
    /// miss — figure reports use this because a missing cell is a bug in
    /// the sweep declaration, not a runtime condition.
    ///
    /// # Panics
    /// When no cell is labelled `label`.
    pub fn stat(&self, label: &str) -> &JobStats {
        let Some(job) = self.jobs.iter().find(|j| j.label == label) else {
            let have: Vec<&str> = self.jobs.iter().map(|j| j.label.as_str()).collect();
            panic!(
                "no sweep cell labelled `{label}`; have: {}",
                have.join(", ")
            );
        };
        &job.stats
    }

    /// A cell's cycle count as `f64` (ratio arithmetic convenience).
    ///
    /// # Panics
    /// When no cell is labelled `label`.
    pub fn cycles(&self, label: &str) -> f64 {
        self.stat(label).cycles as f64
    }

    /// Serializes the full results file, wall-clock fields included.
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// The deterministic view: identical runs produce byte-identical
    /// canonical JSON regardless of worker count or host speed (wall-clock
    /// and worker-count fields are zeroed).
    pub fn canonical_json(&self) -> String {
        self.render(true)
    }

    fn render(&self, canonical: bool) -> String {
        let wall_s = |s: f64| Value::Fixed(if canonical { 0.0 } else { s }, 3);
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .map(|j| {
                object! {
                    "label": j.label.as_str(),
                    "fingerprint": format!("0x{:016x}", j.fingerprint),
                    "wall_s": wall_s(j.wall_s),
                    "retried": j.retried,
                    "stats": j.stats.to_json(),
                }
            })
            .collect();
        let report = object! {
            "schema": FIGURE_SCHEMA,
            "figure": self.figure.as_str(),
            "cores": self.cores,
            "instructions_per_core": self.instructions_per_core,
            "config_fingerprint": format!("0x{:016x}", self.config_fingerprint),
            "jobs_used": if canonical { 0 } else { self.jobs_used },
            "wall_s": wall_s(self.wall_s),
            "jobs": jobs,
        };
        json::render(&report, &["jobs"])
    }

    /// Writes the results file atomically (temp file + rename), like the
    /// machine checkpoints: a killed sweep leaves either the previous or the
    /// new complete file, never a torn one.
    ///
    /// # Errors
    /// Any filesystem failure.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, self.to_json())
    }

    /// Loads and validates a results file.
    ///
    /// # Errors
    /// `InvalidData` on parse failures, schema mismatches, or incomplete
    /// records; plain IO errors otherwise.
    pub fn load(path: &Path) -> std::io::Result<FigureResults> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let text = std::fs::read_to_string(path)?;
        let v = parse(&text).map_err(|e| bad(&format!("{}: {e}", path.display())))?;
        if v.get("schema").and_then(Value::as_str) != Some(FIGURE_SCHEMA) {
            return Err(bad("unknown results schema"));
        }
        let fingerprint_of = |v: &Value| -> Option<u64> {
            let s = v.as_str()?;
            u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
        };
        let missing = |what: &str| bad(&format!("missing {what}"));
        let u = |k: &str| v.get(k).and_then(Value::as_u64).ok_or_else(|| missing(k));
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| missing("jobs array"))?
            .iter()
            .map(|j| {
                Some(JobRecord {
                    label: j.get("label")?.as_str()?.to_string(),
                    fingerprint: fingerprint_of(j.get("fingerprint")?)?,
                    stats: JobStats::from_json(j.get("stats")?)?,
                    wall_s: j.get("wall_s")?.as_f64()?,
                    retried: j.get("retried")?.as_bool()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("incomplete job record"))?;
        Ok(FigureResults {
            figure: v
                .get("figure")
                .and_then(Value::as_str)
                .ok_or_else(|| missing("figure id"))?
                .to_string(),
            cores: u("cores")? as usize,
            instructions_per_core: u("instructions_per_core")?,
            config_fingerprint: v
                .get("config_fingerprint")
                .and_then(fingerprint_of)
                .ok_or_else(|| missing("config_fingerprint"))?,
            jobs_used: u("jobs_used")? as usize,
            wall_s: v
                .get("wall_s")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("wall_s"))?,
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::CheckConfig;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            cores: 2,
            instructions: 400,
            seed: 7,
            cycle_limit: 10_000_000,
            paper_caches: false,
            check: CheckConfig::default(),
        }
    }

    #[test]
    fn grid_builds_labelled_jobs_in_order() {
        let exp = tiny();
        let s = Sweep::grid(
            "t",
            &exp,
            &[Benchmark::Pc, Benchmark::Sps],
            &[Variant::eager(), Variant::lazy()],
        );
        let labels: Vec<&str> = s.jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["pc/eager", "pc/lazy", "sps/eager", "sps/lazy"]);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep label")]
    fn duplicate_labels_are_rejected() {
        let exp = tiny();
        let mut s = Sweep::new("t", &exp);
        let spec = JobSpec::Bench {
            bench: Benchmark::Pc,
            variant: Variant::eager(),
            exp,
        };
        s.push("a", spec.clone());
        s.push("a", spec);
    }

    #[test]
    fn fingerprints_separate_configs() {
        let exp = tiny();
        let job = |seed: u64| {
            let mut e = exp;
            e.seed = seed;
            Job {
                label: "pc/eager".into(),
                spec: JobSpec::Bench {
                    bench: Benchmark::Pc,
                    variant: Variant::eager(),
                    exp: e,
                },
            }
        };
        assert_eq!(job(7).fingerprint(), job(7).fingerprint());
        assert_ne!(job(7).fingerprint(), job(8).fingerprint());
    }

    #[test]
    fn variant_constructors_set_knobs() {
        assert_eq!(Variant::eager().name, "eager");
        assert!(Variant::eager_fwd().forwarding);
        assert_eq!(Variant::far().placement, AtomicPlacement::Far);
        assert_eq!(Variant::eager().with_aq_entries(4).aq_entries, Some(4));
        assert!(Variant::row_fwd(RowVariant::RwDirUd).name.ends_with("+fwd"));
    }

    /// The CLI names map to the configurations `run`, `fuzz` and `explore`
    /// have always simulated.
    #[test]
    fn policy_table_resolves_the_five_cli_names() {
        let row = AtomicPolicy::Row(RowConfig::best().with_locality_override(false));
        let row_fwd = AtomicPolicy::Row(RowConfig::best());
        let expect = [
            ("eager", AtomicPolicy::Eager, false, AtomicPlacement::Near),
            ("lazy", AtomicPolicy::Lazy, false, AtomicPlacement::Near),
            ("row", row, false, AtomicPlacement::Near),
            ("row-fwd", row_fwd, true, AtomicPlacement::Near),
            ("far", AtomicPolicy::Eager, false, AtomicPlacement::Far),
        ];
        for (name, policy, fwd, placement) in expect {
            let v = Variant::by_name(name).expect("known policy");
            assert_eq!(v.name, name);
            let core = v.apply(SystemConfig::small(4)).core;
            assert_eq!(
                (
                    core.atomic_policy,
                    core.forward_to_atomics,
                    core.atomic_placement
                ),
                (policy, fwd, placement),
                "{name}"
            );
        }
        let names: Vec<String> = Variant::policy_table().map(|v| v.name).into();
        assert_eq!(names, ["eager", "lazy", "row", "row-fwd", "far"]);
        let err = Variant::by_name("nonesuch").unwrap_err();
        assert!(err.contains("unknown policy `nonesuch`"), "{err}");
    }

    #[test]
    fn small_sweep_runs_and_serializes() {
        let exp = tiny();
        let sweep = Sweep::grid(
            "unit",
            &exp,
            &[Benchmark::Pc],
            &[Variant::eager(), Variant::lazy()],
        );
        let r = sweep
            .run(&SweepOptions {
                workers: 2,
                ..SweepOptions::default()
            })
            .expect("runs");
        assert_eq!(r.jobs.len(), 2);
        assert!(r.stat("pc/eager").cycles > 0);
        assert_eq!(
            r.stat("pc/eager").committed,
            r.stat("pc/lazy").committed,
            "same trace under both policies"
        );
        let round = parse(&r.to_json()).expect("valid JSON");
        assert_eq!(round.get("figure").and_then(Value::as_str), Some("unit"));
    }

    #[test]
    fn results_file_round_trips() {
        let exp = tiny();
        let sweep = Sweep::grid("roundtrip", &exp, &[Benchmark::Pc], &[Variant::eager()]);
        let dir = std::env::temp_dir().join(format!("norush_sweep_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_roundtrip.json");
        let r = sweep
            .run(&SweepOptions {
                workers: 1,
                results_path: Some(path.clone()),
                ..SweepOptions::default()
            })
            .expect("runs");
        let loaded = FigureResults::load(&path).expect("loads");
        assert_eq!(loaded.canonical_json(), r.canonical_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn micro_jobs_run_through_the_engine() {
        let mut sweep = Sweep::new("micro", &tiny());
        sweep.push(
            "faa/plain/unfenced",
            JobSpec::Micro {
                rmw: MicroRmw::Faa,
                variant: MicroVariant {
                    atomic: false,
                    mfence: false,
                },
                fence: FenceModel::Unfenced,
                iterations: 50,
            },
        );
        let r = sweep.run(&SweepOptions::default()).expect("runs");
        assert!(r.stat("faa/plain/unfenced").cycles > 0);
    }

    #[test]
    fn failing_job_reports_its_label() {
        let mut exp = tiny();
        exp.cycle_limit = 10; // cannot finish; retry at 40 cycles still fails
        let sweep = Sweep::grid("fail", &exp, &[Benchmark::Pc], &[Variant::eager()]);
        let err = sweep.run(&SweepOptions::default()).expect_err("times out");
        let SweepError::Job { label, error } = err else {
            panic!("expected a job error");
        };
        assert_eq!(label, "pc/eager");
        assert!(matches!(*error, SimError::Timeout(_)));
    }

    #[test]
    fn timeout_retry_raises_the_budget_and_flags_the_record() {
        let exp = tiny();
        // Find the true cost, then grant just over a quarter of it: the
        // first attempt times out, the 4x retry completes.
        let probe = Sweep::grid("probe", &exp, &[Benchmark::Pc], &[Variant::eager()]);
        let full = probe.run(&SweepOptions::default()).expect("probe runs");
        let cycles = full.stat("pc/eager").cycles;
        let mut starved = exp;
        starved.cycle_limit = cycles / 4 + 1;
        let sweep = Sweep::grid("retry", &starved, &[Benchmark::Pc], &[Variant::eager()]);
        let r = sweep.run(&SweepOptions::default()).expect("retry saves it");
        assert!(r.jobs[0].retried);
        assert_eq!(r.stat("pc/eager").cycles, cycles, "same deterministic run");
    }
}
