//! The multicore machine: N cores + the shared memory system, stepped in
//! lockstep until every thread's parallel phase drains.

use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use row_check::{check_coherence, IncrementalSweep, StallReport};
use row_common::bitset::IndexSet;
use row_common::config::CheckConfig;
use row_common::coverage::CoverageMap;
use row_common::ids::{CoreId, LineAddr};
use row_common::json::{self, Value};
use row_common::object;
use row_common::persist::{fnv1a, Codec, Persist, PersistError, Writer};
use row_common::stats::{AccuracyCounter, RunningMean, TransportStats};
use row_common::{Cycle, SystemConfig};
use row_cpu::instr::InstrStream;
use row_cpu::{Core, CoreStats, ParkedFault, Sleep};
use row_mem::{MemorySystem, OpRecord, ProtocolError};
use row_oracle::{OnlineChecker, OracleMismatch};

use crate::checkpoint;
use crate::experiment::ExperimentConfig;

/// Maximum number of event-trace lines a rewind replay keeps (the most
/// recent events before the first violation).
pub const REWIND_TRACE_LIMIT: usize = 64;

/// Schema tag of the `norush profile --json` report
/// ([`ProfileReport::to_json`]).
pub const PROFILE_SCHEMA: &str = "norush-profile-v1";

/// Error returned when a simulation exceeds its cycle budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTimeout {
    /// The budget that was exhausted.
    pub limit: u64,
    /// Cores that had not drained.
    pub unfinished: Vec<u16>,
    /// Per-core committed-instruction counts at the timeout.
    pub committed: Vec<u64>,
    /// Full diagnostic snapshot of the wedged machine.
    pub report: StallReport,
}

impl std::fmt::Display for SimTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation exceeded {} cycles; unfinished cores: {:?}; committed {:?}\n{}",
            self.limit, self.unfinished, self.committed, self.report
        )
    }
}

impl std::error::Error for SimTimeout {}

/// Any way a simulation run can fail.
///
/// The diagnostic payloads are boxed: they carry full per-core snapshots,
/// and `Result<RunResult, SimError>` is on every experiment's hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out before every core drained.
    Timeout(Box<SimTimeout>),
    /// The deadlock watchdog fired: no core committed for a whole window.
    Stall(Box<StallReport>),
    /// A coherence-protocol invariant was violated (raised by a controller
    /// or found by the periodic invariant sweep).
    Protocol(ProtocolError),
    /// A checkpoint could not be written, read, or restored.
    Checkpoint(PersistError),
    /// A violation was detected and replayed from the image of the run's
    /// last slice boundary with per-cycle checking
    /// (`CheckConfig::rewind_every`); the report localizes the first
    /// offending cycle.
    Rewind(Box<RewindReport>),
    /// The linearizability oracle (`CheckConfig::oracle` or
    /// `oracle_online`) found the run's journal inconsistent with the
    /// sequential golden model — an atomic was lost, duplicated, or
    /// mis-applied even though the timing looked healthy.
    Oracle(Box<OracleMismatch>),
    /// Audit mode ([`Machine::set_audit`]) caught a hot-loop shortcut
    /// skipping work that was not a no-op.
    Audit(AuditFailure),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Timeout(t) => t.fmt(f),
            SimError::Stall(r) => write!(f, "deadlock watchdog fired\n{r}"),
            SimError::Protocol(e) => write!(f, "protocol error: {e}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SimError::Rewind(r) => r.fmt(f),
            SimError::Oracle(m) => write!(f, "oracle mismatch: {m}"),
            SimError::Audit(a) => a.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

/// A hot-loop shortcut that audit mode ([`Machine::set_audit`]) caught:
/// the cycle, and the shortcut that broke with what it concerns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditFailure {
    /// The cycle at which the check failed.
    pub cycle: Cycle,
    /// The shortcut that broke.
    pub shortcut: Shortcut,
}

/// The shortcuts the audit checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shortcut {
    /// The core slept under this proof, yet stepping it changed its
    /// persisted state.
    Sleep {
        /// The sleeping core.
        core: u16,
        /// The proof it slept under.
        sleep: Sleep,
    },
    /// The core's private cache held queued requests the memory system's
    /// pending set did not list, so its tick would skip them.
    PendingSet {
        /// The core whose cache was missed.
        core: u16,
    },
    /// The core's private cache held the line, yet the memory system's
    /// holder index did not list the core, so the incremental sweep would
    /// not ask it about the line.
    HolderIndex {
        /// The unlisted holder.
        core: u16,
        /// The line it holds.
        line: LineAddr,
    },
    /// A periodic incremental sweep and a full sweep of the same state
    /// disagreed on pass or fail.
    IncrementalSweep {
        /// Whether the incremental sweep was the one that passed.
        missed: bool,
        /// The violation the failing sweep reported.
        error: ProtocolError,
    },
    /// A periodic incremental sweep and a full sweep of the same state both
    /// failed, but named different violations. Both run one rule set in
    /// one line order, so they name the same one unless the incremental
    /// sweep skipped a line. Boxed, to keep [`AuditFailure`] small.
    SweepErrors {
        /// The violation the incremental sweep reported.
        incremental: Box<ProtocolError>,
        /// The violation the full sweep reported.
        full: Box<ProtocolError>,
    },
    /// The core's parked store-buffer writes, which wait for a re-check
    /// instead of retrying every cycle, broke their invariant
    /// ([`Core::parked_fault`]).
    ParkedWrites {
        /// The core holding the writes.
        core: u16,
        /// What was wrong.
        fault: ParkedFault,
    },
}

impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cycle = self.cycle.raw();
        match &self.shortcut {
            Shortcut::Sleep { core, sleep } => write!(
                f,
                "audit: core {core} changed state at cycle {cycle} while asleep: {sleep}"
            ),
            Shortcut::PendingSet { core } => write!(
                f,
                "audit: core {core}'s cache has queued requests at cycle {cycle} \
                 outside the pending set"
            ),
            Shortcut::HolderIndex { core, line } => write!(
                f,
                "audit: core {core}'s cache holds {line} at cycle {cycle} \
                 outside the holder index"
            ),
            Shortcut::IncrementalSweep { missed, error } => {
                let (inc, full) = if *missed {
                    ("passed", "failed")
                } else {
                    ("failed", "passed")
                };
                write!(
                    f,
                    "audit: at cycle {cycle} the incremental sweep {inc} \
                     and a full sweep {full}: {error}"
                )
            }
            Shortcut::SweepErrors { incremental, full } => write!(
                f,
                "audit: at cycle {cycle} the incremental sweep and a full sweep \
                 named different violations: incremental: {incremental}; full: {full}"
            ),
            Shortcut::ParkedWrites { core, fault } => write!(
                f,
                "audit: core {core}'s parked store-buffer writes at cycle {cycle}: {fault}"
            ),
        }
    }
}

impl std::error::Error for AuditFailure {}

/// The result of a rewind-on-violation replay: the original failure plus the
/// tighter localization obtained by re-running from the image of the run's
/// last slice boundary with the invariant sweep on every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewindReport {
    /// The error the forward run originally hit (watchdog stall or a
    /// protocol violation found by the periodic sweep).
    pub cause: Box<SimError>,
    /// The first cycle the replay stepped: the run's last slice boundary,
    /// whose image it restored.
    pub checkpoint_at: Cycle,
    /// Cycle at which the forward run detected the failure.
    pub detected_at: Cycle,
    /// First cycle at which an invariant actually broke during the
    /// per-cycle replay — at most `detected_at`, usually much earlier.
    /// `None` when the replay reached `detected_at` without a violation
    /// (e.g. a watchdog stall with coherent state throughout).
    pub first_bad_cycle: Option<Cycle>,
    /// The violation found at `first_bad_cycle`, if any.
    pub first_error: Option<ProtocolError>,
    /// The last [`REWIND_TRACE_LIMIT`] memory events delivered before the
    /// replay stopped, formatted `"<cycle>: <event>"`.
    pub trace: Vec<String>,
}

impl std::fmt::Display for RewindReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "rewind replay from checkpoint at cycle {} (detected at cycle {}):",
            self.checkpoint_at.raw(),
            self.detected_at.raw()
        )?;
        match (&self.first_bad_cycle, &self.first_error) {
            (Some(c), Some(e)) => {
                writeln!(f, "  first invariant violation at cycle {}: {e}", c.raw())?
            }
            _ => writeln!(
                f,
                "  no invariant violation reproduced up to the detection cycle"
            )?,
        }
        writeln!(f, "  last {} events before the stop:", self.trace.len())?;
        for line in &self.trace {
            writeln!(f, "    {line}")?;
        }
        write!(f, "original failure: {}", self.cause)
    }
}

impl std::error::Error for RewindReport {}

/// Results of one full simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Parallel-phase execution time: the cycle the last core drained.
    pub cycles: u64,
    /// Aggregate of all cores' statistics.
    pub total: CoreStats,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Mean L1D miss latency across all demand misses (Fig. 11).
    pub miss_latency: RunningMean,
    /// RoW prediction accuracy, when the RoW policy ran (Fig. 12).
    pub accuracy: Option<AccuracyCounter>,
    /// Fraction of branch predictions that missed.
    pub branch_miss_rate: f64,
    /// Fills served cache-to-cache from remote private caches.
    pub remote_fills: u64,
    /// Recoverable-transport counters, present only when the run used lossy
    /// chaos (drop/duplicate/corrupt injection).
    pub transport: Option<TransportStats>,
}

impl RunResult {
    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total.committed as f64 / self.cycles as f64
        }
    }
}

/// Wall-clock breakdown of one profiled run ([`Machine::run_profiled`]):
/// where a simulation's host time actually goes, per component, so hot-path
/// work is measured instead of guessed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProfileReport {
    /// Simulated cycles run during the profiled slice.
    pub cycles: u64,
    /// Total wall-clock time of the profiled slice, in seconds.
    pub wall_s: f64,
    /// Time inside `MemorySystem::tick` plus event routing to cores.
    pub mem_tick_s: f64,
    /// Time stepping unfinished cores (`Core::cycle`).
    pub core_step_s: f64,
    /// Time in the coherence invariant sweep.
    pub check_s: f64,
    /// Memory events delivered to cores.
    pub events: u64,
    /// `Core::cycle` invocations on awake cores (audit mode's extra steps
    /// of sleeping cores are not counted).
    pub core_steps: u64,
    /// Cycles in which no core stepped and no memory event was delivered:
    /// the cycles whole-machine time skipping could jump over.
    pub idle_cycles: u64,
}

impl ProfileReport {
    /// Simulated cycles per wall-clock second — the headline throughput
    /// number the perf-smoke CI job gates on.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Wall time not attributed to a named component (stats, checkpoint
    /// refresh, loop overhead).
    pub fn other_s(&self) -> f64 {
        (self.wall_s - self.mem_tick_s - self.core_step_s - self.check_s).max(0.0)
    }

    /// The `norush-profile-v1` report of one profiled cell: `benchmark`
    /// under `policy` at `exp`'s scale, the run's simulated `cycles`, then
    /// this report's wall-clock buckets (seconds, 3 decimals) and counters.
    pub fn to_json(
        &self,
        benchmark: &str,
        policy: &str,
        exp: &ExperimentConfig,
        cycles: u64,
    ) -> String {
        let secs = |s: f64| Value::Fixed(s, 3);
        let report = object! {
            "schema": PROFILE_SCHEMA,
            "benchmark": benchmark,
            "cores": exp.cores,
            "policy": policy,
            "instructions": exp.instructions,
            "seed": exp.seed,
            "cycles": cycles,
            "wall_s": secs(self.wall_s),
            "cycles_per_sec": self.cycles_per_sec().round() as u64,
            "mem_tick_s": secs(self.mem_tick_s),
            "core_step_s": secs(self.core_step_s),
            "check_s": secs(self.check_s),
            "other_s": secs(self.other_s()),
            "events": self.events,
            "core_steps": self.core_steps,
            "idle_cycles": self.idle_cycles,
        };
        json::render(&report, &[])
    }
}

#[derive(Default)]
struct ProfileAccum {
    mem_tick: Duration,
    core_step: Duration,
    check: Duration,
    events: u64,
    core_steps: u64,
    idle_cycles: u64,
    cycles: u64,
}

/// A sleeping core's proof, kept by audit mode: the sleep it proved and its
/// persisted state when it fell asleep.
#[derive(Clone)]
struct Proof {
    sleep: Sleep,
    image: Vec<u8>,
}

/// The indices of the cores that have not finished.
fn unfinished(cores: &[Core]) -> IndexSet {
    let mut set = IndexSet::new(cores.len());
    for (i, c) in cores.iter().enumerate() {
        if !c.finished() {
            set.insert(i);
        }
    }
    set
}

/// A core's persisted state: the bytes of its checkpoint section.
fn core_image(core: &Core) -> Vec<u8> {
    let mut w = Writer::new();
    core.persist(&mut w);
    w.into_bytes()
}

/// A [`SystemConfig`] with its hash, the binding of every checkpoint a
/// machine built from it takes. The explorer builds every schedule of a
/// cell from one, so the config is hashed once per cell rather than once
/// per machine. The fields are private and [`HashedConfig::new`] computes
/// the hash, so a hash always belongs to the config beside it.
pub(crate) struct HashedConfig {
    sys: SystemConfig,
    hash: u64,
}

impl HashedConfig {
    /// `sys` and the FNV-1a of its `Debug` text.
    pub(crate) fn new(sys: SystemConfig) -> Self {
        let hash = fnv1a(format!("{sys:?}").as_bytes());
        HashedConfig { sys, hash }
    }
}

/// A simulated multicore machine.
pub struct Machine {
    mem: MemorySystem,
    cores: Vec<Core>,
    check: CheckConfig,
    /// Current simulation cycle; persists across [`Machine::run_for`] calls
    /// and through checkpoint/restore.
    now: Cycle,
    /// FNV-1a hash of the builder's [`SystemConfig`]; stamped into every
    /// checkpoint so a restore into a differently-configured machine is
    /// refused instead of silently misinterpreted.
    cfg_hash: u64,
    /// The event trace, on only during a rewind replay: the last
    /// [`REWIND_TRACE_LIMIT`] delivered memory events as `"<cycle>: <event>"`.
    trace: Option<VecDeque<String>>,
    /// Streaming per-operation linearizability checker
    /// (`CheckConfig::oracle_online`); fed by draining the memory system's
    /// journal every cycle, so journal memory stays O(one cycle's ops).
    online: Option<OnlineChecker>,
    /// Reused drain buffer for the online checker (avoids a per-cycle
    /// allocation on the hot path).
    online_buf: Vec<OpRecord>,
    /// Incremental invariant sweeper driving the periodic in-run check off
    /// the memory system's dirty-line set (full sweeps remain at drain and
    /// on demand).
    sweeper: IncrementalSweep,
    /// Cores that have not finished. `Core::finished()` is monotonic, so a
    /// core leaves exactly once and drained cores cost nothing per cycle.
    /// Every active core is either awake or asleep. Derived state: rebuilt
    /// on restore, never persisted.
    active: IndexSet,
    /// The active cores to step this cycle, visited in ascending index:
    /// the order of a scan over every core, which message sequencing (and
    /// with it determinism) depends on. A core leaves when it proves
    /// stepping it a state no-op for more than one cycle
    /// ([`Core::sleep_until`]), and comes back when its wake cycle is due or
    /// a memory event is delivered to it, whichever is first. Derived
    /// state: every active core is awake after a restore.
    awake: IndexSet,
    /// Per-core wake cycle of a sleeping core, which is also its key in
    /// `sleepers`; meaningless for awake and finished cores. Derived state.
    wake: Vec<Cycle>,
    /// The wake queue: `(wake cycle, core)` for every sleeping core and
    /// nothing else, so it holds at most one entry per core. An event that
    /// wakes a core early removes its entry. Derived state: empty after a
    /// restore.
    sleepers: BTreeSet<(Cycle, u32)>,
    /// Audit mode ([`Machine::set_audit`]): per core, the proof it fell
    /// asleep under. `None` when audit is off. Not persisted.
    audit: Option<Vec<Option<Proof>>>,
    /// Wall-clock accumulators, present only during [`Machine::run_profiled`].
    prof: Option<Box<ProfileAccum>>,
}

impl Machine {
    /// Builds a machine with one core per stream.
    ///
    /// # Panics
    /// Panics if the number of streams does not match `cfg.cores` or the
    /// configuration is invalid.
    pub fn new(cfg: &SystemConfig, streams: Vec<Box<dyn InstrStream>>) -> Self {
        Machine::build(&HashedConfig::new(*cfg), streams)
    }

    /// [`Machine::new`] from a config hashed beforehand.
    pub(crate) fn build(hashed: &HashedConfig, streams: Vec<Box<dyn InstrStream>>) -> Self {
        let cfg = &hashed.sys;
        assert_eq!(
            streams.len(),
            cfg.cores,
            "one instruction stream per core required"
        );
        let mut mem = MemorySystem::new(cfg);
        // The periodic sweep is incremental: have the memory system record
        // which lines change so each sweep touches only those.
        mem.track_dirty_lines(cfg.check.invariant_every.is_some());
        let cores: Vec<Core> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Core::new(CoreId::new(i as u16), cfg.core, cfg.mem.l1d.hit_latency, s))
            .collect();
        let active = unfinished(&cores);
        Machine {
            mem,
            cores,
            check: cfg.check,
            now: Cycle::ZERO,
            cfg_hash: hashed.hash,
            trace: None,
            online: cfg
                .check
                .oracle_online
                .then(|| OnlineChecker::new(cfg.cores)),
            online_buf: Vec::new(),
            sweeper: IncrementalSweep::new(),
            awake: active.clone(),
            active,
            wake: vec![Cycle::ZERO; cfg.cores],
            sleepers: BTreeSet::new(),
            audit: None,
            prof: None,
        }
    }

    /// Turns audit mode on or off. While on, every cycle also steps each
    /// sleeping core, in ascending index with the awake ones, and fails the
    /// run with [`SimError::Audit`] when that step changes the core's
    /// persisted state (its `Persist` bytes): its sleep proof
    /// ([`Core::sleep_until`]) was wrong. It also checks each cycle that
    /// every private cache with queued requests is in the memory system's
    /// pending set, that each core's parked store-buffer writes are in
    /// flight, awake and re-checked next cycle, and, while the sweep is
    /// armed, that every line a cache holds is in the holder index; and
    /// each periodic incremental sweep must pass or fail with a full sweep
    /// of the same state and, when both fail, name the same violation.
    /// Simulated time is unchanged. Each audited step of a sleeping core
    /// costs a core image, which in a release build costs what the core
    /// holds (predictor tables write only their written entries; a debug
    /// build also scans every entry to check that), so an audited `explore`
    /// runs about 15× slower than a plain one and audit suits small
    /// machines. Turning audit on wakes every sleeping core so each later
    /// sleep is recorded with its proof. A method rather than a
    /// [`CheckConfig`] field, so it leaves config hashes alone; not
    /// persisted.
    pub fn set_audit(&mut self, on: bool) {
        self.audit = on.then(|| vec![None; self.cores.len()]);
        if on {
            self.wake_all();
        }
    }

    /// Moves every active core into the awake set and empties the wake
    /// queue (and audit mode's proofs with it). Stepping an inert core is a
    /// no-op, so this never changes simulated time.
    fn wake_all(&mut self) {
        self.awake = self.active.clone();
        self.sleepers.clear();
        if let Some(proofs) = self.audit.as_mut() {
            proofs.fill(None);
        }
    }

    /// Like [`Machine::run`], but with per-component wall-clock accounting:
    /// returns the run result together with a [`ProfileReport`] breaking the
    /// host time into memory-system ticks, core stepping, and invariant
    /// checking. The simulation itself is unchanged — timing is observation
    /// only, so a profiled run commits the same cycles as an unprofiled one.
    ///
    /// # Errors
    /// Same failure modes as [`Machine::run`].
    pub fn run_profiled(&mut self, limit: u64) -> Result<(RunResult, ProfileReport), SimError> {
        self.prof = Some(Box::new(ProfileAccum::default()));
        let t0 = Instant::now();
        let out = self.run(limit);
        let wall_s = t0.elapsed().as_secs_f64();
        let acc = self.prof.take().expect("installed above");
        let report = ProfileReport {
            cycles: acc.cycles,
            wall_s,
            mem_tick_s: acc.mem_tick.as_secs_f64(),
            core_step_s: acc.core_step.as_secs_f64(),
            check_s: acc.check.as_secs_f64(),
            events: acc.events,
            core_steps: acc.core_steps,
            idle_cycles: acc.idle_cycles,
        };
        out.map(|r| (r, report))
    }

    /// The online linearizability checker, when `CheckConfig::oracle_online`
    /// is enabled (triage reads its journal tail and counters).
    pub fn online_checker(&self) -> Option<&OnlineChecker> {
        self.online.as_ref()
    }

    /// The current simulation cycle (advances across `run*` calls; set by
    /// [`Machine::restore`]).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Read access to a core (e.g. to enable load recording before running).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Transition coverage the run has exercised so far: the memory
    /// system's counters merged with every core's. Not part of a checkpoint;
    /// a restore leaves it as it was.
    pub fn coverage(&self) -> CoverageMap {
        let mut map = self.mem.coverage();
        for c in &self.cores {
            map.add(c.coverage());
        }
        map
    }

    /// Read access to the memory system (tests inspect functional state).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (tests pre-seed values).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Takes a diagnostic snapshot of the machine right now (on-demand
    /// stall/progress report).
    pub fn stall_report(&self, now: Cycle) -> StallReport {
        StallReport::capture(&self.cores, &self.mem, now, None)
    }

    /// Runs the coherence invariant sweep against the current state.
    pub fn check_invariants(&self) -> Result<(), ProtocolError> {
        check_coherence(&self.mem)
    }

    /// Runs until every core drains or the absolute cycle `limit` is
    /// reached (the count starts from [`Machine::now`], so a restored
    /// machine continues against the same budget).
    ///
    /// Robustness hooks from [`CheckConfig`] run inside the loop: the
    /// coherence invariant sweep every `invariant_every` cycles (and once on
    /// drain), a deadlock watchdog that fires when no core commits for
    /// `watchdog_window` cycles, and — when `rewind_every` is set — a run in
    /// slices of that many cycles whose last boundary image turns any
    /// stall/protocol failure into a [`SimError::Rewind`] replay localizing
    /// the first offending cycle.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget is exhausted (the error carries
    /// per-core progress counters and a full [`StallReport`]),
    /// [`SimError::Stall`] when the watchdog fires,
    /// [`SimError::Protocol`] when a coherence invariant is violated, and
    /// [`SimError::Rewind`] for either of the latter two when rewind is
    /// enabled.
    pub fn run(&mut self, limit: u64) -> Result<RunResult, SimError> {
        match self.run_for(limit.saturating_sub(self.now.raw()))? {
            Some(r) => Ok(r),
            None => Err(self.timeout_error(limit)),
        }
    }

    /// Runs for at most `cycles` further cycles. Returns `Ok(Some(result))`
    /// when every core drained, `Ok(None)` when the slice elapsed with work
    /// remaining — unlike [`Machine::run`], running out of budget is not an
    /// error, which is what a checkpointing driver needs.
    ///
    /// # Errors
    /// Same failure modes as [`Machine::run`] except [`SimError::Timeout`].
    pub fn run_for(&mut self, cycles: u64) -> Result<Option<RunResult>, SimError> {
        let target = self.now.raw().saturating_add(cycles);
        let drained = match self.check.rewind_every {
            Some(k) => self.advance_in_slices(target, k)?,
            None => self.advance(target)?,
        };
        if !drained {
            return Ok(None);
        }
        if self.check.invariant_every.is_some() {
            check_coherence(&self.mem).map_err(SimError::Protocol)?;
        }
        self.check_oracle()?;
        Ok(Some(self.collect()))
    }

    /// Moves each core's statistics into the result instead of cloning them:
    /// the cores are drained, so the counters have nothing further to
    /// accumulate, and a 32-core `paper`-scale sweep assembles thousands of
    /// results.
    fn collect(&mut self) -> RunResult {
        let (mut preds, mut miss) = (0u64, 0u64);
        let mut accuracy: Option<AccuracyCounter> = None;
        for c in &self.cores {
            preds += c.branch_stats().predictions;
            miss += c.branch_stats().mispredictions;
            if let Some(a) = c.row_accuracy() {
                accuracy.get_or_insert_with(AccuracyCounter::new).merge(a);
            }
        }
        let per_core: Vec<CoreStats> = self.cores.iter_mut().map(Core::take_stats).collect();
        let mut total = CoreStats::default();
        for s in &per_core {
            total.merge(s);
        }
        let cycles = total.finished_at.map(|c| c.raw()).unwrap_or(0);
        RunResult {
            cycles,
            total,
            per_core,
            miss_latency: self.mem.stats().miss_latency_all,
            accuracy,
            branch_miss_rate: if preds == 0 {
                0.0
            } else {
                miss as f64 / preds as f64
            },
            remote_fills: self.mem.stats().remote_fills,
            transport: self.mem.transport_stats().copied(),
        }
    }

    /// Runs to the absolute cycle `limit` like [`Machine::run`], writing a
    /// checkpoint file to `path` (atomically) every `every` cycles, so a
    /// killed process can [`Machine::restore`] and continue.
    ///
    /// # Errors
    /// Everything [`Machine::run`] raises, plus [`SimError::Checkpoint`]
    /// when a checkpoint cannot be serialized or written.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn run_checkpointed(
        &mut self,
        limit: u64,
        every: u64,
        path: &Path,
    ) -> Result<RunResult, SimError> {
        assert!(every > 0, "checkpoint interval must be non-zero");
        while self.now.raw() < limit {
            let slice = every.min(limit - self.now.raw());
            if let Some(r) = self.run_for(slice)? {
                return Ok(r);
            }
            let bytes = self.checkpoint()?;
            crate::checkpoint::write_checkpoint(path, &bytes).map_err(SimError::Checkpoint)?;
        }
        Err(self.timeout_error(limit))
    }

    /// Runs to the absolute cycle `limit` in slices of `every` cycles like
    /// [`Machine::run_checkpointed`], but keeps only the image of the last
    /// slice boundary before `limit`, in memory, for a campaign's triage
    /// bundle. Stops before a slice once the wall clock passes `deadline`.
    ///
    /// Returns the outcome (`Ok(None)`: the deadline stopped the run; errors
    /// as [`Machine::run_checkpointed`]) and the last boundary's image.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn run_with_restore_point(
        &mut self,
        limit: u64,
        every: u64,
        deadline: Option<Instant>,
    ) -> (Result<Option<RunResult>, SimError>, Option<Vec<u8>>) {
        assert!(every > 0, "slice length must be non-zero");
        let mut image = None;
        let res = loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break Ok(None);
            }
            match self.run_for(every.min(limit.saturating_sub(self.now.raw()))) {
                Ok(None) if self.now.raw() < limit => match self.checkpoint() {
                    Ok(bytes) => image = Some(bytes),
                    Err(e) => break Err(e),
                },
                Ok(None) => break Err(self.timeout_error(limit)),
                done => break done,
            }
        };
        (res, image)
    }

    /// One machine cycle: wake the sleepers that are due, route the memory
    /// system's events, then step the awake cores. While the event trace is
    /// on, delivered events are recorded into it.
    fn step_cycle(&mut self, now: Cycle) -> Result<(), AuditFailure> {
        let t0 = self.prof.as_ref().map(|_| Instant::now());
        while let Some(&(at, i)) = self.sleepers.first() {
            if at > now {
                break;
            }
            self.sleepers.pop_first();
            self.awake.insert(i as usize);
        }
        let mut events = 0u64;
        for ev in self.mem.tick(now) {
            events += 1;
            if let Some(t) = self.trace.as_mut() {
                if t.len() >= REWIND_TRACE_LIMIT {
                    t.pop_front();
                }
                t.push_back(format!("{}: {ev:?}", now.raw()));
            }
            let target = match ev {
                row_mem::MemEvent::Fill { core, .. } => core,
                row_mem::MemEvent::FarDone { core, .. } => core,
                row_mem::MemEvent::ExternalObserved { core, .. } => core,
            };
            // An event can change the core's state, voiding any sleep proof.
            let i = target.index();
            if self.active.contains(i) && !self.awake.contains(i) {
                let queued = self.sleepers.remove(&(self.wake[i], i as u32));
                debug_assert!(queued, "a sleeping core has one wake-queue entry");
                self.awake.insert(i);
            }
            self.cores[i].handle_mem_event(&ev, now, &mut self.mem);
        }
        let t1 = t0.map(|_| Instant::now());
        let core_steps = if self.audit.is_some() {
            self.step_audited(now)?
        } else {
            let mut steps = 0u64;
            let mut next = self.awake.next_from(0);
            while let Some(i) = next {
                self.step_core(i, now);
                steps += 1;
                next = self.awake.next_from(i + 1);
            }
            steps
        };
        if let (Some(acc), Some(t0), Some(t1)) = (self.prof.as_deref_mut(), t0, t1) {
            acc.mem_tick += t1 - t0;
            acc.core_step += t1.elapsed();
            acc.events += events;
            acc.core_steps += core_steps;
            acc.idle_cycles += u64::from(events == 0 && core_steps == 0);
            acc.cycles += 1;
        }
        Ok(())
    }

    /// Steps awake core `i`, then files it: a finished core leaves the
    /// active set, and one that proves itself inert past the next cycle
    /// joins the wake queue. Returns the proof when the core fell asleep.
    #[inline]
    fn step_core(&mut self, i: usize, now: Cycle) -> Option<Sleep> {
        let c = &mut self.cores[i];
        c.cycle(now, &mut self.mem);
        if c.finished() {
            self.active.remove(i);
            self.awake.remove(i);
            return None;
        }
        // A wake due next cycle changes nothing: the core stays awake and
        // the queue is spared the churn.
        let sleep = c.sleep_until(now).filter(|s| s.until > now + 1)?;
        self.awake.remove(i);
        self.wake[i] = sleep.until;
        self.sleepers.insert((sleep.until, i as u32));
        Some(sleep)
    }

    /// Audit mode's core phase: every active core in ascending index. Awake
    /// cores step as usual and record the proof of any sleep they fall
    /// into; sleeping cores step too, and must come out unchanged. Returns
    /// the number of awake steps.
    fn step_audited(&mut self, now: Cycle) -> Result<u64, AuditFailure> {
        let mut proofs = self.audit.take().expect("audit mode");
        let mut steps = 0u64;
        let mut failure = None;
        let mut next = self.active.next_from(0);
        while let Some(i) = next {
            if self.awake.contains(i) {
                steps += 1;
                proofs[i] = self.step_core(i, now).map(|sleep| Proof {
                    sleep,
                    image: core_image(&self.cores[i]),
                });
            } else {
                let proof = proofs[i].as_ref().expect("a sleeping core has a proof");
                self.cores[i].cycle(now, &mut self.mem);
                if core_image(&self.cores[i]) != proof.image {
                    failure = Some(Shortcut::Sleep {
                        core: i as u16,
                        sleep: proof.sleep,
                    });
                    break;
                }
            }
            next = self.active.next_from(i + 1);
        }
        self.audit = Some(proofs);
        let failure = failure
            .or_else(|| {
                let core = self.mem.untracked_pending()?.index() as u16;
                Some(Shortcut::PendingSet { core })
            })
            .or_else(|| {
                let (core, line) = self.mem.unindexed_holder()?;
                let core = core.index() as u16;
                Some(Shortcut::HolderIndex { core, line })
            })
            .or_else(|| {
                self.active.iter().find_map(|i| {
                    let fault = self.cores[i].parked_fault(now, self.awake.contains(i))?;
                    let core = i as u16;
                    Some(Shortcut::ParkedWrites { core, fault })
                })
            });
        if let Some(shortcut) = failure {
            return Err(AuditFailure {
                cycle: now,
                shortcut,
            });
        }
        debug_assert!(self.wake_queue_is_exact(), "wake queue out of step");
        Ok(steps)
    }

    /// Whether the wake queue holds exactly one entry per sleeping core,
    /// keyed by its wake cycle, and nothing else.
    fn wake_queue_is_exact(&self) -> bool {
        let sleeping: Vec<usize> = self
            .active
            .iter()
            .filter(|&i| !self.awake.contains(i))
            .collect();
        sleeping.len() == self.sleepers.len()
            && sleeping
                .iter()
                .all(|&i| self.sleepers.contains(&(self.wake[i], i as u32)))
    }

    /// Steps until every core drains or `self.now` reaches the absolute
    /// cycle `target`; returns whether all cores finished.
    fn advance(&mut self, target: u64) -> Result<bool, SimError> {
        let every = self.check.invariant_every;
        let window = self.check.watchdog_window;
        while self.now.raw() < target {
            if self.active.is_empty() {
                return Ok(true);
            }
            let now = self.now;
            self.step_cycle(now).map_err(SimError::Audit)?;
            if let Some(e) = self.mem.protocol_error() {
                return Err(SimError::Protocol(e.clone()));
            }
            self.pump_online()?;
            if let Some(k) = every {
                if now.raw().is_multiple_of(k) {
                    let t0 = self.prof.as_ref().map(|_| Instant::now());
                    let sweep = self.sweeper.sweep(&mut self.mem);
                    if let (Some(acc), Some(t0)) = (self.prof.as_deref_mut(), t0) {
                        acc.check += t0.elapsed();
                    }
                    if self.audit.is_some() {
                        self.audit_sweep(&sweep, now)?;
                    }
                    sweep.map_err(SimError::Protocol)?;
                }
            }
            if let Some(w) = window {
                if now.raw() >= w {
                    let latest = self
                        .active
                        .iter()
                        .map(|i| self.cores[i].last_commit())
                        .max();
                    if latest.is_some_and(|t| now.saturating_since(t) >= w) {
                        return Err(SimError::Stall(Box::new(StallReport::capture(
                            &self.cores,
                            &self.mem,
                            now,
                            Some(w),
                        ))));
                    }
                }
            }
            self.now += 1;
        }
        Ok(self.active.is_empty())
    }

    /// [`Machine::advance`] to `target` in slices of `k` cycles from the
    /// current one, keeping the image of the latest slice boundary (the
    /// first is the current cycle). A stall or protocol failure rewinds to
    /// that image ([`Machine::rewind`]).
    fn advance_in_slices(&mut self, target: u64, k: u64) -> Result<bool, SimError> {
        loop {
            let (at, image) = (self.now, self.checkpoint()?);
            match self.advance(target.min(at.raw().saturating_add(k))) {
                Ok(false) if self.now.raw() < target => {}
                Err(cause @ (SimError::Stall(_) | SimError::Protocol(_))) => {
                    return Err(self.rewind(cause, at, &image))
                }
                done => return done,
            }
        }
    }

    /// Restores `image`, taken between two cycles with `at` the next, and
    /// runs [`Machine::advance`] through the cycle that detected `cause`
    /// with the invariant sweep every cycle and the event trace on. The
    /// replay steps the very cycles the run stepped, so the first violation
    /// it sweeps is the run's. Falls back to `cause` if the replay fails
    /// some other way.
    fn rewind(&mut self, cause: SimError, at: Cycle, image: &[u8]) -> SimError {
        let (detected_at, check) = (self.now, self.check);
        self.check.invariant_every = Some(1);
        self.trace = Some(VecDeque::new());
        let replay = self.restore(image).and_then(|()| {
            // The sweep is the incremental one: it needs the dirty lines.
            self.mem.track_dirty_lines(true);
            self.advance(detected_at.raw() + 1)
        });
        self.check = check;
        self.mem.track_dirty_lines(check.invariant_every.is_some());
        let trace = self.trace.take().unwrap_or_default().into();
        let (first_bad_cycle, first_error) = match replay {
            Err(SimError::Protocol(e)) => (Some(self.now), Some(e)),
            Ok(_) | Err(SimError::Stall(_)) => (None, None),
            Err(_) => return cause,
        };
        SimError::Rewind(Box::new(RewindReport {
            cause: Box::new(cause),
            checkpoint_at: at,
            detected_at,
            first_bad_cycle,
            first_error,
            trace,
        }))
    }

    /// Audit mode's check of a periodic incremental sweep: a full sweep of
    /// the same state must agree with its verdict on pass or fail, and
    /// when both fail, name the same violation.
    fn audit_sweep(
        &self,
        incremental: &Result<(), ProtocolError>,
        now: Cycle,
    ) -> Result<(), SimError> {
        let shortcut = match (incremental, check_coherence(&self.mem)) {
            (Ok(()), Ok(())) => return Ok(()),
            (Err(inc), Err(full)) if *inc == full => return Ok(()),
            (Err(inc), Err(full)) => Shortcut::SweepErrors {
                incremental: Box::new(inc.clone()),
                full: Box::new(full),
            },
            (Ok(()), Err(error)) => Shortcut::IncrementalSweep {
                missed: true,
                error,
            },
            (Err(error), Ok(())) => Shortcut::IncrementalSweep {
                missed: false,
                error: error.clone(),
            },
        };
        Err(SimError::Audit(AuditFailure {
            cycle: now,
            shortcut,
        }))
    }

    /// Drains the memory system's journal into the online checker,
    /// validating each record per-operation. Called every cycle when
    /// `CheckConfig::oracle_online` is on; O(records journaled this cycle).
    fn pump_online(&mut self) -> Result<(), SimError> {
        let Some(checker) = self.online.as_mut() else {
            return Ok(());
        };
        self.online_buf.clear();
        self.mem.drain_journal_into(&mut self.online_buf);
        for rec in &self.online_buf {
            checker
                .observe(rec)
                .map_err(|m| SimError::Oracle(Box::new(m)))?;
        }
        Ok(())
    }

    /// End-of-run differential check. In online mode
    /// (`CheckConfig::oracle_online`), the per-operation stream has already
    /// been validated; only the finish pass (exactly-once per core, final
    /// memory state) remains. Otherwise (`CheckConfig::oracle`), the retained
    /// journal goes through the same checks at once ([`row_oracle::check`]).
    fn check_oracle(&mut self) -> Result<(), SimError> {
        let retired: Vec<u64> = self.cores.iter().map(|c| c.stats().atomics).collect();
        if self.online.is_some() {
            self.pump_online()?;
            let checker = self.online.as_ref().expect("checked above");
            return checker
                .finish(self.mem.words(), &retired)
                .map(drop)
                .map_err(|m| SimError::Oracle(Box::new(m)));
        }
        if !self.check.oracle {
            return Ok(());
        }
        let journal = self.mem.journal().unwrap_or(&[]);
        row_oracle::check(journal, self.mem.words(), &retired)
            .map(drop)
            .map_err(|m| SimError::Oracle(Box::new(m)))
    }

    fn timeout_error(&self, limit: u64) -> SimError {
        SimError::Timeout(Box::new(SimTimeout {
            limit,
            unfinished: self
                .cores
                .iter()
                .filter(|c| !c.finished())
                .map(|c| c.id().index() as u16)
                .collect(),
            committed: self.cores.iter().map(|c| c.stats().committed).collect(),
            report: StallReport::capture(&self.cores, &self.mem, self.now, None),
        }))
    }

    /// Serializes the whole machine — memory system, every core, stream
    /// positions, RNGs, and statistics — into a self-validating byte image
    /// (see [`crate::checkpoint`] for the layout). Restoring the image into
    /// an identically-configured machine and continuing is bit-exact with
    /// never having stopped.
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] when the machine holds a sticky protocol
    /// error (a corrupted state must not be snapshotted).
    pub fn checkpoint(&self) -> Result<Vec<u8>, SimError> {
        if self.mem.protocol_error().is_some() {
            return Err(SimError::Checkpoint(PersistError::Corrupt(
                "refusing to checkpoint a machine with a pending protocol error",
            )));
        }
        Ok(checkpoint::FILE.seal(self.cfg_hash, |w| {
            self.now.encode(w);
            self.mem.persist(w);
            w.put_len(self.cores.len());
            for c in &self.cores {
                c.persist(w);
            }
            self.online.encode(w);
        }))
    }

    /// Restores a [`Machine::checkpoint`] image. The machine must have been
    /// built with the same [`SystemConfig`] and streams as the one that was
    /// checkpointed; the header's config hash enforces the former.
    ///
    /// # Errors
    /// [`SimError::Checkpoint`] wrapping the precise [`PersistError`]:
    /// `Corrupt` for a bad magic, truncation, checksum mismatch, or
    /// geometry conflicts; `VersionMismatch` and `ConfigMismatch` for header
    /// disagreements. The machine may be partially overwritten on error and
    /// must not be used further.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        self.try_restore(bytes).map_err(SimError::Checkpoint)
    }

    fn try_restore(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut r = checkpoint::FILE.open(bytes, self.cfg_hash)?;
        let now = Cycle::decode(&mut r)?;
        self.mem.restore(&mut r)?;
        let n = r.get_len()?;
        if n != self.cores.len() {
            return Err(PersistError::Corrupt("checkpoint core count mismatch"));
        }
        for c in self.cores.iter_mut() {
            c.restore(&mut r)?;
        }
        let online = Option::<OnlineChecker>::decode(&mut r)?;
        if online.is_some() != self.online.is_some() {
            return Err(PersistError::Corrupt("online-checker presence mismatch"));
        }
        checkpoint::FILE.finish(&r)?;
        self.online = online;
        self.now = now;
        // Derived state: the active set is a pure function of core state,
        // every active core starts awake (stepping an inert core is a
        // no-op), and the incremental sweeper must re-validate the whole
        // restored system once before trusting line-level increments again
        // (the memory system's restore already re-indexed its holders).
        self.active = unfinished(&self.cores);
        self.wake_all();
        self.sweeper.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::ids::{Addr, Pc};
    use row_cpu::instr::{Instr, Op, RmwKind, VecStream};

    fn faa_prog(n: u64, addr: u64) -> Box<dyn InstrStream> {
        let prog: Vec<Instr> = (0..n)
            .map(|_| {
                Instr::simple(
                    Pc::new(0x40),
                    Op::Atomic {
                        rmw: RmwKind::Faa(1),
                        addr: Addr::new(addr),
                    },
                )
            })
            .collect();
        Box::new(VecStream::new(prog))
    }

    #[test]
    fn four_core_faa_sums_exactly() {
        let cfg = SystemConfig::small(4);
        let streams: Vec<Box<dyn InstrStream>> = (0..4).map(|_| faa_prog(25, 0xabc000)).collect();
        let mut m = Machine::new(&cfg, streams);
        let r = m.run(3_000_000).expect("finishes");
        assert_eq!(m.memory().read_word(Addr::new(0xabc000)), 100);
        assert_eq!(r.total.atomics, 100);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn timeout_is_reported_with_progress_and_stall_report() {
        let cfg = SystemConfig::small(2);
        let streams: Vec<Box<dyn InstrStream>> = (0..2).map(|_| faa_prog(50, 0xddd000)).collect();
        let mut m = Machine::new(&cfg, streams);
        let err = m.run(10).expect_err("cannot finish in 10 cycles");
        let SimError::Timeout(t) = err else {
            panic!("expected a timeout, got {err}");
        };
        assert_eq!(t.limit, 10);
        assert!(!t.unfinished.is_empty());
        assert_eq!(t.committed.len(), 2);
        assert_eq!(t.report.cores.len(), 2);
        assert!(!t.to_string().is_empty());
    }

    /// The restore-point loop stops exactly at its limit with the standard
    /// timeout and keeps the last slice boundary before the limit; a passed
    /// wall deadline stops it before it runs anything.
    #[test]
    fn restore_point_loop_stops_at_the_limit_and_the_deadline() {
        let cfg = SystemConfig::small(2);
        let streams =
            || -> Vec<Box<dyn InstrStream>> { (0..2).map(|_| faa_prog(500, 0xddd000)).collect() };
        let mut m = Machine::new(&cfg, streams());
        let (res, image) = m.run_with_restore_point(2_500, 1_000, None);
        let Err(SimError::Timeout(t)) = res else {
            panic!("expected a timeout, got {res:?}");
        };
        assert_eq!((t.limit, m.now().raw()), (2_500, 2_500));
        let mut restored = Machine::new(&cfg, streams());
        restored
            .restore(&image.expect("a boundary precedes the limit"))
            .expect("the image restores");
        assert_eq!(restored.now().raw(), 2_000);

        let mut late = Machine::new(&cfg, streams());
        let (res, image) = late.run_with_restore_point(2_500, 1_000, Some(Instant::now()));
        assert!(matches!(res, Ok(None)) && image.is_none());
        assert_eq!(late.now().raw(), 0);
    }

    /// A contended-lock run that exhausts its budget must name the stalled
    /// cores' head instructions in the diagnostic report.
    #[test]
    fn exhausted_contended_run_names_head_instructions() {
        let cfg = SystemConfig::small(4);
        let streams: Vec<Box<dyn InstrStream>> = (0..4).map(|_| faa_prog(200, 0xccc000)).collect();
        let mut m = Machine::new(&cfg, streams);
        // Far too small a budget for 800 contended atomics: the machine is
        // wedged mid-handoff when the budget runs out.
        let err = m.run(2_000).expect_err("budget too small");
        let SimError::Timeout(t) = err else {
            panic!("expected a timeout, got {err}");
        };
        // A lucky core can stream its atomics while holding the lock, so
        // only require that several cores are still wedged.
        assert!(t.unfinished.len() >= 2, "unfinished: {:?}", t.unfinished);
        let heads = t.report.cores.iter().filter(|c| c.head.is_some()).count();
        assert!(heads > 0, "no head instruction captured:\n{}", t.report);
        let text = t.report.to_string();
        assert!(
            text.contains("atomic"),
            "heads should name atomics:\n{text}"
        );
    }

    /// With a tiny watchdog window, a single long-latency miss trips the
    /// stall detector before any commit happens.
    #[test]
    fn watchdog_fires_on_tiny_window() {
        let mut cfg = SystemConfig::small(2);
        cfg.check.watchdog_window = Some(50);
        let streams: Vec<Box<dyn InstrStream>> = (0..2).map(|_| faa_prog(5, 0xeee000)).collect();
        let mut m = Machine::new(&cfg, streams);
        // The first memory-latency miss (> 50 cycles) exceeds the window.
        let err = m.run(1_000_000).expect_err("window far below miss latency");
        let SimError::Stall(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(report.window, Some(50));
        assert_eq!(report.stalled_cores().len(), 2);
    }

    /// A corrupted second Modified owner surfaces from `run` as a protocol
    /// error, not a panic or a silent miscount.
    #[test]
    fn injected_dual_owner_surfaces_as_protocol_error() {
        let cfg = SystemConfig::small(2);
        let streams: Vec<Box<dyn InstrStream>> = (0..2).map(|_| faa_prog(40, 0xabc040)).collect();
        let mut m = Machine::new(&cfg, streams);
        m.memory_mut().corrupt_private_state_for_test(
            CoreId::new(0),
            row_common::ids::LineAddr::new(0xabc080 >> 6),
            Some(row_mem::PrivState::M),
        );
        m.memory_mut().corrupt_private_state_for_test(
            CoreId::new(1),
            row_common::ids::LineAddr::new(0xabc080 >> 6),
            Some(row_mem::PrivState::M),
        );
        let err = m.run(3_000_000).expect_err("corruption must be caught");
        assert!(
            matches!(
                err,
                SimError::Protocol(ProtocolError::MultipleOwners { .. })
            ),
            "got {err}"
        );
    }

    /// A restore re-indexes the restored caches' holders: the first
    /// incremental sweep after the priming full sweep catches a corruption
    /// on a line whose holders saw no traffic since the restore.
    #[test]
    fn restore_rebuilds_the_holder_index() {
        let cfg = SystemConfig::small(2); // sweeps every 2,048 cycles
        let addr = Addr::new(0x7000);
        let streams = || -> Vec<Box<dyn InstrStream>> {
            (0..2)
                .map(|_| {
                    let load = Instr::simple(Pc::new(0x40), Op::Load { addr });
                    Box::new(VecStream::new(vec![load; 60_000])) as Box<dyn InstrStream>
                })
                .collect()
        };
        let mut first = Machine::new(&cfg, streams());
        assert!(first.run_for(3_000).expect("runs clean").is_none());
        let image = first.checkpoint().expect("checkpointable");
        let mut m = Machine::new(&cfg, streams());
        m.restore(&image).expect("restores");
        // The sweep at 4,096 is the full one that primes the restored
        // sweeper; the one at 6,144 is incremental.
        assert!(m.run_for(1_100).expect("runs clean").is_none());
        let line = addr.line();
        for core in [0, 1] {
            let state = m.memory().priv_state(CoreId::new(core), line);
            assert_eq!(state, Some(row_mem::PrivState::S));
        }
        let core0 = BTreeSet::from([CoreId::new(0)]);
        m.memory_mut()
            .corrupt_dir_state_for_test(line, row_mem::DirState::Shared(core0));
        let full = m.check_invariants().expect_err("core 1 is not listed");
        assert!(
            matches!(full, ProtocolError::DirectoryMismatch { core, .. } if core == CoreId::new(1)),
            "{full}"
        );
        let err = m.run(1_000_000).expect_err("the corruption must be caught");
        assert_eq!(err, SimError::Protocol(full));
        assert_eq!(m.now().raw(), 6_144, "caught by the incremental sweep");
    }

    /// An on-demand snapshot works on a healthy machine too.
    #[test]
    fn on_demand_report_and_invariant_check() {
        let cfg = SystemConfig::small(2);
        let streams: Vec<Box<dyn InstrStream>> = (0..2).map(|_| faa_prog(3, 0xaaa000)).collect();
        let mut m = Machine::new(&cfg, streams);
        m.run(3_000_000).expect("drains");
        m.check_invariants().expect("clean machine");
        let r = m.stall_report(Cycle::new(123));
        assert_eq!(r.cores.len(), 2);
        assert!(r.window.is_none());
    }

    #[test]
    #[should_panic(expected = "one instruction stream per core")]
    fn stream_count_must_match() {
        let cfg = SystemConfig::small(2);
        Machine::new(&cfg, vec![faa_prog(1, 0)]);
    }
}
