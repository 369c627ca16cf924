//! The multicore machine: N cores + the shared memory system, stepped in
//! lockstep until every thread's parallel phase drains.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use row_check::{check_coherence, IncrementalSweep, StallReport};
use row_common::config::CheckConfig;
use row_common::coverage::CoverageMap;
use row_common::ids::CoreId;
use row_common::persist::{fnv1a, Codec, Persist, PersistError, Reader, Writer};
use row_common::stats::{AccuracyCounter, RunningMean, TransportStats};
use row_common::{Cycle, SystemConfig};
use row_cpu::instr::InstrStream;
use row_cpu::{Core, CoreStats};
use row_mem::{MemorySystem, OpRecord, ProtocolError};
use row_oracle::{OnlineChecker, OracleMismatch};

use crate::checkpoint::{FORMAT_VERSION, MAGIC};

/// Maximum number of event-trace lines a rewind replay keeps (the most
/// recent events before the first violation).
pub const REWIND_TRACE_LIMIT: usize = 64;

/// Error returned when a simulation exceeds its cycle budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTimeout {
    /// The budget that was exhausted.
    pub limit: u64,
    /// Cores that had not drained.
    pub unfinished: Vec<u16>,
    /// Per-core committed-instruction counts at the timeout.
    pub committed: Vec<u64>,
    /// Per-core cycle of the most recent commit.
    pub last_commit: Vec<Cycle>,
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
    /// A violation was detected and replayed from the last in-memory
    /// checkpoint with per-cycle checking (`CheckConfig::rewind_every`); the
    /// report localizes the first offending cycle.
    Rewind(Box<RewindReport>),
    /// The linearizability oracle (`CheckConfig::oracle` or
    /// `oracle_online`) found the run's journal inconsistent with the
    /// sequential golden model — an atomic was lost, duplicated, or
    /// mis-applied even though the timing looked healthy.
    Oracle(Box<OracleMismatch>),
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
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a rewind-on-violation replay: the original failure plus the
/// tighter localization obtained by re-running from the last in-memory
/// checkpoint with the invariant sweep on every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewindReport {
    /// The error the forward run originally hit (watchdog stall or a
    /// protocol violation found by the periodic sweep).
    pub cause: Box<SimError>,
    /// Cycle of the checkpoint the replay started from.
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
    /// Host cycles simulated during the profiled slice.
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
    /// `Core::cycle` invocations (active core-steps).
    pub core_steps: u64,
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
}

#[derive(Default)]
struct ProfileAccum {
    mem_tick: Duration,
    core_step: Duration,
    check: Duration,
    events: u64,
    core_steps: u64,
    cycles: u64,
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
    /// Last in-memory checkpoint for rewind-on-violation
    /// (`CheckConfig::rewind_every`).
    rewind_ckpt: Option<(Cycle, Vec<u8>)>,
    /// Streaming per-operation linearizability checker
    /// (`CheckConfig::oracle_online`); fed by draining the memory system's
    /// journal every cycle, so journal memory stays O(one cycle's ops).
    online: Option<OnlineChecker>,
    /// Reused drain buffer for the online checker (avoids a per-cycle
    /// allocation on the hot path).
    online_buf: Vec<OpRecord>,
    /// Incremental invariant sweeper driving the periodic in-run check off
    /// the memory system's dirty-line set (full sweeps remain at drain, on
    /// demand, and during rewind replay).
    sweeper: IncrementalSweep,
    /// Indices of cores that have not yet finished, ascending. Core order
    /// is preserved so per-cycle stepping visits cores exactly as the full
    /// scan did (message sequencing, and with it determinism, depends on
    /// it). Derived state: rebuilt on restore, never persisted.
    active: Vec<u32>,
    /// Per-core wake cycle: a core whose entry is `> now` proved (via
    /// [`Core::sleep_until`]) that stepping it is a state no-op until then.
    /// Delivering any memory event to a core resets its entry to zero, so a
    /// sleeping core is re-stepped the moment something can change its
    /// state. Derived state: rebuilt on restore, never persisted.
    wake: Vec<Cycle>,
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
        let active = (0..cores.len() as u32).collect();
        let wake = vec![Cycle::ZERO; cores.len()];
        Machine {
            mem,
            cores,
            check: cfg.check,
            now: Cycle::ZERO,
            cfg_hash: fnv1a(format!("{cfg:?}").as_bytes()),
            rewind_ckpt: None,
            online: cfg
                .check
                .oracle_online
                .then(|| OnlineChecker::new(cfg.cores)),
            online_buf: Vec::new(),
            sweeper: IncrementalSweep::new(),
            active,
            wake,
            prof: None,
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
        check_coherence(&self.mem, &self.check)
    }

    /// Runs until every core drains or the absolute cycle `limit` is
    /// reached (the count starts from [`Machine::now`], so a restored
    /// machine continues against the same budget).
    ///
    /// Robustness hooks from [`CheckConfig`] run inside the loop: the
    /// coherence invariant sweep every `invariant_every` cycles (and once on
    /// drain), a deadlock watchdog that fires when no core commits for
    /// `watchdog_window` cycles, and — when `rewind_every` is set — an
    /// in-memory checkpoint that turns any stall/protocol failure into a
    /// [`SimError::Rewind`] replay localizing the first offending cycle.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget is exhausted (the error carries
    /// per-core progress counters and a full [`StallReport`]),
    /// [`SimError::Stall`] when the watchdog fires,
    /// [`SimError::Protocol`] when a coherence invariant is violated, and
    /// [`SimError::Rewind`] for either of the latter two when rewind is
    /// enabled and a checkpoint was available.
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
        if !self.advance(target)? {
            return Ok(None);
        }
        if self.check.invariant_every.is_some() {
            check_coherence(&self.mem, &self.check).map_err(SimError::Protocol)?;
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

    /// One machine cycle: route the memory system's events, then step every
    /// unfinished core. When `trace` is given, delivered events are recorded
    /// into it (bounded to [`REWIND_TRACE_LIMIT`] entries).
    fn step_cycle(&mut self, now: Cycle, mut trace: Option<&mut VecDeque<String>>) {
        let t0 = self.prof.as_ref().map(|_| Instant::now());
        let mut events = 0u64;
        for ev in self.mem.tick(now) {
            events += 1;
            if let Some(t) = trace.as_deref_mut() {
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
            self.wake[target.index()] = Cycle::ZERO;
            self.cores[target.index()].handle_mem_event(&ev, now, &mut self.mem);
        }
        let t1 = t0.map(|_| Instant::now());
        // Step only the unfinished cores (ascending index — the same visit
        // order the full scan had, which message sequencing depends on).
        // `Core::finished()` is monotonic, so a core leaves the active set
        // exactly once and quiesced cores cost nothing per cycle. Within the
        // active set, a core that proved itself inert (`Core::sleep_until`)
        // is skipped until its wake cycle or its next delivered event —
        // skipping a proven no-op call cannot change the schedule.
        let mut core_steps = 0u64;
        let mut any_finished = false;
        for slot in 0..self.active.len() {
            let i = self.active[slot] as usize;
            if self.wake[i] > now {
                continue;
            }
            let c = &mut self.cores[i];
            c.cycle(now, &mut self.mem);
            core_steps += 1;
            any_finished |= c.finished();
            self.wake[i] = c.sleep_until(now).unwrap_or(now + 1);
        }
        if any_finished {
            let cores = &self.cores;
            self.active.retain(|&i| !cores[i as usize].finished());
        }
        if let (Some(acc), Some(t0), Some(t1)) = (self.prof.as_deref_mut(), t0, t1) {
            acc.mem_tick += t1 - t0;
            acc.core_step += t1.elapsed();
            acc.events += events;
            acc.core_steps += core_steps;
            acc.cycles += 1;
        }
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
            self.step_cycle(now, None);
            if let Some(e) = self.mem.protocol_error() {
                let e = e.clone();
                return Err(self.maybe_rewind(SimError::Protocol(e), now));
            }
            self.pump_online()?;
            if let Some(k) = every {
                if now.raw().is_multiple_of(k) {
                    let t0 = self.prof.as_ref().map(|_| Instant::now());
                    let sweep = self.sweeper.sweep(&mut self.mem, &self.check);
                    if let (Some(acc), Some(t0)) = (self.prof.as_deref_mut(), t0) {
                        acc.check += t0.elapsed();
                    }
                    if let Err(e) = sweep {
                        return Err(self.maybe_rewind(SimError::Protocol(e), now));
                    }
                }
            }
            if let Some(w) = window {
                if now.raw() >= w {
                    let latest = self
                        .active
                        .iter()
                        .map(|&i| self.cores[i as usize].last_commit())
                        .max();
                    if latest.is_some_and(|t| now.saturating_since(t) >= w) {
                        let stall = SimError::Stall(Box::new(StallReport::capture(
                            &self.cores,
                            &self.mem,
                            now,
                            Some(w),
                        )));
                        return Err(self.maybe_rewind(stall, now));
                    }
                }
            }
            // Refresh the rewind checkpoint only after every check passed:
            // it must capture a provably-coherent state to replay from.
            if let Some(k) = self.check.rewind_every {
                if now.raw().is_multiple_of(k) {
                    if let Ok(bytes) = self.checkpoint() {
                        self.rewind_ckpt = Some((now, bytes));
                    }
                }
            }
            self.now += 1;
        }
        Ok(self.active.is_empty())
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
            last_commit: self.cores.iter().map(|c| c.last_commit()).collect(),
            report: StallReport::capture(&self.cores, &self.mem, self.now, None),
        }))
    }

    /// On a stall/protocol failure with rewind enabled and a checkpoint in
    /// hand: restore it and replay with the invariant sweep on *every*
    /// cycle, producing a [`RewindReport`] that names the first cycle the
    /// machine actually went wrong. Falls back to the original error when no
    /// checkpoint exists or the replay itself cannot run.
    fn maybe_rewind(&mut self, cause: SimError, detected_at: Cycle) -> SimError {
        if self.check.rewind_every.is_none() {
            return cause;
        }
        let Some((checkpoint_at, bytes)) = self.rewind_ckpt.take() else {
            return cause;
        };
        match self.replay_from(&bytes, detected_at) {
            Ok((first_bad_cycle, first_error, trace)) => SimError::Rewind(Box::new(RewindReport {
                cause: Box::new(cause),
                checkpoint_at,
                detected_at,
                first_bad_cycle,
                first_error,
                trace,
            })),
            Err(_) => cause,
        }
    }

    #[allow(clippy::type_complexity)]
    fn replay_from(
        &mut self,
        bytes: &[u8],
        detected_at: Cycle,
    ) -> Result<(Option<Cycle>, Option<ProtocolError>, Vec<String>), SimError> {
        self.restore(bytes)?;
        let mut trace: VecDeque<String> = VecDeque::new();
        let mut first_bad = None;
        let mut first_err = None;
        while self.now <= detected_at {
            let now = self.now;
            self.step_cycle(now, Some(&mut trace));
            let err = self
                .mem
                .protocol_error()
                .cloned()
                .or_else(|| check_coherence(&self.mem, &self.check).err());
            if let Some(e) = err {
                first_bad = Some(now);
                first_err = Some(e);
                break;
            }
            self.now += 1;
        }
        Ok((first_bad, first_err, trace.into_iter().collect()))
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
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(self.cfg_hash);
        self.now.encode(&mut w);
        self.mem.persist(&mut w);
        w.put_len(self.cores.len());
        for c in &self.cores {
            c.persist(&mut w);
        }
        self.online.encode(&mut w);
        let checksum = fnv1a(w.bytes());
        w.put_u64(checksum);
        Ok(w.into_bytes())
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
        let header = MAGIC.len() + 4 + 8 + 8;
        if bytes.len() < header + 8 {
            return Err(PersistError::Corrupt("checkpoint too short"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::Corrupt("not a norush checkpoint"));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let mut r = Reader::new(payload);
        let _ = r.get_bytes(MAGIC.len())?;
        let found = r.get_u32()?;
        if found != FORMAT_VERSION {
            return Err(PersistError::VersionMismatch {
                found,
                expected: FORMAT_VERSION,
            });
        }
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
        if fnv1a(payload) != stored {
            return Err(PersistError::Corrupt("checkpoint checksum mismatch"));
        }
        let found = r.get_u64()?;
        if found != self.cfg_hash {
            return Err(PersistError::ConfigMismatch {
                found,
                expected: self.cfg_hash,
            });
        }
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
        if !r.is_empty() {
            return Err(PersistError::Corrupt("trailing bytes in checkpoint"));
        }
        self.online = online;
        self.now = now;
        self.rewind_ckpt = None;
        // Derived state: the active set is a pure function of core state,
        // and the incremental sweeper must re-validate the whole restored
        // system once before trusting line-level increments again.
        self.active = (0..self.cores.len() as u32)
            .filter(|&i| !self.cores[i as usize].finished())
            .collect();
        self.wake = vec![Cycle::ZERO; self.cores.len()];
        self.sweeper.invalidate();
        self.mem
            .track_dirty_lines(self.check.invariant_every.is_some());
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
        assert_eq!(t.last_commit.len(), 2);
        assert_eq!(t.report.cores.len(), 2);
        assert!(!t.to_string().is_empty());
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
