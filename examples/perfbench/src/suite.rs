//! The four workloads: how each one builds its machines, runs a timed pass,
//! checks its simulated output, and runs the traced pass that splits host
//! time by layer.
//!
//! Every number here is host time unless its name says otherwise; simulated
//! outputs (cycles, work counts) are only checked, never timed.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

use norush::common::config::{AtomicPolicy, FaultConfig, RowConfig};
use norush::common::ids::CoreId;
use norush::common::persist::fnv1a;
use norush::common::rng::SplitMix64;
use norush::cpu::instr::{InstrStream, VecStream};
use norush::oracle::OnlineChecker;
use norush::sim::{
    bench_streams, explore, run_schedule, ExperimentConfig, ExploreOptions, Machine, ProfileReport,
    RunResult,
};
use norush::workloads::{
    Benchmark, LitmusTest, LockServiceConfig, LockServiceStream, OutcomeClass, ServiceKernel,
};
use norush::SystemConfig;

use crate::host;
use crate::stats::{median, percentile, Series};

type Res<T> = Result<T, Box<dyn Error>>;

/// Cycles the untimed warm-up cell runs: enough to fault in the machine's
/// arrays (the first 256-core `Machine::new` costs 3x the later ones).
const WARMUP_CYCLES: u64 = 20_000;
/// Cycles the resume check runs the uninterrupted and the restored machine
/// side by side before comparing their checkpoint images.
const RESUME_WINDOW: u64 = 10_000;
/// Set-up is repeated until it has this many samples and this much time.
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MIN_SECS: f64 = 0.2;
const SETUP_MAX_SAMPLES: usize = 200;
/// A timed restore is repeated until this much time has passed (small
/// machines restore in microseconds), at most `RESTORE_MAX_REPS` times.
const RESTORE_MIN_SECS: f64 = 0.1;
const RESTORE_MAX_REPS: usize = 25;
/// Traced explore-litmus: default-schedule runs per test, and seeded
/// decision vectors per test for the schedule latency distribution.
const LITMUS_REPS: usize = 20;
const SCHEDULES_PER_TEST: u64 = 100;

/// A workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Contended256,
    Busy32,
    ExploreLitmus,
    LossyService32,
}

impl Workload {
    /// Smallest footprint first: memory the allocator keeps after one
    /// workload then stays below the next one's own peak, so `peak_rss_mb`
    /// stays close to per-workload even when several run in one process.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreLitmus,
        Workload::LossyService32,
        Workload::Busy32,
        Workload::Contended256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Contended256 => "contended-256",
            Workload::Busy32 => "busy-32",
            Workload::ExploreLitmus => "explore-litmus",
            Workload::LossyService32 => "lossy-service-32",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes when neither `--passes` nor `--seconds` is given.
    pub fn default_passes(self) -> usize {
        match self {
            Workload::Busy32 => 5,
            _ => 3,
        }
    }
}

/// How many timed passes to run.
#[derive(Clone, Copy, Debug)]
pub enum Plan {
    Passes(usize),
    /// Keep starting passes while the next one (assumed as long as the
    /// last) still ends within this many seconds; always at least one.
    Seconds(f64),
}

/// The simulated output of one cell: the counts a speed-only change must
/// leave identical, and a digest of anything else it must not change.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    pub cell: String,
    pub counts: Vec<(&'static str, u64)>,
    pub detail: String,
}

impl CellRecord {
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// fnv1a of every count and the detail digest.
    pub fn fingerprint(&self) -> u64 {
        let mut s: String = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v};"))
            .collect();
        s.push_str(&self.detail);
        fnv1a(s.as_bytes())
    }
}

/// A per-layer metric of the traced pass.
pub struct Layer {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
pub struct Report {
    pub workload: Workload,
    pub passes: usize,
    pub e2e: Vec<Series>,
    /// Empty unless the run was traced.
    pub layers: Vec<Layer>,
    /// One record per cell, from the first pass.
    pub cells: Vec<CellRecord>,
    /// The host-speed kernel's times; their median scales the host times.
    pub kernel_s: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Correctness bookkeeping: every cell run, resume check and consistency
/// check is one attempted operation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// The first record of each cell; later passes must reproduce it.
    refs: BTreeMap<String, CellRecord>,
}

impl Checks {
    fn record(&mut self, what: &str, res: Res<()>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Checks `rec` against the first record of the same cell.
    fn agree(&mut self, rec: CellRecord) -> Res<()> {
        match self.refs.get(&rec.cell) {
            None => {
                self.refs.insert(rec.cell.clone(), rec);
                Ok(())
            }
            Some(first) if *first == rec => Ok(()),
            Some(first) => Err(format!(
                "output differs between passes (fingerprint {:016x} vs {:016x})",
                first.fingerprint(),
                rec.fingerprint()
            )
            .into()),
        }
    }
}

/// Host time of one timed pass, split the way the end-to-end metrics need.
#[derive(Default)]
struct Pass {
    /// Input generation plus `Machine::new`, for every cell.
    setup_s: f64,
    /// Inside `Machine::run_for` (or `explore`).
    run_s: f64,
    /// Periodic checkpoints of sliced cells.
    ckpt_s: f64,
    /// `Machine::new` plus `restore` of the mid-run images.
    resume_s: f64,
    /// Simulated cycles, or explored schedules.
    work: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// RoW as the CLI runs it.
fn row() -> AtomicPolicy {
    AtomicPolicy::Row(RowConfig::best().with_locality_override(false))
}

type Streams = Box<dyn Fn() -> Vec<Box<dyn InstrStream>>>;

/// One simulated machine of a workload.
struct Cell {
    name: &'static str,
    sys: SystemConfig,
    streams: Streams,
    limit: u64,
    /// The resume check: checkpoint at this cycle and finish the cell in a
    /// fresh machine restored from the image.
    resume_at: Option<u64>,
    /// Run in slices ending at multiples of this many cycles, with an
    /// in-memory checkpoint after each (the soak driver's discipline).
    slice: Option<u64>,
}

impl Cell {
    fn machine(&self) -> Machine {
        Machine::new(&self.sys, (self.streams)())
    }
}

/// `bench` at `cores` cores with the paper's caches under each policy.
fn paper_cells(
    bench: Benchmark,
    cores: usize,
    instructions: u64,
    seed: u64,
    policies: &[(&'static str, AtomicPolicy)],
    resume_at: u64,
) -> Vec<Cell> {
    let mut exp = ExperimentConfig::quick();
    exp.cores = cores;
    exp.instructions = instructions;
    exp.seed = seed;
    exp.paper_caches = true;
    exp.cycle_limit = 200_000_000;
    policies
        .iter()
        .map(|&(name, policy)| Cell {
            name,
            sys: exp.system().with_policy(policy),
            streams: Box::new(move || bench_streams(bench, &exp)),
            limit: exp.cycle_limit,
            resume_at: (name == "row").then_some(resume_at),
            slice: None,
        })
        .collect()
}

/// The machines of a simulation workload (every workload but explore).
fn cells(w: Workload, seed: u64) -> Vec<Cell> {
    match w {
        Workload::Contended256 => paper_cells(
            Benchmark::Pc,
            256,
            1_000,
            seed,
            &[
                ("eager", AtomicPolicy::Eager),
                ("lazy", AtomicPolicy::Lazy),
                ("row", row()),
            ],
            500_000,
        ),
        Workload::Busy32 => paper_cells(
            Benchmark::Canneal,
            32,
            20_000,
            seed,
            &[("eager", AtomicPolicy::Eager), ("row", row())],
            25_000,
        ),
        Workload::LossyService32 => {
            // Phase 0 of `norush soak --policies row --kernel counter
            // --cores 32 --ops 1000` with the lossy rates below.
            let cores = 32;
            let mut exp = ExperimentConfig::quick();
            exp.cores = cores;
            exp.seed = seed;
            exp.check.invariant_every = Some(4_096);
            exp.check.watchdog_window = Some(2_000_000);
            exp.check.oracle_online = true;
            exp.check.chaos = Some(FaultConfig {
                seed: 1,
                max_extra_latency: 40,
                drop_ppm: 2_000,
                dup_ppm: 2_000,
                corrupt_ppm: 1_000,
            });
            let svc = LockServiceConfig {
                ops_per_thread: 1_000,
                ..LockServiceConfig::soak(ServiceKernel::Counter)
            };
            vec![Cell {
                name: "row",
                sys: exp.system().with_policy(row()),
                streams: Box::new(move || {
                    (0..cores)
                        .map(|t| Box::new(LockServiceStream::new(svc, t, cores, seed)) as _)
                        .collect()
                }),
                limit: 2_000_000,
                resume_at: Some(1_000_000),
                slice: Some(250_000),
            }]
        }
        Workload::ExploreLitmus => unreachable!("explore-litmus has no simulation cells"),
    }
}

/// Runs `m` to the absolute cycle `until` or until it drains, timing the
/// simulation into `p.run_s`. A sliced cell checkpoints at every slice
/// boundary, timed into `p.ckpt_s`, keeping the latest image in `image`.
fn drive(
    m: &mut Machine,
    cell: &Cell,
    until: u64,
    p: &mut Pass,
    image: &mut Vec<u8>,
) -> Res<Option<RunResult>> {
    while m.now().raw() < until {
        let now = m.now().raw();
        let step = match cell.slice {
            Some(s) => (s - now % s).min(until - now),
            None => until - now,
        };
        let t = Instant::now();
        let done = m.run_for(step)?;
        p.run_s += secs(t);
        if done.is_some() {
            return Ok(done);
        }
        if cell.slice.is_some_and(|s| m.now().raw().is_multiple_of(s)) {
            // Free the previous image first so that two never coexist.
            drop(std::mem::take(image));
            let t = Instant::now();
            *image = m.checkpoint()?;
            p.ckpt_s += secs(t);
        }
    }
    Ok(None)
}

/// Builds a fresh machine with `make` and restores `image` into it,
/// repeating until the timing is long enough to trust. Returns the last
/// restored machine and the median time of `Machine::new` plus `restore`.
fn timed_restore(make: &dyn Fn() -> Machine, image: &[u8]) -> Res<(Machine, f64)> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let mut m = make();
        m.restore(image)?;
        samples.push(secs(t));
        if secs(start) >= RESTORE_MIN_SECS || samples.len() >= RESTORE_MAX_REPS {
            return Ok((m, median(&samples)));
        }
    }
}

/// The simulated output of a drained simulation cell.
fn sim_record(cell: &str, r: &RunResult, m: &Machine) -> CellRecord {
    let mem = m.memory();
    let noc = mem.noc_stats();
    let (mut l1, mut l2, mut misses) = (0, 0, 0);
    for c in 0..mem.cores() {
        let s = mem.cache_stats(CoreId::new(c as u16));
        l1 += s.l1_hits;
        l2 += s.l2_hits;
        misses += s.misses;
    }
    let acc = r.accuracy.unwrap_or_default();
    let tr = r.transport.unwrap_or_default();
    CellRecord {
        cell: cell.to_string(),
        counts: vec![
            ("cycles", r.cycles),
            ("committed", r.total.committed),
            ("atomics", r.total.atomics),
            ("atomics_lazy", r.total.atomics_lazy),
            ("noc_messages", noc.messages),
            ("noc_flit_hops", noc.flit_hops),
            ("l1_hits", l1),
            ("l2_hits", l2),
            ("misses", misses),
            ("remote_fills", r.remote_fills),
            ("predictions", acc.total()),
            (
                "predictions_correct",
                acc.true_contended + acc.true_uncontended,
            ),
            ("transport_retries", tr.retries),
            ("transport_nack_retransmits", tr.nack_retransmits),
            ("transport_giveups", tr.giveups),
            ("online_ops", m.online_checker().map_or(0, |c| c.ops_seen())),
        ],
        detail: String::new(),
    }
}

/// What an uninterrupted and a resumed machine must agree on: the whole
/// checkpoint image while running, the simulated output once drained.
fn digest(m: &Machine, done: &Option<RunResult>) -> Res<u64> {
    Ok(match done {
        None => fnv1a(&m.checkpoint()?),
        Some(r) => sim_record("", r, m).fingerprint(),
    })
}

/// Runs one cell to completion, with the resume check when the cell has
/// one, and returns its result and final machine.
fn run_cell(cell: &Cell, mut m: Machine, p: &mut Pass) -> Res<(RunResult, Machine)> {
    let mut image = Vec::new();
    if let Some(at) = cell.resume_at {
        if drive(&mut m, cell, at, p, &mut image)?.is_some() {
            return Err(format!("drained before the resume point {at}").into());
        }
        if cell.slice.is_none() {
            image = m.checkpoint()?;
        }
        // The uninterrupted machine is the untimed reference the restored
        // one must match over the next window. It is dropped before the
        // restore so that two 256-core machines never coexist.
        let reference = m.run_for(RESUME_WINDOW)?;
        let expected = digest(&m, &reference)?;
        drop(m);
        let (mut resumed, resume_s) = timed_restore(&|| cell.machine(), &image)?;
        p.resume_s += resume_s;
        image = Vec::new();
        let continued = drive(&mut resumed, cell, at + RESUME_WINDOW, p, &mut image)?;
        if digest(&resumed, &continued)? != expected {
            return Err(format!("resume at cycle {at} diverged from the uninterrupted run").into());
        }
        m = resumed;
        if let Some(r) = continued {
            return Ok((r, m));
        }
    }
    let r = drive(&mut m, cell, cell.limit, p, &mut image)?
        .ok_or_else(|| format!("did not drain within {} cycles", cell.limit))?;
    Ok((r, m))
}

fn sim_pass(cells: &[Cell], checks: &mut Checks) -> Pass {
    let mut p = Pass::default();
    for cell in cells {
        let t = Instant::now();
        let m = cell.machine();
        p.setup_s += secs(t);
        let res = run_cell(cell, m, &mut p).and_then(|(r, m)| {
            p.work += r.cycles as f64;
            if r.transport.is_some_and(|t| t.giveups > 0) {
                return Err("the transport gave up on a message".into());
            }
            checks.agree(sim_record(cell.name, &r, &m))
        });
        checks.record(cell.name, res);
    }
    p
}

fn litmus_streams(test: &LitmusTest) -> Vec<Box<dyn InstrStream>> {
    test.programs
        .iter()
        .map(|p| Box::new(VecStream::new(p.clone())) as _)
        .collect()
}

/// A litmus machine as the explorer builds one: loads recorded.
fn litmus_machine(
    test: &LitmusTest,
    sys: &SystemConfig,
    streams: Vec<Box<dyn InstrStream>>,
) -> Machine {
    let mut m = Machine::new(sys, streams);
    for c in 0..test.cores() {
        m.core_mut(c).record_loads();
    }
    m
}

fn explore_opts() -> ExploreOptions {
    ExploreOptions {
        policy: "row".into(),
        ..ExploreOptions::default()
    }
}

fn litmus_suite(opts: &ExploreOptions) -> Vec<(LitmusTest, SystemConfig)> {
    LitmusTest::all()
        .into_iter()
        .map(|t| {
            let sys = opts.system(t.cores()).expect("row is a known policy");
            (t, sys)
        })
        .collect()
}

/// Resume check of one litmus test's default schedule: checkpoint halfway,
/// finish in a restored machine, and compare with the uninterrupted run.
/// Returns the timed restore.
fn litmus_resume(test: &LitmusTest, sys: &SystemConfig, limit: u64) -> Res<f64> {
    let make = || litmus_machine(test, sys, litmus_streams(test));
    let mut full = make();
    let r = full.run(limit)?;
    let mut half = make();
    if half.run_for(r.cycles / 2)?.is_some() {
        return Err("drained before the resume point".into());
    }
    let (mut resumed, resume_s) = timed_restore(&make, &half.checkpoint()?)?;
    resumed.run(limit)?;
    if fnv1a(&resumed.checkpoint()?) != fnv1a(&full.checkpoint()?) {
        return Err("resume diverged from the uninterrupted run".into());
    }
    Ok(resume_s)
}

fn explore_pass(opts: &ExploreOptions, checks: &mut Checks) -> Pass {
    let mut p = Pass::default();
    let t = Instant::now();
    let suite = litmus_suite(opts);
    for (test, sys) in &suite {
        drop(litmus_machine(test, sys, litmus_streams(test)));
    }
    p.setup_s = secs(t);
    let (mut runs, mut states, mut dedup, mut pruned) = (0, 0, 0, 0);
    let mut detail = String::new();
    for (test, sys) in &suite {
        let t = Instant::now();
        let rep = explore(test, opts);
        p.run_s += secs(t);
        let res = rep.map_err(Into::into).and_then(|rep| -> Res<()> {
            runs += rep.runs;
            states += rep.states;
            dedup += rep.dedup_hits;
            pruned += rep.dpor_pruned;
            detail.push_str(&format!(
                "{}:{}/{}/{}/{}/{:?}/{:?};",
                rep.test,
                rep.runs,
                rep.states,
                rep.dedup_hits,
                rep.dpor_pruned,
                rep.outcomes,
                rep.unwitnessed
            ));
            if let Some(v) = rep.violation {
                return Err(format!("{}: {}", v.kind, v.detail).into());
            }
            if rep.truncated {
                return Err(format!("truncated at {} schedules", opts.max_runs).into());
            }
            Ok(())
        });
        checks.record(test.name, res);
        let res = litmus_resume(test, sys, opts.cycle_limit).map(|s| p.resume_s += s);
        checks.record(&format!("{} resume", test.name), res);
    }
    p.work = runs as f64;
    let rec = CellRecord {
        cell: "row".into(),
        counts: vec![
            ("schedules", runs),
            ("states", states),
            ("dedup_hits", dedup),
            ("dpor_pruned", pruned),
        ],
        detail: format!("{:016x}", fnv1a(detail.as_bytes())),
    };
    let res = checks.agree(rec);
    checks.record("row", res);
    p
}

/// Runs `pass` according to `plan`. Returns every pass's timing and the
/// host-speed kernel's times, taken before the first pass and after each.
fn timed_passes(plan: Plan, mut pass: impl FnMut() -> Pass) -> (Vec<Pass>, Vec<f64>) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut kernel = vec![host::kernel_s()];
    let mut last = 0.0;
    loop {
        let more = match plan {
            Plan::Passes(n) => out.len() < n,
            Plan::Seconds(s) => out.is_empty() || secs(start) + last <= s,
        };
        if !more {
            return (out, kernel);
        }
        let t = Instant::now();
        out.push(pass());
        kernel.push(host::kernel_s());
        last = secs(t);
    }
}

/// Repeats `setup` until the samples are enough for a stable median.
fn top_up_setup(samples: &mut Vec<f64>, setup: impl Fn()) {
    let start = Instant::now();
    while samples.len() < SETUP_MAX_SAMPLES
        && (samples.len() < SETUP_MIN_SAMPLES || secs(start) < SETUP_MIN_SECS)
    {
        let t = Instant::now();
        setup();
        samples.push(secs(t));
    }
}

/// Sums of the traced pass that become per-layer metrics.
#[derive(Default)]
struct Traced {
    prof: ProfileReport,
    /// Host time around the `run_profiled` calls, measured from outside.
    outer_s: f64,
    /// The same simulations untraced, for the tracing overhead.
    untraced_s: f64,
    streams_s: f64,
    new_s: f64,
    full_sweep_s: f64,
    checkpoint_s: f64,
    checkpoint_bytes: f64,
    restore_s: f64,
    counts: BTreeMap<&'static str, u64>,
}

impl Traced {
    fn add_profile(&mut self, p: &ProfileReport) {
        let q = &mut self.prof;
        q.cycles += p.cycles;
        q.wall_s += p.wall_s;
        q.mem_tick_s += p.mem_tick_s;
        q.core_step_s += p.core_step_s;
        q.check_s += p.check_s;
        q.events += p.events;
        q.core_steps += p.core_steps;
    }

    fn add_counts(&mut self, rec: &CellRecord) {
        for &(k, v) in &rec.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Sweep, checkpoint and restore of a drained machine, timed from
    /// outside. `m` is dropped before `fresh` builds the restore target.
    fn time_persist(&mut self, m: Machine, fresh: impl FnOnce() -> Machine) -> Res<()> {
        let t = Instant::now();
        m.check_invariants()?;
        self.full_sweep_s += secs(t);
        let t = Instant::now();
        let image = m.checkpoint()?;
        self.checkpoint_s += secs(t);
        self.checkpoint_bytes += image.len() as f64;
        drop(m);
        let mut fresh = fresh();
        let t = Instant::now();
        fresh.restore(&image)?;
        self.restore_s += secs(t);
        Ok(())
    }

    /// The run_profiled buckets must account for the host time measured
    /// around the profiled runs.
    fn coverage_check(&self) -> Res<()> {
        let p = &self.prof;
        let buckets = p.mem_tick_s + p.core_step_s + p.check_s + p.other_s();
        if (buckets - self.outer_s).abs() > 0.05 * self.outer_s {
            return Err(format!(
                "profile buckets sum to {buckets:.4} s but the traced runs took {:.4} s",
                self.outer_s
            )
            .into());
        }
        Ok(())
    }

    fn layers(&self) -> Vec<Layer> {
        let p = &self.prof;
        let c = |k: &str| self.counts.get(k).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let cycles = p.cycles as f64;
        let l = |name, value, unit| Layer { name, value, unit };
        vec![
            l("cpu.core.step_s", p.core_step_s, "s"),
            l(
                "cpu.core.steps_per_cycle",
                ratio(p.core_steps as f64, cycles),
                "count",
            ),
            l(
                "cpu.core.step_ns",
                ratio(p.core_step_s * 1e9, p.core_steps as f64),
                "ns",
            ),
            l("mem.system.tick_s", p.mem_tick_s, "s"),
            l(
                "mem.system.tick_ns_per_cycle",
                ratio(p.mem_tick_s * 1e9, cycles),
                "ns",
            ),
            l(
                "mem.system.events_per_cycle",
                ratio(p.events as f64, cycles),
                "count",
            ),
            l("check.sweep_s", p.check_s, "s"),
            l("sim.machine.other_s", p.other_s(), "s"),
            l(
                "sim.machine.trace_overhead_frac",
                ratio(p.wall_s, self.untraced_s) - 1.0,
                "ratio",
            ),
            l("workloads.streams_s", self.streams_s, "s"),
            l("sim.machine.new_s", self.new_s, "s"),
            l("common.persist.checkpoint_s", self.checkpoint_s, "s"),
            l(
                "common.persist.checkpoint_mb",
                self.checkpoint_bytes / 1e6,
                "MB",
            ),
            l("common.persist.restore_s", self.restore_s, "s"),
            l("check.full_sweep_s", self.full_sweep_s, "s"),
            l("noc.mesh.messages", c("noc_messages"), "count"),
            l("noc.mesh.flit_hops", c("noc_flit_hops"), "count"),
            l("mem.private.misses", c("misses"), "count"),
            l(
                "mem.private.l1_hit_rate",
                ratio(c("l1_hits"), c("l1_hits") + c("l2_hits") + c("misses")),
                "ratio",
            ),
            l("mem.system.remote_fills", c("remote_fills"), "count"),
            l(
                "cpu.core.atomics_lazy_frac",
                ratio(c("atomics_lazy"), c("atomics")),
                "ratio",
            ),
            l(
                "core.predictor.accuracy",
                ratio(c("predictions_correct"), c("predictions")),
                "ratio",
            ),
            l("oracle.online.ops", c("online_ops"), "count"),
        ]
    }
}

/// The traced pass of a simulation workload: every cell once more under
/// `run_profiled`, with the persist layer timed from outside.
fn sim_traced(cells: &[Cell], untraced_s: f64, checks: &mut Checks) -> Traced {
    let mut tr = Traced {
        untraced_s,
        ..Traced::default()
    };
    for cell in cells {
        let res = (|| -> Res<()> {
            let t = Instant::now();
            let streams = (cell.streams)();
            tr.streams_s += secs(t);
            let t = Instant::now();
            let mut m = Machine::new(&cell.sys, streams);
            tr.new_s += secs(t);
            let t = Instant::now();
            let (r, p) = m.run_profiled(cell.limit)?;
            tr.outer_s += secs(t);
            tr.add_profile(&p);
            let rec = sim_record(cell.name, &r, &m);
            tr.add_counts(&rec);
            tr.time_persist(m, || cell.machine())?;
            checks.agree(rec)
        })();
        checks.record(&format!("{} traced", cell.name), res);
    }
    let res = tr.coverage_check();
    checks.record("profile coverage", res);
    tr
}

/// The lossy service's online checker, timed per record: the cell is run
/// once with the journal retained, then the journal is replayed through a
/// fresh `OnlineChecker`. Returns ns per observed record.
fn observe_ns(cell: &Cell, checks: &mut Checks) -> f64 {
    let mut sys = cell.sys;
    sys.check.oracle = true;
    sys.check.oracle_online = false;
    let mut ns = 0.0;
    let res = (|| -> Res<()> {
        let mut m = Machine::new(&sys, (cell.streams)());
        let r = m.run(cell.limit)?;
        let expected = checks.refs.get(cell.name).and_then(|rec| rec.get("cycles"));
        if expected.is_some_and(|c| c != r.cycles) {
            return Err("retaining the journal changed the simulated cycles".into());
        }
        let journal = m.memory().journal().ok_or("no journal was retained")?;
        let mut checker = OnlineChecker::new(sys.cores);
        let t = Instant::now();
        for rec in journal {
            checker.observe(rec)?;
        }
        ns = secs(t) * 1e9 / journal.len().max(1) as f64;
        Ok(())
    })();
    checks.record("journal replay", res);
    ns
}

/// A seeded decision vector for `test_index`, drawn the way `norush
/// litmus` samples schedules.
fn decision_vector(seed: u64, test_index: usize, k: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(
        seed.wrapping_add(test_index as u64) ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k),
    );
    (0..32)
        .map(|_| ((rng.next_u64() & 3) as u8).saturating_sub(1))
        .collect()
}

/// The traced pass of explore-litmus: per-schedule costs the explorer pays
/// thousands of times, measured on the default schedule of every test, and
/// the latency of seeded schedules.
fn explore_traced(opts: &ExploreOptions, seed: u64, checks: &mut Checks) -> (Traced, Vec<Layer>) {
    let suite = litmus_suite(opts);
    let mut tr = Traced::default();
    let (mut new_us, mut ckpt_us, mut ckpt_kb) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..LITMUS_REPS {
        for (test, sys) in &suite {
            let res = (|| -> Res<()> {
                let t = Instant::now();
                let streams = litmus_streams(test);
                tr.streams_s += secs(t);
                let t = Instant::now();
                let mut m = litmus_machine(test, sys, streams);
                let new_s = secs(t);
                tr.new_s += new_s;
                new_us.push(new_s * 1e6);
                let t = Instant::now();
                let (r, p) = m.run_profiled(opts.cycle_limit)?;
                tr.outer_s += secs(t);
                tr.add_profile(&p);
                if rep == 0 {
                    tr.add_counts(&sim_record(test.name, &r, &m));
                }
                // What the explorer does per schedule for state dedup.
                let t = Instant::now();
                let image = m.checkpoint()?;
                std::hint::black_box(fnv1a(&image));
                ckpt_us.push(secs(t) * 1e6);
                ckpt_kb.push(image.len() as f64 / 1e3);
                tr.time_persist(m, || litmus_machine(test, sys, litmus_streams(test)))?;
                let mut plain = litmus_machine(test, sys, litmus_streams(test));
                let t = Instant::now();
                plain.run(opts.cycle_limit)?;
                tr.untraced_s += secs(t);
                Ok(())
            })();
            if rep == 0 || res.is_err() {
                checks.record(&format!("{} traced", test.name), res);
            }
        }
    }
    let res = tr.coverage_check();
    checks.record("profile coverage", res);
    let mut schedule_ms = Vec::new();
    for (i, (test, _)) in suite.iter().enumerate() {
        let res = (|| -> Res<()> {
            for k in 1..=SCHEDULES_PER_TEST {
                let forced = decision_vector(seed, i, k);
                let t = Instant::now();
                let run = run_schedule(test, opts, &forced)?;
                schedule_ms.push(secs(t) * 1e3);
                if let Some(e) = run.error {
                    return Err(e.into());
                }
                if run.timed_out {
                    return Err("schedule hit the cycle limit".into());
                }
                let outcome = run.outcome.ok_or("no outcome")?;
                if test.classify(&outcome) != OutcomeClass::Allowed {
                    return Err(format!("outcome {outcome:?} is not allowed").into());
                }
            }
            Ok(())
        })();
        checks.record(&format!("{} schedules", test.name), res);
    }
    let totals = checks.refs.get("row");
    let total = |k| totals.and_then(|r| r.get(k)).unwrap_or(0) as f64;
    let l = |name, value, unit| Layer { name, value, unit };
    let extra = vec![
        l("sim.explore.schedule_ms_p50", median(&schedule_ms), "ms"),
        l(
            "sim.explore.schedule_ms_p99",
            percentile(&schedule_ms, 0.99),
            "ms",
        ),
        l("sim.explore.machine_new_us", median(&new_us), "us"),
        l("sim.explore.checkpoint_us", median(&ckpt_us), "us"),
        l("sim.explore.checkpoint_kb", median(&ckpt_kb), "KB"),
        l("sim.explore.states", total("states"), "count"),
        l("sim.explore.dedup_hits", total("dedup_hits"), "count"),
        l("sim.explore.dpor_pruned", total("dpor_pruned"), "count"),
    ];
    (tr, extra)
}

/// Runs one workload: an untimed warm-up, the timed passes, extra set-ups
/// for a stable `setup_s`, and, when `traced`, the traced pass.
pub fn run(w: Workload, seed: u64, plan: Plan, traced: bool) -> Report {
    let mut checks = Checks::default();
    let opts = explore_opts();
    let sims = if w == Workload::ExploreLitmus {
        Vec::new()
    } else {
        cells(w, seed)
    };
    // Warm-up: fault in the allocator's pages before anything is timed.
    match sims.first() {
        Some(cell) => {
            let _ = cell.machine().run_for(WARMUP_CYCLES);
        }
        None => {
            for test in LitmusTest::all() {
                let _ = run_schedule(&test, &opts, &[]);
            }
        }
    }
    let (passes, kernel) = timed_passes(plan, || match w {
        Workload::ExploreLitmus => explore_pass(&opts, &mut checks),
        _ => sim_pass(&sims, &mut checks),
    });
    let mut setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    top_up_setup(&mut setup, || match w {
        Workload::ExploreLitmus => {
            for (test, sys) in litmus_suite(&opts) {
                drop(litmus_machine(&test, &sys, litmus_streams(&test)));
            }
        }
        _ => sims.iter().for_each(|c| drop(c.machine())),
    });
    // Host times at the reference host speed: a run on a host slowed by
    // another tenant reports what the same run would take on a quiet one.
    let speed = host::REFERENCE_S / median(&kernel);
    let series = |name, unit, f: &dyn Fn(&Pass) -> f64| Series {
        name,
        unit,
        samples: passes.iter().map(f).collect(),
    };
    let mut e2e = vec![
        Series {
            name: "setup_s",
            unit: "s",
            samples: setup.iter().map(|s| s * speed).collect(),
        },
        series("work_per_s", "1/s", &|p| {
            p.work / (p.run_s + p.ckpt_s) / speed
        }),
        series("resume_s", "s", &|p| p.resume_s * speed),
    ];
    let mut layers = Vec::new();
    if traced {
        let (tr, extra) = match w {
            Workload::ExploreLitmus => explore_traced(&opts, seed, &mut checks),
            _ => {
                let run_s: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
                let tr = sim_traced(&sims, median(&run_s), &mut checks);
                let mut extra = Vec::new();
                if w == Workload::LossyService32 {
                    let c = |k| tr.counts.get(k).copied().unwrap_or(0) as f64;
                    let l = |name, value, unit| Layer { name, value, unit };
                    extra = vec![
                        l("mem.transport.retries", c("transport_retries"), "count"),
                        l(
                            "mem.transport.nack_retransmits",
                            c("transport_nack_retransmits"),
                            "count",
                        ),
                        l("mem.transport.giveups", c("transport_giveups"), "count"),
                        l(
                            "oracle.online.observe_ns",
                            observe_ns(&sims[0], &mut checks),
                            "ns",
                        ),
                    ];
                }
                (tr, extra)
            }
        };
        layers = tr.layers();
        layers.extend(extra);
    }
    let rss = host::peak_rss_mb();
    if rss.is_none() {
        checks.record("peak_rss_mb", Err("/proc/self/status has no VmHWM".into()));
    }
    e2e.push(Series {
        name: "peak_rss_mb",
        unit: "MB",
        samples: rss.into_iter().collect(),
    });
    Report {
        workload: w,
        passes: passes.len(),
        e2e,
        layers,
        cells: checks.refs.values().cloned().collect(),
        kernel_s: kernel,
        attempted: checks.attempted,
        failures: checks.failures,
    }
}
