//! Coverage-guided protocol-schedule fuzzer (`norush fuzz`).
//!
//! The fuzzer explores coherence-protocol *interleavings* rather than inputs:
//! its genome is a message-delivery schedule — up to four targeted
//! [`DelayBurst`] windows plus the lossy-chaos knobs of a [`FaultConfig`] —
//! and its feedback signal is the protocol transition-coverage map
//! ([`row_common::coverage`]) recorded by the directory, private caches,
//! transport, and CPU atomic machinery. Schedules that light never-before-
//! seen `(state, event)` transitions join the corpus; mutation energy favors
//! corpus entries covering *rare* transitions (a power schedule), so the
//! search drifts toward the protocol's transient corners.
//!
//! Everything is deterministic by construction:
//!
//! * Each **generation** derives a fixed batch of candidate schedules from
//!   `(seed, generation, corpus)` *before* any of them runs, then executes
//!   them on the [`sweep`] worker pool and folds coverage back **in candidate
//!   order** — so `--jobs 1` and `--jobs N` produce byte-identical reports.
//! * [`FuzzState`] (corpus + global coverage + progress counters) is a
//!   [`Codec`] value saved atomically at every generation boundary; a killed
//!   fuzz resumed with `--resume` continues bit-exactly.
//! * A violation (online linearizability mismatch, invariant sweep failure,
//!   watchdog stall, cycle-budget livelock, rewind report) stops the
//!   campaign; the failing schedule is **minimized** by the one minimizer,
//!   [`crate::shrink`] — bursts greedily dropped, surviving windows
//!   bisected, then the chaos knobs shrunk via [`shrink_chaos`] — and a
//!   soak-style triage bundle (repro command, journal tail, pre-violation
//!   checkpoint) lands in the repro directory.
//!
//! The report (`norush-fuzz-v1`, schema in `results/README.md`) carries the
//! per-domain coverage summary plus the names of every never-exercised
//! transition — a dead-protocol-arm report — and deliberately contains no
//! wall-clock fields, so equal campaigns serialize equally.
//!
//! [`sweep`]: crate::sweep

use std::path::Path;

use row_common::config::{DelayBurst, FaultConfig, PerturbConfig, MAX_BURST_EXTRA};
use row_common::coverage::{CoverageMap, SLOT_COUNT};
use row_common::json::{self, Value};
use row_common::object;
use row_common::persist::{fnv1a, write_atomic, Codec, PersistError, Reader, Writer};
use row_common::rng::SplitMix64;
use row_common::SystemConfig;
use row_cpu::instr::InstrStream;
use row_mem::ProtocolError;
use row_workloads::{LockServiceConfig, LockServiceStream, ServiceKernel};

use crate::machine::{Machine, SimError};
use crate::shrink::{bisect_knobs, shrink_chaos, zero_knobs};
use crate::sweep::{parallel_map, Variant};

/// Schema tag of the machine-readable fuzz report.
pub const FUZZ_SCHEMA: &str = "norush-fuzz-v1";

/// Candidate schedules derived and executed per generation. Fixed (never a
/// function of `--jobs`) so worker count cannot influence the campaign.
pub const GEN_CANDIDATES: usize = 8;

/// Bound on a mutated lossy-fault rate. Far below the transport's give-up
/// region: the fuzzer perturbs ordering, it does not sever channels.
const MAX_FUZZ_PPM: u64 = 2_000;

/// Bound on mutated chaos jitter, for the same reason.
const MAX_FUZZ_LATENCY: u64 = 64;

/// One heritable message-delivery schedule: targeted delay bursts plus
/// chaos-rate knobs. The workload seed is *not* part of the genome — all
/// candidates replay the same instruction streams, so coverage differences
/// are attributable to scheduling alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduleGenome {
    /// Lossy/jitter chaos knobs (`seed` here is the chaos PRNG stream seed,
    /// which mutation may retune).
    pub fault: FaultConfig,
    /// Targeted delay-burst windows.
    pub perturb: PerturbConfig,
}

impl ScheduleGenome {
    /// The all-quiet schedule: no bursts, no chaos. The corpus seed.
    pub fn neutral() -> Self {
        ScheduleGenome {
            fault: FaultConfig {
                seed: 1,
                max_extra_latency: 0,
                drop_ppm: 0,
                dup_ppm: 0,
                corrupt_ppm: 0,
            },
            perturb: PerturbConfig::default(),
        }
    }

    /// True when the chaos half injects anything (jitter or lossy faults).
    pub fn chaos_active(&self) -> bool {
        self.fault.max_extra_latency > 0 || self.fault.lossy()
    }

    /// Hex encoding of the genome's [`Codec`] bytes — the compact,
    /// copy-pasteable form `--replay` accepts.
    pub fn to_hex(&self) -> String {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses [`ScheduleGenome::to_hex`] output.
    pub fn from_hex(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if !s.len().is_multiple_of(2) {
            return Err("odd-length hex genome".into());
        }
        let bytes: Vec<u8> = (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad hex genome: {e}"))?;
        let mut r = Reader::new(&bytes);
        let g = ScheduleGenome::decode(&mut r).map_err(|e| format!("bad genome: {e}"))?;
        if !r.is_empty() {
            return Err("trailing bytes in genome".into());
        }
        Ok(g)
    }

    /// One-line human summary for logs and triage bundles.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.chaos_active() {
            parts.push(format!(
                "chaos(seed {} latency {} drop {}ppm dup {}ppm corrupt {}ppm)",
                self.fault.seed,
                self.fault.max_extra_latency,
                self.fault.drop_ppm,
                self.fault.dup_ppm,
                self.fault.corrupt_ppm
            ));
        }
        for b in self.perturb.active() {
            if b.len > 0 && b.extra > 0 {
                parts.push(format!(
                    "burst(@{}+{} extra {} salt {:#x})",
                    b.start, b.len, b.extra, b.salt
                ));
            }
        }
        if parts.is_empty() {
            "neutral".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl Codec for ScheduleGenome {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.fault.seed);
        w.put_u64(self.fault.max_extra_latency);
        w.put_u32(self.fault.drop_ppm);
        w.put_u32(self.fault.dup_ppm);
        w.put_u32(self.fault.corrupt_ppm);
        w.put_u32(u32::from(self.perturb.n));
        for b in &self.perturb.bursts {
            w.put_u64(b.start);
            w.put_u64(b.len);
            w.put_u64(b.extra);
            w.put_u64(b.salt);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let fault = FaultConfig {
            seed: r.get_u64()?,
            max_extra_latency: r.get_u64()?,
            drop_ppm: r.get_u32()?,
            dup_ppm: r.get_u32()?,
            corrupt_ppm: r.get_u32()?,
        };
        let n = r.get_u32()?;
        if n as usize > row_common::config::MAX_PERTURB_BURSTS {
            return Err(PersistError::Corrupt("genome burst count"));
        }
        let mut perturb = PerturbConfig {
            n: n as u8,
            ..PerturbConfig::default()
        };
        for b in perturb.bursts.iter_mut() {
            *b = DelayBurst {
                start: r.get_u64()?,
                len: r.get_u64()?,
                extra: r.get_u64()?,
                salt: r.get_u64()?,
            };
        }
        Ok(ScheduleGenome { fault, perturb })
    }
}

/// Everything that parameterizes a fuzz campaign (and is hashed into the
/// state fingerprint, `jobs` excluded — worker count must not partition the
/// state space).
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Policy name (`eager`, `lazy`, `row`, `row-fwd`, `far`).
    pub policy: String,
    /// The lock-service kernel driving traffic.
    pub kernel: ServiceKernel,
    /// Simulated cores.
    pub cores: usize,
    /// Service operations per thread (workload length).
    pub ops_per_thread: u64,
    /// Workload seed, fixed for the whole campaign.
    pub seed: u64,
    /// Total schedule executions budgeted for the campaign.
    pub budget: u64,
    /// Worker threads for candidate execution.
    pub jobs: usize,
    /// Arm the planted early-unblock directory bug (regression target).
    pub planted_bug: bool,
    /// Per-run simulation cycle budget.
    pub cycle_limit: u64,
    /// Watchdog window: a run with no commit for this long is a stall.
    pub watchdog: u64,
}

impl FuzzOptions {
    /// CI-smoke defaults: 4 cores, short lock-service streams, modest budget.
    pub fn smoke(policy: impl Into<String>) -> Self {
        FuzzOptions {
            policy: policy.into(),
            kernel: ServiceKernel::Counter,
            cores: 4,
            ops_per_thread: 120,
            seed: 42,
            budget: 48,
            jobs: 1,
            planted_bug: false,
            cycle_limit: 2_000_000,
            watchdog: 500_000,
        }
    }

    /// FNV-1a fingerprint over every knob that shapes the campaign's state
    /// space. `jobs` is excluded: the same campaign may resume with a
    /// different worker count.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(
            format!(
                "fuzz|{}|{}|{}|{}|{}|{}|{}|{}|{}",
                self.policy,
                self.kernel.name(),
                self.cores,
                self.ops_per_thread,
                self.seed,
                self.budget,
                self.planted_bug,
                self.cycle_limit,
                self.watchdog,
            )
            .as_bytes(),
        )
    }

    fn system(&self, genome: &ScheduleGenome) -> Result<SystemConfig, String> {
        let mut sys = Variant::by_name(&self.policy)?.apply(SystemConfig::small(self.cores));
        sys.check.oracle_online = true;
        sys.check.invariant_every = Some(4_096);
        sys.check.watchdog_window = Some(self.watchdog);
        sys.check.chaos = genome.chaos_active().then_some(genome.fault);
        sys.check.perturb = (!genome.perturb.is_empty()).then_some(genome.perturb);
        Ok(sys)
    }

    fn streams(&self) -> Vec<Box<dyn InstrStream>> {
        let mut svc = LockServiceConfig::soak(self.kernel);
        svc.ops_per_thread = self.ops_per_thread;
        (0..self.cores)
            .map(|t| Box::new(LockServiceStream::new(svc, t, self.cores, self.seed)) as _)
            .collect()
    }

    /// A fresh machine executing `genome`'s schedule, online checker armed,
    /// planted bug injected when requested.
    pub fn machine(&self, genome: &ScheduleGenome) -> Result<Machine, String> {
        let sys = self.system(genome)?;
        let mut m = Machine::new(&sys, self.streams());
        if self.planted_bug {
            m.memory_mut().inject_early_unblock_for_test();
        }
        Ok(m)
    }
}

/// Classifies a run error. `None` means benign for fuzzing purposes:
/// transport give-up is the *expected* failure mode of over-aggressive lossy
/// chaos (bounded retry was defeated, no protocol state was corrupted).
///
/// A cycle-budget timeout IS a finding (`livelock`): the fuzz workload
/// completes in tens of thousands of cycles even under the worst schedule
/// the mutator can express, while [`FuzzOptions::cycle_limit`] defaults two
/// orders of magnitude above that — a run that exhausts it is spinning
/// without service-level progress. The commit-based watchdog cannot see
/// that class (a livelocked core *commits* its retry loop forever); it
/// still catches true no-commit deadlocks much earlier.
pub fn violation_kind(err: &SimError) -> Option<&'static str> {
    match err {
        SimError::Protocol(ProtocolError::TransportGiveUp { .. }) => None,
        SimError::Checkpoint(_) => None,
        SimError::Timeout(_) => Some("livelock"),
        SimError::Protocol(_) => Some("protocol"),
        SimError::Stall(_) => Some("stall"),
        SimError::Rewind(_) => Some("rewind"),
        SimError::Oracle(_) => Some("oracle"),
    }
}

/// Outcome of executing one candidate schedule.
pub struct RunOutcome {
    /// Transitions the run exercised.
    pub coverage: CoverageMap,
    /// The violation, when the run found one (benign errors excluded).
    pub violation: Option<SimError>,
}

/// Executes one schedule and reads off the transition coverage it lit.
pub fn run_one(opts: &FuzzOptions, genome: &ScheduleGenome) -> Result<RunOutcome, String> {
    let mut m = opts.machine(genome)?;
    let res = m.run(opts.cycle_limit);
    Ok(RunOutcome {
        coverage: m.coverage(),
        violation: res.err().filter(|e| violation_kind(e).is_some()),
    })
}

/// A corpus member: a schedule that lit new coverage, plus what it covers
/// (feeding the rare-transition power schedule).
#[derive(Clone, PartialEq, Debug)]
pub struct CorpusEntry {
    /// The schedule.
    pub genome: ScheduleGenome,
    /// Coverage the schedule's run produced.
    pub coverage: CoverageMap,
}

impl Codec for CorpusEntry {
    fn encode(&self, w: &mut Writer) {
        self.genome.encode(w);
        self.coverage.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CorpusEntry {
            genome: ScheduleGenome::decode(r)?,
            coverage: CoverageMap::decode(r)?,
        })
    }
}

/// The whole campaign state: everything needed to continue bit-exactly.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FuzzState {
    /// Completed generations.
    pub generation: u64,
    /// Schedules executed so far.
    pub runs_done: u64,
    /// Union coverage across every run.
    pub global: CoverageMap,
    /// Schedules that lit new coverage, in discovery order.
    pub corpus: Vec<CorpusEntry>,
}

/// Magic prefix of a serialized [`FuzzState`] file.
const STATE_MAGIC: &[u8] = b"NRFUZZ";
/// Format version of the state file.
const STATE_VERSION: u32 = 1;

impl FuzzState {
    /// A fresh campaign.
    pub fn new() -> Self {
        FuzzState {
            generation: 0,
            runs_done: 0,
            global: CoverageMap::new(),
            corpus: Vec::new(),
        }
    }

    /// Serializes the state with a self-validating header bound to the
    /// campaign's options fingerprint.
    pub fn to_bytes(&self, fingerprint: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(STATE_MAGIC);
        w.put_u32(STATE_VERSION);
        w.put_u64(fingerprint);
        w.put_u64(self.generation);
        w.put_u64(self.runs_done);
        self.global.encode(&mut w);
        self.corpus.encode(&mut w);
        let checksum = fnv1a(w.bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Parses [`FuzzState::to_bytes`] output, refusing mismatched campaigns.
    pub fn from_bytes(bytes: &[u8], fingerprint: u64) -> Result<Self, PersistError> {
        if bytes.len() < STATE_MAGIC.len() + 4 + 8 + 8 {
            return Err(PersistError::Corrupt("fuzz state too short"));
        }
        if &bytes[..STATE_MAGIC.len()] != STATE_MAGIC {
            return Err(PersistError::Corrupt("not a norush fuzz state"));
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
        if fnv1a(payload) != stored {
            return Err(PersistError::Corrupt("fuzz state checksum mismatch"));
        }
        let mut r = Reader::new(payload);
        let _ = r.get_bytes(STATE_MAGIC.len())?;
        let found = r.get_u32()?;
        if found != STATE_VERSION {
            return Err(PersistError::VersionMismatch {
                found,
                expected: STATE_VERSION,
            });
        }
        let found = r.get_u64()?;
        if found != fingerprint {
            return Err(PersistError::ConfigMismatch {
                found,
                expected: fingerprint,
            });
        }
        let state = FuzzState {
            generation: r.get_u64()?,
            runs_done: r.get_u64()?,
            global: CoverageMap::decode(&mut r)?,
            corpus: Vec::<CorpusEntry>::decode(&mut r)?,
        };
        if !r.is_empty() {
            return Err(PersistError::Corrupt("trailing bytes in fuzz state"));
        }
        Ok(state)
    }

    /// Atomically writes the state file (`tmp` + rename, like checkpoints).
    pub fn save(&self, path: &Path, fingerprint: u64) -> std::io::Result<()> {
        write_atomic(path, self.to_bytes(fingerprint))
    }

    /// Loads a state file written by [`FuzzState::save`].
    pub fn load(path: &Path, fingerprint: u64) -> Result<Self, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        FuzzState::from_bytes(&bytes, fingerprint)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))
    }
}

/// A confirmed violation: the raw failing schedule, its minimized form, and
/// where in the campaign it surfaced.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Violation class (`oracle`, `protocol`, `stall`, `rewind`).
    pub kind: &'static str,
    /// Display form of the original error.
    pub error: String,
    /// Generation (0-based) in which the failing candidate ran.
    pub generation: u64,
    /// Candidate index within that generation.
    pub candidate: usize,
    /// The schedule as the mutator produced it.
    pub genome: ScheduleGenome,
    /// The minimized schedule (still failing, usually far smaller).
    pub minimized: ScheduleGenome,
    /// Display form of the minimized schedule's error.
    pub minimized_error: String,
}

/// Result of a fuzz campaign.
pub struct FuzzOutcome {
    /// Final campaign state.
    pub state: FuzzState,
    /// The first violation found, if any (the campaign stops on it).
    pub finding: Option<Finding>,
}

// ---------------------------------------------------------------------------
// Mutation and the power schedule
// ---------------------------------------------------------------------------

/// The bursts of `p` whose index passes `keep`, compacted into a fresh
/// table (unused slots zeroed: the hex genome encodes all four).
fn keep_bursts(p: &PerturbConfig, keep: impl Fn(usize) -> bool) -> PerturbConfig {
    let mut out = PerturbConfig::default();
    for (i, b) in p.active().iter().enumerate() {
        if keep(i) {
            out.push(*b);
        }
    }
    out
}

fn random_burst(rng: &mut SplitMix64) -> DelayBurst {
    DelayBurst {
        start: rng.below(1_000_000),
        len: 64 + rng.below(16_384),
        extra: 1 + rng.below(512).min(MAX_BURST_EXTRA - 1),
        salt: rng.next_u64(),
    }
}

/// Applies 1–3 random mutations to `genome`.
fn mutate(genome: &ScheduleGenome, rng: &mut SplitMix64) -> ScheduleGenome {
    let mut g = *genome;
    let edits = 1 + rng.below(3);
    for _ in 0..edits {
        match rng.below(6) {
            // Add (or, when full, replace) a delay burst.
            0 => {
                let b = random_burst(rng);
                if !g.perturb.push(b) {
                    let idx = rng.below(g.perturb.n as u64) as usize;
                    g.perturb.bursts[idx] = b;
                }
            }
            // Drop a burst.
            1 => {
                if g.perturb.n > 0 {
                    let idx = rng.below(g.perturb.n as u64) as usize;
                    g.perturb = keep_bursts(&g.perturb, |i| i != idx);
                }
            }
            // Tweak one field of one burst.
            2 => {
                if g.perturb.n == 0 {
                    g.perturb.push(random_burst(rng));
                } else {
                    let idx = rng.below(g.perturb.n as u64) as usize;
                    let b = &mut g.perturb.bursts[idx];
                    match rng.below(4) {
                        0 => b.start = rng.below(1_000_000),
                        1 => b.len = 64 + rng.below(16_384),
                        2 => b.extra = 1 + rng.below(512).min(MAX_BURST_EXTRA - 1),
                        _ => b.salt = rng.next_u64(),
                    }
                }
            }
            // Raise a chaos knob (bounded).
            3 => match rng.below(4) {
                0 => g.fault.max_extra_latency = rng.below(MAX_FUZZ_LATENCY + 1),
                1 => g.fault.drop_ppm = rng.below(MAX_FUZZ_PPM + 1) as u32,
                2 => g.fault.dup_ppm = rng.below(MAX_FUZZ_PPM + 1) as u32,
                _ => g.fault.corrupt_ppm = rng.below(MAX_FUZZ_PPM + 1) as u32,
            },
            // Retune the chaos PRNG stream.
            4 => g.fault.seed = rng.next_u64().max(1),
            // Zero a chaos knob.
            _ => match rng.below(4) {
                0 => g.fault.max_extra_latency = 0,
                1 => g.fault.drop_ppm = 0,
                2 => g.fault.dup_ppm = 0,
                _ => g.fault.corrupt_ppm = 0,
            },
        }
    }
    g
}

/// Power schedule: an entry's weight is 1 plus the number of *rare* global
/// transitions it covers, where "rare" means a global hit count in the lowest
/// quartile of all nonzero counts. Entries poking the protocol's least-
/// traveled arms get proportionally more mutation energy.
fn corpus_weights(corpus: &[CorpusEntry], global: &CoverageMap) -> Vec<u64> {
    let mut nonzero: Vec<u64> = (0..SLOT_COUNT)
        .map(|s| global.hits(s))
        .filter(|&h| h > 0)
        .collect();
    nonzero.sort_unstable();
    let rare_cut = nonzero.get(nonzero.len() / 4).copied().unwrap_or(u64::MAX);
    corpus
        .iter()
        .map(|e| {
            let rare = (0..SLOT_COUNT)
                .filter(|&s| e.coverage.is_hit(s) && global.hits(s) <= rare_cut)
                .count() as u64;
            1 + rare
        })
        .collect()
}

/// Picks a corpus index by weighted draw.
fn pick_weighted(weights: &[u64], rng: &mut SplitMix64) -> usize {
    let total: u64 = weights.iter().sum();
    let mut roll = rng.below(total.max(1));
    for (i, &w) in weights.iter().enumerate() {
        if roll < w {
            return i;
        }
        roll -= w;
    }
    weights.len() - 1
}

/// Derives the next generation's candidate batch from `(seed, generation,
/// corpus)` — pure, so a resumed campaign regenerates the identical batch.
///
/// The generation index is scrambled through its own SplitMix64 draw before
/// seeding the batch RNG. Mixing it in *linearly* would be a trap: an
/// increment of `0x9e37_79b9_7f4a_7c15` (the SplitMix64 state step) per
/// generation makes generation `g`'s stream equal generation 0's offset by
/// `g` draws, collapsing cross-generation diversity.
fn derive_candidates(opts: &FuzzOptions, state: &FuzzState, k: usize) -> Vec<ScheduleGenome> {
    let mut gen_mix = SplitMix64::new(state.generation);
    let mut rng = SplitMix64::new(opts.seed ^ gen_mix.next_u64());
    let mut batch: Vec<ScheduleGenome> = Vec::with_capacity(k);
    let weights = corpus_weights(&state.corpus, &state.global);
    for i in 0..k {
        if state.corpus.is_empty() && i == 0 {
            // Bootstrap: the neutral schedule first (baseline coverage),
            // then increasingly adventurous mutants of it.
            batch.push(ScheduleGenome::neutral());
            continue;
        }
        let parent = if state.corpus.is_empty() {
            ScheduleGenome::neutral()
        } else {
            state.corpus[pick_weighted(&weights, &mut rng)].genome
        };
        // A duplicate candidate re-runs a schedule the campaign has already
        // measured — retry the mutation a few times for a fresh one.
        let mut cand = mutate(&parent, &mut rng);
        for _ in 0..4 {
            if !batch.contains(&cand) {
                break;
            }
            cand = mutate(&cand, &mut rng);
        }
        batch.push(cand);
    }
    batch
}

// ---------------------------------------------------------------------------
// The campaign loop
// ---------------------------------------------------------------------------

/// Runs (or continues) a fuzz campaign. `on_generation` fires after each
/// generation's results are folded into `state` — the caller persists the
/// state there (and logs progress). Stops at the first violation or when the
/// run budget is exhausted.
///
/// # Errors
/// Configuration errors only (unknown policy); simulation failures are
/// *findings*, not errors.
pub fn fuzz(
    opts: &FuzzOptions,
    mut state: FuzzState,
    mut on_generation: impl FnMut(&FuzzState),
) -> Result<FuzzOutcome, String> {
    // Validate the policy once up front.
    opts.system(&ScheduleGenome::neutral())?;
    let mut finding = None;
    while state.runs_done < opts.budget && finding.is_none() {
        let k = GEN_CANDIDATES.min((opts.budget - state.runs_done) as usize);
        let candidates = derive_candidates(opts, &state, k);
        let outcomes = parallel_map(&candidates, opts.jobs, |_, g| {
            run_one(opts, g).expect("policy validated above")
        });
        for (i, (genome, out)) in candidates.iter().zip(outcomes).enumerate() {
            state.runs_done += 1;
            if out.coverage.new_slots_vs(&state.global) > 0 {
                state.corpus.push(CorpusEntry {
                    genome: *genome,
                    coverage: out.coverage.clone(),
                });
            }
            state.global.merge(&out.coverage);
            if finding.is_none() {
                if let Some(err) = out.violation {
                    let kind = violation_kind(&err).expect("filtered in run_one");
                    finding = Some((state.generation, i, *genome, kind, err));
                }
            }
        }
        state.generation += 1;
        on_generation(&state);
    }
    let finding = finding.map(|(generation, candidate, genome, kind, err)| {
        let minimized = minimize(opts, &genome);
        let minimized_error = run_one(opts, &minimized)
            .ok()
            .and_then(|o| o.violation)
            .map(|e| e.to_string())
            .unwrap_or_else(|| "violation did not reproduce (non-minimal repro kept)".into());
        Finding {
            kind,
            error: err.to_string(),
            generation,
            candidate,
            genome,
            minimized,
            minimized_error,
        }
    });
    Ok(FuzzOutcome { state, finding })
}

// ---------------------------------------------------------------------------
// Schedule minimization
// ---------------------------------------------------------------------------

/// Minimizes a failing schedule while the violation keeps reproducing, with
/// the [`crate::shrink`] passes:
///
/// 1. greedily drop whole bursts (zeroing burst-presence flags);
/// 2. binary-search each surviving burst's `len`, then its `extra`, down to
///    the smallest still-failing values;
/// 3. shrink the chaos knobs with [`shrink_chaos`] (seed fixed, bursts held).
///
/// The result is guaranteed to still fail (every accepted candidate was
/// probed). One full simulation runs per probe.
pub fn minimize(opts: &FuzzOptions, genome: &ScheduleGenome) -> ScheduleGenome {
    minimize_with(genome, |g| {
        run_one(opts, g)
            .map(|o| o.violation.is_some())
            .unwrap_or(false)
    })
}

fn minimize_with(
    genome: &ScheduleGenome,
    mut fails: impl FnMut(&ScheduleGenome) -> bool,
) -> ScheduleGenome {
    // 1. The knobs are burst-presence flags.
    let with_bursts = |present: &[u64]| ScheduleGenome {
        perturb: keep_bursts(&genome.perturb, |i| present[i] != 0),
        ..*genome
    };
    let mut present = vec![1; genome.perturb.active().len()];
    zero_knobs(&mut present, |k| fails(&with_bursts(k)));
    // 2. The knobs are the survivors' `(len, extra)` pairs, in table order.
    let kept = with_bursts(&present);
    let with_windows = |w: &[u64]| {
        let mut g = kept;
        for (b, lx) in g.perturb.bursts.iter_mut().zip(w.chunks(2)) {
            (b.len, b.extra) = (lx[0], lx[1]);
        }
        g
    };
    let mut windows: Vec<u64> = kept
        .perturb
        .active()
        .iter()
        .flat_map(|b| [b.len, b.extra])
        .collect();
    bisect_knobs(&mut windows, |w| fails(&with_windows(w)));
    // 3. The chaos knobs, bursts held.
    let mut cur = with_windows(&windows);
    if cur.chaos_active() {
        let perturb = cur.perturb;
        cur.fault = shrink_chaos(cur.fault, |f| fails(&ScheduleGenome { fault: *f, perturb }));
    }
    cur
}

// ---------------------------------------------------------------------------
// Triage
// ---------------------------------------------------------------------------

/// The copy-pasteable command that replays `genome`.
pub fn repro_command(opts: &FuzzOptions, genome: &ScheduleGenome) -> String {
    format!(
        "norush fuzz --policy {} --kernel {} --cores {} --ops {} --seed {}{} --replay {}",
        opts.policy,
        opts.kernel.name(),
        opts.cores,
        opts.ops_per_thread,
        opts.seed,
        if opts.planted_bug {
            " --inject-early-unblock"
        } else {
            ""
        },
        genome.to_hex(),
    )
}

/// Replays the minimized schedule once more, capturing the soak-style triage
/// bundle into `repro_dir`: `fuzz_failure.txt` (description, repro command,
/// error), `journal_tail.txt` (the online checker's last records), and
/// `fuzz.ckpt` (the last pre-violation checkpoint, when one was reachable).
pub fn write_triage(
    opts: &FuzzOptions,
    finding: &Finding,
    repro_dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(repro_dir)?;
    // Re-run in checkpointed slices so a recent restore point survives the
    // violation (a wedged/corrupt machine refuses to checkpoint).
    let mut m = opts
        .machine(&finding.minimized)
        .map_err(|e| std::io::Error::other(format!("triage machine: {e}")))?;
    let mut last_ckpt: Option<Vec<u8>> = None;
    let err = loop {
        match m.run_for(50_000) {
            Err(e) => break Some(e),
            Ok(Some(_)) => break None,
            Ok(None) => {
                if m.now().raw() >= opts.cycle_limit {
                    break None;
                }
                if let Ok(bytes) = m.checkpoint() {
                    last_ckpt = Some(bytes);
                }
            }
        }
    };
    let ckpt_note = match &last_ckpt {
        Some(bytes) => crate::triage::write_checkpoint_file(repro_dir, "fuzz.ckpt", bytes)?
            .display()
            .to_string(),
        None => "none reachable before the failure".to_string(),
    };
    let desc = format!(
        "fuzz failure\npolicy: {}\nkernel: {}\nseed: {}\ncores: {}\nops_per_thread: {}\n\
         planted_bug: {}\nfound: generation {} candidate {}\nkind: {}\n\
         schedule: {}\nminimized: {}\nminimized genome: {}\ncheckpoint: {}\n\
         repro: {}\nerror:\n{}\nminimized replay error:\n{}\n",
        opts.policy,
        opts.kernel.name(),
        opts.seed,
        opts.cores,
        opts.ops_per_thread,
        opts.planted_bug,
        finding.generation,
        finding.candidate,
        finding.kind,
        finding.genome.describe(),
        finding.minimized.describe(),
        finding.minimized.to_hex(),
        ckpt_note,
        repro_command(opts, &finding.minimized),
        finding.error,
        err.map(|e| e.to_string())
            .unwrap_or_else(|| finding.minimized_error.clone()),
    );
    crate::triage::write_failure(repro_dir, "fuzz_failure.txt", &desc)?;
    crate::triage::write_journal_tail(repro_dir, &m)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

fn genome_json(g: &ScheduleGenome) -> Value {
    let bursts: Vec<Value> = g
        .perturb
        .active()
        .iter()
        .map(|b| object! { "start": b.start, "len": b.len, "extra": b.extra, "salt": b.salt })
        .collect();
    object! { "chaos": g.fault.to_json(), "bursts": bursts, "hex": g.to_hex() }
}

/// Renders the machine-readable fuzz report (`norush-fuzz-v1`, documented in
/// `results/README.md`). Deliberately wall-clock-free and `jobs`-free: equal
/// campaigns serialize byte-identically regardless of worker count.
pub fn report_json(opts: &FuzzOptions, outcome: &FuzzOutcome) -> String {
    let s = &outcome.state;
    let domains: Vec<Value> = s
        .global
        .domain_summary()
        .into_iter()
        .map(|(name, covered, total)| {
            object! { "domain": name, "covered": covered, "total": total }
        })
        .collect();
    let finding = outcome.finding.as_ref().map(|f| {
        object! {
            "kind": f.kind,
            "generation": f.generation,
            "candidate": f.candidate,
            "error": f.error.as_str(),
            "genome": genome_json(&f.genome),
            "minimized": genome_json(&f.minimized),
            "minimized_error": f.minimized_error.as_str(),
            "repro": repro_command(opts, &f.minimized),
        }
    });
    let report = object! {
        "schema": FUZZ_SCHEMA,
        "status": if finding.is_some() { "finding" } else { "clean" },
        "policy": opts.policy.as_str(),
        "kernel": opts.kernel.name(),
        "cores": opts.cores,
        "ops_per_thread": opts.ops_per_thread,
        "seed": opts.seed,
        "budget": opts.budget,
        "planted_bug": opts.planted_bug,
        "runs": s.runs_done,
        "generations": s.generation,
        "corpus": s.corpus.len(),
        "coverage": object! {
            "covered": s.global.covered(),
            "total": SLOT_COUNT,
            "domains": domains,
        },
        "uncovered": s.global.uncovered_names(),
        "finding": finding,
    };
    json::render(&report, &["finding"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genome_hex_roundtrip() {
        let mut g = ScheduleGenome::neutral();
        g.fault.drop_ppm = 137;
        g.perturb.push(DelayBurst {
            start: 1000,
            len: 512,
            extra: 16,
            salt: 0xdead_beef,
        });
        let hex = g.to_hex();
        assert_eq!(ScheduleGenome::from_hex(&hex).unwrap(), g);
        assert!(ScheduleGenome::from_hex("zz").is_err());
        assert!(ScheduleGenome::from_hex(&hex[..hex.len() - 2]).is_err());
    }

    #[test]
    fn state_roundtrip_and_fingerprint_binding() {
        let mut s = FuzzState::new();
        s.generation = 3;
        s.runs_done = 24;
        s.global.record(5);
        s.corpus.push(CorpusEntry {
            genome: ScheduleGenome::neutral(),
            coverage: {
                let mut c = CoverageMap::new();
                c.record(5);
                c
            },
        });
        let bytes = s.to_bytes(0x1234);
        assert_eq!(FuzzState::from_bytes(&bytes, 0x1234).unwrap(), s);
        assert!(matches!(
            FuzzState::from_bytes(&bytes, 0x9999),
            Err(PersistError::ConfigMismatch { .. })
        ));
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(FuzzState::from_bytes(&corrupt, 0x1234).is_err());
    }

    #[test]
    fn mutation_is_deterministic_and_bounded() {
        let g = ScheduleGenome::neutral();
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            let ga = mutate(&g, &mut a);
            let gb = mutate(&g, &mut b);
            assert_eq!(ga, gb);
            assert!(ga.fault.max_extra_latency <= MAX_FUZZ_LATENCY);
            assert!(u64::from(ga.fault.drop_ppm) <= MAX_FUZZ_PPM);
            for burst in ga.perturb.active() {
                assert!(burst.extra <= MAX_BURST_EXTRA);
            }
        }
    }

    #[test]
    fn derive_candidates_is_pure() {
        let opts = FuzzOptions::smoke("lazy");
        let state = FuzzState::new();
        let a = derive_candidates(&opts, &state, 8);
        let b = derive_candidates(&opts, &state, 8);
        assert_eq!(a, b);
        assert_eq!(a[0], ScheduleGenome::neutral());
    }

    #[test]
    fn power_schedule_favors_rare_transitions() {
        let mut global = CoverageMap::new();
        for _ in 0..100 {
            global.record(0);
        }
        global.record(1); // slot 1 is rare
        let common = CorpusEntry {
            genome: ScheduleGenome::neutral(),
            coverage: {
                let mut c = CoverageMap::new();
                c.record(0);
                c
            },
        };
        let rare = CorpusEntry {
            genome: ScheduleGenome::neutral(),
            coverage: {
                let mut c = CoverageMap::new();
                c.record(1);
                c
            },
        };
        let w = corpus_weights(&[common, rare], &global);
        assert!(
            w[1] > w[0],
            "rare-covering entry must get more energy: {w:?}"
        );
    }

    /// Pins every candidate the minimizer asks the predicate about, in
    /// order: the probe count, the fnv1a of the recorded probes, and the
    /// result.
    #[test]
    fn minimizer_probe_sequence_is_pinned() {
        let mut g = ScheduleGenome::neutral();
        g.fault = FaultConfig {
            seed: 9,
            max_extra_latency: 40,
            drop_ppm: 1500,
            dup_ppm: 800,
            corrupt_ppm: 300,
        };
        for (start, len, extra, salt) in [
            (1000, 5000, 300, 0xa),
            (2000, 9000, 200, 0xb),
            (50, 700, 4000, 0xc),
            (7, 64, 1, 0xd),
        ] {
            g.perturb.push(DelayBurst {
                start,
                len,
                extra,
                salt,
            });
        }
        let mut seen = String::new();
        let min = minimize_with(&g, |c| {
            seen.push_str(&c.to_hex());
            seen.push(';');
            let bursts = c.perturb.active();
            bursts
                .iter()
                .any(|b| b.salt == 0xb && b.len >= 1234 && b.extra >= 77)
                && bursts.iter().any(|b| b.salt == 0xc && b.extra >= 999)
                && (c.fault.drop_ppm >= 321 || c.fault.dup_ppm >= 500)
        });
        assert_eq!(seen.matches(';').count(), 63);
        assert_eq!(
            format!("{:016x}", fnv1a(seen.as_bytes())),
            "e635441aa1b334f0"
        );
        assert_eq!(
            min.describe(),
            "chaos(seed 9 latency 0 drop 0ppm dup 500ppm corrupt 0ppm) \
             burst(@2000+1234 extra 77 salt 0xb) burst(@50+1 extra 999 salt 0xc)"
        );
    }

    #[test]
    fn violation_classification() {
        use row_common::ids::LineAddr;
        use row_mem::msg::Endpoint;
        let give_up = SimError::Protocol(ProtocolError::TransportGiveUp {
            src: Endpoint::Dir(0),
            dst: Endpoint::Dir(1),
            seq: 1,
            attempts: 16,
            msg: row_mem::msg::Msg::Inv {
                line: LineAddr::new(1),
            },
        });
        assert_eq!(violation_kind(&give_up), None);
        let real = SimError::Protocol(ProtocolError::MultipleOwners {
            line: LineAddr::new(1),
            owners: vec![],
        });
        assert_eq!(violation_kind(&real), Some("protocol"));
    }

    #[test]
    fn report_has_schema_and_no_wall_clock() {
        let opts = FuzzOptions::smoke("lazy");
        let outcome = FuzzOutcome {
            state: FuzzState::new(),
            finding: None,
        };
        let json = report_json(&opts, &outcome);
        assert!(json.contains("\"schema\": \"norush-fuzz-v1\""));
        assert!(json.contains("\"status\": \"clean\""));
        assert!(!json.contains("wall"), "report must be wall-clock-free");
        assert!(!json.contains("jobs"), "report must be worker-count-free");
    }
}
