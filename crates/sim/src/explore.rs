//! Bounded-exhaustive schedule exploration and litmus conformance running.
//!
//! The fuzzer (`norush fuzz`) *samples* delivery schedules; this module
//! *enumerates* them for the tiny litmus programs in
//! [`row_workloads::litmus`], turning TSO conformance from a statistical
//! claim into a bounded proof:
//!
//! * [`run_litmus`] — the `norush litmus` backend: runs one test under one
//!   policy `samples` times (sample 0 is the undelayed default schedule,
//!   later samples force pseudo-random decision vectors through a
//!   [`Schedule`]) and histograms the observed outcomes.
//! * [`explore`] — the `norush explore` backend: depth-first,
//!   *delay-bounded* enumeration of every schedule deviating from the
//!   default at no more than [`ExploreOptions::max_delays`] of its first
//!   [`ExploreOptions::max_decisions`] decision points (message deliveries,
//!   atomic commit timings), with two prunes:
//!   - **dynamic partial-order reduction** — a delivery delay is skipped
//!     when no other decision within the largest forced delay (plus one
//!     delivery quantum) touches the same line or shares an endpoint (the
//!     delay then commutes with everything and cannot change the outcome);
//!     commit decisions are never pruned (an atomic's commit timing is the
//!     property under test);
//!   - **state dedup** — the machine snapshot ([`Machine::checkpoint`])
//!     taken right after the last forced decision is consumed is hashed
//!     with [`fnv1a`](row_common::persist::fnv1a), read off the image's
//!     checksum trailer by [`sealed_fnv1a`] without a second pass; a
//!     frontier state already expanded from is not expanded again (its
//!     subtree is identical — the machine is deterministic given the
//!     remaining decisions).
//!
//! Every run is classified against the test's declared sets: a **forbidden**
//! (or unlisted) outcome, any structural [`SimError`], or a cycle-budget
//! exhaustion (livelock) is a violation; the triggering decision vector is
//! then minimized — alternatives zeroed greedily by [`crate::shrink`], then
//! trailing zeros dropped — into a deterministically replayable repro
//! (`--replay`, hex-coded by [`schedule_to_hex`]).
//! Completeness runs the other way: [`ExploreReport::unwitnessed`] lists
//! allowed outcomes no enumerated schedule produced. [`report_json`]
//! renders both modes' `norush-litmus-v1` report and [`write_triage`] the
//! failure bundle.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use row_common::choice::{self, ChoiceKind, DecisionRecord, Schedule};
use row_common::config::SystemConfig;
use row_common::coverage::{CoverageMap, SLOT_COUNT};
use row_common::json::{self, Value};
use row_common::object;
use row_common::persist::{from_hex, sealed_fnv1a, to_hex};
use row_common::rng::SplitMix64;
use row_cpu::instr::{InstrStream, VecStream};
use row_workloads::litmus::{LitmusTest, OutcomeClass, Probe};

use crate::fuzz::violation_kind;
use crate::machine::{HashedConfig, Machine, SimError};
use crate::shrink::zero_knobs;
use crate::sweep::Variant;
use crate::triage;

/// Schema identifier of the litmus/explore JSON report.
pub const LITMUS_SCHEMA: &str = "norush-litmus-v1";

/// Options shared by the sampling and exploring litmus modes.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Atomic policy under test (`eager`, `lazy`, `row`, `row-fwd`, `far`).
    pub policy: String,
    /// Branchable frontier: only the first `max_decisions` decision points
    /// of a run may deviate from the default schedule.
    pub max_decisions: usize,
    /// Delay bound: how many decision points a single schedule may deviate
    /// at (its nonzero count). Witnessing a TSO relaxation takes roughly one
    /// deviation per reordered access, so a small bound covers every
    /// declared outcome while keeping the tree polynomial in
    /// `max_decisions` rather than exponential.
    pub max_delays: usize,
    /// Safety cap on enumerated runs per (test, policy) cell.
    pub max_runs: u64,
    /// Per-run cycle budget; exhausting it is a livelock violation (a
    /// correct machine finishes a litmus program under any bounded delay).
    pub cycle_limit: u64,
    /// Arm the planted early-unblock directory bug (regression hunting).
    pub planted_bug: bool,
    /// Run every schedule in audit mode ([`Machine::set_audit`]), which
    /// checks the simulation loop's shortcuts (`norush explore --audit`).
    /// Slower; neither hashed nor reported, so an audited exploration
    /// writes the plain one's report.
    pub audit: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            policy: "eager".into(),
            max_decisions: 9,
            max_delays: 3,
            max_runs: 20_000,
            cycle_limit: 200_000,
            planted_bug: false,
            audit: false,
        }
    }
}

impl ExploreOptions {
    /// The system configuration for one litmus cell: `cores` cores under
    /// `policy`, invariant sweep every 64 cycles (litmus machines are tiny;
    /// a planted protocol bug must surface at the first bad state, not
    /// thousands of cycles later), online oracle armed.
    pub fn system(&self, cores: usize) -> Result<SystemConfig, String> {
        let mut sys = Variant::by_name(&self.policy)?.apply(SystemConfig::small(cores));
        sys.check.invariant_every = Some(64);
        sys.check.oracle_online = true;
        Ok(sys)
    }
}

/// One executed schedule: its decision trace and what it produced.
pub struct ScheduleRun {
    /// The observed outcome tuple (probe order), when the run completed.
    pub outcome: Option<Vec<u64>>,
    /// The structural error, when the run failed.
    pub error: Option<SimError>,
    /// The run exhausted [`ExploreOptions::cycle_limit`].
    pub timed_out: bool,
    /// Every decision point the run encountered, in order.
    pub decisions: Vec<DecisionRecord>,
    /// fnv1a hash of the machine snapshot right after the last forced
    /// decision was consumed (`None` when the snapshot was refused).
    pub frontier_hash: Option<u64>,
    /// Transition coverage the run exercised.
    pub coverage: CoverageMap,
}

/// Executes `test` once under the decision vector `forced` (alternatives
/// beyond the vector default to 0). This is also the `--replay` entry point.
pub fn run_schedule(
    test: &LitmusTest,
    opts: &ExploreOptions,
    forced: &[u8],
) -> Result<ScheduleRun, String> {
    let sys = HashedConfig::new(opts.system(test.cores())?);
    Ok(run_in(&sys, test, opts, forced).0)
}

/// [`run_schedule`] on the cell's configuration `sys`, which the explorer
/// hashes once for all of a cell's schedules, also returning the finished
/// [`Machine`] so triage can pull its online-checker journal tail.
fn run_in(
    sys: &HashedConfig,
    test: &LitmusTest,
    opts: &ExploreOptions,
    forced: &[u8],
) -> (ScheduleRun, Machine) {
    let streams: Vec<Box<dyn InstrStream>> = test
        .programs
        .iter()
        .map(|p| Box::new(VecStream::new(p.clone())) as _)
        .collect();
    let mut m = Machine::build(sys, streams);
    m.set_audit(opts.audit);
    if opts.planted_bug {
        m.memory_mut().inject_early_unblock_for_test();
    }
    for c in 0..test.cores() {
        m.core_mut(c).record_loads();
    }
    m.memory_mut().set_schedule(Schedule::new(forced.to_vec()));
    // Step cycle-by-cycle until the forced prefix is consumed (so the
    // frontier snapshot lands exactly at the end of the consuming cycle),
    // then in coarse strides to completion.
    let mut frontier_hash = if forced.is_empty() {
        m.checkpoint().ok().map(|b| sealed_fnv1a(&b))
    } else {
        None
    };
    let mut outcome = None;
    let mut error = None;
    let mut timed_out = false;
    loop {
        if m.now().raw() >= opts.cycle_limit {
            timed_out = true;
            break;
        }
        let step = if frontier_hash.is_none() { 1 } else { 256 };
        match m.run_for(step) {
            Err(e) => {
                error = Some(e);
                break;
            }
            Ok(done) => {
                let consumed = m.memory().schedule().map_or(0, |s| s.decisions().len());
                if frontier_hash.is_none() && consumed >= forced.len() {
                    frontier_hash = m.checkpoint().ok().map(|b| sealed_fnv1a(&b));
                }
                if done.is_some() {
                    outcome = Some(observe(test, &mut m));
                    break;
                }
            }
        }
    }
    (
        ScheduleRun {
            outcome,
            error,
            timed_out,
            decisions: m
                .memory()
                .schedule()
                .map_or_else(Vec::new, |s| s.decisions().to_vec()),
            frontier_hash,
            coverage: m.coverage(),
        },
        m,
    )
}

/// Reads the outcome tuple off a completed machine.
fn observe(test: &LitmusTest, m: &mut Machine) -> Vec<u64> {
    test.probes
        .iter()
        .map(|p| match *p {
            Probe::Load { core, pc } => m
                .core_mut(core)
                .load_observations()
                .iter()
                .rev()
                .find(|o| o.pc == pc)
                .map(|o| o.value)
                // A completed run always observed its probes; the sentinel
                // classifies as Unlisted (a violation) if it ever leaks.
                .unwrap_or(u64::MAX),
            Probe::Mem { addr } => m.memory().read_word(addr),
        })
        .collect()
}

/// Renders an outcome tuple for reports (`"1,0"`).
pub fn fmt_outcome(o: &[u64]) -> String {
    o.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// How one run violated the conformance contract, if it did.
fn violation_of(test: &LitmusTest, run: &ScheduleRun) -> Option<(String, String)> {
    if let Some(e) = &run.error {
        let kind = violation_kind(e).unwrap_or("error");
        return Some((kind.to_string(), e.to_string()));
    }
    if run.timed_out {
        return Some((
            "livelock".to_string(),
            "cycle budget exhausted before the programs drained".to_string(),
        ));
    }
    let outcome = run.outcome.as_ref()?;
    match test.classify(outcome) {
        OutcomeClass::Forbidden => Some((
            "forbidden-outcome".to_string(),
            format!("observed forbidden outcome ({})", fmt_outcome(outcome)),
        )),
        OutcomeClass::Unlisted => Some((
            "unlisted-outcome".to_string(),
            format!("observed unlisted outcome ({})", fmt_outcome(outcome)),
        )),
        OutcomeClass::Allowed => None,
    }
}

/// A conformance violation with its (minimized) repro schedule.
#[derive(Clone, Debug)]
pub struct ExploreViolation {
    /// Violation class (`forbidden-outcome`, `protocol`, `livelock`, ...).
    pub kind: String,
    /// Human-readable detail (outcome tuple or error display).
    pub detail: String,
    /// The decision vector that triggered the violation.
    pub schedule: Vec<u8>,
    /// The greedily minimized decision vector (still violating).
    pub minimized: Vec<u8>,
    /// Detail observed when replaying the minimized schedule.
    pub minimized_detail: String,
}

/// Result of one litmus cell (one test under one policy), from either the
/// sampling or the exploring mode.
pub struct ExploreReport {
    /// Test name.
    pub test: String,
    /// Policy name.
    pub policy: String,
    /// Schedules executed.
    pub runs: u64,
    /// Distinct frontier states expanded (exploration only).
    pub states: u64,
    /// Expansions skipped because the frontier state was already seen.
    pub dedup_hits: u64,
    /// Alternatives skipped by partial-order reduction.
    pub dpor_pruned: u64,
    /// Most decision points any single run encountered.
    pub max_decision_points: usize,
    /// Observed outcome histogram.
    pub outcomes: BTreeMap<Vec<u64>, u64>,
    /// Allowed outcomes never observed (empty = completeness witnessed).
    pub unwitnessed: Vec<Vec<u64>>,
    /// The first violation found, if any (enumeration stops there).
    pub violation: Option<ExploreViolation>,
    /// The enumeration hit [`ExploreOptions::max_runs`] before draining.
    pub truncated: bool,
    /// Merged transition coverage across all runs of the cell.
    pub coverage: CoverageMap,
}

impl ExploreReport {
    fn new(test: &LitmusTest, policy: &str) -> Self {
        ExploreReport {
            test: test.name.to_string(),
            policy: policy.to_string(),
            runs: 0,
            states: 0,
            dedup_hits: 0,
            dpor_pruned: 0,
            max_decision_points: 0,
            outcomes: BTreeMap::new(),
            unwitnessed: Vec::new(),
            violation: None,
            truncated: false,
            coverage: CoverageMap::new(),
        }
    }

    fn absorb(&mut self, test: &LitmusTest, run: &ScheduleRun, schedule: &[u8]) -> bool {
        self.runs += 1;
        self.max_decision_points = self.max_decision_points.max(run.decisions.len());
        self.coverage.merge(&run.coverage);
        if let Some(o) = &run.outcome {
            *self.outcomes.entry(o.clone()).or_insert(0) += 1;
        }
        if let Some((kind, detail)) = violation_of(test, run) {
            self.violation = Some(ExploreViolation {
                kind,
                detail,
                schedule: schedule.to_vec(),
                minimized: schedule.to_vec(),
                minimized_detail: String::new(),
            });
            return true;
        }
        false
    }

    fn finish(&mut self, test: &LitmusTest) {
        self.unwitnessed = test
            .allowed
            .iter()
            .filter(|a| !self.outcomes.contains_key(*a))
            .cloned()
            .collect();
    }
}

/// Runs one litmus cell in *sampling* mode: the default schedule plus
/// `samples - 1` pseudo-random decision vectors derived from `seed`.
pub fn run_litmus(
    test: &LitmusTest,
    opts: &ExploreOptions,
    samples: u64,
    seed: u64,
) -> Result<ExploreReport, String> {
    let sys = HashedConfig::new(opts.system(test.cores())?);
    let mut report = ExploreReport::new(test, &opts.policy);
    for k in 0..samples.max(1) {
        let forced = if k == 0 {
            Vec::new()
        } else {
            // A fresh stream per sample; vectors run past the exploration
            // depth so sampling reaches schedules enumeration cannot. Two
            // bits map {0,1,2,3} to alternatives {0,0,1,2}: half the points
            // stay on the default schedule, long holds stay rare.
            let mut rng = SplitMix64::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k)));
            (0..32)
                .map(|_| ((rng.next_u64() & 3) as u8).saturating_sub(1))
                .collect()
        };
        let (run, _) = run_in(&sys, test, opts, &forced);
        if report.absorb(test, &run, &forced) {
            finalize_violation(&sys, test, opts, &mut report);
            break;
        }
    }
    report.finish(test);
    Ok(report)
}

/// True when delaying decision `i` can change anything observable: some
/// other decision within `window` cycles touches the same line or shares an
/// endpoint. Commit decisions always conflict (they are the knob under
/// test); an isolated delivery delay commutes with the whole run.
fn conflicts(decisions: &[DecisionRecord], i: usize, window: u64) -> bool {
    let d = &decisions[i];
    if d.kind == ChoiceKind::Commit {
        return true;
    }
    decisions.iter().enumerate().any(|(j, o)| {
        j != i
            && o.cycle.abs_diff(d.cycle) <= window
            && (o.line == d.line
                || o.src == d.src
                || o.src == d.dst
                || o.dst == d.src
                || o.dst == d.dst)
    })
}

/// Depth-first bounded-exhaustive exploration of one litmus cell.
///
/// Enumerates every decision vector over the first
/// [`ExploreOptions::max_decisions`] decision points (alternative sets per
/// [`row_common::choice`]), pruned by partial-order reduction and frontier
/// state dedup. Stops at the first violation (minimized into
/// [`ExploreViolation`]); otherwise reports the full outcome histogram and
/// the allowed outcomes that went unwitnessed.
pub fn explore(test: &LitmusTest, opts: &ExploreOptions) -> Result<ExploreReport, String> {
    // Two decisions conflict for partial-order reduction only within this
    // many cycles. Soundness needs at least the largest forced delay
    // (`choice::delivery_delay` of the top alternative): a held message
    // can only be reordered against decisions inside its hold window.
    let window = choice::delivery_delay(choice::N_ALTS - 1) + choice::DELIVERY_QUANTUM;
    let sys = HashedConfig::new(opts.system(test.cores())?);
    let mut report = ExploreReport::new(test, &opts.policy);
    let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
    let mut seen: HashSet<u64> = HashSet::new();
    while let Some(prefix) = stack.pop() {
        if report.runs >= opts.max_runs {
            report.truncated = true;
            break;
        }
        let (run, _) = run_in(&sys, test, opts, &prefix);
        if report.absorb(test, &run, &prefix) {
            finalize_violation(&sys, test, opts, &mut report);
            break;
        }
        // Expand children only from frontier states not seen before.
        if let Some(h) = run.frontier_hash {
            if !seen.insert(h) {
                report.dedup_hits += 1;
                continue;
            }
            report.states = seen.len() as u64;
        }
        // Delay-bounded: a child deviates at exactly one more point than its
        // parent, so a prefix already at the bound is a leaf.
        if prefix.iter().filter(|&&a| a != 0).count() >= opts.max_delays {
            continue;
        }
        let horizon = run.decisions.len().min(opts.max_decisions);
        // Reverse order so the DFS visits positions left to right.
        for i in (prefix.len()..horizon).rev() {
            let d = &run.decisions[i];
            if !conflicts(&run.decisions, i, window) {
                report.dpor_pruned += u64::from(d.n_alts.saturating_sub(1));
                continue;
            }
            for alt in (1..d.n_alts).rev() {
                let mut child: Vec<u8> = run.decisions[..i].iter().map(|r| r.chosen).collect();
                child.push(alt);
                stack.push(child);
            }
        }
    }
    report.finish(test);
    Ok(report)
}

/// Minimizes the violating schedule in `report` and records the replayed
/// minimized detail.
fn finalize_violation(
    sys: &HashedConfig,
    test: &LitmusTest,
    opts: &ExploreOptions,
    report: &mut ExploreReport,
) {
    let Some(v) = report.violation.as_mut() else {
        return;
    };
    let violation = |s: &[u8]| violation_of(test, &run_in(sys, test, opts, s).0);
    v.minimized = minimize_schedule(&v.schedule, |s| violation(s).is_some());
    v.minimized_detail = violation(&v.minimized)
        .map(|(kind, detail)| format!("{kind}: {detail}"))
        .unwrap_or_else(|| "violation did not reproduce on minimized schedule".to_string());
}

/// Zeroes alternatives greedily to fixpoint (`zero_knobs`; no bisection,
/// since an alternative is only 0–2), then truncates trailing zeros.
fn minimize_schedule(schedule: &[u8], mut fails: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let bytes = |k: &[u64]| k.iter().map(|&a| a as u8).collect::<Vec<u8>>();
    let mut alts: Vec<u64> = schedule.iter().map(|&a| u64::from(a)).collect();
    zero_knobs(&mut alts, |k| fails(&bytes(k)));
    let mut cur = bytes(&alts);
    while cur.last() == Some(&0) {
        cur.pop();
    }
    cur
}

/// Hex-codes a decision vector for `--replay` (one byte per decision).
pub fn schedule_to_hex(s: &[u8]) -> String {
    if s.is_empty() {
        return "-".to_string(); // canonical empty-schedule marker
    }
    to_hex(s)
}

/// Decodes a [`schedule_to_hex`] string.
pub fn schedule_from_hex(s: &str) -> Result<Vec<u8>, String> {
    match s {
        "-" => Ok(Vec::new()),
        "" => Err("schedule hex must be non-empty (`-` is the empty schedule)".into()),
        _ => from_hex(s).map_err(|e| format!("bad schedule hex: {e}")),
    }
}

/// The copy-pasteable command that replays `sched` for `test`.
pub fn repro_command(test: &LitmusTest, opts: &ExploreOptions, sched: &[u8]) -> String {
    format!(
        "norush explore --test {} --policy {}{} --replay {}",
        test.name,
        opts.policy,
        if opts.planted_bug {
            " --inject-early-unblock"
        } else {
            ""
        },
        schedule_to_hex(sched),
    )
}

/// Writes the explore triage bundle into `dir`: `explore_failure.txt` with
/// the (minimized) schedule and repro command, plus the online-checker
/// journal tail from replaying the minimized schedule. Progress and write
/// errors go to stderr.
pub fn write_triage(test: &LitmusTest, opts: &ExploreOptions, v: &ExploreViolation, dir: &Path) {
    let m = opts
        .system(test.cores())
        .map(|sys| run_in(&HashedConfig::new(sys), test, opts, &v.minimized).1);
    if let Err(e) = &m {
        eprintln!("cannot replay minimized schedule for journal tail: {e}");
    }
    let written = triage::write_bundle(dir, "explore", None, m.as_ref().ok(), |_| {
        format!(
            "explore failure\ntest: {}\npolicy: {}\nkind: {}\ndetail: {}\n\
             schedule: {}\nminimized: {}\nminimized detail: {}\nrepro: {}\n",
            test.name,
            opts.policy,
            v.kind,
            v.detail,
            schedule_to_hex(&v.schedule),
            schedule_to_hex(&v.minimized),
            v.minimized_detail,
            repro_command(test, opts, &v.minimized),
        )
    });
    if let Err(e) = written {
        eprintln!("cannot write the triage bundle: {e}");
    }
}

/// One litmus/explore cell as a [`LITMUS_SCHEMA`] JSON object.
fn cell_json(r: &ExploreReport) -> Value {
    let outcomes = r.outcomes.iter().map(|(o, &n)| (fmt_outcome(o), n.into()));
    let unwitnessed: Vec<String> = r.unwitnessed.iter().map(|o| fmt_outcome(o)).collect();
    object! {
        "test": r.test.as_str(),
        "policy": r.policy.as_str(),
        "runs": r.runs,
        "states": r.states,
        "dedup_hits": r.dedup_hits,
        "dpor_pruned": r.dpor_pruned,
        "max_decision_points": r.max_decision_points,
        "truncated": r.truncated,
        "coverage_covered": r.coverage.covered(),
        "outcomes": Value::object(outcomes),
        "unwitnessed": unwitnessed,
        "violation": r.violation.as_ref().map(|v| object! {
            "kind": v.kind.as_str(),
            "detail": v.detail.as_str(),
            "schedule": schedule_to_hex(&v.schedule),
            "minimized": schedule_to_hex(&v.minimized),
            "minimized_detail": v.minimized_detail.as_str(),
        }),
    }
}

/// Renders the machine-readable litmus/explore report ([`LITMUS_SCHEMA`],
/// documented in `results/README.md`). `mode` is `sample` or `explore`;
/// `params` are the mode's integer knobs, emitted in order after it.
/// Deterministic for a given configuration — independent of the worker
/// count — so CI can diff reports.
pub fn report_json(mode: &str, params: &[(&str, u64)], cells: &[ExploreReport]) -> String {
    let mut union = CoverageMap::new();
    for r in cells {
        union.merge(&r.coverage);
    }
    let violated = cells.iter().any(|r| r.violation.is_some());
    let mut report = object! {
        "schema": LITMUS_SCHEMA,
        "mode": mode,
        "status": if violated { "violation" } else { "ok" },
        "coverage": object! { "covered": union.covered(), "total": SLOT_COUNT },
        "cells": cells.iter().map(cell_json).collect::<Vec<_>>(),
    };
    // The mode's integer knobs follow `mode`.
    if let Value::Object(fields) = &mut report {
        fields.splice(2..2, params.iter().map(|&(k, v)| (k.to_string(), v.into())));
    }
    json::render(&report, &["cells"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::persist::fnv1a;

    #[test]
    fn hex_roundtrip() {
        for s in [vec![], vec![0], vec![1, 0, 1], vec![255, 0]] {
            let hex = schedule_to_hex(&s);
            assert_eq!(schedule_from_hex(&hex).unwrap(), s);
        }
        assert!(schedule_from_hex("0").is_err());
        assert!(schedule_from_hex("zz").is_err());
        assert!(schedule_from_hex("").is_err());
    }

    #[test]
    fn default_schedule_of_sb_is_allowed_and_deterministic() {
        let test = LitmusTest::sb();
        let opts = ExploreOptions::default();
        let a = run_schedule(&test, &opts, &[]).unwrap();
        let b = run_schedule(&test, &opts, &[]).unwrap();
        assert!(a.error.is_none() && !a.timed_out);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.frontier_hash, b.frontier_hash);
        assert_eq!(a.decisions.len(), b.decisions.len());
        assert!(!a.decisions.is_empty(), "litmus runs must expose decisions");
        let o = a.outcome.unwrap();
        assert_eq!(test.classify(&o), OutcomeClass::Allowed);
    }

    /// The frontier hash read off a real checkpoint's trailer is the
    /// hash of the whole image, before and after the machine runs.
    #[test]
    fn sealed_hash_of_a_checkpoint_is_its_fnv1a() {
        let test = LitmusTest::sb();
        let streams: Vec<Box<dyn InstrStream>> = test
            .programs
            .iter()
            .map(|p| Box::new(VecStream::new(p.clone())) as _)
            .collect();
        let sys = ExploreOptions::default().system(test.cores()).unwrap();
        let mut m = Machine::new(&sys, streams);
        for _ in 0..2 {
            let image = m.checkpoint().unwrap();
            assert_eq!(sealed_fnv1a(&image), fnv1a(&image));
            m.run_for(100).unwrap();
        }
    }

    #[test]
    fn delaying_a_message_changes_the_decision_trace_deterministically() {
        let test = LitmusTest::mp();
        let opts = ExploreOptions::default();
        let base = run_schedule(&test, &opts, &[]).unwrap();
        let delayed = run_schedule(&test, &opts, &[1]).unwrap();
        assert_eq!(delayed.decisions[0].chosen, 1);
        assert!(base.error.is_none() && delayed.error.is_none());
        // Replays are bit-identical.
        let again = run_schedule(&test, &opts, &[1]).unwrap();
        assert_eq!(delayed.outcome, again.outcome);
        assert_eq!(delayed.frontier_hash, again.frontier_hash);
    }

    /// Pins every schedule the minimizer asks the predicate about, in
    /// order: the probe count, the fnv1a of the recorded probes, and the
    /// result.
    #[test]
    fn minimizer_probe_sequence_is_pinned() {
        let mut seen = String::new();
        let min = minimize_schedule(&[2, 1, 0, 2, 1, 1, 0, 2, 0, 0], |s| {
            seen.push_str(&schedule_to_hex(s));
            seen.push(';');
            s[3] >= 1 && s.iter().filter(|&&a| a != 0).count() >= 2
        });
        assert_eq!(seen.matches(';').count(), 8);
        assert_eq!(
            format!("{:016x}", fnv1a(seen.as_bytes())),
            "9ebb80e44d32c633"
        );
        assert_eq!(min, [0, 0, 0, 2, 0, 0, 0, 2]);
    }

    #[test]
    fn conflicts_respects_window_line_and_endpoints() {
        let d = |cycle, line, src, dst, kind| DecisionRecord {
            kind,
            src,
            dst,
            line,
            cycle,
            n_alts: 2,
            chosen: 0,
        };
        use ChoiceKind::{Commit, Delivery};
        // Same line within window: conflict.
        let recs = vec![d(0, 1, 0, 1, Delivery), d(10, 1, 2, 3, Delivery)];
        assert!(conflicts(&recs, 0, 48));
        // Different line, disjoint endpoints: no conflict.
        let recs = vec![d(0, 1, 0, 1, Delivery), d(10, 2, 2, 3, Delivery)];
        assert!(!conflicts(&recs, 0, 48));
        // Shared endpoint: conflict.
        let recs = vec![d(0, 1, 0, 1, Delivery), d(10, 2, 1, 3, Delivery)];
        assert!(conflicts(&recs, 0, 48));
        // Outside the window: no conflict.
        let recs = vec![d(0, 1, 0, 1, Delivery), d(1000, 1, 0, 1, Delivery)];
        assert!(!conflicts(&recs, 0, 48));
        // Commit decisions always conflict.
        let recs = vec![d(0, 1, 0, 0, Commit)];
        assert!(conflicts(&recs, 0, 48));
    }
}
