//! The phased lock-service soak behind `norush soak`.
//!
//! A soak runs the sharded lock/counter service
//! ([`row_workloads::LockServiceStream`]) for [`SoakOptions::phases`]
//! phases under every policy in [`SoakOptions::policies`], with the online
//! per-operation linearizability checker armed. Each phase rotates the
//! service kernel and escalates the lossy chaos rates; each phase × policy
//! cell runs under a cycle budget in checkpointed slices, and the whole soak
//! under a wall-clock budget. The first violation stops the soak and writes
//! a triage bundle into [`SoakOptions::repro_dir`]: `soak_failure.txt` with a
//! single-phase repro command, the checker's `journal_tail.txt`, the latest
//! pre-violation checkpoint and, when chaos was active, a shrunk
//! `chaos_repro.txt`. [`report_json`] renders the `norush-soak-v1` report
//! (schema in `results/README.md`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use row_common::config::{CheckConfig, FaultConfig, SystemConfig};
use row_common::json::{self, Value};
use row_common::object;
use row_common::stats::LogHistogram;
use row_cpu::instr::InstrStream;
use row_workloads::{LockServiceConfig, LockServiceStream, ServiceKernel};

use crate::machine::{Machine, RunResult, SimError};
use crate::sweep::Variant;
use crate::triage;

/// Schema tag of the machine-readable soak report.
pub const SOAK_SCHEMA: &str = "norush-soak-v1";

/// Everything one soak needs. [`Default`] holds the `norush soak` defaults.
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// Number of phases.
    pub phases: usize,
    /// Simulated cores (= service threads).
    pub cores: usize,
    /// Workload seed of phase 0; later phases derive theirs from it.
    pub seed: u64,
    /// Policies run in every phase (`eager`, `lazy`, `row`, `row-fwd`, `far`).
    pub policies: Vec<String>,
    /// Service kernel; `None` rotates through [`ServiceKernel::ALL`] per phase.
    pub kernel: Option<ServiceKernel>,
    /// Workload shape shared by every phase (the kernel field is
    /// overwritten per phase).
    pub svc: LockServiceConfig,
    /// Phase 0's chaos schedule; phase `p` uses seed `chaos.seed + p` and
    /// escalated lossy rates ([`SoakOptions::chaos_for`]).
    pub chaos: FaultConfig,
    /// Per-phase multiplier on the lossy ppm rates (phase p runs at
    /// `base * escalation^p`, capped at the CLI's 50 000 ppm bound).
    pub escalation: f64,
    /// Cycle budget of one phase × policy cell.
    pub phase_cycles: u64,
    /// Wall-clock budget of the whole soak, in seconds.
    pub wall_secs: u64,
    /// Cycles between on-disk checkpoints.
    pub ckpt_every: u64,
    /// Deadlock-watchdog window, in cycles.
    pub watchdog: u64,
    /// Where checkpoints and the triage bundle land.
    pub repro_dir: PathBuf,
    /// Test-only atomicity bug: lose the Nth FAA and double-apply the next
    /// one on the same word (0 = off). Exercises the triage pipeline.
    pub inject: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            phases: 3,
            cores: 4,
            seed: 42,
            policies: vec!["lazy".into(), "row".into()],
            kernel: None,
            svc: LockServiceConfig::soak(ServiceKernel::Counter),
            chaos: FaultConfig {
                seed: 1,
                max_extra_latency: 40,
                drop_ppm: 200,
                dup_ppm: 200,
                corrupt_ppm: 100,
            },
            escalation: 4.0,
            phase_cycles: 2_000_000,
            wall_secs: 600,
            ckpt_every: 250_000,
            watchdog: 2_000_000,
            repro_dir: PathBuf::from("soak_repro"),
            inject: 0,
        }
    }
}

impl SoakOptions {
    /// The service kernel phase `phase` runs.
    pub fn kernel_for(&self, phase: usize) -> ServiceKernel {
        self.kernel
            .unwrap_or(ServiceKernel::ALL[phase % ServiceKernel::ALL.len()])
    }

    /// Per-phase workload seed; phase 0 uses [`SoakOptions::seed`] verbatim,
    /// so a single-phase repro can name any phase's seed directly.
    fn seed_for(&self, phase: usize) -> u64 {
        self.seed.wrapping_add(phase as u64 * 0x9e37_79b9_7f4a_7c15)
    }

    /// The phase's escalated chaos schedule; `None` once every component is
    /// zeroed out (pure-functional soak, e.g. for bug-injection runs).
    pub fn chaos_for(&self, phase: usize) -> Option<FaultConfig> {
        let esc = |base: u32| -> u32 {
            let scaled = (base as f64 * self.escalation.powi(phase as i32)).round() as u64;
            scaled.min(50_000) as u32
        };
        let f = FaultConfig {
            seed: self.chaos.seed.wrapping_add(phase as u64),
            drop_ppm: esc(self.chaos.drop_ppm),
            dup_ppm: esc(self.chaos.dup_ppm),
            corrupt_ppm: esc(self.chaos.corrupt_ppm),
            ..self.chaos
        };
        (f.max_extra_latency > 0 || f.lossy()).then_some(f)
    }

    fn streams_for(&self, phase: usize) -> Vec<Box<dyn InstrStream>> {
        let svc = LockServiceConfig {
            kernel: self.kernel_for(phase),
            ..self.svc
        };
        let seed = self.seed_for(phase);
        (0..self.cores)
            .map(|t| Box::new(LockServiceStream::new(svc, t, self.cores, seed)) as _)
            .collect()
    }

    /// A fresh machine for one phase × policy cell under `chaos`, online
    /// checker armed and the injected bug (if any) planted. The phase loop
    /// passes [`SoakOptions::chaos_for`]; the shrinker passes candidates.
    fn machine(
        &self,
        phase: usize,
        policy: &str,
        chaos: Option<FaultConfig>,
    ) -> Result<Machine, String> {
        let sys = Variant::by_name(policy)?
            .apply(SystemConfig::small(self.cores))
            .with_check(CheckConfig {
                invariant_every: Some(4_096),
                watchdog_window: Some(self.watchdog),
                oracle_online: true,
                chaos,
                ..CheckConfig::default()
            });
        let mut m = Machine::new(&sys, self.streams_for(phase));
        if self.inject > 0 {
            m.memory_mut().inject_net_zero_faa_for_test(self.inject);
        }
        Ok(m)
    }

    /// A single-phase command replaying one phase × policy cell exactly:
    /// phase 0 with the failing phase's effective seeds, kernel, and chaos
    /// rates spelled out (`--chaos-escalation 1` keeps them unscaled).
    fn repro_cmd(&self, phase: usize, policy: &str, chaos: &FaultConfig) -> String {
        let mut cmd = format!(
            "norush soak --phases 1 --policies {policy} --kernel {} --cores {} --seed {} \
             --ops {} --shards {} --keys {} --zipf-theta {} --read-frac {} --mean-gap {} \
             --burst-epoch {} --burst-factor {} --phase-cycles {} --chaos {} \
             --chaos-latency {} --chaos-drop {} --chaos-dup {} --chaos-corrupt {} \
             --chaos-escalation 1",
            self.kernel_for(phase).name(),
            self.cores,
            self.seed_for(phase),
            self.svc.ops_per_thread,
            self.svc.shards,
            self.svc.keys,
            self.svc.zipf_theta,
            self.svc.read_fraction,
            self.svc.mean_gap,
            self.svc.burst_epoch_ops,
            self.svc.burst_factor,
            self.phase_cycles,
            chaos.seed,
            chaos.max_extra_latency,
            chaos.drop_ppm as f64 / 1e6,
            chaos.dup_ppm as f64 / 1e6,
            chaos.corrupt_ppm as f64 / 1e6,
        );
        if self.inject > 0 {
            cmd.push_str(&format!(" --inject-net-zero-faa {}", self.inject));
        }
        cmd
    }
}

/// How one soak phase × policy cell ended.
enum PhaseFailure {
    /// The machine failed (violation, stall, timeout against the phase's
    /// cycle budget, checkpoint error).
    Sim(SimError),
    /// The whole-soak wall budget ran out mid-phase.
    Wall,
}

/// Drives one cell to completion in checkpointed slices: every `every`
/// cycles the machine snapshot lands in `ckpt` (atomically), so a violation
/// leaves a recent restore point for the triage bundle, and the wall-clock
/// `deadline` is re-checked between slices.
fn run_soak_phase(
    m: &mut Machine,
    cycle_budget: u64,
    every: u64,
    ckpt: &Path,
    deadline: Instant,
) -> Result<RunResult, PhaseFailure> {
    let limit = m.now().raw().saturating_add(cycle_budget);
    loop {
        if Instant::now() >= deadline {
            return Err(PhaseFailure::Wall);
        }
        let remaining = limit - m.now().raw();
        if remaining == 0 {
            // Budget exhausted: surface the standard timeout diagnostics.
            return m.run(limit).map_err(PhaseFailure::Sim);
        }
        match m.run_for(every.min(remaining)).map_err(PhaseFailure::Sim)? {
            Some(r) => return Ok(r),
            None => {
                let bytes = m.checkpoint().map_err(PhaseFailure::Sim)?;
                crate::checkpoint::write_checkpoint(ckpt, &bytes)
                    .map_err(|e| PhaseFailure::Sim(SimError::Checkpoint(e)))?;
            }
        }
    }
}

/// One phase × policy cell of the soak report.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Phase index.
    pub phase: usize,
    /// Service kernel name.
    pub kernel: &'static str,
    /// Policy name.
    pub policy: String,
    /// The phase's chaos schedule (`None` = off).
    pub chaos: Option<FaultConfig>,
    /// `"ok"`, `"violation"`, or `"wall-budget"`.
    pub status: &'static str,
    /// Why the cell failed.
    pub error: Option<String>,
    /// Cycles run (the failure cycle for failed cells).
    pub cycles: u64,
    /// Instructions per cycle (0 for failed cells).
    pub ipc: f64,
    /// Atomics committed (0 for failed cells).
    pub atomics: u64,
    /// Atomic-latency histogram (cycles) of a finished cell.
    pub lat: Option<LogHistogram>,
    /// Online-checker counters: (ops observed, RMWs, live words).
    pub checker: Option<(u64, u64, usize)>,
}

/// Progress of a running soak, reported through [`soak`]'s callback.
pub enum SoakEvent<'a> {
    /// Phase `n` is about to start.
    Phase(usize),
    /// A cell ended; for a violation this comes before triage runs.
    Cell(&'a SoakOutcome),
}

/// True when the soak stopped at a failing cell (always the last one).
pub fn failed(outcomes: &[SoakOutcome]) -> bool {
    outcomes.last().is_some_and(|o| o.status != "ok")
}

/// Runs the soak described by `opts`, calling `progress` at every phase
/// start and cell end, and returns every cell that ran, in order. The first
/// failing cell stops the soak; a violation writes the triage bundle
/// (progress on stderr).
///
/// # Errors
/// `unknown policy` for a policy name outside [`Variant::by_name`].
pub fn soak(
    opts: &SoakOptions,
    mut progress: impl FnMut(SoakEvent<'_>),
) -> Result<Vec<SoakOutcome>, String> {
    let deadline = Instant::now() + Duration::from_secs(opts.wall_secs);
    let mut outcomes: Vec<SoakOutcome> = Vec::new();
    for phase in 0..opts.phases {
        progress(SoakEvent::Phase(phase));
        let chaos = opts.chaos_for(phase);
        for policy in &opts.policies {
            let mut m = opts.machine(phase, policy, chaos)?;
            let ckpt = opts.repro_dir.join(format!("soak_p{phase}_{policy}.ckpt"));
            let res = run_soak_phase(&mut m, opts.phase_cycles, opts.ckpt_every, &ckpt, deadline);
            let mut o = SoakOutcome {
                phase,
                kernel: opts.kernel_for(phase).name(),
                policy: policy.clone(),
                chaos,
                status: "ok",
                error: None,
                cycles: m.now().raw(),
                ipc: 0.0,
                atomics: 0,
                lat: None,
                checker: m
                    .online_checker()
                    .map(|c| (c.ops_seen(), c.rmws(), c.live_words())),
            };
            match &res {
                Ok(r) => {
                    o.cycles = r.cycles;
                    o.ipc = r.ipc();
                    o.atomics = r.total.atomics;
                    o.lat = Some(r.total.atomic_latency.clone());
                }
                Err(PhaseFailure::Wall) => {
                    o.status = "wall-budget";
                    o.error = Some(format!("wall budget exhausted at cycle {}", o.cycles));
                }
                Err(PhaseFailure::Sim(e)) => {
                    o.status = "violation";
                    o.error = Some(e.to_string());
                }
            }
            progress(SoakEvent::Cell(&o));
            outcomes.push(o);
            match res {
                // The cell finished: its checkpoint is spent.
                Ok(_) => {
                    std::fs::remove_file(&ckpt).ok();
                }
                Err(PhaseFailure::Wall) => return Ok(outcomes),
                Err(PhaseFailure::Sim(e)) => {
                    write_triage(opts, phase, policy, &e, &m, &ckpt);
                    return Ok(outcomes);
                }
            }
        }
    }
    Ok(outcomes)
}

/// On a cell failure: write the triage bundle (failure description, repro
/// command, online-checker journal tail; the latest checkpoint is already in
/// the repro dir) and, when chaos was active, shrink it to a minimal repro.
fn write_triage(
    opts: &SoakOptions,
    phase: usize,
    policy: &str,
    err: &SimError,
    m: &Machine,
    ckpt: &Path,
) {
    let chaos = opts.chaos_for(phase);
    let mut desc = format!(
        "soak failure\nphase: {phase}\npolicy: {policy}\nkernel: {}\nseed: {}\ncores: {}\n",
        opts.kernel_for(phase).name(),
        opts.seed_for(phase),
        opts.cores,
    );
    match chaos {
        Some(f) => desc.push_str(&format!(
            "chaos: seed {} latency {} drop {}ppm dup {}ppm corrupt {}ppm\n",
            f.seed, f.max_extra_latency, f.drop_ppm, f.dup_ppm, f.corrupt_ppm
        )),
        None => desc.push_str("chaos: off\n"),
    }
    if opts.inject > 0 {
        desc.push_str(&format!(
            "injected net-zero FAA bug: countdown {}\n",
            opts.inject
        ));
    }
    desc.push_str(&format!(
        "checkpoint: {}\n",
        if ckpt.exists() {
            ckpt.display().to_string()
        } else {
            "none written before the failure".to_string()
        }
    ));
    let unshrunk = chaos.unwrap_or(FaultConfig {
        seed: 0,
        max_extra_latency: 0,
        drop_ppm: 0,
        dup_ppm: 0,
        corrupt_ppm: 0,
    });
    desc.push_str(&format!(
        "repro: {}\nerror:\n{err}\n",
        opts.repro_cmd(phase, policy, &unshrunk)
    ));
    match triage::write_failure(&opts.repro_dir, "soak_failure.txt", &desc) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write soak_failure.txt: {e}"),
    }
    match triage::write_journal_tail(&opts.repro_dir, m) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("cannot write journal_tail.txt: {e}"),
    }
    let Some(initial) = chaos else {
        eprintln!("no chaos was active; nothing to shrink");
        return;
    };
    triage::shrink_and_report(
        &opts.repro_dir,
        initial,
        &|min| opts.repro_cmd(phase, policy, min),
        &mut |cand| {
            opts.machine(phase, policy, Some(*cand))
                .is_ok_and(|mut pm| pm.run(opts.phase_cycles).is_err())
        },
    );
}

/// Renders the machine-readable soak report ([`SOAK_SCHEMA`], documented in
/// `results/README.md`).
pub fn report_json(opts: &SoakOptions, outcomes: &[SoakOutcome]) -> String {
    let runs: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            object! {
                "phase": o.phase,
                "kernel": o.kernel,
                "policy": o.policy.as_str(),
                "chaos": o.chaos.as_ref().map(FaultConfig::to_json),
                "status": o.status,
                "cycles": o.cycles,
                "ipc": Value::Fixed(o.ipc, 4),
                "atomics": o.atomics,
                "latency": o.lat.as_ref().map(|h| object! {
                    "count": h.count(),
                    "mean": Value::Fixed(h.mean(), 2),
                    "p50": h.percentile(0.50),
                    "p99": h.percentile(0.99),
                    "p999": h.percentile(0.999),
                    "max": h.max(),
                }),
                "checker": o.checker.map(|(ops, rmws, live)| object! {
                    "ops": ops,
                    "rmws": rmws,
                    "live_words": live,
                }),
                "error": o.error.as_deref(),
            }
        })
        .collect();
    let report = object! {
        "schema": SOAK_SCHEMA,
        "status": if failed(outcomes) { "fail" } else { "pass" },
        "seed": opts.seed,
        "cores": opts.cores,
        "phases": opts.phases,
        "policies": opts.policies.clone(),
        "phase_cycles": opts.phase_cycles,
        "wall_secs": opts.wall_secs,
        "runs": runs,
    };
    json::render(&report, &["runs"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_rotate_kernels_and_escalate_chaos() {
        let opts = SoakOptions::default();
        assert_eq!(opts.kernel_for(0), ServiceKernel::ALL[0]);
        assert_eq!(opts.kernel_for(1), ServiceKernel::ALL[1]);
        assert_eq!(opts.seed_for(0), opts.seed);
        let (p0, p1) = (opts.chaos_for(0).unwrap(), opts.chaos_for(1).unwrap());
        assert_eq!(p1.drop_ppm, p0.drop_ppm * 4);
        assert_eq!(p1.seed, p0.seed + 1);
        // Escalation is capped at the CLI's 5% bound.
        assert_eq!(opts.chaos_for(20).unwrap().drop_ppm, 50_000);
        let mut off = SoakOptions::default();
        off.chaos = FaultConfig {
            max_extra_latency: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
            ..off.chaos
        };
        assert!(off.chaos_for(0).is_none());
    }

    #[test]
    fn repro_cmd_pins_the_phase_and_the_planted_bug() {
        let opts = SoakOptions {
            inject: 50,
            ..SoakOptions::default()
        };
        let f = opts.chaos_for(1).unwrap();
        let cmd = opts.repro_cmd(1, "row", &f);
        assert!(cmd.starts_with("norush soak --phases 1 --policies row --kernel mpmc-queue"));
        assert!(cmd.contains(&format!("--seed {}", opts.seed_for(1))));
        assert!(cmd.ends_with("--chaos-escalation 1 --inject-net-zero-faa 50"));
        assert!(opts.machine(0, "nonesuch", None).is_err());
    }
}
