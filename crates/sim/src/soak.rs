//! The phased lock-service soak behind `norush soak`.
//!
//! A soak runs the sharded lock/counter service
//! ([`row_workloads::LockServiceStream`]) for [`SoakOptions::phases`]
//! phases under every policy in [`SoakOptions::policies`], with the online
//! per-operation linearizability checker armed. Each phase rotates the
//! service kernel and escalates the lossy chaos rates; each phase × policy
//! cell ([`ServiceCell`]) runs under a cycle budget, keeping a restore point
//! every [`SoakOptions::ckpt_every`] cycles, and the whole soak under a
//! wall-clock budget. The first violation stops the soak and writes a triage
//! bundle into [`SoakOptions::repro_dir`]: `soak_failure.txt` with a
//! single-phase repro command, the checker's `journal_tail.txt`, the last
//! restore point before the violation and, when chaos was active, a shrunk
//! `chaos_repro.txt`. [`report_json`] renders the `norush-soak-v1` report
//! (schema in `results/README.md`).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use row_common::config::FaultConfig;
use row_common::json::{self, Value};
use row_common::object;
use row_common::stats::LogHistogram;
use row_workloads::{LockServiceConfig, ServiceKernel};

use crate::cell::ServiceCell;
use crate::machine::{Machine, SimError};
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
    /// Cycles between restore points. A cell keeps its latest in memory
    /// and writes it into the triage bundle only when it fails.
    pub ckpt_every: u64,
    /// Deadlock-watchdog window, in cycles.
    pub watchdog: u64,
    /// Where the triage bundle lands, failing cell's restore point included.
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

    /// One phase × policy cell under `chaos`, the injected bug (if any)
    /// planted. The phase loop passes [`SoakOptions::chaos_for`]; the
    /// shrinker passes candidates.
    fn cell<'a>(
        &self,
        phase: usize,
        policy: &'a str,
        chaos: Option<FaultConfig>,
    ) -> ServiceCell<'a> {
        ServiceCell {
            policy,
            cores: self.cores,
            svc: LockServiceConfig {
                kernel: self.kernel_for(phase),
                ..self.svc
            },
            seed: self.seed_for(phase),
            watchdog: self.watchdog,
            chaos,
            perturb: None,
            net_zero_faa: self.inject,
            early_unblock: false,
        }
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
/// A cell [`ServiceCell::machine`] cannot build: an unknown policy, or a
/// setting the system configuration's validation refuses.
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
            let mut m = opts.cell(phase, policy, chaos).machine()?;
            let (res, image) =
                m.run_with_restore_point(opts.phase_cycles, opts.ckpt_every, Some(deadline));
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
                Ok(Some(r)) => {
                    o.cycles = r.cycles;
                    o.ipc = r.ipc();
                    o.atomics = r.total.atomics;
                    o.lat = Some(r.total.atomic_latency.clone());
                }
                Ok(None) => {
                    o.status = "wall-budget";
                    o.error = Some(format!("wall budget exhausted at cycle {}", o.cycles));
                }
                Err(e) => {
                    o.status = "violation";
                    o.error = Some(e.to_string());
                }
            }
            progress(SoakEvent::Cell(&o));
            outcomes.push(o);
            if let Err(e) = &res {
                write_triage(opts, phase, policy, e, &m, image);
            }
            if !matches!(res, Ok(Some(_))) {
                return Ok(outcomes);
            }
        }
    }
    Ok(outcomes)
}

/// On a cell failure: write the triage bundle (failure description with its
/// repro command, online-checker journal tail, the cell's last restore
/// point) and, when chaos was active, shrink it to a minimal repro.
fn write_triage(
    opts: &SoakOptions,
    phase: usize,
    policy: &str,
    err: &SimError,
    m: &Machine,
    image: Option<Vec<u8>>,
) {
    let chaos = opts.chaos_for(phase);
    let image = image.map(|b| (format!("soak_p{phase}_{policy}.ckpt"), b));
    let written = triage::write_bundle(&opts.repro_dir, "soak", image, Some(m), |ckpt| {
        let chaos_text = chaos.map_or("off".into(), |f| format!("seed {} {f}", f.seed));
        let bug = match opts.inject {
            0 => String::new(),
            n => format!("injected net-zero FAA bug: countdown {n}\n"),
        };
        let ckpt = ckpt.map_or("none written before the failure".into(), |p| {
            p.display().to_string()
        });
        format!(
            "soak failure\nphase: {phase}\npolicy: {policy}\nkernel: {}\nseed: {}\ncores: {}\n\
             chaos: {chaos_text}\n{bug}checkpoint: {ckpt}\nrepro: {}\nerror:\n{err}\n",
            opts.kernel_for(phase).name(),
            opts.seed_for(phase),
            opts.cores,
            opts.repro_cmd(phase, policy, &chaos.unwrap_or_default()),
        )
    });
    if let Err(e) = written {
        eprintln!("cannot write the triage bundle: {e}");
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
            opts.cell(phase, policy, Some(*cand))
                .machine()
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
        assert!(opts.cell(0, "nonesuch", None).machine().is_err());
    }
}
