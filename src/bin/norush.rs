//! `norush` command-line interface: `list`, `run`, `profile`, `compare`,
//! `soak`, `fuzz`, `litmus`, `explore`, `record` and `replay`. Each
//! subcommand's entry in [`COMMANDS`] lists the flags it accepts; `norush
//! <command> --help` prints that list, and any other flag is rejected before
//! the command runs. The paper's tables and figures are ids of the separate
//! `figure` binary.
//!
//! Policies: `eager` (default), `lazy`, `row`, `row-fwd`, `far`.
//!
//! This binary only parses flags, prints, and dispatches: every job runs in
//! `row_sim` ([`norush::sim`]).

use std::path::PathBuf;

use norush::common::config::{FaultConfig, MAX_CHAOS_LATENCY};
use norush::common::persist::write_atomic;
use norush::cpu::instr::InstrStream;
use norush::sim::soak::{self, SoakEvent, SoakOptions};
use norush::sim::{
    bench_streams, run_benchmark, triage, ExperimentConfig, Machine, Sweep, SweepOptions, Variant,
};
use norush::workloads::litmus::{LitmusTest, OutcomeClass};
use norush::workloads::{Benchmark, LockServiceConfig, ServiceKernel};
use norush::SystemConfig;

type CliResult = Result<(), Box<dyn std::error::Error>>;

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

fn parse_args(raw: Vec<String>) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut switches = std::collections::HashSet::new();
    let mut it = raw.into_iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().expect("peeked"));
                }
                _ => {
                    switches.insert(name.to_string());
                }
            }
        } else {
            positional.push(a);
        }
    }
    Args {
        positional,
        flags,
        switches,
    }
}

impl Args {
    fn num(&self, name: &str, default: u64) -> Result<u64, Box<dyn std::error::Error>> {
        match self.flags.get(name) {
            Some(v) => Ok(v.parse()?),
            None => Ok(default),
        }
    }

    /// Parses `--{name}` as an integer in `[lo, hi]`; absent means `default`.
    /// The error explains the bound, mirroring the `--chaos-*` style.
    fn num_in(
        &self,
        name: &str,
        default: u64,
        lo: u64,
        hi: u64,
        why: &str,
    ) -> Result<u64, Box<dyn std::error::Error>> {
        let Some(v) = self.flags.get(name) else {
            return Ok(default);
        };
        let n: u64 = v
            .parse()
            .map_err(|e| format!("--{name}: `{v}` is not a number ({e})"))?;
        if !(lo..=hi).contains(&n) {
            return Err(format!("--{name}: {n} out of range [{lo}, {hi}] ({why})").into());
        }
        Ok(n)
    }

    /// Parses `--{name}` as a finite float in `[lo, hi]`; absent means
    /// `default`. Same structured errors as [`Args::num_in`].
    fn f64_in(
        &self,
        name: &str,
        default: f64,
        lo: f64,
        hi: f64,
        why: &str,
    ) -> Result<f64, Box<dyn std::error::Error>> {
        let Some(v) = self.flags.get(name) else {
            return Ok(default);
        };
        let x: f64 = v
            .parse()
            .map_err(|e| format!("--{name}: `{v}` is not a number ({e})"))?;
        if !x.is_finite() || !(lo..=hi).contains(&x) {
            return Err(format!("--{name}: {v} out of range [{lo}, {hi}] ({why})").into());
        }
        Ok(x)
    }

    /// Parses `--{name}` as a fault probability in `[0, 0.05]` and converts
    /// it to parts-per-million; absent means `default_ppm`.
    fn prob_ppm(&self, name: &str, default_ppm: u32) -> Result<u32, Box<dyn std::error::Error>> {
        let Some(v) = self.flags.get(name) else {
            return Ok(default_ppm);
        };
        let p: f64 = v
            .parse()
            .map_err(|e| format!("--{name}: `{v}` is not a number ({e})"))?;
        if !(0.0..=0.05).contains(&p) {
            return Err(format!(
                "--{name}: probability {v} out of range [0, 0.05] \
                 (rates above 5% defeat bounded retry)"
            )
            .into());
        }
        Ok((p * 1e6).round() as u32)
    }

    /// `--{name}` as a string; absent means `default`.
    fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }
}

fn bench_by_name(name: &str) -> Result<Benchmark, String> {
    Benchmark::all()
        .iter()
        .copied()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown benchmark `{name}`; known: {}",
                Benchmark::all()
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn system_for(policy: &str, exp: &ExperimentConfig) -> Result<SystemConfig, String> {
    let sys = Variant::by_name(policy)?.apply(exp.system());
    sys.validate()?;
    Ok(sys)
}

/// Parses `--repro-dir` (where shrunk repros and triage bundles land),
/// creating the directory and rotating any leftover bundle aside (the
/// shared [`norush::sim::triage`] plumbing). `run` defaults to the working
/// directory; `soak` to `soak_repro`; `fuzz` to `fuzz_repro`; `litmus` and
/// `explore` to `explore_repro`.
fn repro_dir_from(args: &Args, default: &str) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let dir = PathBuf::from(args.str_or("repro-dir", default));
    triage::prepare_repro_dir(&dir).map_err(|e| format!("--repro-dir {}: {e}", dir.display()))?;
    Ok(dir)
}

fn summarize(name: &str, s: &norush::common::stats::JobStats, baseline: Option<u64>) {
    let norm = baseline
        .map(|b| format!("{:>8.3}", s.cycles as f64 / b as f64))
        .unwrap_or_else(|| "       -".into());
    println!(
        "{name:10} {:>10} {norm} {:>6.2} {:>8} {:>7.0}%",
        s.cycles,
        s.ipc(),
        s.atomics,
        100.0 * s.contended_fraction(),
    );
}

/// Reads the chaos flags over `base`, the chaos a command runs when none is
/// given: `--chaos S` sets the seed, `--chaos-latency N` the delivery jitter
/// cap, and `--chaos-drop/-dup/-corrupt P` the per-message fault
/// probabilities (each at most 0.05).
fn chaos_over(args: &Args, base: FaultConfig) -> Result<FaultConfig, Box<dyn std::error::Error>> {
    Ok(FaultConfig {
        seed: args.num("chaos", base.seed)?,
        max_extra_latency: args.num_in(
            "chaos-latency",
            base.max_extra_latency,
            0,
            MAX_CHAOS_LATENCY,
            "delivery jitter cap",
        )?,
        drop_ppm: args.prob_ppm("chaos-drop", base.drop_ppm)?,
        dup_ppm: args.prob_ppm("chaos-dup", base.dup_ppm)?,
        corrupt_ppm: args.prob_ppm("chaos-corrupt", base.corrupt_ppm)?,
    })
}

fn exp_from(args: &Args) -> Result<ExperimentConfig, Box<dyn std::error::Error>> {
    let mut exp = ExperimentConfig::quick();
    exp.cores = args.num_in("cores", 8, 1, 512, "simulated cores")? as usize;
    exp.instructions = args.num("instr", 6_000)?;
    exp.seed = args.num("seed", 42)?;
    exp.cycle_limit = args.num("cycles", exp.cycle_limit)?;
    exp.paper_caches = exp.cores > 8;
    // Robustness layer: `--check` (or `--check K`) runs the coherence
    // invariant sweep every K cycles plus the deadlock watchdog; `--watchdog N`
    // sets the watchdog window (and enables the watchdog on its own);
    // `--rewind K` keeps an in-memory checkpoint every K cycles and replays
    // from it on a violation.
    let watchdog = args.num_in("watchdog", 5_000_000, 1, u64::MAX, "watchdog window")?;
    if args.switches.contains("check") {
        exp.check.invariant_every = Some(2_048);
        exp.check.watchdog_window = Some(watchdog);
    } else if args.flags.contains_key("check") {
        exp.check.invariant_every =
            Some(args.num_in("check", 2_048, 1, u64::MAX, "sweep interval")?);
        exp.check.watchdog_window = Some(watchdog);
    } else if args.flags.contains_key("watchdog") {
        exp.check.watchdog_window = Some(watchdog);
    }
    if args.flags.contains_key("rewind") {
        exp.check.rewind_every =
            Some(args.num_in("rewind", 65_536, 1, u64::MAX, "checkpoint interval")?);
    }
    // Chaos is off unless `--chaos [S]` (seed 1 by default) or
    // `--chaos-latency` is given, or a fault probability is nonzero.
    let chaos = chaos_over(args, FaultConfig::with_seed(1))?;
    let asked = args.switches.contains("chaos")
        || args.flags.contains_key("chaos")
        || args.flags.contains_key("chaos-latency");
    exp.check.chaos = (asked || chaos.lossy()).then_some(chaos);
    // `--oracle`: journal every architectural write and differentially
    // check the finished run against a sequential golden model.
    if args.switches.contains("oracle") {
        exp.check.oracle = true;
    }
    Ok(exp)
}

/// The flags of `args` besides the workload and chaos ones that decide how
/// a `run` behaves, as ` --flag [value]` text in a fixed order, so a
/// shrunk chaos repro replays the run that failed.
fn run_flags(args: &Args) -> String {
    let mut text = String::new();
    for name in ["policy", "cycles", "check", "watchdog", "rewind", "oracle"] {
        if let Some(v) = args.flags.get(name) {
            text += &format!(" --{name} {v}");
        } else if args.switches.contains(name) {
            text += &format!(" --{name}");
        }
    }
    text
}

fn cmd_run(args: &Args) -> CliResult {
    let bench = bench_by_name(args.positional.first().ok_or("usage: run <benchmark>")?)?;
    let exp = exp_from(args)?;
    let policy = args.str_or("policy", "eager");
    let sys = system_for(policy, &exp)?;
    let every = args.num("checkpoint-every", 0)?;
    let res = if every > 0 {
        // Crash-resilient: a checkpoint every `every` cycles, and with
        // `--resume` continue from an existing one.
        let dir = args.str_or("ckpt-dir", ".");
        std::fs::create_dir_all(dir)?;
        let path = std::path::Path::new(dir).join(format!("norush_{}_{policy}.ckpt", bench.name()));
        let restore = args.switches.contains("resume") && path.exists();
        let mut resumed = false;
        let res = norush::sim::run_benchmark_checkpointed(
            &sys,
            bench,
            &exp,
            every,
            &path,
            restore,
            |at| {
                resumed = true;
                eprintln!("resumed from {} at cycle {at}", path.display());
            },
        );
        match res {
            Err(e) if restore && !resumed => {
                eprintln!("cannot resume from {}: {e}", path.display());
                std::process::exit(1);
            }
            res => res,
        }
    } else {
        run_benchmark(&sys, bench, &exp)
    };
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed:\n{e}");
            // The shrink's probes are fresh, unsliced runs, so a
            // checkpointed run shrinks like any other.
            if args.switches.contains("chaos-shrink") {
                if let Some(initial) = exp.check.chaos {
                    let dir = repro_dir_from(args, ".")?;
                    triage::shrink_and_report(
                        &dir,
                        initial,
                        &|min| {
                            format!(
                                "norush run {} --cores {} --instr {} --seed {} --chaos {} \
                                 --chaos-latency {} --chaos-drop {} --chaos-dup {} \
                                 --chaos-corrupt {}{}",
                                bench.name(),
                                exp.cores,
                                exp.instructions,
                                exp.seed,
                                min.seed,
                                min.max_extra_latency,
                                min.drop_ppm as f64 / 1e6,
                                min.dup_ppm as f64 / 1e6,
                                min.corrupt_ppm as f64 / 1e6,
                                run_flags(args),
                            )
                        },
                        &mut |cand| {
                            let mut probe = exp;
                            probe.check.chaos = Some(*cand);
                            let mut s = sys;
                            s.check = probe.check;
                            run_benchmark(&s, bench, &probe).is_err()
                        },
                    );
                } else {
                    eprintln!("--chaos-shrink: no chaos config to shrink");
                }
            }
            std::process::exit(1);
        }
    };
    println!("{bench} on {} cores, policy {policy}:", exp.cores);
    if let Some(f) = exp.check.chaos {
        println!(
            "  chaos             seed {} {f}{}",
            f.seed,
            if exp.check.oracle { ", oracle on" } else { "" }
        );
    } else if exp.check.oracle {
        println!("  oracle            on");
    }
    println!("  cycles            {}", r.cycles);
    println!("  IPC               {:.2}", r.ipc());
    println!("  atomics           {}", r.total.atomics);
    println!(
        "  contended         {:.0}%",
        100.0 * r.total.contended_fraction()
    );
    println!("  miss latency      {:.0} cycles", r.miss_latency.mean());
    if let Some(acc) = r.accuracy {
        println!("  RoW accuracy      {:.0}%", 100.0 * acc.accuracy());
    }
    if let Some(t) = r.transport {
        println!(
            "  transport         sent {} delivered {} acks {}",
            t.sent, t.delivered, t.acks_sent
        );
        println!(
            "  injected faults   drops {} dups {} corrupts {}",
            t.drops_injected, t.dups_injected, t.corrupts_injected
        );
        println!(
            "  recovered         retries {} nack-rtx {} dup-dropped {} corrupt-dropped {} giveups {}",
            t.retries, t.nack_retransmits, t.dup_dropped, t.corrupt_dropped, t.giveups
        );
    }
    Ok(())
}

/// `norush profile`: one simulation with a wall-clock breakdown by hot-loop
/// component (memory tick, core stepping, invariant sweep) so hot-path work
/// is measured before and after, not guessed. `--json` prints the
/// `norush-profile-v1` report instead of the table.
fn cmd_profile(args: &Args) -> CliResult {
    let bench = bench_by_name(
        args.positional
            .first()
            .ok_or("usage: profile <benchmark>")?,
    )?;
    let exp = exp_from(args)?;
    let policy = args.str_or("policy", "eager");
    let sys = system_for(policy, &exp)?;
    let (r, p) = Machine::new(&sys, bench_streams(bench, &exp))
        .run_profiled(exp.cycle_limit)
        .unwrap_or_else(|e| {
            eprintln!("simulation failed:\n{e}");
            std::process::exit(1);
        });
    if args.switches.contains("json") {
        print!("{}", p.to_json(&bench.to_string(), policy, &exp, r.cycles));
        return Ok(());
    }
    let pct = |s: f64| {
        if p.wall_s > 0.0 {
            100.0 * s / p.wall_s
        } else {
            0.0
        }
    };
    let per_cycle = |n: u64| {
        if p.cycles > 0 {
            n as f64 / p.cycles as f64
        } else {
            0.0
        }
    };
    println!(
        "{bench} on {} cores, policy {policy}, {} instr/core, seed {}:",
        exp.cores, exp.instructions, exp.seed
    );
    println!("  cycles            {}", r.cycles);
    println!("  IPC               {:.2}", r.ipc());
    println!("  wall clock        {:.3} s", p.wall_s);
    println!("  cycles/sec        {:.0}", p.cycles_per_sec());
    println!(
        "  mem tick          {:.3} s ({:.1}%)  [{} events, {:.2}/cycle]",
        p.mem_tick_s,
        pct(p.mem_tick_s),
        p.events,
        per_cycle(p.events)
    );
    println!(
        "  core step         {:.3} s ({:.1}%)  [{} steps, {:.2}/cycle]",
        p.core_step_s,
        pct(p.core_step_s),
        p.core_steps,
        per_cycle(p.core_steps)
    );
    println!(
        "  invariant sweep   {:.3} s ({:.1}%)",
        p.check_s,
        pct(p.check_s)
    );
    println!(
        "  other             {:.3} s ({:.1}%)",
        p.other_s(),
        pct(p.other_s())
    );
    Ok(())
}

/// Parses and range-checks the `norush soak` flags up front, so a bad flag
/// fails before any phase starts. Returns the options and the report path.
fn soak_opts(args: &Args) -> Result<(SoakOptions, PathBuf), Box<dyn std::error::Error>> {
    let d = SoakOptions::default();
    let phases = args.num_in("phases", d.phases as u64, 1, 64, "soak phases")? as usize;
    let cores = args.num_in("cores", d.cores as u64, 1, 512, "simulated cores")? as usize;
    let policies: Vec<String> = match args.flags.get("policies") {
        Some(v) => v.split(',').map(str::to_string).collect(),
        None => d.policies.clone(),
    };
    for p in &policies {
        Variant::by_name(p).map_err(|e| format!("--policies: {e}"))?;
    }
    let kernel = match args.flags.get("kernel").map(String::as_str) {
        None | Some("rotate") => None,
        Some(v) => Some(ServiceKernel::parse(v).ok_or_else(|| {
            format!("--kernel: `{v}` is not one of counter, mpmc-queue, mw-register, rotate")
        })?),
    };
    let svc = LockServiceConfig {
        shards: args.num_in("shards", d.svc.shards, 1, 1 << 16, "lock shards")?,
        keys: args.num_in("keys", d.svc.keys, 1, 1 << 20, "service keys")?,
        zipf_theta: args.f64_in("zipf-theta", d.svc.zipf_theta, 0.0, 4.0, "Zipf skew")?,
        read_fraction: args.f64_in("read-frac", d.svc.read_fraction, 0.0, 1.0, "read fraction")?,
        ops_per_thread: args.num_in("ops", d.svc.ops_per_thread, 1, 1_000_000, "ops per thread")?,
        mean_gap: args.f64_in("mean-gap", d.svc.mean_gap, 1.0, 100_000.0, "open-loop gap")?,
        burst_epoch_ops: args.num_in(
            "burst-epoch",
            d.svc.burst_epoch_ops,
            1,
            1_000_000,
            "ops per epoch",
        )?,
        burst_factor: args.f64_in(
            "burst-factor",
            d.svc.burst_factor,
            1.0,
            1_000.0,
            "burst gap divisor",
        )?,
        kernel: ServiceKernel::Counter,
    };
    svc.validate().map_err(|e| format!("soak workload: {e}"))?;
    let opts = SoakOptions {
        phases,
        cores,
        seed: args.num("seed", d.seed)?,
        policies,
        kernel,
        svc,
        chaos: chaos_over(args, d.chaos)?,
        escalation: args.f64_in(
            "chaos-escalation",
            d.escalation,
            1.0,
            100.0,
            "per-phase multiplier",
        )?,
        phase_cycles: args.num_in(
            "phase-cycles",
            d.phase_cycles,
            1_000,
            1_000_000_000_000,
            "per-phase cycle budget",
        )?,
        wall_secs: args.num_in(
            "wall-secs",
            d.wall_secs,
            1,
            86_400,
            "whole-soak wall budget",
        )?,
        ckpt_every: args.num_in(
            "checkpoint-every",
            d.ckpt_every,
            1_000,
            1_000_000_000,
            "checkpoint interval",
        )?,
        watchdog: args.num_in("watchdog", d.watchdog, 1_000, u64::MAX, "watchdog window")?,
        repro_dir: repro_dir_from(args, "soak_repro")?,
        inject: args.num_in("inject-net-zero-faa", 0, 0, 1_000_000_000, "FAA countdown")?,
    };
    Ok((opts, PathBuf::from(args.str_or("out", "soak_report.json"))))
}

/// `norush soak`: the phased lock-service soak ([`norush::sim::soak`]) with
/// progress on stdout/stderr. Any violation triggers triage (`soak_repro/`
/// bundle plus a shrunk chaos repro) and a non-zero exit; the
/// machine-readable report always lands in `--out` (default
/// `soak_report.json`).
fn cmd_soak(args: &Args) -> CliResult {
    let (opts, out) = soak_opts(args)?;
    println!(
        "soak: {} phases x [{}] on {} cores, seed {}, kernel {}, online checker armed",
        opts.phases,
        opts.policies.join(", "),
        opts.cores,
        opts.seed,
        opts.kernel.map(|k| k.name()).unwrap_or("rotating"),
    );
    let outcomes = soak::soak(&opts, |ev| match ev {
        SoakEvent::Phase(phase) => {
            let kernel = opts.kernel_for(phase).name();
            match opts.chaos_for(phase) {
                Some(f) => println!("phase {phase}: kernel {kernel}, chaos {f}"),
                None => println!("phase {phase}: kernel {kernel}, chaos off"),
            }
        }
        SoakEvent::Cell(o) => match &o.lat {
            Some(h) => println!(
                "  {:8} {:>9} cycles  ipc {:>5.2}  atomics {:>6}  \
                 latency p50/p99/p999 {}/{}/{} cycles",
                o.policy,
                o.cycles,
                o.ipc,
                o.atomics,
                h.percentile(0.50),
                h.percentile(0.99),
                h.percentile(0.999),
            ),
            None if o.status == "wall-budget" => eprintln!(
                "wall budget ({}s) exhausted in phase {}, policy {}, cycle {}",
                opts.wall_secs, o.phase, o.policy, o.cycles
            ),
            None => eprintln!(
                "phase {}, policy {} failed:\n{}",
                o.phase,
                o.policy,
                o.error.as_deref().unwrap_or_default()
            ),
        },
    })?;
    let failed = soak::failed(&outcomes);
    write_atomic(&out, soak::report_json(&opts, &outcomes))?;
    let status = if failed { "fail" } else { "pass" };
    println!("soak {status}: report written to {}", out.display());
    if failed {
        eprintln!("triage bundle in {}", opts.repro_dir.display());
        std::process::exit(1);
    }
    Ok(())
}

/// Builds the fuzz campaign options from the command line.
fn fuzz_opts(args: &Args) -> Result<norush::sim::FuzzOptions, Box<dyn std::error::Error>> {
    let kernel = match args.flags.get("kernel") {
        Some(v) => ServiceKernel::parse(v).ok_or_else(|| {
            format!("--kernel: `{v}` is not a service kernel (counter, mpmc-queue, mw-register)")
        })?,
        None => ServiceKernel::Counter,
    };
    let mut opts = norush::sim::FuzzOptions::smoke(args.str_or("policy", "lazy"));
    opts.kernel = kernel;
    opts.cores = args.num_in("cores", 4, 2, 64, "need concurrency to race")? as usize;
    opts.ops_per_thread = args.num_in("ops", 120, 1, 100_000, "service ops per thread")?;
    opts.seed = args.num("seed", 42)?;
    opts.budget = args.num_in("budget", 256, 1, 1_000_000, "total schedule executions")?;
    opts.jobs = jobs_from(args)?;
    opts.planted_bug = args.switches.contains("inject-early-unblock");
    opts.cycle_limit = args.num_in(
        "cycles",
        2_000_000,
        100_000,
        1_000_000_000,
        "per-run cycle budget; exhausting it is reported as a livelock",
    )?;
    opts.watchdog = args.num_in("watchdog", 500_000, 1_000, 1_000_000_000, "stall window")?;
    Ok(opts)
}

/// `norush fuzz` — coverage-guided protocol-schedule fuzzing with schedule
/// minimization, soak-style triage, and a persistent corpus.
fn cmd_fuzz(args: &Args) -> CliResult {
    use norush::sim::fuzz;
    let opts = fuzz_opts(args)?;
    // Replay mode: execute one schedule from its hex genome and report.
    if let Some(hex) = args.flags.get("replay") {
        let genome = fuzz::ScheduleGenome::from_hex(hex)?;
        println!("replaying schedule: {}", genome.describe());
        let out = fuzz::run_one(&opts, &genome).map_err(Box::<dyn std::error::Error>::from)?;
        println!(
            "coverage: {}/{} transitions",
            out.coverage.covered(),
            norush::common::coverage::SLOT_COUNT
        );
        match out.violation {
            Some(err) => {
                eprintln!("violation reproduced:\n{err}");
                std::process::exit(1);
            }
            None => {
                println!("no violation");
                return Ok(());
            }
        }
    }
    let fingerprint = opts.fingerprint();
    let state_path = PathBuf::from(args.str_or("state", "fuzz_state.bin"));
    let state = if args.switches.contains("resume") {
        let s = fuzz::FuzzState::load(&state_path, fingerprint)?;
        println!(
            "resuming from {}: generation {}, {} runs done, corpus {}",
            state_path.display(),
            s.generation,
            s.runs_done,
            s.corpus.len()
        );
        s
    } else {
        fuzz::FuzzState::new()
    };
    let out_path = PathBuf::from(args.str_or("out", "fuzz_report.json"));
    let repro_dir = repro_dir_from(args, "fuzz_repro")?;
    println!(
        "fuzz: policy {}, kernel {}, {} cores, seed {}, budget {} runs, {} workers{}",
        opts.policy,
        opts.kernel.name(),
        opts.cores,
        opts.seed,
        opts.budget,
        opts.jobs,
        if opts.planted_bug {
            ", planted early-unblock bug ARMED"
        } else {
            ""
        },
    );
    let outcome = fuzz::fuzz(&opts, state, |s| {
        if let Err(e) = s.save(&state_path, fingerprint) {
            eprintln!("cannot save {}: {e}", state_path.display());
        }
        println!(
            "gen {:>3}: {:>5} runs, corpus {:>3}, coverage {}/{}",
            s.generation,
            s.runs_done,
            s.corpus.len(),
            s.global.covered(),
            norush::common::coverage::SLOT_COUNT,
        );
    })
    .map_err(Box::<dyn std::error::Error>::from)?;
    write_atomic(&out_path, fuzz::report_json(&opts, &outcome))?;
    let s = &outcome.state;
    for (name, covered, total) in s.global.domain_summary() {
        println!("  coverage {name:10} {covered:>3}/{total}");
    }
    match &outcome.finding {
        Some(f) => {
            eprintln!(
                "FINDING ({}) in generation {}, candidate {}:\n{}",
                f.kind, f.generation, f.candidate, f.error
            );
            eprintln!("minimized schedule: {}", f.minimized.describe());
            fuzz::write_triage(&opts, f, &repro_dir)?;
            eprintln!("triage bundle in {}", repro_dir.display());
            eprintln!("repro: {}", fuzz::repro_command(&opts, &f.minimized));
            println!("fuzz finding: report written to {}", out_path.display());
            std::process::exit(1);
        }
        None => {
            println!(
                "fuzz clean: {} runs, {} never-exercised transitions, report written to {}",
                s.runs_done,
                s.global.uncovered_names().len(),
                out_path.display()
            );
            Ok(())
        }
    }
}

/// Builds the shared litmus/explore options from the command line.
fn explore_opts(args: &Args) -> Result<norush::sim::ExploreOptions, Box<dyn std::error::Error>> {
    let mut opts = norush::sim::ExploreOptions {
        policy: args.str_or("policy", "eager").to_string(),
        ..Default::default()
    };
    opts.max_decisions = args.num_in(
        "depth",
        opts.max_decisions as u64,
        1,
        64,
        "branchable decision-point horizon",
    )? as usize;
    opts.max_delays = args.num_in(
        "delays",
        opts.max_delays as u64,
        1,
        16,
        "nonzero deviations per enumerated schedule",
    )? as usize;
    opts.max_runs = args.num_in(
        "max-runs",
        opts.max_runs,
        1,
        10_000_000,
        "enumerated schedules per cell",
    )?;
    opts.cycle_limit = args.num_in(
        "cycles",
        opts.cycle_limit,
        10_000,
        1_000_000_000,
        "per-run cycle budget; exhausting it is reported as a livelock",
    )?;
    opts.planted_bug = args.switches.contains("inject-early-unblock");
    // Fail on an unknown policy here, before any cells run.
    opts.system(2).map_err(Box::<dyn std::error::Error>::from)?;
    Ok(opts)
}

/// Splits a comma-separated `--{flag}` selection, rejecting an empty one
/// (`--test ,`, or `--test ""` from an unset shell variable) so it cannot
/// pass conformance by running nothing.
fn selection<'a>(flag: &str, v: &'a str) -> Result<Vec<&'a str>, String> {
    let names: Vec<&str> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!("--{flag}: `{v}` selects nothing"));
    }
    Ok(names)
}

/// Parses `--test T[,U,...]`; absent means the whole suite.
fn litmus_tests_from(args: &Args) -> Result<Vec<LitmusTest>, Box<dyn std::error::Error>> {
    let Some(v) = args.flags.get("test") else {
        return Ok(LitmusTest::all());
    };
    selection("test", v)?
        .into_iter()
        .map(|name| {
            LitmusTest::by_name(name).ok_or_else(|| {
                format!(
                    "--test: `{name}` is not a litmus test ({})",
                    LitmusTest::names().join(", ")
                )
                .into()
            })
        })
        .collect()
}

/// Prints the human-readable summary line for one cell.
fn litmus_cell_line(r: &norush::sim::ExploreReport) {
    println!(
        "{:8} {:8} {:>6} runs {:>3} outcomes {:>2} unwitnessed  {}",
        r.test,
        r.policy,
        r.runs,
        r.outcomes.len(),
        r.unwitnessed.len(),
        match &r.violation {
            Some(v) => format!("VIOLATION ({})", v.kind),
            None if r.truncated => "truncated".to_string(),
            None => "ok".to_string(),
        }
    );
}

/// `norush litmus` — runs the TSO litmus suite in sampling mode under one or
/// more policies, recording outcome frequencies and conformance.
fn cmd_litmus(args: &Args) -> CliResult {
    use norush::sim::explore;
    let base = explore_opts(args)?;
    let policies: Vec<String> = match args.flags.get("policies").or(args.flags.get("policy")) {
        Some(v) => selection("policies", v)?
            .into_iter()
            .map(str::to_string)
            .collect(),
        None => vec!["eager".into(), "lazy".into(), "row".into()],
    };
    for p in &policies {
        Variant::by_name(p)?;
    }
    let tests = litmus_tests_from(args)?;
    let samples = args.num_in("samples", 32, 1, 100_000, "schedules per cell")?;
    let seed = args.num("seed", 42)?;
    let jobs = jobs_from(args)?;
    let out_path = PathBuf::from(args.str_or("out", "litmus_report.json"));
    let repro_dir = repro_dir_from(args, "explore_repro")?;
    let cells: Vec<norush::sim::ExploreOptions> = tests
        .iter()
        .flat_map(|_| policies.iter())
        .map(|p| norush::sim::ExploreOptions {
            policy: p.clone(),
            ..base.clone()
        })
        .collect();
    let test_of = |i: usize| &tests[i / policies.len()];
    println!(
        "litmus: {} tests x {} policies, {} samples/cell, seed {}, {} workers",
        tests.len(),
        policies.len(),
        samples,
        seed,
        jobs
    );
    let results = norush::sim::parallel_map(&cells, jobs, |i, o| {
        explore::run_litmus(test_of(i), o, samples, seed)
    });
    let reports = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for r in &reports {
        litmus_cell_line(r);
    }
    let json = explore::report_json("sample", &[("samples", samples), ("seed", seed)], &reports);
    write_atomic(&out_path, json)?;
    println!("report written to {}", out_path.display());
    exit_on_violation(&reports, |i| (test_of(i), &cells[i]), &repro_dir);
    Ok(())
}

/// Exits 1 on the first cell of `reports` with a violation, after printing
/// it and its minimized schedule, writing its triage bundle into
/// `repro_dir` and printing the repro command; `cell` names cell `i`'s test
/// and options.
fn exit_on_violation<'a>(
    reports: &[norush::sim::ExploreReport],
    cell: impl Fn(usize) -> (&'a LitmusTest, &'a norush::sim::ExploreOptions),
    repro_dir: &std::path::Path,
) {
    use norush::sim::explore;
    let Some((idx, v)) = reports
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.violation.as_ref().map(|v| (i, v)))
    else {
        return;
    };
    let (test, opts) = cell(idx);
    eprintln!(
        "VIOLATION ({}) in {}/{}: {}",
        v.kind, test.name, opts.policy, v.detail
    );
    eprintln!(
        "minimized schedule: {} ({} of {} decisions nonzero)",
        explore::schedule_to_hex(&v.minimized),
        v.minimized.iter().filter(|&&a| a != 0).count(),
        v.minimized.len(),
    );
    explore::write_triage(test, opts, v, repro_dir);
    eprintln!("triage bundle in {}", repro_dir.display());
    eprintln!(
        "repro: {}",
        explore::repro_command(test, opts, &v.minimized)
    );
    std::process::exit(1);
}

/// `norush explore` — bounded-exhaustive schedule exploration of litmus
/// cells: DFS over delivery/commit decision points with partial-order
/// reduction and state-hash dedup.
fn cmd_explore(args: &Args) -> CliResult {
    use norush::sim::explore;
    let opts = norush::sim::ExploreOptions {
        audit: args.switches.contains("audit"),
        ..explore_opts(args)?
    };
    // Replay mode: execute one decision vector and report.
    if let Some(hex) = args.flags.get("replay") {
        let name = args
            .flags
            .get("test")
            .ok_or("--replay needs --test <name> (the schedule is test-relative)")?;
        let test = LitmusTest::by_name(name)
            .ok_or_else(|| format!("--test: `{name}` is not a litmus test"))?;
        let forced = explore::schedule_from_hex(hex)?;
        println!(
            "replaying {} under {}: schedule {}",
            test.name,
            opts.policy,
            explore::schedule_to_hex(&forced)
        );
        let run = explore::run_schedule(&test, &opts, &forced)
            .map_err(Box::<dyn std::error::Error>::from)?;
        if let Some(o) = &run.outcome {
            println!(
                "outcome: ({}) [{:?}]",
                explore::fmt_outcome(o),
                test.classify(o)
            );
        }
        println!("decision points: {}", run.decisions.len());
        let violated = run.error.is_some()
            || run.timed_out
            || run
                .outcome
                .as_ref()
                .is_some_and(|o| test.classify(o) != OutcomeClass::Allowed);
        if violated {
            if let Some(e) = &run.error {
                eprintln!("violation reproduced:\n{e}");
            } else if run.timed_out {
                eprintln!("violation reproduced: livelock (cycle budget exhausted)");
            } else {
                eprintln!("violation reproduced: non-allowed outcome");
            }
            std::process::exit(1);
        }
        println!("no violation");
        return Ok(());
    }
    let tests = litmus_tests_from(args)?;
    let jobs = jobs_from(args)?;
    let require_witness = args.switches.contains("require-witness");
    let out_path = PathBuf::from(args.str_or("out", "explore_report.json"));
    let repro_dir = repro_dir_from(args, "explore_repro")?;
    println!(
        "explore: {} tests under {}, depth {}, delay bound {}, {} workers{}",
        tests.len(),
        opts.policy,
        opts.max_decisions,
        opts.max_delays,
        jobs,
        if opts.planted_bug {
            ", planted early-unblock bug ARMED"
        } else {
            ""
        },
    );
    let results = norush::sim::parallel_map(&tests, jobs, |_, test| explore::explore(test, &opts));
    let reports = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    for r in &reports {
        litmus_cell_line(r);
        for u in &r.unwitnessed {
            eprintln!(
                "  warning: {}/{} never witnessed allowed outcome ({})",
                r.test,
                r.policy,
                explore::fmt_outcome(u)
            );
        }
    }
    let params = [
        ("depth", opts.max_decisions as u64),
        ("delays", opts.max_delays as u64),
    ];
    write_atomic(
        &out_path,
        explore::report_json("explore", &params, &reports),
    )?;
    println!("report written to {}", out_path.display());
    exit_on_violation(&reports, |i| (&tests[i], &opts), &repro_dir);
    if require_witness && reports.iter().any(|r| !r.unwitnessed.is_empty()) {
        eprintln!("--require-witness: some allowed outcomes went unwitnessed (see warnings)");
        std::process::exit(1);
    }
    Ok(())
}

/// Parses `--jobs N` (worker threads for `compare`); absent means all host
/// cores. Mirrors the `--chaos-*` range-validation style.
fn jobs_from(args: &Args) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(match args.flags.get("jobs") {
        Some(v) => norush::sim::parse_workers("--jobs", v)?,
        None => norush::sim::available_workers(),
    })
}

fn cmd_compare(args: &Args) -> CliResult {
    let bench = bench_by_name(
        args.positional
            .first()
            .ok_or("usage: compare <benchmark>")?,
    )?;
    let exp = exp_from(args)?;
    let jobs = jobs_from(args)?;
    println!(
        "{bench} on {} cores ({} instructions/thread):\n",
        exp.cores, exp.instructions
    );
    let variants = Variant::policy_table();
    let sweep = Sweep::grid("compare", &exp, &[bench], &variants);
    let r = sweep.run(&SweepOptions {
        workers: jobs,
        ..SweepOptions::default()
    })?;
    println!(
        "{:10} {:>10} {:>8} {:>6} {:>8} {:>8}",
        "policy", "cycles", "vs eager", "IPC", "atomics", "cont"
    );
    let mut baseline = None;
    for v in &variants {
        let s = r.stat(&format!("{}/{}", bench.name(), v.name));
        summarize(&v.name, s, baseline);
        baseline.get_or_insert(s.cycles);
    }
    Ok(())
}

fn cmd_list(_: &Args) -> CliResult {
    println!(
        "{:15} {:>12} {:>10} {:>9} {:>9}",
        "benchmark", "atomics/10k", "contended", "locality", "hot-lines"
    );
    for b in Benchmark::all() {
        let p = b.profile();
        println!(
            "{:15} {:>12.1} {:>9.0}% {:>8.0}% {:>9}",
            b.name(),
            p.atomics_per_10k,
            100.0 * p.contended_fraction,
            100.0 * p.locality_fraction,
            p.hot_lines
        );
    }
    Ok(())
}

fn cmd_record(args: &Args) -> CliResult {
    let bench = bench_by_name(
        args.positional
            .first()
            .ok_or("usage: record <benchmark> <file>")?,
    )?;
    let path = args
        .positional
        .get(1)
        .ok_or("usage: record <benchmark> <file>")?;
    let instructions = args.num("instr", 10_000)?;
    let tid = args.num("tid", 0)? as usize;
    let exp = ExperimentConfig {
        cores: args.num_in("threads", 32, 1, 512, "generated threads")? as usize,
        instructions,
        seed: args.num("seed", 42)?,
        ..ExperimentConfig::quick()
    };
    let mut streams = bench_streams(bench, &exp);
    let stream = streams
        .get_mut(tid)
        .ok_or("--tid: must be below --threads")?;
    let n = norush::workloads::record_to_file(path, stream.as_mut())?;
    println!(
        "recorded {n} instructions of {bench} (thread {tid}/{}) to {path}",
        exp.cores
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> CliResult {
    let path = args.positional.first().ok_or("usage: replay <file>")?;
    let policy = args.str_or("policy", "eager");
    let exp = ExperimentConfig {
        cores: 1,
        instructions: 0,
        seed: 0,
        cycle_limit: 2_000_000_000,
        paper_caches: true,
        check: norush::common::config::CheckConfig::default(),
    };
    let mut sys = system_for(policy, &exp)?;
    sys.cores = 1;
    let trace = norush::workloads::open_trace(path).map_err(|e| format!("{path}: {e}"))?;
    let stream: Box<dyn InstrStream> = Box::new(trace);
    let r = Machine::new(&sys, vec![stream])
        .run(exp.cycle_limit)
        .map_err(|e| format!("replay of {path} failed:\n{e}"))?;
    println!(
        "replayed {path} under {policy}: {} cycles, IPC {:.2}, {} atomics",
        r.cycles,
        r.ipc(),
        r.total.atomics
    );
    Ok(())
}

fn usage() -> CliResult {
    println!("norush — Rush-or-Wait atomic-scheduling simulator");
    println!();
    println!("commands:");
    println!("  list                               calibrated benchmark models");
    println!("  run <bench> [--policy P] [...]     one simulation with stats");
    println!("  profile <bench> [--policy P] [...] one simulation with a cycles/sec +");
    println!("                                     per-component wall-clock breakdown (--json)");
    println!("  compare <bench> [--jobs N] [...]   eager/lazy/row/row-fwd/far table");
    println!("  soak [--phases N] [...]            phased lock-service soak with the online");
    println!("                                     linearizability checker and failure triage");
    println!("  fuzz [--budget N] [...]            coverage-guided protocol-schedule fuzzing");
    println!("                                     with minimization and failure triage");
    println!("  litmus [--test T,U] [...]          TSO litmus conformance suite (sampling");
    println!("                                     mode) across one or more policies");
    println!("  explore [--test T,U] [...]         bounded-exhaustive schedule exploration");
    println!("                                     of litmus cells (DPOR + state dedup)");
    println!("  record <bench> <file> [...]        capture a trace file");
    println!("  replay <file> [--policy P]         replay a trace file");
    println!();
    println!("Tables and figures (Table I, the Fig. 2 microbenchmark, ...) are ids of");
    println!("the `figure` binary: `figure table1 fig02 [--jobs N]`; `figure` alone lists");
    println!("them.");
    println!();
    println!("`norush <command> --help` lists the flags a command accepts; any other");
    println!("flag is an error. What the less obvious ones do:");
    println!("  --check [K]         invariant sweep every K cycles + deadlock watchdog");
    println!("  --watchdog N        watchdog window in cycles (run default 5000000)");
    println!("  --rewind K          in-memory checkpoint every K cycles; on a violation,");
    println!("                      replay from it and report the first offending cycle");
    println!("  --chaos SEED        seeded message-delivery perturbation");
    println!("  --chaos-latency N   cap on injected delivery jitter (cycles)");
    println!("  --chaos-drop P      drop each message with probability P (<= 0.05)");
    println!("  --chaos-dup P       duplicate each message with probability P");
    println!("  --chaos-corrupt P   corrupt payloads with probability P; lossy faults");
    println!("                      engage the recoverable transport (sequencing, dedup,");
    println!("                      checksums, retransmission)");
    println!("  --chaos-escalation F  soak: per-phase multiplier on the lossy rates");
    println!("  --oracle            differentially check the finished run against a");
    println!("                      sequential golden model (journal replay)");
    println!("  --chaos-shrink      on failure, minimize the chaos config while the");
    println!("                      failure persists; writes chaos_repro.txt");
    println!("  --repro-dir D       where shrunk repros / triage bundles land (run: cwd;");
    println!("                      soak: soak_repro; fuzz: fuzz_repro; litmus/explore:");
    println!("                      explore_repro)");
    println!("  --checkpoint-every K  checkpoint every K cycles (run: into --ckpt-dir D;");
    println!("                      --resume continues from it)");
    println!("  --resume            fuzz: continue a campaign from --state FILE");
    println!("  --replay HEX        fuzz/explore: re-execute one schedule (explore needs");
    println!("                      --test)");
    println!("  --require-witness   explore: also fail when an allowed outcome went");
    println!("                      unwitnessed within the bounds");
    println!("  --inject-early-unblock   fuzz/litmus/explore: arm the planted directory bug");
    println!("  --audit             explore: step sleeping cores anyway and re-check every");
    println!("                      shortcut of the simulation loop; the report is unchanged");
    println!("  --inject-net-zero-faa N  soak: lose the Nth FAA and double-apply the next");
    println!("policies: eager lazy row row-fwd far");
    println!("litmus tests: {}", LitmusTest::names().join(" "));
    println!();
    println!("exit codes: 0 = clean; 1 = conformance violation, fuzz finding, soak/run");
    println!("            failure, or a configuration/usage error (message on stderr)");
    Ok(())
}

/// The flags [`exp_from`] reads (`run`, `profile`, `compare`).
const EXP_FLAGS: &str = "--cores N --instr N --seed S --cycles LIMIT --check [K] --watchdog N \
                         --rewind K --chaos [SEED] --chaos-latency N --chaos-drop P \
                         --chaos-dup P --chaos-corrupt P --oracle";

/// One subcommand. Its `--help` text and the flag check before dispatch
/// both read `flags`, so the two cannot drift apart.
struct Command {
    name: &'static str,
    /// Positional arguments, e.g. ` <benchmark>`.
    args: &'static str,
    /// Accepted flags, in groups: each `--name` followed by the value it
    /// takes (`[K]` when the value is optional), or by nothing for a switch.
    flags: &'static [&'static str],
    /// The `--help` description.
    about: &'static str,
    run: fn(&Args) -> CliResult,
}

impl Command {
    /// Every accepted flag as `(name, value)`, `value` empty for a switch.
    fn flags(&self) -> impl Iterator<Item = (&'static str, &'static str)> {
        self.flags.iter().flat_map(|group| {
            let mut words = group.split_whitespace().peekable();
            std::iter::from_fn(move || {
                let name = words
                    .next()?
                    .strip_prefix("--")
                    .expect("flag lists name --flags");
                Some((name, words.next_if(|w| !w.starts_with("--")).unwrap_or("")))
            })
        })
    }

    /// `norush <cmd> --help`: the synopsis built from the flag list,
    /// wrapped, then the description.
    fn help(&self) -> String {
        let mut lines = vec![format!("norush {}{}", self.name, self.args)];
        for (name, value) in self.flags() {
            let sep = if value.is_empty() { "" } else { " " };
            let item = format!("[--{name}{sep}{value}]");
            let line = lines.last_mut().expect("synopsis line");
            if line.len() + 1 + item.len() > 80 {
                lines.push(format!("{:10} {item}", ""));
            } else {
                line.push(' ');
                line.push_str(&item);
            }
        }
        lines.extend(self.about.lines().map(|l| format!("  {l}")));
        lines.join("\n")
    }

    /// Rejects a flag the command does not list, a switch given a value,
    /// and a flag missing its required value.
    fn check_flags(&self, args: &Args) -> Result<(), String> {
        let given = args.flags.keys().map(|k| (k, true));
        let mut errors: Vec<String> = given
            .chain(args.switches.iter().map(|k| (k, false)))
            .filter_map(|(name, has_value)| {
                match self.flags().find(|(f, _)| f == name).map(|(_, v)| v) {
                    None => Some(format!("unknown flag --{name}")),
                    Some("") if has_value => Some(format!("--{name} takes no value")),
                    Some(v) if !has_value && !v.is_empty() && !v.starts_with('[') => {
                        Some(format!("--{name} needs a value ({v})"))
                    }
                    _ => None,
                }
            })
            .collect();
        errors.sort();
        if errors.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{}: {} (see `norush {} --help`)",
            self.name,
            errors.join("; "),
            self.name
        ))
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        args: "",
        flags: &[],
        about: "Print the calibrated benchmark models (no flags).",
        run: cmd_list,
    },
    Command {
        name: "run",
        args: " <benchmark>",
        flags: &[
            "--policy P",
            EXP_FLAGS,
            "--chaos-shrink --repro-dir D --checkpoint-every K --ckpt-dir D --resume",
        ],
        about: "One simulation with stats; exits 1 on an invariant/oracle violation.",
        run: cmd_run,
    },
    Command {
        name: "profile",
        args: " <benchmark>",
        flags: &["--policy P --json", EXP_FLAGS],
        about: "One simulation timed by hot-loop component: cycles/sec plus the\n\
                memory-tick / core-step / invariant-sweep wall-clock split\n\
                (--json: the norush-profile-v1 report on stdout).",
        run: cmd_profile,
    },
    Command {
        name: "compare",
        args: " <benchmark>",
        flags: &["--jobs N", EXP_FLAGS],
        about: "The eager/lazy/row/row-fwd/far table for one benchmark.",
        run: cmd_compare,
    },
    Command {
        name: "soak",
        args: "",
        flags: &[
            "--phases N --policies P,Q --kernel K|rotate --cores N --seed S --ops N \
                  --shards N --keys N --zipf-theta T --read-frac F --mean-gap G \
                  --burst-epoch N --burst-factor B --chaos SEED --chaos-latency N \
                  --chaos-drop P --chaos-dup P --chaos-corrupt P --chaos-escalation F \
                  --phase-cycles N --wall-secs S --checkpoint-every K --watchdog N \
                  --out FILE --repro-dir D --inject-net-zero-faa N",
        ],
        about: "Phased lock-service soak with the online linearizability checker;\n\
                exits 1 on a violation (triage bundle in --repro-dir, default soak_repro).",
        run: cmd_soak,
    },
    Command {
        name: "fuzz",
        args: "",
        flags: &[
            "--policy P --kernel counter|mpmc-queue|mw-register --cores N --ops N \
                  --seed S --budget N --jobs N --cycles LIMIT --watchdog N --state FILE \
                  --out FILE --repro-dir D --inject-early-unblock --resume --replay HEX",
        ],
        about: "Coverage-guided protocol-schedule fuzzing; exits 1 on a finding\n\
                (minimized repro + triage bundle in --repro-dir, default fuzz_repro).",
        run: cmd_fuzz,
    },
    Command {
        name: "litmus",
        args: "",
        flags: &[
            "--test T[,U] --policies P,Q --policy P --samples N --seed S --jobs N \
                  --cycles LIMIT --out FILE --repro-dir D --inject-early-unblock",
        ],
        about: "TSO litmus conformance in sampling mode: each (test x policy) cell runs\n\
                the default schedule plus seeded pseudo-random delay vectors, recording\n\
                outcome frequencies. Default: whole suite x eager,lazy,row; --policy P\n\
                is short for --policies P. Writes a norush-litmus-v1 report (default\n\
                litmus_report.json); exits 1 on any forbidden/unlisted outcome or\n\
                structural violation.",
        run: cmd_litmus,
    },
    Command {
        name: "explore",
        args: "",
        flags: &[
            "--test T[,U] --policy P --depth N --delays N --max-runs N --cycles LIMIT \
                  --jobs N --out FILE --repro-dir D --require-witness --inject-early-unblock \
                  --replay HEX --audit",
        ],
        about: "Bounded-exhaustive exploration: DFS over message-delivery and\n\
                atomic-commit decision points (first --depth points, at most --delays\n\
                deviations per schedule) with partial-order reduction and frontier\n\
                state dedup. Asserts declared-forbidden outcomes unreachable; with\n\
                --require-witness also that every allowed outcome was observed.\n\
                Violations are minimized and written to --repro-dir with a --replay\n\
                repro command; exits 1 on a violation. --audit checks the simulation\n\
                loop's shortcuts in every schedule: slower, and the same report.",
        run: cmd_explore,
    },
    Command {
        name: "record",
        args: " <benchmark> <file>",
        flags: &["--instr N --tid T --threads N --seed S"],
        about: "Capture a trace file for later replay.",
        run: cmd_record,
    },
    Command {
        name: "replay",
        args: " <file>",
        flags: &["--policy P"],
        about: "Replay a recorded trace file.",
        run: cmd_replay,
    },
];

fn main() -> CliResult {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return usage();
    }
    let name = raw.remove(0);
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        if matches!(name.as_str(), "help" | "--help" | "-h") {
            return usage();
        }
        eprintln!("unknown command `{name}`\n");
        usage()?;
        std::process::exit(1);
    };
    let args = parse_args(raw);
    if args.switches.contains("help") || args.flags.contains_key("help") {
        println!("{}", cmd.help());
        return Ok(());
    }
    cmd.check_flags(&args)?;
    (cmd.run)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_names_every_flag_a_command_accepts() {
        for cmd in COMMANDS {
            let help = cmd.help();
            for (name, _) in cmd.flags() {
                let flag = format!("--{name}");
                assert!(
                    help.split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                        .any(|w| w == flag),
                    "`norush {} --help` omits {flag}:\n{help}",
                    cmd.name
                );
            }
        }
    }
}
