//! Pins what a run's two probe channels observe — the transition coverage
//! the fuzzer is guided by and the decision points the explorer forces —
//! together with the simulated state they must never perturb.
//!
//! Every value below is a fixed number: a change to where coverage is
//! counted or where decisions are asked shifts the fuzzer's power schedule
//! or the explorer's tree, and with them every report, so it must show up
//! here first.
//!
//! The checkpoint trails at the end hash every image of three whole runs.
//! Any change to a persisted layout changes a trail, so they are the check
//! for every codec edit.
//!
//! The core-step pins count how often the simulation loop steps a core.
//! Every stall `Core::sleep_until` proves inert removes steps without
//! moving a cycle, so a change that widens or narrows sleep shows up there.

use norush::common::choice::{ChoiceKind, DecisionRecord, Schedule};
use norush::common::config::{CheckConfig, DelayBurst, FaultConfig, PerturbConfig};
use norush::common::coverage::{transport_slot, CoverageMap, TransportEvent};
use norush::common::persist::fnv1a;
use norush::cpu::instr::{InstrStream, VecStream};
use norush::sim::fuzz::{self, FuzzOptions, ScheduleGenome};
use norush::sim::{
    bench_streams, explore, run_schedule, ExperimentConfig, ExploreOptions, Machine, Variant,
};
use norush::workloads::litmus::LitmusTest;
use norush::workloads::Benchmark;

/// One litmus cell's pins: the default schedule's decisions (total and
/// commit-kind), coverage and frontier hash, then the exploration's runs,
/// states, dedup hits and most decision points of any run.
struct Pin {
    test: LitmusTest,
    policy: &'static str,
    decisions: usize,
    commits: usize,
    covered: usize,
    coverage_fingerprint: u64,
    frontier_hash: u64,
    explored: (u64, u64, u64, usize),
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            test: LitmusTest::sb(),
            policy: "eager",
            decisions: 14,
            commits: 0,
            covered: 10,
            coverage_fingerprint: 0x0c50_660b_c2a7_c5f0,
            frontier_hash: 0x3e4f_6b14_8830_d619,
            explored: (671, 557, 114, 14),
        },
        Pin {
            test: LitmusTest::sb_rmw(),
            policy: "row",
            decisions: 16,
            commits: 2,
            covered: 11,
            coverage_fingerprint: 0xb792_e609_4ea8_7070,
            frontier_hash: 0xe687_231c_5aa2_b560,
            explored: (671, 557, 114, 24),
        },
        Pin {
            test: LitmusTest::mp_rmw(),
            policy: "lazy",
            decisions: 15,
            commits: 1,
            covered: 11,
            coverage_fingerprint: 0xefdd_c4de_5abb_fbab,
            frontier_hash: 0x0f22_9ee8_64a4_60cc,
            explored: (615, 527, 88, 19),
        },
    ]
}

fn opts(policy: &str) -> ExploreOptions {
    ExploreOptions {
        policy: policy.into(),
        ..ExploreOptions::default()
    }
}

#[test]
fn default_schedules_pin_decisions_coverage_and_frontier() {
    for p in pins() {
        let cell = format!("{} under {}", p.test.name, p.policy);
        let run = run_schedule(&p.test, &opts(p.policy), &[]).expect("valid cell");
        let commits = run
            .decisions
            .iter()
            .filter(|d| d.kind == ChoiceKind::Commit)
            .count();
        assert_eq!(run.decisions.len(), p.decisions, "{cell}: decisions");
        assert_eq!(commits, p.commits, "{cell}: commit decisions");
        assert_eq!(run.coverage.covered(), p.covered, "{cell}: covered");
        assert_eq!(
            run.coverage.fingerprint(),
            p.coverage_fingerprint,
            "{cell}: coverage fingerprint"
        );
        assert_eq!(run.frontier_hash, Some(p.frontier_hash), "{cell}: frontier");
    }
}

#[test]
fn explorations_pin_runs_states_and_dedup() {
    for p in pins() {
        let r = explore(&p.test, &opts(p.policy)).expect("valid cell");
        assert_eq!(
            (r.runs, r.states, r.dedup_hits, r.max_decision_points),
            p.explored,
            "{} under {}",
            p.test.name,
            p.policy
        );
        assert!(r.violation.is_none() && !r.truncated);
    }
}

#[test]
fn fuzz_run_pins_coverage() {
    let run = fuzz::run_one(&FuzzOptions::smoke("lazy"), &ScheduleGenome::neutral())
        .expect("valid config");
    assert!(run.violation.is_none());
    let total: u64 = (0..norush::common::coverage::SLOT_COUNT)
        .map(|s| run.coverage.hits(s))
        .sum();
    assert_eq!(run.coverage.covered(), 21);
    assert_eq!(total, 8116);
    assert_eq!(run.coverage.fingerprint(), 0xba72_c7b4_26c9_cad8);
}

/// Lossy chaos: jitter 16, drops and duplicates at 2000 ppm, corruption
/// at 1000 ppm.
fn lossy() -> FaultConfig {
    FaultConfig {
        seed: 1,
        max_extra_latency: 16,
        drop_ppm: 2_000,
        dup_ppm: 2_000,
        corrupt_ppm: 1_000,
    }
}

#[test]
fn lossy_checkpoint_image_is_pinned() {
    let genome = ScheduleGenome {
        fault: lossy(),
        ..ScheduleGenome::neutral()
    };
    let mut m = FuzzOptions::smoke("row")
        .machine(&genome)
        .expect("valid config");
    assert!(m.run_for(20_000).expect("clean run").is_none());
    let image = m.checkpoint().expect("checkpointable");
    assert_eq!(fnv1a(&image), 0x18a6_a512_aaed_e1e1);
}

/// The forced decision vector of the isolation case: it holds the first
/// atomic's commit (decision 8 of the default schedule) and the decision
/// after it.
const FORCED: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 0, 2, 1];

/// `sb+rmw` under RoW, executing the explorer schedule [`FORCED`].
fn scheduled_machine() -> Machine {
    let test = LitmusTest::sb_rmw();
    let sys = opts("row").system(test.cores()).expect("valid cell");
    let streams: Vec<Box<dyn InstrStream>> = test
        .programs
        .iter()
        .map(|p| Box::new(VecStream::new(p.clone())) as _)
        .collect();
    let mut m = Machine::new(&sys, streams);
    m.memory_mut().set_schedule(Schedule::new(FORCED.to_vec()));
    m
}

/// The fuzzer's smoke machine, with no schedule.
fn plain_machine() -> Machine {
    FuzzOptions::smoke("lazy")
        .machine(&ScheduleGenome::neutral())
        .expect("valid config")
}

/// What one machine's run left behind: cycles, decisions taken, coverage
/// counted, and the hash of its final checkpoint image (memory words,
/// core state and statistics — the outcome).
#[derive(Debug, PartialEq)]
struct Trace {
    cycles: u64,
    decisions: Vec<DecisionRecord>,
    coverage: CoverageMap,
    image: u64,
}

/// Steps `machines` round-robin, one cycle each, on this thread until all
/// of them drain.
fn step_alternately(mut machines: Vec<Machine>) -> Vec<Trace> {
    let mut cycles = vec![None; machines.len()];
    while cycles.iter().any(Option::is_none) {
        for (m, c) in machines.iter_mut().zip(&mut cycles) {
            if c.is_none() {
                *c = m.run_for(1).expect("clean run").map(|r| r.cycles);
            }
        }
    }
    machines
        .iter()
        .zip(cycles)
        .map(|(m, c)| Trace {
            cycles: c.expect("drained"),
            decisions: m
                .memory()
                .schedule()
                .map_or_else(Vec::new, |s| s.decisions().to_vec()),
            coverage: m.coverage(),
            image: fnv1a(&m.checkpoint().expect("checkpointable")),
        })
        .collect()
}

#[test]
fn interleaved_machines_keep_their_own_schedule_and_coverage() {
    let scheduled = step_alternately(vec![scheduled_machine()]).remove(0);
    let plain = step_alternately(vec![plain_machine()]).remove(0);
    let both = step_alternately(vec![scheduled_machine(), plain_machine()]);
    assert_eq!(both[0], scheduled, "scheduled machine beside a plain one");
    assert_eq!(both[1], plain, "plain machine beside a scheduled one");

    // The solo runs are the ones the explorer and the fuzzer see.
    let run = run_schedule(&LitmusTest::sb_rmw(), &opts("row"), FORCED).expect("valid cell");
    assert_eq!(scheduled.decisions, run.decisions);
    assert_eq!(scheduled.coverage, run.coverage);
    assert!(scheduled
        .decisions
        .iter()
        .any(|d| d.kind == ChoiceKind::Commit && d.chosen > 0));
    let fuzzed = fuzz::run_one(&FuzzOptions::smoke("lazy"), &ScheduleGenome::neutral())
        .expect("valid config");
    assert!(plain.decisions.is_empty());
    assert_eq!(plain.coverage, fuzzed.coverage);
}

/// The lossy fuzz machine with one delay burst that opens after cycle
/// 10,000.
fn bursty_machine() -> Machine {
    let mut perturb = PerturbConfig::default();
    perturb.push(DelayBurst {
        start: 12_000,
        len: 4_000,
        extra: 64,
        salt: 7,
    });
    let genome = ScheduleGenome {
        fault: lossy(),
        perturb,
    };
    FuzzOptions::smoke("row")
        .machine(&genome)
        .expect("valid config")
}

#[test]
fn restore_keeps_coverage_and_the_burst_table() {
    let burst = transport_slot(TransportEvent::BurstDelay);
    let mut reference = bursty_machine();
    reference.run_for(30_000).expect("clean run");
    assert!(reference.coverage().is_hit(burst), "the burst must apply");

    let mut m = bursty_machine();
    m.run_for(10_000).expect("clean run");
    let before = m.coverage();
    assert!(!before.is_hit(burst));
    m.restore(&m.checkpoint().expect("checkpointable"))
        .expect("restores");
    assert_eq!(m.coverage(), before, "a restore leaves coverage as it was");
    m.run_for(20_000).expect("clean run");
    // The decoded transport got its burst table back, so the restored run
    // is the uninterrupted one, coverage included.
    assert_eq!(
        fnv1a(&m.checkpoint().expect("checkpointable")),
        fnv1a(&reference.checkpoint().expect("checkpointable"))
    );
    assert_eq!(m.coverage(), reference.coverage());
}

/// What a checkpointed run leaves behind: its cycles, the number and total
/// size of its images, and the trail — FNV-1a over the concatenated
/// little-endian FNV-1a of every image, in order.
#[derive(Debug, PartialEq)]
struct Trail {
    cycles: u64,
    images: usize,
    bytes: usize,
    trail: u64,
}

/// `pc` on 4 cores, 3,000 instructions per core, seed 42, under `policy`
/// with `check` applied to the quick checks. The run advances in 1,000-cycle
/// slices until it drains and checkpoints after every slice that did not.
fn trail(policy: &str, check: impl FnOnce(&mut CheckConfig)) -> Trail {
    let mut exp = ExperimentConfig {
        cores: 4,
        instructions: 3_000,
        ..ExperimentConfig::quick()
    };
    check(&mut exp.check);
    let sys = Variant::by_name(policy)
        .expect("known policy")
        .apply(exp.system());
    let mut m = Machine::new(&sys, bench_streams(Benchmark::Pc, &exp));
    let mut hashes = Vec::new();
    let mut bytes = 0;
    let cycles = loop {
        if let Some(r) = m.run_for(1_000).expect("clean run") {
            break r.cycles;
        }
        let image = m.checkpoint().expect("checkpointable");
        bytes += image.len();
        hashes.extend_from_slice(&fnv1a(&image).to_le_bytes());
    };
    Trail {
        cycles,
        images: hashes.len() / 8,
        bytes,
        trail: fnv1a(&hashes),
    }
}

/// `pc` on 16 cores with the paper's caches, 2,000 instructions per core
/// (`norush profile pc --cores 16 --instr 2000 --policy P`), under every
/// policy: the four counts CI's perf-smoke cells pin — cycles, the core
/// steps the loop took, the memory events delivered to cores and the cycles
/// in which no core stepped and no event arrived. Core steps and idle
/// cycles move when what may sleep changes, even if cycles do not.
#[test]
fn core_steps_are_pinned() {
    let exp = ExperimentConfig {
        cores: 16,
        instructions: 2_000,
        paper_caches: true,
        ..ExperimentConfig::quick()
    };
    for (policy, counts) in [
        ("eager", [109_334, 91_512, 9_786, 28_553]),
        ("lazy", [55_625, 110_522, 10_193, 3_090]),
        ("row", [81_858, 100_054, 10_344, 16_311]),
        ("row-fwd", [81_858, 100_054, 10_344, 16_311]),
        ("far", [23_547, 107_551, 9_467, 968]),
    ] {
        let sys = Variant::by_name(policy)
            .expect("known policy")
            .apply(exp.system());
        let (r, p) = Machine::new(&sys, bench_streams(Benchmark::Pc, &exp))
            .run_profiled(exp.cycle_limit)
            .expect("clean run");
        let got = [r.cycles, p.core_steps, p.events, p.idle_cycles];
        assert_eq!(got, counts, "{policy}: cycles, steps, events, idle");
    }
}

/// `far` with the end-state oracle: every image carries the retained
/// journal.
#[test]
fn trail_far_with_end_state_journal_is_pinned() {
    assert_eq!(
        trail("far", |c| c.oracle = true),
        Trail {
            cycles: 26_186,
            images: 26,
            bytes: 2_788_323,
            trail: 0xd825_30b9_bb84_94bd,
        }
    );
}

/// RoW over a lossy transport with the online checker: every image carries
/// in-flight frames, retransmit timers and the checker's golden store.
#[test]
fn trail_row_lossy_online_is_pinned() {
    let t = trail("row", |c| {
        c.oracle_online = true;
        c.invariant_every = Some(2048);
        c.chaos = Some(FaultConfig {
            seed: 3,
            max_extra_latency: 40,
            drop_ppm: 2_000,
            dup_ppm: 2_000,
            corrupt_ppm: 1_000,
        });
    });
    assert_eq!(
        t,
        Trail {
            cycles: 30_392,
            images: 30,
            bytes: 3_517_254,
            trail: 0xd287_3263_e4d6_b535,
        }
    );
}

/// RoW with store-to-atomic forwarding under the quick checks.
#[test]
fn trail_row_fwd_is_pinned() {
    assert_eq!(
        trail("row-fwd", |_| {}),
        Trail {
            cycles: 24_749,
            images: 24,
            bytes: 2_604_546,
            trail: 0x491d_9cbd_8d0a_137a,
        }
    );
}
