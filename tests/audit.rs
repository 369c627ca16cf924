//! Audit mode (`Machine::set_audit`): the simulation loop's shortcuts —
//! sleeping cores, the pending-cache set, parked store-buffer writes, the
//! holder index and the incremental sweep — checked against doing all the
//! work, on small cells under every policy, the explorer and lossy chaos.
//! An audited run must also match the plain run exactly.

use norush::common::config::FaultConfig;
use norush::common::ids::{Addr, CoreId, LineAddr, Pc};
use norush::common::persist::fnv1a;
use norush::common::SystemConfig;
use norush::cpu::instr::{Instr, InstrStream, Op, VecStream};
use norush::cpu::ParkedFault;
use norush::mem::{DirState, PrivState, ProtocolError};
use norush::sim::{
    bench_streams, explore, ExperimentConfig, ExploreOptions, Machine, Shortcut, SimError, Variant,
};
use norush::workloads::litmus::LitmusTest;
use norush::workloads::Benchmark;

/// `pc` on `cores` cores, 400 instructions each, under `variant`, with
/// `check` applied to the quick checks.
fn pc_machine(
    variant: &Variant,
    cores: usize,
    check: impl FnOnce(&mut ExperimentConfig),
) -> Machine {
    let mut exp = ExperimentConfig {
        cores,
        instructions: 400,
        ..ExperimentConfig::quick()
    };
    check(&mut exp);
    Machine::new(
        &variant.apply(exp.system()),
        bench_streams(Benchmark::Pc, &exp),
    )
}

/// Runs `m` to completion with audit `on`: its cycles and final image.
fn finish(mut m: Machine, on: bool) -> (u64, u64) {
    m.set_audit(on);
    let r = m.run(5_000_000).unwrap_or_else(|e| panic!("{e}"));
    (r.cycles, fnv1a(&m.checkpoint().expect("checkpointable")))
}

#[test]
fn pc_runs_clean_and_unchanged_under_audit_for_every_policy() {
    for (variant, cores) in Variant::policy_table().iter().zip([2, 3, 4, 4, 2]) {
        let plain = finish(pc_machine(variant, cores, |_| {}), false);
        let audited = finish(pc_machine(variant, cores, |_| {}), true);
        assert_eq!(audited, plain, "{} on {cores} cores", variant.name);
    }
}

#[test]
fn lossy_chaos_cell_runs_clean_under_audit() {
    let row = Variant::by_name("row").expect("known policy");
    let lossy = |exp: &mut ExperimentConfig| {
        exp.check.chaos = Some(FaultConfig {
            seed: 5,
            max_extra_latency: 24,
            drop_ppm: 2_000,
            dup_ppm: 2_000,
            corrupt_ppm: 1_000,
        });
        exp.check.oracle_online = true;
    };
    let plain = finish(pc_machine(&row, 3, lossy), false);
    let audited = finish(pc_machine(&row, 3, lossy), true);
    assert_eq!(audited, plain);
}

/// Two cores each load 96 distinct lines with no dependences: more misses
/// than the 32 MSHRs, so requests queue in the private caches and only the
/// pending set gets them promoted.
#[test]
fn mshr_overflow_runs_clean_under_audit() {
    let loads = |base: u64| -> Box<dyn InstrStream> {
        let prog = (0..96)
            .map(|i| {
                let addr = Addr::new(base + i * 64);
                Instr::simple(Pc::new(0x80), Op::Load { addr })
            })
            .collect();
        Box::new(VecStream::new(prog))
    };
    let run = |audit| {
        let streams = vec![loads(0x100_0000), loads(0x200_0000)];
        let mut m = Machine::new(&SystemConfig::small(2), streams);
        m.set_audit(audit);
        let r = m.run(1_000_000).unwrap_or_else(|e| panic!("{e}"));
        (r.cycles, fnv1a(&m.checkpoint().expect("checkpointable")))
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn litmus_suite_explores_clean_under_audit() {
    // One deviation per schedule: every decision point of the default
    // horizon, the atomics' commit decisions included, takes each delay.
    let opts = |audit| ExploreOptions {
        policy: "row".into(),
        max_delays: 1,
        audit,
        ..ExploreOptions::default()
    };
    for test in LitmusTest::all() {
        let plain = explore(&test, &opts(false)).expect("valid cell");
        let audited = explore(&test, &opts(true)).expect("valid cell");
        assert!(
            audited.violation.is_none(),
            "{}: {:?}",
            test.name,
            audited.violation.map(|v| v.detail)
        );
        assert_eq!(
            (audited.runs, audited.states, audited.outcomes),
            (plain.runs, plain.states, plain.outcomes),
            "{}",
            test.name
        );
    }
}

/// The audit's teeth: a core that sleeps past its real wake changes state
/// when the audit steps it, and the failure names that core and cycle.
#[test]
fn planted_oversleep_is_caught_naming_core_and_cycle() {
    let mut m = pc_machine(&Variant::eager(), 2, |_| {});
    m.set_audit(true);
    m.core_mut(1).inject_oversleep_for_test(40);
    let err = m.run(5_000_000).expect_err("the oversleep must be caught");
    let SimError::Audit(failure) = &err else {
        panic!("expected an audit failure, got {err}");
    };
    let Shortcut::Sleep { core, sleep } = failure.shortcut else {
        panic!("expected a sleep failure, got {err}");
    };
    assert_eq!(core, 1);
    // The core changed before the wake it claimed.
    assert!(failure.cycle < sleep.until, "{err}");
    let text = err.to_string();
    assert!(text.contains("core 1"), "{text}");
    assert!(
        text.contains(&format!("cycle {}", failure.cycle.raw())),
        "{text}"
    );
}

/// A store-buffer write parked without its re-check would wait with
/// nothing on the wheel to retire it; the audit catches that in the cycle
/// it parks and names the core.
#[test]
fn dropped_recheck_of_a_parked_write_is_caught_naming_the_core() {
    let mut m = pc_machine(&Variant::eager(), 2, |_| {});
    m.set_audit(true);
    m.core_mut(1).drop_recheck_for_test();
    let err = m
        .run(5_000_000)
        .expect_err("the dropped re-check must be caught");
    let SimError::Audit(failure) = &err else {
        panic!("expected an audit failure, got {err}");
    };
    let fault = ParkedFault::NoRecheck;
    assert_eq!(failure.shortcut, Shortcut::ParkedWrites { core: 1, fault });
    let text = err.to_string();
    let cycle = format!("cycle {}", failure.cycle.raw());
    for part in ["core 1", "parked", &cycle] {
        assert!(text.contains(part), "{text}");
    }
}

/// The lowest line `core` holds in one of `states`.
fn held_line(m: &Machine, core: u16, states: &[PrivState]) -> LineAddr {
    m.memory()
        .private_lines(CoreId::new(core))
        .into_iter()
        .filter(|(_, s)| states.contains(s))
        .map(|(line, _)| line)
        .min()
        .expect("the core holds such a line")
}

/// A holder the index forgets is caught in the next audited cycle, and the
/// failure names the core, the line and the cycle.
#[test]
fn dropped_holder_bit_is_caught_naming_core_line_and_cycle() {
    let mut m = pc_machine(&Variant::eager(), 2, |_| {});
    m.set_audit(true);
    assert!(m.run_for(3_000).expect("runs clean").is_none());
    let line = held_line(&m, 1, &[PrivState::S, PrivState::E, PrivState::M]);
    m.memory_mut().drop_holder_for_test(CoreId::new(1), line);
    let at = m.now();
    let err = m
        .run(5_000_000)
        .expect_err("the dropped bit must be caught");
    let SimError::Audit(failure) = &err else {
        panic!("expected an audit failure, got {err}");
    };
    assert_eq!(failure.shortcut, Shortcut::HolderIndex { core: 1, line });
    assert_eq!(failure.cycle, at);
    let text = err.to_string();
    for part in ["core 1", &line.to_string(), &format!("cycle {}", at.raw())] {
        assert!(text.contains(part), "{text}");
    }
}

/// A violation on a line whose dirty mark was lost hides from the
/// incremental sweep; the audit's full sweep of the same state finds it at
/// that sweep's cycle.
#[test]
fn dropped_dirty_mark_is_caught_at_the_next_sweep() {
    let mut m = pc_machine(&Variant::eager(), 2, |_| {});
    m.set_audit(true);
    // `ExperimentConfig::quick()` sweeps every 4,096 cycles.
    assert!(m.run_for(4_000).expect("runs clean").is_none());
    let line = held_line(&m, 0, &[PrivState::E, PrivState::M]);
    m.memory_mut()
        .corrupt_dir_state_for_test(line, DirState::Uncached);
    m.memory_mut().drop_dirty_mark_for_test(line);
    let err = m
        .run(5_000_000)
        .expect_err("the hidden violation must be caught");
    let SimError::Audit(failure) = &err else {
        panic!("expected an audit failure, got {err}");
    };
    assert_eq!(failure.cycle.raw(), 4_096, "{err}");
    let Shortcut::IncrementalSweep {
        missed: true,
        error: ProtocolError::DirectoryMismatch { line: bad, .. },
    } = failure.shortcut
    else {
        panic!("expected the incremental sweep to miss a mismatch, got {err}");
    };
    assert_eq!(bad, line, "{err}");
}

/// Two hidden violations: with the lower line's dirty mark lost, the
/// incremental sweep names the higher line while a full sweep names the
/// lower one. Both fail, but the audit requires the same violation from
/// both, so it fails at that sweep's cycle and names both.
#[test]
fn sweeps_naming_different_violations_are_caught_naming_both() {
    let mut m = pc_machine(&Variant::eager(), 2, |_| {});
    m.set_audit(true);
    assert!(m.run_for(4_000).expect("runs clean").is_none());
    let low = held_line(&m, 0, &[PrivState::E, PrivState::M]);
    let high = m
        .memory()
        .private_lines(CoreId::new(0))
        .into_iter()
        .filter(|&(line, s)| line > low && matches!(s, PrivState::E | PrivState::M))
        .map(|(line, _)| line)
        .min()
        .expect("core 0 holds a second line in E or M");
    for line in [low, high] {
        m.memory_mut()
            .corrupt_dir_state_for_test(line, DirState::Uncached);
    }
    m.memory_mut().drop_dirty_mark_for_test(low);
    let err = m
        .run(5_000_000)
        .expect_err("the disagreement must be caught");
    let SimError::Audit(failure) = &err else {
        panic!("expected an audit failure, got {err}");
    };
    assert_eq!(failure.cycle.raw(), 4_096, "{err}");
    let Shortcut::SweepErrors { incremental, full } = &failure.shortcut else {
        panic!("expected the sweeps to name different violations, got {err}");
    };
    let (
        ProtocolError::DirectoryMismatch { line: inc, .. },
        ProtocolError::DirectoryMismatch { line: full, .. },
    ) = (&**incremental, &**full)
    else {
        panic!("expected two directory mismatches, got {err}");
    };
    assert_eq!((*inc, *full), (high, low), "{err}");
    let text = err.to_string();
    for part in [&high.to_string(), &low.to_string(), "cycle 4096"] {
        assert!(text.contains(part), "{text}");
    }
}
