//! Soak-harness pillars, exercised at the library level: the lock-service
//! workload family runs clean under every policy with the online
//! linearizability checker armed; a seeded net-zero lost+duplicated FAA —
//! invisible to every end-state check — is caught per-operation; a
//! mid-soak checkpoint/restore preserves the checker's state bit-exactly;
//! and the phased soak engine (`row_sim::soak`) reports a clean campaign as
//! `pass` and a planted bug as `fail` with a triage bundle.

use std::path::Path;

mod bundle;

use norush::common::config::{AtomicPolicy, FaultConfig, RowConfig};
use norush::common::json;
use norush::cpu::instr::InstrStream;
use norush::sim::soak::{self, SoakEvent, SoakOptions};
use norush::sim::{Machine, SimError};
use norush::workloads::{LockServiceConfig, LockServiceStream, ServiceKernel};
use norush::SystemConfig;

const CORES: usize = 4;
const SEED: u64 = 42;

fn service_cfg(kernel: ServiceKernel) -> LockServiceConfig {
    let mut cfg = LockServiceConfig::soak(kernel);
    cfg.ops_per_thread = 120;
    cfg
}

fn streams(cfg: LockServiceConfig) -> Vec<Box<dyn InstrStream>> {
    (0..CORES)
        .map(|t| Box::new(LockServiceStream::new(cfg, t, CORES, SEED)) as Box<dyn InstrStream>)
        .collect()
}

fn online_sys(policy: AtomicPolicy) -> SystemConfig {
    let mut sys = SystemConfig::small(CORES).with_policy(policy);
    sys.check.oracle_online = true;
    sys.check.invariant_every = Some(4096);
    sys
}

fn run_clean(policy: AtomicPolicy, kernel: ServiceKernel) -> (u64, u64) {
    let sys = online_sys(policy);
    let mut m = Machine::new(&sys, streams(service_cfg(kernel)));
    let r = m.run(50_000_000).expect("clean lock-service run drains");
    assert!(r.total.atomics > 0, "service issues atomics");
    assert_eq!(
        r.total.atomic_latency.count(),
        r.total.atomics,
        "every atomic contributes one latency sample"
    );
    let checker = m.online_checker().expect("online checker armed");
    assert_eq!(checker.rmws(), r.total.atomics, "checker saw every RMW");
    (r.cycles, r.total.atomics)
}

#[test]
fn lock_service_clean_under_every_policy_with_online_checker() {
    for policy in [
        AtomicPolicy::Eager,
        AtomicPolicy::Lazy,
        AtomicPolicy::Row(RowConfig::default()),
    ] {
        for kernel in ServiceKernel::ALL {
            run_clean(policy, kernel);
        }
    }
}

/// The injected bug loses one FAA (journaled, never applied) and
/// double-applies the next FAA on the same word (journaled once): the final
/// memory state and the per-core journal counts are both net-zero, so a run
/// without any checker completes silently.
#[test]
fn net_zero_faa_bug_is_invisible_to_end_state() {
    let sys = SystemConfig::small(CORES).with_policy(AtomicPolicy::Lazy);
    let mut m = Machine::new(&sys, streams(service_cfg(ServiceKernel::Counter)));
    m.memory_mut().inject_net_zero_faa_for_test(50);
    let r = m.run(50_000_000).expect("end-state-blind run completes");
    assert!(r.total.atomics > 0);
}

#[test]
fn net_zero_faa_bug_is_caught_per_operation_by_online_checker() {
    let (clean_cycles, _) = run_clean(AtomicPolicy::Lazy, ServiceKernel::Counter);

    let sys = online_sys(AtomicPolicy::Lazy);
    let mut m = Machine::new(&sys, streams(service_cfg(ServiceKernel::Counter)));
    m.memory_mut().inject_net_zero_faa_for_test(50);
    let err = m.run(50_000_000).expect_err("online checker must object");
    assert!(
        matches!(err, SimError::Oracle(_)),
        "expected an oracle mismatch, got: {err}"
    );
    assert!(
        m.now().raw() < clean_cycles,
        "violation detected mid-run (at cycle {}), not at the end ({})",
        m.now().raw(),
        clean_cycles
    );
}

/// Checkpoint mid-soak with the online checker armed, restore into a fresh
/// machine, and finish both: results agree and the final images (which embed
/// the checker's golden words, counters, and journal tail) are byte-equal.
#[test]
fn mid_soak_checkpoint_restore_preserves_checker_state_bit_exactly() {
    let sys = online_sys(AtomicPolicy::Row(RowConfig::default()));
    let cfg = service_cfg(ServiceKernel::MpmcQueue);
    let mut a = Machine::new(&sys, streams(cfg));
    assert!(
        a.run_for(8_000).expect("no violation").is_none(),
        "workload must still be in flight at the snapshot point"
    );
    assert!(
        a.online_checker().expect("armed").ops_seen() > 0,
        "snapshot must capture a checker with live state"
    );
    let snap = a.checkpoint().expect("checkpoint");

    let mut b = Machine::new(&sys, streams(cfg));
    b.restore(&snap).expect("restore");
    assert_eq!(
        b.checkpoint().expect("checkpoint"),
        snap,
        "re-encoding the restored machine reproduces the image bit-exactly"
    );

    let ra = a.run(50_000_000).expect("original finishes");
    let rb = b.run(50_000_000).expect("restored finishes");
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.total.atomics, rb.total.atomics);
    assert_eq!(
        a.checkpoint().expect("checkpoint"),
        b.checkpoint().expect("checkpoint"),
        "both machines end in identical states, checker included"
    );
}

/// Soak options for a short campaign whose repro dir is a fresh temp dir.
fn soak_opts(tag: &str) -> SoakOptions {
    let dir = std::env::temp_dir().join(format!("norush-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp repro dir");
    SoakOptions {
        phases: 2,
        cores: CORES,
        seed: SEED,
        svc: service_cfg(ServiceKernel::Counter),
        phase_cycles: 500_000,
        repro_dir: dir,
        ..SoakOptions::default()
    }
}

fn ckpt_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("repro dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .count()
}

#[test]
fn two_phase_lazy_row_soak_passes_and_reports_every_cell() {
    let opts = soak_opts("clean");
    assert_eq!(opts.policies, ["lazy", "row"]);
    let (mut phases, mut cells) = (0, 0);
    let outcomes = soak::soak(&opts, |ev| match ev {
        SoakEvent::Phase(_) => phases += 1,
        SoakEvent::Cell(o) => {
            assert_eq!(o.status, "ok", "{:?}", o.error);
            cells += 1;
        }
    })
    .expect("known policies");
    assert_eq!((phases, cells), (2, 4));
    assert!(!soak::failed(&outcomes));
    let text = soak::report_json(&opts, &outcomes);
    assert!(text.contains("\"status\": \"pass\""), "{text}");
    let v = json::parse(&text).expect("report is valid JSON");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(soak::SOAK_SCHEMA)
    );
    assert_eq!(
        v.get("runs").and_then(|r| r.as_array()).map(<[_]>::len),
        Some(4)
    );
    assert_eq!(
        ckpt_files(&opts.repro_dir),
        0,
        "finished cells delete their checkpoints"
    );
    let _ = std::fs::remove_dir_all(&opts.repro_dir);
}

#[test]
fn injected_net_zero_faa_fails_the_soak_with_a_triage_bundle() {
    // Chaos off: the bug alone must fail the cell, and there is nothing to
    // shrink.
    let opts = SoakOptions {
        phases: 1,
        policies: vec!["lazy".into()],
        chaos: FaultConfig {
            seed: 1,
            max_extra_latency: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
        },
        inject: 50,
        // Short enough that a restore point precedes the violation.
        ckpt_every: 1_000,
        ..soak_opts("inject")
    };
    let outcomes = soak::soak(&opts, |_| {}).expect("known policy");
    assert!(soak::failed(&outcomes));
    let cell = outcomes.last().expect("the failing cell");
    assert_eq!(cell.status, "violation");
    assert!(cell.error.as_deref().is_some_and(|e| e.contains("oracle")));
    let text = soak::report_json(&opts, &outcomes);
    assert!(text.contains("\"status\": \"fail\""), "{text}");
    let failure = std::fs::read_to_string(opts.repro_dir.join("soak_failure.txt"))
        .expect("soak_failure.txt written");
    assert!(failure.contains("chaos: off"));
    assert!(failure.contains("--inject-net-zero-faa 50"));
    assert!(opts.repro_dir.join("journal_tail.txt").exists());
    assert!(!opts.repro_dir.join("chaos_repro.txt").exists());
    bundle::assert_pinned(
        &opts.repro_dir,
        &[
            ("journal_tail.txt", "fd9defc48cb140f6"),
            ("soak_failure.txt", "c2a2df309c686d35"),
            ("soak_p0_lazy.ckpt", "90c947c204f91a9b"),
        ],
    );
    let _ = std::fs::remove_dir_all(&opts.repro_dir);
}
