//! Scale-out tier coverage: the 64/128/256-core `huge` configurations must
//! build, run real lock-service traffic under the periodic incremental
//! invariant sweep, agree with the full sweep under chaos, and keep every
//! determinism contract the 32-core tier has (checkpoint round trips,
//! worker-count-independent litmus reports).

use std::process::Command;

use norush::common::config::AtomicPolicy;
use norush::cpu::instr::InstrStream;
use norush::sim::Machine;
use norush::workloads::{LockServiceConfig, LockServiceStream, ServiceKernel};
use norush::SystemConfig;

const BIN: &str = env!("CARGO_BIN_EXE_norush");
const SEED: u64 = 42;

fn service_streams(cores: usize, ops: u64) -> Vec<Box<dyn InstrStream>> {
    let mut cfg = LockServiceConfig::soak(ServiceKernel::Counter);
    cfg.ops_per_thread = ops;
    cfg.shards = 8;
    (0..cores)
        .map(|t| Box::new(LockServiceStream::new(cfg, t, cores, SEED)) as Box<dyn InstrStream>)
        .collect()
}

/// Every huge tier validates, runs a short lock-service phase with the
/// periodic (incremental) invariant sweep armed, and still passes a final
/// *full* coherence sweep over the mid-run state.
#[test]
fn huge_tiers_run_lockservice_under_incremental_sweep() {
    for cores in [64usize, 128, 256] {
        let sys = SystemConfig::huge(cores);
        sys.validate()
            .unwrap_or_else(|e| panic!("huge({cores}): {e}"));
        assert_eq!(sys.cores, cores);
        // The periodic sweep inside run_for is the incremental one; the
        // default cadence is part of CheckConfig::default().
        assert!(
            sys.check.invariant_every.is_some(),
            "huge tier must keep the invariant sweep armed"
        );
        let mut m = Machine::new(&sys, service_streams(cores, 8));
        // A bounded mid-run phase (not a drain): plenty of protocol traffic
        // at 256 cores, still test-sized. Several sweep periods elapse.
        let r = m
            .run_for(12_000)
            .unwrap_or_else(|e| panic!("huge({cores}) lock-service phase failed: {e}"));
        assert!(r.is_none(), "12k cycles must not drain the service");
        m.check_invariants()
            .unwrap_or_else(|e| panic!("huge({cores}) full sweep disagrees: {e}"));
        let committed: u64 = (0..cores).map(|i| m.core_mut(i).stats().committed).sum();
        assert!(committed > 0, "huge({cores}) made no progress");
    }
}

/// Under delay-chaos the incremental sweep (running periodically inside the
/// machine loop) and an explicit full sweep must reach the same verdict at
/// every observation point of a randomized run.
#[test]
fn incremental_and_full_sweep_agree_under_chaos() {
    let mut sys = SystemConfig::small(8)
        .with_policy(AtomicPolicy::Lazy)
        .with_chaos(0xc4a05);
    sys.check.invariant_every = Some(512);
    let mut m = Machine::new(&sys, service_streams(8, 60));
    for chunk in 0..40 {
        match m.run_for(1024) {
            Ok(Some(_)) => break,
            Ok(None) => {}
            Err(e) => panic!("chaos run tripped the incremental sweep: {e} (chunk {chunk})"),
        }
        // The incremental sweep said clean for this window; the full sweep
        // must agree on the exact same state.
        m.check_invariants()
            .unwrap_or_else(|e| panic!("full sweep disagrees at chunk {chunk}: {e}"));
    }
}

/// Checkpoint round trip at the 64-core huge tier: the image is a pure
/// function of machine state (derived caches — wake cycles, scratch
/// buffers, head-wait memos — must not leak in), and a restored machine
/// continues bit-identically.
#[test]
fn huge_checkpoint_round_trip_is_bit_exact() {
    let sys = SystemConfig::huge(64);
    let mut a = Machine::new(&sys, service_streams(64, 8));
    a.run_for(4_000).expect("phase 1 clean");
    let image = a.checkpoint().expect("checkpoint");
    let mut b = Machine::new(&sys, service_streams(64, 8));
    b.restore(&image).expect("restore");
    assert_eq!(
        image,
        b.checkpoint().expect("re-checkpoint"),
        "image changed in round trip"
    );
    // Both continue; end state must match bit-exactly even though the
    // restored machine rebuilt all derived state from zero.
    a.run_for(3_000).expect("original continues");
    b.run_for(3_000).expect("restored continues");
    assert_eq!(
        a.checkpoint().expect("final a"),
        b.checkpoint().expect("final b"),
        "restored machine diverged from the original"
    );
}

/// The litmus JSON report contains no wall-clock or worker-count fields, so
/// `--jobs 1` and `--jobs 4` must produce byte-identical files.
#[test]
fn litmus_report_is_byte_identical_across_jobs() {
    let dir = std::env::temp_dir();
    let out1 = dir.join(format!("norush_litmus_j1_{}.json", std::process::id()));
    let out4 = dir.join(format!("norush_litmus_j4_{}.json", std::process::id()));
    // A clean run still creates its repro dir; keep it out of the checkout.
    let repro = dir.join(format!("norush_litmus_repro_{}", std::process::id()));
    for (jobs, out) in [("1", &out1), ("4", &out4)] {
        let status = Command::new(BIN)
            .args(["litmus", "--test", "sb,mp", "--policies", "eager,row"])
            .args(["--samples", "40", "--seed", "7", "--jobs", jobs])
            .arg("--out")
            .arg(out)
            .arg("--repro-dir")
            .arg(&repro)
            .status()
            .expect("spawn norush litmus");
        assert!(status.success(), "litmus --jobs {jobs} failed");
    }
    let r1 = std::fs::read(&out1).expect("read jobs-1 report");
    let r4 = std::fs::read(&out4).expect("read jobs-4 report");
    let _ = std::fs::remove_file(&out1);
    let _ = std::fs::remove_file(&out4);
    let _ = std::fs::remove_dir_all(&repro);
    assert_eq!(
        r1, r4,
        "litmus report differs between --jobs 1 and --jobs 4"
    );
}
