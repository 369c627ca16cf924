//! Checkpoint/restore contract tests.
//!
//! The contract is bit-exactness: restoring a checkpoint taken at cycle C
//! into a freshly-built machine and running to C+N must reproduce the
//! uninterrupted run *exactly* — same results, same final serialized state.
//! Corrupted or mismatched checkpoints must fail with structured errors,
//! never panics; and the rewind-on-violation replay must localize a
//! violation to a cycle strictly earlier than the sweep that detected it.

use norush::common::config::{AtomicPolicy, RowConfig};
use norush::common::ids::{Addr, CoreId, LineAddr, Pc};
use norush::common::persist::{fnv1a, PersistError};
use norush::common::rng::SplitMix64;
use norush::cpu::instr::{Instr, InstrStream, Op, RmwKind, VecStream};
use norush::mem::PrivState;
use norush::sim::{bench_streams, ExperimentConfig, Machine, SimError};
use norush::workloads::Benchmark;
use norush::SystemConfig;

fn faa_program(n: u64, addrs: &[u64], seed: u64) -> Vec<Instr> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let a = addrs[rng.below(addrs.len() as u64) as usize];
            Instr::simple(
                Pc::new(0x40 + (a % 7) * 4),
                Op::Atomic {
                    rmw: RmwKind::Faa(1),
                    addr: Addr::new(a),
                },
            )
        })
        .collect()
}

fn streams(cores: usize, per_core: u64, addrs: &[u64]) -> Vec<Box<dyn InstrStream>> {
    (0..cores)
        .map(|t| {
            Box::new(VecStream::new(faa_program(per_core, addrs, t as u64 + 1)))
                as Box<dyn InstrStream>
        })
        .collect()
}

const ADDRS: [u64; 2] = [0xf000, 0xf040];

fn machine(sys: &SystemConfig) -> Machine {
    Machine::new(sys, streams(sys.cores, 60, &ADDRS))
}

/// The core bit-exactness check for one configuration: checkpoint machine A
/// mid-run, restore into a fresh machine B, run both to completion, and
/// demand identical results *and* identical final serialized state.
fn assert_round_trip_bit_exact(sys: &SystemConfig) {
    let mut a = machine(sys);
    assert!(
        a.run_for(400).expect("clean prefix").is_none(),
        "must not drain within the prefix"
    );
    let snap = a.checkpoint().expect("mid-run checkpoint");
    let ra = a.run_for(50_000_000).expect("run").expect("drains");
    let final_a = a.checkpoint().expect("final checkpoint");

    let mut b = machine(sys);
    b.restore(&snap).expect("restore into fresh machine");
    assert_eq!(b.now().raw(), 400, "restore resumes at the snapshot cycle");
    let rb = b.run_for(50_000_000).expect("run").expect("drains");
    let final_b = b.checkpoint().expect("final checkpoint");

    assert_eq!(
        format!("{ra:?}"),
        format!("{rb:?}"),
        "restored run must reproduce the uninterrupted results"
    );
    assert_eq!(final_a, final_b, "final machine state must be bit-exact");
    let sum: u64 = ADDRS
        .iter()
        .map(|&x| b.memory().read_word(Addr::new(x)))
        .sum();
    assert_eq!(sum, sys.cores as u64 * 60, "atomic sums stay exact");
}

#[test]
fn round_trip_is_bit_exact_eager() {
    assert_round_trip_bit_exact(&SystemConfig::small(4));
}

#[test]
fn round_trip_is_bit_exact_lazy() {
    assert_round_trip_bit_exact(&SystemConfig::small(4).with_policy(AtomicPolicy::Lazy));
}

#[test]
fn round_trip_is_bit_exact_row() {
    assert_round_trip_bit_exact(
        &SystemConfig::small(4).with_policy(AtomicPolicy::Row(RowConfig::best())),
    );
}

/// Bit-exactness must also hold with the lossy transport live: the v2
/// payload (channel sequence numbers, in-flight retransmissions, receive
/// buffers, transport counters) rides through Persist like everything else.
#[test]
fn round_trip_is_bit_exact_under_lossy_chaos() {
    let mut sys = SystemConfig::small(4).with_chaos(0xbead_0001);
    let f = sys.check.chaos.as_mut().expect("chaos on");
    f.drop_ppm = 30_000;
    f.dup_ppm = 20_000;
    f.corrupt_ppm = 10_000;
    assert_round_trip_bit_exact(&sys);
}

/// Every kernel stream checkpoints its generator (RNG, operations left,
/// queued instructions): a run restored mid-way commits what a straight run
/// commits and ends in the same image.
#[test]
fn kernel_streams_resume_bit_exactly() {
    use norush::workloads::kernels::{ConcurrentQueue, ProducerConsumer, SharedCounters};
    type Kernel = fn(usize) -> Box<dyn InstrStream>;
    let kernels: [(&str, Kernel); 3] = [
        ("pc", |t| Box::new(ProducerConsumer::new(t, 60, 16, 5))),
        ("sps", |t| Box::new(SharedCounters::new(t, 60, 2, 16, 5))),
        ("cq", |t| Box::new(ConcurrentQueue::new(t, 60, 2, 16, 5))),
    ];
    let sys = SystemConfig::small(4);
    for (name, kernel) in kernels {
        let fresh = || Machine::new(&sys, (0..4).map(kernel).collect());
        let mut straight = fresh();
        assert!(
            straight.run_for(3_000).expect("prefix").is_none(),
            "{name}: must not drain before the checkpoint"
        );
        let snap = straight.checkpoint().expect("checkpoint");
        let done = straight.run_for(50_000_000).expect("run").expect("drains");
        let mut resumed = fresh();
        resumed.restore(&snap).expect("restore");
        let again = resumed.run_for(50_000_000).expect("run").expect("drains");
        assert_eq!(
            (again.cycles, again.total.committed),
            (done.cycles, done.total.committed),
            "{name}: cycles and committed instructions"
        );
        assert_eq!(
            fnv1a(&resumed.checkpoint().expect("final image")),
            fnv1a(&straight.checkpoint().expect("final image")),
            "{name}: final image"
        );
    }
}

/// An image taken while store-buffer writes wait for the head holds each
/// as the `SbWrite` event a core retrying every cycle would hold, and a
/// restored core drops the writes it had parked and parks the image's
/// again as they pop. `barnes` on 4 cores with the paper's caches: each
/// 500-cycle image (26 of its 43 hold waiting writes), restored into one
/// machine (fresh the first time, then holding the state the previous
/// check ran it into, parked writes included) and run to the next
/// boundary, must give the straight run's next image.
#[test]
fn images_with_waiting_writes_resume_bit_exactly() {
    let exp = ExperimentConfig {
        cores: 4,
        instructions: 2_000,
        paper_caches: true,
        ..ExperimentConfig::quick()
    };
    let sys = exp.system();
    let fresh = || Machine::new(&sys, bench_streams(Benchmark::Barnes, &exp));
    let mut straight = fresh();
    let mut images = Vec::new();
    while straight.run_for(500).expect("clean run").is_none() {
        images.push(straight.checkpoint().expect("checkpointable"));
    }
    assert_eq!(images.len(), 43);
    let mut m = fresh();
    for (k, pair) in images.windows(2).enumerate() {
        m.restore(&pair[0]).expect("restore");
        assert!(m.run_for(500).expect("clean run").is_none());
        let next = m.checkpoint().expect("checkpointable");
        assert!(next == pair[1], "image {k} resumed to a different image");
    }
}

/// `run_checkpointed` + `restore` is the crash-recovery path: kill a run
/// after some checkpoints landed on disk, restore the newest file into a
/// fresh machine, and the finished result matches the uninterrupted run.
#[test]
fn on_disk_checkpoint_resumes_a_killed_run() {
    let dir = std::env::temp_dir().join("norush-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    std::fs::remove_file(&path).ok();

    let sys = SystemConfig::small(4);
    let reference = machine(&sys)
        .run_for(50_000_000)
        .expect("run")
        .expect("drains");

    // "Crashing" run: advance in checkpointed slices, then stop driving it
    // mid-flight — exactly what SIGKILL leaves behind on disk.
    let mut crashed = machine(&sys);
    let r = crashed.run_checkpointed(600, 200, &path);
    assert!(
        matches!(r, Err(SimError::Timeout(_))),
        "600 cycles is far short of draining"
    );
    assert!(path.exists(), "a checkpoint file must have landed");
    drop(crashed);

    let bytes = norush::sim::checkpoint::read_checkpoint(&path).expect("read");
    let mut resumed = machine(&sys);
    resumed.restore(&bytes).expect("resume from disk");
    assert_eq!(resumed.now().raw(), 600);
    let rr = resumed
        .run_checkpointed(50_000_000, 10_000, &path)
        .expect("resumed run drains");
    assert_eq!(
        format!("{rr:?}"),
        format!("{reference:?}"),
        "resumed run must match the uninterrupted one"
    );
    std::fs::remove_file(&path).ok();
}

/// Rewind restores into the running machine, whose caches and predictor
/// tables by then hold lines and entries the image does not list. The
/// restore must blank them: the machine writes the image back byte for
/// byte and runs on exactly as a fresh machine restored from it.
#[test]
fn restore_into_a_used_machine_blanks_what_the_image_omits() {
    let exp = ExperimentConfig {
        cores: 4,
        instructions: 3_000,
        ..ExperimentConfig::quick()
    };
    let sys = exp.system();
    let fresh = || Machine::new(&sys, bench_streams(Benchmark::Pc, &exp));
    let mut used = fresh();
    assert!(used.run_for(4_000).expect("prefix").is_none());
    let image = used.checkpoint().expect("checkpoint");
    assert!(used.run_for(8_000).expect("more").is_none());
    used.restore(&image).expect("restore into the used machine");
    assert!(
        used.checkpoint().expect("checkpoint") == image,
        "the used machine must write the image back unchanged"
    );
    let mut restored = fresh();
    restored
        .restore(&image)
        .expect("restore into a fresh machine");
    let a = used.run_for(50_000_000).expect("run").expect("drains");
    let b = restored.run_for(50_000_000).expect("run").expect("drains");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(used.checkpoint().expect("final") == restored.checkpoint().expect("final"));
}

/// A 256-core machine at cycle 0 holds no cache line and no trained
/// predictor entry, so its image is small. Its exact length is pinned:
/// writing capacity-sized tables again fails here, not only in the
/// benchmark.
#[test]
fn huge_machine_image_size_is_pinned() {
    let exp = ExperimentConfig {
        cores: 256,
        instructions: 1_000,
        ..ExperimentConfig::quick()
    };
    let sys = SystemConfig::huge(256);
    let m = Machine::new(&sys, bench_streams(Benchmark::Pc, &exp));
    assert_eq!(m.checkpoint().expect("checkpoint").len(), 755_647);
}

fn restore_err(sys: &SystemConfig, bytes: &[u8]) -> PersistError {
    match machine(sys).restore(bytes) {
        Err(SimError::Checkpoint(e)) => e,
        other => panic!("expected a structured checkpoint error, got {other:?}"),
    }
}

/// Truncation anywhere — empty, mid-header, mid-payload, one byte shy —
/// must yield `PersistError`s, never a panic or a silent partial restore.
#[test]
fn truncated_checkpoints_fail_structurally() {
    let sys = SystemConfig::small(2);
    let mut m = Machine::new(&sys, streams(2, 40, &ADDRS));
    assert!(m.run_for(300).expect("prefix").is_none());
    let snap = m.checkpoint().expect("checkpoint");
    for cut in [0, 7, 11, 27, snap.len() / 2, snap.len() - 1] {
        let err = restore_err(&sys, &snap[..cut]);
        assert!(
            matches!(err, PersistError::Corrupt(_) | PersistError::UnexpectedEof),
            "cut at {cut}: got {err:?}"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let sys = SystemConfig::small(2);
    let mut m = Machine::new(&sys, streams(2, 40, &ADDRS));
    assert!(m.run_for(300).expect("prefix").is_none());
    let mut snap = m.checkpoint().expect("checkpoint");
    snap[0] ^= 0xff;
    assert!(matches!(restore_err(&sys, &snap), PersistError::Corrupt(_)));
}

/// Bit flips in the body are caught by the whole-file checksum before any
/// payload byte is interpreted.
#[test]
fn flipped_payload_byte_fails_the_checksum() {
    let sys = SystemConfig::small(2);
    let mut m = Machine::new(&sys, streams(2, 40, &ADDRS));
    assert!(m.run_for(300).expect("prefix").is_none());
    let mut snap = m.checkpoint().expect("checkpoint");
    let mid = snap.len() / 2;
    snap[mid] ^= 0x01;
    assert!(matches!(
        restore_err(&sys, &snap),
        PersistError::Corrupt("checkpoint checksum mismatch")
    ));
}

/// A future-format checkpoint (crafted with a *valid* checksum, so only the
/// version differs) is refused with `VersionMismatch`, not misparsed.
#[test]
fn wrong_format_version_is_refused() {
    let sys = SystemConfig::small(2);
    let mut m = Machine::new(&sys, streams(2, 40, &ADDRS));
    assert!(m.run_for(300).expect("prefix").is_none());
    let mut snap = m.checkpoint().expect("checkpoint");
    snap[8..12].copy_from_slice(&99u32.to_le_bytes());
    let n = snap.len();
    let sum = fnv1a(&snap[..n - 8]);
    snap[n - 8..].copy_from_slice(&sum.to_le_bytes());
    match restore_err(&sys, &snap) {
        PersistError::VersionMismatch { found, expected } => {
            assert_eq!(
                (found, expected),
                (99, norush::sim::checkpoint::FORMAT_VERSION)
            );
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// A checkpoint from a differently-configured machine (other core count or
/// other policy) is refused by the config hash.
#[test]
fn mismatched_config_is_refused() {
    let four = SystemConfig::small(4);
    let mut m = machine(&four);
    assert!(m.run_for(300).expect("prefix").is_none());
    let snap = m.checkpoint().expect("checkpoint");

    let two = SystemConfig::small(2);
    assert!(matches!(
        restore_err(&two, &snap),
        PersistError::ConfigMismatch { .. }
    ));
    let lazy = SystemConfig::small(4).with_policy(AtomicPolicy::Lazy);
    assert!(matches!(
        restore_err(&lazy, &snap),
        PersistError::ConfigMismatch { .. }
    ));
}

/// Checkpointing a machine that already latched a protocol error is refused:
/// such a snapshot could never restore into a consistent simulation.
#[test]
fn checkpoint_refuses_a_poisoned_machine() {
    let sys = SystemConfig::small(2);
    let mut m = Machine::new(&sys, streams(2, 40, &ADDRS));
    assert!(m.run_for(100).expect("prefix").is_none());
    m.memory_mut()
        .record_protocol_error(norush::mem::ProtocolError::MultipleOwners {
            line: LineAddr::new(ADDRS[0] >> 6),
            owners: vec![CoreId::new(0), CoreId::new(1)],
        });
    assert!(matches!(
        m.checkpoint(),
        Err(SimError::Checkpoint(PersistError::Corrupt(_)))
    ));
}

/// The rewind demo: with `rewind_every` set, a violation found by the
/// periodic sweep is replayed from the last in-memory checkpoint with
/// *per-cycle* checking, and the report names a first offending cycle
/// strictly earlier than the sweep's detection cycle.
#[test]
fn rewind_names_a_first_offending_cycle_before_detection() {
    let mut sys = SystemConfig::small(4);
    // A sparse sweep and a dense rewind checkpoint: the corruption below sits
    // on a line the workload never touches, so only the sweep can see it —
    // it survives into the next in-memory checkpoint, and the replay finds
    // it hundreds of cycles before the sweep would.
    sys.check.invariant_every = Some(1_000);
    sys.check.rewind_every = Some(50);
    let mut m = Machine::new(&sys, streams(4, 200, &ADDRS));
    assert!(m.run_for(310).expect("clean prefix").is_none());
    for c in 0..2 {
        m.memory_mut().corrupt_private_state_for_test(
            CoreId::new(c),
            LineAddr::new(0x00dd_dd00 >> 6),
            Some(PrivState::M),
        );
    }
    let err = m.run_for(50_000_000).expect_err("the sweep must catch it");
    let SimError::Rewind(report) = err else {
        panic!("expected a rewind report, got {err}");
    };
    assert!(
        matches!(*report.cause, SimError::Protocol(_)),
        "cause: {:?}",
        report.cause
    );
    let first = report
        .first_bad_cycle
        .expect("the replay must reproduce the violation");
    assert!(
        first < report.detected_at,
        "replay must localize tighter than the sweep: first bad {} vs detected {}",
        first.raw(),
        report.detected_at.raw()
    );
    assert!(first >= report.checkpoint_at);
    assert!(report.first_error.is_some());
    assert!(report.trace.len() <= norush::sim::machine::REWIND_TRACE_LIMIT);
    let shown = format!("{report}");
    assert!(
        shown.contains("first"),
        "the report should surface the localized cycle:\n{shown}"
    );
}

/// A rewind replays the run that failed. `canneal` on 4 cores under a
/// 250-cycle watchdog stalls at cycle 3,085; replays from the last slice
/// boundary of four intervals start at four cycles, and each must deliver
/// the forward run's events at the forward run's cycles. So every trace
/// line from the latest start on is the same in all four. A replay that
/// stepped its first cycle twice would list some of them a cycle early.
#[test]
fn rewind_replays_the_run_that_failed() {
    let exp = ExperimentConfig {
        cores: 4,
        instructions: 3_000,
        ..ExperimentConfig::quick()
    };
    let mut sys = exp.system();
    sys.check.watchdog_window = Some(250);
    let mut reports = Vec::new();
    for every in [97, 101, 150, 233] {
        sys.check.rewind_every = Some(every);
        let mut m = Machine::new(&sys, bench_streams(Benchmark::Canneal, &exp));
        match m.run(exp.cycle_limit) {
            Err(SimError::Rewind(report)) => reports.push(report),
            other => panic!("interval {every}: expected a rewind report, got {other:?}"),
        }
    }
    let starts: Vec<u64> = reports.iter().map(|r| r.checkpoint_at.raw()).collect();
    assert_eq!(starts, [3_007, 3_030, 3_000, 3_029]);
    for r in &reports {
        assert!(matches!(*r.cause, SimError::Stall(_)), "cause: {}", r.cause);
        assert_eq!(r.detected_at.raw(), 3_085);
        assert_eq!(r.first_bad_cycle, None);
    }
    let latest = starts.iter().copied().max().unwrap_or(0);
    let shared = |trace: &[String]| -> Vec<String> {
        trace
            .iter()
            .filter(|line| {
                let cycle = line.split(':').next().and_then(|c| c.parse::<u64>().ok());
                cycle.expect("a trace line starts with its cycle") >= latest
            })
            .cloned()
            .collect()
    };
    let first = shared(&reports[0].trace);
    assert!(!first.is_empty(), "the replays share no event");
    for (r, every) in reports.iter().zip([97, 101, 150, 233]).skip(1) {
        assert_eq!(
            shared(&r.trace),
            first,
            "interval {every}'s replay and interval 97's list different events"
        );
    }
}

/// With rewind disabled (the default), the same failure surfaces as the
/// plain protocol/stall error — existing behaviour is unchanged.
#[test]
fn rewind_off_preserves_plain_errors() {
    let mut sys = SystemConfig::small(4);
    sys.check.invariant_every = Some(1_000);
    assert!(sys.check.rewind_every.is_none());
    let mut m = Machine::new(&sys, streams(4, 200, &ADDRS));
    assert!(m.run_for(310).expect("clean prefix").is_none());
    for c in 0..2 {
        m.memory_mut().corrupt_private_state_for_test(
            CoreId::new(c),
            LineAddr::new(0x00dd_dd00 >> 6),
            Some(PrivState::M),
        );
    }
    let err = m.run_for(50_000_000).expect_err("the sweep must catch it");
    assert!(matches!(err, SimError::Protocol(_)), "got {err}");
}
