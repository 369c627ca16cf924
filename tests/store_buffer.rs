//! Pins in-order store-buffer retirement where writes finish out of order.
//!
//! A store's write to the L1D can complete while an older write is still in
//! flight: an L2 hit behind which L1 hits finish first, or owned writes that
//! start behind a write miss. TSO lets such a write retire (update memory,
//! release its atomic's lock, train StoreSets) only once it reaches the
//! store-buffer head, so it waits. Where in a cycle it retires decides what a
//! forwarded load on the same core and a load on another core read. Every
//! value below is fixed: a change to how a waiting write is held or
//! re-checked must leave each cycle's image, each load's value and the
//! cycle count as they are.

use norush::common::ids::{Addr, Pc};
use norush::common::persist::fnv1a;
use norush::common::SystemConfig;
use norush::cpu::instr::{Instr, InstrStream, Op, VecStream};
use norush::sim::{bench_streams, ExperimentConfig, Machine, Variant};
use norush::workloads::Benchmark;

fn store(addr: u64, value: u64) -> Instr {
    let addr = Addr::new(addr);
    Instr::simple(
        Pc::new(0x100),
        Op::Store {
            addr,
            value: Some(value),
        },
    )
}

fn load(pc: u64, addr: u64) -> Instr {
    let addr = Addr::new(addr);
    Instr::simple(Pc::new(pc), Op::Load { addr })
}

fn alu(latency: u8) -> Instr {
    Instr::simple(Pc::new(0x300), Op::Alu { latency })
}

fn fence() -> Instr {
    Instr::simple(Pc::new(0x400), Op::Fence)
}

// One line per L1 set of `SystemConfig::small` (32 sets of 64-byte lines).
/// Set 0: evicted to the L2 by four more lines of its set.
const A: u64 = 0x1_0000;
/// Set 1: the younger L1-hit writes of case 1.
const B: u64 = 0x2_0040;
/// Set 2: the older L1-hit write of case 2.
const H: u64 = 0x3_0080;
/// Set 4: never touched before case 2, so its write misses.
const C: u64 = 0x4_0100;
/// Set 3: the younger owned writes of case 2.
const F: u64 = 0x5_00c0;
/// Set 5: a line the writer's delayed loads hang off.
const E: u64 = 0x6_0140;

/// A load of `addr` on core 0 that issues `delay` cycles after a load of
/// `E`, which may not issue before the last fence completes.
fn delayed_load(prog: &mut Vec<Instr>, delay: u8, addr: u64) {
    prog.push(load(0x200, E).with_dst(1));
    prog.push(alu(delay).with_srcs(Some(1), None).with_dst(2));
    prog.push(load(0x200 + u64::from(delay), addr).with_srcs(Some(2), None));
}

/// Core 0. It warms its lines up, then:
/// - case 1: an L2-hit write to `A` starts with L1-hit writes to four words
///   of `B`, which finish first and wait;
/// - case 2: an L1-hit write to `H` starts with a miss to `C`; once it
///   retires, eight owned writes to `F` start behind the miss and wait.
///
/// In both cases delayed loads read the waiting words, forwarded from the
/// store buffer. Fences keep the cases apart.
fn writer() -> Vec<Instr> {
    let mut p = vec![store(A, 1)];
    for k in 1..=4 {
        p.push(store(A + 0x800 * k, 0));
    }
    for line in [B, H, F, E] {
        p.push(store(line, 2));
    }
    p.push(fence());
    p.push(store(A, 10));
    for k in 0..4 {
        p.push(store(B + 8 * k, 11 + k));
    }
    for delay in [1, 3, 6, 9] {
        delayed_load(&mut p, delay, B + 8);
    }
    p.push(fence());
    p.push(store(H, 20));
    p.push(store(C, 21));
    for k in 0..8 {
        p.push(store(F + 8 * k, 22 + k));
    }
    for delay in 1..=8 {
        delayed_load(&mut p, delay, F + 8 * u64::from(delay % 8));
    }
    p.push(fence());
    p
}

/// Core 1: after about 1,950 cycles of dependent ALU work, twelve dependent
/// loads of `F`'s words while core 0's writes to them wait, then `B`'s
/// words and `A`.
fn reader() -> Vec<Instr> {
    let mut p = Vec::new();
    for _ in 0..7 {
        p.push(alu(250).with_srcs(Some(3), None).with_dst(3));
    }
    p.push(alu(200).with_srcs(Some(3), None).with_dst(3));
    let mut prev = Some(3);
    for k in 0..12 {
        p.push(
            load(0x500, F + 8 * (k % 8))
                .with_srcs(prev, None)
                .with_dst(4),
        );
        p.push(alu(10).with_srcs(Some(4), None).with_dst(5));
        prev = Some(5);
    }
    for k in 0..4 {
        p.push(load(0x510, B + 8 * k).with_srcs(prev, None));
    }
    p.push(load(0x520, A).with_srcs(prev, None));
    p
}

/// What a cycle-by-cycle run leaves behind: its cycles, each core's loaded
/// values in the order they completed, and the trail — FNV-1a over the
/// concatenated little-endian FNV-1a of the image after every cycle.
#[derive(Debug, PartialEq)]
struct CycleTrail {
    cycles: u64,
    loads: [Vec<u64>; 2],
    trail: u64,
}

/// Runs the writer and the reader on `SystemConfig::small(2)` with an L1D
/// hit latency of `l1` cycles, one cycle at a time, imaging after each.
fn cycle_trail(l1: u64) -> CycleTrail {
    let mut cfg = SystemConfig::small(2);
    cfg.mem.l1d.hit_latency = l1;
    let streams: Vec<Box<dyn InstrStream>> = vec![
        Box::new(VecStream::new(writer())),
        Box::new(VecStream::new(reader())),
    ];
    let mut m = Machine::new(&cfg, streams);
    m.core_mut(0).record_loads();
    m.core_mut(1).record_loads();
    let mut hashes = Vec::new();
    let cycles = loop {
        if let Some(r) = m.run_for(1).expect("clean run") {
            break r.cycles;
        }
        let image = m.checkpoint().expect("checkpointable");
        hashes.extend_from_slice(&fnv1a(&image).to_le_bytes());
    };
    let mut values = |i: usize| -> Vec<u64> {
        let obs = m.core_mut(i).load_observations();
        obs.iter().map(|o| o.value).collect()
    };
    CycleTrail {
        cycles,
        loads: [values(0), values(1)],
        trail: fnv1a(&hashes),
    }
}

/// Core 0's loads: `E` (2) before each delayed load, `B + 8` forwarded
/// (12), then `F`'s words forwarded while their writes wait.
const WRITER_LOADS: [u64; 24] = [
    2, 2, 2, 2, 12, 12, 12, 12, 2, 2, 2, 2, 2, 2, 2, 2, 23, 24, 25, 26, 27, 28, 29, 22,
];

/// Core 1's loads: `F`'s words still hold the warm-up values while core
/// 0's writes to them wait, then `B`'s words and `A` hold case 1's.
const READER_LOADS: [u64; 17] = [2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 11, 12, 13, 14, 10];

#[test]
fn out_of_order_writes_retire_in_order_cycle_by_cycle() {
    assert_eq!(
        cycle_trail(5),
        CycleTrail {
            cycles: 2_290,
            loads: [WRITER_LOADS.to_vec(), READER_LOADS.to_vec()],
            trail: 0xb8a4_10a5_5784_bea7,
        }
    );
}

/// With a one-cycle L1D, a forwarded load's completion lands in the next
/// cycle between the re-checks of two waiting writes.
#[test]
fn out_of_order_writes_retire_in_order_with_a_one_cycle_l1() {
    assert_eq!(
        cycle_trail(1),
        CycleTrail {
            cycles: 2_230,
            loads: [WRITER_LOADS.to_vec(), READER_LOADS.to_vec()],
            trail: 0x9641_f22e_f263_3804,
        }
    );
}

/// `barnes` under RoW on 8 cores with the paper's caches, 2,000
/// instructions per core: its 1,596 writes spend 75,893 cycles in all
/// waiting for the store-buffer head. The run advances in 500-cycle slices
/// and checkpoints after every slice that did not drain: its cycles, the
/// number and total size of its images, and the trail (see [`CycleTrail`]).
#[test]
fn store_heavy_checkpoint_trail_is_pinned() {
    let exp = ExperimentConfig {
        cores: 8,
        instructions: 2_000,
        paper_caches: true,
        ..ExperimentConfig::quick()
    };
    let sys = Variant::by_name("row")
        .expect("known policy")
        .apply(exp.system());
    let mut m = Machine::new(&sys, bench_streams(Benchmark::Barnes, &exp));
    let (mut hashes, mut bytes) = (Vec::new(), 0);
    let cycles = loop {
        if let Some(r) = m.run_for(500).expect("clean run") {
            break r.cycles;
        }
        let image = m.checkpoint().expect("checkpointable");
        bytes += image.len();
        hashes.extend_from_slice(&fnv1a(&image).to_le_bytes());
    };
    assert_eq!(
        (cycles, hashes.len() / 8, bytes, fnv1a(&hashes)),
        (28_665, 57, 28_612_476, 0x4ba6_e01b_5acf_3088)
    );
}
