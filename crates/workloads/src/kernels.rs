//! Structured synchronization kernels.
//!
//! Where [`profile`](crate::profile) models applications statistically, these
//! generators emit the *exact* instruction patterns of three classic
//! fine-grain synchronization idioms (the paper's `pc`, `sps` and `cq`
//! archetypes). They are used by the examples and by shape tests that check
//! the eager/lazy crossover on recognizable code.

use std::collections::VecDeque;

use row_common::ids::{Addr, Pc};
use row_common::persist::{Codec, PersistError, Reader, Writer};
use row_common::rng::SplitMix64;

use row_cpu::instr::{Instr, InstrStream, Op, RmwKind};

const RING_BASE: u64 = 0xa000_0000;
const COUNTER_BASE: u64 = 0xb000_0000;
const QUEUE_BASE: u64 = 0xc000_0000;

/// What every kernel advances, and so what it checkpoints: its RNG, the
/// operations it has still to emit, and the current operation's unissued
/// instructions.
#[derive(Clone, Debug)]
struct OpQueue {
    rng: SplitMix64,
    ops_left: u64,
    queue: VecDeque<Instr>,
}

row_common::codec_struct!(OpQueue {
    rng,
    ops_left,
    queue,
});

impl OpQueue {
    fn new(seed: u64, ops: u64) -> Self {
        OpQueue {
            rng: SplitMix64::new(seed),
            ops_left: ops,
            queue: VecDeque::new(),
        }
    }

    /// The next instruction. Once the current operation is issued, `emit`
    /// queues the next operation's instructions, drawing from the RNG.
    fn next(&mut self, emit: impl FnOnce(&mut SplitMix64, &mut VecDeque<Instr>)) -> Option<Instr> {
        if self.queue.is_empty() {
            if self.ops_left == 0 {
                return None;
            }
            self.ops_left -= 1;
            emit(&mut self.rng, &mut self.queue);
        }
        self.queue.pop_front()
    }
}

/// Producer/consumer ring-buffer kernel (the paper's `pc`).
///
/// Every thread alternates: a little local work, then `FAA(head, 1)` on a
/// single shared control word — maximal contention on one line, no atomic
/// locality. Lazy execution wins decisively here.
#[derive(Clone, Debug)]
pub struct ProducerConsumer {
    ops: OpQueue,
    tid: u64,
    work_per_op: u64,
}

impl ProducerConsumer {
    /// `ops` ring operations per thread, each padded with `work_per_op`
    /// local instructions.
    pub fn new(tid: usize, ops: u64, work_per_op: u64, seed: u64) -> Self {
        ProducerConsumer {
            ops: OpQueue::new(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9), ops),
            tid: tid as u64,
            work_per_op,
        }
    }
}

impl InstrStream for ProducerConsumer {
    fn next_instr(&mut self) -> Option<Instr> {
        let (tid, work_per_op) = (self.tid, self.work_per_op);
        self.ops.next(|rng, queue| {
            // Local payload work (private line per thread).
            for k in 0..work_per_op {
                if k % 4 == 0 {
                    let addr = Addr::new(RING_BASE + 0x10_0000 * (tid + 1) + rng.below(512) * 64);
                    queue.push_back(Instr::simple(Pc::new(0x300), Op::Load { addr }).with_dst(2));
                } else {
                    queue.push_back(
                        Instr::simple(Pc::new(0x304), Op::Alu { latency: 1 }).with_dst(1),
                    );
                }
            }
            // Claim a slot: FAA on the shared head pointer.
            queue.push_back(Instr::simple(
                Pc::new(0x340),
                Op::Atomic {
                    rmw: RmwKind::Faa(1),
                    addr: Addr::new(RING_BASE),
                },
            ));
        })
    }

    fn save_state(&self, w: &mut Writer) {
        self.ops.encode(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.ops = OpQueue::decode(r)?;
        Ok(())
    }
}

/// Swap-heavy shared-counter kernel (the paper's `sps`).
///
/// Threads hammer a tiny set of shared counters with `Swap`s interleaved
/// with very little local work.
#[derive(Clone, Debug)]
pub struct SharedCounters {
    ops: OpQueue,
    tid: u64,
    counters: u64,
    work_per_op: u64,
}

impl SharedCounters {
    /// `ops` updates per thread across `counters` shared words, padded with
    /// `work_per_op` local instructions (keep it ≳ 16 so only a few atomics
    /// are in flight per core, as in real code).
    ///
    /// # Panics
    /// Panics if `counters` is zero.
    pub fn new(tid: usize, ops: u64, counters: u64, work_per_op: u64, seed: u64) -> Self {
        assert!(counters > 0, "need at least one counter");
        SharedCounters {
            ops: OpQueue::new(seed ^ (tid as u64).wrapping_mul(0xdead_beef), ops),
            tid: tid as u64,
            counters,
            work_per_op,
        }
    }
}

impl InstrStream for SharedCounters {
    fn next_instr(&mut self) -> Option<Instr> {
        let (tid, counters, work_per_op) = (self.tid, self.counters, self.work_per_op);
        self.ops.next(|rng, queue| {
            for k in 0..work_per_op {
                if k % 4 == 0 {
                    // Interleave private-data loads, as real counter loops do.
                    let addr =
                        Addr::new(COUNTER_BASE + 0x10_0000 * (tid + 1) + rng.below(512) * 64);
                    queue.push_back(Instr::simple(Pc::new(0x404), Op::Load { addr }).with_dst(2));
                } else {
                    queue.push_back(
                        Instr::simple(Pc::new(0x400), Op::Alu { latency: 1 }).with_dst(1),
                    );
                }
            }
            let c = rng.below(counters);
            queue.push_back(Instr::simple(
                Pc::new(0x440),
                Op::Atomic {
                    rmw: RmwKind::Faa(1),
                    addr: Addr::new(COUNTER_BASE + c * 64),
                },
            ));
        })
    }

    fn save_state(&self, w: &mut Writer) {
        self.ops.encode(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.ops = OpQueue::decode(r)?;
        Ok(())
    }
}

/// Concurrent-queue kernel (the paper's `cq`): write the node payload, then
/// CAS the tail pointer on the *same* line — contended, but with strong
/// atomic locality. Eager execution (and forwarding) wins despite contention.
#[derive(Clone, Debug)]
pub struct ConcurrentQueue {
    ops: OpQueue,
    slots: u64,
    work_per_op: u64,
}

impl ConcurrentQueue {
    /// `ops` enqueue operations per thread over `slots` shared queue lines,
    /// padded with `work_per_op` local instructions.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn new(tid: usize, ops: u64, slots: u64, work_per_op: u64, seed: u64) -> Self {
        assert!(slots > 0, "need at least one slot line");
        ConcurrentQueue {
            ops: OpQueue::new(seed ^ (tid as u64).wrapping_mul(0x1234_5678), ops),
            slots,
            work_per_op,
        }
    }
}

impl InstrStream for ConcurrentQueue {
    fn next_instr(&mut self) -> Option<Instr> {
        let (slots, work_per_op) = (self.slots, self.work_per_op);
        self.ops.next(|rng, queue| {
            for _ in 0..work_per_op {
                queue.push_back(Instr::simple(Pc::new(0x500), Op::Alu { latency: 1 }).with_dst(1));
            }
            let slot = rng.below(slots);
            let addr = Addr::new(QUEUE_BASE + slot * 64);
            // Payload store to the node line…
            queue.push_back(Instr::simple(
                Pc::new(0x540),
                Op::Store { addr, value: None },
            ));
            // …then the atomic on the same line: forwarding territory.
            queue.push_back(Instr::simple(
                Pc::new(0x544),
                Op::Atomic {
                    rmw: RmwKind::Faa(1),
                    addr,
                },
            ));
        })
    }

    fn save_state(&self, w: &mut Writer) {
        self.ops.encode(w);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.ops = OpQueue::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: impl InstrStream) -> Vec<Instr> {
        let mut v = Vec::new();
        while let Some(i) = s.next_instr() {
            v.push(i);
        }
        v
    }

    #[test]
    fn pc_kernel_has_one_atomic_per_op_on_one_line() {
        let v = drain(ProducerConsumer::new(0, 20, 8, 1));
        let atomics: Vec<_> = v.iter().filter(|i| i.op.is_atomic()).collect();
        assert_eq!(atomics.len(), 20);
        let lines: std::collections::HashSet<_> = atomics
            .iter()
            .filter_map(|i| i.op.addr())
            .map(|a| a.line())
            .collect();
        assert_eq!(lines.len(), 1, "pc contends on a single line");
    }

    #[test]
    fn sps_kernel_spreads_over_counters() {
        let v = drain(SharedCounters::new(1, 100, 4, 20, 2));
        let lines: std::collections::HashSet<_> = v
            .iter()
            .filter(|i| i.op.is_atomic())
            .filter_map(|i| i.op.addr())
            .map(|a| a.line())
            .collect();
        assert!(lines.len() > 1 && lines.len() <= 4);
    }

    #[test]
    fn cq_kernel_pairs_store_and_atomic_on_same_line() {
        let v = drain(ConcurrentQueue::new(0, 30, 8, 24, 3));
        let mut pairs = 0;
        for w in v.windows(2) {
            if let (Op::Store { addr: sa, .. }, Op::Atomic { addr: aa, .. }) = (w[0].op, w[1].op) {
                assert_eq!(sa, aa);
                pairs += 1;
            }
        }
        assert_eq!(pairs, 30);
    }

    /// The exact streams of each kernel, so a change to a generator shows.
    #[test]
    fn streams_are_pinned() {
        use row_common::persist::{fnv1a, to_bytes};
        let hash = |v: Vec<Instr>| format!("{:016x}", fnv1a(&to_bytes(&v)));
        assert_eq!(
            hash(drain(ProducerConsumer::new(1, 20, 9, 3))),
            "759e5fd9b36f87ea"
        );
        assert_eq!(
            hash(drain(SharedCounters::new(2, 20, 3, 9, 4))),
            "82c32d9f9d6b0887"
        );
        assert_eq!(
            hash(drain(ConcurrentQueue::new(3, 20, 3, 9, 5))),
            "c3b346e160b0ab79"
        );
    }

    #[test]
    fn kernels_are_deterministic_per_thread() {
        let a = drain(ProducerConsumer::new(2, 10, 4, 9));
        let b = drain(ProducerConsumer::new(2, 10, 4, 9));
        assert_eq!(a, b);
        let c = drain(ProducerConsumer::new(3, 10, 4, 9));
        assert_ne!(a, c);
    }
}
