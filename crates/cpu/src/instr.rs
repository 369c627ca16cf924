//! The instruction vocabulary the simulated core executes.
//!
//! Instructions come from an [`InstrStream`] (the Sniper-front-end
//! substitute): a deterministic per-thread generator that supplies decoded
//! instructions with explicit register dependencies, resolved branch
//! outcomes, and concrete memory addresses. Atomic RMWs appear as single
//! instructions; the core cracks them into the Free-Atomics µ-op sequence
//! (`load_lock` / ALU / `store_unlock`) internally.

use row_common::ids::{Addr, Pc};
use row_common::persist::{PersistError, Reader, Writer};

/// An architectural register index (the traces use `0..NUM_REGS`).
pub type Reg = u8;

/// Number of architectural registers trace generators may use.
pub const NUM_REGS: usize = 32;

/// The modify operation of an atomic RMW (re-exported from
/// [`row_common::rmw`] so the memory system can execute far atomics).
pub use row_common::rmw::RmwKind;

/// One decoded instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// An arithmetic/logic operation with the given execution latency.
    Alu {
        /// Execution latency in cycles (1 for simple ops, more for mul/div).
        latency: u8,
    },
    /// A load from `addr`.
    Load {
        /// Byte address accessed.
        addr: Addr,
    },
    /// A store to `addr`, optionally writing `value` to the functional word
    /// store when it drains (tests use this to check ordering).
    Store {
        /// Byte address accessed.
        addr: Addr,
        /// Value written functionally; `None` for timing-only stores.
        value: Option<u64>,
    },
    /// An atomic RMW on `addr` (with the x86 `lock` prefix, unfenced).
    Atomic {
        /// The modify operation.
        rmw: RmwKind,
        /// Byte address accessed (8-byte aligned in practice).
        addr: Addr,
    },
    /// A conditional branch whose resolved direction is `taken`.
    Branch {
        /// Architectural outcome from the trace.
        taken: bool,
    },
    /// An explicit `mfence`.
    Fence,
}

impl Op {
    /// Whether this instruction occupies a load-queue entry.
    pub const fn uses_lq(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Atomic { .. })
    }

    /// Whether this instruction occupies a store-buffer entry.
    pub const fn uses_sb(&self) -> bool {
        matches!(self, Op::Store { .. } | Op::Atomic { .. })
    }

    /// Whether this is an atomic RMW.
    pub const fn is_atomic(&self) -> bool {
        matches!(self, Op::Atomic { .. })
    }

    /// The memory address accessed, if any.
    pub const fn addr(&self) -> Option<Addr> {
        match *self {
            Op::Load { addr } | Op::Store { addr, .. } | Op::Atomic { addr, .. } => Some(addr),
            _ => None,
        }
    }
}

/// A decoded instruction with its register dependencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Instr {
    /// Program counter (identifies the static instruction; indexes RoW's
    /// contention predictor for atomics).
    pub pc: Pc,
    /// The operation.
    pub op: Op,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Destination register.
    pub dst: Option<Reg>,
}

impl Instr {
    /// A dependency-free instruction (convenience constructor).
    pub fn simple(pc: Pc, op: Op) -> Self {
        Instr {
            pc,
            op,
            srcs: [None, None],
            dst: None,
        }
    }

    /// Builder-style: sets the source registers.
    pub fn with_srcs(mut self, a: Option<Reg>, b: Option<Reg>) -> Self {
        self.srcs = [a, b];
        self
    }

    /// Builder-style: sets the destination register.
    pub fn with_dst(mut self, dst: Reg) -> Self {
        self.dst = Some(dst);
        self
    }
}

/// A per-thread supplier of decoded instructions (the trace front-end).
///
/// Implementations must be deterministic: two iterations from equal initial
/// state must produce equal streams (the core may *not* rewind the stream —
/// it buffers in-flight instructions itself for squash replay). Streams are
/// `Send` so whole machines can run on worker threads in the bench harness.
pub trait InstrStream: Send {
    /// The next instruction in program order, or `None` when the thread's
    /// parallel phase is complete.
    fn next_instr(&mut self) -> Option<Instr>;

    /// Appends the stream's mutable state (generator position, RNG, queued
    /// instructions) to `w` for checkpointing. There is no default: a
    /// stream that skipped this would replay from its beginning after a
    /// restore.
    fn save_state(&self, w: &mut Writer);

    /// Restores the stream's mutable state written by
    /// [`InstrStream::save_state`]. The stream must have been constructed
    /// identically (same program/seed) to the one that was saved.
    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError>;
}

/// A trivial stream over a vector (tests and microbenchmarks).
#[derive(Clone, Debug, Default)]
pub struct VecStream {
    instrs: Vec<Instr>,
    pos: usize,
}

impl VecStream {
    /// Creates a stream that yields `instrs` in order.
    pub fn new(instrs: Vec<Instr>) -> Self {
        VecStream { instrs, pos: 0 }
    }
}

impl InstrStream for VecStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let i = self.instrs.get(self.pos).copied();
        self.pos += 1;
        i
    }

    fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.pos as u64);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.pos = r.get_u64()? as usize;
        Ok(())
    }
}

row_common::codec_enum!(Op {
    0 => Alu { latency },
    1 => Load { addr },
    2 => Store { addr, value },
    3 => Atomic { rmw, addr },
    4 => Branch { taken },
    5 => Fence,
});

row_common::codec_struct!(Instr { pc, op, srcs, dst });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwKind::Faa(1).apply(41), (42, true));
        assert_eq!(RmwKind::Swap(5).apply(3), (5, true));
        assert_eq!(
            RmwKind::Cas {
                expected: 3,
                new: 7
            }
            .apply(3),
            (7, true)
        );
        assert_eq!(
            RmwKind::Cas {
                expected: 3,
                new: 7
            }
            .apply(4),
            (4, false)
        );
        assert_eq!(RmwKind::Faa(1).apply(u64::MAX), (0, true), "wrapping add");
    }

    #[test]
    fn queue_usage() {
        let l = Op::Load { addr: Addr::new(8) };
        let s = Op::Store {
            addr: Addr::new(8),
            value: None,
        };
        let a = Op::Atomic {
            rmw: RmwKind::Faa(1),
            addr: Addr::new(8),
        };
        assert!(l.uses_lq() && !l.uses_sb());
        assert!(!s.uses_lq() && s.uses_sb());
        assert!(a.uses_lq() && a.uses_sb() && a.is_atomic());
        assert!(!Op::Fence.uses_lq());
    }

    #[test]
    fn addr_extraction() {
        assert_eq!(
            Op::Load {
                addr: Addr::new(64)
            }
            .addr(),
            Some(Addr::new(64))
        );
        assert_eq!(Op::Alu { latency: 1 }.addr(), None);
    }

    #[test]
    fn builders() {
        let i = Instr::simple(Pc::new(4), Op::Alu { latency: 1 })
            .with_srcs(Some(1), None)
            .with_dst(2);
        assert_eq!(i.srcs, [Some(1), None]);
        assert_eq!(i.dst, Some(2));
    }

    #[test]
    fn vec_stream_yields_in_order_then_none() {
        let mut s = VecStream::new(vec![
            Instr::simple(Pc::new(0), Op::Alu { latency: 1 }),
            Instr::simple(Pc::new(4), Op::Fence),
        ]);
        assert_eq!(s.next_instr().unwrap().pc, Pc::new(0));
        assert_eq!(s.next_instr().unwrap().pc, Pc::new(4));
        assert!(s.next_instr().is_none());
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (to_bytes(&Op::Alu { latency: 0x11 }), "0011"),
            (
                to_bytes(&Op::Load {
                    addr: Addr::new(0x22),
                }),
                "012200000000000000",
            ),
            (
                to_bytes(&Op::Store {
                    addr: Addr::new(0x33),
                    value: Some(0x44),
                }),
                "023300000000000000014400000000000000",
            ),
            (
                to_bytes(&Op::Atomic {
                    rmw: RmwKind::Faa(0x55),
                    addr: Addr::new(0x66),
                }),
                "030055000000000000006600000000000000",
            ),
            (to_bytes(&Op::Branch { taken: true }), "0401"),
            (to_bytes(&Op::Fence), "05"),
            (
                to_bytes(&Instr {
                    pc: Pc::new(0x77),
                    op: Op::Load {
                        addr: Addr::new(0x88),
                    },
                    srcs: [Some(1), Some(2)],
                    dst: Some(3),
                }),
                "7700000000000000018800000000000000010101020103",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
