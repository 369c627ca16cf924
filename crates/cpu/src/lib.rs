//! Out-of-order x86-TSO core model with unfenced atomics.
//!
//! The in-house core model of the paper, rebuilt from scratch:
//!
//! * [`instr`] — the decoded-instruction vocabulary and the
//!   [`InstrStream`] front-end trait (the Sniper substitute).
//! * [`branch`] — TAGE-lite direction prediction (Table I: TAGE-SC-L).
//! * [`storeset`] — StoreSet memory-dependence prediction (Table I).
//! * [`core`] — the pipeline: 512-entry ROB, 192-entry LQ, 128-entry TSO SB,
//!   16-entry Atomic Queue, store→load forwarding, eager/lazy/RoW atomic
//!   scheduling, cache locking via the memory system, and a fenced mode for
//!   the Fig. 2 microbenchmark.
//! * [`stats`] — per-core counters for every figure.
//!
//! # Example
//!
//! ```
//! use row_common::{Cycle, SystemConfig, ids::{Addr, CoreId, Pc}};
//! use row_cpu::instr::{Instr, Op, RmwKind, VecStream};
//! use row_cpu::Core;
//! use row_mem::MemorySystem;
//!
//! let cfg = SystemConfig::small(1);
//! let prog = vec![Instr::simple(
//!     Pc::new(0x40),
//!     Op::Atomic { rmw: RmwKind::Faa(1), addr: Addr::new(0x1000) },
//! )];
//! let mut mem = MemorySystem::new(&cfg);
//! let mut core = Core::new(CoreId::new(0), cfg.core, cfg.mem.l1d.hit_latency,
//!                          Box::new(VecStream::new(prog)));
//! let mut now = Cycle::ZERO;
//! while !core.finished() && now.raw() < 100_000 {
//!     for ev in mem.tick(now) {
//!         core.handle_mem_event(&ev, now, &mut mem);
//!     }
//!     core.cycle(now, &mut mem);
//!     now += 1;
//! }
//! assert_eq!(mem.read_word(Addr::new(0x1000)), 1);
//! ```
//!
//! [`InstrStream`]: instr::InstrStream

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod core;
pub mod instr;
pub mod stats;
pub mod storeset;
mod window;

pub use crate::core::{Core, LoadObservation, ParkedFault, Sleep, SleepCause, WakeSource};
pub use crate::instr::{Instr, InstrStream, Op, RmwKind};
pub use crate::stats::CoreStats;
