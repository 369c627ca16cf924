//! Workload and microbenchmark trace generators — the benchmark-suite
//! substitute.
//!
//! The paper evaluates Splash-4, PARSEC 3.0, and six fine-grain
//! synchronization workloads on a Sniper front-end. Neither the binaries nor
//! the front-end are available, so this crate generates deterministic
//! instruction streams that reproduce the properties those workloads feed
//! into the mechanism under study:
//!
//! * [`profile`] — the parametric generator ([`WorkloadProfile`],
//!   [`ProfileStream`]).
//! * [`suite`] — the 13 named, calibrated benchmark models ([`Benchmark`]).
//! * [`microbench`] — the Fig. 2 single-thread RMW microbenchmark.
//! * [`kernels`] — exact-pattern synchronization kernels (producer/consumer,
//!   shared counters, concurrent queue) for examples and shape tests.
//! * [`lockservice`] — the sharded lock/counter service under open-loop
//!   arrival ([`LockServiceStream`]), the soak harness's workload family.
//! * [`litmus`] — the classic x86-TSO litmus suite ([`LitmusTest`]): tiny
//!   per-core programs with declared allowed/forbidden outcome sets, the
//!   conformance contract behind `norush litmus` and `norush explore`.
//! * [`trace`] — record any stream to a trace file and replay it bit-exactly
//!   (the Sniper-trace analogue).
//!
//! # Example
//!
//! ```
//! use row_cpu::instr::InstrStream;
//! use row_workloads::{Benchmark, ProfileStream};
//!
//! let profile = Benchmark::Pc.profile().with_instructions(1_000);
//! let mut stream = ProfileStream::new(profile, 0, 32, 42);
//! let mut n = 0;
//! while stream.next_instr().is_some() { n += 1; }
//! assert!(n >= 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod litmus;
pub mod lockservice;
pub mod microbench;
pub mod profile;
pub mod suite;
pub mod trace;

pub use litmus::{LitmusTest, OutcomeClass, Probe};
pub use lockservice::{LockServiceConfig, LockServiceStream, ServiceKernel};
pub use microbench::{MicroRmw, MicroVariant, MicrobenchConfig, MicrobenchStream};
pub use profile::{ProfileStream, WorkloadProfile};
pub use suite::Benchmark;
pub use trace::{open_trace, read_trace, record_to_file, write_trace};
