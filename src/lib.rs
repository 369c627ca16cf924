//! `norush` — a from-scratch Rust reproduction of *“No Rush in Executing
//! Atomic Instructions”* (HPCA 2025).
//!
//! The paper proposes **Rush or Wait (RoW)**: a 64-byte hardware mechanism
//! that predicts, per atomic RMW instruction, whether it will face contention
//! and schedules it *eager* (issue as soon as operands are ready) or *lazy*
//! (wait to be the oldest memory instruction with a drained store buffer) to
//! minimize cacheline lock time where it matters.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `row-common` | ids, cycles, Table I configuration, RNG, stats |
//! | [`noc`] | `row-noc` | 2-D mesh interconnect (GARNET substitute) |
//! | [`mem`] | `row-mem` | caches + MESI directory + cache locking (GEMS substitute) |
//! | [`cpu`] | `row-cpu` | the out-of-order x86-TSO core with unfenced atomics |
//! | [`core_row`] | `row-core` | **the contribution**: contention detectors + predictor |
//! | [`workloads`] | `row-workloads` | benchmark models + the Fig. 2 microbenchmark |
//! | [`sim`] | `row-sim` | the multicore machine and per-figure experiment runner |
//! | [`check`] | `row-check` | robustness layer: invariant sweep + stall diagnostics |
//! | [`oracle`] | `row-oracle` | linearizability oracle (sequential golden model), online or end-state |
//!
//! # Quickstart
//!
//! ```
//! use norush::sim::{run_benchmark, ExperimentConfig, Variant};
//! use norush::workloads::Benchmark;
//!
//! let mut exp = ExperimentConfig::quick();
//! exp.cores = 4;
//! exp.instructions = 2_000;
//! let run = |v: Variant| run_benchmark(&v.apply(exp.system()), Benchmark::Pc, &exp);
//! let eager = run(Variant::eager()).expect("simulates");
//! let lazy = run(Variant::lazy()).expect("simulates");
//! // `pc` is highly contended: waiting beats rushing.
//! assert!(lazy.cycles < eager.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use row_check as check;
pub use row_common as common;
pub use row_core as core_row;
pub use row_cpu as cpu;
pub use row_mem as mem;
pub use row_noc as noc;
pub use row_oracle as oracle;
pub use row_sim as sim;
pub use row_workloads as workloads;

pub use row_common::{Cycle, SystemConfig};
pub use row_core::{ExecMode, RowEngine};
pub use row_sim::{ExperimentConfig, Machine, RowVariant, RunResult, SimError};
pub use row_workloads::Benchmark;
