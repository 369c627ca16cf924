//! Shared foundations for the `norush` simulator workspace.
//!
//! This crate contains everything the other crates agree on:
//!
//! * [`ids`] — strongly-typed identifiers ([`ids::CoreId`], [`ids::Addr`],
//!   [`ids::LineAddr`], …).
//! * [`clock`] — the global [`clock::Cycle`] time base.
//! * [`config`] — the full system configuration, including the paper's
//!   Table I parameters via [`SystemConfig::alder_lake_32c`][config::SystemConfig::alder_lake_32c].
//! * [`rng`] — a small deterministic [`SplitMix64`][rng::SplitMix64] PRNG so
//!   simulations are reproducible bit-for-bit.
//! * [`stats`] — counters, histograms and latency-breakdown accumulators used
//!   to regenerate the paper's figures.
//! * [`sched`] — a generic cycle-keyed event wheel used by the memory system.
//! * [`fastmap`] — an open-addressed, arena-backed hash map with
//!   deterministic iteration order for the simulation hot paths.
//! * [`persist`] — the versioned binary snapshot codec
//!   ([`Codec`][persist::Codec]/[`Persist`][persist::Persist]) behind
//!   deterministic checkpoint/restore.
//! * [`json`] — a minimal JSON reader/writer: every results file and report
//!   (`BENCH_<fig>.json`, soak, fuzz, litmus) is rendered by it, and sweep
//!   resume reads results files back with it.
//! * [`coverage`] — the protocol transition-coverage map driving the
//!   schedule fuzzer (`norush fuzz`) and its dead-protocol-arm report.
//! * [`choice`] — thread-local decision-point hooks (message delivery,
//!   atomic commit timing) behind the bounded-exhaustive schedule explorer
//!   (`norush explore`).
//!
//! # Example
//!
//! ```
//! use row_common::config::SystemConfig;
//!
//! let cfg = SystemConfig::alder_lake_32c();
//! assert_eq!(cfg.cores, 32);
//! assert_eq!(cfg.core.rob_entries, 512);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod choice;
pub mod clock;
pub mod config;
pub mod coverage;
pub mod fastmap;
pub mod ids;
pub mod json;
pub mod persist;
pub mod rmw;
pub mod rng;
pub mod sched;
pub mod stats;

pub use clock::Cycle;
pub use config::SystemConfig;
pub use ids::{Addr, CoreId, LineAddr, Pc};
