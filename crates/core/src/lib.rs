//! Rush or Wait (RoW) — the paper's contribution.
//!
//! RoW decides, per atomic RMW instruction, whether to execute it *eager*
//! (as soon as operands are ready) or *lazy* (once it is the oldest memory
//! instruction and the store buffer has drained), based on a per-PC
//! contention prediction:
//!
//! * [`predictor`] — the 64-entry, 4-bit-counter, XOR-indexed contention
//!   predictor with the *Up/Down* and *Saturate on Contention* update
//!   policies.
//! * [`detect`] — the three contention-detection mechanisms that train it:
//!   execution window, ready window, and ready window + directory-latency
//!   heuristic (14-bit wrapping timestamps, 400-cycle threshold).
//! * [`engine`] — [`RowEngine`], the per-core glue: decide at allocation,
//!   train at unlock, track Fig. 12 accuracy.
//!
//! The total hardware budget is 64 bytes
//! ([`RowEngine::storage_bits`](engine::RowEngine::storage_bits) returns 512
//! bits for the paper's 16-entry AQ), plus a 14-bit subtractor and comparator.
//!
//! # Example
//!
//! ```
//! use row_common::config::RowConfig;
//! use row_common::ids::Pc;
//! use row_core::{ExecMode, RowEngine};
//!
//! let mut row = RowEngine::new(RowConfig::best());
//! let pc = Pc::new(0x401_000);
//! // Cold predictors rush (eager)…
//! assert_eq!(row.decide(pc), ExecMode::Eager);
//! // …until the detectors see contention, after which this PC waits (lazy).
//! row.complete(pc, false, true);
//! row.complete(pc, false, true);
//! assert_eq!(row.decide(pc), ExecMode::Lazy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod engine;
pub mod predictor;

pub use engine::{ExecMode, RowEngine};
pub use predictor::ContentionPredictor;
