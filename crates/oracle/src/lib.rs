//! Differential linearizability oracle for the timing simulator.
//!
//! The memory system journals every architectural write (atomic RMW
//! application and committed store) in the order it hits the functional word
//! store. That order is a linearization witness. This crate applies it to a
//! trivially-correct *sequential* golden model ([`SequentialMachine`]) and
//! cross-checks three things against the timing machine:
//!
//! 1. **RMW return values** — each journaled RMW records the old value the
//!    machine observed; the golden model must observe the same value at the
//!    same point in the order. A lost or duplicated atomic application
//!    shifts every later observation on that address.
//! 2. **Atomic counts** — the number of journaled RMW applications per core
//!    must equal the core's retired-atomic count. A duplicate delivery that
//!    applies an atomic twice journals twice but retires once.
//! 3. **Final memory state** — for every word the journal touches, the
//!    machine's final functional store must equal the golden value. (Words
//!    only ever written by raw pre-seeding are outside the journal and
//!    deliberately not checked.)
//!
//! The two oracle modes run this one set of checks, all of it in
//! [`OnlineChecker`]: check 1 per record ([`OnlineChecker::observe`]), checks
//! 2 and 3 once the run drains ([`OnlineChecker::finish`]). They differ only
//! in when the checks run and in journal memory. Online mode
//! (`CheckConfig::oracle_online`) feeds the checker every cycle and keeps no
//! journal; the end-state mode (`CheckConfig::oracle`) keeps the whole
//! journal and [`check`] feeds it to a fresh checker at the end of the run.
//!
//! None of these checks involve timing, so the oracle is valid for any
//! scheduling policy (eager, lazy, RoW, far) and — the point of this crate —
//! under lossy chaos, where the recoverable transport must deliver every
//! protocol message *exactly once* for the journal to check cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use row_common::ids::{Addr, CoreId};
use row_mem::{OpKind, OpRecord};

pub mod online;

pub use online::OnlineChecker;

/// Masks an address down to its 64-bit word base, matching the timing
/// machine's functional store keying.
fn word_base(addr: Addr) -> u64 {
    addr.raw() & !7
}

/// The golden model: a flat word store applied to sequentially, with no
/// timing, caches, network, or concurrency anywhere near it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SequentialMachine {
    words: HashMap<u64, u64>,
}

impl SequentialMachine {
    /// An empty machine (all words read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word containing `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        self.words.get(&word_base(addr)).copied().unwrap_or(0)
    }

    /// Applies one journal record, returning the old value an RMW observed
    /// (stores return the overwritten value, which callers may ignore).
    pub fn apply(&mut self, rec: &OpRecord) -> u64 {
        match rec.kind {
            OpKind::Rmw { addr, rmw, .. } => {
                let old = self.read(addr);
                let (new, wrote) = rmw.apply(old);
                if wrote {
                    self.words.insert(word_base(addr), new);
                }
                old
            }
            OpKind::Store { addr, value } => {
                let old = self.read(addr);
                self.words.insert(word_base(addr), value);
                old
            }
        }
    }

    /// The words written so far (word base address → value).
    pub fn words(&self) -> &HashMap<u64, u64> {
        &self.words
    }

    /// Mutable word store, for restoring a checkpointed golden model.
    pub(crate) fn words_mut(&mut self) -> &mut HashMap<u64, u64> {
        &mut self.words
    }
}

/// Summary of a successful oracle check.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OracleReport {
    /// RMW applications replayed.
    pub rmws: u64,
    /// Plain stores replayed.
    pub stores: u64,
    /// Distinct words cross-checked against the machine's final state.
    pub words_checked: u64,
}

/// A divergence between the timing machine and the sequential golden model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleMismatch {
    /// A journaled RMW observed a different old value than the sequential
    /// replay produces at the same position in the apply order.
    RmwReturn {
        /// Position of the record in the journal.
        index: usize,
        /// Core that performed the RMW.
        core: CoreId,
        /// Address operated on.
        addr: Addr,
        /// Old value the golden model reads at this point.
        expected: u64,
        /// Old value the timing machine actually observed.
        observed: u64,
    },
    /// A word the journal touched ends the run with a different value in
    /// the machine's functional store than in the golden model.
    FinalState {
        /// Word base address.
        addr: u64,
        /// Final value per the golden model.
        expected: u64,
        /// Final value in the timing machine.
        actual: u64,
    },
    /// A core's journaled RMW-application count disagrees with its
    /// retired-atomic count — an atomic was applied twice (duplicate
    /// delivery) or never (lost without retransmission).
    AtomicCount {
        /// The core.
        core: CoreId,
        /// RMW applications recorded in the journal for this core.
        journaled: u64,
        /// Atomics the core retired.
        retired: u64,
    },
}

impl std::fmt::Display for OracleMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleMismatch::RmwReturn {
                index,
                core,
                addr,
                expected,
                observed,
            } => write!(
                f,
                "oracle: journal[{index}] rmw at {addr} by core {core} observed \
                 {observed} but sequential replay expects {expected}"
            ),
            OracleMismatch::FinalState {
                addr,
                expected,
                actual,
            } => write!(
                f,
                "oracle: final word at {addr:#x} is {actual} but sequential \
                 replay expects {expected}"
            ),
            OracleMismatch::AtomicCount {
                core,
                journaled,
                retired,
            } => write!(
                f,
                "oracle: core {core} journaled {journaled} rmw applications \
                 but retired {retired} atomics"
            ),
        }
    }
}

impl std::error::Error for OracleMismatch {}

/// Checks a retained `journal` after the run: a fresh [`OnlineChecker`] fed
/// every record, then [`OnlineChecker::finish`].
///
/// * `machine_words` — the machine's functional word store at end of run
///   (word base address → value; absent words read as zero).
/// * `retired_atomics` — per-core retired-atomic counts, indexed by core.
///
/// Returns the first divergence found, or a summary of what was checked.
pub fn check(
    journal: &[OpRecord],
    machine_words: &HashMap<u64, u64>,
    retired_atomics: &[u64],
) -> Result<OracleReport, OracleMismatch> {
    let mut checker = OnlineChecker::new(retired_atomics.len());
    for rec in journal {
        checker.observe(rec)?;
    }
    checker.finish(machine_words, retired_atomics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::rmw::RmwKind;
    use row_common::Cycle;

    fn faa(core: u16, addr: u64, by: u64, observed_old: u64) -> OpRecord {
        OpRecord {
            core: CoreId::new(core),
            at: Cycle::ZERO,
            kind: OpKind::Rmw {
                addr: Addr::new(addr),
                rmw: RmwKind::Faa(by),
                observed_old,
            },
        }
    }

    fn store(core: u16, addr: u64, value: u64) -> OpRecord {
        OpRecord {
            core: CoreId::new(core),
            at: Cycle::ZERO,
            kind: OpKind::Store {
                addr: Addr::new(addr),
                value,
            },
        }
    }

    #[test]
    fn clean_journal_passes() {
        let journal = vec![
            store(0, 0x100, 5),
            faa(0, 0x100, 2, 5),
            faa(1, 0x100, 2, 7),
            store(1, 0x200, 1),
        ];
        let words = HashMap::from([(0x100, 9), (0x200, 1)]);
        let report = check(&journal, &words, &[1, 1]).unwrap();
        assert_eq!(report.rmws, 2);
        assert_eq!(report.stores, 2);
        assert_eq!(report.words_checked, 2);
    }

    #[test]
    fn shifted_rmw_observation_is_caught() {
        // Second FAA claims to have seen 5 again — as if the first
        // application was lost.
        let journal = vec![store(0, 0x100, 5), faa(0, 0x100, 2, 5), faa(1, 0x100, 2, 5)];
        let err = check(&journal, &HashMap::new(), &[1, 1]).unwrap_err();
        match err {
            OracleMismatch::RmwReturn {
                index,
                expected,
                observed,
                ..
            } => {
                assert_eq!(index, 2);
                assert_eq!(expected, 7);
                assert_eq!(observed, 5);
            }
            other => panic!("wrong mismatch: {other:?}"),
        }
    }

    #[test]
    fn duplicate_application_is_caught_by_count() {
        // The journal holds two self-consistent applications but the core
        // only retired one atomic: a duplicated delivery applied it twice.
        let journal = vec![faa(0, 0x100, 1, 0), faa(0, 0x100, 1, 1)];
        let words = HashMap::from([(0x100, 2)]);
        let err = check(&journal, &words, &[1]).unwrap_err();
        assert_eq!(
            err,
            OracleMismatch::AtomicCount {
                core: CoreId::new(0),
                journaled: 2,
                retired: 1,
            }
        );
        assert!(err.to_string().contains("journaled 2"));
    }

    #[test]
    fn final_state_divergence_is_caught() {
        let journal = vec![store(0, 0x100, 5)];
        let words = HashMap::from([(0x100, 6)]);
        let err = check(&journal, &words, &[0]).unwrap_err();
        assert_eq!(
            err,
            OracleMismatch::FinalState {
                addr: 0x100,
                expected: 5,
                actual: 6,
            }
        );
    }

    #[test]
    fn cas_and_swap_replay() {
        let journal = vec![
            faa(0, 0x40, 3, 0),
            OpRecord {
                core: CoreId::new(0),
                at: Cycle::ZERO,
                kind: OpKind::Rmw {
                    addr: Addr::new(0x40),
                    rmw: RmwKind::Cas {
                        expected: 3,
                        new: 10,
                    },
                    observed_old: 3,
                },
            },
            OpRecord {
                core: CoreId::new(0),
                at: Cycle::ZERO,
                kind: OpKind::Rmw {
                    addr: Addr::new(0x40),
                    rmw: RmwKind::Cas {
                        expected: 3,
                        new: 99,
                    },
                    observed_old: 10,
                },
            },
            OpRecord {
                core: CoreId::new(0),
                at: Cycle::ZERO,
                kind: OpKind::Rmw {
                    addr: Addr::new(0x40),
                    rmw: RmwKind::Swap(7),
                    observed_old: 10,
                },
            },
        ];
        let words = HashMap::from([(0x40, 7)]);
        let report = check(&journal, &words, &[4]).unwrap();
        assert_eq!(report.rmws, 4);
    }
}
