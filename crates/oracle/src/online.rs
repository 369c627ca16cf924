//! Per-operation linearizability checking: the crate's only checks.
//!
//! Both oracle modes run the same checks through [`OnlineChecker`]; they
//! differ only in when the checks run and in journal memory. In online mode
//! the simulation loop drains the journal every cycle and feeds each record
//! to [`OnlineChecker::observe`], which checks it against the sequential
//! golden model *at the moment it is journaled* and then discards it, so a
//! violation surfaces at the operation that caused it and state stays
//! O(live words) — the golden word store, per-core counters, and a short
//! tail of recent records kept for failure triage. The end-state
//! [`crate::check`] feeds a journal retained for the whole run (hundreds of
//! millions of records over a soak) to a fresh checker after the run drains.
//!
//! Per-record checking covers the strongest property the oracle has —
//! monotone FAA return-value chains and CAS/Swap witness ordering per key
//! (check 1 in the crate docs) — and catches bugs the end-of-run checks
//! provably cannot: a lost FAA later compensated by a duplicated one nets
//! to zero in the final state and in per-core counts, but the first
//! operation to read the word between the two halves observes a value the
//! golden model can refute. [`OnlineChecker::finish`] then performs the
//! end-of-run checks (exactly-once application per core, final memory
//! state) without any journal replay.
//!
//! The checker implements [`Codec`], so a mid-soak checkpoint carries the
//! checker's exact state and a restored run resumes checking bit-exactly.

use std::collections::VecDeque;

use row_common::ids::CoreId;
use row_common::persist::{Codec, PersistError, Reader, Writer};
use row_mem::{OpKind, OpRecord};

use crate::{OracleMismatch, OracleReport, SequentialMachine};

/// Journal records retained for triage after a violation. Big enough to
/// show the interleaving around the offending operation, small enough to
/// keep the checker O(live keys).
pub const TAIL_CAP: usize = 64;

/// Streaming per-operation checker against the sequential golden model.
///
/// # Example
/// ```
/// use row_oracle::OnlineChecker;
/// use row_common::ids::{Addr, CoreId};
/// use row_common::rmw::RmwKind;
/// use row_common::Cycle;
/// use row_mem::{OpKind, OpRecord};
///
/// let mut c = OnlineChecker::new(1);
/// let rec = OpRecord {
///     core: CoreId::new(0),
///     at: Cycle::ZERO,
///     kind: OpKind::Rmw { addr: Addr::new(0x100), rmw: RmwKind::Faa(1), observed_old: 0 },
/// };
/// c.observe(&rec).unwrap();
/// assert_eq!(c.ops_seen(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineChecker {
    golden: SequentialMachine,
    /// Per-core journaled RMW-application counts, indexed by core.
    journaled: Vec<u64>,
    rmws: u64,
    stores: u64,
    /// Total records observed; the next record's journal index.
    seen: u64,
    /// The most recent [`TAIL_CAP`] records, ending with the offending one
    /// after a failed [`OnlineChecker::observe`].
    tail: VecDeque<OpRecord>,
}

impl OnlineChecker {
    /// An empty checker for a machine of `cores` cores.
    pub fn new(cores: usize) -> Self {
        OnlineChecker {
            golden: SequentialMachine::new(),
            journaled: vec![0; cores],
            rmws: 0,
            stores: 0,
            seen: 0,
            tail: VecDeque::with_capacity(TAIL_CAP),
        }
    }

    /// Checks one journal record against the golden model and applies it.
    ///
    /// # Errors
    /// [`OracleMismatch::RmwReturn`] when an RMW's observed old value
    /// disagrees with the sequential replay at this point in the apply
    /// order. The offending record is retained at the back of
    /// [`OnlineChecker::tail`].
    pub fn observe(&mut self, rec: &OpRecord) -> Result<(), OracleMismatch> {
        if self.tail.len() == TAIL_CAP {
            self.tail.pop_front();
        }
        self.tail.push_back(*rec);
        let index = self.seen as usize;
        self.seen += 1;
        let replayed_old = self.golden.apply(rec);
        match rec.kind {
            OpKind::Rmw {
                addr, observed_old, ..
            } => {
                self.rmws += 1;
                if let Some(n) = self.journaled.get_mut(rec.core.index()) {
                    *n += 1;
                }
                if observed_old != replayed_old {
                    return Err(OracleMismatch::RmwReturn {
                        index,
                        core: rec.core,
                        addr,
                        expected: replayed_old,
                        observed: observed_old,
                    });
                }
            }
            OpKind::Store { .. } => self.stores += 1,
        }
        Ok(())
    }

    /// End-of-run checks: exactly-once application per core and final
    /// memory state, without a replay.
    ///
    /// # Errors
    /// [`OracleMismatch::AtomicCount`] or [`OracleMismatch::FinalState`].
    pub fn finish(
        &self,
        machine_words: &std::collections::HashMap<u64, u64>,
        retired_atomics: &[u64],
    ) -> Result<OracleReport, OracleMismatch> {
        for (i, (&j, &r)) in self.journaled.iter().zip(retired_atomics).enumerate() {
            if j != r {
                return Err(OracleMismatch::AtomicCount {
                    core: CoreId::new(i as u16),
                    journaled: j,
                    retired: r,
                });
            }
        }
        let mut report = OracleReport {
            rmws: self.rmws,
            stores: self.stores,
            words_checked: 0,
        };
        // Deterministic order so a failing run always names the same word
        // first.
        let mut touched: Vec<(&u64, &u64)> = self.golden.words().iter().collect();
        touched.sort_unstable();
        for (&addr, &expected) in touched {
            let actual = machine_words.get(&addr).copied().unwrap_or(0);
            if actual != expected {
                return Err(OracleMismatch::FinalState {
                    addr,
                    expected,
                    actual,
                });
            }
            report.words_checked += 1;
        }
        Ok(report)
    }

    /// Total journal records observed so far.
    pub const fn ops_seen(&self) -> u64 {
        self.seen
    }

    /// RMW applications observed so far.
    pub const fn rmws(&self) -> u64 {
        self.rmws
    }

    /// Distinct words the golden model holds — the checker's live-key
    /// footprint (its memory is O(this), not O(ops observed)).
    pub fn live_words(&self) -> usize {
        self.golden.words().len()
    }

    /// The retained journal tail (oldest first), for triage bundles.
    pub fn tail(&self) -> impl Iterator<Item = &OpRecord> {
        self.tail.iter()
    }

    /// Journal index of the first record in [`OnlineChecker::tail`].
    pub fn tail_start_index(&self) -> u64 {
        self.seen - self.tail.len() as u64
    }
}

impl Codec for OnlineChecker {
    fn encode(&self, w: &mut Writer) {
        self.golden.words().encode(w);
        self.journaled.encode(w);
        w.put_u64(self.rmws);
        w.put_u64(self.stores);
        w.put_u64(self.seen);
        self.tail.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let words = std::collections::HashMap::<u64, u64>::decode(r)?;
        let mut golden = SequentialMachine::new();
        *golden.words_mut() = words;
        Ok(OnlineChecker {
            golden,
            journaled: Vec::<u64>::decode(r)?,
            rmws: r.get_u64()?,
            stores: r.get_u64()?,
            seen: r.get_u64()?,
            tail: VecDeque::<OpRecord>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::ids::Addr;
    use row_common::rmw::RmwKind;
    use row_common::Cycle;
    use std::collections::HashMap;

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
    fn clean_stream_passes_and_finishes() {
        let mut c = OnlineChecker::new(2);
        for rec in [
            store(0, 0x100, 5),
            faa(0, 0x100, 2, 5),
            faa(1, 0x100, 2, 7),
            store(1, 0x200, 1),
        ] {
            c.observe(&rec).unwrap();
        }
        let words = HashMap::from([(0x100, 9), (0x200, 1)]);
        let report = c.finish(&words, &[1, 1]).unwrap();
        assert_eq!(report.rmws, 2);
        assert_eq!(report.stores, 2);
        assert_eq!(report.words_checked, 2);
        assert_eq!(c.live_words(), 2);
    }

    #[test]
    fn net_zero_lost_plus_duplicated_faa_is_caught_at_the_op() {
        // Core 0's FAA is lost (journal claims applied, memory unchanged);
        // core 1's FAA is applied twice but journaled once. End state and
        // per-core counts are clean — only the per-op check sees it.
        let mut c = OnlineChecker::new(2);
        c.observe(&faa(0, 0x100, 3, 0)).unwrap(); // lost: golden now 3
        let err = c.observe(&faa(1, 0x100, 3, 0)).unwrap_err(); // machine saw 0
        match err {
            OracleMismatch::RmwReturn {
                index,
                expected,
                observed,
                ..
            } => {
                assert_eq!(index, 1);
                assert_eq!(expected, 3);
                assert_eq!(observed, 0);
            }
            other => panic!("wrong mismatch: {other:?}"),
        }
        // The end-state view of the same bug is clean: word = 6 (0 lost,
        // +3 applied twice), one journaled RMW per core.
        let end = crate::check(
            &[faa(0, 0x100, 3, 0), faa(1, 0x100, 3, 3)],
            &HashMap::from([(0x100, 6)]),
            &[1, 1],
        );
        assert!(end.is_ok(), "end-state oracle is blind to the net-zero bug");
    }

    #[test]
    fn cas_witness_ordering_is_checked() {
        let mut c = OnlineChecker::new(1);
        c.observe(&faa(0, 0x40, 3, 0)).unwrap();
        let cas = |expected: u64, new: u64, observed_old: u64| OpRecord {
            core: CoreId::new(0),
            at: Cycle::ZERO,
            kind: OpKind::Rmw {
                addr: Addr::new(0x40),
                rmw: RmwKind::Cas { expected, new },
                observed_old,
            },
        };
        // First CAS succeeds: 3 -> 10. A second CAS claiming to have
        // observed 3 again contradicts the witness order (the word is 10).
        c.observe(&cas(3, 10, 3)).unwrap();
        let err = c.observe(&cas(3, 99, 3)).unwrap_err();
        assert!(matches!(err, OracleMismatch::RmwReturn { .. }));
    }

    #[test]
    fn duplicate_application_is_caught_by_finish() {
        let mut c = OnlineChecker::new(1);
        c.observe(&faa(0, 0x100, 1, 0)).unwrap();
        c.observe(&faa(0, 0x100, 1, 1)).unwrap();
        let err = c.finish(&HashMap::from([(0x100, 2)]), &[1]).unwrap_err();
        assert_eq!(
            err,
            OracleMismatch::AtomicCount {
                core: CoreId::new(0),
                journaled: 2,
                retired: 1,
            }
        );
    }

    #[test]
    fn final_state_divergence_is_caught_by_finish() {
        let mut c = OnlineChecker::new(1);
        c.observe(&store(0, 0x100, 5)).unwrap();
        let err = c.finish(&HashMap::from([(0x100, 6)]), &[0]).unwrap_err();
        assert!(matches!(err, OracleMismatch::FinalState { .. }));
    }

    #[test]
    fn memory_is_live_words_not_ops() {
        let mut c = OnlineChecker::new(1);
        for old in 0..10_000 {
            c.observe(&faa(0, 0x100, 1, old)).unwrap();
        }
        assert_eq!(c.ops_seen(), 10_000);
        assert_eq!(c.live_words(), 1);
        assert_eq!(c.tail().count(), TAIL_CAP);
        assert_eq!(c.tail_start_index(), 10_000 - TAIL_CAP as u64);
    }

    #[test]
    fn codec_round_trip_is_bit_exact() {
        let mut c = OnlineChecker::new(3);
        let mut old = 0;
        for i in 0..200u64 {
            c.observe(&faa((i % 3) as u16, 0x100, 1, old)).unwrap();
            old += 1;
            c.observe(&store(0, 0x200 + 8 * (i % 5), i)).unwrap();
        }
        let back = row_common::persist::roundtrip(&c).unwrap();
        assert_eq!(back, c);
        // And the restored checker keeps checking from the same point.
        let mut a = c.clone();
        let mut b = back;
        assert_eq!(
            a.observe(&faa(0, 0x100, 1, old)),
            b.observe(&faa(0, 0x100, 1, old))
        );
    }
}
