//! Decision-point hooks for the bounded-exhaustive schedule explorer
//! (`norush explore`).
//!
//! The fuzzer (`norush fuzz`) *samples* message-delivery schedules; the
//! explorer *enumerates* them. To enumerate, every source of scheduling
//! nondeterminism the machine contains must surface as an explicit decision
//! point the explorer can both observe and force:
//!
//! * **Delivery** — each protocol message send may be held past its
//!   mesh-computed delivery cycle by [`delivery_delay`] (`row_mem`'s
//!   `send_msg`).
//! * **Commit** — each atomic RMW, at the moment it first becomes
//!   commit-ready, may have its commit held by [`commit_delay`] (`row_cpu`'s
//!   commit stage) — the paper's "no rush" knob turned into an enumerable
//!   choice.
//!
//! A [`Schedule`] is a plain value the explorer hands to the machine it
//! runs (`row_mem`'s `MemorySystem` holds it; cores ask through the memory
//! system). A machine without one takes alternative 0 — the undelayed
//! default — at every point, so normal simulations are bit-for-bit
//! unaffected.
//!
//! The schedule replays a *forced prefix* of alternatives (the explorer's
//! DFS path) and records every decision point encountered, with enough
//! metadata (kind, endpoints, line, cycle) for dynamic partial-order
//! reduction to decide which alternatives commute.

/// Base delay unit, in cycles, for [`ChoiceKind::Delivery`] decision points.
/// Sized to a round trip through a couple of mesh hops so one quantum
/// reliably reorders a message past an unrelated protocol action.
pub const DELIVERY_QUANTUM: u64 = 16;

/// Base delay unit, in cycles, for [`ChoiceKind::Commit`] decision points.
/// Two delivery quanta: long enough to push an atomic's commit past a racing
/// remote request, far below the deadlock watchdog.
pub const COMMIT_QUANTUM: u64 = 32;

/// Alternatives per decision point. Alternative 0 is always the undelayed
/// default schedule; the delay of alternative `k > 0` comes from
/// [`delivery_delay`]/[`commit_delay`].
pub const N_ALTS: u8 = 3;

/// Extra delivery delay, in cycles, for alternative `alt`: `{0, 1, 18}`
/// quanta. Alternative 1 nudges a message one quantum — enough to swap it
/// with a near-simultaneous rival at the same directory bank; alternative 2
/// holds it for an epoch-scale 18 quanta (288 cycles) — past an L3-miss
/// round trip, so a load's request can arrive after a remote store's whole
/// commit-and-drain path. The geometric spacing keeps the explorer's
/// branching factor at [`N_ALTS`] while covering both reordering scales TSO
/// litmus outcomes need.
pub fn delivery_delay(alt: u8) -> u64 {
    [0, 1, 18][usize::from(alt.min(2))] * DELIVERY_QUANTUM
}

/// Extra commit hold, in cycles, for alternative `alt`: `{0, 1, 5}` quanta
/// of [`COMMIT_QUANTUM`] — a short hold that lets one racing request slip
/// in, and a long one that parks the atomic across a full remote
/// transaction.
pub fn commit_delay(alt: u8) -> u64 {
    [0, 1, 5][usize::from(alt.min(2))] * COMMIT_QUANTUM
}

/// What kind of scheduling decision a point represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChoiceKind {
    /// NoC message delivery timing (one point per protocol message send).
    Delivery,
    /// Atomic commit timing (one point per atomic RMW, asked exactly once
    /// when the RMW first becomes commit-ready at the ROB head).
    Commit,
}

/// One decision point a [`Schedule`] encountered, with the alternative that
/// was taken and the metadata partial-order reduction needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecisionRecord {
    /// The kind of decision.
    pub kind: ChoiceKind,
    /// Source node (delivery) or core index (commit).
    pub src: u16,
    /// Destination node (delivery) or core index (commit).
    pub dst: u16,
    /// The cache line the decision concerns.
    pub line: u64,
    /// The cycle at which the decision was asked.
    pub cycle: u64,
    /// Number of alternatives offered.
    pub n_alts: u8,
    /// The alternative taken (0 = undelayed default).
    pub chosen: u8,
}

/// An explorer schedule: the forced decision vector and the log of every
/// decision point taken so far. Not part of a machine checkpoint (the same
/// derived-state rule as sleep/wake): a restore leaves it as it was.
#[derive(Clone, Debug)]
pub struct Schedule {
    forced: Vec<u8>,
    taken: Vec<DecisionRecord>,
}

impl Schedule {
    /// A schedule whose first `forced.len()` decision points replay the
    /// given alternatives (clamped to [`N_ALTS`]); every later point takes
    /// alternative 0.
    pub fn new(forced: Vec<u8>) -> Self {
        Schedule {
            forced,
            taken: Vec::new(),
        }
    }

    /// Takes the alternative for the next decision point (one of
    /// [`N_ALTS`]) and logs it.
    pub fn decide(&mut self, kind: ChoiceKind, src: u16, dst: u16, line: u64, cycle: u64) -> u8 {
        let idx = self.taken.len();
        let chosen = self.forced.get(idx).copied().unwrap_or(0).min(N_ALTS - 1);
        self.taken.push(DecisionRecord {
            kind,
            src,
            dst,
            line,
            cycle,
            n_alts: N_ALTS,
            chosen,
        });
        chosen
    }

    /// Every decision point taken so far, in encounter order. The explorer
    /// polls its length between machine steps to learn when to snapshot
    /// for state-hash deduplication.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_prefix_then_defaults() {
        let mut s = Schedule::new(vec![1, 0, 2]);
        assert_eq!(s.decide(ChoiceKind::Delivery, 0, 1, 64, 10), 1);
        assert_eq!(s.decide(ChoiceKind::Commit, 1, 1, 64, 20), 0);
        assert_eq!(s.decide(ChoiceKind::Delivery, 1, 0, 128, 30), 2);
        assert_eq!(s.decide(ChoiceKind::Delivery, 0, 1, 64, 40), 0);
        let recs = s.decisions();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].chosen, 1);
        assert_eq!(recs[1].kind, ChoiceKind::Commit);
        assert_eq!(recs[2].line, 128);
        assert_eq!(recs[3].chosen, 0);
    }

    #[test]
    fn forced_alternative_clamps_to_arity() {
        let mut s = Schedule::new(vec![200]);
        assert_eq!(s.decide(ChoiceKind::Delivery, 0, 1, 64, 10), N_ALTS - 1);
        assert_eq!(s.decisions()[0].n_alts, N_ALTS);
    }

    #[test]
    fn delay_tables_are_zero_at_default_and_saturate() {
        assert_eq!(delivery_delay(0), 0);
        assert_eq!(commit_delay(0), 0);
        assert!(delivery_delay(1) < delivery_delay(2));
        assert!(commit_delay(1) < commit_delay(2));
        // Out-of-range alternatives saturate at the largest delay.
        assert_eq!(delivery_delay(200), delivery_delay(2));
        assert_eq!(commit_delay(200), commit_delay(2));
    }
}
