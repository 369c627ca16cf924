//! The coherence invariant sweep.
//!
//! [`check_coherence`] snapshots a [`MemorySystem`] and verifies the
//! protocol-level invariants that the paper's atomicity argument rests on.
//! It is aware of every *legal* transient the unblock-based directory can
//! produce, so it holds at any cycle boundary of a correct run:
//!
//! * Lines whose home entry is **Blocked** are mid-transaction — ownership
//!   is changing hands and the directory's stable view is meaningless until
//!   the requester's `Unblock` lands, so directory agreement is not checked
//!   for them. SWMR **is** still checked: even mid-handoff there is never a
//!   cycle boundary with two private M/E copies (the old owner drops or
//!   downgrades before the new data message is sent).
//! * A private copy in **Evicting** has a `PutM` in flight; the directory
//!   may race it with forwards (`WbStale`), so Evicting copies are exempt
//!   from directory agreement.
//! * Sharer vectors are **supersets** of the true sharer set: S copies are
//!   dropped silently on eviction and the directory only learns at the next
//!   invalidation round (stale `InvAck`s are tolerated by design).

use row_common::ids::{CoreId, LineAddr};
use row_mem::{DirState, MemorySystem, PrivState, ProtocolError};

/// The deepest wait queue a Blocked directory entry may hold on a machine of
/// `cores` cores: every core can have at most one demand request, one
/// upgrade and one writeback racing for a line, plus slack for prefetches
/// and stale acks.
pub fn default_queue_bound(cores: usize) -> usize {
    3 * cores + 4
}

/// Sweeps the whole memory system and returns the first invariant violation
/// found, if any.
///
/// The sweep is read-only and safe to run at any cycle boundary (between
/// [`MemorySystem::tick`] calls). Checked invariants, in order:
///
/// 1. **Locked ⇒ M** — every line in a core's lock table is held in M
///    there (otherwise external requests would not stall against it).
/// 2. Then, for each line that a private cache holds or whose home entry is
///    Blocked, in ascending line order:
///    * **SWMR** — at most one private cache holds the line in M or E;
///    * **Blocked queue bound** — a Blocked entry queues no more requests
///      than [`default_queue_bound`]; more would indicate a wedged
///      transaction accreting requesters;
///    * **Directory agreement** — when the home entry is stable:
///      `Uncached` ⇒ no private copy; `Exclusive(o)` ⇒ no copy elsewhere;
///      `Shared(s)` ⇒ no M/E copy anywhere and every S copy is in `s`.
///
/// So with several violations a lock violation is reported first, then the
/// lowest violating line. Each line's holders come from asking every cache,
/// never from the memory system's holder index: this sweep is the reference
/// that [`IncrementalSweep`](crate::IncrementalSweep) is audited against,
/// and the two apply the same rules.
pub fn check_coherence(mem: &MemorySystem) -> Result<(), ProtocolError> {
    check_locks(mem)?;
    let mut held: Vec<(LineAddr, Option<(CoreId, PrivState)>)> = Vec::new();
    for i in 0..mem.cores() {
        let core = CoreId::new(i as u16);
        let copies = mem.private_lines(core).into_iter();
        held.extend(copies.map(|(line, state)| (line, Some((core, state)))));
    }
    // A Blocked line that no cache holds still has a queue to bound.
    let blocked = mem.blocked_dir_entries().into_iter();
    held.extend(blocked.map(|(_, b)| (b.line, None)));
    // A stable sort: each line's holders stay in core order.
    held.sort_by_key(|&(line, _)| line);
    let bound = default_queue_bound(mem.cores());
    let mut holders = Vec::new();
    for copies in held.chunk_by(|a, b| a.0 == b.0) {
        holders.clear();
        holders.extend(copies.iter().filter_map(|&(_, holder)| holder));
        check_line(mem, copies[0].0, &holders, bound)?;
    }
    Ok(())
}

/// Locked ⇒ M: every line in a core's lock table is held in M there.
pub(crate) fn check_locks(mem: &MemorySystem) -> Result<(), ProtocolError> {
    for i in 0..mem.cores() {
        let core = CoreId::new(i as u16);
        for line in mem.locked_lines_iter(core) {
            let state = mem.priv_state(core, line);
            if state != Some(PrivState::M) {
                return Err(ProtocolError::LockedLineNotModified { core, line, state });
            }
        }
    }
    Ok(())
}

/// Checks one line given `holders`, every core that holds it with its
/// state in ascending core order: SWMR, then the queue bound when the
/// line's home entry is Blocked, else directory agreement.
pub(crate) fn check_line(
    mem: &MemorySystem,
    line: LineAddr,
    holders: &[(CoreId, PrivState)],
    bound: usize,
) -> Result<(), ProtocolError> {
    let owns = |&&(_, s): &&(CoreId, PrivState)| matches!(s, PrivState::M | PrivState::E);
    if holders.iter().filter(owns).count() > 1 {
        let owners = holders.iter().filter(owns).map(|&(c, _)| c).collect();
        return Err(ProtocolError::MultipleOwners { line, owners });
    }

    // A Blocked entry is mid-transaction: ownership is changing hands and
    // its stable view means nothing until the requester's Unblock lands.
    if let Some((tile, depth)) = mem.dir_blocked_depth(line) {
        if depth > bound {
            return Err(ProtocolError::BlockedQueueOverflow {
                tile,
                line,
                depth,
                bound,
            });
        }
        return Ok(());
    }
    let dir = mem.dir_state(line);
    for &(core, state) in holders {
        if state == PrivState::Evicting {
            continue; // PutM in flight; WbStale races are legal
        }
        let legal = match &dir {
            DirState::Uncached => false,
            DirState::Exclusive(o) => core == *o,
            DirState::Shared(s) => state == PrivState::S && s.contains(&core),
            DirState::Blocked => true,
        };
        if !legal {
            return Err(ProtocolError::DirectoryMismatch {
                line,
                core,
                dir,
                cache: Some(state),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::SystemConfig;
    use row_common::rng::SplitMix64;
    use row_common::Cycle;
    use row_mem::{AccessKind, MemEvent, ReqMeta};
    use std::collections::BTreeSet;

    fn meta(id: u64, kind: AccessKind) -> ReqMeta {
        ReqMeta {
            req_id: id,
            pc: None,
            prefetch: false,
            kind,
        }
    }

    /// Drives randomized multi-core load/store/RMW traffic straight into the
    /// memory system, unlocking every Rmw fill a few cycles later, and runs
    /// the sweep continuously. A correct protocol must never trip it.
    #[test]
    fn random_traffic_never_violates_invariants() {
        let sys = SystemConfig::small(4);
        let mut mem = MemorySystem::new(&sys);
        let mut rng = SplitMix64::new(0xc0ffee);
        let lines = [100u64, 101, 102, 200, 201];
        let mut next_id = 1u64;
        // (core, line) pairs whose lock should be released at the given cycle.
        let mut unlocks: Vec<(Cycle, CoreId, LineAddr)> = Vec::new();
        // Cores with an atomic in flight or held: don't issue another until
        // released (mirrors the one-atomic-at-a-time AQ head discipline).
        let mut busy: BTreeSet<u16> = BTreeSet::new();

        for c in 0..30_000u64 {
            let now = Cycle::new(c);
            if c % 97 == 0 {
                let core = (rng.below(4)) as u16;
                let line = LineAddr::new(lines[rng.below(lines.len() as u64) as usize]);
                let kind = match rng.below(4) {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Rmw,
                };
                if kind != AccessKind::Rmw || !busy.contains(&core) {
                    if kind == AccessKind::Rmw {
                        busy.insert(core);
                    }
                    mem.access(CoreId::new(core), line, meta(next_id, kind), now);
                    next_id += 1;
                }
            }
            for ev in mem.tick(now) {
                if let MemEvent::Fill {
                    core,
                    line,
                    kind: AccessKind::Rmw,
                    at,
                    ..
                } = ev
                {
                    unlocks.push((at + 30, core, line));
                }
            }
            unlocks.retain(|&(when, core, line)| {
                if when <= now {
                    mem.unlock(core, line, now);
                    busy.remove(&(core.index() as u16));
                    false
                } else {
                    true
                }
            });
            if c % 64 == 0 {
                check_coherence(&mem).expect("invariant violated on legal traffic");
            }
            assert_eq!(mem.protocol_error(), None);
        }
        check_coherence(&mem).expect("final sweep");
    }

    /// A hand-corrupted second Modified owner must be caught as SWMR.
    #[test]
    fn dual_modified_owner_is_detected() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        let line = LineAddr::new(7);
        // Legitimately give core 0 the line in M.
        mem.access(
            CoreId::new(0),
            line,
            meta(1, AccessKind::Write),
            Cycle::ZERO,
        );
        for c in 0..3000u64 {
            let _ = mem.tick(Cycle::new(c));
        }
        assert_eq!(mem.priv_state(CoreId::new(0), line), Some(PrivState::M));
        check_coherence(&mem).expect("clean before corruption");

        mem.corrupt_private_state_for_test(CoreId::new(1), line, Some(PrivState::M));
        let err = check_coherence(&mem).unwrap_err();
        match err {
            ProtocolError::MultipleOwners { line: l, owners } => {
                assert_eq!(l, line);
                assert_eq!(owners, vec![CoreId::new(0), CoreId::new(1)]);
            }
            other => panic!("expected MultipleOwners, got {other}"),
        }
    }

    /// A directory entry corrupted to disagree with a live private copy must
    /// be caught as a directory mismatch.
    #[test]
    fn corrupted_directory_entry_is_detected() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        let line = LineAddr::new(9);
        mem.access(
            CoreId::new(0),
            line,
            meta(1, AccessKind::Write),
            Cycle::ZERO,
        );
        for c in 0..3000u64 {
            let _ = mem.tick(Cycle::new(c));
        }
        assert_eq!(mem.priv_state(CoreId::new(0), line), Some(PrivState::M));

        // The home bank now claims the line is uncached.
        mem.corrupt_dir_state_for_test(line, DirState::Uncached);
        let err = check_coherence(&mem).unwrap_err();
        match err {
            ProtocolError::DirectoryMismatch {
                line: l,
                core,
                dir,
                cache,
            } => {
                assert_eq!(l, line);
                assert_eq!(core, CoreId::new(0));
                assert_eq!(dir, DirState::Uncached);
                assert_eq!(cache, Some(PrivState::M));
            }
            other => panic!("expected DirectoryMismatch, got {other}"),
        }
    }

    /// A stale sharer (superset sharer vector) is legal and must NOT trip
    /// the sweep; a *missing* sharer must.
    #[test]
    fn superset_sharer_vectors_are_tolerated_missing_sharers_are_not() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        let line = LineAddr::new(11);
        for core in 0..2u16 {
            mem.access(
                CoreId::new(core),
                line,
                meta(u64::from(core) + 1, AccessKind::Read),
                Cycle::new(u64::from(core) * 3000),
            );
            for c in u64::from(core) * 3000..(u64::from(core) + 1) * 3000 {
                let _ = mem.tick(Cycle::new(c));
            }
        }
        assert_eq!(mem.priv_state(CoreId::new(0), line), Some(PrivState::S));
        assert_eq!(mem.priv_state(CoreId::new(1), line), Some(PrivState::S));
        check_coherence(&mem).expect("two sharers, both tracked");

        // Silent S-drop at core 1: vector is now a superset — still legal.
        mem.corrupt_private_state_for_test(CoreId::new(1), line, None);
        check_coherence(&mem).expect("superset sharer vector is legal");

        // Directory forgets core 0 while it still holds S: violation.
        let mut only1 = BTreeSet::new();
        only1.insert(CoreId::new(1));
        mem.corrupt_dir_state_for_test(line, DirState::Shared(only1));
        let err = check_coherence(&mem).unwrap_err();
        assert!(
            matches!(err, ProtocolError::DirectoryMismatch { core, .. } if core == CoreId::new(0)),
            "got {err}"
        );
    }

    /// With several lines violating SWMR, every sweep names the lowest one
    /// (the holders are gathered in line order, not hash order).
    #[test]
    fn several_violations_always_report_the_lowest_line() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        let lines = [41u64, 23, 57, 9, 30, 16].map(LineAddr::new);
        for (id, &line) in lines.iter().enumerate() {
            mem.access(
                CoreId::new(0),
                line,
                meta(id as u64 + 1, AccessKind::Write),
                Cycle::ZERO,
            );
        }
        for c in 0..3000u64 {
            let _ = mem.tick(Cycle::new(c));
        }
        for &line in &lines {
            assert_eq!(mem.priv_state(CoreId::new(0), line), Some(PrivState::M));
            mem.corrupt_private_state_for_test(CoreId::new(1), line, Some(PrivState::M));
        }
        for _ in 0..200 {
            match check_coherence(&mem).unwrap_err() {
                ProtocolError::MultipleOwners { line, owners } => {
                    assert_eq!(line, LineAddr::new(9));
                    assert_eq!(owners, vec![CoreId::new(0), CoreId::new(1)]);
                }
                other => panic!("expected MultipleOwners, got {other}"),
            }
        }
    }

    /// The queue bound flags a Blocked entry that accretes too many waiters.
    #[test]
    fn blocked_queue_bound_uses_auto_default() {
        assert_eq!(default_queue_bound(4), 16);
        assert_eq!(default_queue_bound(32), 100);
    }
}
