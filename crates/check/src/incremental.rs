//! Incremental coherence checking over dirty-line sets.
//!
//! The full [`check_coherence`] sweep walks every private cache and every
//! directory bank — O(total cached lines × cores) — which at paper scale
//! (32+ cores, every-2048-cycle cadence) dominates checking cost. But between
//! two sweeps only the lines that carried protocol traffic can have changed
//! state, and the [`MemorySystem`] records exactly those when
//! [`MemorySystem::track_dirty_lines`] is on. [`IncrementalSweep`] re-checks
//! only that set, querying each dirty line's private states, lock bits, and
//! home entry directly — O(dirty lines × holders) per sweep.
//!
//! A line's holders come from the memory system's holder index
//! ([`MemorySystem::line_holders`]), which tracking keeps beside the dirty
//! set: per line, the cores that may hold it. A cache gains a line only when
//! data reaches it, which sets the core's bit; the index is rebuilt from the
//! caches when tracking turns on or a checkpoint is restored; and a check
//! clears the bit of a core that no longer holds the line. So the index
//! lists every true holder, even one whose copy saw no traffic since the
//! last sweep, and a line's check asks those cores only, never all of them.
//!
//! The verdict contract: a state that passes the full sweep passes the
//! incremental sweep, and a violation on a line is reported no later than
//! the first sweep after that line carries traffic (or is corrupted via the
//! test hooks, which mark the line dirty too). The first sweep after
//! construction or [`IncrementalSweep::invalidate`] (post-restore) is a full
//! sweep, so no pre-existing violation can hide in a never-dirty line.
//!
//! Both sweeps run the same two rule functions, the lock rule over every
//! lock table and the per-line rules in ascending line order, so they
//! differ only in which lines they visit (the dirty set against every held
//! or Blocked line) and where a line's holders come from (the holder index
//! against every cache). With the same violations in view, both report the
//! same one.

use row_common::ids::{CoreId, LineAddr};
use row_mem::{MemorySystem, PrivState, ProtocolError};

use crate::invariant::{check_coherence, check_line, check_locks, default_queue_bound};

/// Incremental invariant sweeper; owns the primed flag and scratch buffers.
#[derive(Clone, Debug, Default)]
pub struct IncrementalSweep {
    /// Whether a full sweep has validated the complete state since
    /// construction/restore; until then every sweep is a full sweep.
    primed: bool,
    /// Scratch: holders of the line under check (reused across lines).
    holders: Vec<(CoreId, PrivState)>,
    /// Scratch: the drained dirty lines, sorted ascending.
    dirty: Vec<LineAddr>,
}

impl IncrementalSweep {
    /// Creates an unprimed sweeper (first sweep will be full).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces the next sweep to be a full sweep. Call after a checkpoint
    /// restore: the dirty set is not persisted, so the restored state must
    /// be validated wholesale once before line-level increments resume.
    pub fn invalidate(&mut self) {
        self.primed = false;
    }

    /// Checks the invariants over every line dirtied since the last sweep
    /// (or the whole system when unprimed). Drains the memory system's
    /// dirty-line set either way.
    pub fn sweep(&mut self, mem: &mut MemorySystem) -> Result<(), ProtocolError> {
        self.dirty = mem.take_dirty_lines();
        if !self.primed {
            let r = check_coherence(mem);
            self.primed = r.is_ok();
            return r;
        }
        // The lock sets are tiny (bounded by AQ depth): check them all.
        check_locks(mem)?;
        let bound = default_queue_bound(mem.cores());
        for &line in &self.dirty {
            mem.line_holders(line, &mut self.holders);
            check_line(mem, line, &self.holders, bound)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::SystemConfig;
    use row_common::rng::SplitMix64;
    use row_common::Cycle;
    use row_mem::DirState;
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

    /// Randomized traffic: after every burst, the incremental sweep and a
    /// fresh full sweep must agree (both clean on legal traffic), and the
    /// dirty set must drain.
    #[test]
    fn incremental_agrees_with_full_on_legal_traffic() {
        let sys = SystemConfig::small(4);
        let mut mem = MemorySystem::new(&sys);
        mem.track_dirty_lines(true);
        let mut sweep = IncrementalSweep::new();
        let mut rng = SplitMix64::new(0xdecaf);
        let lines = [300u64, 301, 302, 400, 401, 777];
        let mut next_id = 1u64;
        let mut unlocks: Vec<(Cycle, CoreId, LineAddr)> = Vec::new();
        let mut busy: BTreeSet<u16> = BTreeSet::new();

        for c in 0..20_000u64 {
            let now = Cycle::new(c);
            if c % 89 == 0 {
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
                    unlocks.push((at + 25, core, line));
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
                sweep
                    .sweep(&mut mem)
                    .expect("incremental sweep tripped on legal traffic");
                check_coherence(&mem).expect("full sweep disagrees");
            }
        }
    }

    /// A corruption planted through the test hooks lands in the dirty set,
    /// so the very next incremental sweep reports the same violation class
    /// the full sweep does.
    #[test]
    fn incremental_catches_planted_corruption() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        mem.track_dirty_lines(true);
        let mut sweep = IncrementalSweep::new();
        let line = LineAddr::new(7);
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
        sweep.sweep(&mut mem).expect("clean (primes)");
        sweep.sweep(&mut mem).expect("clean (incremental)");

        mem.corrupt_private_state_for_test(CoreId::new(1), line, Some(PrivState::M));
        let inc = sweep.sweep(&mut mem).unwrap_err();
        let full = check_coherence(&mem).unwrap_err();
        assert!(
            matches!(inc, ProtocolError::MultipleOwners { .. }),
            "incremental: {inc}"
        );
        assert_eq!(format!("{inc}"), format!("{full}"), "verdicts must match");
    }

    /// A holder whose copy saw no traffic since the last sweep is still
    /// asked: core 1 holds a line in S and a sweep passes, then the
    /// directory forgets core 1. The next incremental sweep names core 1,
    /// exactly as the full sweep does.
    #[test]
    fn quiet_holder_is_still_checked() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        mem.track_dirty_lines(true);
        let mut sweep = IncrementalSweep::new();
        let line = LineAddr::new(13);
        for (core, start) in [(0u16, 0u64), (1, 3000)] {
            let id = u64::from(core) + 1;
            let read = meta(id, AccessKind::Read);
            mem.access(CoreId::new(core), line, read, Cycle::new(start));
            for c in start..start + 3000 {
                let _ = mem.tick(Cycle::new(c));
            }
        }
        for core in [0, 1] {
            assert_eq!(mem.priv_state(CoreId::new(core), line), Some(PrivState::S));
        }
        sweep.sweep(&mut mem).expect("clean (primes)");
        sweep.sweep(&mut mem).expect("clean (incremental)");

        let core0 = BTreeSet::from([CoreId::new(0)]);
        mem.corrupt_dir_state_for_test(line, DirState::Shared(core0));
        let inc = sweep.sweep(&mut mem).unwrap_err();
        let full = check_coherence(&mem).unwrap_err();
        assert!(
            matches!(inc, ProtocolError::DirectoryMismatch { core, .. } if core == CoreId::new(1)),
            "incremental: {inc}"
        );
        assert_eq!(inc, full);
    }

    /// With a directory mismatch on one line and an SWMR violation on a
    /// higher one, both sweeps report the lower line's mismatch.
    #[test]
    fn both_sweeps_report_the_same_violation() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        mem.track_dirty_lines(true);
        let mut sweep = IncrementalSweep::new();
        let (low, high) = (LineAddr::new(0x9), LineAddr::new(0x29));
        for (id, line) in [(1, low), (2, high)] {
            let write = meta(id, AccessKind::Write);
            mem.access(CoreId::new(0), line, write, Cycle::ZERO);
        }
        for c in 0..3000u64 {
            let _ = mem.tick(Cycle::new(c));
        }
        sweep.sweep(&mut mem).expect("clean (primes)");

        mem.corrupt_dir_state_for_test(low, DirState::Uncached);
        mem.corrupt_private_state_for_test(CoreId::new(1), high, Some(PrivState::M));
        let full = check_coherence(&mem).unwrap_err();
        let inc = sweep.sweep(&mut mem).unwrap_err();
        assert!(
            matches!(full, ProtocolError::DirectoryMismatch { line, .. } if line == low),
            "full: {full}"
        );
        assert_eq!(inc, full);
    }

    /// After `invalidate` (the restore path), the next sweep is full: a
    /// violation on a line that was never dirtied post-restore is still
    /// found.
    #[test]
    fn invalidate_forces_full_sweep() {
        let sys = SystemConfig::small(2);
        let mut mem = MemorySystem::new(&sys);
        mem.track_dirty_lines(true);
        let mut sweep = IncrementalSweep::new();
        let line = LineAddr::new(11);
        mem.access(
            CoreId::new(0),
            line,
            meta(1, AccessKind::Write),
            Cycle::ZERO,
        );
        for c in 0..3000u64 {
            let _ = mem.tick(Cycle::new(c));
        }
        sweep.sweep(&mut mem).expect("primes clean");

        // Corrupt, then throw the dirty evidence away (as a crash between
        // checkpoint and corruption would): only a full sweep can see it.
        mem.corrupt_dir_state_for_test(line, DirState::Uncached);
        let _ = mem.take_dirty_lines();
        sweep
            .sweep(&mut mem)
            .expect("incremental sweep cannot see a never-dirty line");
        sweep.invalidate();
        let err = sweep.sweep(&mut mem).unwrap_err();
        assert!(matches!(err, ProtocolError::DirectoryMismatch { .. }));
    }
}
