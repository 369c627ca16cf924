//! Home directory bank (co-located with an L3 slice at each tile).
//!
//! Implements an unblock-based MESI directory in the style of GEMS'
//! `MESI_CMP_directory`, which the paper's memory system uses. The property
//! the paper's Fig. 8 depends on is modelled faithfully: from the moment the
//! directory sends data (or forwards a request) until the requester's
//! `Unblock` arrives, the entry is *Blocked* and later requests queue — so a
//! second core's invalidation only reaches the first core after the
//! unblock/invalidation round trip.
//!
//! # Known-unreachable transition-coverage pairs
//!
//! `norush fuzz`, `norush litmus`, and `norush explore` all track every
//! directory `(state, event)` pair in the shared coverage map
//! ([`row_common::coverage`]) and report never-exercised pairs. The two
//! workloads light complementary regions: the RMW-heavy lock-service fuzz
//! kernels drive the atomic/GetX paths, while the plain-load litmus shapes
//! (notably the three-reader `3r1w` test) drive the Shared-state grant arms
//! — `dir:Shared/GetS`, the arm that hosts the planted
//! `--inject-early-unblock` bug. The following directory pairs are expected
//! to stay dark under *both*; a run that *does* light one indicates a
//! protocol bug, not progress:
//!
//! * `dir:<any>/Other` — every message a directory bank receives is one of
//!   the classified kinds; the catch-all arm exists only for coverage-space
//!   completeness.
//! * `dir:Uncached|Shared|Exclusive/Unblock` — `Unblock` is only ever sent
//!   by a requester that the directory is currently blocked on; its arrival
//!   at a non-Blocked entry is precisely the early-unblock race class the
//!   planted `--inject-early-unblock` bug re-creates.
//! * `dir:Uncached|Shared|Exclusive/InvAck` and
//!   `dir:Blocked/AwaitUnblock/InvAck` — invalidation acks are only
//!   solicited while `Blocked/CollectingAcks`; anywhere else they would be
//!   stray (and trip the sharer-count underflow check).
//!
//! Two more families are unreachable under the *workloads* rather than by
//! protocol design: `dir:<any>/PutM` needs a capacity eviction of a dirty
//! line, and both the lock-service working set and the two-line litmus
//! programs fit the private caches, so no writeback traffic exists. Growing
//! a workload beyond the private-cache footprint would light those
//! legitimately.

use std::collections::{BTreeSet, VecDeque};

use row_common::config::CacheConfig;
use row_common::coverage::{self, DirCounts};
use row_common::fastmap::FastMap;
use row_common::ids::{CoreId, LineAddr};
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::rmw::RmwKind;
use row_common::Cycle;

use crate::array::CacheArray;
use crate::error::ProtocolError;
use crate::msg::{Endpoint, Msg};
use crate::private::CacheAction;

/// Stable (non-transient) directory state of a line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirState {
    /// No private copy exists; memory/L3 is the owner.
    Uncached,
    /// Read-only copies at the listed cores.
    Shared(BTreeSet<CoreId>),
    /// A single private cache owns the line (E or M there).
    Exclusive(CoreId),
    /// A transaction is in flight; requests queue.
    Blocked,
}

#[derive(Clone, Debug)]
enum Entry {
    Shared(BTreeSet<CoreId>),
    Exclusive(CoreId),
    Blocked(Box<BlockInfo>),
}

#[derive(Clone, Debug)]
struct BlockInfo {
    next: Entry2,
    phase: Phase,
    queue: VecDeque<Msg>,
}

/// Post-unblock state (cannot itself be Blocked).
#[derive(Clone, Debug)]
enum Entry2 {
    Shared(BTreeSet<CoreId>),
    Exclusive(CoreId),
}

#[derive(Clone, Debug)]
enum Phase {
    /// Data (or a forward) is on its way; waiting for the requester's
    /// `Unblock`.
    AwaitUnblock,
    /// Invalidations outstanding; data (or the far-atomic apply) follows
    /// once all acks arrive.
    CollectingAcks {
        req: CoreId,
        pending: usize,
        /// `Some` when this transaction is a far atomic performed here.
        far: Option<(RmwKind, u64)>,
    },
}

/// The externally visible phase of a Blocked entry (diagnostics).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockedPhase {
    /// Waiting for the requester's `Unblock`.
    AwaitUnblock,
    /// Collecting invalidation acks before serving `req`.
    CollectingAcks {
        /// The requester that will be served once the acks arrive.
        req: CoreId,
        /// Acks still outstanding.
        pending: usize,
        /// Whether the transaction is a far atomic performed at this bank.
        far: bool,
    },
}

/// Diagnostic snapshot of one Blocked directory entry: what the transaction
/// is waiting for, and which requests are queued behind it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockedEntrySnapshot {
    /// The blocked line.
    pub line: LineAddr,
    /// What the in-flight transaction is waiting on.
    pub phase: BlockedPhase,
    /// Requests queued behind the transaction, in arrival order.
    pub queued: Vec<Msg>,
}

/// Directory bank counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirStats {
    /// GetS requests processed.
    pub gets: u64,
    /// GetX requests processed.
    pub getx: u64,
    /// Requests forwarded to an owner.
    pub forwards: u64,
    /// Invalidations sent to sharers.
    pub invalidations: u64,
    /// Requests that found the entry Blocked and queued.
    pub queued: u64,
    /// L3 data misses (paid the memory latency).
    pub l3_misses: u64,
    /// Writebacks accepted.
    pub writebacks: u64,
    /// Far atomics executed at this bank.
    pub far_atomics: u64,
}

/// One directory bank + L3 slice.
#[derive(Clone, Debug)]
pub struct DirBank {
    tile: usize,
    l3: CacheArray,
    l3_lat: u64,
    mem_lat: u64,
    entries: FastMap<LineAddr, Entry>,
    stats: DirStats,
    /// `(state, event)` transitions this bank has handled. Derived state:
    /// never persisted, and a restore leaves it as it was.
    pub(crate) coverage: DirCounts,
    /// Armed test-only planted bug: serve GetS-on-Shared *without* blocking
    /// (the seed-era race PR 6 fixed). See
    /// [`DirBank::inject_early_unblock_for_test`].
    early_unblock_bug: bool,
}

impl DirBank {
    /// Creates the bank at `tile` with the given L3-slice geometry.
    pub fn new(tile: usize, l3_cfg: CacheConfig, mem_lat: u64) -> Self {
        DirBank {
            tile,
            l3: CacheArray::new(l3_cfg),
            l3_lat: l3_cfg.hit_latency,
            mem_lat,
            entries: FastMap::new(),
            stats: DirStats::default(),
            coverage: DirCounts::default(),
            early_unblock_bug: false,
        }
    }

    /// Test instrumentation: re-plants the seed-era directory race that PR 6
    /// fixed. A GetS served from a `Shared` entry no longer blocks awaiting
    /// the requester's `Unblock`, so that unconditional `Unblock` can land
    /// while a *later* transaction holds the entry Blocked and release it
    /// prematurely — dropping a CollectingAcks phase (livelock) or replaying
    /// the queue before the new owner has data (double exclusive grant /
    /// SWMR violation). Exists so the schedule fuzzer has a known race class
    /// to regression-find. Not persisted across checkpoint/restore; arm it
    /// after any restore.
    pub fn inject_early_unblock_for_test(&mut self) {
        self.early_unblock_bug = true;
    }

    /// This bank's tile index.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Counters so far.
    pub fn stats(&self) -> &DirStats {
        &self.stats
    }

    /// The externally visible state of a line (for tests/invariants).
    pub fn state(&self, line: LineAddr) -> DirState {
        match self.entries.get(&line) {
            None => DirState::Uncached,
            Some(Entry::Shared(s)) => DirState::Shared(s.clone()),
            Some(Entry::Exclusive(o)) => DirState::Exclusive(*o),
            Some(Entry::Blocked(_)) => DirState::Blocked,
        }
    }

    /// Queue depth of `line`'s entry when it is Blocked, `None` otherwise
    /// (the incremental invariant sweep's per-line queue-bound probe).
    pub fn blocked_depth(&self, line: LineAddr) -> Option<usize> {
        match self.entries.get(&line) {
            Some(Entry::Blocked(b)) => Some(b.queue.len()),
            _ => None,
        }
    }

    /// Snapshots of every Blocked entry at this bank (diagnostics).
    pub fn blocked_entries(&self) -> Vec<BlockedEntrySnapshot> {
        let mut out = Vec::new();
        self.blocked_entries_into(&mut out);
        out
    }

    /// Appends a snapshot of every Blocked entry at this bank to `out`
    /// (sorted by line), reusing the caller's buffer — the allocation-free
    /// form diagnostics paths call repeatedly.
    pub fn blocked_entries_into(&self, out: &mut Vec<BlockedEntrySnapshot>) {
        let start = out.len();
        out.extend(self.entries.iter().filter_map(|(line, e)| {
            let Entry::Blocked(b) = e else { return None };
            let phase = match &b.phase {
                Phase::AwaitUnblock => BlockedPhase::AwaitUnblock,
                Phase::CollectingAcks { req, pending, far } => BlockedPhase::CollectingAcks {
                    req: *req,
                    pending: *pending,
                    far: far.is_some(),
                },
            };
            Some(BlockedEntrySnapshot {
                line,
                phase,
                queued: b.queue.iter().copied().collect(),
            })
        }));
        out[start..].sort_by_key(|s| s.line.raw());
    }

    /// Overwrites the entry for `line` with a stable state, bypassing the
    /// protocol. **Robustness-testing instrumentation only**: used to verify
    /// the invariant checker catches corrupted directory state. `Blocked`
    /// installs an empty awaiting-unblock entry.
    pub fn corrupt_entry_for_test(&mut self, line: LineAddr, state: DirState) {
        match state {
            DirState::Uncached => {
                self.entries.remove(&line);
            }
            DirState::Shared(s) => {
                self.entries.insert(line, Entry::Shared(s));
            }
            DirState::Exclusive(o) => {
                self.entries.insert(line, Entry::Exclusive(o));
            }
            DirState::Blocked => {
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Exclusive(CoreId::new(0)),
                        phase: Phase::AwaitUnblock,
                        queue: VecDeque::new(),
                    })),
                );
            }
        }
    }

    /// Counts the `(state, event)` transition-coverage pair for the fuzzer.
    fn record_coverage(&mut self, line: LineAddr, msg: &Msg) {
        use coverage::{DirEvent, DirState as CovState};
        let state = match self.entries.get(&line) {
            None => CovState::Uncached,
            Some(Entry::Shared(_)) => CovState::Shared,
            Some(Entry::Exclusive(_)) => CovState::Exclusive,
            Some(Entry::Blocked(b)) => match b.phase {
                Phase::AwaitUnblock => CovState::BlockedAwaitUnblock,
                Phase::CollectingAcks { .. } => CovState::BlockedCollectingAcks,
            },
        };
        let event = match msg {
            Msg::GetS { .. } => DirEvent::GetS,
            Msg::GetX { .. } => DirEvent::GetX,
            Msg::PutM { .. } => DirEvent::PutM,
            Msg::AtomicFar { .. } => DirEvent::AtomicFar,
            Msg::Unblock { .. } => DirEvent::Unblock,
            Msg::InvAck { .. } => DirEvent::InvAck,
            _ => DirEvent::Other,
        };
        self.coverage.record(coverage::dir_slot(state, event));
    }

    /// Cycle at which the L3 slice can supply data for `line` when accessed
    /// at `now` (charges the memory latency on an L3 miss and allocates).
    fn data_ready(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        if self.l3.touch(line) {
            now + self.l3_lat
        } else {
            self.stats.l3_misses += 1;
            let _ = self.l3.insert(line, |_| true);
            now + self.l3_lat + self.mem_lat
        }
    }

    /// Handles a protocol message addressed to this bank.
    ///
    /// # Errors
    /// Returns a [`ProtocolError`] when the message has no legal transition
    /// from the current entry state (a modelling bug or corrupted state, not
    /// a recoverable condition).
    pub fn handle_msg(
        &mut self,
        msg: Msg,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let line = msg.line();
        self.record_coverage(line, &msg);
        // Requests against a blocked entry queue; unblock/acks pass through.
        if let Some(Entry::Blocked(_)) = self.entries.get(&line) {
            match msg {
                Msg::Unblock { .. } => return self.handle_unblock(line, now, actions),
                Msg::InvAck { from, .. } => return self.handle_inv_ack(from, line, now, actions),
                other => {
                    self.stats.queued += 1;
                    if let Some(Entry::Blocked(b)) = self.entries.get_mut(&line) {
                        b.queue.push_back(other);
                    }
                }
            }
            return Ok(());
        }
        match msg {
            Msg::GetS { req, line } => self.handle_gets(req, line, now, actions),
            Msg::GetX { req, line } => self.handle_getx(req, line, now, actions),
            Msg::PutM { from, line } => {
                self.handle_putm(from, line, now, actions);
                Ok(())
            }
            Msg::AtomicFar {
                req,
                line,
                rmw,
                req_id,
            } => self.handle_far(req, line, rmw, req_id, now, actions),
            Msg::Unblock { .. } => {
                // Unblock for an already-stable entry: ignore (idempotent).
                Ok(())
            }
            Msg::InvAck { .. } => {
                // Ack raced past a resolved transaction: ignore.
                Ok(())
            }
            other => Err(ProtocolError::DirUnexpectedMessage {
                tile: self.tile,
                msg: other,
            }),
        }
    }

    fn handle_gets(
        &mut self,
        req: CoreId,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        self.stats.gets += 1;
        // Take the entry out instead of cloning it: every arm installs a
        // fresh entry, and the sharer sets inside can be arbitrarily large.
        match self.entries.remove(&line) {
            None => {
                // Uncached: grant Exclusive (MESI E) straight away.
                let at = self.data_ready(line, now);
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: true,
                        from_private: false,
                    },
                    at,
                });
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Exclusive(req),
                        phase: Phase::AwaitUnblock,
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(Entry::Shared(mut s)) => {
                // Serve from the L3 copy, but block until the requester's
                // Unblock arrives. Every fill sends an Unblock; if this grant
                // did not block, that Unblock could land while a *later*
                // transaction holds the entry Blocked and release it
                // prematurely (dropping a CollectingAcks phase or replaying
                // the queue before the new owner has data).
                let at = self.data_ready(line, now);
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: false,
                        from_private: false,
                    },
                    at,
                });
                s.insert(req);
                if self.early_unblock_bug {
                    // Planted bug: the seed-era non-blocking grant, exactly
                    // the race described above. The requester's unmatched
                    // Unblock is now free to release a later transaction.
                    self.entries.insert(line, Entry::Shared(s));
                } else {
                    self.entries.insert(
                        line,
                        Entry::Blocked(Box::new(BlockInfo {
                            next: Entry2::Shared(s),
                            phase: Phase::AwaitUnblock,
                            queue: VecDeque::new(),
                        })),
                    );
                }
            }
            Some(Entry::Exclusive(owner)) => {
                self.stats.forwards += 1;
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(owner),
                    msg: Msg::FwdGetS { req, line },
                    at: now + self.l3_lat,
                });
                let mut sharers = BTreeSet::new();
                sharers.insert(owner);
                sharers.insert(req);
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Shared(sharers),
                        phase: Phase::AwaitUnblock,
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(e @ Entry::Blocked(_)) => {
                self.entries.insert(line, e);
                debug_assert!(false, "blocked entries are queued by handle_msg");
                return Err(ProtocolError::BlockedEntryReentered {
                    tile: self.tile,
                    msg: Msg::GetS { req, line },
                });
            }
        }
        Ok(())
    }

    fn handle_getx(
        &mut self,
        req: CoreId,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        self.stats.getx += 1;
        match self.entries.remove(&line) {
            None => {
                let at = self.data_ready(line, now);
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: true,
                        from_private: false,
                    },
                    at,
                });
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Exclusive(req),
                        phase: Phase::AwaitUnblock,
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(Entry::Shared(s)) => {
                // No scratch Vec: count, then walk the set again for the
                // invalidation sends.
                let others = s.iter().filter(|c| **c != req).count();
                if others == 0 {
                    let at = self.data_ready(line, now);
                    actions.push(CacheAction::Send {
                        to: Endpoint::Core(req),
                        msg: Msg::Data {
                            req,
                            line,
                            excl: true,
                            from_private: false,
                        },
                        at,
                    });
                    self.entries.insert(
                        line,
                        Entry::Blocked(Box::new(BlockInfo {
                            next: Entry2::Exclusive(req),
                            phase: Phase::AwaitUnblock,
                            queue: VecDeque::new(),
                        })),
                    );
                } else {
                    for other in s.iter().filter(|c| **c != req) {
                        self.stats.invalidations += 1;
                        actions.push(CacheAction::Send {
                            to: Endpoint::Core(*other),
                            msg: Msg::Inv { line },
                            at: now + self.l3_lat,
                        });
                    }
                    self.entries.insert(
                        line,
                        Entry::Blocked(Box::new(BlockInfo {
                            next: Entry2::Exclusive(req),
                            phase: Phase::CollectingAcks {
                                req,
                                pending: others,
                                far: None,
                            },
                            queue: VecDeque::new(),
                        })),
                    );
                }
            }
            Some(Entry::Exclusive(owner)) => {
                self.stats.forwards += 1;
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(owner),
                    msg: Msg::FwdGetX { req, line },
                    at: now + self.l3_lat,
                });
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Exclusive(req),
                        phase: Phase::AwaitUnblock,
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(e @ Entry::Blocked(_)) => {
                self.entries.insert(line, e);
                debug_assert!(false, "blocked entries are queued by handle_msg");
                return Err(ProtocolError::BlockedEntryReentered {
                    tile: self.tile,
                    msg: Msg::GetX { req, line },
                });
            }
        }
        Ok(())
    }

    fn handle_putm(
        &mut self,
        from: CoreId,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) {
        let is_owner = matches!(self.entries.get(&line), Some(Entry::Exclusive(o)) if *o == from);
        if is_owner {
            self.stats.writebacks += 1;
            self.entries.remove(&line);
            let _ = self.l3.insert(line, |_| true);
            actions.push(CacheAction::Send {
                to: Endpoint::Core(from),
                msg: Msg::WbAck { line },
                at: now + self.l3_lat,
            });
        } else {
            actions.push(CacheAction::Send {
                to: Endpoint::Core(from),
                msg: Msg::WbStale { line },
                at: now + self.l3_lat,
            });
        }
    }

    fn handle_inv_ack(
        &mut self,
        from: CoreId,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let tile = self.tile;
        let Some(Entry::Blocked(b)) = self.entries.get_mut(&line) else {
            return Ok(()); // stale ack
        };
        let Phase::CollectingAcks { req, pending, far } = &mut b.phase else {
            return Ok(()); // stale ack
        };
        // An ack with nothing pending means the transaction's sharer
        // bookkeeping is corrupt; surface it instead of underflowing.
        if *pending == 0 {
            return Err(ProtocolError::InvAckUnderflow { tile, line, from });
        }
        *pending -= 1;
        if *pending > 0 {
            return Ok(());
        }
        let req = *req;
        let far = *far;
        match far {
            None => {
                b.phase = Phase::AwaitUnblock;
                let at = self.data_ready(line, now);
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: true,
                        from_private: false,
                    },
                    at,
                });
            }
            Some((rmw, req_id)) => {
                // All private copies are gone: perform the RMW at home and
                // release the entry without an unblock round trip.
                let at = self.data_ready(line, now);
                actions.push(CacheAction::ApplyRmw {
                    req,
                    line,
                    rmw,
                    req_id,
                    at,
                });
                self.release_blocked(line, now, actions)?;
            }
        }
        Ok(())
    }

    /// Handles a far atomic request at the home (Section VII's alternative
    /// placement): invalidate every private copy, then apply the RMW here.
    fn handle_far(
        &mut self,
        req: CoreId,
        line: LineAddr,
        rmw: RmwKind,
        req_id: u64,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        self.stats.far_atomics += 1;
        match self.entries.remove(&line) {
            None => {
                let at = self.data_ready(line, now);
                actions.push(CacheAction::ApplyRmw {
                    req,
                    line,
                    rmw,
                    req_id,
                    at,
                });
            }
            Some(Entry::Shared(s)) => {
                for other in &s {
                    self.stats.invalidations += 1;
                    actions.push(CacheAction::Send {
                        to: Endpoint::Core(*other),
                        msg: Msg::Inv { line },
                        at: now + self.l3_lat,
                    });
                }
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Shared(BTreeSet::new()),
                        phase: Phase::CollectingAcks {
                            req,
                            pending: s.len(),
                            far: Some((rmw, req_id)),
                        },
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(Entry::Exclusive(owner)) => {
                self.stats.invalidations += 1;
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(owner),
                    msg: Msg::Inv { line },
                    at: now + self.l3_lat,
                });
                self.entries.insert(
                    line,
                    Entry::Blocked(Box::new(BlockInfo {
                        next: Entry2::Shared(BTreeSet::new()),
                        phase: Phase::CollectingAcks {
                            req,
                            pending: 1,
                            far: Some((rmw, req_id)),
                        },
                        queue: VecDeque::new(),
                    })),
                );
            }
            Some(e @ Entry::Blocked(_)) => {
                self.entries.insert(line, e);
                debug_assert!(false, "blocked entries are queued by handle_msg");
                return Err(ProtocolError::BlockedEntryReentered {
                    tile: self.tile,
                    msg: Msg::AtomicFar {
                        req,
                        line,
                        rmw,
                        req_id,
                    },
                });
            }
        }
        Ok(())
    }

    /// Removes a Blocked entry (the line returns home / Uncached) and
    /// replays its queued requests in arrival order.
    fn release_blocked(
        &mut self,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let Some(Entry::Blocked(b)) = self.entries.remove(&line) else {
            return Ok(());
        };
        for msg in b.queue {
            if let Some(Entry::Blocked(nb)) = self.entries.get_mut(&line) {
                nb.queue.push_back(msg);
            } else {
                self.handle_msg(msg, now + 1, actions)?;
            }
        }
        Ok(())
    }

    fn handle_unblock(
        &mut self,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let Some(Entry::Blocked(b)) = self.entries.remove(&line).map(|e| match e {
            Entry::Blocked(b) => Entry::Blocked(b),
            other => other,
        }) else {
            return Ok(());
        };
        let BlockInfo { next, queue, .. } = *b;
        self.entries.insert(
            line,
            match next {
                Entry2::Shared(s) => Entry::Shared(s),
                Entry2::Exclusive(o) => Entry::Exclusive(o),
            },
        );
        // Replay queued requests in arrival order. Each replay may re-block
        // the entry, in which case the remainder re-queues behind it.
        for msg in queue {
            if let Some(Entry::Blocked(b)) = self.entries.get_mut(&line) {
                b.queue.push_back(msg);
            } else {
                self.handle_msg(msg, now + 1, actions)?;
            }
        }
        Ok(())
    }
}

impl Codec for Entry2 {
    fn encode(&self, w: &mut Writer) {
        match self {
            Entry2::Shared(s) => {
                w.put_u8(0);
                s.encode(w);
            }
            Entry2::Exclusive(c) => {
                w.put_u8(1);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Entry2::Shared(BTreeSet::decode(r)?),
            1 => Entry2::Exclusive(CoreId::decode(r)?),
            tag => {
                return Err(PersistError::BadTag {
                    what: "Entry2",
                    tag,
                })
            }
        })
    }
}

impl Codec for Phase {
    fn encode(&self, w: &mut Writer) {
        match self {
            Phase::AwaitUnblock => w.put_u8(0),
            Phase::CollectingAcks { req, pending, far } => {
                w.put_u8(1);
                req.encode(w);
                pending.encode(w);
                match far {
                    None => w.put_bool(false),
                    Some((rmw, req_id)) => {
                        w.put_bool(true);
                        rmw.encode(w);
                        w.put_u64(*req_id);
                    }
                }
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Phase::AwaitUnblock,
            1 => Phase::CollectingAcks {
                req: CoreId::decode(r)?,
                pending: usize::decode(r)?,
                far: if r.get_bool()? {
                    Some((RmwKind::decode(r)?, r.get_u64()?))
                } else {
                    None
                },
            },
            tag => return Err(PersistError::BadTag { what: "Phase", tag }),
        })
    }
}

impl Codec for Entry {
    fn encode(&self, w: &mut Writer) {
        match self {
            Entry::Shared(s) => {
                w.put_u8(0);
                s.encode(w);
            }
            Entry::Exclusive(c) => {
                w.put_u8(1);
                c.encode(w);
            }
            Entry::Blocked(b) => {
                w.put_u8(2);
                b.next.encode(w);
                b.phase.encode(w);
                b.queue.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Entry::Shared(BTreeSet::decode(r)?),
            1 => Entry::Exclusive(CoreId::decode(r)?),
            2 => Entry::Blocked(Box::new(BlockInfo {
                next: Entry2::decode(r)?,
                phase: Phase::decode(r)?,
                queue: VecDeque::decode(r)?,
            })),
            tag => return Err(PersistError::BadTag { what: "Entry", tag }),
        })
    }
}

impl Codec for DirStats {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.gets,
            self.getx,
            self.forwards,
            self.invalidations,
            self.queued,
            self.l3_misses,
            self.writebacks,
            self.far_atomics,
        ] {
            w.put_u64(v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(DirStats {
            gets: r.get_u64()?,
            getx: r.get_u64()?,
            forwards: r.get_u64()?,
            invalidations: r.get_u64()?,
            queued: r.get_u64()?,
            l3_misses: r.get_u64()?,
            writebacks: r.get_u64()?,
            far_atomics: r.get_u64()?,
        })
    }
}

impl Persist for DirBank {
    // Tile index and latencies are config-derived; the L3 tag array, the
    // directory entries (including Blocked transactions and their queued
    // requesters), and the counters are mutable state.
    fn persist(&self, w: &mut Writer) {
        self.l3.persist(w);
        self.entries.encode(w);
        self.stats.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.l3.restore(r)?;
        self.entries = FastMap::decode(r)?;
        self.stats = DirStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::MemoryConfig;

    fn bank() -> DirBank {
        let cfg = MemoryConfig::alder_lake();
        DirBank::new(0, cfg.l3_bank, cfg.mem_latency)
    }

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn unblock(d: &mut DirBank, from: CoreId, line: LineAddr, now: Cycle) -> Vec<CacheAction> {
        let mut a = Vec::new();
        d.handle_msg(Msg::Unblock { from, line }, now, &mut a)
            .unwrap();
        a
    }

    #[test]
    fn uncached_gets_grants_exclusive_and_blocks_until_unblock() {
        let mut d = bank();
        let line = LineAddr::new(1);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send {
                msg: Msg::Data {
                    excl: true,
                    from_private: false,
                    ..
                },
                ..
            }
        ));
        assert_eq!(d.state(line), DirState::Blocked);
        unblock(&mut d, c(0), line, Cycle::new(50));
        assert_eq!(d.state(line), DirState::Exclusive(c(0)));
    }

    #[test]
    fn first_touch_pays_memory_latency_second_does_not() {
        let mut d = bank();
        let line = LineAddr::new(2);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        let CacheAction::Send { at: first, .. } = a[0] else {
            panic!()
        };
        assert!(first.raw() >= 35 + 160);
        unblock(&mut d, c(0), line, Cycle::new(400));
        // Writeback returns the line home; next access hits L3.
        let mut a = Vec::new();
        d.handle_msg(Msg::PutM { from: c(0), line }, Cycle::new(500), &mut a)
            .unwrap();
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(600), &mut a)
            .unwrap();
        let CacheAction::Send { at: second, .. } = a[0] else {
            panic!()
        };
        assert_eq!(second.raw(), 600 + 35);
    }

    #[test]
    fn gets_on_shared_blocks_until_unblock() {
        let mut d = bank();
        let line = LineAddr::new(3);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        // Downgrade path: second reader forwards to owner.
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send { to: Endpoint::Core(o), msg: Msg::FwdGetS { .. }, .. } if o == c(0)
        ));
        unblock(&mut d, c(1), line, Cycle::new(30));
        let DirState::Shared(s) = d.state(line) else {
            panic!()
        };
        assert_eq!(s.len(), 2);
        // Third reader: served from L3, but the entry blocks until the
        // reader's Unblock arrives — the fill's Unblock must pair with THIS
        // transaction so it can never release a later one prematurely.
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(2), line }, Cycle::new(40), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send {
                msg: Msg::Data { excl: false, .. },
                ..
            }
        ));
        assert_eq!(d.state(line), DirState::Blocked);
        unblock(&mut d, c(2), line, Cycle::new(50));
        let DirState::Shared(s) = d.state(line) else {
            panic!()
        };
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn stray_unblock_on_stable_entry_leaves_state_untouched() {
        // A duplicated (chaos) or stale Unblock must never mutate a stable
        // entry: deleting it would let the next requester take an exclusive
        // grant while the old owner still holds the line (SWMR violation).
        let mut d = bank();
        let line = LineAddr::new(9);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        assert_eq!(d.state(line), DirState::Exclusive(c(0)));
        unblock(&mut d, c(0), line, Cycle::new(20)); // duplicate
        assert_eq!(d.state(line), DirState::Exclusive(c(0)));
    }

    #[test]
    fn getx_on_shared_invalidates_then_grants() {
        let mut d = bank();
        let line = LineAddr::new(4);
        // Three sharers: 0, 1, 2.
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        unblock(&mut d, c(1), line, Cycle::new(30));
        let DirState::Shared(_) = d.state(line) else {
            panic!()
        };
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(2), line }, Cycle::new(40), &mut a)
            .unwrap();
        unblock(&mut d, c(2), line, Cycle::new(45));

        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(2), line }, Cycle::new(50), &mut a)
            .unwrap();
        let invs: Vec<CoreId> = a
            .iter()
            .filter_map(|x| match x {
                CacheAction::Send {
                    to: Endpoint::Core(cc),
                    msg: Msg::Inv { .. },
                    ..
                } => Some(*cc),
                _ => None,
            })
            .collect();
        assert_eq!(
            invs,
            vec![c(0), c(1)],
            "requester itself is not invalidated"
        );
        // No data until all acks arrive.
        assert!(!a.iter().any(|x| matches!(
            x,
            CacheAction::Send {
                msg: Msg::Data { .. },
                ..
            }
        )));
        let mut a = Vec::new();
        d.handle_msg(Msg::InvAck { from: c(0), line }, Cycle::new(60), &mut a)
            .unwrap();
        assert!(a.is_empty());
        d.handle_msg(Msg::InvAck { from: c(1), line }, Cycle::new(70), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send {
                msg: Msg::Data { excl: true, .. },
                ..
            }
        ));
        unblock(&mut d, c(2), line, Cycle::new(90));
        assert_eq!(d.state(line), DirState::Exclusive(c(2)));
    }

    #[test]
    fn getx_on_exclusive_forwards_to_owner() {
        let mut d = bank();
        let line = LineAddr::new(5);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send { to: Endpoint::Core(o), msg: Msg::FwdGetX { .. }, .. } if o == c(0)
        ));
        unblock(&mut d, c(1), line, Cycle::new(40));
        assert_eq!(d.state(line), DirState::Exclusive(c(1)));
    }

    #[test]
    fn requests_queue_while_blocked_and_replay_in_order() {
        let mut d = bank();
        let line = LineAddr::new(6);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        // Two more requesters pile up before core0 unblocks (Fig. 8's [T1]).
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(1), line }, Cycle::new(5), &mut a)
            .unwrap();
        d.handle_msg(Msg::GetX { req: c(2), line }, Cycle::new(6), &mut a)
            .unwrap();
        assert!(a.is_empty(), "queued requests produce no actions yet");
        assert_eq!(d.stats().queued, 2);

        // Unblock from core0 replays core1's request -> FwdGetX to core0.
        let a = unblock(&mut d, c(0), line, Cycle::new(100));
        let fwd: Vec<(CoreId, CoreId)> = a
            .iter()
            .filter_map(|x| match x {
                CacheAction::Send {
                    to: Endpoint::Core(owner),
                    msg: Msg::FwdGetX { req, .. },
                    ..
                } => Some((*owner, *req)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(c(0), c(1))]);
        // core2 remains queued behind the new transaction.
        assert_eq!(d.state(line), DirState::Blocked);
        let a = unblock(&mut d, c(1), line, Cycle::new(200));
        let fwd: Vec<(CoreId, CoreId)> = a
            .iter()
            .filter_map(|x| match x {
                CacheAction::Send {
                    to: Endpoint::Core(owner),
                    msg: Msg::FwdGetX { req, .. },
                    ..
                } => Some((*owner, *req)),
                _ => None,
            })
            .collect();
        assert_eq!(fwd, vec![(c(1), c(2))]);
    }

    #[test]
    fn putm_from_owner_accepted_from_stranger_stale() {
        let mut d = bank();
        let line = LineAddr::new(7);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        let mut a = Vec::new();
        d.handle_msg(Msg::PutM { from: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send {
                msg: Msg::WbStale { .. },
                ..
            }
        ));
        assert_eq!(d.state(line), DirState::Exclusive(c(0)));
        let mut a = Vec::new();
        d.handle_msg(Msg::PutM { from: c(0), line }, Cycle::new(30), &mut a)
            .unwrap();
        assert!(matches!(
            a[0],
            CacheAction::Send {
                msg: Msg::WbAck { .. },
                ..
            }
        ));
        assert_eq!(d.state(line), DirState::Uncached);
    }

    #[test]
    fn putm_racing_a_forward_queues_then_goes_stale() {
        let mut d = bank();
        let line = LineAddr::new(8);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        // core1 wants the line; dir forwards to core0 and blocks.
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        // core0's eviction PutM arrives while blocked: queues.
        let mut a = Vec::new();
        d.handle_msg(Msg::PutM { from: c(0), line }, Cycle::new(25), &mut a)
            .unwrap();
        assert!(a.is_empty());
        // core0 served the forward anyway; core1 unblocks; queued PutM
        // replays and is now stale (owner is core1).
        let a = unblock(&mut d, c(1), line, Cycle::new(60));
        assert!(a.iter().any(|x| matches!(
            x,
            CacheAction::Send { to: Endpoint::Core(cc), msg: Msg::WbStale { .. }, .. } if *cc == c(0)
        )));
        assert_eq!(d.state(line), DirState::Exclusive(c(1)));
    }

    #[test]
    fn upgrade_when_sole_sharer_skips_invalidations() {
        let mut d = bank();
        let line = LineAddr::new(9);
        // Make the entry Shared with only core0 (via the fwd path would give
        // two sharers, so build Shared directly through E-grant + downgrade).
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        unblock(&mut d, c(0), line, Cycle::new(10));
        // Owner core0 upgrades: dir forwards? No — Exclusive(core0) + GetX
        // from core0 cannot happen (it already owns). Instead check Shared:
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();
        unblock(&mut d, c(1), line, Cycle::new(30));
        // Invalidate core0 via core1's upgrade, leaving Shared{core1}... —
        // exercise the sole-sharer fast path directly:
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(1), line }, Cycle::new(40), &mut a)
            .unwrap();
        let mut acks = Vec::new();
        d.handle_msg(Msg::InvAck { from: c(0), line }, Cycle::new(50), &mut acks)
            .unwrap();
        unblock(&mut d, c(1), line, Cycle::new(60));
        assert_eq!(d.state(line), DirState::Exclusive(c(1)));
        // Now Shared set was consumed; re-share with just core1, then GetX
        // from core1 goes through the no-invalidation path.
        let mut a = Vec::new();
        d.handle_msg(Msg::PutM { from: c(1), line }, Cycle::new(70), &mut a)
            .unwrap();
        let mut a = Vec::new();
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(80), &mut a)
            .unwrap();
        unblock(&mut d, c(1), line, Cycle::new(90));
        // Downgrade E->S is silent in the dir? The dir records Exclusive on
        // the E grant; a GetX from the same core can't occur. This test ends
        // by confirming the E grant.
        assert_eq!(d.state(line), DirState::Exclusive(c(1)));
    }

    #[test]
    fn stale_acks_and_unblocks_are_ignored() {
        let mut d = bank();
        let line = LineAddr::new(11);
        let mut a = Vec::new();
        d.handle_msg(Msg::InvAck { from: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        d.handle_msg(Msg::Unblock { from: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        assert!(a.is_empty());
        assert_eq!(d.state(line), DirState::Uncached);
    }
}

#[cfg(test)]
mod far_tests {
    use super::*;
    use row_common::config::MemoryConfig;
    use row_common::rmw::RmwKind;

    fn bank() -> DirBank {
        let cfg = MemoryConfig::alder_lake();
        DirBank::new(0, cfg.l3_bank, cfg.mem_latency)
    }

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn far(d: &mut DirBank, req: CoreId, line: LineAddr, id: u64, now: Cycle) -> Vec<CacheAction> {
        let mut a = Vec::new();
        d.handle_msg(
            Msg::AtomicFar {
                req,
                line,
                rmw: RmwKind::Faa(1),
                req_id: id,
            },
            now,
            &mut a,
        )
        .unwrap();
        a
    }

    #[test]
    fn far_on_uncached_applies_immediately() {
        let mut d = bank();
        let line = LineAddr::new(70);
        let a = far(&mut d, c(0), line, 9, Cycle::ZERO);
        assert!(matches!(a[0], CacheAction::ApplyRmw { req_id: 9, .. }));
        assert_eq!(d.state(line), DirState::Uncached, "no blocking needed");
        assert_eq!(d.stats().far_atomics, 1);
    }

    #[test]
    fn far_on_exclusive_recalls_the_owner_first() {
        let mut d = bank();
        let line = LineAddr::new(71);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        d.handle_msg(Msg::Unblock { from: c(0), line }, Cycle::new(10), &mut a)
            .unwrap();

        let a = far(&mut d, c(1), line, 5, Cycle::new(20));
        assert!(matches!(
            a[0],
            CacheAction::Send { to: Endpoint::Core(o), msg: Msg::Inv { .. }, .. } if o == c(0)
        ));
        assert!(!a.iter().any(|x| matches!(x, CacheAction::ApplyRmw { .. })));
        assert_eq!(d.state(line), DirState::Blocked);

        let mut a = Vec::new();
        d.handle_msg(Msg::InvAck { from: c(0), line }, Cycle::new(60), &mut a)
            .unwrap();
        assert!(matches!(a[0], CacheAction::ApplyRmw { req_id: 5, .. }));
        assert_eq!(d.state(line), DirState::Uncached);
    }

    #[test]
    fn far_on_shared_invalidates_all_sharers() {
        let mut d = bank();
        let line = LineAddr::new(72);
        let mut a = Vec::new();
        // Build Shared{0,1} via E-grant + downgrade.
        d.handle_msg(Msg::GetS { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        d.handle_msg(Msg::Unblock { from: c(0), line }, Cycle::new(5), &mut a)
            .unwrap();
        d.handle_msg(Msg::GetS { req: c(1), line }, Cycle::new(10), &mut a)
            .unwrap();
        d.handle_msg(Msg::Unblock { from: c(1), line }, Cycle::new(20), &mut a)
            .unwrap();

        let a = far(&mut d, c(2), line, 3, Cycle::new(30));
        let invs = a
            .iter()
            .filter(|x| {
                matches!(
                    x,
                    CacheAction::Send {
                        msg: Msg::Inv { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(invs, 2);
        let mut a = Vec::new();
        d.handle_msg(Msg::InvAck { from: c(0), line }, Cycle::new(40), &mut a)
            .unwrap();
        assert!(a.is_empty());
        d.handle_msg(Msg::InvAck { from: c(1), line }, Cycle::new(50), &mut a)
            .unwrap();
        assert!(matches!(a[0], CacheAction::ApplyRmw { req_id: 3, .. }));
    }

    #[test]
    fn far_queues_behind_a_blocked_entry_and_replays() {
        let mut d = bank();
        let line = LineAddr::new(73);
        let mut a = Vec::new();
        d.handle_msg(Msg::GetX { req: c(0), line }, Cycle::ZERO, &mut a)
            .unwrap();
        // Entry is Blocked awaiting core0's unblock: the far request queues.
        let a = far(&mut d, c(1), line, 7, Cycle::new(5));
        assert!(a.is_empty());
        let mut a = Vec::new();
        d.handle_msg(Msg::Unblock { from: c(0), line }, Cycle::new(30), &mut a)
            .unwrap();
        // Replay: dir is now Exclusive(core0) -> recall then apply.
        assert!(a.iter().any(|x| matches!(
            x,
            CacheAction::Send { to: Endpoint::Core(o), msg: Msg::Inv { .. }, .. } if *o == c(0)
        )));
    }

    #[test]
    fn consecutive_far_atomics_pipeline_without_blocking() {
        let mut d = bank();
        let line = LineAddr::new(74);
        for k in 0..5 {
            let a = far(&mut d, c(k), line, k as u64, Cycle::new(k as u64 * 10));
            assert!(
                matches!(a[0], CacheAction::ApplyRmw { .. }),
                "uncached far ops never block the entry"
            );
        }
        assert_eq!(d.stats().far_atomics, 5);
    }
}
