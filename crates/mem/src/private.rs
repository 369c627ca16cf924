//! Per-core private cache controller (L1D + private L2).
//!
//! The controller owns the coherence state of its private domain, the MSHRs,
//! the IP-stride prefetcher, and — crucially for this paper — the *lock
//! table* and the *stall queue* for external coherence requests that hit
//! locked lines. The Atomic Queue in the core locks/unlocks lines through
//! [`PrivateCache::lock`] / [`PrivateCache::unlock`]; while a line is locked,
//! invalidations and downgrades targeting it are queued here and answered
//! only after the unlock, exactly as cache locking requires.
//!
//! The controller is a pure state machine: handlers return [`CacheAction`]s
//! (messages to send, events to emit) that the [`MemorySystem`] executes,
//! which keeps this module independently unit-testable.
//!
//! [`MemorySystem`]: crate::system::MemorySystem

use std::collections::VecDeque;

use row_common::config::MemoryConfig;
use row_common::coverage::{self, PrivCounts};
use row_common::fastmap::FastMap;
use row_common::ids::{CoreId, LineAddr};
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::Cycle;

use crate::array::{CacheArray, Insert};
use crate::error::ProtocolError;
use crate::msg::{AccessKind, Endpoint, FillSource, MemEvent, Msg, ReqMeta};
use crate::prefetch::IpStridePrefetcher;

/// Coherence state of a line within a private domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrivState {
    /// Shared, read-only.
    S,
    /// Exclusive, clean; silently upgradable to M.
    E,
    /// Modified, owned.
    M,
    /// Writeback (`PutM`) in flight; awaiting `WbAck`/`WbStale`.
    Evicting,
}

/// An action the controller asks the memory system to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheAction {
    /// Send `msg` towards `to`, entering the NoC at cycle `at`.
    Send {
        /// Destination endpoint.
        to: Endpoint,
        /// The protocol message.
        msg: Msg,
        /// NoC injection cycle.
        at: Cycle,
    },
    /// Report an event to the core side.
    Emit(MemEvent),
    /// Apply a far atomic's RMW to the functional word store at the home
    /// tile (performed by the memory system, which owns the store), then
    /// deliver a `FarDone` to `req`.
    ApplyRmw {
        /// Requesting core (receives the `FarDone`).
        req: CoreId,
        /// The line operated on.
        line: LineAddr,
        /// The modify operation.
        rmw: row_common::rmw::RmwKind,
        /// Echo of the request id.
        req_id: u64,
        /// Cycle the operation performs at the home bank.
        at: Cycle,
    },
}

/// Outcome of a core-side access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessOutcome {
    /// The access hits in the private domain and completes at `complete_at`.
    Hit {
        /// Completion cycle.
        complete_at: Cycle,
        /// L1 or L2.
        source: FillSource,
    },
    /// The access misses (or waits); a [`MemEvent::Fill`] will follow.
    Pending,
}

/// Aggregate counters for one private hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PrivStats {
    /// Demand accesses that hit in L1D.
    pub l1_hits: u64,
    /// Demand accesses that hit in the private L2.
    pub l2_hits: u64,
    /// Demand accesses that left the private domain.
    pub misses: u64,
    /// Prefetch requests issued to the network.
    pub prefetches: u64,
    /// External requests that arrived while their line was locked.
    pub ext_stalled: u64,
    /// External requests processed in total.
    pub ext_seen: u64,
    /// Writebacks (PutM) issued.
    pub writebacks: u64,
}

#[derive(Clone, Debug)]
struct Mshr {
    /// True when the outstanding request is a GetX.
    excl: bool,
    /// Requests completed by the pending fill.
    waiters: Vec<ReqMeta>,
    /// Requests that need exclusive permission but merged onto a GetS; a GetX
    /// is issued for them once the shared fill lands.
    upgrade_waiters: Vec<ReqMeta>,
    /// Cycle the request message left the private hierarchy (the AQ's
    /// `request issued cycle` in RoW).
    issued_at: Cycle,
}

/// The private cache controller for one core.
#[derive(Clone, Debug)]
pub struct PrivateCache {
    id: CoreId,
    home_of: fn(LineAddr, usize) -> usize,
    tiles: usize,
    l1: CacheArray,
    l2: CacheArray,
    l1_lat: u64,
    l2_lat: u64,
    coh: FastMap<LineAddr, PrivState>,
    mshrs: FastMap<LineAddr, Mshr>,
    mshr_limit: usize,
    pending: VecDeque<ReqMetaLine>,
    locked: FastMap<LineAddr, u32>,
    stalled_ext: FastMap<LineAddr, VecDeque<Msg>>,
    prefetcher: Option<IpStridePrefetcher>,
    stats: PrivStats,
    /// `(state, event)` transitions this controller has handled. Derived
    /// state: never persisted, and a restore leaves it as it was.
    pub(crate) coverage: PrivCounts,
}

#[derive(Clone, Copy, Debug)]
struct ReqMetaLine {
    meta: ReqMeta,
    line: LineAddr,
}

impl PrivateCache {
    /// Builds the controller for core `id` in a system of `tiles` tiles.
    /// `home_of` maps a line to its home directory tile.
    pub fn new(
        id: CoreId,
        cfg: &MemoryConfig,
        tiles: usize,
        home_of: fn(LineAddr, usize) -> usize,
    ) -> Self {
        PrivateCache {
            id,
            home_of,
            tiles,
            l1: CacheArray::new(cfg.l1d),
            l2: CacheArray::new(cfg.l2),
            l1_lat: cfg.l1d.hit_latency,
            l2_lat: cfg.l2.hit_latency,
            coh: FastMap::new(),
            mshrs: FastMap::new(),
            mshr_limit: cfg.mshr_entries,
            pending: VecDeque::new(),
            locked: FastMap::new(),
            stalled_ext: FastMap::new(),
            prefetcher: cfg
                .prefetcher
                .then(|| IpStridePrefetcher::new(64, cfg.prefetch_degree)),
            stats: PrivStats::default(),
            coverage: PrivCounts::default(),
        }
    }

    /// This controller's core.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Counters so far.
    pub fn stats(&self) -> &PrivStats {
        &self.stats
    }

    /// Coherence state of `line`, if present in the private domain.
    pub fn state(&self, line: LineAddr) -> Option<PrivState> {
        self.coh.get(&line).copied()
    }

    /// Whether `line` is currently locked by the core's AQ.
    pub fn is_locked(&self, line: LineAddr) -> bool {
        self.locked.get(&line).is_some_and(|c| *c > 0)
    }

    /// Whether this core already owns `line` (M or E): a store to it can
    /// retire from the SB without a coherence transaction.
    pub fn owns(&self, line: LineAddr) -> bool {
        matches!(self.coh.get(&line), Some(PrivState::M) | Some(PrivState::E))
    }

    /// Whether requests are queued behind full MSHRs or an evicting line
    /// (what [`PrivateCache::promote_pending`] works through).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Number of in-flight misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Every line with a coherence state in this private domain (iteration
    /// order is unspecified).
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, PrivState)> + '_ {
        self.coh.iter().map(|(l, &s)| (l, s))
    }

    /// Lines with an in-flight miss (an allocated MSHR).
    pub fn mshr_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.mshrs.keys()
    }

    /// Lines currently held locked by the core's AQ.
    pub fn locked_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.locked.iter().filter(|(_, c)| **c > 0).map(|(l, _)| l)
    }

    /// Overwrites the coherence state of `line`, bypassing the protocol.
    /// **Robustness-testing instrumentation only**: used to verify the
    /// invariant checker catches corrupted cache state. `None` removes the
    /// line.
    pub fn corrupt_state_for_test(&mut self, line: LineAddr, state: Option<PrivState>) {
        match state {
            Some(s) => {
                self.coh.insert(line, s);
            }
            None => {
                self.coh.remove(&line);
            }
        }
    }

    fn dir(&self, line: LineAddr) -> Endpoint {
        Endpoint::Dir((self.home_of)(line, self.tiles))
    }

    /// Core-side access (load, SB store write, or atomic `load_lock`).
    ///
    /// On a hit the outcome names the completion cycle; on a miss a
    /// [`MemEvent::Fill`] is emitted later. `actions` receives any messages
    /// to send (miss requests, prefetches, writebacks of victims).
    pub fn access(
        &mut self,
        meta: ReqMeta,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> AccessOutcome {
        // Train the prefetcher on demand loads before the hit/miss split so
        // streaming patterns prefetch ahead of demand.
        if !meta.prefetch && meta.kind == AccessKind::Read {
            if let (Some(pf), Some(pc)) = (self.prefetcher.as_mut(), meta.pc) {
                let targets = pf.observe(pc, line.base_addr());
                for t in targets {
                    self.maybe_prefetch(t, now, actions);
                }
            }
        }

        if let Some((lat, source)) = self.hit(meta.kind, line) {
            let complete_at = if meta.prefetch { now } else { now + lat };
            return AccessOutcome::Hit {
                complete_at,
                source,
            };
        }

        if meta.prefetch {
            // Prefetches never queue behind full MSHRs.
            self.maybe_prefetch(line, now, actions);
            return AccessOutcome::Pending;
        }

        self.stats.misses += 1;
        if !self.place_miss(meta, line, now, actions) {
            self.pending.push_back(ReqMetaLine { meta, line });
        }
        AccessOutcome::Pending
    }

    /// Serves a `kind` access to `line` when the private domain holds the
    /// permission it needs, returning the hit latency and the level that
    /// served it; `None` on a miss. A write upgrades E to M, and an RMW
    /// locks the line: cache locking is atomic with the access, so no
    /// external request may slip in between the grant and the lock.
    fn hit(&mut self, kind: AccessKind, line: LineAddr) -> Option<(u64, FillSource)> {
        let state = self.coh.get(&line).copied();
        match state {
            Some(PrivState::M | PrivState::E) => {}
            Some(PrivState::S) if !kind.needs_exclusive() => {}
            _ => return None,
        }
        if kind.needs_exclusive() && state == Some(PrivState::E) {
            self.coh.insert(line, PrivState::M);
        }
        if kind == AccessKind::Rmw {
            self.lock(line);
        }
        if self.l1.touch(line) {
            self.stats.l1_hits += 1;
            Some((self.l1_lat, FillSource::L1))
        } else if self.l2.touch(line) {
            self.stats.l2_hits += 1;
            // Refill L1 from L2 (drop silently from L1's victim: L2 is
            // inclusive, so no writeback is needed).
            let locked = &self.locked;
            let _ = self
                .l1
                .insert(line, |l| !matches!(locked.get(&l), Some(c) if *c > 0));
            Some((self.l1_lat + self.l2_lat, FillSource::L2))
        } else {
            // Resident only via the lock table (all ways were pinned when the
            // fill landed): treat as an L1 hit.
            self.stats.l1_hits += 1;
            Some((self.l1_lat, FillSource::L1))
        }
    }

    fn maybe_prefetch(&mut self, line: LineAddr, now: Cycle, actions: &mut Vec<CacheAction>) {
        let present = matches!(
            self.coh.get(&line),
            Some(PrivState::S) | Some(PrivState::E) | Some(PrivState::M)
        );
        if present || self.mshrs.contains_key(&line) || self.mshrs.len() >= self.mshr_limit {
            return;
        }
        let meta = ReqMeta {
            req_id: u64::MAX,
            pc: None,
            prefetch: true,
            kind: AccessKind::Read,
        };
        self.stats.prefetches += 1;
        self.send_miss(meta, line, now, actions);
    }

    /// Places a demand miss: merges it into `line`'s MSHR, or sends a new
    /// request when an MSHR is free and `line` is not being written back.
    /// Returns `false` when the request must wait in the pending queue.
    fn place_miss(
        &mut self,
        meta: ReqMeta,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> bool {
        if let Some(m) = self.mshrs.get_mut(&line) {
            if m.excl || !meta.kind.needs_exclusive() {
                m.waiters.push(meta);
            } else {
                m.upgrade_waiters.push(meta);
            }
            return true;
        }
        if self.mshrs.len() >= self.mshr_limit || self.coh.get(&line) == Some(&PrivState::Evicting)
        {
            return false;
        }
        self.send_miss(meta, line, now, actions);
        true
    }

    fn send_miss(
        &mut self,
        meta: ReqMeta,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) {
        let excl = meta.kind.needs_exclusive();
        let issued_at = now + self.l1_lat + self.l2_lat;
        self.mshrs.insert(
            line,
            Mshr {
                excl,
                waiters: vec![meta],
                upgrade_waiters: Vec::new(),
                issued_at,
            },
        );
        let msg = if excl {
            Msg::GetX { req: self.id, line }
        } else {
            Msg::GetS { req: self.id, line }
        };
        actions.push(CacheAction::Send {
            to: self.dir(line),
            msg,
            at: issued_at,
        });
    }

    /// Re-examines the pending queue (called each cycle by the system while
    /// the queue is non-empty, and after MSHR-freeing events).
    pub fn promote_pending(&mut self, now: Cycle, actions: &mut Vec<CacheAction>) {
        while let Some(ReqMetaLine { meta, line }) = self.pending.front().copied() {
            // A fill may have landed meanwhile and turned this into a hit.
            if let Some((lat, source)) = self.hit(meta.kind, line) {
                actions.push(CacheAction::Emit(MemEvent::Fill {
                    core: self.id,
                    req_id: meta.req_id,
                    line,
                    at: now + lat,
                    issued_at: now,
                    source,
                    kind: meta.kind,
                }));
            } else if !self.place_miss(meta, line, now, actions) {
                break; // head-of-line blocked
            }
            self.pending.pop_front();
        }
    }

    /// Locks `line` (AQ `load_lock` completed). Locks nest per AQ entry.
    ///
    /// `Rmw` accesses lock automatically when they hit or fill (the lock is
    /// atomic with the permission grant); the core only calls
    /// [`PrivateCache::unlock`] when the `store_unlock` writes. This method
    /// exists for additional nesting and for tests.
    pub fn lock(&mut self, line: LineAddr) {
        *self.locked.get_or_insert_with(line, || 0) += 1;
        debug_assert!(
            matches!(self.coh.get(&line), Some(PrivState::M)),
            "locking a line not in M: {:?}",
            self.coh.get(&line)
        );
    }

    /// Unlocks `line` (AQ `store_unlock` wrote). When the last lock drops,
    /// stalled external requests are answered in arrival order.
    pub fn unlock(
        &mut self,
        line: LineAddr,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let Some(c) = self.locked.get_mut(&line) else {
            return Err(ProtocolError::UnlockOfUnlocked {
                core: self.id,
                line,
            });
        };
        *c -= 1;
        if *c > 0 {
            return Ok(());
        }
        self.locked.remove(&line);
        if let Some(q) = self.stalled_ext.remove(&line) {
            for msg in q {
                self.apply_external(msg, now + self.l1_lat, actions)?;
            }
        }
        Ok(())
    }

    /// Handles a protocol message addressed to this controller.
    pub fn handle_msg(
        &mut self,
        msg: Msg,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        self.record_coverage(&msg);
        match msg {
            Msg::Inv { line } | Msg::FwdGetS { line, .. } | Msg::FwdGetX { line, .. } => {
                self.stats.ext_seen += 1;
                let stalled = self.is_locked(line);
                actions.push(CacheAction::Emit(MemEvent::ExternalObserved {
                    core: self.id,
                    line,
                    at: now,
                    stalled,
                }));
                if stalled {
                    self.stats.ext_stalled += 1;
                    self.stalled_ext
                        .get_or_insert_with(line, VecDeque::new)
                        .push_back(msg);
                } else {
                    self.apply_external(msg, now, actions)?;
                }
            }
            Msg::Data {
                line,
                excl,
                from_private,
                ..
            } => self.handle_data(line, excl, from_private, now, actions)?,
            Msg::WbAck { line } | Msg::WbStale { line } => {
                if self.coh.get(&line) == Some(&PrivState::Evicting) {
                    self.coh.remove(&line);
                }
                self.promote_pending(now, actions);
            }
            Msg::FarDone { req_id, line, .. } => {
                actions.push(CacheAction::Emit(MemEvent::FarDone {
                    core: self.id,
                    line,
                    req_id,
                    at: now,
                }));
            }
            other => {
                return Err(ProtocolError::CacheUnexpectedMessage {
                    core: self.id,
                    msg: other,
                })
            }
        }
        Ok(())
    }

    /// Counts the `(state-before, event)` transition-coverage slot for an
    /// incoming message.
    fn record_coverage(&mut self, msg: &Msg) {
        use coverage::{PrivEvent as Ev, PrivState as St};
        let (line, event) = match msg {
            Msg::Inv { line } => (Some(*line), Ev::Inv),
            Msg::FwdGetS { line, .. } => (Some(*line), Ev::FwdGetS),
            Msg::FwdGetX { line, .. } => (Some(*line), Ev::FwdGetX),
            Msg::Data { line, .. } => (Some(*line), Ev::Data),
            Msg::WbAck { line } => (Some(*line), Ev::WbAck),
            Msg::WbStale { line } => (Some(*line), Ev::WbStale),
            Msg::FarDone { line, .. } => (Some(*line), Ev::FarDone),
            _ => (None, Ev::Other),
        };
        let state = match line.and_then(|l| self.coh.get(&l)) {
            None => St::I,
            Some(PrivState::S) => St::S,
            Some(PrivState::E) => St::E,
            Some(PrivState::M) => St::M,
            Some(PrivState::Evicting) => St::Evicting,
        };
        self.coverage.record(coverage::priv_slot(state, event));
    }

    fn apply_external(
        &mut self,
        msg: Msg,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        match msg {
            Msg::Inv { line } => {
                self.drop_line(line);
                actions.push(CacheAction::Send {
                    to: self.dir(line),
                    msg: Msg::InvAck {
                        from: self.id,
                        line,
                    },
                    at: now,
                });
            }
            Msg::FwdGetS { req, line } => {
                // Serve from our copy and downgrade to S. If we were mid-
                // eviction the directory ordered the forward first; we serve
                // it and let our PutM be rejected as stale.
                let served_at = now + self.l1_lat;
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: false,
                        from_private: true,
                    },
                    at: served_at,
                });
                match self.coh.get(&line) {
                    Some(PrivState::Evicting) => {} // dropped after WbStale
                    Some(_) => {
                        self.coh.insert(line, PrivState::S);
                    }
                    None => {}
                }
            }
            Msg::FwdGetX { req, line } => {
                let served_at = now + self.l1_lat;
                actions.push(CacheAction::Send {
                    to: Endpoint::Core(req),
                    msg: Msg::Data {
                        req,
                        line,
                        excl: true,
                        from_private: true,
                    },
                    at: served_at,
                });
                if self.coh.get(&line) == Some(&PrivState::Evicting) {
                    // Keep the Evicting marker for WbStale bookkeeping.
                } else {
                    self.drop_line(line);
                }
            }
            other => {
                return Err(ProtocolError::CacheUnexpectedMessage {
                    core: self.id,
                    msg: other,
                })
            }
        }
        Ok(())
    }

    fn drop_line(&mut self, line: LineAddr) {
        self.coh.remove(&line);
        self.l1.invalidate(line);
        self.l2.invalidate(line);
    }

    fn handle_data(
        &mut self,
        line: LineAddr,
        excl: bool,
        from_private: bool,
        now: Cycle,
        actions: &mut Vec<CacheAction>,
    ) -> Result<(), ProtocolError> {
        let Some(mshr) = self.mshrs.remove(&line) else {
            return Err(ProtocolError::DataWithoutMshr {
                core: self.id,
                line,
            });
        };
        let state = if mshr.excl {
            PrivState::M
        } else if excl {
            PrivState::E
        } else {
            PrivState::S
        };
        self.coh.insert(line, state);
        self.install(line, now, actions);

        let source = if from_private {
            FillSource::RemotePrivate
        } else {
            FillSource::L3
        };
        for w in &mshr.waiters {
            if w.kind == AccessKind::Rmw {
                self.lock(line);
            }
        }
        for w in &mshr.waiters {
            if !w.prefetch {
                actions.push(CacheAction::Emit(MemEvent::Fill {
                    core: self.id,
                    req_id: w.req_id,
                    line,
                    at: now,
                    issued_at: mshr.issued_at,
                    source,
                    kind: w.kind,
                }));
            }
        }
        actions.push(CacheAction::Send {
            to: self.dir(line),
            msg: Msg::Unblock {
                from: self.id,
                line,
            },
            at: now,
        });
        if !mshr.upgrade_waiters.is_empty() {
            // Got S but writers are waiting: immediately request ownership.
            let mut it = mshr.upgrade_waiters.into_iter();
            let first = it.next().expect("non-empty");
            self.send_miss(first, line, now, actions);
            let m = self.mshrs.get_mut(&line).expect("just inserted");
            m.waiters.extend(it);
        }
        self.promote_pending(now, actions);
        Ok(())
    }

    fn install(&mut self, line: LineAddr, now: Cycle, actions: &mut Vec<CacheAction>) {
        // L2 first (inclusive). The pin closure queries the lock table
        // directly instead of materializing a locked-lines Vec per install.
        let locked = &self.locked;
        match self
            .l2
            .insert(line, |l| !matches!(locked.get(&l), Some(c) if *c > 0))
        {
            Insert::Evicted(victim) => {
                self.l1.invalidate(victim);
                self.writeback_victim(victim, now, actions);
            }
            Insert::NoVictim => {
                // Every way pinned: the line lives in the lock-table limbo;
                // correctness is preserved via `coh`.
            }
            _ => {}
        }
        // L1: victims need no writeback (L2 inclusive holds them).
        let locked = &self.locked;
        let _ = self
            .l1
            .insert(line, |l| !matches!(locked.get(&l), Some(c) if *c > 0));
    }

    fn writeback_victim(&mut self, victim: LineAddr, now: Cycle, actions: &mut Vec<CacheAction>) {
        match self.coh.get(&victim) {
            Some(PrivState::M) | Some(PrivState::E) => {
                self.coh.insert(victim, PrivState::Evicting);
                self.stats.writebacks += 1;
                actions.push(CacheAction::Send {
                    to: self.dir(victim),
                    msg: Msg::PutM {
                        from: self.id,
                        line: victim,
                    },
                    at: now,
                });
            }
            Some(PrivState::S) => {
                // Silent drop: the directory tolerates acks from non-sharers.
                self.coh.remove(&victim);
            }
            _ => {}
        }
    }
}

row_common::codec_enum!(PrivState {
    0 => S,
    1 => E,
    2 => M,
    3 => Evicting,
});

row_common::codec_struct!(PrivStats {
    l1_hits,
    l2_hits,
    misses,
    prefetches,
    ext_stalled,
    ext_seen,
    writebacks,
});

row_common::codec_struct!(Mshr {
    excl,
    waiters,
    upgrade_waiters,
    issued_at,
});

row_common::codec_struct!(ReqMetaLine { meta, line });

impl Persist for PrivateCache {
    // `id`, `home_of`, `tiles`, latencies, and the MSHR limit are
    // config-derived and kept; everything a running protocol mutates moves.
    fn persist(&self, w: &mut Writer) {
        self.l1.persist(w);
        self.l2.persist(w);
        self.coh.encode(w);
        self.mshrs.encode(w);
        self.pending.encode(w);
        self.locked.encode(w);
        self.stalled_ext.encode(w);
        match &self.prefetcher {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                p.persist(w);
            }
        }
        self.stats.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.l1.restore(r)?;
        self.l2.restore(r)?;
        self.coh = FastMap::decode(r)?;
        self.mshrs = FastMap::decode(r)?;
        self.pending = VecDeque::decode(r)?;
        self.locked = FastMap::decode(r)?;
        self.stalled_ext = FastMap::decode(r)?;
        let has_prefetcher = r.get_bool()?;
        match (&mut self.prefetcher, has_prefetcher) {
            (Some(p), true) => p.restore(r)?,
            (None, false) => {}
            _ => return Err(PersistError::Corrupt("prefetcher presence mismatch")),
        }
        self.stats = PrivStats::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::ids::Pc;

    fn home(_: LineAddr, _: usize) -> usize {
        0
    }

    fn cache() -> PrivateCache {
        let mut cfg = MemoryConfig::alder_lake();
        cfg.l1d.size_bytes = 4 * 1024; // 64 lines
        cfg.l1d.ways = 4;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.l2.ways = 4;
        cfg.prefetcher = false;
        PrivateCache::new(CoreId::new(0), &cfg, 1, home)
    }

    fn meta(id: u64, kind: AccessKind) -> ReqMeta {
        ReqMeta {
            req_id: id,
            pc: Some(Pc::new(0x100)),
            prefetch: false,
            kind,
        }
    }

    fn fill(c: &mut PrivateCache, line: LineAddr, excl: bool, now: Cycle) -> Vec<CacheAction> {
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::Data {
                req: c.id(),
                line,
                excl,
                from_private: false,
            },
            now,
            &mut acts,
        )
        .unwrap();
        acts
    }

    #[test]
    fn read_miss_sends_gets_then_fill_hits() {
        let mut c = cache();
        let line = LineAddr::new(10);
        let mut acts = Vec::new();
        let out = c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        assert_eq!(out, AccessOutcome::Pending);
        assert!(matches!(
            acts[0],
            CacheAction::Send {
                msg: Msg::GetS { .. },
                ..
            }
        ));
        let acts = fill(&mut c, line, false, Cycle::new(100));
        // Fill event + Unblock.
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Emit(MemEvent::Fill {
                req_id: 1,
                source: FillSource::L3,
                ..
            })
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::Unblock { .. },
                ..
            }
        )));
        assert_eq!(c.state(line), Some(PrivState::S));
        // Now a read hits in L1.
        let mut acts2 = Vec::new();
        let out = c.access(meta(2, AccessKind::Read), line, Cycle::new(200), &mut acts2);
        assert!(matches!(
            out,
            AccessOutcome::Hit {
                source: FillSource::L1,
                ..
            }
        ));
    }

    #[test]
    fn exclusive_fill_grants_e_and_write_upgrades_silently() {
        let mut c = cache();
        let line = LineAddr::new(11);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, true, Cycle::new(50)); // E grant
        assert_eq!(c.state(line), Some(PrivState::E));
        let mut acts = Vec::new();
        let out = c.access(meta(2, AccessKind::Write), line, Cycle::new(60), &mut acts);
        assert!(matches!(out, AccessOutcome::Hit { .. }));
        assert_eq!(c.state(line), Some(PrivState::M));
    }

    #[test]
    fn write_to_shared_line_requests_ownership() {
        let mut c = cache();
        let line = LineAddr::new(12);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, false, Cycle::new(50)); // S
        let mut acts = Vec::new();
        let out = c.access(meta(2, AccessKind::Write), line, Cycle::new(60), &mut acts);
        assert_eq!(out, AccessOutcome::Pending);
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::GetX { .. },
                ..
            }
        )));
    }

    #[test]
    fn reads_merge_into_outstanding_miss() {
        let mut c = cache();
        let line = LineAddr::new(13);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        c.access(meta(2, AccessKind::Read), line, Cycle::new(1), &mut acts);
        assert_eq!(c.outstanding_misses(), 1);
        let acts = fill(&mut c, line, false, Cycle::new(80));
        let fills: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                CacheAction::Emit(MemEvent::Fill { req_id, .. }) => Some(*req_id),
                _ => None,
            })
            .collect();
        assert_eq!(fills, vec![1, 2]);
    }

    #[test]
    fn write_merging_onto_gets_triggers_upgrade_after_fill() {
        let mut c = cache();
        let line = LineAddr::new(14);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        c.access(meta(2, AccessKind::Write), line, Cycle::new(1), &mut acts);
        let acts = fill(&mut c, line, false, Cycle::new(80)); // S fill
                                                              // Reader completes; writer re-requests with GetX.
        assert!(acts
            .iter()
            .any(|a| matches!(a, CacheAction::Emit(MemEvent::Fill { req_id: 1, .. }))));
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::GetX { .. },
                ..
            }
        )));
        let acts = fill(&mut c, line, true, Cycle::new(160));
        assert!(acts
            .iter()
            .any(|a| matches!(a, CacheAction::Emit(MemEvent::Fill { req_id: 2, .. }))));
        assert_eq!(c.state(line), Some(PrivState::M));
    }

    #[test]
    fn inv_on_unlocked_line_acks_and_drops() {
        let mut c = cache();
        let line = LineAddr::new(15);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, false, Cycle::new(50));
        let mut acts = Vec::new();
        c.handle_msg(Msg::Inv { line }, Cycle::new(60), &mut acts)
            .unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Emit(MemEvent::ExternalObserved { stalled: false, .. })
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::InvAck { .. },
                ..
            }
        )));
        assert_eq!(c.state(line), None);
    }

    #[test]
    fn external_request_stalls_on_locked_line_until_unlock() {
        let mut c = cache();
        let line = LineAddr::new(16);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Rmw), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, true, Cycle::new(50)); // Rmw fill auto-locks
        assert!(c.is_locked(line));
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::FwdGetX {
                req: CoreId::new(1),
                line,
            },
            Cycle::new(60),
            &mut acts,
        )
        .unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Emit(MemEvent::ExternalObserved { stalled: true, .. })
        )));
        // No data served yet.
        assert!(!acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::Data { .. },
                ..
            }
        )));
        assert_eq!(c.stats().ext_stalled, 1);

        let mut acts = Vec::new();
        c.unlock(line, Cycle::new(200), &mut acts).unwrap();
        let served = acts.iter().find_map(|a| match a {
            CacheAction::Send {
                msg: Msg::Data {
                    from_private, excl, ..
                },
                at,
                ..
            } => Some((*from_private, *excl, *at)),
            _ => None,
        });
        let (from_private, excl, at) = served.expect("data served after unlock");
        assert!(from_private && excl);
        assert!(at > Cycle::new(200));
        assert_eq!(c.state(line), None, "ownership transferred");
    }

    #[test]
    fn fwd_gets_downgrades_to_shared() {
        let mut c = cache();
        let line = LineAddr::new(17);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Write), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, true, Cycle::new(50));
        assert_eq!(c.state(line), Some(PrivState::M));
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::FwdGetS {
                req: CoreId::new(1),
                line,
            },
            Cycle::new(60),
            &mut acts,
        )
        .unwrap();
        assert_eq!(c.state(line), Some(PrivState::S));
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::Data {
                    excl: false,
                    from_private: true,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn capacity_eviction_of_modified_line_writes_back() {
        let mut c = cache();
        // Fill one L2 set (4 ways) with M lines, then fill a 5th.
        let sets = 64; // 16KB/64B/4ways
        let lines: Vec<LineAddr> = (0..5).map(|k| LineAddr::new(1 + k * sets)).collect();
        for (i, &l) in lines.iter().enumerate() {
            let mut acts = Vec::new();
            c.access(meta(i as u64, AccessKind::Write), l, Cycle::ZERO, &mut acts);
            let acts = fill(&mut c, l, true, Cycle::new(10 * (i as u64 + 1)));
            if i == 4 {
                assert!(
                    acts.iter().any(|a| matches!(
                        a,
                        CacheAction::Send {
                            msg: Msg::PutM { .. },
                            ..
                        }
                    )),
                    "5th fill must evict and write back an M line"
                );
            }
        }
        assert_eq!(c.state(lines[0]), Some(PrivState::Evicting));
        let mut acts = Vec::new();
        c.handle_msg(Msg::WbAck { line: lines[0] }, Cycle::new(100), &mut acts)
            .unwrap();
        assert_eq!(c.state(lines[0]), None);
    }

    #[test]
    fn locked_lines_are_never_victims() {
        let mut c = cache();
        let sets = 64;
        let locked_line = LineAddr::new(2);
        let mut acts = Vec::new();
        c.access(
            meta(0, AccessKind::Rmw),
            locked_line,
            Cycle::ZERO,
            &mut acts,
        );
        fill(&mut c, locked_line, true, Cycle::new(10)); // auto-locks
                                                         // Flood the same set.
        for k in 1..=6u64 {
            let l = LineAddr::new(2 + k * sets);
            let mut acts = Vec::new();
            c.access(meta(k, AccessKind::Write), l, Cycle::new(20 + k), &mut acts);
            fill(&mut c, l, true, Cycle::new(30 + 10 * k));
        }
        assert_eq!(c.state(locked_line), Some(PrivState::M));
        assert!(c.is_locked(locked_line));
    }

    #[test]
    fn mshr_limit_queues_then_promotes() {
        let mut cfg = MemoryConfig::alder_lake();
        cfg.mshr_entries = 1;
        cfg.prefetcher = false;
        let mut c = PrivateCache::new(CoreId::new(0), &cfg, 1, home);
        let a = LineAddr::new(30);
        let b = LineAddr::new(31);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Read), a, Cycle::ZERO, &mut acts);
        c.access(meta(2, AccessKind::Read), b, Cycle::new(1), &mut acts);
        assert_eq!(c.outstanding_misses(), 1);
        assert_eq!(
            acts.iter()
                .filter(|x| matches!(
                    x,
                    CacheAction::Send {
                        msg: Msg::GetS { .. },
                        ..
                    }
                ))
                .count(),
            1
        );
        let acts = fill(&mut c, a, false, Cycle::new(100));
        // Promoting the queue sends the second GetS.
        assert!(acts.iter().any(|x| matches!(
            x,
            CacheAction::Send { msg: Msg::GetS { line, .. }, .. } if *line == b
        )));
    }

    #[test]
    fn rmw_hit_in_m_state_completes_locally() {
        let mut c = cache();
        let line = LineAddr::new(40);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Write), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, true, Cycle::new(10));
        let mut acts = Vec::new();
        let out = c.access(meta(2, AccessKind::Rmw), line, Cycle::new(20), &mut acts);
        assert!(matches!(out, AccessOutcome::Hit { .. }));
    }

    #[test]
    fn nested_locks_release_in_order() {
        let mut c = cache();
        let line = LineAddr::new(41);
        let mut acts = Vec::new();
        c.access(meta(1, AccessKind::Rmw), line, Cycle::ZERO, &mut acts);
        fill(&mut c, line, true, Cycle::new(10)); // lock count 1
        c.lock(line); // a second in-flight atomic to the same line
        let mut acts = Vec::new();
        c.unlock(line, Cycle::new(20), &mut acts).unwrap();
        assert!(c.is_locked(line));
        c.unlock(line, Cycle::new(30), &mut acts).unwrap();
        assert!(!c.is_locked(line));
    }

    #[test]
    fn prefetcher_issues_gets_for_strided_loads() {
        let mut cfg = MemoryConfig::alder_lake();
        cfg.prefetcher = true;
        cfg.prefetch_degree = 1;
        let mut c = PrivateCache::new(CoreId::new(0), &cfg, 1, home);
        let pc = Pc::new(0x700);
        let mk = |id: u64| ReqMeta {
            req_id: id,
            pc: Some(pc),
            prefetch: false,
            kind: AccessKind::Read,
        };
        let mut acts = Vec::new();
        for k in 0..3u64 {
            c.access(mk(k), LineAddr::new(100 + k), Cycle::new(k), &mut acts);
        }
        let gets: Vec<LineAddr> = acts
            .iter()
            .filter_map(|a| match a {
                CacheAction::Send {
                    msg: Msg::GetS { line, .. },
                    ..
                } => Some(*line),
                _ => None,
            })
            .collect();
        // 3 demand + at least 1 prefetch beyond line 102.
        assert!(gets.len() >= 4, "got {gets:?}");
        assert!(gets.contains(&LineAddr::new(103)));
        assert!(c.stats().prefetches >= 1);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let meta = |id| ReqMeta {
            req_id: id,
            pc: Some(Pc::new(id + 1)),
            prefetch: true,
            kind: AccessKind::Write,
        };
        let pins = [
            (to_bytes(&PrivState::S), "00"),
            (to_bytes(&PrivState::E), "01"),
            (to_bytes(&PrivState::M), "02"),
            (to_bytes(&PrivState::Evicting), "03"),
            (
                to_bytes(&PrivStats {
                    l1_hits: 1,
                    l2_hits: 2,
                    misses: 3,
                    prefetches: 4,
                    ext_stalled: 5,
                    ext_seen: 6,
                    writebacks: 7,
                }),
                "0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000",
            ),
            (
                to_bytes(&Mshr {
                    excl: true,
                    waiters: vec![meta(0x11)],
                    upgrade_waiters: vec![meta(0x22), meta(0x33)],
                    issued_at: Cycle::new(0x44),
                }),
                "01010000000000000011000000000000000112000000000000000101020000000000000022000000000000000123000000000000000101330000000000000001340000000000000001014400000000000000",
            ),
            (
                to_bytes(&ReqMetaLine {
                    meta: meta(0x55),
                    line: LineAddr::new(0x66),
                }),
                "550000000000000001560000000000000001016600000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::msg::{AccessKind, MemEvent, Msg};
    use row_common::config::MemoryConfig;
    use row_common::ids::CoreId;

    fn home(_: LineAddr, _: usize) -> usize {
        0
    }

    fn cache() -> PrivateCache {
        let mut cfg = MemoryConfig::alder_lake();
        cfg.l1d.size_bytes = 4 * 1024;
        cfg.l1d.ways = 4;
        cfg.l2.size_bytes = 16 * 1024;
        cfg.l2.ways = 4;
        cfg.prefetcher = false;
        PrivateCache::new(CoreId::new(0), &cfg, 1, home)
    }

    fn own_line(c: &mut PrivateCache, line: LineAddr, id: u64) {
        let meta = ReqMeta {
            req_id: id,
            pc: None,
            prefetch: false,
            kind: AccessKind::Write,
        };
        let mut acts = Vec::new();
        c.access(meta, line, Cycle::ZERO, &mut acts);
        c.handle_msg(
            Msg::Data {
                req: c.id(),
                line,
                excl: true,
                from_private: false,
            },
            Cycle::new(10),
            &mut acts,
        )
        .unwrap();
    }

    #[test]
    fn fwd_getx_while_evicting_serves_data_and_survives_wbstale() {
        let mut c = cache();
        let sets = 64;
        // Fill a set until an M line enters Evicting.
        for k in 0..5u64 {
            own_line(&mut c, LineAddr::new(3 + k * sets), k);
        }
        let victim = LineAddr::new(3);
        assert_eq!(c.state(victim), Some(PrivState::Evicting));

        // The directory processed another core's GetX before our PutM.
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::FwdGetX {
                req: CoreId::new(1),
                line: victim,
            },
            Cycle::new(50),
            &mut acts,
        )
        .unwrap();
        assert!(
            acts.iter().any(|a| matches!(
                a,
                CacheAction::Send {
                    msg: Msg::Data {
                        from_private: true,
                        ..
                    },
                    ..
                }
            )),
            "the evicting owner still serves the forward"
        );
        // Our stale PutM is rejected; the entry finally drops.
        let mut acts = Vec::new();
        c.handle_msg(Msg::WbStale { line: victim }, Cycle::new(80), &mut acts)
            .unwrap();
        assert_eq!(c.state(victim), None);
    }

    #[test]
    fn inv_for_absent_line_still_acks() {
        let mut c = cache();
        let line = LineAddr::new(99);
        let mut acts = Vec::new();
        c.handle_msg(Msg::Inv { line }, Cycle::new(5), &mut acts)
            .unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            CacheAction::Send {
                msg: Msg::InvAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn multiple_externals_stall_in_arrival_order() {
        let mut c = cache();
        let line = LineAddr::new(7);
        let meta = ReqMeta {
            req_id: 1,
            pc: None,
            prefetch: false,
            kind: AccessKind::Rmw,
        };
        let mut acts = Vec::new();
        c.access(meta, line, Cycle::ZERO, &mut acts);
        c.handle_msg(
            Msg::Data {
                req: c.id(),
                line,
                excl: true,
                from_private: false,
            },
            Cycle::new(10),
            &mut acts,
        )
        .unwrap(); // auto-locked
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::FwdGetS {
                req: CoreId::new(1),
                line,
            },
            Cycle::new(20),
            &mut acts,
        )
        .unwrap();
        assert_eq!(c.stats().ext_stalled, 1);
        let mut acts = Vec::new();
        c.unlock(line, Cycle::new(100), &mut acts).unwrap();
        let served: Vec<CoreId> = acts
            .iter()
            .filter_map(|a| match a {
                CacheAction::Send {
                    msg: Msg::Data { req, .. },
                    ..
                } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![CoreId::new(1)]);
        assert_eq!(c.state(line), Some(PrivState::S), "downgraded after serve");
    }

    #[test]
    fn far_done_is_emitted_to_the_core() {
        let mut c = cache();
        let line = LineAddr::new(11);
        let mut acts = Vec::new();
        c.handle_msg(
            Msg::FarDone {
                req: c.id(),
                line,
                req_id: 44,
            },
            Cycle::new(9),
            &mut acts,
        )
        .unwrap();
        assert!(matches!(
            acts[0],
            CacheAction::Emit(MemEvent::FarDone { req_id: 44, .. })
        ));
    }
}
