//! The full memory system: private caches + directory banks + mesh.
//!
//! [`MemorySystem`] owns one [`PrivateCache`] per core, one [`DirBank`] per
//! tile, the [`Mesh`], a global event wheel for in-flight messages, and the
//! *functional* word store (real 64-bit values per 8-byte word, so atomics
//! truly read-modify-write and integration tests can assert linearizable
//! outcomes).
//!
//! The core-side contract:
//!
//! 1. Call [`MemorySystem::access`] for loads, SB writes, and atomic
//!    `load_lock`s; completions arrive as [`MemEvent::Fill`]s from
//!    [`MemorySystem::tick`] (hits included, with their hit latency).
//! 2. On an `Rmw` fill, the core locks the line with [`MemorySystem::lock`]
//!    before acting on it and unlocks with [`MemorySystem::unlock`] when the
//!    `store_unlock` writes. External requests targeting a locked line stall
//!    inside the private controller until the unlock.
//! 3. [`MemEvent::ExternalObserved`] fires whenever an invalidation or
//!    downgrade reaches a core — the hook for RoW's ready-window detector and
//!    for LQ squashing.

use std::collections::HashMap;

use row_common::bitset::IndexSet;
use row_common::choice::{self, ChoiceKind, Schedule};
use row_common::config::SystemConfig;
use row_common::coverage::CoverageMap;
use row_common::fastmap::FastMap;
use row_common::ids::{Addr, CoreId, LineAddr};
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::rmw::RmwKind;
use row_common::sched::EventQueue;
use row_common::stats::{RunningMean, TransportStats};
use row_common::Cycle;

use crate::directory::{BlockedEntrySnapshot, DirBank, DirState};
use crate::error::ProtocolError;
use crate::journal::{OpKind, OpRecord};
use crate::msg::{Endpoint, Frame, MemEvent, Msg, ReqMeta};
use crate::private::{AccessOutcome, CacheAction, PrivState, PrivateCache};
use crate::transport::{node_of, InflightProbe, Transport};
use row_noc::{Mesh, MsgClass};

fn home_of(line: LineAddr, tiles: usize) -> usize {
    (line.raw() as usize) % tiles
}

/// Aggregate memory-system statistics (drives Fig. 11).
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    /// Mean L1D miss latency per core (demand requests, access → fill).
    pub miss_latency: Vec<RunningMean>,
    /// Mean miss latency across all cores.
    pub miss_latency_all: RunningMean,
    /// Fills served by a remote private cache.
    pub remote_fills: u64,
    /// Fills served by L3 or memory.
    pub home_fills: u64,
}

/// The simulated memory hierarchy shared by all cores.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    tiles: usize,
    mesh: Mesh,
    dirs: Vec<DirBank>,
    caches: Vec<PrivateCache>,
    net: EventQueue<Frame>,
    out: Vec<MemEvent>,
    words: HashMap<u64, u64>,
    starts: FastMap<(CoreId, u64), Cycle>,
    stats: MemStats,
    /// Chaos-mode fault injection plus, when lossy faults are enabled, the
    /// recoverable transport (sequencing, ACK/NACK, retransmission).
    transport: Option<Transport>,
    /// The explorer's schedule (`litmus`/`explore` runs only), asked at
    /// every message delivery and atomic commit; see [`MemorySystem::decide`].
    /// Not persisted: a restore leaves it as it was.
    schedule: Option<Schedule>,
    /// Apply-order journal of architectural writes for the differential
    /// oracle (`CheckConfig::oracle` or `CheckConfig::oracle_online`);
    /// `None` when both are off. In online mode the simulation loop drains
    /// it every cycle via [`MemorySystem::drain_journal_into`].
    journal: Option<Vec<OpRecord>>,
    /// Armed test-only atomicity bug (lost + duplicated FAA); see
    /// [`MemorySystem::inject_net_zero_faa_for_test`].
    bug: Option<NetZeroFaaBug>,
    /// First protocol error observed; sticky so the simulation loop can
    /// surface it even though core-facing entry points stay infallible.
    err: Option<ProtocolError>,
    /// The dirty-line set and the holder index the incremental invariant
    /// sweep reads. `Some` only while a checker has opted in via
    /// [`MemorySystem::track_dirty_lines`] — the hot path pays nothing
    /// otherwise.
    tracking: Option<LineTracking>,
    /// Reusable `CacheAction` buffer threaded through `access`/`unlock`/
    /// `dispatch`/`tick` so the per-call `Vec` lives once instead of being
    /// reallocated millions of times per run. Always empty between calls;
    /// never persisted or compared.
    scratch_actions: Vec<CacheAction>,
    /// Private caches whose pending queue may be non-empty: a superset of
    /// the caches [`MemorySystem::tick`] must promote. Only
    /// [`MemorySystem::access`] can queue a request, and it adds its cache
    /// here; `tick` drops a cache once its queue empties. Derived state:
    /// never persisted, rebuilt from the caches on restore.
    pending_caches: IndexSet,
}

/// What the incremental invariant sweep reads instead of scanning every
/// cache: which lines may have changed since the last drain, and which cores
/// may hold each line. Derived state: never persisted; a restore clears the
/// dirty set and re-indexes the restored caches.
#[derive(Clone, Debug, Default)]
struct LineTracking {
    /// Lines whose coherence-relevant state may have changed since the last
    /// [`MemorySystem::take_dirty_lines`] drain. Every state change flows
    /// through a marked choke point: a core-side call (`access`/`lock`/
    /// `unlock`), a delivered protocol message, or an *outgoing* message
    /// (which covers eviction side-effects: installing line X evicts Y by
    /// sending a PutM on Y).
    dirty: FastMap<LineAddr, ()>,
    /// The holder index: per (line, 64-core chunk), a bitmask of the cores
    /// that may hold the line — a superset of the true holders. A private
    /// cache gains a line only when a `Msg::Data` is dispatched to it (or
    /// through [`MemorySystem::corrupt_private_state_for_test`]), and both
    /// set the bit; [`MemorySystem::line_holders`] clears the bits of cores
    /// that no longer hold the line.
    holders: FastMap<(LineAddr, u16), u64>,
}

/// A core's holder-index chunk and its bit within the chunk's mask.
#[inline]
fn holder_slot(core: usize) -> (u16, u64) {
    ((core / 64) as u16, 1 << (core % 64))
}

impl LineTracking {
    /// Tracking with no line dirty and every line `caches` hold indexed.
    fn new(caches: &[PrivateCache]) -> Self {
        let mut t = LineTracking::default();
        for (i, c) in caches.iter().enumerate() {
            for (line, _) in c.lines() {
                t.add_holder(i, line);
            }
        }
        t
    }

    #[inline]
    fn add_holder(&mut self, core: usize, line: LineAddr) {
        let (chunk, bit) = holder_slot(core);
        *self.holders.get_or_insert_with((line, chunk), || 0) |= bit;
    }

    fn indexes(&self, core: usize, line: LineAddr) -> bool {
        let (chunk, bit) = holder_slot(core);
        self.holders
            .get(&(line, chunk))
            .is_some_and(|m| m & bit != 0)
    }
}

/// State of the injected net-zero lost+duplicated-FAA bug: count down to the
/// victim FAA, lose it (journal without applying), then apply the *next* FAA
/// on the same word twice while journaling it once. The end state nets out.
#[derive(Clone, Copy, Debug)]
struct NetZeroFaaBug {
    countdown: u64,
    dup_word: Option<u64>,
}

impl MemorySystem {
    /// Builds the memory system for `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration does not validate.
    pub fn new(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let tiles = cfg.cores;
        let dirs = (0..tiles)
            .map(|t| DirBank::new(t, cfg.mem.l3_bank, cfg.mem.mem_latency))
            .collect();
        let caches = (0..tiles)
            .map(|i| PrivateCache::new(CoreId::new(i as u16), &cfg.mem, tiles, home_of))
            .collect();
        MemorySystem {
            tiles,
            mesh: Mesh::new(cfg.noc, tiles),
            dirs,
            caches,
            net: EventQueue::new(),
            out: Vec::new(),
            words: HashMap::new(),
            starts: FastMap::new(),
            stats: MemStats {
                miss_latency: vec![RunningMean::new(); tiles],
                ..MemStats::default()
            },
            transport: {
                // Chaos builds its usual transport; perturbation alone rides
                // a fault-free ("inert") one so bursts apply on the jitter
                // path without enabling any loss.
                let mut t = match (cfg.check.chaos, cfg.check.perturb) {
                    (Some(fc), _) => Some(Transport::new(fc)),
                    (None, Some(_)) => Some(Transport::inert()),
                    (None, None) => None,
                };
                if let Some(t) = t.as_mut() {
                    t.set_perturb(cfg.check.perturb);
                }
                t
            },
            schedule: None,
            journal: (cfg.check.oracle || cfg.check.oracle_online).then(Vec::new),
            bug: None,
            err: None,
            tracking: None,
            scratch_actions: Vec::new(),
            pending_caches: IndexSet::new(tiles),
        }
    }

    /// Turns dirty-line tracking, and the holder index with it, on or off.
    /// While on, every line whose coherence state may have changed is
    /// recorded until the next [`MemorySystem::take_dirty_lines`], and
    /// [`MemorySystem::line_holders`] finds a line's holders without asking
    /// every cache; the incremental invariant sweep then touches only those
    /// lines and cores. Turning tracking on clears any stale set and
    /// indexes every line the caches hold.
    pub fn track_dirty_lines(&mut self, on: bool) {
        self.tracking = on.then(|| LineTracking::new(&self.caches));
    }

    /// Drains and returns the dirty lines accumulated since the last drain,
    /// sorted ascending (empty when tracking is off).
    pub fn take_dirty_lines(&mut self) -> Vec<LineAddr> {
        let Some(t) = self.tracking.as_mut() else {
            return Vec::new();
        };
        let mut v: Vec<LineAddr> = t.dirty.keys().collect();
        t.dirty.clear();
        v.sort_unstable();
        v
    }

    #[inline]
    fn mark_dirty(&mut self, line: LineAddr) {
        if let Some(t) = self.tracking.as_mut() {
            t.dirty.insert(line, ());
        }
    }

    /// Fills `out` with every core holding `line` and its state, in
    /// ascending core order, asking only the cores the holder index lists.
    /// Clears the index bits of listed cores that no longer hold the line,
    /// so a line no cache holds leaves the index at its next check. Empty
    /// when tracking is off.
    pub fn line_holders(&mut self, line: LineAddr, out: &mut Vec<(CoreId, PrivState)>) {
        out.clear();
        let Some(t) = self.tracking.as_mut() else {
            return;
        };
        for chunk in 0..self.tiles.div_ceil(64) as u16 {
            let key = (line, chunk);
            let Some(mask) = t.holders.get_mut(&key) else {
                continue;
            };
            let mut bits = *mask;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let core = usize::from(chunk) * 64 + b as usize;
                match self.caches[core].state(line) {
                    Some(s) => out.push((CoreId::new(core as u16), s)),
                    None => *mask &= !(1 << b),
                }
            }
            if *mask == 0 {
                t.holders.remove(&key);
            }
        }
    }

    /// The first `(core, line)`, in core order, where the core's cache
    /// holds the line but the holder index lacks its bit — always `None`
    /// unless the index's bookkeeping is wrong, or when tracking is off
    /// (`Machine::set_audit` checks it every cycle).
    pub fn unindexed_holder(&self) -> Option<(CoreId, LineAddr)> {
        let t = self.tracking.as_ref()?;
        self.caches.iter().enumerate().find_map(|(i, c)| {
            c.lines()
                .map(|(line, _)| line)
                .filter(|&line| !t.indexes(i, line))
                .min()
                .map(|line| (CoreId::new(i as u16), line))
        })
    }

    /// Issues a core-side access. The completion arrives as a
    /// [`MemEvent::Fill`] from a subsequent [`MemorySystem::tick`].
    pub fn access(&mut self, core: CoreId, line: LineAddr, meta: ReqMeta, now: Cycle) {
        self.mark_dirty(line);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let outcome = self.caches[core.index()].access(meta, line, now, &mut actions);
        if self.caches[core.index()].has_pending() {
            self.pending_caches.insert(core.index());
        }
        match outcome {
            AccessOutcome::Hit {
                complete_at,
                source,
            } => {
                if !meta.prefetch {
                    self.out.push(MemEvent::Fill {
                        core,
                        req_id: meta.req_id,
                        line,
                        at: complete_at,
                        issued_at: now,
                        source,
                        kind: meta.kind,
                    });
                }
            }
            AccessOutcome::Pending => {
                if !meta.prefetch {
                    self.starts.insert((core, meta.req_id), now);
                }
            }
        }
        self.run_actions(Endpoint::Core(core), &mut actions);
        self.scratch_actions = actions;
    }

    /// Issues a *far* atomic (Section VII's alternative placement): the RMW
    /// executes at the line's home directory bank after all private copies
    /// are invalidated; the completion arrives as [`MemEvent::FarDone`].
    pub fn far_atomic(
        &mut self,
        core: CoreId,
        line: LineAddr,
        rmw: row_common::rmw::RmwKind,
        req_id: u64,
        now: Cycle,
    ) {
        let msg = Msg::AtomicFar {
            req: core,
            line,
            rmw,
            req_id,
        };
        let to = Endpoint::Dir(home_of(line, self.tiles));
        let mut actions = std::mem::take(&mut self.scratch_actions);
        actions.push(CacheAction::Send { to, msg, at: now });
        self.run_actions(Endpoint::Core(core), &mut actions);
        self.scratch_actions = actions;
    }

    /// Locks `line` in `core`'s AQ (must hold it in M — i.e. right after an
    /// `Rmw` fill).
    pub fn lock(&mut self, core: CoreId, line: LineAddr) {
        self.mark_dirty(line);
        self.caches[core.index()].lock(line);
    }

    /// Unlocks `line`; stalled external requests are then served.
    ///
    /// An unlock of an unlocked line records a [`ProtocolError`] (see
    /// [`MemorySystem::protocol_error`]) instead of panicking.
    pub fn unlock(&mut self, core: CoreId, line: LineAddr, now: Cycle) {
        self.mark_dirty(line);
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let r = self.caches[core.index()].unlock(line, now, &mut actions);
        self.absorb(r);
        self.run_actions(Endpoint::Core(core), &mut actions);
        self.scratch_actions = actions;
    }

    /// Whether `core` currently holds `line` locked.
    pub fn is_locked(&self, core: CoreId, line: LineAddr) -> bool {
        self.caches[core.index()].is_locked(line)
    }

    /// Whether `core` owns `line` (M/E) so an SB write would hit locally.
    pub fn owns(&self, core: CoreId, line: LineAddr) -> bool {
        self.caches[core.index()].owns(line)
    }

    /// Coherence state of `line` in `core`'s private domain.
    pub fn priv_state(&self, core: CoreId, line: LineAddr) -> Option<PrivState> {
        self.caches[core.index()].state(line)
    }

    /// Directory state of `line` at its home bank.
    pub fn dir_state(&self, line: LineAddr) -> DirState {
        self.dirs[home_of(line, self.tiles)].state(line)
    }

    /// `(home tile, queued-request depth)` when `line`'s home entry is
    /// Blocked, `None` otherwise (the incremental sweep's queue-bound probe).
    pub fn dir_blocked_depth(&self, line: LineAddr) -> Option<(usize, usize)> {
        let tile = home_of(line, self.tiles);
        self.dirs[tile].blocked_depth(line).map(|d| (tile, d))
    }

    /// Advances the message network to `now` and returns all events produced
    /// since the last tick (fills, external-request observations).
    ///
    /// Protocol errors raised by the controllers are recorded (sticky; see
    /// [`MemorySystem::protocol_error`]) rather than panicking, so the
    /// simulation loop can surface them as first-class failures.
    pub fn tick(&mut self, now: Cycle) -> Vec<MemEvent> {
        // Retransmission timers fire before this cycle's deliveries.
        if let Some(t) = self.transport.as_mut() {
            if t.lossy() {
                let mut sends = Vec::new();
                let r = t.process_timeouts(now, &mut self.mesh, &mut sends);
                for (at, f) in sends {
                    self.net.push(at, f);
                }
                if let Err(e) = r {
                    self.absorb(Err(e));
                }
            }
        }
        while let Some(frame) = self.net.pop_ready(now) {
            match frame {
                Frame::Msg { to, msg } => self.dispatch(to, msg, now),
                Frame::Seq {
                    src,
                    dst,
                    seq,
                    msg,
                    check,
                } => {
                    let mut deliver = Vec::new();
                    let mut sends = Vec::new();
                    // A sequenced frame can only have been produced by a
                    // transport; seeing one without a transport configured
                    // means the frame queue is corrupt. Triage instead of
                    // aborting the worker: record and drop the frame.
                    let Some(t) = self.transport.as_mut() else {
                        self.absorb(Err(ProtocolError::TransportAbsent { src, dst, seq }));
                        continue;
                    };
                    t.receive(
                        src,
                        dst,
                        seq,
                        msg,
                        check,
                        now,
                        &mut self.mesh,
                        &mut deliver,
                        &mut sends,
                    );
                    for (at, f) in sends {
                        self.net.push(at, f);
                    }
                    for (to, m) in deliver {
                        self.dispatch(to, m, now);
                    }
                }
                Frame::Ack { src, dst, seq } => {
                    if let Some(t) = self.transport.as_mut() {
                        t.on_ack((src, dst), seq);
                    }
                }
                Frame::Nack { src, dst, seq } => {
                    let mut sends = Vec::new();
                    if let Some(t) = self.transport.as_mut() {
                        t.on_nack((src, dst), seq, now, &mut self.mesh, &mut sends);
                    }
                    for (at, f) in sends {
                        self.net.push(at, f);
                    }
                }
            }
        }
        // Promote queued requests, visiting caches in ascending index as a
        // scan of every cache would: one with an empty queue has nothing to
        // promote, and running a cache's actions never queues a request at
        // another cache.
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut next = self.pending_caches.next_from(0);
        while let Some(i) = next {
            self.caches[i].promote_pending(now, &mut actions);
            if !actions.is_empty() {
                self.run_actions(Endpoint::Core(CoreId::new(i as u16)), &mut actions);
            }
            if !self.caches[i].has_pending() {
                self.pending_caches.remove(i);
            }
            next = self.pending_caches.next_from(i + 1);
        }
        self.scratch_actions = actions;
        std::mem::take(&mut self.out)
    }

    /// The first private cache with queued requests that the pending set
    /// misses — always `None` unless the set's bookkeeping is wrong
    /// (`Machine::set_audit` checks it every cycle).
    pub fn untracked_pending(&self) -> Option<CoreId> {
        (0..self.caches.len())
            .find(|&i| self.caches[i].has_pending() && !self.pending_caches.contains(i))
            .map(|i| CoreId::new(i as u16))
    }

    /// Hands one protocol message to its endpoint's controller.
    fn dispatch(&mut self, to: Endpoint, msg: Msg, now: Cycle) {
        self.mark_dirty(msg.line());
        // Data is the only way a private cache gains a line.
        if let (Some(t), Endpoint::Core(c), Msg::Data { line, .. }) =
            (self.tracking.as_mut(), to, &msg)
        {
            t.add_holder(c.index(), *line);
        }
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let r = match to {
            Endpoint::Core(c) => self.caches[c.index()].handle_msg(msg, now, &mut actions),
            Endpoint::Dir(t) => self.dirs[t].handle_msg(msg, now, &mut actions),
        };
        self.absorb(r);
        self.run_actions(to, &mut actions);
        self.scratch_actions = actions;
    }

    /// The first protocol error observed, if any. Once set it stays set: the
    /// system's state is no longer trustworthy past this point.
    pub fn protocol_error(&self) -> Option<&ProtocolError> {
        self.err.as_ref()
    }

    /// Records a protocol error for later injection (used by `row-check`'s
    /// invariant sweep, which borrows the system immutably and reports
    /// through the same channel).
    pub fn record_protocol_error(&mut self, e: ProtocolError) {
        self.absorb(Err(e));
    }

    fn absorb(&mut self, r: Result<(), ProtocolError>) {
        if let Err(e) = r {
            self.err.get_or_insert(e);
        }
    }

    /// Routes one protocol message from `from` to `to`: mesh timing, then
    /// either the bare-frame fast path (reliable network, optionally delay-
    /// jittered) or the sequenced lossy transport.
    fn send_msg(&mut self, from: Endpoint, to: Endpoint, msg: Msg, at: Cycle) {
        // Sends mark too: an eviction changes the victim line's private
        // state at install time, visible here as the outgoing PutM.
        self.mark_dirty(msg.line());
        let src = node_of(from);
        let dst = node_of(to);
        let class = if msg.carries_data() {
            MsgClass::Data
        } else {
            MsgClass::Control
        };
        let deliver = self.mesh.send(src, dst, class, at);
        // Explorer decision point: the schedule may hold this message for
        // whole delivery quanta past its mesh-computed cycle.
        let alt = self.decide(
            ChoiceKind::Delivery,
            src.index() as u16,
            dst.index() as u16,
            msg.line(),
            at,
        );
        let deliver = deliver + choice::delivery_delay(alt);
        match self.transport.as_mut() {
            None => self.net.push(deliver, Frame::Msg { to, msg }),
            Some(t) if !t.lossy() => {
                let jittered = t.perturb(src, dst, deliver);
                self.net.push(jittered, Frame::Msg { to, msg });
            }
            Some(t) => {
                let mut sends = Vec::new();
                t.send(from, to, msg, deliver, at, &mut sends);
                for (c, f) in sends {
                    self.net.push(c, f);
                }
            }
        }
    }

    /// Hands this memory system an explorer schedule: from now on every
    /// message delivery and atomic commit is a decision point it forces and
    /// logs.
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = Some(schedule);
    }

    /// The explorer schedule, when one was handed in.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// Asks the schedule for the alternative to take at one decision point
    /// (`src`/`dst` are mesh nodes for a delivery, the core for a commit).
    /// Without a schedule this is alternative 0 — the undelayed default,
    /// bit-for-bit.
    pub fn decide(
        &mut self,
        kind: ChoiceKind,
        src: u16,
        dst: u16,
        line: LineAddr,
        at: Cycle,
    ) -> u8 {
        self.schedule
            .as_mut()
            .map_or(0, |s| s.decide(kind, src, dst, line.raw(), at.raw()))
    }

    /// Transition coverage this memory system's directory banks, private
    /// caches and transport have counted so far.
    pub fn coverage(&self) -> CoverageMap {
        let mut map = CoverageMap::new();
        for d in &self.dirs {
            map.add(&d.coverage);
        }
        for c in &self.caches {
            map.add(&c.coverage);
        }
        if let Some(t) = &self.transport {
            map.add(&t.coverage);
        }
        map
    }

    /// Executes and drains `actions`, leaving the buffer empty for reuse.
    fn run_actions(&mut self, from: Endpoint, actions: &mut Vec<CacheAction>) {
        for a in actions.drain(..) {
            match a {
                CacheAction::Send { to, msg, at } => self.send_msg(from, to, msg, at),
                CacheAction::ApplyRmw {
                    req,
                    line,
                    rmw,
                    req_id,
                    at,
                } => {
                    // The home bank owns the only copy now: apply in place.
                    self.apply_rmw(req, line.base_addr(), rmw, at);
                    self.send_msg(
                        from,
                        Endpoint::Core(req),
                        Msg::FarDone { req, line, req_id },
                        at,
                    );
                }
                CacheAction::Emit(ev) => {
                    if let MemEvent::Fill {
                        core,
                        req_id,
                        at,
                        source,
                        ..
                    } = ev
                    {
                        if let Some(start) = self.starts.remove(&(core, req_id)) {
                            let lat = at.saturating_since(start);
                            self.stats.miss_latency[core.index()].add(lat);
                            self.stats.miss_latency_all.add(lat);
                        }
                        match source {
                            crate::msg::FillSource::RemotePrivate => self.stats.remote_fills += 1,
                            crate::msg::FillSource::L3 | crate::msg::FillSource::Memory => {
                                self.stats.home_fills += 1
                            }
                            _ => {}
                        }
                    }
                    self.out.push(ev);
                }
            }
        }
    }

    /// Reads the 64-bit word containing `addr` from the functional store.
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.words.get(&(addr.raw() & !7)).copied().unwrap_or(0)
    }

    /// Writes the 64-bit word containing `addr` in the functional store.
    ///
    /// This raw entry point bypasses the oracle journal — use it only for
    /// pre-seeding memory before a run (or in tests). Architectural writes
    /// go through [`MemorySystem::store_word`] / [`MemorySystem::apply_rmw`].
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.words.insert(addr.raw() & !7, value);
    }

    /// Architecturally applies an atomic RMW at `addr` on behalf of `core`:
    /// reads the word, applies `rmw`, writes back if the operation writes,
    /// and journals the application when the oracle is enabled. Returns the
    /// observed old value (the RMW's architectural return value).
    pub fn apply_rmw(&mut self, core: CoreId, addr: Addr, rmw: RmwKind, now: Cycle) -> u64 {
        let old = self.read_word(addr);
        let (_, wrote) = rmw.apply(old);
        let mut applications: u32 = u32::from(wrote);
        if let (Some(bug), RmwKind::Faa(_)) = (self.bug.as_mut(), rmw) {
            let word = addr.raw() & !7;
            if bug.dup_word == Some(word) {
                // The compensating half: apply this FAA twice while
                // journaling it once. Combined with the lost half below, the
                // word's end state (and every per-core journal count) is
                // exactly what a correct run produces.
                applications = 2;
                self.bug = None;
            } else if bug.dup_word.is_none() {
                if bug.countdown == 0 {
                    // The victim: journal the application (claiming the
                    // machine performed it) but skip the functional write.
                    applications = 0;
                    bug.dup_word = Some(word);
                } else {
                    bug.countdown -= 1;
                }
            }
        }
        let mut cur = old;
        for _ in 0..applications {
            let (next, _) = rmw.apply(cur);
            self.write_word(addr, next);
            cur = next;
        }
        if let Some(j) = self.journal.as_mut() {
            j.push(OpRecord {
                core,
                at: now,
                kind: OpKind::Rmw {
                    addr,
                    rmw,
                    observed_old: old,
                },
            });
        }
        old
    }

    /// Architecturally commits a plain store by `core`, journaling it when
    /// the oracle is enabled.
    pub fn store_word(&mut self, core: CoreId, addr: Addr, value: u64, now: Cycle) {
        self.write_word(addr, value);
        if let Some(j) = self.journal.as_mut() {
            j.push(OpRecord {
                core,
                at: now,
                kind: OpKind::Store { addr, value },
            });
        }
    }

    /// The full functional word store (word address → value).
    pub fn words(&self) -> &HashMap<u64, u64> {
        &self.words
    }

    /// The oracle journal, when `CheckConfig::oracle` is enabled.
    pub fn journal(&self) -> Option<&[OpRecord]> {
        self.journal.as_deref()
    }

    /// Moves all journaled records accumulated since the last drain into
    /// `out` (appending), leaving the journal empty but allocated. This is
    /// how the online checker consumes the apply order in O(live ops)
    /// memory: the journal never grows beyond one drain interval. No-op
    /// when journaling is off.
    pub fn drain_journal_into(&mut self, out: &mut Vec<OpRecord>) {
        if let Some(j) = self.journal.as_mut() {
            out.append(j);
        }
    }

    /// Test instrumentation: arms a *net-zero* atomicity bug. After
    /// `countdown` more FAA applications, one FAA is "lost" (journaled but
    /// not applied) and the next FAA on the same word is applied twice
    /// (journaled once). End-of-run word values and per-core journal counts
    /// are indistinguishable from a correct run — only a per-operation
    /// return-value check can see it. Not persisted across
    /// checkpoint/restore; arm it after any restore.
    pub fn inject_net_zero_faa_for_test(&mut self, countdown: u64) {
        self.bug = Some(NetZeroFaaBug {
            countdown,
            dup_word: None,
        });
    }

    /// Test instrumentation: re-plants the seed-era GetS-on-Shared directory
    /// race in every bank (see [`DirBank::inject_early_unblock_for_test`]).
    /// The schedule fuzzer's regression corpus hunts this. Not persisted
    /// across checkpoint/restore; arm it after any restore.
    pub fn inject_early_unblock_for_test(&mut self) {
        for d in &mut self.dirs {
            d.inject_early_unblock_for_test();
        }
    }

    /// Transport counters, present only when lossy chaos is active (the
    /// delay-only injector has no transport behaviour to count).
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.transport
            .as_ref()
            .filter(|t| t.lossy())
            .map(|t| t.stats())
    }

    /// Whether the lossy transport has fully drained (no un-ACKed messages,
    /// no buffered early arrivals). Vacuously true without lossy chaos.
    pub fn transport_idle(&self) -> bool {
        self.transport.as_ref().is_none_or(|t| t.idle())
    }

    /// The oldest un-ACKed transport transaction, for stall diagnostics.
    pub fn oldest_inflight(&self) -> Option<InflightProbe> {
        self.transport.as_ref().and_then(|t| t.oldest_inflight())
    }

    /// Memory-system statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Per-core private-cache statistics.
    pub fn cache_stats(&self, core: CoreId) -> &crate::private::PrivStats {
        self.caches[core.index()].stats()
    }

    /// Number of cores (= tiles) in the system.
    pub fn cores(&self) -> usize {
        self.tiles
    }

    /// Every line `core` holds, with its coherence state (order unspecified).
    pub fn private_lines(&self, core: CoreId) -> Vec<(LineAddr, PrivState)> {
        self.caches[core.index()].lines().collect()
    }

    /// Lines with an in-flight miss at `core`.
    pub fn mshr_lines(&self, core: CoreId) -> Vec<LineAddr> {
        self.caches[core.index()].mshr_lines().collect()
    }

    /// Lines `core` currently holds locked.
    pub fn locked_lines(&self, core: CoreId) -> Vec<LineAddr> {
        self.caches[core.index()].locked_lines().collect()
    }

    /// Borrowing form of [`locked_lines`](Self::locked_lines) for hot paths
    /// (the incremental invariant sweep walks every core's lock set each
    /// sweep; a per-call `Vec` there is pure churn).
    pub fn locked_lines_iter(&self, core: CoreId) -> impl Iterator<Item = LineAddr> + '_ {
        self.caches[core.index()].locked_lines()
    }

    /// Snapshots of all Blocked directory entries across banks, tagged with
    /// their bank's tile, sorted by line address.
    pub fn blocked_dir_entries(&self) -> Vec<(usize, BlockedEntrySnapshot)> {
        let mut out: Vec<(usize, BlockedEntrySnapshot)> = self
            .dirs
            .iter()
            .flat_map(|d| d.blocked_entries().into_iter().map(move |s| (d.tile(), s)))
            .collect();
        out.sort_by_key(|(_, s)| s.line.raw());
        out
    }

    /// The mesh's latest link `busy_until` horizon (stall diagnostics).
    pub fn noc_busy_horizon(&self) -> Cycle {
        self.mesh.busy_horizon()
    }

    /// Corrupts the private-cache state of `line` at `core`, bypassing the
    /// protocol. **Robustness-testing instrumentation only.**
    pub fn corrupt_private_state_for_test(
        &mut self,
        core: CoreId,
        line: LineAddr,
        state: Option<PrivState>,
    ) {
        self.mark_dirty(line);
        if let (Some(t), Some(_)) = (self.tracking.as_mut(), state) {
            t.add_holder(core.index(), line);
        }
        self.caches[core.index()].corrupt_state_for_test(line, state);
    }

    /// Test instrumentation: clears `core`'s holder-index bit for `line`, as
    /// a missed index update would. `Machine::set_audit` must catch it.
    #[doc(hidden)]
    pub fn drop_holder_for_test(&mut self, core: CoreId, line: LineAddr) {
        let (chunk, bit) = holder_slot(core.index());
        if let Some(m) = self
            .tracking
            .as_mut()
            .and_then(|t| t.holders.get_mut(&(line, chunk)))
        {
            *m &= !bit;
        }
    }

    /// Test instrumentation: forgets that `line` is dirty, as a missed mark
    /// would, so the next incremental sweep skips it. `Machine::set_audit`
    /// must catch a violation that hides this way.
    #[doc(hidden)]
    pub fn drop_dirty_mark_for_test(&mut self, line: LineAddr) {
        if let Some(t) = self.tracking.as_mut() {
            t.dirty.remove(&line);
        }
    }

    /// Corrupts the home-directory entry of `line`, bypassing the protocol.
    /// **Robustness-testing instrumentation only.**
    pub fn corrupt_dir_state_for_test(&mut self, line: LineAddr, state: DirState) {
        self.mark_dirty(line);
        self.dirs[home_of(line, self.tiles)].corrupt_entry_for_test(line, state);
    }

    /// Interconnect statistics.
    pub fn noc_stats(&self) -> &row_noc::NocStats {
        self.mesh.stats()
    }
}

row_common::codec_struct!(MemStats {
    miss_latency,
    miss_latency_all,
    remote_fills,
    home_fills,
});

impl Persist for MemorySystem {
    // `tiles` is config-derived. A checkpoint is only taken when no sticky
    // protocol error is set (the machine refuses otherwise), so `err` is not
    // encoded and restore clears it.
    fn persist(&self, w: &mut Writer) {
        self.mesh.persist(w);
        w.put_len(self.dirs.len());
        for d in &self.dirs {
            d.persist(w);
        }
        w.put_len(self.caches.len());
        for c in &self.caches {
            c.persist(w);
        }
        self.net.encode(w);
        self.out.encode(w);
        self.words.encode(w);
        self.starts.encode(w);
        self.stats.encode(w);
        self.transport.encode(w);
        self.journal.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.mesh.restore(r)?;
        if r.get_len()? != self.dirs.len() {
            return Err(PersistError::Corrupt("directory bank count mismatch"));
        }
        for d in &mut self.dirs {
            d.restore(r)?;
        }
        if r.get_len()? != self.caches.len() {
            return Err(PersistError::Corrupt("private cache count mismatch"));
        }
        self.pending_caches = IndexSet::new(self.caches.len());
        for (i, c) in self.caches.iter_mut().enumerate() {
            c.restore(r)?;
            if c.has_pending() {
                self.pending_caches.insert(i);
            }
        }
        self.net = EventQueue::decode(r)?;
        self.out = Vec::decode(r)?;
        self.words = HashMap::decode(r)?;
        self.starts = FastMap::decode(r)?;
        self.stats = MemStats::decode(r)?;
        let mut transport = Option::<Transport>::decode(r)?;
        if transport.is_some() != self.transport.is_some() {
            return Err(PersistError::Corrupt("chaos-mode presence mismatch"));
        }
        if let (Some(t), Some(old)) = (transport.as_mut(), self.transport.take()) {
            t.inherit(old);
        }
        self.transport = transport;
        let journal = Option::<Vec<OpRecord>>::decode(r)?;
        if journal.is_some() != self.journal.is_some() {
            return Err(PersistError::Corrupt("oracle-journal presence mismatch"));
        }
        self.journal = journal;
        self.err = None;
        if self.tracking.is_some() {
            self.track_dirty_lines(true);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::AccessKind;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(&SystemConfig::small(cores))
    }

    fn meta(id: u64, kind: AccessKind) -> ReqMeta {
        ReqMeta {
            req_id: id,
            pc: None,
            prefetch: false,
            kind,
        }
    }

    /// Runs ticks until `pred` returns Some, or panics after `max` cycles.
    fn run_until<T>(
        m: &mut MemorySystem,
        start: Cycle,
        max: u64,
        mut pred: impl FnMut(&MemEvent) -> Option<T>,
    ) -> (Cycle, T) {
        for c in start.raw()..start.raw() + max {
            let now = Cycle::new(c);
            for ev in m.tick(now) {
                if let Some(t) = pred(&ev) {
                    return (now, t);
                }
            }
        }
        panic!("event not observed within {max} cycles");
    }

    #[test]
    fn read_miss_fills_with_home_source() {
        let mut m = sys(2);
        let line = LineAddr::new(100);
        m.access(CoreId::new(0), line, meta(1, AccessKind::Read), Cycle::ZERO);
        let (_, (src, at)) = run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill {
                req_id: 1,
                source,
                at,
                ..
            } => Some((*source, *at)),
            _ => None,
        });
        assert_eq!(src, crate::msg::FillSource::L3);
        // First touch pays memory latency.
        assert!(at.raw() > 160, "fill at {at}");
        assert_eq!(m.priv_state(CoreId::new(0), line), Some(PrivState::E));
    }

    #[test]
    fn missing_schedule_is_default_and_a_forced_one_holds_delivery() {
        let fill = |schedule: Option<Schedule>| {
            let mut m = sys(2);
            if let Some(s) = schedule {
                m.set_schedule(s);
            }
            m.access(
                CoreId::new(0),
                LineAddr::new(100),
                meta(1, AccessKind::Read),
                Cycle::ZERO,
            );
            let (at, ()) = run_until(&mut m, Cycle::ZERO, 2000, |ev| {
                matches!(ev, MemEvent::Fill { req_id: 1, .. }).then_some(())
            });
            (at, m.schedule().map(|s| s.decisions().to_vec()))
        };
        let (plain, log) = fill(None);
        assert!(log.is_none());
        let (default, log) = fill(Some(Schedule::new(Vec::new())));
        assert_eq!(default, plain);
        assert!(log.unwrap().iter().all(|d| d.chosen == 0));
        let (held, log) = fill(Some(Schedule::new(vec![2])));
        let first = log.unwrap()[0];
        assert_eq!((first.kind, first.chosen), (ChoiceKind::Delivery, 2));
        assert_eq!(held, plain + choice::delivery_delay(2));
    }

    #[test]
    fn second_core_write_transfers_ownership_cache_to_cache() {
        let mut m = sys(2);
        let line = LineAddr::new(101);
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        m.access(c0, line, meta(1, AccessKind::Write), Cycle::ZERO);
        let (t1, _) = run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 1, .. } => Some(()),
            _ => None,
        });
        assert_eq!(m.priv_state(c0, line), Some(PrivState::M));

        m.access(c1, line, meta(2, AccessKind::Write), t1 + 1);
        let (_, src) = run_until(&mut m, t1 + 1, 2000, |ev| match ev {
            MemEvent::Fill {
                req_id: 2, source, ..
            } => Some(*source),
            _ => None,
        });
        assert_eq!(src, crate::msg::FillSource::RemotePrivate);
        assert_eq!(m.priv_state(c0, line), None, "old owner invalidated");
        assert_eq!(m.priv_state(c1, line), Some(PrivState::M));
        // Drain the in-flight Unblock before inspecting the directory.
        for c in 0..500u64 {
            let _ = m.tick(Cycle::new(10_000 + c));
        }
        assert_eq!(m.dir_state(line), DirState::Exclusive(c1));
    }

    #[test]
    fn locked_line_stalls_rival_until_unlock() {
        let mut m = sys(2);
        let line = LineAddr::new(102);
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        m.access(c0, line, meta(1, AccessKind::Rmw), Cycle::ZERO);
        let (t1, _) = run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 1, .. } => Some(()),
            _ => None,
        });
        assert!(m.is_locked(c0, line), "Rmw fill locks atomically");

        m.access(c1, line, meta(2, AccessKind::Rmw), t1 + 1);
        // The external request reaches core0 and stalls.
        let (t2, stalled) = run_until(&mut m, t1 + 1, 4000, |ev| match ev {
            MemEvent::ExternalObserved { core, stalled, .. } if *core == c0 => Some(*stalled),
            _ => None,
        });
        assert!(stalled);

        // Hold the lock for 500 more cycles; core1 must not fill meanwhile.
        let hold = 500;
        for c in t2.raw()..t2.raw() + hold {
            for ev in m.tick(Cycle::new(c)) {
                assert!(
                    !matches!(ev, MemEvent::Fill { req_id: 2, .. }),
                    "fill leaked past a locked line"
                );
            }
        }
        let unlock_at = t2 + hold;
        m.unlock(c0, line, unlock_at);
        let (t3, src) = run_until(&mut m, unlock_at, 2000, |ev| match ev {
            MemEvent::Fill {
                req_id: 2, source, ..
            } => Some(*source),
            _ => None,
        });
        assert_eq!(src, crate::msg::FillSource::RemotePrivate);
        assert!(t3 >= unlock_at);
        assert!(m.priv_state(c1, line) == Some(PrivState::M));
    }

    #[test]
    fn contended_fill_latency_exceeds_uncontended() {
        let mut m = sys(4);
        let line = LineAddr::new(103);
        let c0 = CoreId::new(0);
        let c1 = CoreId::new(1);
        // Uncontended remote transfer first (unlock immediately).
        m.access(c0, line, meta(1, AccessKind::Rmw), Cycle::ZERO);
        let (t1, _) = run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 1, .. } => Some(()),
            _ => None,
        });
        m.unlock(c0, line, t1);
        m.access(c1, line, meta(2, AccessKind::Rmw), t1 + 1);
        let (_, uncontended) = run_until(&mut m, t1 + 1, 2000, |ev| match ev {
            MemEvent::Fill {
                req_id: 2,
                at,
                issued_at,
                ..
            } => Some(at.saturating_since(*issued_at)),
            _ => None,
        });

        // Contended: owner holds the lock for 600 cycles.
        let line2 = LineAddr::new(203);
        m.access(c0, line2, meta(3, AccessKind::Rmw), Cycle::new(10_000));
        let (t2, _) = run_until(&mut m, Cycle::new(10_000), 2000, |ev| match ev {
            MemEvent::Fill { req_id: 3, .. } => Some(()),
            _ => None,
        });
        // The Rmw fill auto-locked line2 at core0; hold it for 600 cycles.
        m.access(c1, line2, meta(4, AccessKind::Rmw), t2 + 1);
        for c in t2.raw() + 1..t2.raw() + 600 {
            let _ = m.tick(Cycle::new(c));
        }
        m.unlock(c0, line2, t2 + 600);
        let (_, contended) = run_until(&mut m, t2 + 600, 2000, |ev| match ev {
            MemEvent::Fill {
                req_id: 4,
                at,
                issued_at,
                ..
            } => Some(at.saturating_since(*issued_at)),
            _ => None,
        });
        assert!(
            contended > uncontended + 400,
            "contended {contended} vs uncontended {uncontended}"
        );
    }

    #[test]
    fn functional_word_store_round_trips() {
        let mut m = sys(1);
        assert_eq!(m.read_word(Addr::new(0x1000)), 0);
        m.write_word(Addr::new(0x1000), 7);
        assert_eq!(m.read_word(Addr::new(0x1004)), 7, "same 8-byte word");
        m.write_word(Addr::new(0x1008), 9);
        assert_eq!(m.read_word(Addr::new(0x1000)), 7);
    }

    #[test]
    fn read_sharing_then_upgrade_invalidates_reader() {
        let mut m = sys(3);
        let line = LineAddr::new(104);
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        m.access(c0, line, meta(1, AccessKind::Read), Cycle::ZERO);
        let (t1, _) = run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 1, .. } => Some(()),
            _ => None,
        });
        m.access(c1, line, meta(2, AccessKind::Read), t1 + 1);
        let (t2, _) = run_until(&mut m, t1 + 1, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 2, .. } => Some(()),
            _ => None,
        });
        assert_eq!(m.priv_state(c0, line), Some(PrivState::S));
        assert_eq!(m.priv_state(c1, line), Some(PrivState::S));

        m.access(c1, line, meta(3, AccessKind::Write), t2 + 1);
        let (_, _) = run_until(&mut m, t2 + 1, 4000, |ev| match ev {
            MemEvent::Fill { req_id: 3, .. } => Some(()),
            _ => None,
        });
        assert_eq!(m.priv_state(c0, line), None);
        assert_eq!(m.priv_state(c1, line), Some(PrivState::M));
    }

    #[test]
    fn miss_latency_stats_accumulate() {
        let mut m = sys(2);
        m.access(
            CoreId::new(0),
            LineAddr::new(500),
            meta(1, AccessKind::Read),
            Cycle::ZERO,
        );
        run_until(&mut m, Cycle::ZERO, 2000, |ev| match ev {
            MemEvent::Fill { req_id: 1, .. } => Some(()),
            _ => None,
        });
        assert_eq!(m.stats().miss_latency_all.count(), 1);
        assert!(m.stats().miss_latency_all.mean() > 100.0);
    }

    #[test]
    fn single_core_system_works_end_to_end() {
        let mut m = sys(1);
        let c0 = CoreId::new(0);
        for k in 0..20u64 {
            m.access(
                c0,
                LineAddr::new(k * 3),
                meta(k, AccessKind::Read),
                Cycle::new(k),
            );
        }
        let mut fills = 0;
        for c in 0..5000u64 {
            fills += m
                .tick(Cycle::new(c))
                .iter()
                .filter(|e| matches!(e, MemEvent::Fill { .. }))
                .count();
        }
        assert_eq!(fills, 20);
    }

    /// Once every holder has dropped a line, the next check of the line
    /// leaves no holder-index entry, so the index does not grow with lines
    /// no cache holds.
    #[test]
    fn holder_index_forgets_a_line_no_cache_holds() {
        let mut m = sys(2);
        m.track_dirty_lines(true);
        let line = LineAddr::new(105);
        let (c0, c1) = (CoreId::new(0), CoreId::new(1));
        let mut now = Cycle::ZERO;
        for (id, core) in [(1, c0), (2, c1)] {
            m.access(core, line, meta(id, AccessKind::Read), now);
            (now, _) = run_until(&mut m, now, 2000, |ev| match ev {
                MemEvent::Fill { req_id, .. } if *req_id == id => Some(()),
                _ => None,
            });
        }
        let indexed = |m: &MemorySystem| {
            let t = m.tracking.as_ref().expect("tracking on");
            t.holders.get(&(line, 0)).copied()
        };
        assert_eq!(indexed(&m), Some(0b11));
        let mut holders = Vec::new();
        m.line_holders(line, &mut holders);
        assert_eq!(holders, [(c0, PrivState::S), (c1, PrivState::S)]);

        // A far atomic invalidates every private copy.
        m.far_atomic(c0, line, RmwKind::Faa(1), 3, now + 1);
        run_until(&mut m, now + 1, 4000, |ev| match ev {
            MemEvent::FarDone { req_id: 3, .. } => Some(()),
            _ => None,
        });
        assert_eq!(
            (m.priv_state(c0, line), m.priv_state(c1, line)),
            (None, None)
        );
        assert_eq!(indexed(&m), Some(0b11), "stale until checked");
        m.line_holders(line, &mut holders);
        assert!(holders.is_empty());
        assert_eq!(indexed(&m), None);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let mean = |x| {
            let mut m = RunningMean::new();
            m.add(x);
            m
        };
        let pins = [(
            to_bytes(&MemStats {
                miss_latency: vec![mean(0x11), mean(0x22)],
                miss_latency_all: mean(0x33),
                remote_fills: 0x44,
                home_fills: 0x55,
            }),
            "020000000000000011000000000000000000000000000000010000000000000022000000000000000000000000000000010000000000000033000000000000000000000000000000010000000000000044000000000000005500000000000000",
        )];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
