//! The out-of-order x86-TSO core with unfenced atomics (Free Atomics).
//!
//! One [`Core`] models one hardware thread: a 512-entry-ROB (Table I)
//! out-of-order pipeline with a load queue, a TSO store buffer, an issue
//! queue, a 16-entry Atomic Queue, TAGE-lite branch prediction, StoreSet
//! memory-dependence prediction, store→load forwarding, and the three atomic
//! execution disciplines the paper studies:
//!
//! * **eager** — the atomic's memory request issues as soon as its operands
//!   are ready (Free Atomics);
//! * **lazy** — the request waits until the atomic is the oldest entry in
//!   the LQ *and* the SB holds no older stores (younger instructions still
//!   execute speculatively — this is not a fence);
//! * **RoW** — a per-PC contention prediction picks one of the two, with the
//!   `only-calculate-address` early issue (extending the contention-tracking
//!   window), the directory-latency heuristic at fill time, and the
//!   store-forwarding locality override.
//!
//! A `Fenced` mode reproduces pre-Coffee-Lake behaviour for the Fig. 2
//! microbenchmark: atomics and `mfence` act as two-sided barriers.
//!
//! The core is driven by an [`InstrStream`] and interacts with the
//! [`MemorySystem`] through demand accesses and events; everything is
//! deterministic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use row_common::choice::{self, ChoiceKind};
use row_common::config::{AtomicPlacement, AtomicPolicy, CoreConfig, DetectorKind, FenceModel};
use row_common::coverage::{cpu_slot, CpuCounts, CpuEvent};
use row_common::fastmap::FastMap;
use row_common::ids::{Addr, CoreId, LineAddr, Pc};
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::sched::EventQueue;
use row_common::Cycle;

use row_core::{detect, ExecMode, RowEngine};
use row_mem::{AccessKind, FillSource, MemEvent, MemorySystem, ReqMeta};

use crate::branch::TageLite;
use crate::instr::{Instr, InstrStream, Op, RmwKind, NUM_REGS};
use crate::stats::CoreStats;
use crate::storeset::StoreSets;

/// Cycles without a commit before the deadlock breaker fires (plus a
/// per-core stagger so two cores never break simultaneously).
///
/// Eager atomics can acquire cache locks out of program order, so two cores
/// can reach a genuine hold-and-wait cycle (core X locks A and waits for B,
/// core Y locks B and waits for A). The breaker squashes the locked,
/// uncommitted atomic and replays it lazy — the recovery any real
/// implementation of unfenced atomics needs. The threshold only has to
/// exceed the longest legitimate no-commit stretch (a memory-latency queue),
/// so it recovers quickly.
pub const DEADLOCK_CYCLES: u64 = 5_000;

const TAG_DEMAND: u64 = 0;
const TAG_SB_WRITE: u64 = 1;

#[derive(Clone, Copy, Debug)]
enum Comp {
    /// ALU or branch execution finished.
    Exec,
    /// A load/store/atomic finished address generation.
    AddrCalc,
    /// A lazy atomic's `only-calculate-address` pass finished.
    AtomicAddrOnly,
    /// Load data is available (fill, forward, or replay).
    LoadDone { forwarded: bool },
    /// The atomic's ALU phase produced its result.
    AtomicValue,
    /// An SB entry's write to the L1D completed.
    SbWrite,
}

#[derive(Clone, Debug)]
struct RobEntry {
    order: u64,
    instr: Instr,
    pending_deps: u32,
    in_iq: bool,
    issued_at: Option<Cycle>,
    completed_at: Option<Cycle>,
    /// For loads: which store forwarded to it (uid, order).
    forwarded_from: Option<(u64, u64)>,
    /// For loads: a demand request is outstanding in the memory system.
    mem_outstanding: bool,
}

#[derive(Clone, Debug)]
struct SbEntry {
    uid: u64,
    order: u64,
    pc: Pc,
    addr: Option<Addr>,
    value: Option<u64>,
    atomic: bool,
    committed: bool,
    inflight: bool,
}

#[derive(Clone, Debug)]
struct AqEntry {
    uid: u64,
    order: u64,
    pc: Pc,
    rmw: RmwKind,
    addr: Addr,
    addr_known: bool,
    locked: bool,
    /// The fill arrived but the lock was released because an older atomic
    /// had not locked yet (in-order lock acquisition); re-acquired when this
    /// entry becomes the oldest unlocked one.
    fill_pending: bool,
    contended: bool,
    predicted_contended: bool,
    mode: ExecMode,
    dispatched_at: Cycle,
    mem_issued_at: Option<Cycle>,
    locked_at: Option<Cycle>,
    issued14: u16,
    forwarded: bool,
}

/// Snapshot of a load the core observed (for TSO litmus tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadObservation {
    /// The load's PC.
    pub pc: Pc,
    /// The address read.
    pub addr: Addr,
    /// The 64-bit value observed.
    pub value: u64,
}

/// One simulated out-of-order core.
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    l1_lat: u64,
    stream: Box<dyn InstrStream>,
    stream_done: bool,
    peeked: Option<Instr>,
    replay: VecDeque<(u64, Instr)>,
    next_order: u64,
    next_uid: u64,

    rob: VecDeque<u64>,
    entries: FastMap<u64, RobEntry>,
    rename: [Option<u64>; NUM_REGS],
    waiters: FastMap<u64, Vec<u64>>,
    ready: BTreeMap<u64, u64>,
    lazy_wait: BTreeMap<u64, u64>,
    waiting_on_store: FastMap<u64, Vec<u64>>,
    /// Recycled dependency-list allocations for `waiters`/`waiting_on_store`:
    /// those lists churn roughly once per instruction, so removals park their
    /// emptied `Vec` here instead of freeing it. Derived scratch — never
    /// persisted or compared.
    waiter_pool: Vec<Vec<u64>>,
    /// Reusable issue-selection scratch (see [`Core::issue`]). Never
    /// persisted.
    scratch_pick: Vec<u64>,
    iq_used: usize,
    lq: BTreeMap<u64, u64>,
    sb: VecDeque<SbEntry>,
    aq: VecDeque<AqEntry>,
    barriers: BTreeSet<u64>,
    exec_done: EventQueue<(u64, Comp)>,
    sb_miss_inflight: bool,

    branch_stall: Option<u64>,
    fetch_resume_at: Cycle,
    bp: TageLite,
    ss: StoreSets,
    row: Option<RowEngine>,
    stats_detector: DetectorKind,
    force_lazy: BTreeSet<u64>,

    last_commit: Cycle,
    stats: CoreStats,
    /// Atomic-queue and store-buffer edges this core has taken. Derived
    /// state: never persisted, and a restore leaves it as it was.
    coverage: CpuCounts,
    load_log: Option<Vec<LoadObservation>>,
    /// Explorer commit-timing decision for the atomic at the ROB head:
    /// `(uid, release cycle)` chosen via [`MemorySystem::decide`] when the
    /// RMW first became commit-ready. `None` between atomics. Without an
    /// explorer schedule the release is the ready cycle itself.
    commit_release: Option<(u64, Cycle)>,
    /// ROB-head uid known to still be incomplete (`completed_at == None`),
    /// so `commit` can break without a map lookup on stalled cycles. Cleared
    /// whenever that uid completes or is squashed. Derived cache — never
    /// persisted (cleared on restore) or compared.
    head_wait: Option<u64>,
}

impl Core {
    /// Creates a core fed by `stream`. `l1_lat` is the L1D hit latency used
    /// for forwarding timing (Table I: 5 cycles).
    pub fn new(id: CoreId, cfg: CoreConfig, l1_lat: u64, stream: Box<dyn InstrStream>) -> Self {
        let row = cfg.atomic_policy.row().map(|rc| RowEngine::new(*rc));
        let stats_detector = row
            .as_ref()
            .map(|r| r.detector())
            .unwrap_or_else(DetectorKind::rw_dir_default);
        Core {
            id,
            cfg,
            l1_lat,
            stream,
            stream_done: false,
            peeked: None,
            replay: VecDeque::new(),
            next_order: 0,
            next_uid: 1,
            rob: VecDeque::new(),
            entries: FastMap::new(),
            rename: [None; NUM_REGS],
            waiters: FastMap::new(),
            ready: BTreeMap::new(),
            lazy_wait: BTreeMap::new(),
            waiting_on_store: FastMap::new(),
            waiter_pool: Vec::new(),
            scratch_pick: Vec::new(),
            iq_used: 0,
            lq: BTreeMap::new(),
            sb: VecDeque::new(),
            aq: VecDeque::new(),
            barriers: BTreeSet::new(),
            exec_done: EventQueue::new(),
            sb_miss_inflight: false,
            branch_stall: None,
            fetch_resume_at: Cycle::ZERO,
            bp: TageLite::new(),
            ss: StoreSets::new(),
            row,
            stats_detector,
            force_lazy: BTreeSet::new(),
            last_commit: Cycle::ZERO,
            stats: CoreStats::default(),
            coverage: CpuCounts::default(),
            load_log: None,
            commit_release: None,
            head_wait: None,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Transition coverage (atomic-queue and store-buffer edges) counted so
    /// far.
    pub fn coverage(&self) -> &CpuCounts {
        &self.coverage
    }

    /// Moves the statistics out of the core, leaving zeroed counters.
    ///
    /// Result assembly at the end of a run uses this instead of cloning:
    /// the accumulators (histogram-free, but still several means) are the
    /// largest part of a core's result footprint, and the core is done
    /// counting once its trace has drained.
    pub fn take_stats(&mut self) -> CoreStats {
        std::mem::take(&mut self.stats)
    }

    /// Branch-predictor statistics.
    pub fn branch_stats(&self) -> &crate::branch::BranchStats {
        self.bp.stats()
    }

    /// RoW accuracy counters (when running under the RoW policy).
    pub fn row_accuracy(&self) -> Option<&row_common::stats::AccuracyCounter> {
        self.row.as_ref().map(|r| r.accuracy())
    }

    /// Enables recording of every load's observed value (TSO litmus tests).
    pub fn record_loads(&mut self) {
        self.load_log = Some(Vec::new());
    }

    /// The recorded load observations (empty unless
    /// [`Core::record_loads`] was called).
    pub fn load_observations(&self) -> &[LoadObservation] {
        self.load_log.as_deref().unwrap_or(&[])
    }

    /// Whether the core has drained: trace exhausted and pipeline empty.
    pub fn finished(&self) -> bool {
        self.stream_done
            && self.peeked.is_none()
            && self.replay.is_empty()
            && self.rob.is_empty()
            && self.sb.is_empty()
    }

    /// Occupied ROB entries (stall diagnostics).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Occupied store-buffer entries (stall diagnostics).
    pub fn sb_occupancy(&self) -> usize {
        self.sb.len()
    }

    /// Occupied atomic-queue entries (stall diagnostics).
    pub fn aq_occupancy(&self) -> usize {
        self.aq.len()
    }

    /// Cycle of the most recent commit (`Cycle::ZERO` before the first).
    pub fn last_commit(&self) -> Cycle {
        self.last_commit
    }

    /// A human-readable description of the ROB-head instruction, if any —
    /// the instruction the core is stuck on when it stops committing.
    pub fn head_instr(&self) -> Option<String> {
        let uid = *self.rob.front()?;
        let e = self.entries.get(&uid)?;
        let i = &e.instr;
        let what = match i.op {
            Op::Alu { latency } => format!("alu(lat {latency})"),
            Op::Load { addr } => format!("load {addr}"),
            Op::Store { addr, .. } => format!("store {addr}"),
            Op::Atomic { rmw, addr } => format!("atomic {rmw:?} {addr}"),
            Op::Branch { taken } => format!("branch(taken {taken})"),
            Op::Fence => "fence".to_string(),
        };
        Some(format!("#{} pc {} {}", e.order, i.pc, what))
    }

    fn req_id(uid: u64, tag: u64) -> u64 {
        uid << 1 | tag
    }

    fn far(&self) -> bool {
        self.cfg.atomic_placement == AtomicPlacement::Far
    }

    /// Routes a memory-system event to this core. Call before
    /// [`Core::cycle`] for the same `now`.
    pub fn handle_mem_event(&mut self, ev: &MemEvent, now: Cycle, mem: &mut MemorySystem) {
        match *ev {
            MemEvent::Fill {
                req_id,
                at,
                source,
                kind,
                line,
                ..
            } => {
                let uid = req_id >> 1;
                let tag = req_id & 1;
                if tag == TAG_SB_WRITE {
                    self.exec_done.push(at.max(now), (uid, Comp::SbWrite));
                    return;
                }
                if !self.entries.contains_key(&uid) {
                    // Squashed instruction's fill. An Rmw auto-locked the
                    // line; release it.
                    if kind == AccessKind::Rmw {
                        mem.unlock(self.id, line, now);
                    }
                    return;
                }
                match self.entries[&uid].instr.op {
                    Op::Load { .. } => {
                        self.exec_done
                            .push(at.max(now), (uid, Comp::LoadDone { forwarded: false }));
                    }
                    Op::Atomic { .. } => {
                        let lock_at = at.max(now);
                        let pos = self.aq.iter().position(|a| a.uid == uid);
                        if let Some(pos) = pos {
                            let all_older_locked = self.aq.iter().take(pos).all(|a| a.locked);
                            let a = &mut self.aq[pos];
                            if detect::marks_on_fill(
                                self.stats_detector,
                                source == FillSource::RemotePrivate,
                                a.issued14,
                                at,
                            ) {
                                a.contended = true;
                            }
                            if all_older_locked {
                                a.locked = true;
                                a.locked_at = Some(lock_at);
                                self.cascade_locks(lock_at, mem);
                            } else {
                                // In-order lock acquisition: an atomic may
                                // only hold its cache lock once every older
                                // atomic holds its own, which rules out
                                // younger-holds-while-older-waits deadlock
                                // cycles across cores. Release and re-acquire
                                // when our turn comes.
                                a.fill_pending = true;
                                mem.unlock(self.id, line, lock_at);
                            }
                        } else {
                            mem.unlock(self.id, line, now);
                            return;
                        }
                        self.exec_done.push(lock_at + 1, (uid, Comp::AtomicValue));
                    }
                    _ => {}
                }
            }
            MemEvent::FarDone { req_id, at, .. } => {
                let uid = req_id >> 1;
                if !self.entries.contains_key(&uid) {
                    return; // squashed far atomic: nothing to release
                }
                let done_at = at.max(now);
                if let Some(a) = self.aq.iter_mut().find(|a| a.uid == uid) {
                    // "Locked" stands in for "performed at home": the commit
                    // gate is the same.
                    a.locked = true;
                    a.locked_at = Some(done_at);
                }
                self.exec_done.push(done_at, (uid, Comp::AtomicValue));
            }
            MemEvent::ExternalObserved { line, at, .. } => {
                // Contention tracking: snoop the AQ.
                for a in self.aq.iter_mut() {
                    if a.addr_known
                        && a.addr.line() == line
                        && detect::marks_on_external(self.stats_detector, a.addr_known, a.locked)
                    {
                        a.contended = true;
                    }
                }
                // TSO: squash speculative loads that already read this line.
                self.squash_loads_on_line(line, at.max(now), mem);
            }
        }
    }

    fn squash_loads_on_line(&mut self, line: LineAddr, now: Cycle, mem: &mut MemorySystem) {
        // Arena walk: `entries` holds exactly the ROB's live set, and taking
        // the minimum order matches the old oldest-first ROB scan.
        let mut squash_order: Option<u64> = None;
        for (_, e) in self.entries.iter() {
            if let Op::Load { addr } = e.instr.op {
                if addr.line() == line
                    && e.completed_at.is_some()
                    && e.forwarded_from.is_none()
                    && squash_order.is_none_or(|o| e.order < o)
                {
                    squash_order = Some(e.order);
                }
            }
        }
        if let Some(order) = squash_order {
            self.stats.inv_squashes += 1;
            self.squash_from(order, now, mem);
        }
    }

    /// Advances the core by one cycle.
    pub fn cycle(&mut self, now: Cycle, mem: &mut MemorySystem) {
        self.completions(now, mem);
        self.commit(now, mem);
        self.drain_sb(now, mem);
        self.issue(now, mem);
        self.dispatch(now);
        self.deadlock_check(now, mem);
        if self.finished() && self.stats.finished_at.is_none() {
            self.stats.finished_at = Some(now);
        }
    }

    /// Earliest future cycle at which this core could make progress again,
    /// or `None` when it must run next cycle.
    ///
    /// `Some(w)` is a *proof obligation*: every phase of [`Core::cycle`] is a
    /// state no-op for all cycles in `(now, w)` provided no memory event is
    /// delivered to the core in between — the caller must re-run the core as
    /// soon as it routes one (see `Machine::step_cycle`). The conditions
    /// mirror the phases one-to-one:
    ///
    /// * completions — the event wheel's next entry is in the future;
    /// * commit — the ROB head is memoized incomplete (the private
    ///   `head_wait` field), and completion only happens via the wheel or a
    ///   memory event;
    /// * SB drain — serialized on a miss, or the front entry is not
    ///   drainable (uncommitted, or already in flight);
    /// * issue — nothing ready, nothing lazily waiting;
    /// * dispatch — structurally blocked (ROB/IQ full, or the replayed front
    ///   instruction's LQ/SB/AQ resource is full), fetch-stalled, or the
    ///   stream is exhausted. Resources only free via commit or events;
    /// * deadlock watchdog — woken exactly at its deadline.
    pub fn sleep_until(&self, now: Cycle) -> Option<Cycle> {
        if !self.ready.is_empty() || !self.lazy_wait.is_empty() {
            return None;
        }
        let &head = self.rob.front()?;
        if self.head_wait != Some(head) {
            return None;
        }
        if !self.sb_miss_inflight {
            if let Some(s) = self.sb.front() {
                if s.committed && !s.inflight {
                    return None;
                }
            }
        }
        let fetch_stalled = self.branch_stall.is_some() || now < self.fetch_resume_at;
        let dispatch_inert = self.rob.len() >= self.cfg.rob_entries
            || self.iq_used >= self.cfg.iq_entries
            || fetch_stalled
            || match self.replay.front() {
                // The front instruction was unfetched on a structural
                // hazard; dispatch stays a push-pop no-op while the
                // blocking resource is full.
                Some((_, i)) => match i.op {
                    Op::Load { .. } => self.lq.len() >= self.cfg.lq_entries,
                    Op::Store { .. } => self.sb.len() >= self.cfg.sb_entries,
                    Op::Atomic { .. } => {
                        self.lq.len() >= self.cfg.lq_entries
                            || (!self.far() && self.sb.len() >= self.cfg.sb_entries)
                            || self.aq.len() >= self.cfg.aq_entries
                    }
                    _ => false,
                },
                None => self.peeked.is_none() && self.stream_done,
            };
        if !dispatch_inert {
            return None;
        }
        // Earliest time-driven transition: the deadlock watchdog deadline,
        // the next wheel completion, and a pending fetch resume.
        let mut wake = self.last_commit + (DEADLOCK_CYCLES + self.id.index() as u64 * 211);
        if let Some(c) = self.exec_done.next_cycle() {
            wake = wake.min(c);
        }
        if self.fetch_resume_at > now {
            wake = wake.min(self.fetch_resume_at);
        }
        (wake > now).then_some(wake)
    }

    // ------------------------------------------------------------------
    // Completion handling
    // ------------------------------------------------------------------

    fn completions(&mut self, now: Cycle, mem: &mut MemorySystem) {
        while let Some((uid, comp)) = self.exec_done.pop_ready(now) {
            match comp {
                Comp::SbWrite => self.sb_write_done(uid, now, mem),
                _ if !self.entries.contains_key(&uid) => {} // squashed
                Comp::Exec => self.complete(uid, now),
                Comp::AddrCalc => self.addr_calc_done(uid, now, mem),
                Comp::AtomicAddrOnly => self.atomic_addr_only_done(uid, now, mem),
                Comp::LoadDone { forwarded } => self.load_done(uid, now, forwarded, mem),
                Comp::AtomicValue => self.complete(uid, now),
            }
        }
    }

    /// Marks `uid` completed and wakes dependents.
    fn complete(&mut self, uid: u64, now: Cycle) {
        let e = self.entries.get_mut(&uid).expect("completing live entry");
        if e.completed_at.is_some() {
            return;
        }
        e.completed_at = Some(now);
        if self.head_wait == Some(uid) {
            self.head_wait = None;
        }
        let is_branch = matches!(e.instr.op, Op::Branch { .. });
        let is_fence = matches!(e.instr.op, Op::Fence);
        let order = e.order;
        if is_fence {
            self.barriers.remove(&order);
        }
        if is_branch && self.branch_stall == Some(uid) {
            self.branch_stall = None;
            self.fetch_resume_at = now + self.cfg.frontend_depth;
        }
        if let Some(mut ws) = self.waiters.remove(&uid) {
            for &w in ws.iter() {
                if let Some(c) = self.entries.get_mut(&w) {
                    c.pending_deps -= 1;
                    if c.pending_deps == 0 {
                        self.ready.insert(c.order, w);
                    }
                }
            }
            ws.clear();
            self.waiter_pool.push(ws);
        }
    }

    fn addr_calc_done(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        let e = &self.entries[&uid];
        match e.instr.op {
            Op::Load { addr } => {
                let pc = e.instr.pc;
                // StoreSet: wait for a predicted-conflicting older store
                // whose address is still unknown.
                if let Some(dep) = self.ss.dependence_for_load(pc) {
                    if let Some(se) = self.entries.get(&dep) {
                        let addr_unknown = self.sb.iter().any(|s| s.uid == dep && s.addr.is_none());
                        if se.order < e.order && addr_unknown {
                            let pool = &mut self.waiter_pool;
                            self.waiting_on_store
                                .get_or_insert_with(dep, || pool.pop().unwrap_or_default())
                                .push(uid);
                            return;
                        }
                    }
                }
                self.issue_load_mem(uid, addr, now, mem);
            }
            Op::Store { addr, value } => {
                if let Some(s) = self.sb.iter_mut().find(|s| s.uid == uid) {
                    s.addr = Some(addr);
                    s.value = value;
                }
                self.complete(uid, now);
                self.check_violations(uid, addr, now, mem);
                if let Some(mut loads) = self.waiting_on_store.remove(&uid) {
                    for &l in &loads {
                        if let Some(le) = self.entries.get(&l) {
                            if let Op::Load { addr } = le.instr.op {
                                self.issue_load_mem(l, addr, now, mem);
                            }
                        }
                    }
                    loads.clear();
                    self.waiter_pool.push(loads);
                }
            }
            Op::Atomic { addr, .. } => {
                self.atomic_mem_request(uid, addr, now, mem);
            }
            _ => unreachable!("addr calc for non-memory op"),
        }
    }

    fn issue_load_mem(&mut self, uid: u64, addr: Addr, now: Cycle, mem: &mut MemorySystem) {
        let order = self.entries[&uid].order;
        let word = addr.raw() & !7;
        // Store→load forwarding: youngest older store with a matching word.
        let fwd = self
            .sb
            .iter()
            .rev()
            .filter(|s| s.order < order && !s.atomic)
            .find(|s| s.addr.is_some_and(|a| a.raw() & !7 == word));
        if let Some(st) = fwd {
            let (st_uid, st_order) = (st.uid, st.order);
            self.stats.loads_forwarded += 1;
            let e = self.entries.get_mut(&uid).expect("live load");
            e.forwarded_from = Some((st_uid, st_order));
            self.exec_done
                .push(now + self.l1_lat, (uid, Comp::LoadDone { forwarded: true }));
            return;
        }
        let pc = self.entries[&uid].instr.pc;
        self.entries
            .get_mut(&uid)
            .expect("live load")
            .mem_outstanding = true;
        mem.access(
            self.id,
            addr.line(),
            ReqMeta {
                req_id: Self::req_id(uid, TAG_DEMAND),
                pc: Some(pc),
                prefetch: false,
                kind: AccessKind::Read,
            },
            now,
        );
    }

    fn load_done(&mut self, uid: u64, now: Cycle, forwarded: bool, mem: &mut MemorySystem) {
        let e = self.entries.get_mut(&uid).expect("live load");
        e.mem_outstanding = false;
        let observed = if forwarded {
            let st = e.forwarded_from.map(|(u, _)| u);
            self.sb
                .iter()
                .find(|s| Some(s.uid) == st)
                .and_then(|s| s.value)
        } else {
            None
        };
        let (pc, addr) = match self.entries[&uid].instr.op {
            Op::Load { addr } => (self.entries[&uid].instr.pc, addr),
            _ => unreachable!(),
        };
        let value = observed.unwrap_or_else(|| mem.read_word(addr));
        if let Some(log) = self.load_log.as_mut() {
            log.push(LoadObservation { pc, addr, value });
        }
        self.complete(uid, now);
    }

    /// When a store's address resolves, squash younger completed loads that
    /// read the same word without forwarding from it (memory-order
    /// violation), and train StoreSet.
    fn check_violations(&mut self, store_uid: u64, addr: Addr, now: Cycle, mem: &mut MemorySystem) {
        let store = &self.entries[&store_uid];
        let (st_order, st_pc) = (store.order, store.instr.pc);
        let word = addr.raw() & !7;
        // Arena walk (see `squash_loads_on_line`): min order == oldest-first.
        let mut victim: Option<(u64, Pc)> = None;
        for (_, e) in self.entries.iter() {
            if e.order <= st_order {
                continue;
            }
            if let Op::Load { addr: la } = e.instr.op {
                if la.raw() & !7 == word && e.completed_at.is_some() {
                    let fwd_ok = e.forwarded_from.is_some_and(|(_, fo)| fo > st_order);
                    if !fwd_ok && victim.is_none_or(|(o, _)| e.order < o) {
                        victim = Some((e.order, e.instr.pc));
                    }
                }
            }
        }
        if let Some((order, load_pc)) = victim {
            self.stats.violations += 1;
            self.ss.train_violation(load_pc, st_pc);
            self.squash_from(order, now, mem);
        }
    }

    // ------------------------------------------------------------------
    // Atomic execution
    // ------------------------------------------------------------------

    fn atomic_addr_only_done(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        let Some(pos) = self.aq.iter().position(|a| a.uid == uid) else {
            return;
        };
        self.aq[pos].addr_known = true;
        let addr = self.aq[pos].addr;
        // Locality override (Section IV-E): a matching older store in the SB
        // flips the lazy atomic eager.
        let override_on = self
            .row
            .as_ref()
            .is_some_and(|r| r.locality_override() && self.cfg.forward_to_atomics);
        if override_on && self.sb_forward_match(self.aq[pos].order, addr) {
            self.stats.locality_overrides += 1;
            self.coverage.record(cpu_slot(CpuEvent::LocalityOverride));
            self.aq[pos].mode = ExecMode::Eager;
            self.atomic_mem_request(uid, addr, now, mem);
            return;
        }
        self.coverage.record(cpu_slot(CpuEvent::LazyWait));
        let order = self.entries[&uid].order;
        self.lazy_wait.insert(order, uid);
    }

    fn sb_forward_match(&self, order: u64, addr: Addr) -> bool {
        let word = addr.raw() & !7;
        self.sb
            .iter()
            .any(|s| s.order < order && !s.atomic && s.addr.is_some_and(|a| a.raw() & !7 == word))
    }

    /// Issues the atomic's real memory request (the `load_lock`).
    fn atomic_mem_request(&mut self, uid: u64, addr: Addr, now: Cycle, mem: &mut MemorySystem) {
        let e = self.entries.get_mut(&uid).expect("live atomic");
        let (order, pc) = (e.order, e.instr.pc);
        // Fig. 4 probes.
        let mut older_unexecuted = 0u64;
        let mut younger_started = 0u64;
        for &u in &self.rob {
            let o = &self.entries[&u];
            if o.order < order && o.completed_at.is_none() {
                older_unexecuted += 1;
            }
            if o.order > order && o.issued_at.is_some() {
                younger_started += 1;
            }
        }
        self.stats.older_unexecuted_at_issue.add(older_unexecuted);
        self.stats.younger_started_at_issue.add(younger_started);

        let fwd = self.cfg.forward_to_atomics && self.sb_forward_match(order, addr);
        {
            let a = self
                .aq
                .iter_mut()
                .find(|a| a.uid == uid)
                .expect("AQ entry for live atomic");
            a.addr_known = true;
            a.mem_issued_at = Some(now);
            a.issued14 = now.timestamp14();
            a.forwarded = fwd;
        }
        if fwd {
            self.stats.atomics_forwarded += 1;
            self.coverage.record(cpu_slot(CpuEvent::Forwarded));
        }
        let mode = self.aq.iter().find(|a| a.uid == uid).map(|a| a.mode);
        self.coverage.record(cpu_slot(match (self.far(), mode) {
            (true, _) => CpuEvent::FarIssue,
            (false, Some(ExecMode::Lazy)) => CpuEvent::LazyIssue,
            (false, _) => CpuEvent::EagerIssue,
        }));
        if self.iq_used > 0 {
            // The atomic's IQ entry is released on its real issue.
            if self.entries.get_mut(&uid).expect("live").in_iq {
                self.entries.get_mut(&uid).expect("live").in_iq = false;
                self.iq_used -= 1;
            }
        }
        if self.far() {
            let rmw = self
                .aq
                .iter()
                .find(|a| a.uid == uid)
                .map(|a| a.rmw)
                .expect("AQ entry");
            mem.far_atomic(
                self.id,
                addr.line(),
                rmw,
                Self::req_id(uid, TAG_DEMAND),
                now + 1,
            );
            return;
        }
        mem.access(
            self.id,
            addr.line(),
            ReqMeta {
                req_id: Self::req_id(uid, TAG_DEMAND),
                pc: Some(pc),
                prefetch: false,
                kind: AccessKind::Rmw,
            },
            now,
        );
    }

    /// After any lock state change, let the oldest unlocked atomic (re-)take
    /// its lock if its fill already arrived.
    fn cascade_locks(&mut self, now: Cycle, mem: &mut MemorySystem) {
        loop {
            let Some(pos) = self.aq.iter().position(|a| !a.locked) else {
                return;
            };
            if !self.aq[pos].fill_pending {
                return;
            }
            let (uid, addr, pc) = (self.aq[pos].uid, self.aq[pos].addr, self.aq[pos].pc);
            let line = addr.line();
            self.aq[pos].fill_pending = false;
            if mem.owns(self.id, line) {
                mem.lock(self.id, line);
                self.coverage.record(cpu_slot(CpuEvent::LockAcquire));
                let a = &mut self.aq[pos];
                a.locked = true;
                a.locked_at = Some(now);
                continue; // the next pending entry may follow suit
            }
            // The line was stolen while we waited our turn: re-request.
            self.stats.lock_reacquires += 1;
            self.coverage.record(cpu_slot(CpuEvent::LockReacquire));
            let a = &mut self.aq[pos];
            a.issued14 = now.timestamp14();
            mem.access(
                self.id,
                line,
                ReqMeta {
                    req_id: Self::req_id(uid, TAG_DEMAND),
                    pc: Some(pc),
                    prefetch: false,
                    kind: AccessKind::Rmw,
                },
                now,
            );
            return;
        }
    }

    fn lazy_eligible(&self, order: u64) -> bool {
        let older_load = self.lq.keys().next().is_some_and(|&o| o < order);
        let older_store = self.sb.front().is_some_and(|s| s.order < order);
        !older_load && !older_store
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self, now: Cycle, mem: &mut MemorySystem) {
        for _ in 0..self.cfg.commit_width {
            let Some(&uid) = self.rob.front() else { break };
            // Memoized stall: the head is known incomplete and nothing has
            // completed it since — skip the entry lookup entirely.
            if self.head_wait == Some(uid) {
                break;
            }
            let e = &self.entries[&uid];
            let done = match e.instr.op {
                // Until the RMW completes (fill arrives) it cannot commit;
                // skip the AQ scan on the stalled-waiting-for-fill cycles.
                Op::Atomic { .. } if e.completed_at.is_none_or(|c| c > now) => false,
                Op::Atomic { .. } => {
                    // The previous atomic's AQ entry may linger until its STU
                    // writes, so find ours by uid rather than at the head.
                    let a = self
                        .aq
                        .iter()
                        .find(|a| a.uid == uid)
                        .expect("AQ entry for atomic at ROB head");
                    // Near atomics own the SB head entry at this point; far
                    // atomics have no SB entry — either way, nothing older
                    // may remain buffered.
                    let order = e.order;
                    let sb_drained = self.sb.front().is_none_or(|s| s.order >= order);
                    let ready = e.completed_at.is_some_and(|c| c <= now) && a.locked && sb_drained;
                    // Explorer decision point, asked exactly once when the
                    // RMW first becomes commit-ready: the schedule may hold
                    // the commit for whole quanta (the paper's "no rush" knob
                    // as an enumerable choice). Alternative 0 — every run
                    // without a schedule — releases at the ready cycle.
                    if ready {
                        let release = match self.commit_release {
                            Some((u, rel)) if u == uid => rel,
                            _ => {
                                let core = self.id.index() as u16;
                                let alt =
                                    mem.decide(ChoiceKind::Commit, core, core, a.addr.line(), now);
                                let rel = now + choice::commit_delay(alt);
                                self.commit_release = Some((uid, rel));
                                rel
                            }
                        };
                        now >= release
                    } else {
                        false
                    }
                }
                _ => e.completed_at.is_some_and(|c| c <= now),
            };
            if !done {
                // Only an incomplete head is safe to memoize: lock/release/
                // SB conditions can change without a completion event.
                if e.completed_at.is_none() {
                    self.head_wait = Some(uid);
                }
                break;
            }
            self.rob.pop_front();
            let e = self.entries.remove(&uid).expect("committed entry");
            self.stats.committed += 1;
            self.last_commit = now;
            match e.instr.op {
                Op::Load { .. } => {
                    self.lq.remove(&e.order);
                }
                Op::Store { .. } => {
                    if let Some(s) = self.sb.iter_mut().find(|s| s.uid == uid) {
                        s.committed = true;
                    }
                }
                Op::Atomic { .. } => {
                    self.lq.remove(&e.order);
                    self.commit_release = None;
                    if self.far() {
                        self.finish_far_atomic(uid, now);
                    } else if let Some(s) = self.sb.iter_mut().find(|s| s.uid == uid) {
                        s.committed = true;
                    }
                }
                _ => {}
            }
            // Clean the rename entry that still points at this uid (only the
            // instruction's own dst register can — rename is written at
            // dispatch and squash-rebuild exclusively from `instr.dst`).
            if let Some(d) = e.instr.dst {
                if self.rename[d as usize] == Some(uid) {
                    self.rename[d as usize] = None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Store buffer drain (TSO: in order)
    // ------------------------------------------------------------------

    fn drain_sb(&mut self, now: Cycle, mem: &mut MemorySystem) {
        if self.sb_miss_inflight {
            return;
        }
        let mut initiated = 0;
        for i in 0..self.sb.len() {
            if initiated >= 2 {
                break;
            }
            let s = &self.sb[i];
            if !s.committed {
                break;
            }
            if s.inflight {
                continue;
            }
            let Some(addr) = s.addr else { break };
            let line = addr.line();
            let owned = s.atomic || mem.owns(self.id, line);
            let (uid, pc) = (s.uid, s.pc);
            self.sb[i].inflight = true;
            mem.access(
                self.id,
                line,
                ReqMeta {
                    req_id: Self::req_id(uid, TAG_SB_WRITE),
                    pc: Some(pc),
                    prefetch: false,
                    kind: AccessKind::Write,
                },
                now,
            );
            initiated += 1;
            if !owned {
                // A write miss serializes the drain (TSO order).
                self.sb_miss_inflight = true;
                break;
            }
        }
    }

    fn sb_write_done(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        let Some(pos) = self.sb.iter().position(|s| s.uid == uid) else {
            return;
        };
        if pos != 0 {
            // An older write is still in flight (e.g. it hit in L2 while this
            // one hit in L1). TSO: retire strictly in order — retry shortly.
            self.exec_done.push(now + 1, (uid, Comp::SbWrite));
            return;
        }
        let s = self.sb.remove(pos).expect("present");
        self.sb_miss_inflight = false;
        if self.sb.is_empty() && !self.lazy_wait.is_empty() {
            self.coverage.record(cpu_slot(CpuEvent::SbDrain));
        }
        if s.atomic {
            self.finish_atomic(uid, now, mem);
        } else {
            let addr = s.addr.expect("written store has an address");
            if let Some(v) = s.value {
                mem.store_word(self.id, addr, v, now);
            }
            self.ss.store_completed(s.pc, uid);
        }
    }

    /// The `store_unlock` wrote: perform the functional RMW, release the
    /// lock, train RoW, and record the Fig. 6 breakdown.
    fn finish_atomic(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        let pos = self
            .aq
            .iter()
            .position(|a| a.uid == uid)
            .expect("AQ entry for finishing atomic");
        debug_assert_eq!(pos, 0, "AQ unlocks from its head");
        let a = self.aq.remove(pos).expect("present");
        mem.apply_rmw(self.id, a.addr, a.rmw, now);
        mem.unlock(self.id, a.addr.line(), now);
        if self.cfg.fence_model == FenceModel::Fenced {
            self.barriers.remove(&a.order);
        }

        self.stats.atomics += 1;
        if a.contended {
            self.stats.contended_atomics += 1;
        }
        match a.mode {
            ExecMode::Eager => self.stats.atomics_eager += 1,
            ExecMode::Lazy => self.stats.atomics_lazy += 1,
        }
        let mem_issued = a.mem_issued_at.unwrap_or(a.dispatched_at);
        let locked = a.locked_at.unwrap_or(mem_issued);
        self.stats.breakdown.record(
            mem_issued.saturating_since(a.dispatched_at),
            locked.saturating_since(mem_issued),
            now.saturating_since(locked),
        );
        self.stats
            .atomic_latency
            .add(now.saturating_since(a.dispatched_at));
        if let Some(row) = self.row.as_mut() {
            row.complete(a.pc, a.predicted_contended, a.contended);
        }
        self.cascade_locks(now, mem);
    }

    /// Retires a far atomic at commit: the RMW already performed at the home
    /// directory; only bookkeeping remains.
    fn finish_far_atomic(&mut self, uid: u64, now: Cycle) {
        let pos = self
            .aq
            .iter()
            .position(|a| a.uid == uid)
            .expect("AQ entry for far atomic");
        let a = self.aq.remove(pos).expect("present");
        self.stats.atomics += 1;
        self.stats.atomics_lazy += 1;
        let mem_issued = a.mem_issued_at.unwrap_or(a.dispatched_at);
        let done = a.locked_at.unwrap_or(mem_issued);
        self.stats.breakdown.record(
            mem_issued.saturating_since(a.dispatched_at),
            done.saturating_since(mem_issued),
            now.saturating_since(done),
        );
        self.stats
            .atomic_latency
            .add(now.saturating_since(a.dispatched_at));
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn issue(&mut self, now: Cycle, mem: &mut MemorySystem) {
        // Stalled-core fast path: nothing waiting, nothing ready.
        if self.lazy_wait.is_empty() && self.ready.is_empty() {
            return;
        }
        // Lazy atomics / fences: only the oldest can be eligible.
        while let Some((&order, &uid)) = self.lazy_wait.iter().next() {
            if !self.lazy_eligible(order) {
                break;
            }
            self.lazy_wait.remove(&order);
            match self.entries[&uid].instr.op {
                Op::Fence => {
                    self.exec_done.push(now + 1, (uid, Comp::Exec));
                }
                Op::Atomic { addr, .. } => {
                    // Address was pre-computed (copy from the AQ entry) or is
                    // computed now (EW / plain-lazy path).
                    let known = self
                        .aq
                        .iter()
                        .find(|a| a.uid == uid)
                        .is_some_and(|a| a.addr_known);
                    if known {
                        self.atomic_mem_request(uid, addr, now, mem);
                    } else {
                        self.exec_done.push(now + 1, (uid, Comp::AddrCalc));
                    }
                }
                _ => unreachable!("only fences and atomics wait lazily"),
            }
        }

        let barrier = self.barriers.iter().next().copied();
        let mut issued = 0;
        let mut pick = std::mem::take(&mut self.scratch_pick);
        for (&order, &uid) in self.ready.iter() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let e = &self.entries[&uid];
            // A barrier blocks younger *memory* operations.
            let is_mem = e.instr.op.addr().is_some();
            if is_mem && barrier.is_some_and(|b| order > b) {
                continue;
            }
            pick.push(uid);
            issued += 1;
        }
        for &uid in &pick {
            let e = self.entries.get_mut(&uid).expect("ready entry");
            let order = e.order;
            e.issued_at = Some(now);
            self.ready.remove(&order);
            let free_iq = !matches!(e.instr.op, Op::Atomic { .. });
            if free_iq && e.in_iq {
                e.in_iq = false;
                self.iq_used -= 1;
            }
            match e.instr.op {
                Op::Alu { latency } => {
                    self.exec_done
                        .push(now + latency.max(1) as u64, (uid, Comp::Exec));
                }
                Op::Branch { .. } => {
                    self.exec_done.push(now + 1, (uid, Comp::Exec));
                }
                Op::Fence => {
                    self.lazy_wait.insert(order, uid);
                }
                Op::Load { .. } | Op::Store { .. } => {
                    self.exec_done.push(now + 1, (uid, Comp::AddrCalc));
                }
                Op::Atomic { .. } => {
                    if self.far() {
                        self.lazy_wait.insert(order, uid);
                        continue;
                    }
                    let mode = self
                        .aq
                        .iter()
                        .find(|a| a.uid == uid)
                        .map(|a| a.mode)
                        .expect("AQ entry");
                    let fenced = self.cfg.fence_model == FenceModel::Fenced;
                    match (fenced, mode) {
                        (true, _) => {
                            // Fenced atomics behave like the lazy discipline
                            // plus the two-sided barrier (set at dispatch).
                            self.exec_done.push(now + 1, (uid, Comp::AtomicAddrOnly));
                        }
                        (false, ExecMode::Eager) => {
                            self.exec_done.push(now + 1, (uid, Comp::AddrCalc));
                        }
                        (false, ExecMode::Lazy) => {
                            if self.stats_detector == DetectorKind::ExecutionWindow {
                                // No early address computation: the EW
                                // mechanism lacks the only-calculate-address
                                // pass.
                                self.lazy_wait.insert(order, uid);
                            } else {
                                self.exec_done.push(now + 1, (uid, Comp::AtomicAddrOnly));
                            }
                        }
                    }
                }
            }
        }
        pick.clear();
        self.scratch_pick = pick;
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn next_instr(&mut self) -> Option<(u64, Instr)> {
        if let Some(front) = self.replay.pop_front() {
            return Some(front);
        }
        if self.peeked.is_none() && !self.stream_done {
            self.peeked = self.stream.next_instr();
            if self.peeked.is_none() {
                self.stream_done = true;
            }
        }
        let i = self.peeked.take()?;
        let order = self.next_order;
        self.next_order += 1;
        Some((order, i))
    }

    fn unfetch(&mut self, order: u64, instr: Instr) {
        self.replay.push_front((order, instr));
    }

    fn dispatch(&mut self, now: Cycle) {
        if self.branch_stall.is_some() || now < self.fetch_resume_at {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries || self.iq_used >= self.cfg.iq_entries {
                break;
            }
            let Some((order, instr)) = self.next_instr() else {
                break;
            };
            // Structural hazards per op class.
            let blocked = match instr.op {
                Op::Load { .. } => self.lq.len() >= self.cfg.lq_entries,
                Op::Store { .. } => self.sb.len() >= self.cfg.sb_entries,
                Op::Atomic { .. } => {
                    self.lq.len() >= self.cfg.lq_entries
                        || (!self.far() && self.sb.len() >= self.cfg.sb_entries)
                        || self.aq.len() >= self.cfg.aq_entries
                }
                _ => false,
            };
            if blocked {
                self.unfetch(order, instr);
                break;
            }
            let uid = self.next_uid;
            self.next_uid += 1;

            let mut deps = 0;
            for src in instr.srcs.into_iter().flatten() {
                if let Some(p) = self.rename[src as usize] {
                    if self
                        .entries
                        .get(&p)
                        .is_some_and(|pe| pe.completed_at.is_none())
                    {
                        deps += 1;
                        let pool = &mut self.waiter_pool;
                        self.waiters
                            .get_or_insert_with(p, || pool.pop().unwrap_or_default())
                            .push(uid);
                    }
                }
            }
            if let Some(d) = instr.dst {
                self.rename[d as usize] = Some(uid);
            }

            match instr.op {
                Op::Load { .. } => {
                    self.lq.insert(order, uid);
                }
                Op::Store { .. } => {
                    self.sb.push_back(SbEntry {
                        uid,
                        order,
                        pc: instr.pc,
                        addr: None,
                        value: None,
                        atomic: false,
                        committed: false,
                        inflight: false,
                    });
                    self.ss.store_dispatched(instr.pc, uid);
                }
                Op::Atomic { rmw, addr } => {
                    self.lq.insert(order, uid);
                    if !self.far() {
                        self.sb.push_back(SbEntry {
                            uid,
                            order,
                            pc: instr.pc,
                            addr: Some(addr),
                            value: None,
                            atomic: true,
                            committed: false,
                            inflight: false,
                        });
                    }
                    let (mode, predicted) = if self.far() {
                        // Far atomics use the lazy discipline (TSO order is
                        // enforced by issuing after the SB drains) and skip
                        // the contention predictor entirely.
                        (ExecMode::Lazy, false)
                    } else {
                        self.decide_mode(instr.pc, order)
                    };
                    self.aq.push_back(AqEntry {
                        uid,
                        order,
                        pc: instr.pc,
                        rmw,
                        addr,
                        addr_known: false,
                        locked: false,
                        fill_pending: false,
                        contended: false,
                        predicted_contended: predicted,
                        mode,
                        dispatched_at: now,
                        mem_issued_at: None,
                        locked_at: None,
                        issued14: 0,
                        forwarded: false,
                    });
                    if self.cfg.fence_model == FenceModel::Fenced {
                        self.barriers.insert(order);
                    }
                }
                Op::Fence => {
                    self.barriers.insert(order);
                }
                _ => {}
            }

            let mut stall_after = false;
            if let Op::Branch { taken } = instr.op {
                let pred = self.bp.predict(instr.pc);
                self.bp.update(instr.pc, taken, pred);
                if pred != taken {
                    self.branch_stall = Some(uid);
                    stall_after = true;
                }
            }

            self.entries.insert(
                uid,
                RobEntry {
                    order,
                    instr,
                    pending_deps: deps,
                    in_iq: true,
                    issued_at: None,
                    completed_at: None,
                    forwarded_from: None,
                    mem_outstanding: false,
                },
            );
            self.rob.push_back(uid);
            self.iq_used += 1;
            if deps == 0 {
                self.ready.insert(order, uid);
            }
            if stall_after {
                break;
            }
        }
    }

    fn decide_mode(&mut self, pc: Pc, order: u64) -> (ExecMode, bool) {
        if self.force_lazy.remove(&order) {
            return (ExecMode::Lazy, true);
        }
        match self.cfg.atomic_policy {
            AtomicPolicy::Eager => (ExecMode::Eager, false),
            AtomicPolicy::Lazy => (ExecMode::Lazy, false),
            AtomicPolicy::Row(_) => {
                let row = self.row.as_ref().expect("RoW engine for RoW policy");
                let predicted = row.predicts_contended(pc);
                (
                    if predicted {
                        ExecMode::Lazy
                    } else {
                        ExecMode::Eager
                    },
                    predicted,
                )
            }
        }
    }

    // ------------------------------------------------------------------
    // Squash and deadlock handling
    // ------------------------------------------------------------------

    fn squash_from(&mut self, order: u64, now: Cycle, mem: &mut MemorySystem) {
        let mut squashed: Vec<(u64, Instr)> = Vec::new();
        while let Some(&uid) = self.rob.back() {
            if self.entries[&uid].order < order {
                break;
            }
            self.rob.pop_back();
            let e = self.entries.remove(&uid).expect("squashing live entry");
            squashed.push((e.order, e.instr));
            if e.in_iq {
                self.iq_used -= 1;
            }
            self.lq.remove(&e.order);
            self.ready.remove(&e.order);
            self.lazy_wait.remove(&e.order);
            self.barriers.remove(&e.order);
            if let Some(mut ws) = self.waiters.remove(&uid) {
                ws.clear();
                self.waiter_pool.push(ws);
            }
            if let Some(pos) = self.sb.iter().position(|s| s.uid == uid) {
                debug_assert!(!self.sb[pos].committed, "cannot squash committed store");
                self.sb.remove(pos);
            }
            if let Some(pos) = self.aq.iter().position(|a| a.uid == uid) {
                let a = self.aq.remove(pos).expect("present");
                if a.locked {
                    mem.unlock(self.id, a.addr.line(), now);
                }
            }
            if self.branch_stall == Some(uid) {
                self.branch_stall = None;
            }
        }
        squashed.sort_by_key(|(o, _)| *o);
        for item in squashed.into_iter().rev() {
            self.replay.push_front(item);
        }
        // Purge dangling waiter references and rebuild the rename map.
        for ws in self.waiters.values_mut() {
            ws.retain(|w| self.entries.contains_key(w));
        }
        let mut waiting_dead: Vec<u64> = Vec::new();
        for (st, ls) in self.waiting_on_store.iter_mut() {
            ls.retain(|l| self.entries.contains_key(l));
            if !self.entries.contains_key(&st) || ls.is_empty() {
                waiting_dead.push(st);
            }
        }
        for st in waiting_dead {
            if let Some(mut ls) = self.waiting_on_store.remove(&st) {
                ls.clear();
                self.waiter_pool.push(ls);
            }
        }
        self.rename = [None; NUM_REGS];
        for &uid in &self.rob {
            if let Some(d) = self.entries[&uid].instr.dst {
                self.rename[d as usize] = Some(uid);
            }
        }
        self.fetch_resume_at = self.fetch_resume_at.max(now + self.cfg.frontend_depth);
        self.cascade_locks(now, mem);
    }

    fn deadlock_check(&mut self, now: Cycle, mem: &mut MemorySystem) {
        if self.rob.is_empty() {
            self.last_commit = now;
            return;
        }
        let threshold = DEADLOCK_CYCLES + self.id.index() as u64 * 211;
        if now.saturating_since(self.last_commit) < threshold {
            return;
        }
        // Break a potential cross-core lock cycle: squash the oldest locked,
        // uncommitted atomic and replay it lazy.
        let victim = self
            .aq
            .iter()
            .find(|a| a.locked && self.entries.contains_key(&a.uid))
            .map(|a| a.order);
        if let Some(order) = victim {
            self.stats.deadlock_breaks += 1;
            self.coverage.record(cpu_slot(CpuEvent::DeadlockBreak));
            self.force_lazy.insert(order);
            self.head_wait = None;
            self.squash_from(order, now, mem);
        }
        self.last_commit = now; // rearm either way
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob", &self.rob.len())
            .field("sb", &self.sb.len())
            .field("aq", &self.aq.len())
            .field("committed", &self.stats.committed)
            .finish()
    }
}

impl Codec for Comp {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Comp::Exec => w.put_u8(0),
            Comp::AddrCalc => w.put_u8(1),
            Comp::AtomicAddrOnly => w.put_u8(2),
            Comp::LoadDone { forwarded } => {
                w.put_u8(3);
                w.put_bool(forwarded);
            }
            Comp::AtomicValue => w.put_u8(4),
            Comp::SbWrite => w.put_u8(5),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Comp::Exec,
            1 => Comp::AddrCalc,
            2 => Comp::AtomicAddrOnly,
            3 => Comp::LoadDone {
                forwarded: r.get_bool()?,
            },
            4 => Comp::AtomicValue,
            5 => Comp::SbWrite,
            tag => return Err(PersistError::BadTag { what: "Comp", tag }),
        })
    }
}

impl Codec for RobEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.order);
        self.instr.encode(w);
        w.put_u32(self.pending_deps);
        w.put_bool(self.in_iq);
        self.issued_at.encode(w);
        self.completed_at.encode(w);
        self.forwarded_from.encode(w);
        w.put_bool(self.mem_outstanding);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RobEntry {
            order: r.get_u64()?,
            instr: Instr::decode(r)?,
            pending_deps: r.get_u32()?,
            in_iq: r.get_bool()?,
            issued_at: Option::<Cycle>::decode(r)?,
            completed_at: Option::<Cycle>::decode(r)?,
            forwarded_from: Option::<(u64, u64)>::decode(r)?,
            mem_outstanding: r.get_bool()?,
        })
    }
}

impl Codec for SbEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.uid);
        w.put_u64(self.order);
        self.pc.encode(w);
        self.addr.encode(w);
        self.value.encode(w);
        w.put_bool(self.atomic);
        w.put_bool(self.committed);
        w.put_bool(self.inflight);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SbEntry {
            uid: r.get_u64()?,
            order: r.get_u64()?,
            pc: Pc::decode(r)?,
            addr: Option::<Addr>::decode(r)?,
            value: Option::<u64>::decode(r)?,
            atomic: r.get_bool()?,
            committed: r.get_bool()?,
            inflight: r.get_bool()?,
        })
    }
}

impl Codec for AqEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.uid);
        w.put_u64(self.order);
        self.pc.encode(w);
        self.rmw.encode(w);
        self.addr.encode(w);
        w.put_bool(self.addr_known);
        w.put_bool(self.locked);
        w.put_bool(self.fill_pending);
        w.put_bool(self.contended);
        w.put_bool(self.predicted_contended);
        self.mode.encode(w);
        self.dispatched_at.encode(w);
        self.mem_issued_at.encode(w);
        self.locked_at.encode(w);
        w.put_u16(self.issued14);
        w.put_bool(self.forwarded);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(AqEntry {
            uid: r.get_u64()?,
            order: r.get_u64()?,
            pc: Pc::decode(r)?,
            rmw: RmwKind::decode(r)?,
            addr: Addr::decode(r)?,
            addr_known: r.get_bool()?,
            locked: r.get_bool()?,
            fill_pending: r.get_bool()?,
            contended: r.get_bool()?,
            predicted_contended: r.get_bool()?,
            mode: ExecMode::decode(r)?,
            dispatched_at: Cycle::decode(r)?,
            mem_issued_at: Option::<Cycle>::decode(r)?,
            locked_at: Option::<Cycle>::decode(r)?,
            issued14: r.get_u16()?,
            forwarded: r.get_bool()?,
        })
    }
}

impl Codec for LoadObservation {
    fn encode(&self, w: &mut Writer) {
        self.pc.encode(w);
        self.addr.encode(w);
        w.put_u64(self.value);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(LoadObservation {
            pc: Pc::decode(r)?,
            addr: Addr::decode(r)?,
            value: r.get_u64()?,
        })
    }
}

impl Persist for Core {
    // `id`, `cfg`, `l1_lat`, and `stats_detector` are construction parameters
    // and stay; the instruction stream persists only its own mutable state
    // (the program itself is reconstructed from the config/seed).
    fn persist(&self, w: &mut Writer) {
        self.stream.save_state(w);
        w.put_bool(self.stream_done);
        self.peeked.encode(w);
        self.replay.encode(w);
        w.put_u64(self.next_order);
        w.put_u64(self.next_uid);
        self.rob.encode(w);
        self.entries.encode(w);
        self.rename.encode(w);
        self.waiters.encode(w);
        self.ready.encode(w);
        self.lazy_wait.encode(w);
        self.waiting_on_store.encode(w);
        self.iq_used.encode(w);
        self.lq.encode(w);
        self.sb.encode(w);
        self.aq.encode(w);
        self.barriers.encode(w);
        self.exec_done.encode(w);
        w.put_bool(self.sb_miss_inflight);
        self.branch_stall.encode(w);
        self.fetch_resume_at.encode(w);
        self.bp.persist(w);
        self.ss.persist(w);
        match &self.row {
            None => w.put_u8(0),
            Some(r) => {
                w.put_u8(1);
                r.persist(w);
            }
        }
        self.force_lazy.encode(w);
        self.last_commit.encode(w);
        self.stats.encode(w);
        self.load_log.encode(w);
        self.commit_release.encode(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.stream.load_state(r)?;
        self.stream_done = r.get_bool()?;
        self.peeked = Option::<Instr>::decode(r)?;
        self.replay = VecDeque::<(u64, Instr)>::decode(r)?;
        self.next_order = r.get_u64()?;
        self.next_uid = r.get_u64()?;
        self.rob = VecDeque::<u64>::decode(r)?;
        self.entries = FastMap::<u64, RobEntry>::decode(r)?;
        self.rename = <[Option<u64>; NUM_REGS]>::decode(r)?;
        self.waiters = FastMap::<u64, Vec<u64>>::decode(r)?;
        self.ready = BTreeMap::<u64, u64>::decode(r)?;
        self.lazy_wait = BTreeMap::<u64, u64>::decode(r)?;
        self.waiting_on_store = FastMap::<u64, Vec<u64>>::decode(r)?;
        self.iq_used = usize::decode(r)?;
        self.lq = BTreeMap::<u64, u64>::decode(r)?;
        self.sb = VecDeque::<SbEntry>::decode(r)?;
        self.aq = VecDeque::<AqEntry>::decode(r)?;
        self.barriers = BTreeSet::<u64>::decode(r)?;
        self.exec_done = EventQueue::<(u64, Comp)>::decode(r)?;
        self.sb_miss_inflight = r.get_bool()?;
        self.branch_stall = Option::<u64>::decode(r)?;
        self.fetch_resume_at = Cycle::decode(r)?;
        self.bp.restore(r)?;
        self.ss.restore(r)?;
        match (r.get_u8()?, self.row.as_mut()) {
            (1, Some(row)) => row.restore(r)?,
            (0, None) => {}
            _ => return Err(PersistError::Corrupt("RoW engine presence mismatch")),
        }
        self.force_lazy = BTreeSet::<u64>::decode(r)?;
        self.last_commit = Cycle::decode(r)?;
        self.stats = CoreStats::decode(r)?;
        self.load_log = Option::<Vec<LoadObservation>>::decode(r)?;
        self.commit_release = Option::<(u64, Cycle)>::decode(r)?;
        // Derived caches restart cold.
        self.head_wait = None;
        Ok(())
    }
}
