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
use crate::window::{RobEntry, Window};

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
    /// Re-checks the next run of parked writes, whose oldest write's uid
    /// rides in the event's uid slot (see [`Core::park`]). Never persisted:
    /// [`Core::persist`] writes each in its place as the `SbWrite` events of
    /// its run.
    Parked,
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
}

/// The stall a sleeping core's proof rests on (see [`Core::sleep_until`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SleepCause {
    /// The ROB head has not completed.
    IncompleteHead,
    /// The ROB head has not completed, and the oldest lazily waiting atomic
    /// or fence may not issue yet.
    LazyWaiter,
    /// The ROB head is a completed atomic that does not hold its cache lock.
    UnlockedAtomic,
    /// The ROB head is a completed, locked atomic behind an older
    /// store-buffer entry.
    UndrainedSb,
    /// The ROB head is a completed, locked atomic with nothing older
    /// buffered, held by an explorer commit delay.
    CommitRelease,
}

/// What ends a sleep when no memory event arrives first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeSource {
    /// The next completion on the core's event wheel.
    Wheel,
    /// The end of a fetch stall.
    Fetch,
    /// The deadlock breaker's deadline.
    Watchdog,
    /// The explorer's commit release cycle for the head atomic.
    Release,
}

/// A core's proof that stepping it is a state no-op until `until` (see
/// [`Core::sleep_until`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sleep {
    /// The first cycle the core must be stepped again, unless a memory
    /// event reaches it earlier.
    pub until: Cycle,
    /// The stall the proof rests on.
    pub cause: SleepCause,
    /// The transition that sets `until`.
    pub wake: WakeSource,
}

impl std::fmt::Display for Sleep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cause = match self.cause {
            SleepCause::IncompleteHead => "incomplete head",
            SleepCause::LazyWaiter => "lazy waiter",
            SleepCause::UnlockedAtomic => "unlocked atomic",
            SleepCause::UndrainedSb => "undrained SB",
            SleepCause::CommitRelease => "commit release",
        };
        let wake = match self.wake {
            WakeSource::Wheel => "wheel",
            WakeSource::Fetch => "fetch",
            WakeSource::Watchdog => "watchdog",
            WakeSource::Release => "release",
        };
        write!(f, "{cause} until cycle {} ({wake} wake)", self.until.raw())
    }
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
    replay: VecDeque<(u64, Instr)>,
    next_order: u64,
    next_uid: u64,

    /// The in-flight window: the ROB's uids and entries, the ready set and
    /// the load queue, indexed by program order.
    rob: Window,
    rename: [Option<u64>; NUM_REGS],
    waiters: FastMap<u64, Vec<u64>>,
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
    sb: VecDeque<SbEntry>,
    aq: VecDeque<AqEntry>,
    barriers: BTreeSet<u64>,
    exec_done: EventQueue<(u64, Comp)>,
    /// Runs of SB writes that completed behind an older write and wait to
    /// reach the head: one per `Comp::Parked` marker on the wheel, in marker
    /// order, each holding uids in the order their re-checks run (see
    /// [`Core::park`]). Derived state: a restore empties it, and the image's
    /// `SbWrite` events park again when they pop.
    parked: VecDeque<VecDeque<u64>>,
    /// Emptied run buffers for [`Core::park`] to reuse. Never persisted.
    run_pool: Vec<VecDeque<u64>>,
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
    /// Cycles [`Core::sleep_until`] adds to every wake it reports; see
    /// [`Core::inject_oversleep_for_test`]. Zero outside tests; never
    /// persisted.
    oversleep: u64,
    /// Set by [`Core::drop_recheck_for_test`]; false outside tests; never
    /// persisted.
    drop_recheck: bool,
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
            replay: VecDeque::new(),
            next_order: 0,
            next_uid: 1,
            rob: Window::new(cfg.rob_entries),
            rename: [None; NUM_REGS],
            waiters: FastMap::new(),
            lazy_wait: BTreeMap::new(),
            waiting_on_store: FastMap::new(),
            waiter_pool: Vec::new(),
            scratch_pick: Vec::new(),
            iq_used: 0,
            sb: VecDeque::new(),
            aq: VecDeque::new(),
            barriers: BTreeSet::new(),
            exec_done: EventQueue::new(),
            parked: VecDeque::new(),
            run_pool: Vec::new(),
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
            oversleep: 0,
            drop_recheck: false,
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
        self.stream_done && self.replay.is_empty() && self.rob.is_empty() && self.sb.is_empty()
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

    /// Cycle of the most recent commit, or of the deadlock breaker's latest
    /// rearm when that is later (`Cycle::ZERO` before either).
    pub fn last_commit(&self) -> Cycle {
        self.last_commit
    }

    /// A human-readable description of the ROB-head instruction, if any —
    /// the instruction the core is stuck on when it stops committing.
    pub fn head_instr(&self) -> Option<String> {
        let (_, e) = self.rob.head()?;
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

    /// Test instrumentation: from now on [`Core::sleep_until`] reports
    /// every wake `extra` cycles late, so the core sleeps through
    /// transitions it should have made. `Machine::set_audit` must catch
    /// this. Not persisted across checkpoint/restore.
    #[doc(hidden)]
    pub fn inject_oversleep_for_test(&mut self, extra: u64) {
        self.oversleep = extra;
    }

    fn req_id(uid: u64, tag: u64) -> u64 {
        uid << 1 | tag
    }

    /// Sends instruction `uid`'s access to `line`: its store-buffer write
    /// for [`AccessKind::Write`], its demand request otherwise.
    fn request(
        &self,
        uid: u64,
        pc: Pc,
        line: LineAddr,
        kind: AccessKind,
        now: Cycle,
        mem: &mut MemorySystem,
    ) {
        let tag = if kind == AccessKind::Write {
            TAG_SB_WRITE
        } else {
            TAG_DEMAND
        };
        let meta = ReqMeta {
            req_id: Self::req_id(uid, tag),
            pc: Some(pc),
            prefetch: false,
            kind,
        };
        mem.access(self.id, line, meta, now);
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
                let Some(e) = self.rob.get(uid) else {
                    // Squashed instruction's fill. An Rmw auto-locked the
                    // line; release it.
                    if kind == AccessKind::Rmw {
                        mem.unlock(self.id, line, now);
                    }
                    return;
                };
                match e.instr.op {
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
                if !self.rob.contains(uid) {
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

    /// Squashes from the oldest completed load that read `line` without
    /// forwarding (TSO: another core's write to it became visible).
    fn squash_loads_on_line(&mut self, line: LineAddr, now: Cycle, mem: &mut MemorySystem) {
        let squash_order = self.rob.lq_from(0).find_map(|e| match e.instr.op {
            Op::Load { addr }
                if addr.line() == line
                    && e.completed_at.is_some()
                    && e.forwarded_from.is_none() =>
            {
                Some(e.order)
            }
            _ => None,
        });
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
    /// with the stall that proves it, or `None` when it must run next
    /// cycle.
    ///
    /// `Some(s)` is a *proof obligation*: every phase of [`Core::cycle`] is a
    /// state no-op for all cycles in `(now, s.until)` provided no memory
    /// event is delivered to the core in between. The caller must re-run
    /// the core as soon as it routes one (see `Machine::step_cycle`).
    ///
    /// The proof is made of the guards the phases themselves return on, so
    /// it cannot drift from them: `commit_stall` (whose stall is the
    /// [`SleepCause`]), `next_sb_write`, `issue_idle`, `dispatch_idle` and
    /// `breaker_deadline`; completions wait for the event wheel. While every
    /// guard holds, only a memory event, a wheel completion or the passing
    /// of `until` changes what they read. `until` is the earliest
    /// time-driven transition ([`WakeSource`]): the next wheel completion,
    /// the end of a fetch stall, the breaker's deadline, or the commit
    /// release.
    pub fn sleep_until(&self, now: Cycle) -> Option<Sleep> {
        if !self.issue_idle() || !self.dispatch_idle(now) || self.next_sb_write().is_some() {
            return None;
        }
        let (mut cause, release) = self.commit_stall(now)?;
        if cause == SleepCause::IncompleteHead && !self.lazy_wait.is_empty() {
            cause = SleepCause::LazyWaiter;
        }
        let mut until = self.breaker_deadline()?;
        let mut wake = WakeSource::Watchdog;
        let fetch = (self.fetch_resume_at > now).then_some(self.fetch_resume_at);
        for (at, source) in [
            (self.exec_done.next_cycle(), WakeSource::Wheel),
            (fetch, WakeSource::Fetch),
            (release, WakeSource::Release),
        ] {
            if let Some(at) = at.filter(|&at| at < until) {
                until = at;
                wake = source;
            }
        }
        (until > now).then_some(Sleep {
            until: until + self.oversleep,
            cause,
            wake,
        })
    }

    // ------------------------------------------------------------------
    // Completion handling
    // ------------------------------------------------------------------

    fn completions(&mut self, now: Cycle, mem: &mut MemorySystem) {
        while let Some((uid, comp)) = self.exec_done.pop_ready(now) {
            match comp {
                Comp::SbWrite => self.sb_write_done(uid, now, mem),
                Comp::Parked => self.recheck(uid, now, mem),
                _ if !self.rob.contains(uid) => {} // squashed
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
        let e = self.rob.get_mut(uid).expect("completing live entry");
        if e.completed_at.is_some() {
            return;
        }
        e.completed_at = Some(now);
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
                if let Some(c) = self.rob.get_mut(w) {
                    c.pending_deps -= 1;
                    if c.pending_deps == 0 {
                        let order = c.order;
                        self.rob.set_ready(order);
                    }
                }
            }
            ws.clear();
            self.waiter_pool.push(ws);
        }
    }

    fn addr_calc_done(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        let e = self.rob.get(uid).expect("live memory op");
        match e.instr.op {
            Op::Load { addr } => {
                let pc = e.instr.pc;
                // StoreSet: wait for a predicted-conflicting older store
                // whose address is still unknown.
                if let Some(dep) = self.ss.dependence_for_load(pc) {
                    if let Some(se) = self.rob.get(dep) {
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
                        if let Some(le) = self.rob.get(l) {
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
        let e = self.rob.get(uid).expect("live load");
        let (order, pc) = (e.order, e.instr.pc);
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
            let e = self.rob.get_mut(uid).expect("live load");
            e.forwarded_from = Some((st_uid, st_order));
            self.exec_done
                .push(now + self.l1_lat, (uid, Comp::LoadDone { forwarded: true }));
            return;
        }
        self.request(uid, pc, addr.line(), AccessKind::Read, now, mem);
    }

    fn load_done(&mut self, uid: u64, now: Cycle, forwarded: bool, mem: &mut MemorySystem) {
        let e = self.rob.get(uid).expect("live load");
        let (Op::Load { addr }, pc) = (e.instr.op, e.instr.pc) else {
            unreachable!("load completion for a non-load")
        };
        let observed = if forwarded {
            let st = e.forwarded_from.map(|(u, _)| u);
            self.sb
                .iter()
                .find(|s| Some(s.uid) == st)
                .and_then(|s| s.value)
        } else {
            None
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
        let store = self.rob.get(store_uid).expect("live store");
        let (st_order, st_pc) = (store.order, store.instr.pc);
        let word = addr.raw() & !7;
        // The oldest younger load that read the word and did not forward
        // from a store younger than this one.
        let victim = self
            .rob
            .lq_from(st_order + 1)
            .find_map(|e| match e.instr.op {
                Op::Load { addr: la }
                    if la.raw() & !7 == word
                        && e.completed_at.is_some()
                        && e.forwarded_from.is_none_or(|(_, fo)| fo <= st_order) =>
                {
                    Some((e.order, e.instr.pc))
                }
                _ => None,
            });
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
        let order = self.rob.get(uid).expect("live atomic").order;
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
        let i = self.rob.index_of(uid).expect("live atomic");
        let entries = self.rob.entries();
        let (order, pc) = (entries[i].order, entries[i].instr.pc);
        // Fig. 4 probes.
        let older = entries.range(..i).filter(|o| o.completed_at.is_none());
        let younger = entries.range(i + 1..).filter(|o| o.issued_at.is_some());
        let (older, younger) = (older.count() as u64, younger.count() as u64);
        self.stats.older_unexecuted_at_issue.add(older);
        self.stats.younger_started_at_issue.add(younger);

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
            let e = self.rob.get_mut(uid).expect("live");
            if e.in_iq {
                e.in_iq = false;
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
        self.request(uid, pc, addr.line(), AccessKind::Rmw, now, mem);
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
            self.aq[pos].issued14 = now.timestamp14();
            self.request(uid, pc, line, AccessKind::Rmw, now, mem);
            return;
        }
    }

    fn lazy_eligible(&self, order: u64) -> bool {
        let older_load = self.rob.oldest_lq_order().is_some_and(|o| o < order);
        let older_store = self.sb.front().is_some_and(|s| s.order < order);
        !older_load && !older_store
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Why `commit` cannot retire the ROB head at `now`, with the explorer's
    /// release cycle when that is the cause. `None` when the ROB is empty or
    /// `commit` has work at its head: retiring it, or asking for a ready
    /// atomic's release.
    fn commit_stall(&self, now: Cycle) -> Option<(SleepCause, Option<Cycle>)> {
        let (uid, e) = self.rob.head()?;
        if e.completed_at.is_none() {
            return Some((SleepCause::IncompleteHead, None));
        }
        if !matches!(e.instr.op, Op::Atomic { .. }) {
            return None;
        }
        // The previous atomic's AQ entry may linger until its STU writes, so
        // find ours by uid rather than at the head.
        let a = self
            .aq
            .iter()
            .find(|a| a.uid == uid)
            .expect("AQ entry for atomic at ROB head");
        if !a.locked {
            return Some((SleepCause::UnlockedAtomic, None));
        }
        // Near atomics own the SB head entry at this point; far atomics have
        // no SB entry — either way, nothing older may remain buffered.
        if self.sb.front().is_some_and(|s| s.order < e.order) {
            return Some((SleepCause::UndrainedSb, None));
        }
        match self.commit_release {
            Some((u, release)) if u == uid && release > now => {
                Some((SleepCause::CommitRelease, Some(release)))
            }
            _ => None,
        }
    }

    fn commit(&mut self, now: Cycle, mem: &mut MemorySystem) {
        for _ in 0..self.cfg.commit_width {
            if self.commit_stall(now).is_some() {
                break;
            }
            let Some((uid, e)) = self.rob.head() else {
                break;
            };
            if let Op::Atomic { addr, .. } = e.instr.op {
                // Explorer decision point, asked exactly once when the RMW
                // first becomes commit-ready: the schedule may hold the
                // commit for whole quanta (the paper's "no rush" knob as an
                // enumerable choice). Alternative 0 — every run without a
                // schedule — releases at the ready cycle.
                if self.commit_release.is_none_or(|(u, _)| u != uid) {
                    let core = self.id.index() as u16;
                    let alt = mem.decide(ChoiceKind::Commit, core, core, addr.line(), now);
                    let release = now + choice::commit_delay(alt);
                    self.commit_release = Some((uid, release));
                    if release > now {
                        break;
                    }
                }
            }
            let (_, e) = self.rob.pop_front().expect("the head");
            self.stats.committed += 1;
            self.last_commit = now;
            match e.instr.op {
                Op::Store { .. } => {
                    if let Some(s) = self.sb.iter_mut().find(|s| s.uid == uid) {
                        s.committed = true;
                    }
                }
                Op::Atomic { .. } => {
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

    /// The store-buffer entry `drain_sb` writes next, with its line: the
    /// oldest entry not yet in flight, once it has committed. `None` while
    /// the last write started missed and no write has retired since.
    fn next_sb_write(&self) -> Option<(usize, LineAddr)> {
        if self.sb_miss_inflight {
            return None;
        }
        let i = self.sb.iter().position(|s| !s.inflight)?;
        let s = &self.sb[i];
        s.addr.filter(|_| s.committed).map(|a| (i, a.line()))
    }

    fn drain_sb(&mut self, now: Cycle, mem: &mut MemorySystem) {
        // At most two writes start per cycle.
        for _ in 0..2 {
            let Some((i, line)) = self.next_sb_write() else {
                return;
            };
            let s = &mut self.sb[i];
            s.inflight = true;
            let (uid, pc, owned) = (s.uid, s.pc, s.atomic || mem.owns(self.id, line));
            self.request(uid, pc, line, AccessKind::Write, now, mem);
            if !owned {
                // A write miss stops the drain until the next write retires.
                // That may be an older hit, not the miss: younger owned
                // writes then start while the miss is in flight, and wait
                // for it at the head.
                self.sb_miss_inflight = true;
                return;
            }
        }
    }

    fn sb_write_done(&mut self, uid: u64, now: Cycle, mem: &mut MemorySystem) {
        // SB uids rise from head to tail (dispatch hands them out in program
        // order), so a uid below the head's belongs to a retired write.
        let Some(head) = self.sb.front() else {
            return;
        };
        if head.uid != uid {
            if head.uid < uid {
                // An older write is still in flight (e.g. it hit in L2 while
                // this one hit in L1). TSO: retire strictly in order.
                self.park(uid, now);
            }
            return;
        }
        let s = self.sb.pop_front().expect("present");
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

    /// Holds completed write `uid` until a re-check at `now + 1` finds it at
    /// the SB head. The re-check runs where an `SbWrite` event pushed now
    /// would pop, so the write retires in the cycle, and at the point of
    /// it, that retrying every cycle would give.
    fn park(&mut self, uid: u64, now: Cycle) {
        let mut run = self.run_pool.pop().unwrap_or_default();
        run.push_back(uid);
        self.repark(run, uid, now + 1);
    }

    /// Parks `run`, whose oldest write is `oldest`, for a re-check at
    /// `next`. One `Comp::Parked` marker stands for each run of writes
    /// parked with nothing else pushed for `next` between them, so `run`
    /// joins the run of the marker pushed last for `next` if nothing
    /// followed it, and gets a marker of its own otherwise.
    fn repark(&mut self, mut run: VecDeque<u64>, oldest: u64, next: Cycle) {
        let Some((last_oldest, Comp::Parked)) = self.exec_done.last_mut(next) else {
            self.parked.push_back(run);
            if !std::mem::take(&mut self.drop_recheck) {
                self.exec_done.push(next, (oldest, Comp::Parked));
            }
            return;
        };
        *last_oldest = (*last_oldest).min(oldest);
        // Append `run` to the last run, moving whichever is shorter.
        let last = self.parked.back_mut().expect("the marker's run");
        if last.len() <= run.len() {
            while let Some(uid) = last.pop_back() {
                run.push_front(uid);
            }
            std::mem::swap(last, &mut run);
        } else {
            last.append(&mut run);
        }
        self.run_pool.push(run);
    }

    /// Re-checks the run behind the marker that popped at `now`, whose
    /// oldest write is `oldest`, in the order its writes parked.
    fn recheck(&mut self, oldest: u64, now: Cycle, mem: &mut MemorySystem) {
        let mut run = self.parked.pop_front().expect("a marker's run");
        if self.sb.front().is_some_and(|head| head.uid < oldest) {
            // The head is older than the whole run, so each write would
            // park again in turn: the run waits one more cycle as it is.
            self.repark(run, oldest, now + 1);
            return;
        }
        for &uid in &run {
            self.sb_write_done(uid, now, mem);
        }
        run.clear();
        self.run_pool.push(run);
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

        if a.contended {
            self.stats.contended_atomics += 1;
        }
        match a.mode {
            ExecMode::Eager => self.stats.atomics_eager += 1,
            ExecMode::Lazy => self.stats.atomics_lazy += 1,
        }
        self.record_retired(&a, now);
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
        self.stats.atomics_lazy += 1;
        self.record_retired(&a, now);
    }

    /// Counts atomic `a`, retired at `now`, and records its Fig. 6
    /// breakdown: dispatch → memory issue → lock (for a far atomic, done at
    /// home) → `now`.
    fn record_retired(&mut self, a: &AqEntry, now: Cycle) {
        self.stats.atomics += 1;
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
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Whether `issue` has nothing to do: nothing is ready, and the oldest
    /// lazily waiting atomic or fence, if any, may not issue yet.
    fn issue_idle(&self) -> bool {
        self.rob.nothing_ready()
            && self
                .lazy_wait
                .keys()
                .next()
                .is_none_or(|&order| !self.lazy_eligible(order))
    }

    fn issue(&mut self, now: Cycle, mem: &mut MemorySystem) {
        if self.issue_idle() {
            return;
        }
        // Lazy atomics / fences: only the oldest can be eligible.
        while let Some((&order, &uid)) = self.lazy_wait.iter().next() {
            if !self.lazy_eligible(order) {
                break;
            }
            self.lazy_wait.remove(&order);
            match self.rob.get(uid).expect("live lazy waiter").instr.op {
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
        for order in self.rob.ready_orders() {
            if issued >= self.cfg.issue_width {
                break;
            }
            let (_, e) = self.rob.by_order(order);
            // A barrier blocks younger *memory* operations.
            let is_mem = e.instr.op.addr().is_some();
            if is_mem && barrier.is_some_and(|b| order > b) {
                continue;
            }
            pick.push(order);
            issued += 1;
        }
        for &order in &pick {
            self.rob.clear_ready(order);
            let (uid, e) = self.rob.by_order_mut(order);
            e.issued_at = Some(now);
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
        if self.stream_done {
            return None;
        }
        let Some(i) = self.stream.next_instr() else {
            self.stream_done = true;
            return None;
        };
        let order = self.next_order;
        self.next_order += 1;
        Some((order, i))
    }

    fn unfetch(&mut self, order: u64, instr: Instr) {
        self.replay.push_front((order, instr));
    }

    /// Whether `op`'s structural resources (LQ, SB, AQ) are full.
    fn hazard(&self, op: Op) -> bool {
        match op {
            Op::Load { .. } => self.rob.lq_len() >= self.cfg.lq_entries,
            Op::Store { .. } => self.sb.len() >= self.cfg.sb_entries,
            Op::Atomic { .. } => {
                self.rob.lq_len() >= self.cfg.lq_entries
                    || (!self.far() && self.sb.len() >= self.cfg.sb_entries)
                    || self.aq.len() >= self.cfg.aq_entries
            }
            _ => false,
        }
    }

    /// Whether `dispatch` can take nothing more this cycle: fetch is
    /// stalled, the ROB or IQ is full, or the next instruction is a
    /// replayed one blocked on a structural hazard, or there is none.
    fn dispatch_idle(&self, now: Cycle) -> bool {
        self.branch_stall.is_some()
            || now < self.fetch_resume_at
            || self.rob.len() >= self.cfg.rob_entries
            || self.iq_used >= self.cfg.iq_entries
            || match self.replay.front() {
                Some(&(_, i)) => self.hazard(i.op),
                None => self.stream_done,
            }
    }

    fn dispatch(&mut self, now: Cycle) {
        for _ in 0..self.cfg.fetch_width {
            if self.dispatch_idle(now) {
                break;
            }
            let Some((order, instr)) = self.next_instr() else {
                break;
            };
            if self.hazard(instr.op) {
                self.unfetch(order, instr);
                break;
            }
            let uid = self.next_uid;
            self.next_uid += 1;

            let mut deps = 0;
            for src in instr.srcs.into_iter().flatten() {
                if let Some(p) = self.rename[src as usize] {
                    if self.rob.get(p).is_some_and(|pe| pe.completed_at.is_none()) {
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
                Op::Store { .. } => {
                    self.push_sb(uid, order, instr);
                    self.ss.store_dispatched(instr.pc, uid);
                }
                Op::Atomic { rmw, addr } => {
                    if !self.far() {
                        self.push_sb(uid, order, instr);
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

            self.rob.push_back(
                uid,
                RobEntry {
                    order,
                    instr,
                    pending_deps: deps,
                    in_iq: true,
                    issued_at: None,
                    completed_at: None,
                    forwarded_from: None,
                },
            );
            self.iq_used += 1;
            if deps == 0 {
                self.rob.set_ready(order);
            }
            if stall_after {
                break;
            }
        }
    }

    /// Buffers store or atomic `instr` in program order. An atomic's address
    /// is known at dispatch; a store's arrives with its address generation.
    fn push_sb(&mut self, uid: u64, order: u64, instr: Instr) {
        let atomic = matches!(instr.op, Op::Atomic { .. });
        self.sb.push_back(SbEntry {
            uid,
            order,
            pc: instr.pc,
            addr: instr.op.addr().filter(|_| atomic),
            value: None,
            atomic,
            committed: false,
            inflight: false,
        });
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

    /// Squashes every entry of order `order` or younger and queues them,
    /// oldest first, to be dispatched again.
    fn squash_from(&mut self, order: u64, now: Cycle, mem: &mut MemorySystem) {
        // Youngest first, so each entry's SB and AQ entries, if any, are
        // their queues' youngest.
        while let Some((uid, e)) = self.rob.pop_back_from(order) {
            if e.in_iq {
                self.iq_used -= 1;
            }
            self.lazy_wait.remove(&e.order);
            self.barriers.remove(&e.order);
            if let Some(mut ws) = self.waiters.remove(&uid) {
                ws.clear();
                self.waiter_pool.push(ws);
            }
            if let Some(s) = self.sb.pop_back_if(|s| s.uid == uid) {
                debug_assert!(!s.committed, "cannot squash committed store");
            }
            if let Some(a) = self.aq.pop_back_if(|a| a.uid == uid) {
                if a.locked {
                    mem.unlock(self.id, a.addr.line(), now);
                }
            }
            if self.branch_stall == Some(uid) {
                self.branch_stall = None;
            }
            self.replay.push_front((e.order, e.instr));
        }
        // Purge dangling waiter references and rebuild the rename map.
        for ws in self.waiters.values_mut() {
            ws.retain(|&w| self.rob.contains(w));
        }
        let mut waiting_dead: Vec<u64> = Vec::new();
        for (st, ls) in self.waiting_on_store.iter_mut() {
            ls.retain(|&l| self.rob.contains(l));
            if !self.rob.contains(st) || ls.is_empty() {
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
        for (uid, e) in self.rob.iter() {
            if let Some(d) = e.instr.dst {
                self.rename[d as usize] = Some(uid);
            }
        }
        self.fetch_resume_at = self.fetch_resume_at.max(now + self.cfg.frontend_depth);
        self.cascade_locks(now, mem);
    }

    /// The cycle the deadlock breaker fires at unless a commit comes first;
    /// `None` while the ROB is empty, when the breaker rearms every cycle.
    fn breaker_deadline(&self) -> Option<Cycle> {
        let threshold = DEADLOCK_CYCLES + self.id.index() as u64 * 211;
        (!self.rob.is_empty()).then(|| self.last_commit + threshold)
    }

    fn deadlock_check(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let Some(deadline) = self.breaker_deadline() else {
            self.last_commit = now;
            return;
        };
        if now < deadline {
            return;
        }
        // Break a potential cross-core lock cycle: squash the oldest locked,
        // uncommitted atomic and replay it lazy.
        let victim = self
            .aq
            .iter()
            .find(|a| a.locked && self.rob.contains(a.uid))
            .map(|a| a.order);
        if let Some(order) = victim {
            self.stats.deadlock_breaks += 1;
            self.coverage.record(cpu_slot(CpuEvent::DeadlockBreak));
            self.force_lazy.insert(order);
            self.squash_from(order, now, mem);
        }
        self.last_commit = now; // rearm either way
    }

    // ------------------------------------------------------------------
    // Parked writes: image and audit
    // ------------------------------------------------------------------

    /// Writes the event wheel with each `Comp::Parked` marker replaced, in
    /// place, by an `SbWrite` event for each write of its run: the events
    /// of a core that retries a waiting write every cycle, so an image does
    /// not tell whether writes were parked.
    fn encode_wheel(&self, w: &mut Writer) {
        let mut runs = self.parked.iter();
        let mut len = 0;
        for (_, &(_, comp)) in self.exec_done.iter() {
            len += match comp {
                Comp::Parked => runs.next().map_or(0, VecDeque::len),
                _ => 1,
            };
        }
        w.put_len(len);
        let mut runs = self.parked.iter();
        for (at, &(uid, comp)) in self.exec_done.iter() {
            if matches!(comp, Comp::Parked) {
                for &uid in runs.next().into_iter().flatten() {
                    at.encode(w);
                    (uid, Comp::SbWrite).encode(w);
                }
            } else {
                at.encode(w);
                (uid, comp).encode(w);
            }
        }
    }

    /// Audit mode's check of the parked writes after the step at `now`,
    /// where `awake` says whether the machine steps the core next cycle:
    /// each names a committed, in-flight SB entry; the wheel holds one
    /// marker per run, due at `now + 1` and naming the run's oldest write;
    /// and the core is awake.
    pub fn parked_fault(&self, now: Cycle, awake: bool) -> Option<ParkedFault> {
        if self.parked.is_empty() {
            return None;
        }
        let in_flight = |&uid: &u64| {
            self.sb
                .iter()
                .any(|s| s.uid == uid && s.committed && s.inflight)
        };
        if let Some(&uid) = self.parked.iter().flatten().find(|&u| !in_flight(u)) {
            return Some(ParkedFault::NotInFlight { uid });
        }
        let mut runs = self.parked.iter();
        for (at, &(oldest, comp)) in self.exec_done.iter() {
            if matches!(comp, Comp::Parked) {
                let run_oldest = runs.next().and_then(|run| run.iter().min());
                if at != now + 1 || run_oldest != Some(&oldest) {
                    return Some(ParkedFault::NoRecheck);
                }
            }
        }
        if runs.next().is_some() {
            return Some(ParkedFault::NoRecheck);
        }
        (!awake).then_some(ParkedFault::Asleep)
    }

    /// Test instrumentation: the next time this core parks a write that
    /// starts a run, it pushes no marker, so the run waits with no re-check
    /// on the wheel. `Machine::set_audit` must catch this. Not persisted
    /// across checkpoint/restore.
    #[doc(hidden)]
    pub fn drop_recheck_for_test(&mut self) {
        self.drop_recheck = true;
    }
}

/// What audit mode found wrong with a core's parked writes (see
/// [`Core::parked_fault`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParkedFault {
    /// A parked write names no committed, in-flight store-buffer entry.
    NotInFlight {
        /// The parked write's uid.
        uid: u64,
    },
    /// The wheel does not hold exactly one re-check, due next cycle, for
    /// each run of parked writes.
    NoRecheck,
    /// The core sleeps with writes parked.
    Asleep,
}

impl std::fmt::Display for ParkedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParkedFault::NotInFlight { uid } => {
                write!(
                    f,
                    "write #{uid} is not a committed, in-flight store-buffer entry"
                )
            }
            ParkedFault::NoRecheck => {
                f.write_str("the wheel does not re-check each run next cycle")
            }
            ParkedFault::Asleep => f.write_str("the core sleeps"),
        }
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

row_common::codec_enum!(Comp {
    0 => Exec,
    1 => AddrCalc,
    2 => AtomicAddrOnly,
    3 => LoadDone { forwarded },
    4 => AtomicValue,
    5 => SbWrite,
    6 => Parked,
});

row_common::codec_struct!(SbEntry {
    uid,
    order,
    pc,
    addr,
    value,
    atomic,
    committed,
    inflight,
});

row_common::codec_struct!(AqEntry {
    uid,
    order,
    pc,
    rmw,
    addr,
    addr_known,
    locked,
    fill_pending,
    contended,
    predicted_contended,
    mode,
    dispatched_at,
    mem_issued_at,
    locked_at,
    issued14,
});

row_common::codec_struct!(LoadObservation { pc, addr, value });

impl Persist for Core {
    // `id`, `cfg`, `l1_lat`, and `stats_detector` are construction parameters
    // and stay; the instruction stream persists only its own mutable state
    // (the program itself is reconstructed from the config/seed).
    fn persist(&self, w: &mut Writer) {
        self.stream.save_state(w);
        w.put_bool(self.stream_done);
        self.replay.encode(w);
        w.put_u64(self.next_order);
        w.put_u64(self.next_uid);
        self.rob.encode_rob(w);
        self.rename.encode(w);
        self.waiters.encode(w);
        self.rob.encode_ready(w);
        self.lazy_wait.encode(w);
        self.waiting_on_store.encode(w);
        self.iq_used.encode(w);
        self.rob.encode_lq(w);
        self.sb.encode(w);
        self.aq.encode(w);
        self.barriers.encode(w);
        self.encode_wheel(w);
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
        self.replay = VecDeque::<(u64, Instr)>::decode(r)?;
        self.next_order = r.get_u64()?;
        self.next_uid = r.get_u64()?;
        self.rob.restore_rob(r)?;
        self.rename = <[Option<u64>; NUM_REGS]>::decode(r)?;
        self.waiters = FastMap::<u64, Vec<u64>>::decode(r)?;
        self.rob.restore_ready(r)?;
        self.lazy_wait = BTreeMap::<u64, u64>::decode(r)?;
        self.waiting_on_store = FastMap::<u64, Vec<u64>>::decode(r)?;
        self.iq_used = usize::decode(r)?;
        self.rob.restore_lq(r)?;
        self.sb = VecDeque::<SbEntry>::decode(r)?;
        self.aq = VecDeque::<AqEntry>::decode(r)?;
        self.barriers = BTreeSet::<u64>::decode(r)?;
        self.exec_done = EventQueue::<(u64, Comp)>::decode(r)?;
        if self
            .exec_done
            .iter()
            .any(|(_, (_, c))| matches!(c, Comp::Parked))
        {
            return Err(PersistError::Corrupt("parked-write marker in a core image"));
        }
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
        self.parked.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::VecStream;
    use row_common::choice::Schedule;
    use row_common::persist::to_bytes;
    use row_common::SystemConfig;

    fn atomic(addr: u64) -> Instr {
        Instr::simple(
            Pc::new(0x40),
            Op::Atomic {
                rmw: RmwKind::Faa(1),
                addr: Addr::new(addr),
            },
        )
    }

    /// A one-core machine under `policy` running `prog`, with `schedule`
    /// handed to its memory system when given.
    fn machine(
        policy: AtomicPolicy,
        prog: Vec<Instr>,
        schedule: Option<Schedule>,
    ) -> (Core, MemorySystem) {
        let mut cfg = SystemConfig::small(1);
        cfg.core.atomic_policy = policy;
        let mut mem = MemorySystem::new(&cfg);
        if let Some(s) = schedule {
            mem.set_schedule(s);
        }
        let stream = Box::new(VecStream::new(prog));
        let core = Core::new(CoreId::new(0), cfg.core, cfg.mem.l1d.hit_latency, stream);
        (core, mem)
    }

    /// Steps the machine one cycle at a time until `stop` holds after a
    /// step; returns that cycle.
    fn run_until(core: &mut Core, mem: &mut MemorySystem, stop: impl Fn(&Core) -> bool) -> Cycle {
        for t in 0..100_000 {
            let now = Cycle::new(t);
            for ev in mem.tick(now) {
                core.handle_mem_event(&ev, now, mem);
            }
            core.cycle(now, mem);
            if stop(core) {
                return now;
            }
        }
        panic!("the awaited state never came");
    }

    /// The completed atomic at the ROB head, if the head is one.
    fn completed_head_atomic(c: &Core) -> Option<&RobEntry> {
        let (_, e) = c.rob.head()?;
        (matches!(e.instr.op, Op::Atomic { .. }) && e.completed_at.is_some()).then_some(e)
    }

    /// Whether the ROB holds a head that has not completed.
    fn head_incomplete(c: &Core) -> bool {
        c.rob.head().is_some_and(|(_, e)| e.completed_at.is_none())
    }

    #[test]
    fn lazy_atomic_behind_an_older_load_miss_sleeps() {
        let load = Instr::simple(
            Pc::new(0x10),
            Op::Load {
                addr: Addr::new(0x9000),
            },
        );
        let (mut c, mut mem) = machine(AtomicPolicy::Lazy, vec![load, atomic(0x5000)], None);
        let now = run_until(&mut c, &mut mem, |c| !c.lazy_wait.is_empty());
        assert!(
            mem.mshr_lines(c.id).contains(&Addr::new(0x9000).line()),
            "load still missing"
        );
        let sleep = c
            .sleep_until(now)
            .expect("an ineligible lazy waiter sleeps");
        assert_eq!(sleep.cause, SleepCause::LazyWaiter);
        assert!(sleep.until > now);
    }

    #[test]
    fn completed_atomic_behind_an_older_store_miss_sleeps() {
        // The first atomic brings the line in; the second merges onto its
        // miss and completes with it, but then waits at the ROB head for
        // the store between them, whose write misses.
        let store = Instr::simple(
            Pc::new(0x20),
            Op::Store {
                addr: Addr::new(0x9000),
                value: Some(7),
            },
        );
        let prog = vec![atomic(0x5000), store, atomic(0x5000)];
        let (mut c, mut mem) = machine(AtomicPolicy::Eager, prog, None);
        let now = run_until(&mut c, &mut mem, |c| {
            completed_head_atomic(c)
                .is_some_and(|e| c.sb.front().is_some_and(|s| s.order < e.order))
        });
        assert!(c.sb_miss_inflight, "the store's write misses");
        let sleep = c.sleep_until(now).expect("an undrained SB holds the head");
        assert_eq!(sleep.cause, SleepCause::UndrainedSb);
    }

    #[test]
    fn completed_atomic_under_a_commit_delay_sleeps_until_its_release() {
        // Every decision takes the longest delay, the commit included.
        let schedule = Schedule::new(vec![choice::N_ALTS - 1; 64]);
        let (mut c, mut mem) = machine(AtomicPolicy::Eager, vec![atomic(0x5000)], Some(schedule));
        let now = run_until(&mut c, &mut mem, |c| c.commit_release.is_some());
        let (_, release) = c.commit_release.expect("asked");
        assert!(release > now, "the schedule holds the commit");
        let sleep = c.sleep_until(now).expect("a held commit sleeps");
        assert_eq!(sleep.until, release);
        assert_eq!(sleep.cause, SleepCause::CommitRelease);
        assert_eq!(sleep.wake, WakeSource::Release);
    }

    fn load(addr: u64) -> Instr {
        Instr::simple(
            Pc::new(0x10),
            Op::Load {
                addr: Addr::new(addr),
            },
        )
    }

    fn store(addr: u64) -> Instr {
        Instr::simple(
            Pc::new(0x20),
            Op::Store {
                addr: Addr::new(addr),
                value: Some(7),
            },
        )
    }

    #[test]
    fn committed_store_behind_writes_in_flight_keeps_the_core_awake() {
        // The first store brings line 0x5000 in; three more to that line
        // commit behind it, then a load miss, its address waiting on a slow
        // ALU op, holds the ROB head. Once the line arrives the drain starts
        // two writes a cycle, so one step ends with two in flight and the
        // third committed but not yet written.
        let mut prog: Vec<Instr> = (0..4).map(|k| store(0x5000 + 8 * k)).collect();
        prog.push(Instr::simple(Pc::new(0x30), Op::Alu { latency: 200 }).with_dst(1));
        prog.push(load(0x9000).with_srcs(Some(1), None));
        let (mut c, mut mem) = machine(AtomicPolicy::Eager, prog, None);
        let now = run_until(&mut c, &mut mem, |c| {
            c.sb.len() == 3
                && c.sb[0].inflight
                && c.sb[1].inflight
                && c.sb[2].committed
                && !c.sb[2].inflight
        });
        assert!(head_incomplete(&c), "the load miss holds the head");
        assert_eq!(
            c.sleep_until(now),
            None,
            "the next drain writes the third store"
        );
    }

    #[test]
    fn replayed_load_or_store_blocks_dispatch_only_while_its_queue_is_full() {
        // With one LQ and one SB entry, the third instruction finds its
        // queue full and is unfetched onto the replay front, while the load
        // miss holds the ROB head and nothing is ready.
        for third in [load(0x9040), store(0x9080)] {
            let prog = vec![load(0x9000), store(0x9100), third];
            let (mut c, mut mem) = machine(AtomicPolicy::Eager, prog, None);
            c.cfg.lq_entries = 1;
            c.cfg.sb_entries = 1;
            let now = run_until(&mut c, &mut mem, |c| {
                head_incomplete(c) && c.rob.nothing_ready() && c.exec_done.next_cycle().is_none()
            });
            assert_eq!(c.replay.front().map(|&(_, i)| i), Some(third));
            let sleep = c.sleep_until(now).expect("a full queue blocks the front");
            assert_eq!(sleep.cause, SleepCause::IncompleteHead);
            if matches!(third.op, Op::Load { .. }) {
                c.cfg.lq_entries = 2;
            } else {
                c.cfg.sb_entries = 2;
            }
            assert_eq!(
                c.sleep_until(now),
                None,
                "with room, dispatch takes the front"
            );
        }
    }

    #[test]
    fn incomplete_head_after_a_full_commit_width_sleeps() {
        // Twelve 1-cycle ops wait on a 20-cycle op, so they complete
        // together and retire in one step, a full commit width, which
        // leaves the commit loop before it reaches the 200-cycle op behind
        // them.
        let alu = |latency| Instr::simple(Pc::new(0x30), Op::Alu { latency });
        let mut prog = vec![alu(20).with_dst(1)];
        prog.extend((0..12).map(|_| alu(1).with_srcs(Some(1), None)));
        prog.push(alu(200));
        let (mut c, mut mem) = machine(AtomicPolicy::Eager, prog, None);
        let now = run_until(&mut c, &mut mem, |c| c.stats.committed > 1);
        assert_eq!(c.stats.committed, 1 + c.cfg.commit_width as u64);
        assert!(head_incomplete(&c), "the 200-cycle op holds the head");
        let sleep = c
            .sleep_until(now)
            .expect("an incomplete head sleeps after a full commit width");
        assert_eq!(sleep.cause, SleepCause::IncompleteHead);
        assert_eq!(sleep.wake, WakeSource::Wheel);
    }

    /// A program whose first cycles leave the window holding loads and
    /// ready entries behind a load miss at the head.
    fn window_prog() -> Vec<Instr> {
        let alu = Instr::simple(Pc::new(0x30), Op::Alu { latency: 1 });
        let mut prog = vec![load(0x9000)];
        prog.extend((0..12).map(|k| {
            if k % 3 == 0 {
                load(0x9040 + 0x40 * k)
            } else {
                alu
            }
        }));
        prog
    }

    /// A fresh core for [`window_prog`] with a ROB of `rob_entries`.
    fn window_core(rob_entries: usize) -> Core {
        let mut cfg = SystemConfig::small(1);
        cfg.core.rob_entries = rob_entries;
        let stream = Box::new(VecStream::new(window_prog()));
        Core::new(CoreId::new(0), cfg.core, cfg.mem.l1d.hit_latency, stream)
    }

    /// [`window_prog`]'s core once its window holds loads and ready
    /// entries, with its image.
    fn core_with_a_window() -> (Core, Vec<u8>) {
        let (mut c, mut mem) = machine(AtomicPolicy::Eager, window_prog(), None);
        run_until(&mut c, &mut mem, |c| {
            c.rob.len() >= 4 && !c.rob.nothing_ready() && c.rob.lq_len() >= 2
        });
        let image = image_of(&c);
        (c, image)
    }

    fn image_of(c: &Core) -> Vec<u8> {
        let mut w = Writer::new();
        c.persist(&mut w);
        w.into_bytes()
    }

    /// Restores `image` into a fresh core with a ROB of `rob_entries`.
    fn restore_into(image: &[u8], rob_entries: usize) -> Result<Core, PersistError> {
        let mut c = window_core(rob_entries);
        c.restore(&mut Reader::new(image))?;
        Ok(c)
    }

    /// The offset just past the first copy of `section` in `image` at or
    /// after `from`.
    fn after(image: &[u8], section: &[u8], from: usize) -> usize {
        let at = image[from..]
            .windows(section.len())
            .position(|w| w == section)
            .expect("the section is in the image");
        from + at + section.len()
    }

    /// Overwrites the `u64` at `at` with `v`.
    fn put_u64(image: &mut [u8], at: usize, v: u64) {
        image[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn a_window_image_restores_to_the_same_bytes() {
        let (c, image) = core_with_a_window();
        let back = restore_into(&image, c.cfg.rob_entries).expect("a valid image");
        assert_eq!(image_of(&back), image);
        assert_eq!(back.rob.len(), c.rob.len());
    }

    #[test]
    fn restore_refuses_rob_uids_that_do_not_rise() {
        let (mut c, _) = core_with_a_window();
        let (uids, _) = c.rob.parts_mut();
        uids[1] = uids[0];
        let err = restore_into(&image_of(&c), c.cfg.rob_entries).unwrap_err();
        assert_eq!(err, PersistError::Corrupt("ROB uids do not rise"));
    }

    #[test]
    fn restore_refuses_a_gap_in_the_orders() {
        let (mut c, _) = core_with_a_window();
        let (_, entries) = c.rob.parts_mut();
        entries.back_mut().expect("a tail").order += 1;
        let err = restore_into(&image_of(&c), c.cfg.rob_entries).unwrap_err();
        assert_eq!(err, PersistError::Corrupt("ROB orders have a gap"));
    }

    #[test]
    fn restore_refuses_more_entries_than_the_rob_holds() {
        let (c, image) = core_with_a_window();
        let err = restore_into(&image, c.rob.len() - 1).unwrap_err();
        assert_eq!(
            err,
            PersistError::Corrupt("ROB holds more entries than it has")
        );
    }

    #[test]
    fn restore_refuses_entries_that_do_not_match_the_rob() {
        // The entry map names a uid the ROB does not hold in place of its
        // head's: the map lacks a ROB uid.
        let (c, mut image) = core_with_a_window();
        let uids: VecDeque<u64> = c.rob.iter().map(|(uid, _)| uid).collect();
        let entries = after(&image, &to_bytes(&uids), 0);
        let dead = uids.back().expect("a tail") + 100;
        put_u64(&mut image, entries + 8, dead);
        let err = restore_into(&image, c.cfg.rob_entries).unwrap_err();
        assert_eq!(
            err,
            PersistError::Corrupt("ROB entries do not match the ROB")
        );
    }

    #[test]
    fn restore_refuses_ready_and_load_queue_entries_that_name_no_window_entry() {
        let (c, image) = core_with_a_window();
        let uids: VecDeque<u64> = c.rob.iter().map(|(uid, _)| uid).collect();
        let dead = uids.back().expect("a tail") + 100;
        let ready: BTreeMap<u64, u64> = c
            .rob
            .ready_orders()
            .map(|o| (o, c.rob.by_order(o).0))
            .collect();
        let lq: BTreeMap<u64, u64> = c
            .rob
            .iter()
            .filter(|(_, e)| matches!(e.instr.op, Op::Load { .. } | Op::Atomic { .. }))
            .map(|(uid, e)| (e.order, uid))
            .collect();
        let rob_end = after(&image, &to_bytes(&uids), 0);
        let ready_end = after(&image, &to_bytes(&ready), rob_end);
        let lq_end = after(&image, &to_bytes(&lq), ready_end);
        let cases = [
            (
                ready_end - 16 * ready.len() + 8,
                "ready entry names no window entry",
            ),
            (
                lq_end - 16 * lq.len() + 8,
                "load queue does not match the window's loads",
            ),
        ];
        for (first_uid, what) in cases {
            let mut forged = image.clone();
            put_u64(&mut forged, first_uid, dead);
            let err = restore_into(&forged, c.cfg.rob_entries).unwrap_err();
            assert_eq!(err, PersistError::Corrupt(what));
        }
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (to_bytes(&Comp::Exec), "00"),
            (to_bytes(&Comp::AddrCalc), "01"),
            (to_bytes(&Comp::AtomicAddrOnly), "02"),
            (to_bytes(&Comp::LoadDone { forwarded: true }), "0301"),
            (to_bytes(&Comp::AtomicValue), "04"),
            (to_bytes(&Comp::SbWrite), "05"),
            (
                to_bytes(&RobEntry {
                    order: 0x11,
                    instr: Instr::simple(Pc::new(0x22), Op::Fence),
                    pending_deps: 0x33,
                    in_iq: true,
                    issued_at: Some(Cycle::new(0x44)),
                    completed_at: Some(Cycle::new(0x55)),
                    forwarded_from: Some((0x66, 0x77)),
                }),
                "110000000000000022000000000000000500000033000000010144000000000000000155000000000000000166000000000000007700000000000000",
            ),
            (
                to_bytes(&SbEntry {
                    uid: 0x11,
                    order: 0x22,
                    pc: Pc::new(0x33),
                    addr: Some(Addr::new(0x44)),
                    value: Some(0x55),
                    atomic: true,
                    committed: false,
                    inflight: true,
                }),
                "110000000000000022000000000000003300000000000000014400000000000000015500000000000000010001",
            ),
            (
                to_bytes(&AqEntry {
                    uid: 0x11,
                    order: 0x22,
                    pc: Pc::new(0x33),
                    rmw: RmwKind::Swap(0x44),
                    addr: Addr::new(0x55),
                    addr_known: true,
                    locked: false,
                    fill_pending: true,
                    contended: false,
                    predicted_contended: true,
                    mode: ExecMode::Lazy,
                    dispatched_at: Cycle::new(0x66),
                    mem_issued_at: Some(Cycle::new(0x77)),
                    locked_at: Some(Cycle::new(0x88)),
                    issued14: 0x99,
                }),
                "110000000000000022000000000000003300000000000000014400000000000000550000000000000001000100010166000000000000000177000000000000000188000000000000009900",
            ),
            (
                to_bytes(&LoadObservation {
                    pc: Pc::new(0x11),
                    addr: Addr::new(0x22),
                    value: 0x33,
                }),
                "110000000000000022000000000000003300000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
