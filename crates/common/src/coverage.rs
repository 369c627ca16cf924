//! Protocol transition-coverage map for the schedule fuzzer (`norush fuzz`).
//!
//! Every interesting protocol transition in the workspace maps to one slot in
//! a small, *exactly indexed* flat space — directory `(state, event)` pairs,
//! private-cache FSM `(state, event)` pairs, transport events, and CPU
//! atomic-queue / store-buffer edge events. Exact indexing (rather than an
//! opaque hash-only bitmap) is what lets the fuzz report *name* the
//! never-exercised pairs, doubling as a dead-protocol-arm report; the fnv1a
//! hashing the fuzzer uses for corpus dedup is computed over this bitmap via
//! [`CoverageMap::fingerprint`].
//!
//! Counting is always on: each instrumented component (directory bank,
//! private cache, transport, core) keeps [`DomainCounts`] for its own domain
//! beside its statistics, and the machine merges them into a [`CoverageMap`]
//! on demand. The counters are derived state — never checkpointed, and left
//! untouched by a restore — so they cannot change simulated time.

use crate::persist::{Codec, PersistError, Reader, Writer};

/// Directory states a message can encounter (index into [`DIR_STATES`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirState {
    /// No sharer and no owner (the line lives only in the L3/memory).
    Uncached = 0,
    /// One or more read-only sharers.
    Shared = 1,
    /// A single exclusive owner.
    Exclusive = 2,
    /// Mid-transaction, waiting for the requester's `Unblock`.
    BlockedAwaitUnblock = 3,
    /// Mid-transaction, collecting invalidation acks.
    BlockedCollectingAcks = 4,
}

/// Message classes the directory dispatches on (index into [`DIR_EVENTS`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirEvent {
    /// Read (shared) request.
    GetS = 0,
    /// Write/RMW (exclusive) request.
    GetX = 1,
    /// Dirty writeback.
    PutM = 2,
    /// Far-atomic execute-at-home request.
    AtomicFar = 3,
    /// Transaction-completion unblock.
    Unblock = 4,
    /// Invalidation acknowledgement.
    InvAck = 5,
    /// Anything else (stray/unexpected at this state).
    Other = 6,
}

/// Private-cache line states (index into [`PRIV_STATES`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrivState {
    /// Line not present (invalid).
    I = 0,
    /// Shared (read-only copy).
    S = 1,
    /// Exclusive clean.
    E = 2,
    /// Modified.
    M = 3,
    /// Eviction in flight (awaiting writeback ack).
    Evicting = 4,
}

/// Message classes the private cache dispatches on (index into [`PRIV_EVENTS`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrivEvent {
    /// Invalidation request.
    Inv = 0,
    /// Forwarded read request (owner must downgrade).
    FwdGetS = 1,
    /// Forwarded exclusive request (owner must invalidate).
    FwdGetX = 2,
    /// Data fill.
    Data = 3,
    /// Writeback acknowledged.
    WbAck = 4,
    /// Writeback raced with an invalidation.
    WbStale = 5,
    /// Far atomic completed at the home.
    FarDone = 6,
    /// Anything else (stray/unexpected at this state).
    Other = 7,
}

/// Transport-layer events (index into [`TRANSPORT_EVENTS`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportEvent {
    /// A sequenced frame was transmitted.
    Send = 0,
    /// An in-order frame was delivered to the protocol.
    Deliver = 1,
    /// Fault injection dropped a transmission.
    Drop = 2,
    /// Fault injection duplicated a transmission.
    Dup = 3,
    /// A corrupt payload was detected by checksum (NACK sent).
    CorruptNack = 4,
    /// A timeout fired and the frame was retransmitted.
    Retransmit = 5,
    /// A cumulative ACK retired an in-flight frame.
    Ack = 6,
    /// A NACK triggered an immediate re-request.
    Nack = 7,
    /// The retransmit attempt budget was exhausted (give-up).
    GiveUp = 8,
    /// An out-of-order frame parked in the reorder buffer.
    ReorderBuffered = 9,
    /// A duplicate sequence number was discarded by the receiver.
    Dedup = 10,
    /// A schedule-perturbation burst delayed a delivery.
    BurstDelay = 11,
}

/// CPU atomic-queue / store-buffer edge events (index into [`CPU_EVENTS`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuEvent {
    /// An atomic issued eagerly to memory.
    EagerIssue = 0,
    /// A lazy atomic parked to wait for oldest+SB-drained.
    LazyWait = 1,
    /// A parked lazy atomic finally issued.
    LazyIssue = 2,
    /// An atomic load was satisfied by SB forwarding.
    Forwarded = 3,
    /// The locality override flipped a predicted-lazy atomic to eager.
    LocalityOverride = 4,
    /// A far atomic was shipped to the home directory.
    FarIssue = 5,
    /// A cache lock was acquired for a near atomic.
    LockAcquire = 6,
    /// A stolen locked line forced a re-request (lock reacquired).
    LockReacquire = 7,
    /// The store buffer fully drained with an atomic waiting.
    SbDrain = 8,
    /// The squash-and-retry deadlock breaker fired.
    DeadlockBreak = 9,
}

/// Printable directory state names, indexed by [`DirState`].
pub const DIR_STATES: &[&str] = &[
    "Uncached",
    "Shared",
    "Exclusive",
    "Blocked/AwaitUnblock",
    "Blocked/CollectingAcks",
];
/// Printable directory event names, indexed by [`DirEvent`].
pub const DIR_EVENTS: &[&str] = &[
    "GetS",
    "GetX",
    "PutM",
    "AtomicFar",
    "Unblock",
    "InvAck",
    "Other",
];
/// Printable private-cache state names, indexed by [`PrivState`].
pub const PRIV_STATES: &[&str] = &["I", "S", "E", "M", "Evicting"];
/// Printable private-cache event names, indexed by [`PrivEvent`].
pub const PRIV_EVENTS: &[&str] = &[
    "Inv", "FwdGetS", "FwdGetX", "Data", "WbAck", "WbStale", "FarDone", "Other",
];
/// Printable transport event names, indexed by [`TransportEvent`].
pub const TRANSPORT_EVENTS: &[&str] = &[
    "send",
    "deliver",
    "drop",
    "dup",
    "corrupt-nack",
    "retransmit",
    "ack",
    "nack",
    "give-up",
    "reorder-buffered",
    "dedup",
    "burst-delay",
];
/// Printable CPU event names, indexed by [`CpuEvent`].
pub const CPU_EVENTS: &[&str] = &[
    "eager-issue",
    "lazy-wait",
    "lazy-issue",
    "forwarded",
    "locality-override",
    "far-issue",
    "lock-acquire",
    "lock-reacquire",
    "sb-drain",
    "deadlock-break",
];

const DIR_BASE: usize = 0;
const DIR_COUNT: usize = 5 * 7;
const PRIV_BASE: usize = DIR_BASE + DIR_COUNT;
const PRIV_COUNT: usize = 5 * 8;
const TRANSPORT_BASE: usize = PRIV_BASE + PRIV_COUNT;
const TRANSPORT_COUNT: usize = 12;
const CPU_BASE: usize = TRANSPORT_BASE + TRANSPORT_COUNT;
const CPU_COUNT: usize = 10;
/// Total number of coverage slots.
pub const SLOT_COUNT: usize = CPU_BASE + CPU_COUNT;

/// Slot index of a directory `(state, event)` pair.
pub fn dir_slot(state: DirState, event: DirEvent) -> usize {
    DIR_BASE + state as usize * DIR_EVENTS.len() + event as usize
}

/// Slot index of a private-cache `(state, event)` pair.
pub fn priv_slot(state: PrivState, event: PrivEvent) -> usize {
    PRIV_BASE + state as usize * PRIV_EVENTS.len() + event as usize
}

/// Slot index of a transport event.
pub fn transport_slot(event: TransportEvent) -> usize {
    TRANSPORT_BASE + event as usize
}

/// Slot index of a CPU edge event.
pub fn cpu_slot(event: CpuEvent) -> usize {
    CPU_BASE + event as usize
}

/// Human-readable name of a slot, e.g. `dir:Shared/GetX` or `cpu:sb-drain`.
pub fn slot_name(slot: usize) -> String {
    if slot < PRIV_BASE {
        let i = slot - DIR_BASE;
        format!(
            "dir:{}/{}",
            DIR_STATES[i / DIR_EVENTS.len()],
            DIR_EVENTS[i % DIR_EVENTS.len()]
        )
    } else if slot < TRANSPORT_BASE {
        let i = slot - PRIV_BASE;
        format!(
            "cache:{}/{}",
            PRIV_STATES[i / PRIV_EVENTS.len()],
            PRIV_EVENTS[i % PRIV_EVENTS.len()]
        )
    } else if slot < CPU_BASE {
        format!("transport:{}", TRANSPORT_EVENTS[slot - TRANSPORT_BASE])
    } else {
        format!("cpu:{}", CPU_EVENTS[slot - CPU_BASE])
    }
}

/// Per-domain slot ranges as `(domain, base, count)` — the report's coverage
/// summary groups by these.
pub const DOMAINS: &[(&str, usize, usize)] = &[
    ("directory", DIR_BASE, DIR_COUNT),
    ("private-cache", PRIV_BASE, PRIV_COUNT),
    ("transport", TRANSPORT_BASE, TRANSPORT_COUNT),
    ("cpu", CPU_BASE, CPU_COUNT),
];

/// One component's hit counters: one per slot of the domain
/// `[BASE, BASE + N)` it records into. A fixed array, so building a machine
/// allocates nothing for coverage; [`CoverageMap::add`] merges it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DomainCounts<const BASE: usize, const N: usize>([u64; N]);

impl<const BASE: usize, const N: usize> Default for DomainCounts<BASE, N> {
    fn default() -> Self {
        DomainCounts([0; N])
    }
}

impl<const BASE: usize, const N: usize> DomainCounts<BASE, N> {
    /// Records one hit on `slot`, a slot of this domain.
    pub fn record(&mut self, slot: usize) {
        let h = &mut self.0[slot - BASE];
        *h = h.saturating_add(1);
    }
}

/// A directory bank's counters.
pub type DirCounts = DomainCounts<DIR_BASE, DIR_COUNT>;
/// A private cache's counters.
pub type PrivCounts = DomainCounts<PRIV_BASE, PRIV_COUNT>;
/// The transport's counters.
pub type TransportCounts = DomainCounts<TRANSPORT_BASE, TRANSPORT_COUNT>;
/// A core's counters.
pub type CpuCounts = DomainCounts<CPU_BASE, CPU_COUNT>;

/// The transition-coverage map: a hit counter per slot.
///
/// The hit *bit* (count > 0) drives corpus-keeping decisions and the dead-arm
/// report; the counts feed the fuzzer's power schedule (rare transitions get
/// more mutation energy). Counts saturate rather than wrap so merging is
/// order-independent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoverageMap {
    hits: Vec<u64>,
}

impl CoverageMap {
    /// An empty map covering all [`SLOT_COUNT`] slots.
    pub fn new() -> Self {
        CoverageMap {
            hits: vec![0; SLOT_COUNT],
        }
    }

    /// Records one hit on `slot`.
    pub fn record(&mut self, slot: usize) {
        if let Some(h) = self.hits.get_mut(slot) {
            *h = h.saturating_add(1);
        }
    }

    /// Hit count of `slot` (0 when never exercised).
    pub fn hits(&self, slot: usize) -> u64 {
        self.hits.get(slot).copied().unwrap_or(0)
    }

    /// True when `slot` has been exercised at least once.
    pub fn is_hit(&self, slot: usize) -> bool {
        self.hits(slot) > 0
    }

    /// Number of slots exercised at least once.
    pub fn covered(&self) -> usize {
        self.hits.iter().filter(|&&h| h > 0).count()
    }

    /// Adds `other`'s hit counts into this map (saturating).
    pub fn merge(&mut self, other: &CoverageMap) {
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a = a.saturating_add(*b);
        }
    }

    /// Adds one component's counters into this map (saturating).
    pub fn add<const BASE: usize, const N: usize>(&mut self, counts: &DomainCounts<BASE, N>) {
        for (a, b) in self.hits[BASE..BASE + N].iter_mut().zip(&counts.0) {
            *a = a.saturating_add(*b);
        }
    }

    /// Number of slots hit in `self` but not in `global` — the "new coverage"
    /// signal deciding whether a fuzz schedule joins the corpus.
    pub fn new_slots_vs(&self, global: &CoverageMap) -> usize {
        self.hits
            .iter()
            .zip(&global.hits)
            .filter(|&(&mine, &theirs)| mine > 0 && theirs == 0)
            .count()
    }

    /// Names of every never-exercised slot, in slot order.
    pub fn uncovered_names(&self) -> Vec<String> {
        (0..SLOT_COUNT)
            .filter(|&s| !self.is_hit(s))
            .map(slot_name)
            .collect()
    }

    /// Per-domain `(domain, covered, total)` summary.
    pub fn domain_summary(&self) -> Vec<(&'static str, usize, usize)> {
        DOMAINS
            .iter()
            .map(|&(name, base, count)| {
                let covered = (base..base + count).filter(|&s| self.is_hit(s)).count();
                (name, covered, count)
            })
            .collect()
    }

    /// FNV-1a hash over the hit *bitmap* (not the counts): two runs lighting
    /// the same transition set fingerprint equally even if hit totals differ.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = vec![0u8; SLOT_COUNT.div_ceil(8)];
        for (slot, &h) in self.hits.iter().enumerate() {
            if h > 0 {
                bytes[slot / 8] |= 1 << (slot % 8);
            }
        }
        crate::persist::fnv1a(&bytes)
    }
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl Codec for CoverageMap {
    fn encode(&self, w: &mut Writer) {
        self.hits.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let hits = Vec::<u64>::decode(r)?;
        if hits.len() != SLOT_COUNT {
            return Err(PersistError::Corrupt("coverage map slot count"));
        }
        Ok(CoverageMap { hits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{Reader, Writer};

    #[test]
    fn slot_space_is_dense_and_named() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..SLOT_COUNT {
            assert!(seen.insert(slot_name(s)), "duplicate name for slot {s}");
        }
        assert_eq!(
            slot_name(dir_slot(DirState::Shared, DirEvent::GetX)),
            "dir:Shared/GetX"
        );
        assert_eq!(
            slot_name(priv_slot(PrivState::M, PrivEvent::FwdGetS)),
            "cache:M/FwdGetS"
        );
        assert_eq!(
            slot_name(transport_slot(TransportEvent::GiveUp)),
            "transport:give-up"
        );
        assert_eq!(slot_name(cpu_slot(CpuEvent::SbDrain)), "cpu:sb-drain");
        let (_, base, count) = *DOMAINS.last().unwrap();
        assert_eq!(base + count, SLOT_COUNT);
    }

    #[test]
    fn record_merge_and_new_slots() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        a.record(3);
        a.record(3);
        b.record(3);
        b.record(7);
        assert_eq!(a.covered(), 1);
        assert_eq!(b.new_slots_vs(&a), 1);
        assert_eq!(a.new_slots_vs(&b), 0);
        a.merge(&b);
        assert_eq!(a.hits(3), 3);
        assert_eq!(a.hits(7), 1);
        assert_eq!(a.covered(), 2);
    }

    #[test]
    fn domain_counts_add_at_their_base() {
        let mut dir = DirCounts::default();
        let mut cpu = CpuCounts::default();
        dir.record(dir_slot(DirState::Shared, DirEvent::GetX));
        dir.record(dir_slot(DirState::Shared, DirEvent::GetX));
        cpu.record(cpu_slot(CpuEvent::SbDrain));
        let mut m = CoverageMap::new();
        m.add(&dir);
        m.add(&cpu);
        m.add(&cpu);
        assert_eq!(m.hits(dir_slot(DirState::Shared, DirEvent::GetX)), 2);
        assert_eq!(m.hits(cpu_slot(CpuEvent::SbDrain)), 2);
        assert_eq!(m.covered(), 2);
    }

    #[test]
    fn fingerprint_ignores_counts() {
        let mut a = CoverageMap::new();
        let mut b = CoverageMap::new();
        a.record(5);
        b.record(5);
        b.record(5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(6);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn codec_roundtrip() {
        let mut m = CoverageMap::new();
        m.record(0);
        m.record(SLOT_COUNT - 1);
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = CoverageMap::decode(&mut r).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn uncovered_names_shrink_as_slots_light_up() {
        let mut m = CoverageMap::new();
        assert_eq!(m.uncovered_names().len(), SLOT_COUNT);
        m.record(dir_slot(DirState::Uncached, DirEvent::GetS));
        let names = m.uncovered_names();
        assert_eq!(names.len(), SLOT_COUNT - 1);
        assert!(!names.contains(&"dir:Uncached/GetS".to_string()));
    }
}
