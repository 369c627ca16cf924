//! Pins the memory system's complete transcript under mixed traffic.
//!
//! One deterministic run drives a 4-core [`MemorySystem`] with seeded
//! traffic that reaches every protocol path the cores use: reads, writes
//! and RMWs on a few hot lines and on more lines than one L2 set holds, one
//! RMW per core at a time (each unlocked a fixed delay after its fill), far
//! atomics, per-core write-only lines that overflow an L2 set (so dirty
//! lines are written back), and periodic bursts from one core that exceed
//! its MSHRs. The test pins what comes out: the count of [`MemEvent`]s, a
//! hash of their `Debug` text with the cycle each was returned in, a hash of
//! the final checkpoint image, and the coverage slots the run lights. A
//! refactor of the directory or the private caches must leave all four
//! unchanged; a change in the order or timing of any protocol action moves
//! at least one of them.

use row_common::config::SystemConfig;
use row_common::coverage::{slot_name, SLOT_COUNT};
use row_common::ids::{CoreId, LineAddr, Pc};
use row_common::persist::{fnv1a, Persist, Writer};
use row_common::rmw::RmwKind;
use row_common::rng::SplitMix64;
use row_common::Cycle;
use row_mem::{AccessKind, MemEvent, MemorySystem, ReqMeta};

const CORES: u16 = 4;
const CYCLES: u64 = 120_000;
/// Cycles a core holds an RMW's lock after its fill.
const HOLD: u64 = 30;
/// A burst every this many cycles...
const BURST_EVERY: u64 = 997;
/// ...of this many requests, more than the 32 MSHRs of `small(4)`.
const BURST_LEN: u64 = 40;
/// `small(4)`'s private L2 has 128 sets, so lines 128 apart share a set.
const L2_SETS: u64 = 128;

/// The traffic's line pools.
struct Lines {
    /// Lines every core reads, writes and RMWs most often.
    hot: [LineAddr; 5],
    /// Twelve shared lines in one L2 set (8 ways), so they evict each other.
    one_set: Vec<LineAddr>,
}

impl Lines {
    fn new() -> Self {
        Lines {
            hot: [0x40, 0x41, 0x42, 0x43, 0x95].map(LineAddr::new),
            one_set: (0..12)
                .map(|k| LineAddr::new(0x1000 + k * L2_SETS))
                .collect(),
        }
    }

    fn shared(&self, rng: &mut SplitMix64) -> LineAddr {
        if rng.below(2) == 0 {
            self.one_set[rng.below(self.one_set.len() as u64) as usize]
        } else {
            self.hot[rng.below(self.hot.len() as u64) as usize]
        }
    }

    /// One of ten lines only `core` writes. They sit in the shared lines'
    /// L2 set, so writing them evicts shared lines other cores want.
    fn private(core: u16, rng: &mut SplitMix64) -> LineAddr {
        LineAddr::new(0x8000 + (u64::from(core) * 10 + rng.below(10)) * L2_SETS)
    }
}

fn meta(req_id: u64, kind: AccessKind, pc: Option<Pc>) -> ReqMeta {
    ReqMeta {
        req_id,
        pc,
        prefetch: false,
        kind,
    }
}

/// What the run produced.
#[derive(Debug, PartialEq, Eq)]
struct Transcript {
    events: usize,
    events_fnv: u64,
    image_fnv: u64,
    lit: Vec<String>,
}

fn run() -> Transcript {
    let mut mem = MemorySystem::new(&SystemConfig::small(usize::from(CORES)));
    let mut rng = SplitMix64::new(0x7a5c_0026);
    let lines = Lines::new();
    let mut next_id = 1u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    // Per core: the line of its RMW in flight or held, and when it unlocks
    // (`None` until the fill arrives).
    let mut rmw: Vec<Option<(LineAddr, Option<Cycle>)>> = vec![None; usize::from(CORES)];
    let mut text = String::new();
    let mut events = 0usize;
    let mut burst_base = 0x10_0000u64;

    for c in 0..CYCLES {
        let now = Cycle::new(c);
        if rng.below(7) == 0 {
            let core = rng.below(u64::from(CORES)) as u16;
            let cid = CoreId::new(core);
            match rng.below(10) {
                0..=2 => {
                    let line = lines.shared(&mut rng);
                    let pc = Some(Pc::new(0x400 + u64::from(core)));
                    mem.access(cid, line, meta(id(), AccessKind::Read, pc), now);
                }
                3..=4 => {
                    let line = lines.shared(&mut rng);
                    mem.access(cid, line, meta(id(), AccessKind::Write, None), now);
                }
                5..=6 => {
                    let slot = &mut rmw[usize::from(core)];
                    if slot.is_none() {
                        let line = lines.shared(&mut rng);
                        *slot = Some((line, None));
                        mem.access(cid, line, meta(id(), AccessKind::Rmw, None), now);
                    }
                }
                7 => {
                    let line = lines.shared(&mut rng);
                    let op = RmwKind::Faa(1 + rng.below(9));
                    mem.far_atomic(cid, line, op, id(), now);
                }
                _ => {
                    let line = Lines::private(core, &mut rng);
                    mem.access(cid, line, meta(id(), AccessKind::Write, None), now);
                }
            }
        }
        if c % BURST_EVERY == 0 {
            // Consecutive fresh lines from one PC: they miss to memory and
            // train the stride prefetcher while the MSHRs fill up.
            let core = CoreId::new(rng.below(u64::from(CORES)) as u16);
            for k in 0..BURST_LEN {
                // The last few repeat lines that queue behind the full MSHRs.
                let line = LineAddr::new(burst_base + if k < 34 { k } else { k - 6 });
                let kind = if k % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                mem.access(core, line, meta(id(), kind, Some(Pc::new(0x900))), now);
            }
            burst_base += BURST_LEN;
            assert_eq!(mem.mshr_lines(core).len(), 32, "cycle {c}: MSHRs to spare");
        }
        for ev in mem.tick(now) {
            events += 1;
            text.push_str(&format!("{c}: {ev:?}\n"));
            if let MemEvent::Fill {
                core,
                kind: AccessKind::Rmw,
                at,
                ..
            } = ev
            {
                if let Some((_, unlock @ None)) = &mut rmw[core.index()] {
                    *unlock = Some(at + HOLD);
                }
            }
        }
        for (core, slot) in rmw.iter_mut().enumerate() {
            if let Some((line, Some(when))) = *slot {
                if when <= now {
                    mem.unlock(CoreId::new(core as u16), line, now);
                    *slot = None;
                }
            }
        }
        assert_eq!(mem.protocol_error(), None, "cycle {c}");
    }

    let mut w = Writer::new();
    mem.persist(&mut w);
    let coverage = mem.coverage();
    Transcript {
        events,
        events_fnv: fnv1a(text.as_bytes()),
        image_fnv: fnv1a(&w.into_bytes()),
        lit: (0..SLOT_COUNT)
            .filter(|&s| coverage.is_hit(s))
            .map(slot_name)
            .collect(),
    }
}

#[test]
fn mixed_traffic_transcript_is_pinned() {
    // Every directory pair the module doc does not call unreachable is lit,
    // the writeback (`PutM`) arms included.
    let lit = [
        "dir:Uncached/GetS",
        "dir:Uncached/GetX",
        "dir:Uncached/PutM",
        "dir:Uncached/AtomicFar",
        "dir:Shared/GetS",
        "dir:Shared/GetX",
        "dir:Shared/PutM",
        "dir:Shared/AtomicFar",
        "dir:Exclusive/GetS",
        "dir:Exclusive/GetX",
        "dir:Exclusive/PutM",
        "dir:Exclusive/AtomicFar",
        "dir:Blocked/AwaitUnblock/GetS",
        "dir:Blocked/AwaitUnblock/GetX",
        "dir:Blocked/AwaitUnblock/PutM",
        "dir:Blocked/AwaitUnblock/AtomicFar",
        "dir:Blocked/AwaitUnblock/Unblock",
        "dir:Blocked/CollectingAcks/GetS",
        "dir:Blocked/CollectingAcks/GetX",
        "dir:Blocked/CollectingAcks/PutM",
        "dir:Blocked/CollectingAcks/AtomicFar",
        "dir:Blocked/CollectingAcks/InvAck",
        "cache:I/Inv",
        "cache:I/Data",
        "cache:I/WbStale",
        "cache:I/FarDone",
        "cache:S/Inv",
        "cache:S/Data",
        "cache:S/FarDone",
        "cache:E/Inv",
        "cache:E/FwdGetS",
        "cache:E/FwdGetX",
        "cache:E/FarDone",
        "cache:M/Inv",
        "cache:M/FwdGetS",
        "cache:M/FwdGetX",
        "cache:M/FarDone",
        "cache:Evicting/Inv",
        "cache:Evicting/FwdGetS",
        "cache:Evicting/FwdGetX",
        "cache:Evicting/Data",
        "cache:Evicting/WbAck",
        "cache:Evicting/WbStale",
    ];
    let expected = Transcript {
        events: 25_249,
        events_fnv: 0x1cef_d027_51bf_a5a7,
        image_fnv: 0xb9ac_2475_3be0_7535,
        lit: lit.map(String::from).to_vec(),
    };
    assert_eq!(run(), expected);
}
