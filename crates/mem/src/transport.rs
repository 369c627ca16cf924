//! Recoverable message transport between the memory system and the mesh.
//!
//! Delay-only chaos keeps the historical behaviour: each delivery gets a
//! seeded bounded jitter, with per-(src,dst)-node order preserved. Any
//! *lossy* fault rate ([`FaultConfig::lossy`]) switches every protocol
//! message onto a sequenced channel per `(source endpoint, destination
//! endpoint)` pair with the classic reliable-delivery toolkit:
//!
//! * **Sequence numbers + receive-side dedup/reordering.** The receiver
//!   delivers each channel's messages in send order, exactly once; early
//!   arrivals are buffered, repeats are dropped and re-ACKed.
//! * **ACKs and timeout retransmission with bounded exponential backoff.**
//!   An un-ACKed message is retransmitted after a timeout that doubles per
//!   attempt up to a cap; a bounded attempt budget turns a permanently lost
//!   message into a structured [`ProtocolError::TransportGiveUp`] instead of
//!   a silent deadlock.
//! * **Payload checksums + NACK.** A corrupted payload is detected at the
//!   receiver, discarded, and NACKed for an immediate retransmission.
//!
//! Faults (drop/duplicate/corrupt draws) apply to every wire transmission,
//! retransmissions included, from the same [`SplitMix64`] stream as the
//! delay jitter — so a chaos seed fully determines the fault schedule and
//! equal seeds reproduce identical retry counts. Channels are keyed by
//! *endpoint* pairs, not mesh nodes: `Core(i)` and `Dir(i)` share a node but
//! must not share sequence-number spaces.
//!
//! All state (RNG, channels, in-flight copies, timers, counters) implements
//! [`Codec`], so checkpoint/restore stays bit-exact mid-retry.

use std::collections::{BTreeMap, HashMap};

use row_common::config::{FaultConfig, PerturbConfig};
use row_common::coverage::{transport_slot, TransportCounts, TransportEvent as Ev};
use row_common::persist::{Codec, PersistError, Reader, Writer};
use row_common::rng::SplitMix64;
use row_common::sched::EventQueue;
use row_common::stats::TransportStats;
use row_common::Cycle;
use row_noc::{Mesh, MsgClass, NodeId};

use crate::error::ProtocolError;
use crate::msg::{msg_checksum, Endpoint, Frame, Msg};

/// Fault probabilities are expressed in parts per million of this scale.
const PPM_SCALE: u64 = 1_000_000;
/// First retransmission timeout, in cycles. Comfortably above the worst
/// uncongested round trip (mesh traversal + jitter bound + ACK return).
const TIMEOUT_BASE: u64 = 1_024;
/// Backoff cap: timeouts double per attempt but never exceed this.
const TIMEOUT_CAP: u64 = 16_384;
/// Retransmission budget per message before the transport gives up.
const MAX_ATTEMPTS: u32 = 16;
/// XOR mask the fault injector applies to a corrupted frame's checksum
/// (corrupting the checksum is indistinguishable from corrupting the
/// payload, and keeps the in-memory `Msg` well-formed).
const CORRUPT_MASK: u64 = 0xbad0_c0de_dead_beef;

/// A transport channel: ordered, sequenced traffic from one endpoint to
/// another.
type ChanId = (Endpoint, Endpoint);

/// The mesh node an endpoint lives on. `Core(i)` and `Dir(i)` share node
/// `i` (each tile hosts a core and an L3/directory bank).
pub(crate) fn node_of(e: Endpoint) -> NodeId {
    match e {
        Endpoint::Core(c) => NodeId::new(c.index() as u16),
        Endpoint::Dir(t) => NodeId::new(t as u16),
    }
}

/// Sender-side copy of an un-ACKed message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct InFlight {
    msg: Msg,
    first_sent: Cycle,
    attempts: u32,
}

/// Receiver-side channel state: next expected sequence number plus a
/// reorder buffer for early arrivals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct RxState {
    next_expected: u64,
    buffered: BTreeMap<u64, Msg>,
}

/// Diagnostic snapshot of one un-ACKed transport transaction, surfaced in
/// stall reports so a watchdog firing distinguishes "a message is lost and
/// being retried" from "the protocol itself is livelocked".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InflightProbe {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Channel sequence number.
    pub seq: u64,
    /// Cycle of the first transmission (age = now − this).
    pub first_sent: Cycle,
    /// Transmissions so far (1 = original send, not yet retried).
    pub attempts: u32,
}

/// Fault injection plus (when lossy) reliable delivery. See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct Transport {
    cfg: FaultConfig,
    /// Targeted schedule-perturbation bursts (the fuzzer's genome half).
    /// Config-derived, not part of the persisted state: restore re-injects
    /// it from the owning system's `SystemConfig`.
    perturb_cfg: Option<PerturbConfig>,
    rng: SplitMix64,
    /// Last perturbed delivery cycle per (src, dst) node pair — preserves
    /// the mesh's per-pair ordering guarantee under jitter.
    last: HashMap<(usize, usize), Cycle>,
    /// Next sequence number to assign, per channel.
    next_seq: BTreeMap<ChanId, u64>,
    /// Un-ACKed messages, per channel, by sequence number.
    inflight: BTreeMap<ChanId, BTreeMap<u64, InFlight>>,
    /// Receiver-side state, per channel.
    rx: BTreeMap<ChanId, RxState>,
    /// Pending retransmission timers: (channel, seq, attempt number the
    /// timer was armed for). Stale timers (message ACKed, or superseded by
    /// a NACK retransmission) are recognized and skipped on expiry.
    timeouts: EventQueue<(ChanId, u64, u32)>,
    stats: TransportStats,
    /// Transport events seen. Derived state: not encoded, and carried over
    /// a restore by [`Transport::inherit`].
    pub(crate) coverage: TransportCounts,
}

impl Transport {
    pub fn new(cfg: FaultConfig) -> Self {
        Transport {
            cfg,
            perturb_cfg: None,
            rng: SplitMix64::new(cfg.seed),
            last: HashMap::new(),
            next_seq: BTreeMap::new(),
            inflight: BTreeMap::new(),
            rx: BTreeMap::new(),
            timeouts: EventQueue::new(),
            stats: TransportStats::default(),
            coverage: TransportCounts::default(),
        }
    }

    /// A fault-free transport used when only schedule perturbation is
    /// requested: zero jitter, zero loss, bursts only.
    pub fn inert() -> Self {
        Transport::new(FaultConfig {
            seed: 0,
            max_extra_latency: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
        })
    }

    /// Installs (or clears) the schedule-perturbation burst table.
    pub fn set_perturb(&mut self, p: Option<PerturbConfig>) {
        self.perturb_cfg = p;
    }

    /// Takes over what a checkpoint does not hold from `old`, the transport
    /// this decoded one replaces on restore: the burst table (configuration)
    /// and the coverage counter (derived state).
    pub fn inherit(&mut self, old: Transport) {
        self.perturb_cfg = old.perturb_cfg;
        self.coverage = old.coverage;
    }

    /// Whether the lossy machinery (sequencing, ACKs, retransmission) is
    /// engaged. When false the transport is a pure delay jitterer.
    pub fn lossy(&self) -> bool {
        self.cfg.lossy()
    }

    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// No un-ACKed messages and no buffered early arrivals anywhere.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty() && self.rx.values().all(|r| r.buffered.is_empty())
    }

    /// The oldest un-ACKed transaction, if any (ties broken by channel id).
    pub fn oldest_inflight(&self) -> Option<InflightProbe> {
        self.inflight
            .iter()
            .flat_map(|(chan, msgs)| {
                msgs.iter().map(move |(&seq, inf)| InflightProbe {
                    src: chan.0,
                    dst: chan.1,
                    seq,
                    first_sent: inf.first_sent,
                    attempts: inf.attempts,
                })
            })
            .min_by_key(|p| p.first_sent)
    }

    fn draw(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.below(PPM_SCALE) < u64::from(ppm)
    }

    /// Perturbs a delivery cycle with bounded jitter plus any targeted
    /// delay-burst hits, keeping same-node-pair messages in order. With no
    /// burst table this is the delay-only chaos behaviour, unchanged; burst
    /// delays land *before* the per-pair ordering floor, so every perturbed
    /// schedule remains one the mesh could legally produce.
    pub fn perturb(&mut self, src: NodeId, dst: NodeId, deliver: Cycle) -> Cycle {
        let jitter = if self.cfg.max_extra_latency == 0 {
            0
        } else {
            self.rng.below(self.cfg.max_extra_latency + 1)
        };
        let key = (src.index(), dst.index());
        let mut at = deliver + jitter;
        if let Some(p) = &self.perturb_cfg {
            let extra = p.extra_delay(deliver.raw(), key.0, key.1);
            if extra > 0 {
                self.coverage.record(transport_slot(Ev::BurstDelay));
                at += extra;
            }
        }
        if let Some(&prev) = self.last.get(&key) {
            if at <= prev {
                at = prev + 1;
            }
        }
        self.last.insert(key, at);
        at
    }

    fn timeout_after(attempt: u32) -> u64 {
        (TIMEOUT_BASE << attempt.saturating_sub(1).min(31)).min(TIMEOUT_CAP)
    }

    /// Submits one logical message for sequenced (lossy-path) delivery.
    /// Frames to enqueue on the network are appended to `out`.
    pub fn send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        msg: Msg,
        deliver: Cycle,
        now: Cycle,
        out: &mut Vec<(Cycle, Frame)>,
    ) {
        let chan = (from, to);
        let seq = {
            let s = self.next_seq.entry(chan).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        self.stats.sent += 1;
        self.coverage.record(transport_slot(Ev::Send));
        self.inflight.entry(chan).or_default().insert(
            seq,
            InFlight {
                msg,
                first_sent: now,
                attempts: 1,
            },
        );
        self.timeouts
            .push(now + Self::timeout_after(1), (chan, seq, 1));
        self.transmit(chan, seq, msg, deliver, out);
    }

    /// One wire transmission of `(chan, seq)`, through the fault injector.
    /// Draw order is fixed (drop, duplicate, corrupt, jitter per copy) so a
    /// seed fully determines the fault schedule.
    fn transmit(
        &mut self,
        chan: ChanId,
        seq: u64,
        msg: Msg,
        deliver: Cycle,
        out: &mut Vec<(Cycle, Frame)>,
    ) {
        let (src, dst) = (node_of(chan.0), node_of(chan.1));
        let dropped = self.draw(self.cfg.drop_ppm);
        let duplicated = self.draw(self.cfg.dup_ppm);
        let corrupted = self.draw(self.cfg.corrupt_ppm);
        let mut check = msg_checksum(&msg);
        if corrupted {
            self.stats.corrupts_injected += 1;
            check ^= CORRUPT_MASK;
        }
        if dropped {
            self.coverage.record(transport_slot(Ev::Drop));
        }
        if duplicated {
            self.coverage.record(transport_slot(Ev::Dup));
        }
        let frame = Frame::Seq {
            src: chan.0,
            dst: chan.1,
            seq,
            msg,
            check,
        };
        let at = self.perturb(src, dst, deliver);
        if dropped {
            // The retransmission timer armed by the caller recovers this.
            self.stats.drops_injected += 1;
        } else {
            out.push((at, frame));
        }
        if duplicated {
            self.stats.dups_injected += 1;
            let at2 = self.perturb(src, dst, deliver);
            out.push((at2, frame));
        }
    }

    /// ACK/NACK transmission time: control-class on the mesh, jittered, but
    /// never dropped/duplicated/corrupted — transport control traffic rides
    /// the reliable substrate so recovery itself terminates. (A lost ACK
    /// would anyway only cause a retransmission the receiver dedups.)
    fn control_at(&mut self, from: Endpoint, to: Endpoint, now: Cycle, mesh: &mut Mesh) -> Cycle {
        let (src, dst) = (node_of(from), node_of(to));
        let deliver = mesh.send(src, dst, MsgClass::Control, now);
        self.perturb(src, dst, deliver)
    }

    /// Handles an arriving sequenced frame. In-order deliverables (the
    /// frame's message and/or buffered successors) are appended to
    /// `deliver`; the ACK/NACK response is appended to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn receive(
        &mut self,
        src_ep: Endpoint,
        dst_ep: Endpoint,
        seq: u64,
        msg: Msg,
        check: u64,
        now: Cycle,
        mesh: &mut Mesh,
        deliver: &mut Vec<(Endpoint, Msg)>,
        out: &mut Vec<(Cycle, Frame)>,
    ) {
        let chan = (src_ep, dst_ep);
        if msg_checksum(&msg) != check {
            self.stats.corrupt_dropped += 1;
            self.coverage.record(transport_slot(Ev::CorruptNack));
            let at = self.control_at(dst_ep, src_ep, now, mesh);
            out.push((
                at,
                Frame::Nack {
                    src: src_ep,
                    dst: dst_ep,
                    seq,
                },
            ));
            return;
        }
        let rx = self.rx.entry(chan).or_default();
        if seq < rx.next_expected || rx.buffered.contains_key(&seq) {
            self.stats.dup_dropped += 1;
            self.coverage.record(transport_slot(Ev::Dedup));
        } else if seq == rx.next_expected {
            rx.next_expected += 1;
            deliver.push((dst_ep, msg));
            self.stats.delivered += 1;
            self.coverage.record(transport_slot(Ev::Deliver));
            while let Some(m) = rx.buffered.remove(&rx.next_expected) {
                rx.next_expected += 1;
                deliver.push((dst_ep, m));
                self.stats.delivered += 1;
                self.coverage.record(transport_slot(Ev::Deliver));
            }
        } else {
            rx.buffered.insert(seq, msg);
            self.coverage.record(transport_slot(Ev::ReorderBuffered));
        }
        // ACK every structurally intact arrival — re-ACKing a duplicate
        // covers the lost-ACK case.
        self.stats.acks_sent += 1;
        let at = self.control_at(dst_ep, src_ep, now, mesh);
        out.push((
            at,
            Frame::Ack {
                src: src_ep,
                dst: dst_ep,
                seq,
            },
        ));
    }

    /// Retires an in-flight message on ACK. Stale ACKs (duplicates, or for
    /// already-retired messages) are ignored.
    pub fn on_ack(&mut self, chan: ChanId, seq: u64) {
        if let Some(msgs) = self.inflight.get_mut(&chan) {
            if msgs.remove(&seq).is_some() {
                self.coverage.record(transport_slot(Ev::Ack));
            }
            if msgs.is_empty() {
                self.inflight.remove(&chan);
            }
        }
    }

    /// Retransmits immediately in response to a corruption NACK.
    pub fn on_nack(
        &mut self,
        chan: ChanId,
        seq: u64,
        now: Cycle,
        mesh: &mut Mesh,
        out: &mut Vec<(Cycle, Frame)>,
    ) {
        let Some(inf) = self.inflight.get_mut(&chan).and_then(|m| m.get_mut(&seq)) else {
            return; // Already ACKed (e.g. a duplicate copy survived).
        };
        inf.attempts += 1;
        let (msg, attempts) = (inf.msg, inf.attempts);
        self.stats.nack_retransmits += 1;
        self.coverage.record(transport_slot(Ev::Nack));
        // Re-arm the timer for the new attempt; the old timer goes stale.
        self.timeouts
            .push(now + Self::timeout_after(attempts), (chan, seq, attempts));
        let class = if msg.carries_data() {
            MsgClass::Data
        } else {
            MsgClass::Control
        };
        let deliver = mesh.send(node_of(chan.0), node_of(chan.1), class, now);
        self.transmit(chan, seq, msg, deliver, out);
    }

    /// Fires due retransmission timers: stale timers are skipped; live ones
    /// either retransmit with doubled timeout or, past the attempt budget,
    /// give the message up with a structured error.
    pub fn process_timeouts(
        &mut self,
        now: Cycle,
        mesh: &mut Mesh,
        out: &mut Vec<(Cycle, Frame)>,
    ) -> Result<(), ProtocolError> {
        let mut first_err = Ok(());
        while let Some((chan, seq, armed_for)) = self.timeouts.pop_ready(now) {
            let Some(inf) = self.inflight.get(&chan).and_then(|m| m.get(&seq)) else {
                continue; // ACKed since the timer was armed.
            };
            if inf.attempts != armed_for {
                continue; // Superseded by a NACK retransmission's timer.
            }
            let msg = inf.msg;
            if inf.attempts >= MAX_ATTEMPTS {
                self.stats.giveups += 1;
                self.coverage.record(transport_slot(Ev::GiveUp));
                self.on_ack(chan, seq); // Drop it so the error fires once.
                let e = ProtocolError::TransportGiveUp {
                    src: chan.0,
                    dst: chan.1,
                    seq,
                    attempts: armed_for,
                    msg,
                };
                if first_err.is_ok() {
                    first_err = Err(e);
                }
                continue;
            }
            let attempts = armed_for + 1;
            if let Some(inf) = self.inflight.get_mut(&chan).and_then(|m| m.get_mut(&seq)) {
                inf.attempts = attempts;
            }
            self.stats.retries += 1;
            self.coverage.record(transport_slot(Ev::Retransmit));
            self.timeouts
                .push(now + Self::timeout_after(attempts), (chan, seq, attempts));
            let class = if msg.carries_data() {
                MsgClass::Data
            } else {
                MsgClass::Control
            };
            let deliver = mesh.send(node_of(chan.0), node_of(chan.1), class, now);
            self.transmit(chan, seq, msg, deliver, out);
        }
        first_err
    }
}

row_common::codec_struct!(InFlight {
    msg,
    first_sent,
    attempts,
});

row_common::codec_struct!(RxState {
    next_expected,
    buffered,
});

impl Codec for Transport {
    fn encode(&self, w: &mut Writer) {
        // The config is re-derivable from `SystemConfig` but is encoded so
        // restore can cross-check presence/shape via the caller.
        self.cfg.encode(w);
        self.rng.encode(w);
        self.last.encode(w);
        self.next_seq.encode(w);
        self.inflight.encode(w);
        self.rx.encode(w);
        self.timeouts.encode(w);
        self.stats.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Transport {
            cfg: FaultConfig::decode(r)?,
            // Not state: the owning system carries both over on restore.
            perturb_cfg: None,
            rng: SplitMix64::decode(r)?,
            last: HashMap::decode(r)?,
            next_seq: BTreeMap::decode(r)?,
            inflight: BTreeMap::decode(r)?,
            rx: BTreeMap::decode(r)?,
            timeouts: EventQueue::decode(r)?,
            stats: TransportStats::decode(r)?,
            coverage: TransportCounts::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::NocConfig;
    use row_common::ids::{CoreId, LineAddr};
    use row_common::persist::roundtrip;

    fn lossy_cfg() -> FaultConfig {
        FaultConfig {
            seed: 7,
            max_extra_latency: 10,
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
        }
    }

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::mesh_8x4(), 4)
    }

    fn msg(n: u64) -> Msg {
        Msg::GetS {
            req: CoreId::new(0),
            line: LineAddr::new(n),
        }
    }

    const CH: ChanId = (Endpoint::Core(CoreId::new(0)), Endpoint::Dir(1));

    #[test]
    fn in_order_delivery_and_ack() {
        let mut t = Transport::new(lossy_cfg());
        let mut mesh = mesh();
        let mut out = Vec::new();
        t.send(CH.0, CH.1, msg(1), Cycle::new(10), Cycle::new(5), &mut out);
        t.send(CH.0, CH.1, msg(2), Cycle::new(11), Cycle::new(6), &mut out);
        assert_eq!(out.len(), 2);
        assert!(!t.idle());

        let mut deliver = Vec::new();
        let mut resp = Vec::new();
        for (_, f) in out.clone() {
            let Frame::Seq {
                src,
                dst,
                seq,
                msg,
                check,
            } = f
            else {
                panic!("expected Seq frame")
            };
            t.receive(
                src,
                dst,
                seq,
                msg,
                check,
                Cycle::new(20),
                &mut mesh,
                &mut deliver,
                &mut resp,
            );
        }
        assert_eq!(deliver.len(), 2);
        assert_eq!(deliver[0].1, msg(1));
        assert_eq!(deliver[1].1, msg(2));
        for (_, f) in resp {
            let Frame::Ack { src, dst, seq } = f else {
                panic!("expected Ack")
            };
            t.on_ack((src, dst), seq);
        }
        assert!(t.idle(), "all messages ACKed");
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn out_of_order_arrival_is_buffered_and_duplicates_dropped() {
        let mut t = Transport::new(lossy_cfg());
        let mut mesh = mesh();
        let mut out = Vec::new();
        t.send(CH.0, CH.1, msg(1), Cycle::new(10), Cycle::new(5), &mut out);
        t.send(CH.0, CH.1, msg(2), Cycle::new(11), Cycle::new(6), &mut out);

        let frames: Vec<Frame> = out.iter().map(|&(_, f)| f).collect();
        let mut deliver = Vec::new();
        let mut resp = Vec::new();
        // Deliver seq 1 first: buffered, not delivered.
        let Frame::Seq {
            src,
            dst,
            seq,
            msg: m,
            check,
        } = frames[1]
        else {
            panic!()
        };
        t.receive(
            src,
            dst,
            seq,
            m,
            check,
            Cycle::new(20),
            &mut mesh,
            &mut deliver,
            &mut resp,
        );
        assert!(deliver.is_empty(), "early arrival must wait for seq 0");
        // A duplicate of the buffered frame is dropped.
        t.receive(
            src,
            dst,
            seq,
            m,
            check,
            Cycle::new(21),
            &mut mesh,
            &mut deliver,
            &mut resp,
        );
        assert_eq!(t.stats().dup_dropped, 1);
        // Seq 0 arrives: both deliver, in order.
        let Frame::Seq {
            src,
            dst,
            seq,
            msg: m,
            check,
        } = frames[0]
        else {
            panic!()
        };
        t.receive(
            src,
            dst,
            seq,
            m,
            check,
            Cycle::new(22),
            &mut mesh,
            &mut deliver,
            &mut resp,
        );
        assert_eq!(deliver.len(), 2);
        assert_eq!(deliver[0].1, msg(1));
        assert_eq!(deliver[1].1, msg(2));
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn corrupt_frame_is_nacked_and_renack_retransmits() {
        let mut t = Transport::new(lossy_cfg());
        let mut mesh = mesh();
        let mut out = Vec::new();
        t.send(CH.0, CH.1, msg(1), Cycle::new(10), Cycle::new(5), &mut out);
        let Frame::Seq {
            src,
            dst,
            seq,
            msg: m,
            check,
        } = out[0].1
        else {
            panic!()
        };
        let mut deliver = Vec::new();
        let mut resp = Vec::new();
        t.receive(
            src,
            dst,
            seq,
            m,
            check ^ 1, // corrupted in flight
            Cycle::new(20),
            &mut mesh,
            &mut deliver,
            &mut resp,
        );
        assert!(deliver.is_empty());
        assert_eq!(t.stats().corrupt_dropped, 1);
        let Frame::Nack { src, dst, seq } = resp[0].1 else {
            panic!("expected Nack, got {:?}", resp[0].1)
        };
        let mut out2 = Vec::new();
        t.on_nack((src, dst), seq, Cycle::new(25), &mut mesh, &mut out2);
        assert_eq!(t.stats().nack_retransmits, 1);
        assert!(
            matches!(out2[0].1, Frame::Seq { seq: 0, .. }),
            "retransmission of seq 0"
        );
    }

    #[test]
    fn timeout_retransmits_with_backoff_then_gives_up() {
        let mut t = Transport::new(lossy_cfg());
        let mut mesh = mesh();
        let mut out = Vec::new();
        t.send(CH.0, CH.1, msg(1), Cycle::new(10), Cycle::ZERO, &mut out);
        let mut now = Cycle::ZERO;
        let mut retransmissions = 0;
        let gave_up = loop {
            now += TIMEOUT_CAP + 1;
            let mut o = Vec::new();
            match t.process_timeouts(now, &mut mesh, &mut o) {
                Ok(()) => retransmissions += o.len(),
                Err(ProtocolError::TransportGiveUp { attempts, .. }) => break attempts,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(now.raw() < 100 * TIMEOUT_CAP, "give-up never fired");
        };
        assert_eq!(gave_up, MAX_ATTEMPTS);
        assert_eq!(retransmissions as u32, MAX_ATTEMPTS - 1);
        assert_eq!(t.stats().giveups, 1);
        assert!(t.idle(), "given-up message is dropped from in-flight");
    }

    #[test]
    fn backoff_schedule_is_bounded() {
        assert_eq!(Transport::timeout_after(1), TIMEOUT_BASE);
        assert_eq!(Transport::timeout_after(2), 2 * TIMEOUT_BASE);
        assert_eq!(Transport::timeout_after(5), TIMEOUT_CAP);
        assert_eq!(Transport::timeout_after(40), TIMEOUT_CAP);
    }

    #[test]
    fn state_roundtrips_mid_retry() {
        let mut t = Transport::new(FaultConfig {
            drop_ppm: 300_000,
            dup_ppm: 200_000,
            corrupt_ppm: 100_000,
            ..lossy_cfg()
        });
        let mut out = Vec::new();
        for i in 0..20 {
            t.send(
                CH.0,
                CH.1,
                msg(i),
                Cycle::new(10 + i),
                Cycle::new(i),
                &mut out,
            );
        }
        let mut mesh = mesh();
        let _ = t.process_timeouts(Cycle::new(5 * TIMEOUT_BASE), &mut mesh, &mut out);
        assert!(!t.idle());
        let back = roundtrip(&t).unwrap();
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.inflight, t.inflight);
        assert_eq!(back.next_seq, t.next_seq);
        assert_eq!(back.oldest_inflight(), t.oldest_inflight());
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let mut t = Transport::new(FaultConfig {
            seed: 0x11,
            max_extra_latency: 0x22,
            drop_ppm: 0x33,
            dup_ppm: 0x44,
            corrupt_ppm: 0x55,
        });
        t.send(
            CH.0,
            CH.1,
            msg(0x66),
            Cycle::new(0x77),
            Cycle::new(0x70),
            &mut Vec::new(),
        );
        let pins = [
            (
                to_bytes(&InFlight {
                    msg: Msg::GetX {
                        req: CoreId::new(1),
                        line: LineAddr::new(0x22),
                    },
                    first_sent: Cycle::new(0x33),
                    attempts: 4,
                }),
                "0101002200000000000000330000000000000004000000",
            ),
            (
                to_bytes(&RxState {
                    next_expected: 0x55,
                    buffered: [(
                        0x66,
                        Msg::Inv {
                            line: LineAddr::new(0x77),
                        },
                    )]
                    .into(),
                }),
                "550000000000000001000000000000006600000000000000047700000000000000",
            ),
            (to_bytes(&t), "1100000000000000220000000000000033000000440000005500000065f029fde5e6dd780100000000000000000000000000000001000000000000007e0000000000000001000000000000000000000101000000000000000100000000000000010000000000000000000001010000000000000001000000000000000000000000000000000000660000000000000070000000000000000100000000000000000000000100000000000000700400000000000000000001010000000000000000000000000000000100000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
