//! Coherence message and request/response vocabulary.
//!
//! The protocol is a classic unblock-based MESI directory (in the style of
//! GEMS `MESI_CMP_directory`, which the paper uses): requests block the
//! directory entry until the requester's `Unblock` confirms receipt, and
//! requests arriving meanwhile queue at the directory — the exact dynamics of
//! the paper's Fig. 8.

use row_common::ids::{CoreId, LineAddr, Pc};
use row_common::persist::{fnv1a, to_bytes};
use row_common::rmw::RmwKind;
use row_common::Cycle;

/// What kind of access a core requests from its memory hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A regular load: shared permission suffices (GetS on miss).
    Read,
    /// A committed store draining from the SB: needs ownership (GetX).
    Write,
    /// An atomic's `load_lock` µ-op: needs ownership, and the core will lock
    /// the line in its AQ when the fill arrives (GetX).
    Rmw,
}

impl AccessKind {
    /// Whether this access requires exclusive ownership.
    pub const fn needs_exclusive(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

/// Caller-supplied bookkeeping attached to a request and echoed in its fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqMeta {
    /// Opaque request identifier, assigned by the core.
    pub req_id: u64,
    /// Program counter of the requesting instruction (drives the IP-stride
    /// prefetcher); `None` for hardware-generated requests.
    pub pc: Option<Pc>,
    /// Whether this is a hardware prefetch (no fill event is emitted).
    pub prefetch: bool,
    /// Access kind.
    pub kind: AccessKind,
}

/// Where a fill's data came from — the information the RW+Dir contention
/// detector keys on ("the sender of the cacheline is a remote private cache").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillSource {
    /// Hit in the local L1D.
    L1,
    /// Hit in the local private L2.
    L2,
    /// Served by the home L3 bank.
    L3,
    /// Fetched from main memory.
    Memory,
    /// Transferred from another core's private cache.
    RemotePrivate,
}

/// An event the memory system reports to the core side.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemEvent {
    /// A request completed; the line is now present with sufficient
    /// permission.
    Fill {
        /// Requesting core.
        core: CoreId,
        /// Echo of [`ReqMeta::req_id`].
        req_id: u64,
        /// The line.
        line: LineAddr,
        /// Completion cycle.
        at: Cycle,
        /// When the miss request left the private hierarchy (equals `at`
        /// minus the hit latency for hits).
        issued_at: Cycle,
        /// Where the data came from.
        source: FillSource,
        /// Access kind of the original request.
        kind: AccessKind,
    },
    /// A far atomic completed at the home directory.
    FarDone {
        /// Requesting core.
        core: CoreId,
        /// The line operated on.
        line: LineAddr,
        /// Echo of the request id.
        req_id: u64,
        /// Completion (response-arrival) cycle.
        at: Cycle,
    },
    /// An external coherence request (invalidation or downgrade) reached this
    /// core for `line`. Emitted *when it arrives*, even if it then stalls
    /// against a locked line — this is what the ready-window detector snoops.
    ExternalObserved {
        /// The core receiving the external request.
        core: CoreId,
        /// The line being invalidated/downgraded.
        line: LineAddr,
        /// Arrival cycle.
        at: Cycle,
        /// Whether the request found the line locked and stalled.
        stalled: bool,
    },
}

/// Network-visible protocol messages.
///
/// Field meanings are uniform across variants: `req` is the requesting
/// core, `line` the cacheline concerned, `from` the sender.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Msg {
    /// Read request to the home directory.
    GetS { req: CoreId, line: LineAddr },
    /// Ownership request to the home directory.
    GetX { req: CoreId, line: LineAddr },
    /// Directory forwards a read to the current owner.
    FwdGetS { req: CoreId, line: LineAddr },
    /// Directory forwards an ownership request to the current owner.
    FwdGetX { req: CoreId, line: LineAddr },
    /// Directory invalidates a sharer (acks go back to the directory).
    Inv { line: LineAddr },
    /// Sharer acknowledges an invalidation.
    InvAck { from: CoreId, line: LineAddr },
    /// Data grant to a requester.
    Data {
        req: CoreId,
        line: LineAddr,
        /// Permission granted.
        excl: bool,
        /// True when a remote private cache supplied the line.
        from_private: bool,
    },
    /// Requester confirms receipt; unblocks the directory entry.
    Unblock { from: CoreId, line: LineAddr },
    /// Owner writes back / evicts a line.
    PutM { from: CoreId, line: LineAddr },
    /// Directory accepts the writeback.
    WbAck { line: LineAddr },
    /// Directory rejects a stale writeback (a forward raced past it).
    WbStale { line: LineAddr },
    /// A far atomic: the RMW executes at the home directory (§VII's
    /// near-vs-far design alternative), after all private copies are
    /// invalidated.
    AtomicFar {
        req: CoreId,
        line: LineAddr,
        rmw: RmwKind,
        req_id: u64,
    },
    /// The home directory performed a far atomic.
    FarDone {
        req: CoreId,
        line: LineAddr,
        req_id: u64,
    },
}

impl Msg {
    /// The line a message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            Msg::GetS { line, .. }
            | Msg::GetX { line, .. }
            | Msg::FwdGetS { line, .. }
            | Msg::FwdGetX { line, .. }
            | Msg::Inv { line }
            | Msg::InvAck { line, .. }
            | Msg::Data { line, .. }
            | Msg::Unblock { line, .. }
            | Msg::PutM { line, .. }
            | Msg::WbAck { line }
            | Msg::WbStale { line }
            | Msg::AtomicFar { line, .. }
            | Msg::FarDone { line, .. } => line,
        }
    }

    /// Whether the message carries a full cache line (data-class on the NoC).
    pub const fn carries_data(&self) -> bool {
        matches!(self, Msg::Data { .. } | Msg::PutM { .. })
    }
}

/// Delivery endpoint of a message.
///
/// Ordered and hashable so it can key transport channels: `Core(i)` and
/// `Dir(i)` share a mesh node but are distinct endpoints, so channel
/// identity must be endpoint-based, not node-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Endpoint {
    /// A core's private cache controller.
    Core(CoreId),
    /// The directory/L3 bank at a tile.
    Dir(usize),
}

/// One unit of traffic on the memory system's internal network.
///
/// Fault-free and delay-only configurations carry every protocol message as
/// a bare [`Frame::Msg`], preserving the pre-transport behaviour bit for
/// bit. Lossy chaos instead wraps protocol messages into sequenced,
/// checksummed [`Frame::Seq`] frames and adds transport-level
/// acknowledgements, so drops, duplicates, and corruption can be recovered
/// from (retransmission) or rejected (dedup, NACK) at delivery time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Frame {
    /// An unsequenced protocol message (reliable-network fast path).
    Msg {
        /// Delivery endpoint.
        to: Endpoint,
        /// The protocol message.
        msg: Msg,
    },
    /// A sequenced, checksummed protocol message on channel `(src, dst)`.
    Seq {
        /// Sending endpoint (channel key and ACK return address).
        src: Endpoint,
        /// Delivery endpoint.
        dst: Endpoint,
        /// Per-channel sequence number, assigned in send order.
        seq: u64,
        /// The protocol message.
        msg: Msg,
        /// [`msg_checksum`] of `msg` as sent (mismatches on arrival mean
        /// in-flight corruption).
        check: u64,
    },
    /// Delivery acknowledgement for `(src, dst, seq)`, travelling *to*
    /// `src`. Retires the sender's in-flight entry.
    Ack {
        /// Original sender (the frame's destination).
        src: Endpoint,
        /// Original receiver (the frame's origin).
        dst: Endpoint,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Corruption report for `(src, dst, seq)`, travelling *to* `src`:
    /// requests an immediate retransmission without waiting for the timeout.
    Nack {
        /// Original sender (the frame's destination).
        src: Endpoint,
        /// Original receiver (the frame's origin).
        dst: Endpoint,
        /// Sequence number whose payload failed its checksum.
        seq: u64,
    },
}

/// Checksum a sequenced frame carries alongside its payload: FNV-1a over
/// the message's canonical encoding.
pub fn msg_checksum(msg: &Msg) -> u64 {
    fnv1a(&to_bytes(msg))
}

row_common::codec_enum!(AccessKind {
    0 => Read,
    1 => Write,
    2 => Rmw,
});

row_common::codec_struct!(ReqMeta {
    req_id,
    pc,
    prefetch,
    kind,
});

row_common::codec_enum!(FillSource {
    0 => L1,
    1 => L2,
    2 => L3,
    3 => Memory,
    4 => RemotePrivate,
});

row_common::codec_enum!(MemEvent {
    0 => Fill { core, req_id, line, at, issued_at, source, kind },
    1 => FarDone { core, line, req_id, at },
    2 => ExternalObserved { core, line, at, stalled },
});

row_common::codec_enum!(Msg {
    0 => GetS { req, line },
    1 => GetX { req, line },
    2 => FwdGetS { req, line },
    3 => FwdGetX { req, line },
    4 => Inv { line },
    5 => InvAck { from, line },
    6 => Data { req, line, excl, from_private },
    7 => Unblock { from, line },
    8 => PutM { from, line },
    9 => WbAck { line },
    10 => WbStale { line },
    11 => AtomicFar { req, line, rmw, req_id },
    12 => FarDone { req, line, req_id },
});

row_common::codec_enum!(Endpoint {
    0 => Core(core),
    1 => Dir(tile),
});

row_common::codec_enum!(Frame {
    0 => Msg { to, msg },
    1 => Seq { src, dst, seq, msg, check },
    2 => Ack { src, dst, seq },
    3 => Nack { src, dst, seq },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_requirement() {
        assert!(!AccessKind::Read.needs_exclusive());
        assert!(AccessKind::Write.needs_exclusive());
        assert!(AccessKind::Rmw.needs_exclusive());
    }

    #[test]
    fn msg_line_extraction() {
        let l = LineAddr::new(42);
        let msgs = [
            Msg::GetS {
                req: CoreId::new(0),
                line: l,
            },
            Msg::Inv { line: l },
            Msg::Data {
                req: CoreId::new(1),
                line: l,
                excl: true,
                from_private: false,
            },
            Msg::WbAck { line: l },
        ];
        for m in msgs {
            assert_eq!(m.line(), l);
        }
    }

    #[test]
    fn data_class_flags() {
        let l = LineAddr::new(1);
        assert!(Msg::Data {
            req: CoreId::new(0),
            line: l,
            excl: false,
            from_private: false
        }
        .carries_data());
        assert!(Msg::PutM {
            from: CoreId::new(0),
            line: l
        }
        .carries_data());
        assert!(!Msg::Inv { line: l }.carries_data());
    }

    #[test]
    fn checksum_distinguishes_messages() {
        let a = Msg::GetS {
            req: CoreId::new(0),
            line: LineAddr::new(1),
        };
        let b = Msg::GetS {
            req: CoreId::new(0),
            line: LineAddr::new(2),
        };
        assert_eq!(msg_checksum(&a), msg_checksum(&a));
        assert_ne!(msg_checksum(&a), msg_checksum(&b));
    }

    #[test]
    fn frame_roundtrips() {
        let msg = Msg::Data {
            req: CoreId::new(3),
            line: LineAddr::new(99),
            excl: true,
            from_private: true,
        };
        let frames = [
            Frame::Msg {
                to: Endpoint::Dir(2),
                msg,
            },
            Frame::Seq {
                src: Endpoint::Core(CoreId::new(3)),
                dst: Endpoint::Dir(2),
                seq: 17,
                msg,
                check: msg_checksum(&msg),
            },
            Frame::Ack {
                src: Endpoint::Dir(2),
                dst: Endpoint::Core(CoreId::new(3)),
                seq: 17,
            },
            Frame::Nack {
                src: Endpoint::Dir(2),
                dst: Endpoint::Core(CoreId::new(3)),
                seq: 18,
            },
        ];
        for f in frames {
            assert_eq!(row_common::persist::roundtrip(&f).unwrap(), f);
        }
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (to_bytes(&AccessKind::Read), "00"),
            (to_bytes(&AccessKind::Write), "01"),
            (to_bytes(&AccessKind::Rmw), "02"),
            (
                to_bytes(&ReqMeta {
                    req_id: 0x11,
                    pc: Some(Pc::new(0x22)),
                    prefetch: true,
                    kind: AccessKind::Write,
                }),
                "11000000000000000122000000000000000101",
            ),
            (to_bytes(&FillSource::L1), "00"),
            (to_bytes(&FillSource::L2), "01"),
            (to_bytes(&FillSource::L3), "02"),
            (to_bytes(&FillSource::Memory), "03"),
            (to_bytes(&FillSource::RemotePrivate), "04"),
            (
                to_bytes(&MemEvent::Fill {
                    core: CoreId::new(1),
                    req_id: 0x22,
                    line: LineAddr::new(0x33),
                    at: Cycle::new(0x44),
                    issued_at: Cycle::new(0x55),
                    source: FillSource::RemotePrivate,
                    kind: AccessKind::Rmw,
                }),
                "00010022000000000000003300000000000000440000000000000055000000000000000402",
            ),
            (
                to_bytes(&MemEvent::FarDone {
                    core: CoreId::new(2),
                    line: LineAddr::new(0x33),
                    req_id: 0x44,
                    at: Cycle::new(0x55),
                }),
                "010200330000000000000044000000000000005500000000000000",
            ),
            (
                to_bytes(&MemEvent::ExternalObserved {
                    core: CoreId::new(3),
                    line: LineAddr::new(0x44),
                    at: Cycle::new(0x55),
                    stalled: true,
                }),
                "0203004400000000000000550000000000000001",
            ),
            (
                to_bytes(&Msg::GetS {
                    req: CoreId::new(1),
                    line: LineAddr::new(0x12),
                }),
                "0001001200000000000000",
            ),
            (
                to_bytes(&Msg::GetX {
                    req: CoreId::new(2),
                    line: LineAddr::new(0x23),
                }),
                "0102002300000000000000",
            ),
            (
                to_bytes(&Msg::FwdGetS {
                    req: CoreId::new(3),
                    line: LineAddr::new(0x34),
                }),
                "0203003400000000000000",
            ),
            (
                to_bytes(&Msg::FwdGetX {
                    req: CoreId::new(4),
                    line: LineAddr::new(0x45),
                }),
                "0304004500000000000000",
            ),
            (
                to_bytes(&Msg::Inv {
                    line: LineAddr::new(0x56),
                }),
                "045600000000000000",
            ),
            (
                to_bytes(&Msg::InvAck {
                    from: CoreId::new(6),
                    line: LineAddr::new(0x67),
                }),
                "0506006700000000000000",
            ),
            (
                to_bytes(&Msg::Data {
                    req: CoreId::new(7),
                    line: LineAddr::new(0x78),
                    excl: true,
                    from_private: false,
                }),
                "06070078000000000000000100",
            ),
            (
                to_bytes(&Msg::Unblock {
                    from: CoreId::new(8),
                    line: LineAddr::new(0x89),
                }),
                "0708008900000000000000",
            ),
            (
                to_bytes(&Msg::PutM {
                    from: CoreId::new(9),
                    line: LineAddr::new(0x9a),
                }),
                "0809009a00000000000000",
            ),
            (
                to_bytes(&Msg::WbAck {
                    line: LineAddr::new(0xab),
                }),
                "09ab00000000000000",
            ),
            (
                to_bytes(&Msg::WbStale {
                    line: LineAddr::new(0xbc),
                }),
                "0abc00000000000000",
            ),
            (
                to_bytes(&Msg::AtomicFar {
                    req: CoreId::new(0xc),
                    line: LineAddr::new(0xcd),
                    rmw: RmwKind::Swap(0xde),
                    req_id: 0xef,
                }),
                "0b0c00cd0000000000000001de00000000000000ef00000000000000",
            ),
            (
                to_bytes(&Msg::FarDone {
                    req: CoreId::new(0xd),
                    line: LineAddr::new(0xde),
                    req_id: 0xf0,
                }),
                "0c0d00de00000000000000f000000000000000",
            ),
            (to_bytes(&Endpoint::Core(CoreId::new(5))), "000500"),
            (to_bytes(&Endpoint::Dir(6)), "010600000000000000"),
            (
                to_bytes(&Frame::Msg {
                    to: Endpoint::Dir(1),
                    msg: Msg::Inv {
                        line: LineAddr::new(0x22),
                    },
                }),
                "00010100000000000000042200000000000000",
            ),
            (
                to_bytes(&Frame::Seq {
                    src: Endpoint::Core(CoreId::new(1)),
                    dst: Endpoint::Dir(2),
                    seq: 0x33,
                    msg: Msg::WbAck {
                        line: LineAddr::new(0x44),
                    },
                    check: 0x55,
                }),
                "0100010001020000000000000033000000000000000944000000000000005500000000000000",
            ),
            (
                to_bytes(&Frame::Ack {
                    src: Endpoint::Dir(1),
                    dst: Endpoint::Core(CoreId::new(2)),
                    seq: 0x33,
                }),
                "020101000000000000000002003300000000000000",
            ),
            (
                to_bytes(&Frame::Nack {
                    src: Endpoint::Core(CoreId::new(3)),
                    dst: Endpoint::Dir(4),
                    seq: 0x55,
                }),
                "030003000104000000000000005500000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
