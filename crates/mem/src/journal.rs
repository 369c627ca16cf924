//! Apply-order journal of architectural memory writes.
//!
//! When `CheckConfig::oracle` is enabled, the memory system records every
//! atomic RMW application and every committed store in the order it hits the
//! functional word store. That order is a linearization witness: replaying
//! it through `row-oracle`'s sequential golden model must reproduce both
//! every RMW's observed old value (its architectural return value) and the
//! machine's final memory state. A transport bug that applies an atomic
//! twice (duplicate delivery) or never (drop without retransmission) breaks
//! the replay even when the timing side of the run looks healthy.

use row_common::ids::{Addr, CoreId};
use row_common::rmw::RmwKind;
use row_common::Cycle;

/// One architectural write, in apply order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OpRecord {
    /// Core that architecturally performed the write.
    pub core: CoreId,
    /// Cycle the write hit the functional word store.
    pub at: Cycle,
    /// The write itself.
    pub kind: OpKind,
}

/// The write recorded by an [`OpRecord`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// An atomic read-modify-write.
    Rmw {
        /// Address operated on.
        addr: Addr,
        /// The modify operation.
        rmw: RmwKind,
        /// The old value the machine observed — the RMW's return value,
        /// which the oracle's replay must reproduce exactly.
        observed_old: u64,
    },
    /// A committed plain store.
    Store {
        /// Address written.
        addr: Addr,
        /// Value written.
        value: u64,
    },
}

row_common::codec_enum!(OpKind {
    0 => Rmw { addr, rmw, observed_old },
    1 => Store { addr, value },
});

row_common::codec_struct!(OpRecord { core, at, kind });

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::persist::roundtrip;

    #[test]
    fn records_roundtrip() {
        let records = [
            OpRecord {
                core: CoreId::new(2),
                at: Cycle::new(77),
                kind: OpKind::Rmw {
                    addr: Addr::new(0xf000),
                    rmw: RmwKind::Faa(3),
                    observed_old: 41,
                },
            },
            OpRecord {
                core: CoreId::new(0),
                at: Cycle::new(78),
                kind: OpKind::Store {
                    addr: Addr::new(0x88),
                    value: 9,
                },
            },
        ];
        for rec in records {
            assert_eq!(roundtrip(&rec).unwrap(), rec);
        }
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (
                to_bytes(&OpKind::Rmw {
                    addr: Addr::new(0x11),
                    rmw: RmwKind::Cas {
                        expected: 0x22,
                        new: 0x33,
                    },
                    observed_old: 0x44,
                }),
                "00110000000000000002220000000000000033000000000000004400000000000000",
            ),
            (
                to_bytes(&OpKind::Store {
                    addr: Addr::new(0x55),
                    value: 0x66,
                }),
                "0155000000000000006600000000000000",
            ),
            (
                to_bytes(&OpRecord {
                    core: CoreId::new(7),
                    at: Cycle::new(0x88),
                    kind: OpKind::Store {
                        addr: Addr::new(0x99),
                        value: 0xaa,
                    },
                }),
                "07008800000000000000019900000000000000aa00000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
