//! Trace files: record any [`InstrStream`] to disk and replay it later.
//!
//! This is the analogue of the paper's Sniper-produced traces: a captured
//! stream is bit-exact across machines, so experiments can be re-run on the
//! identical instruction sequence without regenerating it. A trace file is
//! the [file frame](row_common::persist#the-file-frame) of kind
//! `TRACE_FILE` around the `Vec<Instr>` codec, bound to nothing:
//!
//! ```text
//! magic "NRTRACE\n" | version u32 | binding 0 u64
//! | instruction count u64 | Instr codec per instruction | fnv1a checksum u64
//! ```
//!
//! A trace replays as a plain [`VecStream`]. Files of the unframed first
//! format (magic `RWTR1\n`) are refused as not trace files.

use std::io;
use std::path::Path;

use row_common::persist::{encode_slice, write_atomic, Codec, FileKind, PersistError};
use row_cpu::instr::{Instr, InstrStream, VecStream, NUM_REGS};

/// First bytes of every trace file.
const MAGIC: &[u8; 8] = b"NRTRACE\n";

/// Trace format version. Version 1 was the unframed `RWTR1` layout.
const FORMAT_VERSION: u32 = 2;

/// The trace file frame, bound to nothing (binding 0).
const TRACE_FILE: FileKind = row_common::file_kind!("trace file", MAGIC, FORMAT_VERSION);

/// The trace file bytes of `instrs`.
pub fn write_trace(instrs: &[Instr]) -> Vec<u8> {
    TRACE_FILE.seal(0, |w| encode_slice(instrs, w))
}

/// Reads a whole trace from the bytes of a trace file.
///
/// # Errors
/// Any frame error of `TRACE_FILE`, a malformed instruction, or a
/// register index of `NUM_REGS` or more (a valid checksum proves only that
/// the bytes are the ones written, not that the writer was sane).
pub fn read_trace(bytes: &[u8]) -> Result<Vec<Instr>, PersistError> {
    let mut r = TRACE_FILE.open(bytes, 0)?;
    let instrs = Vec::<Instr>::decode(&mut r)?;
    TRACE_FILE.finish(&r)?;
    let regs = instrs
        .iter()
        .flat_map(|i| i.srcs.into_iter().chain([i.dst]));
    if regs.flatten().any(|reg| usize::from(reg) >= NUM_REGS) {
        return Err(PersistError::Corrupt("trace register out of range"));
    }
    Ok(instrs)
}

/// Drains `stream` into a trace file at `path`, written atomically.
///
/// # Errors
/// Propagates filesystem errors.
pub fn record_to_file(path: impl AsRef<Path>, stream: &mut dyn InstrStream) -> io::Result<u64> {
    let instrs: Vec<Instr> = std::iter::from_fn(|| stream.next_instr()).collect();
    write_atomic(path.as_ref(), write_trace(&instrs))?;
    Ok(instrs.len() as u64)
}

/// Opens a trace file for replay.
///
/// # Errors
/// Filesystem errors, and [`read_trace`]'s as [`io::ErrorKind::InvalidData`].
pub fn open_trace(path: impl AsRef<Path>) -> io::Result<VecStream> {
    let instrs = read_trace(&std::fs::read(path)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(VecStream::new(instrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, ProfileStream};
    use row_common::ids::{Addr, Pc};
    use row_common::persist::fnv1a;
    use row_cpu::instr::{Op, RmwKind};

    fn sample() -> Vec<Instr> {
        vec![
            Instr::simple(Pc::new(0x10), Op::Alu { latency: 3 }).with_dst(1),
            Instr::simple(
                Pc::new(0x14),
                Op::Load {
                    addr: Addr::new(0x1000),
                },
            )
            .with_srcs(Some(1), None)
            .with_dst(2),
            Instr::simple(
                Pc::new(0x18),
                Op::Store {
                    addr: Addr::new(0x1008),
                    value: Some(42),
                },
            ),
            Instr::simple(
                Pc::new(0x1c),
                Op::Store {
                    addr: Addr::new(0x1010),
                    value: None,
                },
            ),
            Instr::simple(
                Pc::new(0x20),
                Op::Atomic {
                    rmw: RmwKind::Faa(7),
                    addr: Addr::new(0x2000),
                },
            ),
            Instr::simple(
                Pc::new(0x24),
                Op::Atomic {
                    rmw: RmwKind::Cas {
                        expected: 1,
                        new: 2,
                    },
                    addr: Addr::new(0x2008),
                },
            ),
            Instr::simple(
                Pc::new(0x28),
                Op::Atomic {
                    rmw: RmwKind::Swap(9),
                    addr: Addr::new(0x2010),
                },
            ),
            Instr::simple(Pc::new(0x2c), Op::Branch { taken: true }),
            Instr::simple(Pc::new(0x30), Op::Branch { taken: false }),
            Instr::simple(Pc::new(0x34), Op::Fence),
        ]
    }

    #[test]
    fn round_trips_every_op_kind() {
        let orig = sample();
        assert_eq!(read_trace(&write_trace(&orig)).unwrap(), orig);
        assert_eq!(read_trace(&write_trace(&[])).unwrap(), []);
    }

    /// The exact bytes of a trace file. A change to the `Instr` codec or
    /// the frame shows up here and must bump `FORMAT_VERSION`.
    #[test]
    fn trace_bytes_are_pinned() {
        let bytes = write_trace(&sample());
        assert_eq!(bytes.len(), 255);
        assert_eq!(format!("{:016x}", fnv1a(&bytes)), "2a37688948f9ae71");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = |bytes: &[u8]| read_trace(bytes).unwrap_err();
        let mut other = write_trace(&sample());
        other[0] ^= 1;
        assert_eq!(
            err(&other),
            PersistError::Corrupt("not a norush trace file")
        );
        // A file of the unframed first format: "RWTR1\n", a count, and two
        // fences (pc, three 0xff register bytes, op tag 5).
        let mut old = b"RWTR1\n".to_vec();
        old.extend_from_slice(&2u64.to_le_bytes());
        for _ in 0..2 {
            old.extend_from_slice(&0x40u64.to_le_bytes());
            old.extend_from_slice(&[0xff, 0xff, 0xff, 5]);
        }
        assert_eq!(err(&old), PersistError::Corrupt("not a norush trace file"));
    }

    #[test]
    fn rejects_truncated_file() {
        let bytes = write_trace(&sample());
        for cut in [0, 7, 27, bytes.len() / 2, bytes.len() - 3] {
            assert!(read_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_every_flipped_bit_of_a_byte() {
        let bytes = write_trace(&sample());
        for at in [8, 12, 20, 40, bytes.len() - 1] {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert!(read_trace(&flipped).is_err(), "bit {bit} of byte {at}");
            }
        }
    }

    /// A crafted trace carries a valid checksum, so the register range is
    /// checked on its own.
    #[test]
    fn rejects_out_of_range_registers() {
        let alu = Instr::simple(Pc::new(0x10), Op::Alu { latency: 1 });
        let last = (NUM_REGS - 1) as u8;
        assert!(read_trace(&write_trace(&[alu.with_dst(last)])).is_ok());
        for bad in [
            alu.with_dst(NUM_REGS as u8),
            alu.with_srcs(None, Some(191)),
            alu.with_srcs(Some(u8::MAX), None),
        ] {
            assert_eq!(
                read_trace(&write_trace(&[bad])),
                Err(PersistError::Corrupt("trace register out of range"))
            );
        }
    }

    #[test]
    fn file_record_and_replay_matches_generator() {
        let dir = std::env::temp_dir().join("norush-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pc.trace");
        let profile = Benchmark::Pc.profile().with_instructions(500);
        let n = record_to_file(&path, &mut ProfileStream::new(profile, 0, 4, 9)).unwrap();
        assert!(n >= 500);
        assert!(!dir.join("pc.trace.tmp").exists(), "written atomically");

        let mut replay = open_trace(&path).unwrap();
        let mut fresh = ProfileStream::new(profile, 0, 4, 9);
        let mut count = 0u64;
        while let Some(a) = replay.next_instr() {
            assert_eq!(Some(a), fresh.next_instr());
            count += 1;
        }
        assert!(fresh.next_instr().is_none());
        assert_eq!(count, n);
        std::fs::remove_file(&path).ok();
    }
}
