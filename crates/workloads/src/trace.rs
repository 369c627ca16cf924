//! Trace files: record any [`InstrStream`] to disk and replay it later.
//!
//! This is the analogue of the paper's Sniper-produced traces: a captured
//! stream is bit-exact across machines, so experiments can be re-run on the
//! identical instruction sequence without regenerating it. The format is a
//! small self-describing binary codec (magic + little-endian fields) with no
//! external dependencies.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use row_common::ids::{Addr, Pc};
use row_common::persist::{PersistError, Reader, Writer};
use row_cpu::instr::{Instr, InstrStream, Op, RmwKind};

const MAGIC: &[u8; 6] = b"RWTR1\n";

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn put_u8(w: &mut impl Write, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn get_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn write_instr(w: &mut impl Write, i: &Instr) -> io::Result<()> {
    put_u64(w, i.pc.raw())?;
    put_u8(w, i.srcs[0].map_or(0xff, |r| r))?;
    put_u8(w, i.srcs[1].map_or(0xff, |r| r))?;
    put_u8(w, i.dst.map_or(0xff, |r| r))?;
    match i.op {
        Op::Alu { latency } => {
            put_u8(w, 0)?;
            put_u8(w, latency)?;
        }
        Op::Load { addr } => {
            put_u8(w, 1)?;
            put_u64(w, addr.raw())?;
        }
        Op::Store { addr, value } => {
            put_u8(w, 2)?;
            put_u64(w, addr.raw())?;
            match value {
                None => put_u8(w, 0)?,
                Some(v) => {
                    put_u8(w, 1)?;
                    put_u64(w, v)?;
                }
            }
        }
        Op::Atomic { rmw, addr } => {
            put_u8(w, 3)?;
            put_u64(w, addr.raw())?;
            match rmw {
                RmwKind::Faa(d) => {
                    put_u8(w, 0)?;
                    put_u64(w, d)?;
                }
                RmwKind::Swap(v) => {
                    put_u8(w, 1)?;
                    put_u64(w, v)?;
                }
                RmwKind::Cas { expected, new } => {
                    put_u8(w, 2)?;
                    put_u64(w, expected)?;
                    put_u64(w, new)?;
                }
            }
        }
        Op::Branch { taken } => {
            put_u8(w, 4)?;
            put_u8(w, taken as u8)?;
        }
        Op::Fence => put_u8(w, 5)?,
    }
    Ok(())
}

fn read_instr(r: &mut impl Read) -> io::Result<Instr> {
    let pc = Pc::new(get_u64(r)?);
    let reg = |v: u8| if v == 0xff { None } else { Some(v) };
    let s0 = reg(get_u8(r)?);
    let s1 = reg(get_u8(r)?);
    let dst = reg(get_u8(r)?);
    let op = match get_u8(r)? {
        0 => Op::Alu {
            latency: get_u8(r)?,
        },
        1 => Op::Load {
            addr: Addr::new(get_u64(r)?),
        },
        2 => {
            let addr = Addr::new(get_u64(r)?);
            let value = match get_u8(r)? {
                0 => None,
                1 => Some(get_u64(r)?),
                _ => return Err(bad("bad store value tag")),
            };
            Op::Store { addr, value }
        }
        3 => {
            let addr = Addr::new(get_u64(r)?);
            let rmw = match get_u8(r)? {
                0 => RmwKind::Faa(get_u64(r)?),
                1 => RmwKind::Swap(get_u64(r)?),
                2 => RmwKind::Cas {
                    expected: get_u64(r)?,
                    new: get_u64(r)?,
                },
                _ => return Err(bad("bad rmw tag")),
            };
            Op::Atomic { rmw, addr }
        }
        4 => Op::Branch {
            taken: get_u8(r)? != 0,
        },
        5 => Op::Fence,
        _ => return Err(bad("bad op tag")),
    };
    Ok(Instr {
        pc,
        op,
        srcs: [s0, s1],
        dst,
    })
}

/// Writes a whole trace to `w`.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_trace(mut w: impl Write, instrs: &[Instr]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    put_u64(&mut w, instrs.len() as u64)?;
    for i in instrs {
        write_instr(&mut w, i)?;
    }
    w.flush()
}

/// Reads a whole trace from `r`.
///
/// # Errors
/// Fails on I/O errors, a bad magic header, or malformed records.
pub fn read_trace(mut r: impl Read) -> io::Result<Vec<Instr>> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a norush trace file"));
    }
    let n = get_u64(&mut r)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        out.push(read_instr(&mut r)?);
    }
    Ok(out)
}

/// Drains `stream` into a trace file at `path`.
///
/// # Errors
/// Propagates file-creation and write errors.
pub fn record_to_file(path: impl AsRef<Path>, stream: &mut dyn InstrStream) -> io::Result<u64> {
    let mut instrs = Vec::new();
    while let Some(i) = stream.next_instr() {
        instrs.push(i);
    }
    let f = BufWriter::new(File::create(path)?);
    write_trace(f, &instrs)?;
    Ok(instrs.len() as u64)
}

/// An [`InstrStream`] replaying a trace file.
#[derive(Debug)]
pub struct TraceFileStream {
    instrs: Vec<Instr>,
    pos: usize,
}

impl TraceFileStream {
    /// Opens and fully loads a trace file.
    ///
    /// # Errors
    /// Fails on I/O errors or a malformed file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = BufReader::new(File::open(path)?);
        Ok(TraceFileStream {
            instrs: read_trace(f)?,
            pos: 0,
        })
    }
}

impl InstrStream for TraceFileStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let i = self.instrs.get(self.pos).copied();
        self.pos += 1;
        i
    }

    fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.pos as u64);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.pos = r.get_u64()? as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, ProfileStream};

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
        let mut buf = Vec::new();
        write_trace(&mut buf, &orig).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(orig, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_file() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(buf.as_slice()).is_err());
    }

    #[test]
    fn file_record_and_replay_matches_generator() {
        let dir = std::env::temp_dir().join("norush-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pc.trace");
        let profile = Benchmark::Pc.profile().with_instructions(500);
        let n = record_to_file(&path, &mut ProfileStream::new(profile, 0, 4, 9)).unwrap();
        assert!(n >= 500);

        let mut replay = TraceFileStream::open(&path).unwrap();
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
