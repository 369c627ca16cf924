//! Versioned, zero-dependency binary snapshot codec.
//!
//! Deterministic checkpoint/restore needs every stateful component to encode
//! itself into a stable byte stream and later rebuild *exactly* the same
//! state. This module provides the two traits the rest of the workspace
//! implements:
//!
//! * [`Codec`] — value types that encode/decode themselves wholesale
//!   (counters, queue entries, messages, RNG state, …).
//! * [`Persist`] — components that are *restored in place*: parts derived
//!   from the immutable [`SystemConfig`][crate::config::SystemConfig]
//!   (geometry, latencies, function pointers, trait objects) are kept, and
//!   only the mutable simulation state is overwritten.
//!
//! The encoding is a hand-rolled little-endian byte stream — no serde, no
//! external dependencies — with explicit length prefixes and enum tags so a
//! truncated or corrupted stream surfaces as a structured [`PersistError`]
//! instead of a panic. Containers with nondeterministic iteration order
//! (`HashMap`) are encoded in sorted key order so equal states always produce
//! equal bytes.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use crate::clock::Cycle;
use crate::ids::{Addr, CoreId, LineAddr, Pc};
use crate::rmw::RmwKind;

/// Errors surfaced while encoding to or decoding from a snapshot stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The stream ended before the expected data was read.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type whose tag was invalid.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The snapshot was taken under a different system configuration.
    ConfigMismatch {
        /// Config hash found in the snapshot header.
        found: u64,
        /// Config hash of the machine being restored.
        expected: u64,
    },
    /// The stream is structurally invalid (bad magic, bad checksum, or an
    /// impossible length/shape).
    Corrupt(&'static str),
    /// An I/O error while reading or writing a checkpoint file.
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of data"),
            PersistError::BadTag { what, tag } => {
                write!(f, "snapshot corrupt: invalid tag {tag} for {what}")
            }
            PersistError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (expected {expected})"
            ),
            PersistError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (config hash {found:#018x}, machine has {expected:#018x})"
            ),
            PersistError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            PersistError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// 64-bit FNV-1a hash, used to fingerprint the system configuration so a
/// checkpoint refuses to restore onto a differently-configured machine.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` atomically: the data lands in `<path>.tmp` first
/// and is renamed over `path` only once fully written, so a reader (or a
/// crash) sees either the previous complete file or the new one, never a
/// torn one. Every checkpoint, state file and report goes through here.
///
/// # Errors
/// Any filesystem error from the write or the rename.
pub fn write_atomic(path: &std::path::Path, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// An append-only little-endian byte sink for snapshot encoding.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a container length as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
}

/// A cursor over snapshot bytes, with bounds-checked reads.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(
            self.get_bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.get_bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.get_bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(
            self.get_bytes(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a container length, rejecting lengths that could not possibly
    /// fit in the remaining bytes (corruption guard against huge allocations).
    pub fn get_len(&mut self) -> Result<usize, PersistError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(PersistError::Corrupt(
                "length prefix exceeds remaining data",
            ));
        }
        Ok(n as usize)
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what: "bool", tag }),
        }
    }
}

/// A value type that encodes and decodes itself wholesale.
pub trait Codec: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decodes one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// A component restored *in place*: configuration-derived parts (geometry,
/// latencies, trait objects) are kept, and only mutable state is overwritten.
///
/// `restore` may leave the component partially overwritten on error; callers
/// (the machine-level restore) must treat any error as fatal for the whole
/// restore operation.
pub trait Persist {
    /// Appends this component's mutable state to `w`.
    fn persist(&self, w: &mut Writer);
    /// Overwrites this component's mutable state from `r`.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError>;
}

macro_rules! codec_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                r.$get()
            }
        }
    };
}

codec_prim!(u8, put_u8, get_u8);
codec_prim!(u16, put_u16, get_u16);
codec_prim!(u32, put_u32, get_u32);
codec_prim!(u64, put_u64, get_u64);
codec_prim!(u128, put_u128, get_u128);
codec_prim!(bool, put_bool, get_bool);

impl Codec for i8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.get_u8()? as i8)
    }
}

impl Codec for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.get_u64()? as i64)
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.get_u64()? as usize)
    }
}

impl Codec for Cycle {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Cycle::new(r.get_u64()?))
    }
}

impl Codec for CoreId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.index() as u16);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CoreId::new(r.get_u16()?))
    }
}

impl Codec for Addr {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Addr::new(r.get_u64()?))
    }
}

impl Codec for LineAddr {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(LineAddr::new(r.get_u64()?))
    }
}

impl Codec for Pc {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.raw());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Pc::new(r.get_u64()?))
    }
}

impl Codec for RmwKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            RmwKind::Faa(v) => {
                w.put_u8(0);
                w.put_u64(*v);
            }
            RmwKind::Swap(v) => {
                w.put_u8(1);
                w.put_u64(*v);
            }
            RmwKind::Cas { expected, new } => {
                w.put_u8(2);
                w.put_u64(*expected);
                w.put_u64(*new);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => RmwKind::Faa(r.get_u64()?),
            1 => RmwKind::Swap(r.get_u64()?),
            2 => RmwKind::Cas {
                expected: r.get_u64()?,
                new: r.get_u64()?,
            },
            tag => {
                return Err(PersistError::BadTag {
                    what: "RmwKind",
                    tag,
                })
            }
        })
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(PersistError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        // Sorted key order so equal maps always produce equal bytes.
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        w.put_len(pairs.len());
        for (k, v) in pairs {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, w: &mut Writer) {
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into()
            .map_err(|_| PersistError::Corrupt("fixed-size array length mismatch"))
    }
}

/// Round-trips a [`Codec`] value through bytes (test/debug helper).
pub fn roundtrip<T: Codec>(value: &T) -> Result<T, PersistError> {
    let mut w = Writer::new();
    value.encode(&mut w);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let out = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt("trailing bytes after decode"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(roundtrip(&0xdeadu16).unwrap(), 0xdead);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&(-5i8)).unwrap(), -5);
        assert_eq!(roundtrip(&(-1i64)).unwrap(), -1);
        assert!(roundtrip(&true).unwrap());
        assert!(!roundtrip(&false).unwrap());
        assert_eq!(roundtrip(&123usize).unwrap(), 123);
        assert_eq!(roundtrip(&7u128).unwrap(), 7);
    }

    #[test]
    fn ids_and_cycles_round_trip() {
        assert_eq!(roundtrip(&Cycle::new(42)).unwrap(), Cycle::new(42));
        assert_eq!(roundtrip(&CoreId::new(3)).unwrap(), CoreId::new(3));
        assert_eq!(roundtrip(&Addr::new(0xabc)).unwrap(), Addr::new(0xabc));
        assert_eq!(roundtrip(&LineAddr::new(9)).unwrap(), LineAddr::new(9));
        assert_eq!(roundtrip(&Pc::new(0x400)).unwrap(), Pc::new(0x400));
    }

    #[test]
    fn rmw_kinds_round_trip() {
        for k in [
            RmwKind::Faa(7),
            RmwKind::Swap(9),
            RmwKind::Cas {
                expected: 1,
                new: 2,
            },
        ] {
            assert_eq!(roundtrip(&k).unwrap(), k);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(roundtrip(&v).unwrap(), v);
        let d: VecDeque<u32> = [4, 5].into_iter().collect();
        assert_eq!(roundtrip(&d).unwrap(), d);
        let s: BTreeSet<u64> = [8, 1].into_iter().collect();
        assert_eq!(roundtrip(&s).unwrap(), s);
        let m: BTreeMap<u64, u64> = [(1, 2), (3, 4)].into_iter().collect();
        assert_eq!(roundtrip(&m).unwrap(), m);
        let o: Option<u8> = Some(7);
        assert_eq!(roundtrip(&o).unwrap(), o);
        let arr = [Some(1u64), None, Some(3)];
        assert_eq!(roundtrip(&arr).unwrap(), arr);
        let t = (1u64, CoreId::new(2), Cycle::new(3));
        assert_eq!(roundtrip(&t).unwrap(), t);
    }

    #[test]
    fn hashmap_encoding_is_deterministic() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..100u64 {
            a.insert(i, i * 2);
        }
        for i in (0..100u64).rev() {
            b.insert(i, i * 2);
        }
        let mut wa = Writer::new();
        a.encode(&mut wa);
        let mut wb = Writer::new();
        b.encode(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        assert_eq!(roundtrip(&a).unwrap(), a);
    }

    #[test]
    fn truncated_stream_is_eof_not_panic() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let res = Vec::<u64>::decode(&mut r);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt_not_oom() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // length prefix far beyond remaining bytes
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_tags_are_structured_errors() {
        let bytes = [9u8];
        assert!(matches!(
            Option::<u64>::decode(&mut Reader::new(&bytes)),
            Err(PersistError::BadTag { what: "Option", .. })
        ));
        assert!(matches!(
            bool::decode(&mut Reader::new(&bytes)),
            Err(PersistError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            RmwKind::decode(&mut Reader::new(&bytes)),
            Err(PersistError::BadTag {
                what: "RmwKind",
                ..
            })
        ));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }
}
