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
//! The encoding is a little-endian byte stream — no serde, no external
//! dependencies — with explicit length prefixes and enum tags so a
//! truncated or corrupted stream surfaces as a structured [`PersistError`]
//! instead of a panic. Containers with nondeterministic iteration order
//! (`HashMap`) are encoded in sorted key order so equal states always produce
//! equal bytes.
//!
//! Each layout is declared once. Two macros derive a [`Codec`] from a field
//! list, so `decode` can never drift from `encode`:
//!
//! * [`codec_struct!`](crate::codec_struct) — a struct is its fields, each
//!   through its own `Codec`, in the listed order.
//! * [`codec_enum!`](crate::codec_enum) — an enum is one tag byte, then the
//!   variant's fields the same way; an unknown tag is
//!   [`PersistError::BadTag`] naming the type.
//!
//! Write an impl by hand only when the layout is not a plain field list:
//! decode validates (a length, a range, a presence byte against the
//! machine's shape), the wire width differs from the field type, or a field
//! is not persisted and must be rebuilt. Every [`Persist`] impl is
//! hand-written for those reasons.
//!
//! # The file frame
//!
//! Every binary file — checkpoints, fuzz state, traces — is one
//! [`FileKind`]'s frame around a codec body:
//! `magic | version u32 | binding u64 | body | fnv1a u64`, the checksum
//! covering every byte before it. The binding names what may read the file:
//! a checkpoint's config hash, a fuzz campaign's fingerprint, 0 for a trace.
//! [`FileKind::open`] checks length, magic, version, checksum and binding,
//! in that order, before any body byte is decoded; [`FileKind::finish`]
//! refuses unread bytes. A kind's version is bumped on any change to its
//! body's bytes, nested codecs included, so an old file is refused with
//! [`PersistError::VersionMismatch`], never misread.
//!
//! # Sparse tables
//!
//! A fixed-capacity table (cache ways, predictor entries) is mostly its
//! blank entry, `T::default()`, so it is written sparse by
//! [`encode_sparse`]: `len u64 | count u64 | (index u64, entry)*`, listing
//! only the entries that differ from blank, indices strictly ascending.
//! Each table state thus has exactly one image, which the explorer's
//! dedup on image hashes relies on. [`decode_sparse`] refuses a length
//! other than the table's and an index past the table or out of order;
//! every entry it does not list is blank.
//!
//! The predictor tables are [`SparseTable`]s, which also keep the set of
//! entries written since their last restore, a bitset, so they encode and
//! restore in O(written) plus one word per 64 entries, not O(capacity);
//! an untrained table reads no entry at all. The written set is
//! representation, never encoded: it may list entries written back to
//! blank, which encode drops, so the bytes equal [`encode_sparse`] over the
//! whole table. In a debug build every encode also scans the whole table
//! and asserts that no entry outside the written set differs from blank.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::ops::{Deref, Index, IndexMut};

use crate::bitset::IndexSet;
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
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash whose state after the bytes before is `h`.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a`] of a whole [`FileKind::seal`] output, in O(1). The trailer is
/// the hash of every byte before it, so only its own 8 bytes remain to be
/// folded in. Any other input gives a meaningless value.
///
/// # Panics
/// Panics if `sealed` is shorter than 8 bytes.
pub fn sealed_fnv1a(sealed: &[u8]) -> u64 {
    let trailer = &sealed[sealed.len() - 8..];
    let checksum = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    fnv1a_fold(checksum, trailer)
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

/// Lowercase hex of `bytes`, two digits a byte: the copy-pasteable form of
/// fuzz genomes and explorer schedules.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses [`to_hex`] output, in either case. It reads the string's bytes,
/// so non-ASCII input is an error, never a panic.
///
/// # Errors
/// An odd number of bytes, or a byte that is not a hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let digit = |i: usize| {
        (s[i] as char)
            .to_digit(16)
            .ok_or_else(|| format!("invalid hex digit at byte {i}"))
    };
    (0..s.len())
        .step_by(2)
        .map(|i| Ok((digit(i)? << 4 | digit(i + 1)?) as u8))
        .collect()
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

/// One kind of sealed file (see [the file frame](self#the-file-frame)),
/// built by [`file_kind!`](crate::file_kind).
#[derive(Clone, Copy, Debug)]
pub struct FileKind {
    /// First bytes of every file of this kind.
    pub magic: &'static [u8],
    /// Format version of the body; other versions are refused.
    pub version: u32,
    /// Shorter than an empty frame.
    pub too_short: &'static str,
    /// Wrong magic.
    pub not_this_kind: &'static str,
    /// The checksum does not match the bytes before it.
    pub checksum_mismatch: &'static str,
    /// The body left bytes unread.
    pub trailing_bytes: &'static str,
}

/// A [`FileKind`] named `$name`, whose corruption messages read "`$name`
/// too short", "not a norush `$name`", "`$name` checksum mismatch" and
/// "trailing bytes in `$name`".
///
/// ```
/// use row_common::persist::{FileKind, PersistError};
///
/// const NOTE: FileKind = row_common::file_kind!("note", b"NOTE", 1);
/// let bytes = NOTE.seal(7, |w| w.put_u8(42));
/// let mut r = NOTE.open(&bytes, 7).unwrap();
/// assert_eq!((r.get_u8(), NOTE.finish(&r)), (Ok(42), Ok(())));
/// let err = NOTE.open(&bytes[1..], 7).unwrap_err();
/// assert_eq!(err, PersistError::Corrupt("not a norush note"));
/// ```
#[macro_export]
macro_rules! file_kind {
    ($name:literal, $magic:expr, $version:expr) => {
        $crate::persist::FileKind {
            magic: $magic,
            version: $version,
            too_short: ::core::concat!($name, " too short"),
            not_this_kind: ::core::concat!("not a norush ", $name),
            checksum_mismatch: ::core::concat!($name, " checksum mismatch"),
            trailing_bytes: ::core::concat!("trailing bytes in ", $name),
        }
    };
}

impl FileKind {
    /// A file of this kind bound to `binding`, its body written by `body`.
    pub fn seal(&self, binding: u64, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(self.magic);
        w.put_u32(self.version);
        w.put_u64(binding);
        body(&mut w);
        let checksum = fnv1a(&w.buf);
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// A reader over the body of `bytes`, once the frame has passed its
    /// checks in order: length, magic, version, checksum, binding.
    ///
    /// # Errors
    /// This kind's [`PersistError::Corrupt`] message for a short file, a
    /// wrong magic or a bad checksum; `VersionMismatch` or `ConfigMismatch`.
    pub fn open<'a>(&self, bytes: &'a [u8], binding: u64) -> Result<Reader<'a>, PersistError> {
        if bytes.len() < self.magic.len() + 4 + 8 + 8 {
            return Err(PersistError::Corrupt(self.too_short));
        }
        if !bytes.starts_with(self.magic) {
            return Err(PersistError::Corrupt(self.not_this_kind));
        }
        let (framed, checksum) = bytes.split_at(bytes.len() - 8);
        let mut r = Reader::new(&framed[self.magic.len()..]);
        let found = r.get_u32()?;
        if found != self.version {
            return Err(PersistError::VersionMismatch {
                found,
                expected: self.version,
            });
        }
        if fnv1a(framed).to_le_bytes() != checksum {
            return Err(PersistError::Corrupt(self.checksum_mismatch));
        }
        let found = r.get_u64()?;
        if found != binding {
            return Err(PersistError::ConfigMismatch {
                found,
                expected: binding,
            });
        }
        Ok(r)
    }

    /// Refuses a body that left bytes unread, with this kind's
    /// [`PersistError::Corrupt`] message.
    pub fn finish(&self, r: &Reader<'_>) -> Result<(), PersistError> {
        if !r.is_empty() {
            return Err(PersistError::Corrupt(self.trailing_bytes));
        }
        Ok(())
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

/// Implements [`Codec`] for a struct from its field list: `encode` writes
/// each field's `Codec` in the listed order and `decode` reads them back in
/// the same order. The list must name every field, or `decode` does not
/// compile.
///
/// ```
/// use row_common::codec_struct;
/// use row_common::persist::{roundtrip, to_bytes};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     start: u64,
///     len: u32,
/// }
/// codec_struct!(Span { len, start });
///
/// let s = Span { start: 7, len: 2 };
/// assert_eq!(to_bytes(&s), [2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(roundtrip(&s).unwrap(), s);
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::persist::Codec for $ty {
            fn encode(&self, w: &mut $crate::persist::Writer) {
                $($crate::persist::Codec::encode(&self.$field, w);)*
            }
            fn decode(
                r: &mut $crate::persist::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::persist::PersistError> {
                ::core::result::Result::Ok($ty {
                    $($field: $crate::persist::Codec::decode(r)?,)*
                })
            }
        }
    };
}

/// Implements [`Codec`] for an enum from its variant list: each variant is
/// one tag byte, then its fields in the listed order, as in
/// [`codec_struct!`](crate::codec_struct). Tuple fields take placeholder
/// names. The list must name every variant, or `encode` does not compile.
/// A tag with no variant decodes to [`PersistError::BadTag`] with `what`
/// set to the type's name.
///
/// ```
/// use row_common::codec_enum;
/// use row_common::persist::{roundtrip, to_bytes, Codec, PersistError, Reader};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line(u8),
///     Rect { w: u8, h: u8 },
/// }
/// codec_enum!(Shape { 0 => Dot, 1 => Line(len), 2 => Rect { w, h } });
///
/// assert_eq!(to_bytes(&Shape::Rect { w: 3, h: 4 }), [2, 3, 4]);
/// assert_eq!(roundtrip(&Shape::Line(9)).unwrap(), Shape::Line(9));
/// assert_eq!(
///     Shape::decode(&mut Reader::new(&[7])),
///     Err(PersistError::BadTag { what: "Shape", tag: 7 })
/// );
/// ```
#[macro_export]
macro_rules! codec_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(($($tf:ident),* $(,)?))?
            $({ $($nf:ident),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::persist::Codec for $ty {
            fn encode(&self, w: &mut $crate::persist::Writer) {
                match self {
                    $($ty::$variant $(($($tf),*))? $({ $($nf),* })? => {
                        w.put_u8($tag);
                        $($($crate::persist::Codec::encode($tf, w);)*)?
                        $($($crate::persist::Codec::encode($nf, w);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::persist::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::persist::PersistError> {
                ::core::result::Result::Ok(match r.get_u8()? {
                    $($tag => {
                        $($(let $tf = $crate::persist::Codec::decode(r)?;)*)?
                        $($(let $nf = $crate::persist::Codec::decode(r)?;)*)?
                        $ty::$variant $(($($tf),*))? $({ $($nf),* })?
                    })*
                    tag => {
                        return ::core::result::Result::Err(
                            $crate::persist::PersistError::BadTag {
                                what: ::core::stringify!($ty),
                                tag,
                            },
                        )
                    }
                })
            }
        }
    };
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

crate::codec_enum!(RmwKind {
    0 => Faa(v),
    1 => Swap(v),
    2 => Cas { expected, new },
});

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        T::decode(r).map(Box::new)
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

/// Appends `items` in the `Vec<T>` layout, without copying them into one.
pub fn encode_slice<T: Codec>(items: &[T], w: &mut Writer) {
    w.put_len(items.len());
    for v in items {
        v.encode(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        encode_slice(self, w);
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

/// Appends a table of `len` entries in the [sparse layout](self#sparse-tables).
/// `entries` yields `(index, entry)` pairs in strictly ascending index
/// order; it may skip blank entries, and those it yields are dropped.
pub fn encode_sparse<'a, T: Codec + Default + PartialEq + 'a>(
    w: &mut Writer,
    len: usize,
    entries: impl IntoIterator<Item = (usize, &'a T)>,
) {
    let blank = T::default();
    w.put_len(len);
    let count_at = w.buf.len();
    w.put_u64(0);
    let mut count = 0u64;
    let mut next = 0;
    for (i, v) in entries {
        debug_assert!(i >= next && i < len, "sparse index {i} out of order");
        next = i + 1;
        if *v != blank {
            w.put_u64(i as u64);
            v.encode(w);
            count += 1;
        }
    }
    w.buf[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
}

/// Reads a table of `len` entries in the [sparse layout](self#sparse-tables),
/// handing each listed entry to `put` with its index, in ascending order.
/// The caller blanks the entries the image does not list. Nothing is
/// allocated from the image's count.
///
/// # Errors
/// [`PersistError::Corrupt`] for a length other than `len`, a count larger
/// than the table or than the bytes left, or an index past the table or not
/// above the one before it; any error of `T`'s codec.
pub fn decode_sparse<T: Codec>(
    r: &mut Reader<'_>,
    len: usize,
    mut put: impl FnMut(usize, T),
) -> Result<(), PersistError> {
    if r.get_u64()? != len as u64 {
        return Err(PersistError::Corrupt("sparse table length mismatch"));
    }
    let count = r.get_len()?;
    if count > len {
        return Err(PersistError::Corrupt(
            "sparse table count exceeds its length",
        ));
    }
    let mut next = 0;
    for _ in 0..count {
        let i = r.get_u64()?;
        if i >= len as u64 {
            return Err(PersistError::Corrupt("sparse table index out of range"));
        }
        if i < next {
            return Err(PersistError::Corrupt("sparse table indices out of order"));
        }
        next = i + 1;
        put(i as usize, T::decode(r)?);
    }
    Ok(())
}

/// A fixed-capacity table of `T`s that marks every entry it hands out for
/// writing, so it [persists](Persist) in the [sparse
/// layout](self#sparse-tables) by walking only the marked entries, in
/// ascending order. Reads go through the slice it derefs to; the only
/// write access is [`IndexMut`], which marks the entry first. The marks
/// need no allocation until the first write.
#[derive(Clone, Debug)]
pub struct SparseTable<T> {
    entries: Vec<T>,
    /// A superset of the entries that differ from blank: each entry written
    /// since the last restore, and each the restored image listed.
    written: Option<IndexSet>,
}

impl<T: Clone + Default> SparseTable<T> {
    /// A table of `len` blank entries.
    pub fn new(len: usize) -> Self {
        SparseTable {
            entries: vec![T::default(); len],
            written: None,
        }
    }
}

impl<T> SparseTable<T> {
    fn is_written(&self, i: usize) -> bool {
        self.written.as_ref().is_some_and(|s| s.contains(i))
    }
}

impl<T> Deref for SparseTable<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.entries
    }
}

impl<T> Index<usize> for SparseTable<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.entries[i]
    }
}

impl<T> IndexMut<usize> for SparseTable<T> {
    /// Entry `i`, marked written.
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let len = self.entries.len();
        let entry = &mut self.entries[i];
        self.written
            .get_or_insert_with(|| IndexSet::new(len))
            .insert(i);
        entry
    }
}

impl<T: Codec + Default + PartialEq> Persist for SparseTable<T> {
    fn persist(&self, w: &mut Writer) {
        if cfg!(debug_assertions) {
            let blank = T::default();
            for (i, v) in self.entries.iter().enumerate() {
                assert!(
                    *v == blank || self.is_written(i),
                    "a sparse table entry differs from blank outside the written set"
                );
            }
        }
        let marked = self.written.iter().flat_map(IndexSet::iter);
        encode_sparse(w, self.len(), marked.map(|i| (i, &self.entries[i])));
    }

    /// Blanks the marked entries, then writes and marks each entry the
    /// image lists. On error the table may be partly overwritten, its
    /// marks still covering every entry that differs from blank.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        if let Some(written) = self.written.as_mut() {
            let mut next = written.next_from(0);
            while let Some(i) = next {
                self.entries[i] = T::default();
                written.remove(i);
                next = written.next_from(i + 1);
            }
        }
        decode_sparse(r, self.len(), |i, v| self[i] = v)
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

/// The [`Codec`] bytes of `value`.
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Round-trips a [`Codec`] value through bytes (test/debug helper).
pub fn roundtrip<T: Codec>(value: &T) -> Result<T, PersistError> {
    let bytes = to_bytes(value);
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
    fn hex_round_trips_and_rejects_without_panicking() {
        let bytes = [0x00, 0x7f, 0xa5, 0xff];
        assert_eq!(to_hex(&bytes), "007fa5ff");
        assert_eq!(from_hex("007fa5ff").unwrap(), bytes);
        assert_eq!(from_hex("007FA5FF").unwrap(), bytes);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("0").is_err());
        assert!(from_hex("zz").is_err());
        assert!(from_hex("+f").is_err());
        // 'é' is two bytes: slicing the string at byte offsets would panic.
        assert!(from_hex("aéa").is_err());
        assert!(from_hex("aé").is_err());
    }

    const TEST_FILE: FileKind = crate::file_kind!("test file", b"TEST", 3);

    #[test]
    fn frame_round_trips_and_names_each_failure() {
        let bytes = TEST_FILE.seal(9, |w| 0xabcdu16.encode(w));
        assert_eq!(bytes.len(), 4 + 4 + 8 + 2 + 8);
        let mut r = TEST_FILE.open(&bytes, 9).unwrap();
        assert_eq!(u16::decode(&mut r), Ok(0xabcd));
        TEST_FILE.finish(&r).unwrap();

        let open = |b: &[u8], binding| TEST_FILE.open(b, binding).map(|_| ());
        let corrupt = |what| Err(PersistError::Corrupt(what));
        assert_eq!(open(&bytes[..23], 9), corrupt("test file too short"));
        let mut other = bytes.clone();
        other[0] ^= 1;
        assert_eq!(open(&other, 9), corrupt("not a norush test file"));
        let mut flipped = bytes.clone();
        flipped[17] ^= 1;
        assert_eq!(open(&flipped, 9), corrupt("test file checksum mismatch"));
        // The version is checked before the checksum, the binding after it.
        let mut future = flipped.clone();
        future[4] = 4;
        let version = PersistError::VersionMismatch {
            found: 4,
            expected: 3,
        };
        assert_eq!(open(&future, 9), Err(version));
        assert_eq!(open(&flipped, 8), corrupt("test file checksum mismatch"));
        let binding = PersistError::ConfigMismatch {
            found: 9,
            expected: 8,
        };
        assert_eq!(open(&bytes, 8), Err(binding));
        let r = TEST_FILE.open(&bytes, 9).unwrap();
        assert_eq!(TEST_FILE.finish(&r), corrupt("trailing bytes in test file"));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }

    #[test]
    fn sealed_hash_matches_fnv1a_of_the_whole_file() {
        for body in [&[][..], &[0x5a][..]] {
            let bytes = TEST_FILE.seal(9, |w| w.put_bytes(body));
            assert_eq!(sealed_fnv1a(&bytes), fnv1a(&bytes), "body {body:?}");
        }
    }

    /// `table` in the sparse layout, scanned whole: the bytes a
    /// [`SparseTable`] with the same entries must write.
    fn encode_table<T: Codec + Default + PartialEq>(table: &[T], w: &mut Writer) {
        encode_sparse(w, table.len(), table.iter().enumerate());
    }

    fn image<T: Codec + Default + PartialEq>(table: &SparseTable<T>) -> Vec<u8> {
        let mut w = Writer::new();
        table.persist(&mut w);
        w.into_bytes()
    }

    /// The entries a table's written set lists, ascending.
    fn marks<T>(table: &SparseTable<T>) -> Vec<usize> {
        table.written.iter().flat_map(IndexSet::iter).collect()
    }

    /// A table of `len` `i8`s, decoded from `bytes` onto a table full of
    /// 7s: the bytes must be read to the end.
    fn decode_i8s(bytes: &[u8], len: usize) -> Result<Vec<i8>, PersistError> {
        let mut table = SparseTable::new(len);
        for i in 0..len {
            table[i] = 7i8;
        }
        let mut r = Reader::new(bytes);
        table.restore(&mut r)?;
        assert!(r.is_empty(), "unread bytes");
        Ok(table.to_vec())
    }

    #[test]
    fn sparse_tables_round_trip_and_blank_what_they_omit() {
        let table = [0i8, 5, 0, 0, -1, 0];
        let mut w = Writer::new();
        encode_table(&table, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 8 + 2 * (8 + 1));
        assert_eq!(decode_i8s(&bytes, 6).unwrap(), table);
        let mut w = Writer::new();
        encode_table(&[0i8; 6], &mut w);
        assert_eq!(decode_i8s(&w.into_bytes(), 6).unwrap(), [0; 6]);
        // An iterator that yields blank entries writes the same bytes.
        let mut w = Writer::new();
        encode_sparse(&mut w, 6, [(1, &5i8), (3, &0), (4, &-1)]);
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn sparse_table_encodes_like_a_scan_of_the_whole_table() {
        // 300 entries span five words of the written set. Each round writes
        // a few entries, some back to blank, then checks the image and a
        // restore of it into a table that holds other entries.
        let mut rng = crate::rng::SplitMix64::new(3);
        let mut table = SparseTable::new(300);
        let mut other = SparseTable::new(300);
        for round in 0..40 {
            for _ in 0..6 {
                let i = (rng.next_u64() % 300) as usize;
                table[i] = (rng.next_u64() % 4) as i8 - 1;
                other[(rng.next_u64() % 300) as usize] = 9;
            }
            let bytes = image(&table);
            let mut whole = Writer::new();
            encode_table(&table, &mut whole);
            assert_eq!(bytes, whole.into_bytes(), "round {round}");
            other.restore(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(*other, *table, "round {round}");
            assert_eq!(image(&other), bytes, "round {round}");
        }
    }

    #[test]
    fn entries_written_back_to_blank_are_not_listed() {
        let mut table = SparseTable::new(6);
        table[1] = 5i8;
        table[4] = -1;
        table[1] = 0;
        assert_eq!(marks(&table), [1, 4]);
        let mut expected = Writer::new();
        encode_table(&[0i8, 0, 0, 0, -1, 0], &mut expected);
        assert_eq!(image(&table), expected.into_bytes());
        table[4] = 0;
        assert_eq!(image(&table), image(&SparseTable::<i8>::new(6)));
    }

    #[test]
    fn restore_into_a_used_table_blanks_its_marks_and_marks_the_image() {
        let mut source = SparseTable::new(130);
        source[3] = 1i8;
        source[70] = 2;
        source[129] = 0;
        let mut used = SparseTable::new(130);
        used[3] = 9i8;
        used[64] = 9;
        used[128] = 9;
        used.restore(&mut Reader::new(&image(&source))).unwrap();
        assert_eq!(*used, *source);
        // The marks are the entries the image listed, not what was written
        // before or what the source marked but left blank.
        assert_eq!(marks(&used), [3, 70]);
        // A blank image leaves a blank, unmarked table.
        used.restore(&mut Reader::new(&image(&SparseTable::<i8>::new(130))))
            .unwrap();
        assert!(used.iter().all(|&v| v == 0) && marks(&used).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the written set")]
    fn an_unmarked_write_fails_the_debug_check() {
        let mut table = SparseTable::new(8);
        table[1] = 4i8;
        // A write that bypasses `IndexMut`, as a mutable accessor that
        // forgot to mark would make.
        table.entries[6] = 5;
        image(&table);
    }

    #[test]
    fn forged_sparse_tables_are_corrupt() {
        // A table length, a count, then index/value pairs.
        let forge = |len: u64, count: u64, entries: &[(u64, u8)]| {
            let mut w = Writer::new();
            w.put_u64(len);
            w.put_u64(count);
            for &(i, v) in entries {
                w.put_u64(i);
                w.put_u8(v);
            }
            w.into_bytes()
        };
        // Decoded onto a 4-entry table, except the 16-entry last case,
        // whose count fits the table but not the 9 bytes left.
        let cases = [
            ("short length", 4, forge(3, 0, &[])),
            ("long length", 4, forge(5, 0, &[])),
            ("huge length", 4, forge(u64::MAX, 0, &[])),
            ("index at the length", 4, forge(4, 1, &[(4, 1)])),
            ("index past the length", 4, forge(4, 1, &[(u64::MAX, 1)])),
            ("repeated index", 4, forge(4, 2, &[(1, 1), (1, 2)])),
            ("descending index", 4, forge(4, 2, &[(2, 1), (1, 2)])),
            ("count past the table", 4, forge(4, 5, &[(0, 1); 5])),
            ("huge count", 4, forge(4, u64::MAX, &[(0, 1)])),
            ("count past the bytes", 16, forge(16, 10, &[(0, 1)])),
        ];
        for (what, len, bytes) in cases {
            let res = decode_i8s(&bytes, len);
            assert!(
                matches!(res, Err(PersistError::Corrupt(_))),
                "{what}: {res:?}"
            );
        }
    }

    #[test]
    fn codec_bytes_are_pinned() {
        let mut sparse = Writer::new();
        encode_table(&[0i8, 0x11, 0, -1], &mut sparse);
        let pins = [
            (
                sparse.into_bytes(),
                "04000000000000000200000000000000\
                 0100000000000000110300000000000000ff",
            ),
            (to_bytes(&RmwKind::Faa(0x11)), "001100000000000000"),
            (to_bytes(&RmwKind::Swap(0x22)), "012200000000000000"),
            (
                to_bytes(&RmwKind::Cas {
                    expected: 0x33,
                    new: 0x44,
                }),
                "0233000000000000004400000000000000",
            ),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
