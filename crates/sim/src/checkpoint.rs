//! Checkpoint files: the on-disk container for [`Machine`] snapshots.
//!
//! A checkpoint is the byte image produced by [`Machine::checkpoint`]: the
//! [file frame](row_common::persist#the-file-frame) of kind `FILE`, bound
//! to the machine's config hash, around the machine's state:
//!
//! ```text
//! magic "ROWCKPT\n" | format version u32 | config hash u64
//! | cycle u64 | memory-system payload | core count u64 | per-core payloads
//! | online checker (Option) | fnv1a checksum u64
//! ```
//!
//! Everything is little-endian and self-delimiting; there are no external
//! dependencies. Files are written atomically (temp file + rename in the same
//! directory), so a crash mid-write leaves either the previous complete
//! checkpoint or none — never a torn file. [`Machine::restore`] opens the
//! frame (length, magic, format version, whole-file checksum, config hash)
//! before any payload byte is interpreted, and reports each failure as a
//! distinct [`PersistError`].
//!
//! [`Machine::checkpoint`]: crate::machine::Machine::checkpoint
//! [`Machine::restore`]: crate::machine::Machine::restore
//! [`Machine`]: crate::machine::Machine

use std::fs;
use std::path::Path;

use row_common::persist::{write_atomic, FileKind, PersistError};

/// First bytes of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"ROWCKPT\n";

/// Current checkpoint format version. Bump on any layout change; restore
/// refuses other versions with [`PersistError::VersionMismatch`].
///
/// v2: the memory-system payload gained the optional lossy-transport state
/// (sequence numbers, in-flight retransmission tracking, receive buffers,
/// counters) and the optional oracle journal.
///
/// v3: per-core stats gained the atomic-latency log histogram, and the
/// machine payload gained the optional online linearizability checker
/// (golden word store, per-core counters, journal tail) after the cores.
///
/// v4: each core payload gained the explorer's pending atomic commit-release
/// decision (`(uid, release cycle)`, usually `None`) after the load log.
///
/// v5: cache arrays, the branch predictor's bimodal and tagged tables, the
/// store-set SSIT and LFST and the stride prefetcher's table are sparse
/// tables ([`row_common::persist::encode_sparse`]): only occupied ways and
/// trained entries are written.
///
/// v6: each core payload lost its fetch peek slot (always empty between
/// steps), each ROB entry its outstanding-miss flag and each atomic-queue
/// entry its forwarded flag; none was read by the model.
pub const FORMAT_VERSION: u32 = 6;

/// The checkpoint file frame, bound to the machine's config hash.
pub(crate) const FILE: FileKind = row_common::file_kind!("checkpoint", MAGIC, FORMAT_VERSION);

/// Writes `bytes` to `path` atomically: the data lands in `<path>.tmp` first
/// and is renamed over `path` only once fully flushed, so a reader (or a
/// crash) never observes a partial checkpoint.
///
/// # Errors
/// [`PersistError::Io`] on any filesystem failure.
pub fn write_checkpoint(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    write_atomic(path, bytes).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))
}

/// Reads a checkpoint file back into memory. Validation of the contents
/// happens in [`Machine::restore`](crate::machine::Machine::restore).
///
/// # Errors
/// [`PersistError::Io`] on any filesystem failure.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, PersistError> {
    fs::read(path).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_round_trips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("norush-ckpt-io-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        write_checkpoint(&path, b"hello checkpoint").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), b"hello checkpoint");
        assert!(
            !dir.join("m.ckpt.tmp").exists(),
            "temp file must be renamed"
        );
        // Overwriting is atomic too.
        write_checkpoint(&path, b"second").unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), b"second");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_structured_io_error() {
        let err = read_checkpoint(Path::new("/nonexistent/nope.ckpt")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
