//! Pins a triage bundle by content: the sorted names of the files in its
//! directory and the FNV-1a of each. The directory's own path is replaced
//! by a fixed token first, so a pin does not depend on where the bundle was
//! written.

use std::path::Path;

use norush::common::persist::fnv1a;

/// Stands in for the bundle directory's path inside its files.
const DIR_TOKEN: &[u8] = b"<repro-dir>";

/// `(file name, FNV-1a as 16 hex digits)` for every file in `dir`, sorted
/// by name.
pub fn digest(dir: &Path) -> Vec<(String, String)> {
    let path = dir.display().to_string();
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("bundle dir")
        .flatten()
        .map(|e| {
            let bytes = std::fs::read(e.path()).expect("bundle file");
            let name = e.file_name().to_string_lossy().into_owned();
            let hash = fnv1a(&replace(&bytes, path.as_bytes(), DIR_TOKEN));
            (name, format!("{hash:016x}"))
        })
        .collect();
    files.sort();
    files
}

/// `bytes` with every occurrence of `from` replaced by `to`.
fn replace(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    while !rest.is_empty() {
        if rest.starts_with(from) {
            out.extend_from_slice(to);
            rest = &rest[from.len()..];
        } else {
            out.push(rest[0]);
            rest = &rest[1..];
        }
    }
    out
}

/// Asserts that `dir` holds exactly the `want` files with those hashes.
pub fn assert_pinned(dir: &Path, want: &[(&str, &str)]) {
    let got = digest(dir);
    let want: Vec<(String, String)> = want
        .iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want, "triage bundle in {} changed", dir.display());
}
