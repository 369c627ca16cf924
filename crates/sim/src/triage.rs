//! Shared failure-triage bundle plumbing for `run`, `soak`, `fuzz`, and
//! `explore`.
//!
//! Every failure-hunting mode drops the same kind of bundle into its
//! `--repro-dir`: a `<mode>_failure.txt` describing the failure with a
//! copy-pasteable repro command, a `journal_tail.txt` with the online
//! checker's last records, optionally a pre-violation `.ckpt`, and (for
//! chaos failures) a shrunk `chaos_repro.txt`. This module owns the pieces
//! the four modes ([`crate::soak`], [`crate::fuzz`](mod@crate::fuzz),
//! [`crate::explore`](mod@crate::explore) and the CLI's `run`) share: marker
//! naming, stale-bundle rotation, the journal-tail/checkpoint writers, and
//! the chaos shrink-and-report step ([`shrink_and_report`]).

use std::io;
use std::path::{Path, PathBuf};

use row_common::config::FaultConfig;

use crate::machine::Machine;
use crate::shrink::shrink_chaos;

/// Files that mark a triage bundle from a previous failing run. A directory
/// containing any of these is rotated aside by [`rotate_stale_bundle`]
/// before a new bundle is written.
pub const BUNDLE_MARKERS: &[&str] = &[
    "soak_failure.txt",
    "fuzz_failure.txt",
    "explore_failure.txt",
    "chaos_repro.txt",
    "journal_tail.txt",
];

/// Moves any existing triage bundle in `dir` aside to a numbered sibling
/// (`<dir>.1`, `<dir>.2`, ...) so a new failure never silently overwrites
/// an old repro. The bundle is the marker files plus any `.ckpt` files.
/// Fails clearly when every rotation slot is taken.
pub fn rotate_stale_bundle(dir: &Path) -> io::Result<()> {
    let mut stale: Vec<PathBuf> = BUNDLE_MARKERS
        .iter()
        .map(|m| dir.join(m))
        .filter(|p| p.exists())
        .collect();
    if stale.is_empty() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)?.flatten() {
        let p = entry.path();
        if p.extension().is_some_and(|e| e == "ckpt") {
            stale.push(p);
        }
    }
    // `run` defaults its bundle to the working directory, which cannot be
    // renamed out from under us — rotate into a named sibling instead.
    let base = if dir == Path::new(".") {
        PathBuf::from("repro_prev")
    } else {
        dir.to_path_buf()
    };
    let slot = (1..1000)
        .map(|n| PathBuf::from(format!("{}.{n}", base.display())))
        .find(|p| !p.exists())
        .ok_or_else(|| {
            io::Error::other(format!(
                "{}: over 999 rotated triage bundles; clean some up",
                base.display()
            ))
        })?;
    std::fs::create_dir_all(&slot)?;
    for p in &stale {
        let dst = slot.join(p.file_name().expect("bundle files have names"));
        std::fs::rename(p, &dst).map_err(|e| {
            io::Error::other(format!(
                "rotating {} to {}: {e}",
                p.display(),
                dst.display()
            ))
        })?;
    }
    eprintln!(
        "note: moved previous triage bundle in {} to {}",
        dir.display(),
        slot.display()
    );
    Ok(())
}

/// Creates `dir` and rotates any leftover bundle aside — call once before
/// writing a fresh bundle (or before a run that might produce one).
pub fn prepare_repro_dir(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    rotate_stale_bundle(dir)
}

/// Writes the failure description `desc` to `<dir>/<marker>` and returns the
/// path. `marker` should be one of [`BUNDLE_MARKERS`] so rotation finds it.
pub fn write_failure(dir: &Path, marker: &str, desc: &str) -> io::Result<PathBuf> {
    debug_assert!(BUNDLE_MARKERS.contains(&marker), "unknown marker {marker}");
    let path = dir.join(marker);
    std::fs::write(&path, desc)?;
    Ok(path)
}

/// Writes the machine's online-checker journal tail to
/// `<dir>/journal_tail.txt`. Returns the path, or `None` when the machine
/// has no online checker (nothing is written).
pub fn write_journal_tail(dir: &Path, m: &Machine) -> io::Result<Option<PathBuf>> {
    let Some(checker) = m.online_checker() else {
        return Ok(None);
    };
    let mut tail = String::new();
    for (idx, rec) in (checker.tail_start_index()..).zip(checker.tail()) {
        tail.push_str(&format!("{idx}: {rec:?}\n"));
    }
    let path = dir.join("journal_tail.txt");
    std::fs::write(&path, tail)?;
    Ok(Some(path))
}

/// Writes pre-violation checkpoint bytes to `<dir>/<name>` (the name must
/// end in `.ckpt` so rotation finds it) and returns the path.
pub fn write_checkpoint_file(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    debug_assert!(name.ends_with(".ckpt"), "checkpoint files end in .ckpt");
    let path = dir.join(name);
    std::fs::write(&path, bytes)?;
    Ok(path)
}

/// A failing chaos run: minimizes the fault config while `fails` keeps
/// reproducing the failure, prints the minimal repro command (`repro_cmd`
/// renders one for a candidate config) to stderr, and saves it to
/// `<repro_dir>/chaos_repro.txt`. Returns the minimal config so callers can
/// record it.
pub fn shrink_and_report(
    repro_dir: &Path,
    initial: FaultConfig,
    repro_cmd: &dyn Fn(&FaultConfig) -> String,
    fails: &mut dyn FnMut(&FaultConfig) -> bool,
) -> FaultConfig {
    eprintln!("shrinking the failing chaos config (one run per probe)...");
    let min = shrink_chaos(initial, fails);
    let repro = repro_cmd(&min);
    eprintln!(
        "minimal failing chaos config: latency {} drop {}ppm dup {}ppm corrupt {}ppm",
        min.max_extra_latency, min.drop_ppm, min.dup_ppm, min.corrupt_ppm
    );
    eprintln!("repro: {repro}");
    let path = repro_dir.join("chaos_repro.txt");
    if let Err(e) = std::fs::write(&path, format!("{repro}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("norush-triage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn rotation_moves_markers_and_ckpts_aside() {
        let d = tmpdir("rotate");
        std::fs::write(d.join("explore_failure.txt"), "old").unwrap();
        std::fs::write(d.join("explore.ckpt"), "old-ckpt").unwrap();
        std::fs::write(d.join("unrelated.json"), "keep").unwrap();
        prepare_repro_dir(&d).unwrap();
        assert!(!d.join("explore_failure.txt").exists());
        assert!(!d.join("explore.ckpt").exists());
        assert!(d.join("unrelated.json").exists(), "non-bundle files stay");
        let slot = PathBuf::from(format!("{}.1", d.display()));
        assert!(slot.join("explore_failure.txt").exists());
        assert!(slot.join("explore.ckpt").exists());
        // A second rotation takes the next slot.
        std::fs::write(d.join("explore_failure.txt"), "new").unwrap();
        prepare_repro_dir(&d).unwrap();
        assert!(PathBuf::from(format!("{}.2", d.display())).exists());
        let _ = std::fs::remove_dir_all(&d);
        let _ = std::fs::remove_dir_all(&slot);
        let _ = std::fs::remove_dir_all(PathBuf::from(format!("{}.2", d.display())));
    }

    #[test]
    fn clean_dir_needs_no_rotation() {
        let d = tmpdir("clean");
        prepare_repro_dir(&d).unwrap();
        assert!(!PathBuf::from(format!("{}.1", d.display())).exists());
        let path = write_failure(&d, "explore_failure.txt", "desc\n").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "desc\n");
        let _ = std::fs::remove_dir_all(&d);
    }
}
