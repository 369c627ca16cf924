//! Measurements of the host rather than of the simulator: its current speed
//! and the process's peak memory.
//!
//! The benchmark runs on shared machines whose speed drifts, with other
//! tenants, in phases that last minutes: whole runs of the same work slowed
//! by a third. A fixed integer kernel, timed between passes, slows down with
//! them. Scaling the run's host times by `REFERENCE_S / kernel time` reports
//! them at the reference speed; measured across two sets of ten runs, it
//! shrank the drift between the sets' medians from 10-18% to 0-5%. The
//! kernel shares no code with the simulator, so a change to the simulator
//! cannot move it.

use std::time::Instant;

/// The kernel's time on the reference host (a quiet 2-vCPU Intel Xeon at
/// 2.0 GHz): the host speed the scaled metrics are reported at.
pub const REFERENCE_S: f64 = 0.053;

/// Times the host-speed kernel once: rounds of filling a 256 KiB vector with
/// a hash chain and sorting it, which exercise the core and its private
/// caches the way the simulator's hot loop does.
pub fn kernel_s() -> f64 {
    const ROUNDS: u64 = 100;
    const LEN: u64 = 1 << 15;
    let t = Instant::now();
    let mut v: Vec<u64> = Vec::with_capacity(LEN as usize);
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for r in 0..ROUNDS {
        v.clear();
        for i in 0..LEN {
            h = h.rotate_left(5) ^ i.wrapping_mul(0x0100_0000_01b3) ^ r;
            v.push(h);
        }
        v.sort_unstable();
        h ^= v[v.len() / 2];
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process, from `VmHWM`, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` so the next workload's peak is its own.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
