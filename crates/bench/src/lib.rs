//! Shared scaffolding for the figure-regeneration harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation by declaring a [`Sweep`] and handing it to
//! [`run_sweep`], which executes the grid on a worker pool and writes the
//! unified `BENCH_<figure>.json` results file next to the human table.
//!
//! The scale is selected by the `NORUSH_SCALE` environment variable:
//!
//! * `quick` (default) — 8 cores, small caches, 6 k instructions/thread;
//!   each figure takes seconds.
//! * `mid` — 16 cores, Table I hierarchy, 10 k instructions/thread.
//! * `paper` — 32 cores with the Table I hierarchy, 20 k
//!   instructions/thread; minutes per figure.
//! * `huge` — 64 cores (base; `fig_scale` sweeps 64/128/256) with the
//!   Table I per-core hierarchy on the scale-out mesh.
//!
//! Parallelism and resume are controlled per invocation:
//!
//! * `--jobs N` / `NORUSH_JOBS` — worker threads (default: all host cores).
//! * `--resume` / `NORUSH_RESUME=1` — skip cells already present in the
//!   figure's `BENCH_<figure>.json` under matching config fingerprints.
//! * `NORUSH_CKPT_DIR` (+ optional `NORUSH_CKPT_EVERY`) — per-cell machine
//!   checkpointing for crash resilience inside long cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use row_sim::{
    available_workers, parse_workers, ExperimentConfig, FigureResults, Sweep, SweepCheckpoint,
    SweepEvent, SweepOptions,
};
use row_workloads::Benchmark;

/// The experiment scale selected through `NORUSH_SCALE`.
pub fn scale() -> ExperimentConfig {
    match std::env::var("NORUSH_SCALE").as_deref() {
        Ok("paper") => ExperimentConfig::paper(),
        Ok("huge") => ExperimentConfig {
            cores: 64,
            instructions: 20_000,
            seed: 42,
            cycle_limit: 400_000_000,
            paper_caches: true,
            check: Default::default(),
        },
        Ok("mid") => ExperimentConfig {
            cores: 16,
            instructions: 10_000,
            seed: 42,
            cycle_limit: 200_000_000,
            paper_caches: true,
            check: Default::default(),
        },
        _ => {
            let mut e = ExperimentConfig::quick();
            e.instructions = 6_000;
            e
        }
    }
}

/// Prints a figure header with the active scale.
pub fn banner(fig: &str, what: &str) {
    let exp = scale();
    println!("== {fig}: {what} ==");
    println!(
        "   scale: {} cores, {} instructions/thread ({} caches) — set NORUSH_SCALE=quick|mid|paper|huge\n",
        exp.cores,
        exp.instructions,
        if exp.paper_caches { "Table I" } else { "scaled" }
    );
}

/// Sweep execution options parsed from the command line and environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepCli {
    /// Worker threads for [`run_sweep`].
    pub workers: usize,
    /// Whether to reuse matching cells from an existing results file.
    pub resume: bool,
}

/// Parses `--jobs N` / `--resume` from `args` with environment fallbacks
/// (`NORUSH_JOBS`, `NORUSH_RESUME`). Exposed for testing; binaries go
/// through [`sweep_cli`].
///
/// # Errors
/// A printable message for unknown flags, non-numeric worker counts, or
/// counts outside `[1, MAX_WORKERS]` ([`row_sim::parse_workers`]).
pub fn parse_sweep_cli(
    args: &[String],
    env_jobs: Option<&str>,
    env_resume: bool,
) -> Result<SweepCli, String> {
    let mut workers = match env_jobs {
        Some(v) => parse_workers("NORUSH_JOBS", v)?,
        None => available_workers(),
    };
    let mut resume = env_resume;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let v = it.next().ok_or("--jobs: missing worker count")?;
            workers = parse_workers("--jobs", v)?;
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            workers = parse_workers("--jobs", v)?;
        } else if a == "--resume" {
            resume = true;
        } else {
            return Err(format!(
                "`{a}`: unknown argument (figure binaries take --jobs N and --resume)"
            ));
        }
    }
    Ok(SweepCli { workers, resume })
}

/// [`parse_sweep_cli`] over the process arguments and environment, exiting
/// with status 2 (usage error) on invalid input.
pub fn sweep_cli() -> SweepCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env_jobs = std::env::var("NORUSH_JOBS").ok();
    let env_resume = std::env::var("NORUSH_RESUME").is_ok_and(|v| v == "1");
    parse_sweep_cli(&args, env_jobs.as_deref(), env_resume).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Per-cell machine checkpointing from `NORUSH_CKPT_DIR` /
/// `NORUSH_CKPT_EVERY` (default every 1 M cycles when a directory is set).
fn checkpoint_from_env() -> Option<SweepCheckpoint> {
    let dir = std::env::var("NORUSH_CKPT_DIR").ok()?;
    let every = std::env::var("NORUSH_CKPT_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000u64)
        .max(1);
    std::fs::create_dir_all(&dir).ok()?;
    Some(SweepCheckpoint {
        every,
        dir: PathBuf::from(dir),
    })
}

/// Executes a figure's sweep with the CLI/environment options, streaming
/// per-job progress to stderr and persisting `BENCH_<figure>.json`
/// incrementally. Exits with status 1 if any job fails (after the engine's
/// raised-budget timeout retry).
pub fn run_sweep(sweep: &Sweep) -> FigureResults {
    let cli = sweep_cli();
    let path = PathBuf::from(format!("BENCH_{}.json", sweep.figure));
    let total = sweep.jobs.len();
    eprintln!(
        "   sweep: {} jobs on {} workers{}",
        total,
        cli.workers.min(total.max(1)),
        if cli.resume { ", resume on" } else { "" }
    );
    let done = AtomicUsize::new(0);
    let progress = |ev: &SweepEvent<'_>| match *ev {
        SweepEvent::Finished {
            label,
            wall_s,
            retried,
            ..
        } => {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "   [{k}/{total}] {label}  {wall_s:.1}s{}",
                if retried {
                    "  (retried, 4x budget)"
                } else {
                    ""
                }
            );
        }
        SweepEvent::Cached { label, .. } => {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("   [{k}/{total}] {label}  (cached)");
        }
        SweepEvent::Started { .. } => {}
    };
    let opts = SweepOptions {
        workers: cli.workers,
        retry_timeouts: true,
        results_path: Some(path.clone()),
        resume: cli.resume,
        checkpoint: checkpoint_from_env(),
        progress: Some(&progress),
    };
    match sweep.run(&opts) {
        Ok(r) => {
            eprintln!("   wrote {}\n", path.display());
            r
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A cell's cycles normalized to a baseline variant on the same benchmark
/// (grid labels, i.e. `"<bench>/<variant>"`).
///
/// # Panics
/// When either label is missing from the results.
pub fn norm(r: &FigureResults, bench: Benchmark, variant: &str, baseline: &str) -> f64 {
    r.cycles(&format!("{}/{variant}", bench.name()))
        / r.cycles(&format!("{}/{baseline}", bench.name()))
}

/// Geometric mean of [`norm`] across `benches`.
pub fn geomean_norm(
    r: &FigureResults,
    benches: &[Benchmark],
    variant: &str,
    baseline: &str,
) -> f64 {
    let ratios: Vec<f64> = benches
        .iter()
        .map(|&b| norm(r, b, variant, baseline))
        .collect();
    row_common::stats::geomean(&ratios)
}

/// A plain-text table: auto-sized columns, first column left-aligned, the
/// rest right-aligned — the shared formatter behind every figure's output.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// When the cell count does not match the header count.
    pub fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table to a string (trailing newline included).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        widths[0] = widths[0].max(15);
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(self.rows.iter()) {
            for (i, cell) in line.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", cell, w = widths[0]));
                } else {
                    out.push_str(&format!(" {:>w$}", cell, w = widths[i]));
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        if std::env::var("NORUSH_SCALE").is_err() {
            assert_eq!(scale().cores, 8);
        }
    }

    #[test]
    fn sweep_cli_defaults_and_flags() {
        let d = parse_sweep_cli(&[], None, false).expect("defaults parse");
        assert!(d.workers >= 1);
        assert!(!d.resume);
        let j = parse_sweep_cli(
            &["--jobs".into(), "3".into(), "--resume".into()],
            None,
            false,
        )
        .expect("flags parse");
        assert_eq!(
            j,
            SweepCli {
                workers: 3,
                resume: true
            }
        );
        let env = parse_sweep_cli(&[], Some("5"), true).expect("env parses");
        assert_eq!(
            env,
            SweepCli {
                workers: 5,
                resume: true
            }
        );
        // The flag wins over the environment.
        let both = parse_sweep_cli(&["--jobs".into(), "2".into()], Some("5"), false).expect("both");
        assert_eq!(both.workers, 2);
    }

    #[test]
    fn sweep_cli_rejects_bad_jobs() {
        let zero = parse_sweep_cli(&["--jobs".into(), "0".into()], None, false);
        assert!(zero.unwrap_err().contains("out of range [1,"));
        let nan = parse_sweep_cli(&["--jobs".into(), "many".into()], None, false);
        assert!(nan.unwrap_err().contains("not a worker count"));
        let env = parse_sweep_cli(&[], Some("0"), false);
        assert!(env.unwrap_err().starts_with("NORUSH_JOBS"));
        let unknown = parse_sweep_cli(&["--frobnicate".into()], None, false);
        assert!(unknown.unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["benchmark", "lazy/eager"]);
        t.row(["pc", "1.234"]);
        t.row(["a-very-long-benchmark-name", "0.9"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("benchmark"));
        assert!(lines[1].ends_with("1.234"));
        // Right-aligned numeric column: both value lines end at the same
        // character position.
        assert_eq!(lines[1].len(), lines[2].len());
    }
}
