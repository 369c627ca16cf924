//! The figure driver: regenerates every table and figure of the paper's
//! evaluation from one table.
//!
//! [`FIGURES`] holds one [`Figure`] per table or figure: the [`Sweep`]s it
//! runs and the report that renders their results. The `figure` binary
//! (`figure <id>... [--jobs N] [--resume]`) prints each figure's banner,
//! runs its sweeps on the `row_sim` sweep engine, which executes each grid on a
//! worker pool and writes the unified `BENCH_<sweep>.json` results file,
//! and prints the report.
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
//! * `--jobs N` — worker threads (default: all host cores).
//! * `--resume` — skip cells already present in the sweep's
//!   `BENCH_<sweep>.json` under matching config fingerprints.
//! * `NORUSH_CKPT_DIR` (+ optional `NORUSH_CKPT_EVERY`) — per-cell machine
//!   checkpointing for crash resilience inside long cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use figures::FIGURES;
use row_sim::{
    available_workers, parse_workers, ExperimentConfig, FigureResults, Sweep, SweepCheckpoint,
    SweepError, SweepEvent, SweepOptions,
};
use row_workloads::Benchmark;

/// One table or figure the `figure` binary regenerates.
#[derive(Debug)]
pub struct Figure {
    /// The command-line id (`"fig01"`, `"headline"`, …).
    pub id: &'static str,
    /// The banner text, printed as `== <banner> ==`.
    pub banner: &'static str,
    /// The sweeps the figure runs at a base scale, in order; each writes
    /// `BENCH_<sweep figure id>.json`.
    pub sweeps: fn(&ExperimentConfig) -> Vec<Sweep>,
    /// Renders the figure from its sweeps' results, in sweep order.
    pub report: fn(&[FigureResults]) -> String,
}

/// Looks `id` up in [`FIGURES`]; the error lists the valid ids.
fn figure(id: &str) -> Result<&'static Figure, String> {
    let found = FIGURES.iter().find(|f| f.id == id);
    found.ok_or_else(|| format!("unknown figure `{id}`\n{}", usage()))
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    format!(
        "usage: figure <id>... [--jobs N] [--resume]\nids: {}",
        ids.join(" ")
    )
}

/// The experiment scale selected through `NORUSH_SCALE`.
pub(crate) fn scale() -> ExperimentConfig {
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
        _ => ExperimentConfig::quick(),
    }
}

/// The `figure` binary's command line.
#[derive(Debug)]
pub struct SweepCli {
    /// The figures to regenerate, in command-line order.
    pub figures: Vec<&'static Figure>,
    /// Worker threads per sweep.
    pub workers: usize,
    /// Whether to reuse matching cells from an existing results file.
    pub resume: bool,
    /// Per-cell machine checkpointing ([`parse_checkpoint`]).
    pub checkpoint: Option<SweepCheckpoint>,
}

/// Parses `<id>... [--jobs N] [--resume]`.
///
/// # Errors
/// A printable message for a missing or unknown id (listing the valid
/// ids), an unknown flag, or a worker count that is non-numeric or outside
/// `[1, MAX_WORKERS]` ([`row_sim::parse_workers`]).
pub fn parse_sweep_cli(args: &[String]) -> Result<SweepCli, String> {
    let mut cli = SweepCli {
        figures: Vec::new(),
        workers: available_workers(),
        resume: false,
        checkpoint: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            let v = it.next().ok_or("--jobs: missing worker count")?;
            cli.workers = parse_workers("--jobs", v)?;
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            cli.workers = parse_workers("--jobs", v)?;
        } else if a == "--resume" {
            cli.resume = true;
        } else if a.starts_with('-') {
            return Err(format!("`{a}`: unknown argument\n{}", usage()));
        } else {
            cli.figures.push(figure(a)?);
        }
    }
    if cli.figures.is_empty() {
        return Err(usage());
    }
    Ok(cli)
}

/// Per-cell machine checkpointing from the `NORUSH_CKPT_DIR` and
/// `NORUSH_CKPT_EVERY` values: `None` without a directory, else a
/// checkpoint every `every` cycles (default 1 M) into `dir`, which is
/// created.
///
/// # Errors
/// A printable message when `every` is not a positive cycle count or
/// `dir` cannot be created.
pub fn parse_checkpoint(
    dir: Option<&str>,
    every: Option<&str>,
) -> Result<Option<SweepCheckpoint>, String> {
    let every = match every.map(str::parse::<u64>) {
        None => 1_000_000,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            let v = every.unwrap_or_default();
            return Err(format!(
                "NORUSH_CKPT_EVERY: `{v}` is not a positive cycle count"
            ));
        }
    };
    let Some(dir) = dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("NORUSH_CKPT_DIR: cannot create `{dir}`: {e}"))?;
    Ok(Some(SweepCheckpoint {
        every,
        dir: PathBuf::from(dir),
    }))
}

/// Prints `fig`'s banner at the `NORUSH_SCALE` scale, runs its sweeps and
/// prints its report.
///
/// # Errors
/// The first sweep failure (after the engine's raised-budget timeout
/// retry).
pub fn run_figure(fig: &Figure, cli: &SweepCli) -> Result<(), SweepError> {
    let exp = scale();
    let sweeps = (fig.sweeps)(&exp);
    println!("== {} ==", fig.banner);
    // The scale line is left out when the figure simulates nothing.
    if sweeps.iter().any(|s| !s.jobs.is_empty()) {
        println!(
            "   scale: {} cores, {} instructions/thread ({} caches) — set NORUSH_SCALE=quick|mid|paper|huge",
            exp.cores,
            exp.instructions,
            if exp.paper_caches { "Table I" } else { "scaled" }
        );
    }
    println!();
    let results: Vec<_> = sweeps
        .iter()
        .map(|s| run_sweep(s, cli))
        .collect::<Result<_, _>>()?;
    print!("{}", (fig.report)(&results));
    Ok(())
}

/// Executes one sweep with the command-line options, streaming per-job
/// progress to stderr and persisting `BENCH_<figure>.json` incrementally.
///
/// # Errors
/// The sweep's first failing job, or an unwritable results file.
pub(crate) fn run_sweep(sweep: &Sweep, cli: &SweepCli) -> Result<FigureResults, SweepError> {
    let path = PathBuf::from(format!("BENCH_{}.json", sweep.figure));
    let total = sweep.jobs.len();
    eprintln!(
        "   sweep: {} jobs on {} workers{}",
        total,
        cli.workers.min(total.max(1)),
        if cli.resume { ", resume on" } else { "" }
    );
    let done = AtomicUsize::new(0);
    let progress = |ev: &SweepEvent<'_>| {
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        match *ev {
            SweepEvent::Finished {
                label,
                wall_s,
                retried,
            } => {
                let retry = if retried {
                    "  (retried, 4x budget)"
                } else {
                    ""
                };
                eprintln!("   [{k}/{total}] {label}  {wall_s:.1}s{retry}");
            }
            SweepEvent::Cached { label } => eprintln!("   [{k}/{total}] {label}  (cached)"),
        }
    };
    let opts = SweepOptions {
        workers: cli.workers,
        results_path: Some(path.clone()),
        resume: cli.resume,
        checkpoint: cli.checkpoint.clone(),
        progress: Some(&progress),
    };
    let r = sweep.run(&opts)?;
    eprintln!("   wrote {}\n", path.display());
    Ok(r)
}

/// A cell's cycles normalized to a baseline variant on the same benchmark
/// (grid labels, i.e. `"<bench>/<variant>"`).
///
/// # Panics
/// When either label is missing from the results.
pub(crate) fn norm(r: &FigureResults, bench: Benchmark, variant: &str, baseline: &str) -> f64 {
    r.cycles(&format!("{}/{variant}", bench.name()))
        / r.cycles(&format!("{}/{baseline}", bench.name()))
}

/// The variant axis of grid results (labels `"<bench>/<variant>"`,
/// benchmark-major): the first benchmark's variants, in declaration order.
pub(crate) fn grid_variants(r: &FigureResults) -> Vec<&str> {
    let mut variants = Vec::new();
    for (_, v) in r.jobs.iter().filter_map(|j| j.label.split_once('/')) {
        if variants.contains(&v) {
            break;
        }
        variants.push(v);
    }
    variants
}

/// The summary row closing a [`bench_table`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Summary {
    /// A `geomean` row: each column's geometric mean.
    Geomean,
    /// A `mean` row: each column's arithmetic mean.
    Mean,
}

/// A table with one row per benchmark and one column per header: the cell
/// of benchmark `b` in column `c` shows `fmt(value(c, b))`. `summary` adds
/// a final row that formats each column's summary the same way.
pub(crate) fn bench_table<S: AsRef<str>>(
    benches: &[Benchmark],
    headers: &[S],
    value: impl Fn(usize, Benchmark) -> f64,
    fmt: fn(f64) -> String,
    summary: Option<Summary>,
) -> Table {
    let mut names = vec!["benchmark"];
    names.extend(headers.iter().map(AsRef::as_ref));
    let mut table = Table::new(&names);
    let columns: Vec<Vec<f64>> = (0..headers.len())
        .map(|c| benches.iter().map(|&b| value(c, b)).collect())
        .collect();
    for (i, b) in benches.iter().enumerate() {
        let cells = columns.iter().map(|col| fmt(col[i]));
        table.row(std::iter::once(b.name().to_string()).chain(cells));
    }
    let (label, reduce): (&str, fn(&[f64]) -> f64) = match summary {
        None => return table,
        Some(Summary::Geomean) => ("geomean", row_common::stats::geomean),
        Some(Summary::Mean) => ("mean", |v| v.iter().sum::<f64>() / v.len() as f64),
    };
    let cells = columns.iter().map(|col| fmt(reduce(col)));
    table.row(std::iter::once(label.to_string()).chain(cells));
    table
}

/// A [`bench_table`] of cycles normalized to `baseline` ([`norm`]), one
/// column per `(header, variant)` pair, to three decimals.
pub(crate) fn norm_table<H: AsRef<str>, V: AsRef<str>>(
    r: &FigureResults,
    benches: &[Benchmark],
    columns: &[(H, V)],
    baseline: &str,
    summary: Option<Summary>,
) -> Table {
    let headers: Vec<&str> = columns.iter().map(|(h, _)| h.as_ref()).collect();
    bench_table(
        benches,
        &headers,
        |c, b| norm(r, b, columns[c].1.as_ref(), baseline),
        |v| format!("{v:.3}"),
        summary,
    )
}

/// A plain-text table: auto-sized columns, first column left-aligned, the
/// rest right-aligned — the shared formatter behind every figure's output.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub(crate) fn new<S: AsRef<str>>(headers: &[S]) -> Table {
        Table {
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// When the cell count does not match the header count.
    pub(crate) fn row<I>(&mut self, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends one column, one cell per existing row.
    ///
    /// # Panics
    /// When the cell count does not match the row count.
    pub(crate) fn column<I>(&mut self, header: &str, cells: I)
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.rows.len(), "column height mismatch");
        self.headers.push(header.to_string());
        for (row, cell) in self.rows.iter_mut().zip(cells) {
            row.push(cell);
        }
    }

    /// Renders the table to a string (trailing newline included).
    pub(crate) fn render(&self) -> String {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::stats::JobStats;
    use row_sim::JobRecord;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_scale_is_quick() {
        if std::env::var("NORUSH_SCALE").is_err() {
            assert_eq!(scale().cores, 8);
        }
    }

    #[test]
    fn sweep_cli_defaults_and_flags() {
        let d = parse_sweep_cli(&args(&["fig01"])).expect("defaults parse");
        assert!(d.workers >= 1);
        assert!(!d.resume);
        assert_eq!(d.figures[0].id, "fig01");
        let j = parse_sweep_cli(&args(&["--jobs", "3", "headline", "--resume", "fig01"]))
            .expect("flags parse");
        assert_eq!((j.workers, j.resume), (3, true));
        let ids: Vec<&str> = j.figures.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["headline", "fig01"]);
        let eq = parse_sweep_cli(&args(&["fig05", "--jobs=2"])).expect("--jobs=N parses");
        assert_eq!(eq.workers, 2);
    }

    #[test]
    fn sweep_cli_rejects_bad_jobs() {
        let zero = parse_sweep_cli(&args(&["fig01", "--jobs", "0"]));
        assert!(zero.unwrap_err().contains("out of range [1,"));
        let nan = parse_sweep_cli(&args(&["fig01", "--jobs", "many"]));
        assert!(nan.unwrap_err().contains("not a worker count"));
        let unknown = parse_sweep_cli(&args(&["fig01", "--frobnicate"]));
        assert!(unknown.unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn missing_or_unknown_ids_list_the_valid_ones() {
        let none = parse_sweep_cli(&args(&["--jobs", "2"])).unwrap_err();
        assert!(none.starts_with("usage: figure <id>..."), "{none}");
        assert!(none.contains("ids: table1 fig01 fig02"), "{none}");
        let err = parse_sweep_cli(&args(&["fig03"])).unwrap_err();
        assert!(err.starts_with("unknown figure `fig03`"), "{err}");
        assert!(err.contains("ablation_near_far fig_scale"), "{err}");
        assert_eq!(figure("fig03").unwrap_err(), err);
    }

    #[test]
    fn figure_ids_are_unique_and_complete() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            [
                "table1",
                "fig01",
                "fig02",
                "fig04",
                "fig05",
                "fig06",
                "fig09",
                "fig10",
                "fig11",
                "fig12",
                "fig13",
                "headline",
                "ablation_predictor",
                "ablation_aq",
                "ablation_near_far",
                "fig_scale"
            ]
        );
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate figure id");
    }

    #[test]
    fn checkpoint_settings_are_validated() {
        assert!(parse_checkpoint(None, None).expect("off").is_none());
        let dir = std::env::temp_dir().join(format!("norush_ckpt_cli_{}", std::process::id()));
        let d = dir.to_str().expect("utf-8 temp dir");
        let on = parse_checkpoint(Some(d), None).expect("default interval");
        assert_eq!(on.expect("on").every, 1_000_000);
        assert!(dir.is_dir(), "the directory is created");
        assert_eq!(
            parse_checkpoint(Some(d), Some("500"))
                .unwrap()
                .unwrap()
                .every,
            500
        );
        for bad in ["often", "0", "-5"] {
            let err = parse_checkpoint(Some(d), Some(bad)).unwrap_err();
            assert!(err.contains("not a positive cycle count"), "{err}");
        }
        // A directory under a regular file cannot be created.
        let file = dir.join("file");
        std::fs::write(&file, b"").unwrap();
        let bad = file.join("ckpts");
        let err = parse_checkpoint(bad.to_str(), None).unwrap_err();
        assert!(err.starts_with("NORUSH_CKPT_DIR: cannot create"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["benchmark", "lazy/eager"]);
        t.row(["pc", "1.234"]);
        t.row(["a-very-long-benchmark-name", "0.9"]);
        t.column("verdict", ["tie", "lazy wins"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("benchmark"));
        assert!(lines[0].ends_with("verdict"));
        assert!(lines[1].ends_with("tie"));
        // Right-aligned columns: both value lines end at the same
        // character position.
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn bench_table_summarizes_columns() {
        let benches = [Benchmark::Pc, Benchmark::Sps];
        let t = bench_table(
            &benches,
            &["x", "y"],
            |c, b| {
                if b == Benchmark::Pc {
                    2.0
                } else {
                    8.0 * (c + 1) as f64
                }
            },
            |v| format!("{v:.1}"),
            Some(Summary::Geomean),
        );
        let last_row = |t: &Table| -> Vec<String> {
            let text = t.render();
            let last = text.lines().last().expect("rows");
            last.split_whitespace().map(String::from).collect()
        };
        assert_eq!(last_row(&t), ["geomean", "4.0", "5.7"]);
        let m = bench_table(
            &benches,
            &["x"],
            |_, _| 3.0,
            |v| format!("{v:.1}"),
            Some(Summary::Mean),
        );
        assert_eq!(last_row(&m), ["mean", "3.0"]);
    }

    /// Each figure's report finds every cell it reads under the labels its
    /// own sweeps declare. Cells run at a tiny scale; `fig_scale` forces
    /// 64–256 cores, so its report renders from placeholder stats instead.
    #[test]
    fn every_figure_renders_from_its_own_sweeps() {
        let tiny = ExperimentConfig {
            cores: 2,
            instructions: 300,
            seed: 42,
            cycle_limit: 10_000_000,
            paper_caches: false,
            check: Default::default(),
        };
        for fig in &FIGURES {
            let sweeps = (fig.sweeps)(&tiny);
            assert!(!sweeps.is_empty(), "{}", fig.id);
            let results: Vec<FigureResults> = sweeps
                .iter()
                .map(|s| {
                    assert!(s.figure.starts_with(fig.id), "{} names its files", fig.id);
                    if fig.id != "fig_scale" {
                        return s.run(&SweepOptions::default()).expect(fig.id);
                    }
                    let jobs = s.jobs.iter().map(|j| JobRecord {
                        label: j.label.clone(),
                        fingerprint: j.fingerprint(),
                        stats: JobStats {
                            cycles: 1,
                            ..JobStats::default()
                        },
                        wall_s: 0.0,
                        retried: false,
                    });
                    FigureResults {
                        figure: s.figure.clone(),
                        cores: s.exp.cores,
                        instructions_per_core: s.exp.instructions,
                        config_fingerprint: s.config_fingerprint(),
                        jobs_used: 1,
                        wall_s: 0.0,
                        jobs: jobs.collect(),
                    }
                })
                .collect();
            let text = (fig.report)(&results);
            assert!(text.ends_with('\n'), "{}: {text}", fig.id);
        }
    }
}
