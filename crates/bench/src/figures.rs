//! The figure table: one [`Figure`] per table or figure of the paper's
//! evaluation, plus the repo's ablations and the scale-out sweep. Reports
//! read cells under the labels their own sweeps declare.

use row_common::config::{AtomicPolicy, DetectorKind, FenceModel, PredictorKind, RowConfig};
use row_common::SystemConfig;
use row_core::RowEngine;
use row_sim::{ExperimentConfig, FigureResults, JobSpec, RowVariant, Sweep, Variant};
use row_workloads::{Benchmark, MicroRmw, MicroVariant};

use crate::{bench_table, grid_variants, norm, norm_table, Figure, Summary, Table};

/// Every figure the `figure` binary regenerates, in the paper's order
/// followed by the ablations and the scale-out sweep.
pub const FIGURES: [Figure; 16] = [
    Figure {
        id: "table1",
        banner: "Table I: system parameters",
        sweeps: |exp| vec![Sweep::new("table1", exp)],
        report: table1,
    },
    Figure {
        id: "fig01",
        banner: "Fig. 1: lazy execution time normalized to eager",
        sweeps: |exp| grid("fig01", exp, Benchmark::all(), &eager_lazy()),
        report: fig01,
    },
    Figure {
        id: "fig02",
        banner: "Fig. 2: microbenchmark cycles/iteration",
        sweeps: fig02_sweeps,
        report: fig02,
    },
    Figure {
        id: "fig04",
        banner: "Fig. 4: independent instructions around atomics",
        sweeps: |exp| intensive("fig04", exp, &eager_lazy()),
        report: fig04,
    },
    Figure {
        id: "fig05",
        banner: "Fig. 5: atomic intensity and contentiousness (eager)",
        sweeps: |exp| grid("fig05", exp, Benchmark::all(), &[Variant::eager()]),
        report: fig05,
    },
    Figure {
        id: "fig06",
        banner: "Fig. 6: atomic latency breakdown, eager vs lazy",
        sweeps: |exp| intensive("fig06", exp, &eager_lazy()),
        report: fig06,
    },
    Figure {
        id: "fig09",
        banner: "Fig. 9: RoW variants vs eager and lazy (no forwarding)",
        sweeps: |exp| {
            let rows = RowVariant::ALL.map(Variant::row);
            intensive("fig09", exp, &[&eager_lazy()[..], &rows].concat())
        },
        report: |rs| {
            after_eager(&rs[0]).render()
                + "\npaper: RW+Dir_Sat best on average; EW fails on contended apps.\n"
        },
    },
    Figure {
        id: "fig10",
        banner: "Fig. 10: RW+Dir latency-threshold sweep (U/D predictor)",
        sweeps: fig10_sweeps,
        report: |rs| {
            after_eager(&rs[0]).render()
                + "\npaper: optimum at 400; 400→2000 nearly flat; 0 penalizes canneal-like apps.\n"
        },
    },
    Figure {
        id: "fig11",
        banner: "Fig. 11: mean L1D miss latency (all memory instructions)",
        sweeps: |exp| {
            let rows = [RowVariant::RwDirUd, RowVariant::RwDirSat].map(Variant::row);
            intensive("fig11", exp, &[&eager_lazy()[..], &rows].concat())
        },
        report: fig11,
    },
    Figure {
        id: "fig12",
        banner: "Fig. 12: contention-prediction accuracy",
        sweeps: |exp| {
            let rows = [RowVariant::RwDirUd, RowVariant::RwDirSat].map(Variant::row);
            intensive("fig12", exp, &rows)
        },
        report: fig12,
    },
    Figure {
        id: "fig13",
        banner: "Fig. 13: forwarding to atomics (locality override)",
        sweeps: |exp| {
            let variants = [
                Variant::eager(),
                Variant::lazy(),
                Variant::eager_fwd(),
                Variant::row(RowVariant::RwDirUd),
                row_fwd(),
                Variant::row_fwd(RowVariant::RwDirSat),
            ];
            intensive("fig13", exp, &variants)
        },
        report: fig13,
    },
    Figure {
        id: "headline",
        banner: "Headline: RoW vs always-eager (Section VI summary)",
        sweeps: |exp| {
            grid(
                "headline",
                exp,
                Benchmark::all(),
                &[Variant::eager(), row_fwd()],
            )
        },
        report: headline,
    },
    Figure {
        id: "ablation_predictor",
        banner: "Ablation: predictor table entries (RW+Dir, U/D)",
        sweeps: ablation_predictor_sweeps,
        report: ablation_predictor,
    },
    Figure {
        id: "ablation_aq",
        banner: "Ablation: Atomic Queue entries (eager execution)",
        sweeps: |exp| {
            let variants = AQ_DEPTHS.map(|d| Variant {
                name: format!("aq{d}"),
                ..Variant::eager().with_aq_entries(d)
            });
            grid("ablation_aq", exp, &AQ_BENCHES, &variants)
        },
        report: |rs| {
            let columns = AQ_DEPTHS.map(|d| (d.to_string(), format!("aq{d}")));
            let table = norm_table(&rs[0], &AQ_BENCHES, &columns, "aq16", None);
            table.render() + "\n(normalized to AQ=16)\n"
        },
    },
    Figure {
        id: "ablation_near_far",
        banner: "Ablation: near vs far atomic placement",
        sweeps: |exp| {
            let variants = [Variant::eager(), Variant::lazy(), row_fwd(), Variant::far()];
            grid("ablation_near_far", exp, &CONTENDED5, &variants)
        },
        report: ablation_near_far,
    },
    Figure {
        id: "fig_scale",
        banner: "fig_scale: policy comparison at 64/128/256 cores",
        sweeps: fig_scale_sweeps,
        report: fig_scale,
    },
];

/// The one sweep of a `(benchmark × variant)` grid.
fn grid(
    id: &str,
    exp: &ExperimentConfig,
    benches: &[Benchmark],
    variants: &[Variant],
) -> Vec<Sweep> {
    vec![Sweep::grid(id, exp, benches, variants)]
}

/// A grid over the atomic-intensive apps.
fn intensive(id: &str, exp: &ExperimentConfig, variants: &[Variant]) -> Vec<Sweep> {
    grid(id, exp, &Benchmark::atomic_intensive(), variants)
}

fn eager_lazy() -> [Variant; 2] {
    [Variant::eager(), Variant::lazy()]
}

/// The paper's best configuration: RW+Dir U/D with forwarding.
fn row_fwd() -> Variant {
    Variant::row_fwd(RowVariant::RwDirUd)
}

/// The contended and non-contended apps of the predictor and placement
/// ablations.
const CONTENDED5: [Benchmark; 5] = [
    Benchmark::Canneal,
    Benchmark::Cq,
    Benchmark::Tpcc,
    Benchmark::Sps,
    Benchmark::Pc,
];

/// Every variant after the eager baseline, normalized to eager over the
/// atomic-intensive apps, with a geomean row.
fn after_eager(r: &FigureResults) -> Table {
    let variants = grid_variants(r);
    let columns: Vec<_> = variants[1..].iter().map(|v| (v, v)).collect();
    let benches = Benchmark::atomic_intensive();
    norm_table(r, &benches, &columns, "eager", Some(Summary::Geomean))
}

fn table1(_: &[FigureResults]) -> String {
    let cfg = SystemConfig::alder_lake_32c();
    cfg.validate()
        .expect("Table I configuration is self-consistent");
    let (core, mem, noc) = (cfg.core, cfg.mem, cfg.noc);
    let cache = |x: row_common::config::CacheConfig| {
        let (kb, ways, hit) = (x.size_bytes / 1024, x.ways, x.hit_latency);
        format!("{kb}KB, {ways} ways, {hit} hit cycles")
    };
    format!(
        concat!(
            "Processor\n",
            "  Cores                        {}\n",
            "  Fetch / Issue / Commit width {} / {} / {} instructions\n",
            "  ROB / LQ / SB                {} / {} / {} entries\n",
            "  Atomic queue                 {} entries\n",
            "  Branch predictor             TAGE-lite (TAGE-SC-L substitute)\n",
            "  Mem. dep. predictor          StoreSet\n",
            "Memory\n",
            "  Private L1D cache            {}, IP-stride prefetcher\n",
            "  Private L2 cache             {}\n",
            "  Shared L3 cache              {} per bank\n",
            "  Memory access time           {} cycles\n",
            "NoC\n",
            "  Mesh                         {}x{}, {}-cycle links, {}-cycle routers\n",
        ),
        cfg.cores,
        core.fetch_width,
        core.issue_width,
        core.commit_width,
        core.rob_entries,
        core.lq_entries,
        core.sb_entries,
        core.aq_entries,
        cache(mem.l1d),
        cache(mem.l2),
        cache(mem.l3_bank),
        mem.mem_latency,
        noc.mesh_cols,
        cfg.cores.div_ceil(noc.mesh_cols),
        noc.link_latency,
        noc.router_latency,
    )
}

fn fig01(rs: &[FigureResults]) -> String {
    let benches = Benchmark::all();
    let ratios: Vec<f64> = benches
        .iter()
        .map(|&b| norm(&rs[0], b, "lazy", "eager"))
        .collect();
    let mut table = norm_table(&rs[0], benches, &[("lazy/eager", "lazy")], "eager", None);
    table.column(
        "verdict",
        ratios.iter().map(|&r| match r {
            r if r > 1.02 => "eager wins",
            r if r < 0.98 => "lazy wins",
            _ => "tie",
        }),
    );
    let gm = row_common::stats::geomean(&ratios);
    table.render()
        + &format!("\ngeomean lazy/eager: {gm:.3} (paper: green left, red right, blue flat)\n")
}

/// Loop iterations of every Fig. 2 cell.
const MB_ITERATIONS: u64 = 1_000;

/// Fig. 2's core models, each with its table caption and label suffix.
const FIG02_MODELS: [(&str, FenceModel, &str); 2] = [
    (
        "Intel i5-9400F-like (unfenced)",
        FenceModel::Unfenced,
        "unfenced",
    ),
    (
        "Intel Xeon X3210-like (fenced)",
        FenceModel::Fenced,
        "fenced",
    ),
];

fn fig02_sweeps(exp: &ExperimentConfig) -> Vec<Sweep> {
    let mut sweep = Sweep::new("fig02", exp);
    for (_, fence, tag) in FIG02_MODELS {
        for rmw in MicroRmw::ALL {
            for variant in MicroVariant::ALL {
                let iterations = MB_ITERATIONS;
                let label = format!("{}/{}/{tag}", rmw.name(), variant.name());
                sweep.push(
                    label,
                    JobSpec::Micro {
                        rmw,
                        variant,
                        fence,
                        iterations,
                    },
                );
            }
        }
    }
    vec![sweep]
}

fn fig02(rs: &[FigureResults]) -> String {
    let mut out = String::new();
    for (caption, _, tag) in FIG02_MODELS {
        let mut table = Table::new(&["rmw", "plain", "plain+mfence", "lock", "lock+mfence"]);
        for rmw in MicroRmw::ALL {
            let cpi = MicroVariant::ALL.map(|variant| {
                let cycles = rs[0].cycles(&format!("{}/{}/{tag}", rmw.name(), variant.name()));
                format!("{:.1}", cycles / MB_ITERATIONS as f64)
            });
            table.row([rmw.name().to_string()].into_iter().chain(cpi));
        }
        out += &format!("{caption}:\n{}\n", table.render());
    }
    out
}

fn fig04(rs: &[FigureResults]) -> String {
    let headers = ["older unexecuted @ eager", "younger started @ lazy"];
    let value = |c, b: Benchmark| {
        let s = rs[0].stat(&format!("{}/{}", b.name(), ["eager", "lazy"][c]));
        [s.older_unexecuted_mean, s.younger_started_mean][c]
    };
    let benches = Benchmark::atomic_intensive();
    let table = bench_table(
        &benches,
        &headers,
        value,
        |v| format!("{v:.1}"),
        Some(Summary::Mean),
    );
    table.render() + "\npaper: ~48 older unexecuted instructions on average at eager issue.\n"
}

fn fig05(rs: &[FigureResults]) -> String {
    let mut table = Table::new(&["benchmark", "atomics/10k", "contended %"]);
    for &b in Benchmark::all() {
        let s = rs[0].stat(&format!("{}/eager", b.name()));
        let (intensity, contended) = (s.atomics_per_10k(), 100.0 * s.contended_fraction());
        table.row([
            b.name().to_string(),
            format!("{intensity:.1}"),
            format!("{contended:.0}%"),
        ]);
    }
    table.render()
}

fn fig06(rs: &[FigureResults]) -> String {
    let headers = [
        "benchmark",
        "mode",
        "disp→issue",
        "issue→lock",
        "lock→unlock",
        "total",
    ];
    let mut table = Table::new(&headers);
    for b in Benchmark::atomic_intensive() {
        for mode in ["eager", "lazy"] {
            let s = rs[0].stat(&format!("{}/{mode}", b.name()));
            let phases = [
                s.breakdown_dispatch_to_issue,
                s.breakdown_issue_to_lock,
                s.breakdown_lock_to_unlock,
                s.breakdown_total(),
            ];
            let cells = phases.map(|v| format!("{v:.1}"));
            table.row([b.name(), mode].map(String::from).into_iter().chain(cells));
        }
    }
    table.render()
        + "\npaper shape: lazy grows disp→issue (blue) but shrinks issue→lock\n\
           (orange) and lock→unlock (yellow) on contended apps.\n"
}

/// Eager plus RW+Dir U/D at each latency threshold (`u64::MAX` is "inf").
fn fig10_sweeps(exp: &ExperimentConfig) -> Vec<Sweep> {
    let mut variants = vec![Variant::eager()];
    variants.extend([0, 100, 400, 1000, 2000, u64::MAX].map(|t| {
        let name = match t {
            u64::MAX => "t=inf".to_string(),
            t => format!("t={t}"),
        };
        let detector = DetectorKind::ReadyWindowDir {
            latency_threshold: t,
        };
        let policy = AtomicPolicy::Row(RowConfig::new(detector, PredictorKind::UpDown));
        Variant::custom(name, policy)
    }));
    intensive("fig10", exp, &variants)
}

fn fig11(rs: &[FigureResults]) -> String {
    let variants = grid_variants(&rs[0]);
    let value = |c, b: Benchmark| {
        rs[0]
            .stat(&format!("{}/{}", b.name(), variants[c]))
            .miss_latency_mean
    };
    let benches = Benchmark::atomic_intensive();
    let table = bench_table(&benches, &variants, value, |v| format!("{v:.0}"), None);
    table.render()
        + "\npaper: eager nearly doubles lazy's miss latency on pc/sps/tpcc;\n\
           RoW tracks lazy there and stays flat on non-contended apps.\n"
}

fn fig12(rs: &[FigureResults]) -> String {
    let variants = grid_variants(&rs[0]);
    let value = |c, b: Benchmark| {
        let s = rs[0].stat(&format!("{}/{}", b.name(), variants[c]));
        100.0 * s.accuracy.expect("RoW tracks accuracy").accuracy()
    };
    let benches = Benchmark::atomic_intensive();
    let fmt = |v| format!("{v:.0}%");
    let table = bench_table(&benches, &["U/D", "Sat"], value, fmt, Some(Summary::Mean));
    table.render() + "\npaper: 86% U/D, 73% Sat on average.\n"
}

fn fig13(rs: &[FigureResults]) -> String {
    let mut table = after_eager(&rs[0]);
    let overrides = Benchmark::atomic_intensive().into_iter().map(|b| {
        let s = rs[0].stat(&format!("{}/{}", b.name(), row_fwd().name));
        s.locality_overrides.to_string()
    });
    table.column("overrides", overrides.chain([String::new()]));
    table.render() + "\npaper: RoW(RW+Dir_U/D)+Fwd best overall; cq recovers via the override.\n"
}

fn headline(rs: &[FigureResults]) -> String {
    let (benches, row) = (Benchmark::all(), row_fwd().name);
    let table = norm_table(&rs[0], benches, &[("RoW/eager", &row)], "eager", None);
    let ratios: Vec<f64> = benches
        .iter()
        .map(|&b| norm(&rs[0], b, &row, "eager"))
        .collect();
    let mut best = (Benchmark::Pc, 1.0f64);
    for (&b, &ratio) in benches.iter().zip(&ratios) {
        if ratio < best.1 {
            best = (b, ratio);
        }
    }
    let gm = row_common::stats::geomean(&ratios);
    let bytes = RowEngine::new(RowConfig::best()).storage_bits(16) / 8;
    format!(
        concat!(
            "{}\nall-apps geomean reduction: {:.1}%\n",
            "largest reduction: {:.1}% on {}\n",
            "hardware budget: {} bytes of storage (+14-bit subtractor/comparator)\n",
            "paper: 9.2% avg (up to 43%) on atomic-intensive apps; 4.0% across all.\n",
        ),
        table.render(),
        100.0 * (1.0 - gm),
        100.0 * (1.0 - best.1),
        best.0.name(),
        bytes,
    )
}

/// Predictor table sizes of the entries ablation (Section IV-D).
const ENTRIES: [usize; 5] = [1, 4, 16, 64, 256];

/// The apps of the history ablation (Section VII).
const HISTORY_BENCHES: [Benchmark; 4] = [
    Benchmark::Canneal,
    Benchmark::Tpcc,
    Benchmark::Sps,
    Benchmark::Pc,
];

fn ablation_predictor_sweeps(exp: &ExperimentConfig) -> Vec<Sweep> {
    let rw_dir = |pred| RowConfig::new(DetectorKind::rw_dir_default(), pred);
    let mut entries = vec![Variant::eager()];
    entries.extend(ENTRIES.map(|n| {
        let cfg = RowConfig {
            predictor_entries: n,
            ..rw_dir(PredictorKind::UpDown)
        };
        Variant::custom(format!("e{n}"), AtomicPolicy::Row(cfg))
    }));
    let hist = [
        Variant::eager(),
        Variant::custom("U/D", AtomicPolicy::Row(rw_dir(PredictorKind::UpDown))),
        Variant::custom("History", AtomicPolicy::Row(rw_dir(PredictorKind::History))),
    ];
    vec![
        Sweep::grid("ablation_predictor_entries", exp, &CONTENDED5, &entries),
        Sweep::grid("ablation_predictor_history", exp, &HISTORY_BENCHES, &hist),
    ]
}

fn ablation_predictor(rs: &[FigureResults]) -> String {
    let columns = ENTRIES.map(|n| (n.to_string(), format!("e{n}")));
    let entries = norm_table(&rs[0], &CONTENDED5, &columns, "eager", None);
    let columns = [("U/D", "U/D"), ("History", "History")];
    let history = norm_table(&rs[1], &HISTORY_BENCHES, &columns, "eager", None);
    entries.render()
        + "(normalized to eager)\n\
           \npaper: fewer entries → aliasing; contended apps lose their lazy win.\n\
           \nhistory ablation (64 entries, normalized to eager):\n"
        + &history.render()
}

/// Atomic Queue depths of the AQ ablation; the deepest is the baseline.
const AQ_DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

const AQ_BENCHES: [Benchmark; 3] = [Benchmark::Canneal, Benchmark::Sps, Benchmark::Pc];

fn ablation_near_far(rs: &[FigureResults]) -> String {
    let row = row_fwd().name;
    let columns = [
        ("eager", "eager"),
        ("lazy", "lazy"),
        ("RoW+Fwd", row.as_str()),
        ("far", "far"),
    ];
    let table = norm_table(&rs[0], &CONTENDED5, &columns, "eager", None);
    table.render()
        + "\nfar avoids lock-holding on hot lines but pays a round trip per\n\
           atomic and loses locality — the paper's reason to stay near + RoW.\n"
}

/// The swept core counts: the `huge` tier's three mesh geometries.
const SCALE_CORES: [usize; 3] = [64, 128, 256];

/// Every policy in the scale-out sweep, eager first.
fn fig_scale_variants() -> [Variant; 6] {
    [
        Variant::eager(),
        Variant::lazy(),
        Variant::eager_fwd(),
        Variant::far(),
        Variant::row(RowVariant::RwDirUd),
        row_fwd(),
    ]
}

/// pc under every policy at 64/128/256 cores (Table I per-core hierarchy
/// on an 8×8 / 16×8 / 16×16 mesh); the instructions per thread follow the
/// base scale.
fn fig_scale_sweeps(base: &ExperimentConfig) -> Vec<Sweep> {
    let mut sweep = Sweep::new("fig_scale", base);
    for cores in SCALE_CORES {
        for variant in fig_scale_variants() {
            // Room for the 256-core worst case; cells are retried at 4x on
            // a first timeout anyway.
            let cycle_limit = base.cycle_limit.max(400_000_000);
            let exp = ExperimentConfig {
                cores,
                paper_caches: true,
                cycle_limit,
                ..*base
            };
            let label = format!("pc/{}@c{cores}", variant.name);
            sweep.push(
                label,
                JobSpec::Bench {
                    bench: Benchmark::Pc,
                    variant,
                    exp,
                },
            );
        }
    }
    vec![sweep]
}

fn fig_scale(rs: &[FigureResults]) -> String {
    let mut table = Table::new(&[
        "cores",
        "eager",
        "lazy",
        "eager+fwd",
        "far",
        "RoW",
        "RoW+fwd",
    ]);
    for cores in SCALE_CORES {
        let cycles = |v: &str| rs[0].cycles(&format!("pc/{v}@c{cores}"));
        let cells =
            fig_scale_variants().map(|v| format!("{:.3}", cycles(&v.name) / cycles("eager")));
        table.row([cores.to_string()].into_iter().chain(cells));
    }
    "cycles normalized to eager at the same core count:\n".to_string() + &table.render()
}
