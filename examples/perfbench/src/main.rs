//! `perfbench` — the norush host-performance benchmark.
//!
//! Four single-threaded workloads time the simulator end to end (untraced
//! passes) and per layer (one traced pass built on `Machine::run_profiled`
//! plus timers around public calls), and check every simulated output:
//! seed-42 outputs against `pins.json`, any other seed for agreement
//! between passes, resumed runs against uninterrupted ones, and the
//! simulator's own checkers. The metric names, units and bounds are those
//! of the repository's `BENCHMARK.json`. See README.md for the workloads,
//! the metric definitions and the commands.

mod compare;
mod host;
mod stats;
mod suite;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use norush::common::json::{escape, fmt_f64, parse, Value};

use suite::{Plan, Report, Workload};

const USAGE: &str = "\
usage: perfbench [--workload W[,W...]] [--passes N | --seconds S] [--traced | --trace 0|1]
                 [--seed S] [--out DIR]
       perfbench --compare A.json[,A2.json...] B.json[,B2.json...]

workloads: explore-litmus lossy-service-32 busy-32 contended-256 (default: all)
  --passes N     timed passes per workload (default 3; 5 for busy-32)
  --seconds S    instead, start passes while the next one ends within S seconds
  --traced       also run the traced pass and write layers.json (= --trace 1)
  --seed S       workload seed (default 42; seed 42 is checked against pins.json)
  --out DIR      where results.json and layers.json go (default target/perfbench)
  --compare      verdict of side B against side A per workload and end-to-end
                 metric; exits 1 when any metric got worse than its bound

Prints `workload metric value unit` per metric, then one JSON summary line.
Exits 1 when any check failed, 2 on a usage error.";

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn spec() -> Spec {
    let doc = parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<MetricSpec> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| MetricSpec {
                name: m.get("name").and_then(Value::as_str).expect("name").into(),
                unit: m.get("unit").and_then(Value::as_str).expect("unit").into(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    Spec {
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
    }
}

/// Checks every cell of `r` against `pins.json`, when the run used the
/// pinned seed.
fn check_pins(r: &mut Report, seed: u64) {
    let pins = parse(include_str!("../pins.json")).expect("pins.json parses");
    if pins.get("seed").and_then(Value::as_u64) != Some(seed) {
        return;
    }
    for rec in &r.cells {
        r.attempted += 1;
        let key = format!("{}/{}", r.workload.name(), rec.cell);
        let Some(Value::Object(pin)) = pins.get("cells").and_then(|c| c.get(&key)) else {
            r.failures.push(format!("{key}: no pinned output"));
            continue;
        };
        for (k, v) in pin {
            let ok = match k.as_str() {
                "fingerprint" => v.as_str() == Some(&format!("{:016x}", rec.fingerprint())),
                _ => v.as_u64().is_some() && v.as_u64() == rec.get(k),
            };
            if !ok {
                r.failures.push(format!(
                    "{key}: {k} is {} but {} is pinned",
                    match k.as_str() {
                        "fingerprint" => format!("{:016x}", rec.fingerprint()),
                        _ => rec.get(k).map_or("missing".into(), |x| x.to_string()),
                    },
                    match v {
                        Value::Str(s) => s.clone(),
                        other => format!("{other:?}"),
                    }
                ));
            }
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    /// `None`: each workload's default pass count.
    plan: Option<Plan>,
    traced: bool,
    seed: u64,
    out: PathBuf,
}

enum Command {
    Help,
    Run(Options),
    Compare(Vec<String>, Vec<String>),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        plan: None,
        traced: false,
        seed: 42,
        out: PathBuf::from("target/perfbench"),
    };
    let (mut passes, mut seconds) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--traced" => o.traced = true,
            "--compare" => {
                let list = |s: &String| s.split(',').map(str::to_string).collect();
                let a = list(value()?);
                let b = list(value()?);
                return Ok(Command::Compare(a, b));
            }
            "--workload" => {
                o.workloads = value()?
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--passes" => {
                let n: usize = value()?.parse().map_err(|e| format!("--passes: {e}"))?;
                if n == 0 {
                    return Err("--passes must be at least 1".into());
                }
                passes = Some(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => match value()?.as_str() {
                "0" => o.traced = false,
                "1" => o.traced = true,
                v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
            },
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    o.plan = passes.map(Plan::Passes).or(seconds.map(Plan::Seconds));
    Ok(Command::Run(o))
}

/// `results.json`: every end-to-end metric with its samples, and every
/// cell's simulated output.
fn results_json(o: &Options, reports: &[Report]) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"norush-perfbench-v1\",\n  \"seed\": {},\n  \"workloads\": {{",
        o.seed
    );
    for (i, r) in reports.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\": {{\n      \"passes\": {},\n      \"attempted\": {},\n      \
             \"failed\": {},\n      \"failures\": [{}],\n      \"cells\": {{",
            if i > 0 { "," } else { "" },
            r.workload.name(),
            r.passes,
            r.attempted,
            r.failures.len(),
            r.failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (j, c) in r.cells.iter().enumerate() {
            let counts: String = c
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}, "))
                .collect();
            let _ = write!(
                s,
                "{}\n        \"{}\": {{{counts}\"fingerprint\": \"{:016x}\"}}",
                if j > 0 { "," } else { "" },
                escape(&c.cell),
                c.fingerprint()
            );
        }
        let kernel: Vec<String> = r.kernel_s.iter().map(|&x| fmt_f64(x)).collect();
        let _ = write!(
            s,
            "\n      }},\n      \"host_kernel_s\": {{\"reference\": {}, \"samples\": [{}]}},\n      \"metrics\": {{",
            fmt_f64(host::REFERENCE_S),
            kernel.join(", ")
        );
        for (j, m) in r.e2e.iter().enumerate() {
            let samples: Vec<String> = m.samples.iter().map(|&x| fmt_f64(x)).collect();
            let _ = write!(
                s,
                "{}\n        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"min\": {}, \"max\": {}, \
                 \"n\": {}, \"samples\": [{}]}}",
                if j > 0 { "," } else { "" },
                m.name,
                m.unit,
                fmt_f64(m.median()),
                fmt_f64(m.min()),
                fmt_f64(m.max()),
                m.samples.len(),
                samples.join(", ")
            );
        }
        s.push_str("\n      }\n    }");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// `layers.json`: the traced pass's per-layer metrics.
fn layers_json(o: &Options, reports: &[Report]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let layers: Vec<String> = r
                .layers
                .iter()
                .map(|l| {
                    format!(
                        "\n      \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        l.name,
                        fmt_f64(l.value),
                        l.unit
                    )
                })
                .collect();
            format!(
                "\n    \"{}\": {{{}\n    }}",
                r.workload.name(),
                layers.join(",")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"norush-perfbench-layers-v1\",\n  \"seed\": {},\n  \"workloads\": {{{}\n  }}\n}}\n",
        o.seed,
        workloads.join(",")
    )
}

/// Writes `name` under the output directory via a temporary file.
fn write_out(o: &Options, name: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&o.out)?;
    let path = o.out.join(name);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, &path)?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

/// The last line of standard output: the metrics `BENCHMARK.json` lists
/// for this mode (end-to-end untraced, per-layer traced), keyed by name,
/// or by `workload/name` when several workloads ran.
fn summary_line(spec: &Spec, o: &Options, reports: &mut [Report]) -> String {
    let list = if o.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for r in reports.iter_mut() {
        for m in list {
            let value = if o.traced {
                r.layers.iter().find(|l| l.name == m.name).map(|l| l.value)
            } else {
                r.e2e.iter().find(|s| s.name == m.name).map(|s| s.median())
            };
            let key = if single {
                m.name.clone()
            } else {
                format!("{}/{}", r.workload.name(), m.name)
            };
            match value {
                Some(v) => metrics.push(format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    fmt_f64(v),
                    m.unit
                )),
                None => {
                    r.attempted += 1;
                    r.failures.push(format!("{key}: metric not measured"));
                }
            }
        }
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failures.len()).sum();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn run(o: Options) -> ExitCode {
    let spec = spec();
    let mut reports = Vec::new();
    for (i, &w) in o.workloads.iter().enumerate() {
        if i > 0 {
            host::reset_peak_rss();
        }
        let plan = o.plan.unwrap_or(Plan::Passes(w.default_passes()));
        eprintln!("perfbench: {} (seed {})", w.name(), o.seed);
        let mut r = suite::run(w, o.seed, plan, o.traced);
        check_pins(&mut r, o.seed);
        for c in &r.cells {
            eprintln!(
                "  cell {:<6} {} fingerprint {:016x}",
                c.cell,
                c.counts
                    .iter()
                    .take(4)
                    .map(|(k, v)| format!("{k} {v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                c.fingerprint()
            );
        }
        for m in &r.e2e {
            println!("{} {} {} {}", w.name(), m.name, fmt_f64(m.median()), m.unit);
            eprintln!(
                "  {:<12} median {:.6} min {:.6} max {:.6} n {}",
                m.name,
                m.median(),
                m.min(),
                m.max(),
                m.samples.len()
            );
        }
        for l in &r.layers {
            println!("{} {} {} {}", w.name(), l.name, fmt_f64(l.value), l.unit);
        }
        for f in &r.failures {
            eprintln!("  FAILED {f}");
        }
        reports.push(r);
    }
    let line = summary_line(&spec, &o, &mut reports);
    let mut io = write_out(&o, "results.json", &results_json(&o, &reports));
    if o.traced {
        io = io.and(write_out(&o, "layers.json", &layers_json(&o, &reports)));
    }
    println!("{line}");
    let failed = reports.iter().any(|r| !r.failures.is_empty());
    match io {
        Err(e) => {
            eprintln!("perfbench: cannot write to {}: {e}", o.out.display());
            ExitCode::FAILURE
        }
        Ok(()) if failed => ExitCode::FAILURE,
        Ok(()) => ExitCode::SUCCESS,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Compare(a, b)) => match compare::run(&spec(), &a, &b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(o)) => run(o),
    }
}
