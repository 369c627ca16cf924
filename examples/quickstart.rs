//! Quickstart: simulate one benchmark under the three atomic-execution
//! disciplines and print the paper's headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark] [cores]
//! ```

use norush::sim::{run_benchmark, ExperimentConfig, RowVariant, Variant};
use norush::workloads::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let bench_name = args.next().unwrap_or_else(|| "pc".to_string());
    let cores: usize = args.next().map(|c| c.parse()).transpose()?.unwrap_or(8);

    let bench = *Benchmark::all()
        .iter()
        .find(|b| b.name() == bench_name)
        .ok_or_else(|| {
            format!(
                "unknown benchmark {bench_name}; try one of {:?}",
                Benchmark::all()
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
            )
        })?;

    let mut exp = ExperimentConfig::quick();
    exp.cores = cores;

    println!(
        "simulating `{bench}` on {cores} cores ({} instructions/thread)…\n",
        exp.instructions
    );

    let run = |v: Variant| run_benchmark(&v.apply(exp.system()), bench, &exp);
    let eager = run(Variant::eager())?;
    let lazy = run(Variant::lazy())?;
    let row = run(Variant::row_fwd(RowVariant::RwDirUd))?;

    println!("policy              cycles   vs eager   IPC");
    for (name, r) in [
        ("eager", &eager),
        ("lazy", &lazy),
        ("RoW (RW+Dir_U/D+Fwd)", &row),
    ] {
        println!(
            "{name:20} {:>8}   {:>7.3}   {:>5.2}",
            r.cycles,
            r.cycles as f64 / eager.cycles as f64,
            r.ipc()
        );
    }
    println!(
        "\natomics: {}  detected contended: {:.0}%  (RoW ran {} eager / {} lazy)",
        row.total.atomics,
        100.0 * row.total.contended_fraction(),
        row.total.atomics_eager,
        row.total.atomics_lazy,
    );
    if let Some(acc) = row.accuracy {
        println!(
            "contention-prediction accuracy: {:.0}%",
            100.0 * acc.accuracy()
        );
    }
    Ok(())
}
