//! Developer probe: eager/lazy/RoW ratios for the whole suite at one scale.
use row_sim::*;
use row_workloads::Benchmark;

fn main() {
    let cores: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let instr: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6_000);
    let exp = ExperimentConfig {
        cores,
        instructions: instr,
        seed: 42,
        cycle_limit: 400_000_000,
        paper_caches: cores > 8,
        check: Default::default(),
    };
    println!(
        "{:14} {:>6} {:>7} {:>7} {:>7} {:>5}",
        "bench", "lazy", "rowUD", "rowSat", "rowUD+F", "cont%"
    );
    for b in Benchmark::all() {
        let run = |v: Variant| run_benchmark(&v.apply(exp.system()), *b, &exp).unwrap();
        let e = run(Variant::eager());
        let l = run(Variant::lazy());
        let ud = run(Variant::row(RowVariant::RwDirUd));
        let sat = run(Variant::row(RowVariant::RwDirSat));
        let udf = run(Variant::row_fwd(RowVariant::RwDirUd));
        println!(
            "{:14} {:6.3} {:7.3} {:7.3} {:7.3} {:5.0}",
            b.name(),
            l.cycles as f64 / e.cycles as f64,
            ud.cycles as f64 / e.cycles as f64,
            sat.cycles as f64 / e.cycles as f64,
            udf.cycles as f64 / e.cycles as f64,
            100.0 * e.total.contended_fraction()
        );
    }
}
