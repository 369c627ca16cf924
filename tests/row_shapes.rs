//! Figure-shape regression tests: the qualitative results the paper reports
//! must hold on the scaled-down CI configuration. These are the guardrails
//! that keep recalibration honest.

use norush::common::config::{AtomicPolicy, DetectorKind, FenceModel, PredictorKind, RowConfig};
use norush::sim::{
    run_benchmark, run_microbench, ExperimentConfig, RowVariant, RunResult, SimError, Variant,
};
use norush::workloads::{Benchmark, MicroRmw, MicroVariant};

/// `bench` under `variant` at scale `e`.
fn run(bench: Benchmark, variant: Variant, e: &ExperimentConfig) -> Result<RunResult, SimError> {
    run_benchmark(&variant.apply(e.system()), bench, e)
}

fn exp() -> ExperimentConfig {
    ExperimentConfig {
        cores: 8,
        instructions: 5_000,
        seed: 42,
        cycle_limit: 100_000_000,
        paper_caches: false,
        check: norush::common::config::CheckConfig::default(),
    }
}

#[test]
fn fig1_eager_wins_on_noncontended_canneal() {
    let e = run(Benchmark::Canneal, Variant::eager(), &exp()).unwrap();
    let l = run(Benchmark::Canneal, Variant::lazy(), &exp()).unwrap();
    assert!(
        (l.cycles as f64) > 1.10 * e.cycles as f64,
        "canneal: lazy {} must clearly lose to eager {}",
        l.cycles,
        e.cycles
    );
}

#[test]
fn fig1_lazy_wins_on_contended_pc() {
    let e = run(Benchmark::Pc, Variant::eager(), &exp()).unwrap();
    let l = run(Benchmark::Pc, Variant::lazy(), &exp()).unwrap();
    assert!(
        (l.cycles as f64) < 0.90 * e.cycles as f64,
        "pc: lazy {} must clearly beat eager {}",
        l.cycles,
        e.cycles
    );
}

#[test]
fn fig5_intensity_and_contention_orderings() {
    let e = exp();
    let pc = run(Benchmark::Pc, Variant::eager(), &e).unwrap().total;
    let canneal = run(Benchmark::Canneal, Variant::eager(), &e).unwrap().total;
    let fmm = run(Benchmark::Fmm, Variant::eager(), &e).unwrap().total;
    assert!(pc.atomics_per_10k() > canneal.atomics_per_10k());
    assert!(canneal.atomics_per_10k() > fmm.atomics_per_10k());
    assert!(pc.contended_fraction() > 0.4);
    // canneal's sharing is migratory, not contended: well below pc's level.
    assert!(canneal.contended_fraction() < 0.25);
    assert!(pc.contended_fraction() > 2.0 * canneal.contended_fraction());
}

#[test]
fn fig6_lazy_shifts_latency_from_lock_to_issue() {
    let e = run(Benchmark::Pc, Variant::eager(), &exp())
        .unwrap()
        .total
        .breakdown;
    let l = run(Benchmark::Pc, Variant::lazy(), &exp())
        .unwrap()
        .total
        .breakdown;
    // Lazy waits longer to issue…
    assert!(l.dispatch_to_issue.mean() > e.dispatch_to_issue.mean());
    // …and in exchange acquires the contended line faster.
    assert!(l.issue_to_lock.mean() < e.issue_to_lock.mean());
}

#[test]
fn fig9_row_tracks_the_winner_on_both_extremes() {
    let e = exp();
    for bench in [Benchmark::Canneal, Benchmark::Pc] {
        let eager = run(bench, Variant::eager(), &e).unwrap().cycles as f64;
        let lazy = run(bench, Variant::lazy(), &e).unwrap().cycles as f64;
        let row = run(bench, Variant::row(RowVariant::RwDirUd), &e)
            .unwrap()
            .cycles as f64;
        let best = eager.min(lazy);
        assert!(
            row <= best * 1.10,
            "{bench}: RoW {row} must stay within 10% of best static {best}"
        );
    }
}

#[test]
fn fig9_ew_detector_underperforms_rw_on_contended_apps() {
    let e = exp();
    let ew = run(Benchmark::Pc, Variant::row(RowVariant::EwUd), &e)
        .unwrap()
        .cycles;
    let rw = run(Benchmark::Pc, Variant::row(RowVariant::RwDirUd), &e)
        .unwrap()
        .cycles;
    // EW misses contention (tiny window under lazy), so it stays eager and
    // pays eager's price on pc.
    assert!(
        rw < ew,
        "RW+Dir ({rw}) must beat the execution-window detector ({ew}) on pc"
    );
}

#[test]
fn fig10_zero_threshold_hurts_noncontended_apps() {
    let e = exp();
    let mk = |threshold| {
        let cfg = RowConfig::new(
            DetectorKind::ReadyWindowDir {
                latency_threshold: threshold,
            },
            PredictorKind::UpDown,
        );
        run(
            Benchmark::Canneal,
            Variant::custom("row", AtomicPolicy::Row(cfg)),
            &e,
        )
        .unwrap()
        .cycles
    };
    let t0 = mk(0);
    let t400 = mk(400);
    // Threshold 0 marks every remote fill contended: canneal's private
    // atomics (first fetched remotely-homed) go lazy and lose.
    assert!(
        t0 >= t400,
        "threshold 0 ({t0}) must not beat the 400-cycle threshold ({t400})"
    );
}

#[test]
fn fig12_predictors_report_accuracy() {
    let e = exp();
    let ud = run(Benchmark::Sps, Variant::row(RowVariant::RwDirUd), &e)
        .unwrap()
        .accuracy
        .unwrap();
    let sat = run(Benchmark::Sps, Variant::row(RowVariant::RwDirSat), &e)
        .unwrap()
        .accuracy
        .unwrap();
    assert!(ud.total() > 0 && sat.total() > 0);
    // The saturating predictor flips to "contended" on a single event, so it
    // predicts contention at least as often as Up/Down.
    let sat_rate = (sat.true_contended + sat.false_contended) as f64 / sat.total() as f64;
    let ud_rate = (ud.true_contended + ud.false_contended) as f64 / ud.total() as f64;
    assert!(sat_rate >= ud_rate * 0.9, "sat {sat_rate} vs ud {ud_rate}");
}

#[test]
fn fig13_forwarding_recovers_cq() {
    let e = exp();
    let eager = run(Benchmark::Cq, Variant::eager(), &e).unwrap().cycles as f64;
    let no_fwd = run(Benchmark::Cq, Variant::row(RowVariant::RwDirUd), &e)
        .unwrap()
        .cycles as f64;
    let fwd = run(Benchmark::Cq, Variant::row_fwd(RowVariant::RwDirUd), &e).unwrap();
    assert!(
        (fwd.cycles as f64) <= no_fwd * 1.05,
        "forwarding must not materially hurt cq: {} vs {}",
        fwd.cycles,
        no_fwd
    );
    assert!(
        (fwd.cycles as f64) <= eager * 1.10,
        "RoW+Fwd ({}) must track eager ({eager}) on cq",
        fwd.cycles
    );
    assert!(fwd.total.locality_overrides > 0, "the override must fire");
}

#[test]
fn fig2_microbench_shapes() {
    let it = 300;
    let plain = |m| {
        run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: false,
                mfence: false,
            },
            m,
            it,
        )
        .unwrap()
    };
    let lock = |m| {
        run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: true,
                mfence: false,
            },
            m,
            it,
        )
        .unwrap()
    };
    let lock_mf = |m| {
        run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: true,
                mfence: true,
            },
            m,
            it,
        )
        .unwrap()
    };

    // Modern (unfenced) core: lock ≈ plain, mfence is the cliff.
    let (p_u, l_u, f_u) = (
        plain(FenceModel::Unfenced),
        lock(FenceModel::Unfenced),
        lock_mf(FenceModel::Unfenced),
    );
    assert!(l_u < p_u * 1.7, "unfenced: lock {l_u} ≈ plain {p_u}");
    assert!(f_u > l_u * 3.0, "unfenced: mfence {f_u} ≫ lock {l_u}");

    // Old (fenced) core: lock is already fence-priced; mfence adds ~nothing.
    let (p_f, l_f, f_f) = (
        plain(FenceModel::Fenced),
        lock(FenceModel::Fenced),
        lock_mf(FenceModel::Fenced),
    );
    assert!(l_f > p_f * 2.0, "fenced: lock {l_f} ≫ plain {p_f}");
    assert!(f_f < l_f * 1.2, "fenced: mfence {f_f} ≈ lock {l_f}");

    // Swap is always locked: plain == lock (both models).
    let sw_plain = run_microbench(
        MicroRmw::Swap,
        MicroVariant {
            atomic: false,
            mfence: false,
        },
        FenceModel::Fenced,
        it,
    )
    .unwrap();
    let sw_lock = run_microbench(
        MicroRmw::Swap,
        MicroVariant {
            atomic: true,
            mfence: false,
        },
        FenceModel::Fenced,
        it,
    )
    .unwrap();
    assert!((sw_plain - sw_lock).abs() < 1.0);
}

#[test]
fn headline_row_beats_eager_on_average() {
    let e = exp();
    let mut ratios = Vec::new();
    for b in Benchmark::atomic_intensive() {
        let eager = run(b, Variant::eager(), &e).unwrap().cycles as f64;
        let row = run(b, Variant::row_fwd(RowVariant::RwDirUd), &e)
            .unwrap()
            .cycles as f64;
        ratios.push(row / eager);
    }
    let gm = norush::common::stats::geomean(&ratios);
    assert!(
        gm < 1.0,
        "RoW (RW+Dir_U/D + Fwd) must reduce mean execution time vs eager, got {gm:.3}"
    );
}
