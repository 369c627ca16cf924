//! Experiment runner.
//!
//! Every figure in the evaluation reduces to "run benchmark B under a
//! [`Variant`](crate::sweep::Variant) (policy, forwarding, placement) and
//! read metric M". This module provides that run, [`run_benchmark`], with an
//! [`ExperimentConfig`] that scales between `quick` (CI-sized) and `paper`
//! (32 cores, Table I caches) fidelity.

use row_common::config::{CheckConfig, DetectorKind, FenceModel, PredictorKind, RowConfig};
use row_common::SystemConfig;
use row_cpu::instr::InstrStream;
use row_workloads::{
    Benchmark, MicroRmw, MicroVariant, MicrobenchConfig, MicrobenchStream, ProfileStream,
};

use crate::machine::{Machine, RunResult, SimError};

/// Scale of an experiment run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExperimentConfig {
    /// Number of cores (= threads).
    pub cores: usize,
    /// Instructions per thread.
    pub instructions: u64,
    /// Workload seed (same seed ⇒ identical traces across policies).
    pub seed: u64,
    /// Simulation cycle budget.
    pub cycle_limit: u64,
    /// Use the full Table I cache hierarchy (vs the scaled-down one).
    pub paper_caches: bool,
    /// Robustness-layer configuration (invariant sweep, watchdog, chaos).
    pub check: CheckConfig,
}

impl ExperimentConfig {
    /// CI-sized: 8 cores, small caches, short traces. Seconds per run.
    pub fn quick() -> Self {
        ExperimentConfig {
            cores: 8,
            instructions: 6_000,
            seed: 42,
            cycle_limit: 40_000_000,
            paper_caches: false,
            check: CheckConfig {
                invariant_every: Some(4096),
                watchdog_window: Some(5_000_000),
                rewind_every: None,
                chaos: None,
                perturb: None,
                oracle: false,
                oracle_online: false,
            },
        }
    }

    /// Paper-sized: 32 cores, Table I memory hierarchy.
    pub fn paper() -> Self {
        ExperimentConfig {
            cores: 32,
            instructions: 20_000,
            seed: 42,
            cycle_limit: 200_000_000,
            paper_caches: true,
            check: CheckConfig::default(),
        }
    }

    /// The system configuration this scale implies. Paper caches with more
    /// than 32 cores select the scale-out tier ([`SystemConfig::huge`]),
    /// which widens the mesh to keep it roughly square.
    pub fn system(&self) -> SystemConfig {
        let mut cfg = if self.paper_caches && self.cores > 32 {
            SystemConfig::huge(self.cores)
        } else if self.paper_caches {
            SystemConfig::alder_lake_32c()
        } else {
            SystemConfig::small(self.cores)
        };
        cfg.cores = self.cores;
        cfg.check = self.check;
        cfg
    }
}

/// The six RoW variants of Fig. 9 (detector × predictor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum RowVariant {
    EwUd,
    EwSat,
    RwUd,
    RwSat,
    RwDirUd,
    RwDirSat,
}

impl RowVariant {
    /// All six, in the paper's legend order.
    pub const ALL: [RowVariant; 6] = [
        RowVariant::EwUd,
        RowVariant::EwSat,
        RowVariant::RwUd,
        RowVariant::RwSat,
        RowVariant::RwDirUd,
        RowVariant::RwDirSat,
    ];

    /// Display name as in Fig. 9.
    pub fn name(&self) -> &'static str {
        match self {
            RowVariant::EwUd => "EW_U/D",
            RowVariant::EwSat => "EW_Sat",
            RowVariant::RwUd => "RW_U/D",
            RowVariant::RwSat => "RW_Sat",
            RowVariant::RwDirUd => "RW+Dir_U/D",
            RowVariant::RwDirSat => "RW+Dir_Sat",
        }
    }

    /// The RoW configuration (no locality override; Fig. 9 disables
    /// forwarding).
    pub fn config(&self) -> RowConfig {
        let (det, pred) = match self {
            RowVariant::EwUd => (DetectorKind::ExecutionWindow, PredictorKind::UpDown),
            RowVariant::EwSat => (
                DetectorKind::ExecutionWindow,
                PredictorKind::SaturateOnContention,
            ),
            RowVariant::RwUd => (DetectorKind::ReadyWindow, PredictorKind::UpDown),
            RowVariant::RwSat => (
                DetectorKind::ReadyWindow,
                PredictorKind::SaturateOnContention,
            ),
            RowVariant::RwDirUd => (DetectorKind::rw_dir_default(), PredictorKind::UpDown),
            RowVariant::RwDirSat => (
                DetectorKind::rw_dir_default(),
                PredictorKind::SaturateOnContention,
            ),
        };
        RowConfig::new(det, pred)
    }
}

/// One seeded [`ProfileStream`] per core for `bench` at this scale — the
/// instruction traces every benchmark runner (and the sweep engine) feeds
/// into [`Machine::new`].
pub fn bench_streams(bench: Benchmark, exp: &ExperimentConfig) -> Vec<Box<dyn InstrStream>> {
    let profile = bench.profile().with_instructions(exp.instructions);
    (0..exp.cores)
        .map(|t| {
            Box::new(ProfileStream::new(profile, t, exp.cores, exp.seed)) as Box<dyn InstrStream>
        })
        .collect()
}

/// Runs `bench` at scale `exp` on `sys` to completion — typically
/// `variant.apply(exp.system())` for a [`Variant`](crate::sweep::Variant)
/// naming the policy.
///
/// # Errors
/// Propagates any [`SimError`] (cycle-budget timeout, watchdog stall, or protocol violation).
pub fn run_benchmark(
    sys: &SystemConfig,
    bench: Benchmark,
    exp: &ExperimentConfig,
) -> Result<RunResult, SimError> {
    Machine::new(sys, bench_streams(bench, exp)).run(exp.cycle_limit)
}

/// Runs `bench` on `sys` crash-resiliently: a checkpoint file is written to
/// `path` every `every` cycles, and when `resume` is set and `path` already
/// holds a checkpoint, the run continues from it instead of starting over
/// (`on_resume` is told the restored cycle). The checkpoint's config hash
/// guarantees a resume against different settings is refused. A finished
/// run deletes its spent checkpoint, so a later resume starts fresh instead
/// of replaying a finished machine.
///
/// # Errors
/// Everything [`run_benchmark`] raises, plus [`SimError::Checkpoint`] for
/// unreadable, corrupt, or mismatched checkpoint files.
pub fn run_benchmark_checkpointed(
    sys: &SystemConfig,
    bench: Benchmark,
    exp: &ExperimentConfig,
    every: u64,
    path: &std::path::Path,
    resume: bool,
    on_resume: impl FnOnce(u64),
) -> Result<RunResult, SimError> {
    let mut m = Machine::new(sys, bench_streams(bench, exp));
    if resume && path.exists() {
        let bytes = crate::checkpoint::read_checkpoint(path).map_err(SimError::Checkpoint)?;
        m.restore(&bytes)?;
        on_resume(m.now().raw());
    }
    let r = m.run_checkpointed(exp.cycle_limit, every, path)?;
    std::fs::remove_file(path).ok();
    Ok(r)
}

/// Runs one Fig. 2 microbenchmark cell against an explicit cycle budget and
/// returns the full [`RunResult`] (cycles per iteration = `cycles /
/// iterations`). The sweep engine uses this form so a timed-out cell can be
/// retried with a raised budget.
///
/// # Errors
/// Propagates any [`SimError`] (cycle-budget timeout, watchdog stall, or protocol violation).
pub fn run_microbench_result(
    rmw: MicroRmw,
    variant: MicroVariant,
    fence_model: FenceModel,
    iterations: u64,
    cycle_limit: u64,
) -> Result<RunResult, SimError> {
    let sys = SystemConfig::small(1).with_fence_model(fence_model);
    let cfg = MicrobenchConfig::paper_like(rmw, variant, iterations);
    let stream: Box<dyn InstrStream> = Box::new(MicrobenchStream::new(cfg));
    Machine::new(&sys, vec![stream]).run(cycle_limit)
}

/// Default cycle budget for a microbenchmark cell of `iterations`.
pub fn microbench_cycle_limit(iterations: u64) -> u64 {
    iterations.saturating_mul(50_000)
}

/// Runs one Fig. 2 microbenchmark cell and returns cycles per iteration.
///
/// # Errors
/// Propagates any [`SimError`] (cycle-budget timeout, watchdog stall, or protocol violation).
pub fn run_microbench(
    rmw: MicroRmw,
    variant: MicroVariant,
    fence_model: FenceModel,
    iterations: u64,
) -> Result<f64, SimError> {
    let r = run_microbench_result(
        rmw,
        variant,
        fence_model,
        iterations,
        microbench_cycle_limit(iterations),
    )?;
    Ok(r.cycles as f64 / iterations as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Variant;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            cores: 4,
            instructions: 2_000,
            seed: 7,
            cycle_limit: 20_000_000,
            paper_caches: false,
            check: CheckConfig::default(),
        }
    }

    #[test]
    fn eager_and_lazy_complete_on_pc() {
        let exp = tiny();
        let e = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Pc, &exp)
            .expect("eager finishes");
        let l = run_benchmark(&Variant::lazy().apply(exp.system()), Benchmark::Pc, &exp)
            .expect("lazy finishes");
        assert!(e.total.atomics > 0);
        assert!(l.total.atomics > 0);
        assert_eq!(e.total.committed, l.total.committed, "same trace");
    }

    #[test]
    fn row_variant_names_and_configs() {
        for v in RowVariant::ALL {
            assert!(!v.name().is_empty());
            let cfg = v.config();
            assert!(!cfg.locality_override);
        }
        assert_eq!(
            RowVariant::RwDirUd.config().detector,
            DetectorKind::rw_dir_default()
        );
    }

    #[test]
    fn row_runs_and_tracks_accuracy() {
        let exp = tiny();
        let r = run_benchmark(
            &Variant::row(RowVariant::RwDirUd).apply(exp.system()),
            Benchmark::Sps,
            &exp,
        )
        .expect("finishes");
        let acc = r.accuracy.expect("RoW records accuracy");
        assert!(acc.total() > 0);
    }

    #[test]
    fn microbench_lock_close_to_plain_when_unfenced() {
        let it = 300;
        let plain = run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: false,
                mfence: false,
            },
            FenceModel::Unfenced,
            it,
        )
        .unwrap();
        let lock = run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: true,
                mfence: false,
            },
            FenceModel::Unfenced,
            it,
        )
        .unwrap();
        let fenced = run_microbench(
            MicroRmw::Faa,
            MicroVariant {
                atomic: true,
                mfence: true,
            },
            FenceModel::Unfenced,
            it,
        )
        .unwrap();
        assert!(
            lock < plain * 1.6,
            "unfenced lock ({lock:.0}) should be near plain ({plain:.0})"
        );
        assert!(
            fenced > lock * 2.0,
            "explicit mfence ({fenced:.0}) should be much slower than lock ({lock:.0})"
        );
    }

    #[test]
    fn experiment_config_scales() {
        assert_eq!(ExperimentConfig::quick().system().cores, 8);
        assert_eq!(ExperimentConfig::paper().system().cores, 32);
        assert_eq!(
            ExperimentConfig::paper().system().mem.l1d.size_bytes,
            48 * 1024
        );
    }
}

#[cfg(test)]
mod far_tests {
    use super::*;
    use crate::sweep::Variant;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            cores: 4,
            instructions: 1_500,
            seed: 7,
            cycle_limit: 50_000_000,
            paper_caches: false,
            check: CheckConfig::default(),
        }
    }

    #[test]
    fn far_runs_and_counts_every_atomic() {
        let exp = tiny();
        let near = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Sps, &exp)
            .expect("near");
        let far =
            run_benchmark(&Variant::far().apply(exp.system()), Benchmark::Sps, &exp).expect("far");
        assert_eq!(near.total.atomics, far.total.atomics, "same trace");
        assert_eq!(
            far.total.atomics_lazy, far.total.atomics,
            "far atomics always use the lazy discipline"
        );
    }

    #[test]
    fn per_core_stats_sum_to_total() {
        let exp = tiny();
        let r = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Tpcc, &exp)
            .expect("runs");
        let committed: u64 = r.per_core.iter().map(|c| c.committed).sum();
        assert_eq!(committed, r.total.committed);
        let atomics: u64 = r.per_core.iter().map(|c| c.atomics).sum();
        assert_eq!(atomics, r.total.atomics);
        assert_eq!(r.per_core.len(), exp.cores);
    }

    #[test]
    fn same_seed_same_cycles_different_seed_differs() {
        let exp = tiny();
        let a = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Pc, &exp)
            .expect("runs");
        let b = run_benchmark(&Variant::eager().apply(exp.system()), Benchmark::Pc, &exp)
            .expect("runs");
        assert_eq!(a.cycles, b.cycles);
        let mut exp2 = exp;
        exp2.seed = 8;
        let c = run_benchmark(&Variant::eager().apply(exp2.system()), Benchmark::Pc, &exp2)
            .expect("runs");
        assert_ne!(a.cycles, c.cycles);
    }
}
