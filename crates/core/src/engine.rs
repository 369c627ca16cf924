//! The Rush-or-Wait engine: prediction at allocation, training at unlock.
//!
//! One [`RowEngine`] instance lives in each core. The pipeline consults it at
//! the allocation stage ([`RowEngine::decide`]) and reports the detector
//! outcome when the atomic releases its lock ([`RowEngine::complete`]), which
//! both trains the predictor and maintains the Fig. 12 accuracy statistics.

use row_common::config::{DetectorKind, RowConfig};
use row_common::ids::Pc;
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};
use row_common::stats::AccuracyCounter;

use crate::predictor::ContentionPredictor;

/// How an atomic should be executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Issue as soon as operands are ready.
    Eager,
    /// Wait to be the oldest memory instruction with a drained SB.
    Lazy,
}

/// Per-core Rush-or-Wait machinery.
///
/// # Example
/// ```
/// use row_common::config::RowConfig;
/// use row_common::ids::Pc;
/// use row_core::engine::{ExecMode, RowEngine};
///
/// let mut row = RowEngine::new(RowConfig::best());
/// let pc = Pc::new(0x400);
/// assert_eq!(row.decide(pc), ExecMode::Eager); // cold start
/// row.complete(pc, false, true);
/// row.complete(pc, false, true);
/// assert_eq!(row.decide(pc), ExecMode::Lazy); // learned contention
/// ```
#[derive(Clone, Debug)]
pub struct RowEngine {
    cfg: RowConfig,
    predictor: ContentionPredictor,
    accuracy: AccuracyCounter,
}

impl RowEngine {
    /// Builds the engine for a configuration.
    pub fn new(cfg: RowConfig) -> Self {
        RowEngine {
            cfg,
            predictor: ContentionPredictor::new(
                cfg.predictor,
                cfg.predictor_entries,
                cfg.counter_bits,
                cfg.decision_threshold,
            ),
            accuracy: AccuracyCounter::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RowConfig {
        &self.cfg
    }

    /// The contention-detection mechanism in use.
    pub fn detector(&self) -> DetectorKind {
        self.cfg.detector
    }

    /// Whether a forwarding match in the SB turns a lazy atomic eager
    /// (Section IV-E).
    pub fn locality_override(&self) -> bool {
        self.cfg.locality_override
    }

    /// Allocation-stage decision for the atomic at `pc`.
    pub fn decide(&self, pc: Pc) -> ExecMode {
        if self.predictor.predict(pc) {
            ExecMode::Lazy
        } else {
            ExecMode::Eager
        }
    }

    /// Whether `pc` is currently predicted contended (without deciding).
    pub fn predicts_contended(&self, pc: Pc) -> bool {
        self.predictor.predict(pc)
    }

    /// Reports a completed atomic: trains the predictor with the detector
    /// outcome and records prediction accuracy.
    pub fn complete(&mut self, pc: Pc, predicted_contended: bool, detected_contended: bool) {
        self.accuracy
            .record(predicted_contended, detected_contended);
        self.predictor.train(pc, detected_contended);
    }

    /// Fig. 12 accuracy counters.
    pub fn accuracy(&self) -> &AccuracyCounter {
        &self.accuracy
    }

    /// Total storage this engine would occupy in hardware, in bits, given the
    /// AQ depth (predictor table + per-AQ-entry detector fields).
    pub fn storage_bits(&self, aq_entries: usize) -> usize {
        self.cfg.storage_bits(aq_entries)
    }
}

row_common::codec_enum!(ExecMode {
    0 => Eager,
    1 => Lazy,
});

impl Persist for RowEngine {
    fn persist(&self, w: &mut Writer) {
        self.predictor.persist(w);
        self.accuracy.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.predictor.restore(r)?;
        self.accuracy = AccuracyCounter::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use row_common::config::PredictorKind;

    #[test]
    fn cold_engine_runs_everything_eager() {
        let row = RowEngine::new(RowConfig::best());
        for pc in [0u64, 0x40, 0x1234, 0xffff] {
            assert_eq!(row.decide(Pc::new(pc)), ExecMode::Eager);
        }
    }

    #[test]
    fn contention_flips_to_lazy_and_back() {
        let mut row = RowEngine::new(RowConfig::best());
        let pc = Pc::new(0x500);
        row.complete(pc, false, true);
        row.complete(pc, false, true);
        assert_eq!(row.decide(pc), ExecMode::Lazy);
        row.complete(pc, true, false);
        assert_eq!(row.decide(pc), ExecMode::Eager);
    }

    #[test]
    fn saturating_engine_flips_after_one_event() {
        let cfg = RowConfig::new(
            DetectorKind::rw_dir_default(),
            PredictorKind::SaturateOnContention,
        );
        let mut row = RowEngine::new(cfg);
        let pc = Pc::new(0x600);
        row.complete(pc, false, true);
        assert_eq!(row.decide(pc), ExecMode::Lazy);
    }

    #[test]
    fn accuracy_tracks_quadrants() {
        let mut row = RowEngine::new(RowConfig::best());
        let pc = Pc::new(0x700);
        row.complete(pc, false, false); // correct
        row.complete(pc, false, true); // miss
        row.complete(pc, true, true); // correct
        assert_eq!(row.accuracy().total(), 3);
        assert!((row.accuracy().accuracy() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn storage_matches_paper_budget() {
        let row = RowEngine::new(RowConfig::best());
        assert_eq!(row.storage_bits(16), 512); // 64 bytes
    }

    #[test]
    fn config_accessors() {
        let cfg = RowConfig::best();
        let row = RowEngine::new(cfg);
        assert!(row.locality_override());
        assert_eq!(row.detector(), DetectorKind::rw_dir_default());
        assert_eq!(row.config(), &cfg);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [
            (to_bytes(&ExecMode::Eager), "00"),
            (to_bytes(&ExecMode::Lazy), "01"),
        ];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
