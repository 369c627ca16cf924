//! The RoW contention predictor (paper Section IV-D).
//!
//! A 64-entry table of 4-bit saturating counters, indexed by XOR-folding the
//! atomic's PC (the XOR-mapping of González et al. the paper cites), updated
//! by the paper's *Up/Down* or *Saturate on Contention* policy, or by a
//! gshare-style *History* variant that tests the paper's claim that history
//! does not help.

use row_common::config::PredictorKind;
use row_common::ids::Pc;
use row_common::persist::{Codec, Persist, PersistError, Reader, Writer};

/// An N-bit saturating counter.
///
/// # Example
/// ```
/// use row_core::predictor::SaturatingCounter;
/// let mut c = SaturatingCounter::new(4);
/// c.increment(1);
/// assert_eq!(c.value(), 1);
/// c.saturate();
/// assert_eq!(c.value(), 15);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a zeroed counter of `bits` width (1..=8).
    ///
    /// # Panics
    /// Panics if `bits` is 0 or greater than 8.
    pub fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "counter width {bits} out of range");
        SaturatingCounter {
            value: 0,
            max: ((1u16 << bits) - 1) as u8,
        }
    }

    /// Current value.
    pub const fn value(&self) -> u8 {
        self.value
    }

    /// Maximum representable value (`2^N − 1`).
    pub const fn max(&self) -> u8 {
        self.max
    }

    /// Adds `by`, saturating at the maximum.
    pub fn increment(&mut self, by: u8) {
        self.value = self.value.saturating_add(by).min(self.max);
    }

    /// Subtracts 1, saturating at zero.
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Jumps straight to the maximum (*Saturate on Contention*).
    pub fn saturate(&mut self) {
        self.value = self.max;
    }
}

/// The per-PC contention predictor table.
///
/// # Example
/// ```
/// use row_common::config::PredictorKind;
/// use row_common::ids::Pc;
/// use row_core::predictor::ContentionPredictor;
///
/// let mut p = ContentionPredictor::new(PredictorKind::UpDown, 64, 4, 1);
/// let pc = Pc::new(0x400100);
/// assert!(!p.predict(pc)); // cold: predicted non-contended -> eager
/// p.train(pc, true);
/// p.train(pc, true);
/// assert!(p.predict(pc)); // counter passed the threshold -> lazy
/// ```
#[derive(Clone, Debug)]
pub struct ContentionPredictor {
    kind: PredictorKind,
    table: Vec<SaturatingCounter>,
    threshold: u8,
    index_bits: u32,
    /// Global history of recent contention outcomes (History kind only).
    ghr: u64,
}

impl ContentionPredictor {
    /// Creates a predictor with `entries` counters of `bits` width; an atomic
    /// is predicted contended when its counter exceeds `threshold`.
    ///
    /// # Panics
    /// Panics if `entries` is not a power of two or is zero.
    pub fn new(kind: PredictorKind, entries: usize, bits: u32, threshold: u8) -> Self {
        assert!(
            entries.is_power_of_two(),
            "predictor entries must be a power of two, got {entries}"
        );
        ContentionPredictor {
            kind,
            table: vec![SaturatingCounter::new(bits); entries],
            threshold,
            index_bits: entries.trailing_zeros(),
            ghr: 0,
        }
    }

    /// XOR-mapped table index: low `index_bits` of the PC XORed with the next
    /// `index_bits` (paper Section IV-D). The History variant additionally
    /// XORs in the global contention-outcome history (gshare style).
    pub fn index(&self, pc: Pc) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        let lo = pc.raw() & mask;
        let hi = (pc.raw() >> self.index_bits) & mask;
        let h = if self.kind == PredictorKind::History {
            self.ghr & mask
        } else {
            0
        };
        ((lo ^ hi ^ h) & mask) as usize
    }

    /// Predicts whether the atomic at `pc` will face contention.
    pub fn predict(&self, pc: Pc) -> bool {
        let i = self.index(pc);
        self.table[i].value() > self.threshold
    }

    /// Trains the predictor with the detected outcome of a completed atomic.
    pub fn train(&mut self, pc: Pc, contended: bool) {
        let i = self.index(pc);
        let c = &mut self.table[i];
        if contended {
            match self.kind {
                PredictorKind::UpDown | PredictorKind::History => c.increment(1),
                PredictorKind::SaturateOnContention => c.saturate(),
            }
        } else {
            c.decrement();
        }
        if self.kind == PredictorKind::History {
            self.ghr = (self.ghr << 1) | contended as u64;
        }
    }

    /// Raw counter value for `pc`'s entry (tests/introspection).
    pub fn counter(&self, pc: Pc) -> u8 {
        self.table[self.index(pc)].value()
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Storage cost of the table in bits.
    pub fn storage_bits(&self) -> usize {
        self.table.len() * (8 - self.table.first().map_or(0, |c| c.max().leading_zeros()) as usize)
    }
}

row_common::codec_struct!(SaturatingCounter { value, max });

impl Persist for ContentionPredictor {
    // Kind, threshold, and index width are config-derived; the counters and
    // global history are training state.
    fn persist(&self, w: &mut Writer) {
        self.table.encode(w);
        w.put_u64(self.ghr);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let table = Vec::<SaturatingCounter>::decode(r)?;
        if table.len() != self.table.len() {
            return Err(PersistError::Corrupt("predictor table size mismatch"));
        }
        self.table = table;
        self.ghr = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ends() {
        let mut c = SaturatingCounter::new(4);
        for _ in 0..30 {
            c.increment(1);
        }
        assert_eq!(c.value(), 15);
        for _ in 0..30 {
            c.decrement();
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_counter_rejected() {
        SaturatingCounter::new(0);
    }

    fn updown() -> ContentionPredictor {
        ContentionPredictor::new(PredictorKind::UpDown, 64, 4, 1)
    }

    #[test]
    fn cold_predictor_says_eager() {
        let p = updown();
        assert!(!p.predict(Pc::new(0x1234)));
    }

    #[test]
    fn updown_crosses_threshold_after_two_hits() {
        let mut p = updown();
        let pc = Pc::new(0x88);
        p.train(pc, true);
        assert!(!p.predict(pc), "counter 1 is not above threshold 1");
        p.train(pc, true);
        assert!(p.predict(pc));
        p.train(pc, false);
        assert!(!p.predict(pc), "decrement brings it back to 1");
    }

    #[test]
    fn saturate_jumps_to_max_and_decays_slowly() {
        let mut p = ContentionPredictor::new(PredictorKind::SaturateOnContention, 64, 4, 0);
        let pc = Pc::new(0x90);
        p.train(pc, true);
        assert_eq!(p.counter(pc), 15);
        assert!(p.predict(pc));
        // Needs 15 consecutive non-contended outcomes to flip (paper's
        // explanation of why RW+Dir_Sat reacts weakly).
        for _ in 0..14 {
            p.train(pc, false);
            assert!(p.predict(pc));
        }
        p.train(pc, false);
        assert!(!p.predict(pc));
    }

    #[test]
    fn xor_index_uses_12_pc_bits() {
        let p = updown();
        // Same low 12 bits -> same entry.
        assert_eq!(p.index(Pc::new(0x1abc)), p.index(Pc::new(0xf1abc)));
        // Differing inside the low 12 bits -> (usually) different entries.
        assert_ne!(p.index(Pc::new(0b000001)), p.index(Pc::new(0b000010)));
    }

    #[test]
    fn aliasing_pcs_share_an_entry() {
        let mut p = updown();
        let a = Pc::new(0x040); // 0b0001_000000: lo=0, hi=1 -> index 1
        let b = Pc::new(0x001); // lo=1, hi=0 -> index 1
        assert_eq!(p.index(a), p.index(b));
        p.train(a, true);
        p.train(a, true);
        assert!(
            p.predict(b),
            "aliased entry is shared — the Fig. 9 pathology"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_entries_rejected() {
        ContentionPredictor::new(PredictorKind::UpDown, 48, 4, 1);
    }

    #[test]
    fn single_entry_predictor_works() {
        let mut p = ContentionPredictor::new(PredictorKind::UpDown, 1, 4, 1);
        for pc in [0x1u64, 0x999, 0xabcdef] {
            p.train(Pc::new(pc), true);
        }
        assert!(p.predict(Pc::new(0x42)), "all PCs share the single entry");
    }

    #[test]
    fn history_variant_mixes_outcomes_into_the_index() {
        let mut p = ContentionPredictor::new(PredictorKind::History, 64, 4, 1);
        let pc = Pc::new(0x40);
        let i0 = p.index(pc);
        p.train(pc, true); // shifts a 1 into the history
        let i1 = p.index(pc);
        assert_ne!(i0, i1, "history must move the entry");
        assert!(p.index(pc) < p.entries());
    }

    #[test]
    fn history_variant_still_learns_stable_behaviour() {
        let mut p = ContentionPredictor::new(PredictorKind::History, 64, 4, 1);
        let pc = Pc::new(0x80);
        // All-contended history is stable (ghr saturates to all-ones mod
        // mask), so the same entry trains repeatedly.
        for _ in 0..20 {
            p.train(pc, true);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn storage_accounting() {
        let p = updown();
        assert_eq!(p.entries(), 64);
        assert_eq!(p.storage_bits(), 256);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use row_common::persist::{to_bytes, to_hex};
        let pins = [(
            to_bytes(&SaturatingCounter {
                value: 0x11,
                max: 0x22,
            }),
            "1122",
        )];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
