//! Deterministic pseudo-random number generation.
//!
//! Simulations must be bit-for-bit reproducible across runs and platforms, so
//! workload generators use this self-contained [`SplitMix64`] generator
//! (Steele, Lea & Flood, OOPSLA 2014) rather than a platform-seeded source.

/// A SplitMix64 pseudo-random generator.
///
/// Fast, tiny state, passes BigCrush when used as a 64-bit stream; more than
/// adequate for workload-shape decisions.
///
/// # Example
/// ```
/// use row_common::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift reduction.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A geometrically distributed gap with mean `mean` (>= 1), used for
    /// spacing events (e.g. atomics) in instruction streams.
    pub fn geometric_gap(&mut self, mean: f64) -> u64 {
        let mean = mean.max(1.0);
        let p = 1.0 / mean;
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let g = (u.ln() / (1.0 - p).ln()).floor();
        1 + g as u64
    }

    /// Derives an independent child generator (for per-thread streams).
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// A Zipf-distributed sampler over `[0, n)` (YCSB-style, Gray et al.).
///
/// Rank 0 is the most popular key; `theta` controls skew (0 = uniform,
/// 0.99 = the YCSB default "hotspot" skew). Construction is O(n) (zeta
/// precomputation); sampling is O(1). The sampler is a pure function of
/// `(n, theta)` plus the caller's RNG, so streams that persist their RNG
/// state can rebuild the sampler from config instead of serializing it.
///
/// # Example
/// ```
/// use row_common::rng::{SplitMix64, ZipfSampler};
/// let zipf = ZipfSampler::new(100, 0.99);
/// let mut rng = SplitMix64::new(1);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 100);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `[0, n)` with skew `theta` in `[0, 1)∪(1, ∞)`.
    /// `theta` exactly 1.0 is nudged (the closed form has a pole there).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty key space");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf theta {theta} out of range"
        );
        let theta = if (theta - 1.0).abs() < 1e-9 {
            1.0 - 1e-9
        } else {
            theta
        };
        let zeta = |m: u64| -> f64 { (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(n.min(2));
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// Number of keys in the sampled space.
    pub const fn len(&self) -> u64 {
        self.n
    }

    /// `true` when the key space is a single key.
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// The (possibly nudged) skew parameter.
    pub const fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one key rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.n == 1 {
            // Keep the RNG stream advancing identically regardless of n.
            let _ = rng.next_u64();
            return 0;
        }
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

crate::codec_struct!(SplitMix64 { state });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(4);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SplitMix64::new(6);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn geometric_gap_mean_is_close() {
        let mut r = SplitMix64::new(8);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.geometric_gap(10.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((8.0..12.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = ZipfSampler::new(10, 0.0);
        let mut rng = SplitMix64::new(11);
        let mut counts = [0u64; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "key {k} drawn {c} times");
        }
    }

    #[test]
    fn zipf_high_theta_concentrates_on_hot_keys() {
        let zipf = ZipfSampler::new(1000, 0.99);
        let mut rng = SplitMix64::new(12);
        let hot = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        // Under uniform, the top 10 of 1000 keys would get ~1% of draws;
        // YCSB-skew gives them roughly half.
        assert!(hot > 3000, "only {hot} of 10000 draws hit the top 10 keys");
    }

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let zipf = ZipfSampler::new(64, 0.99);
        let mut a = SplitMix64::new(13);
        let mut b = SplitMix64::new(13);
        for _ in 0..1000 {
            let x = zipf.sample(&mut a);
            assert_eq!(x, zipf.sample(&mut b));
            assert!(x < 64);
        }
        // theta == 1.0 is nudged off the pole, not a panic.
        let z1 = ZipfSampler::new(8, 1.0);
        assert!(z1.theta() < 1.0);
        let mut r = SplitMix64::new(14);
        assert!(z1.sample(&mut r) < 8);
        // A single-key space always returns 0 but still consumes RNG.
        let z = ZipfSampler::new(1, 0.5);
        let before = r.clone();
        assert_eq!(z.sample(&mut r), 0);
        assert_ne!(r, before);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = SplitMix64::new(9);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn codec_bytes_are_pinned() {
        use crate::persist::{to_bytes, to_hex};
        let pins = [(
            to_bytes(&SplitMix64 {
                state: 0x0123_4567_89ab_cdef,
            }),
            "efcdab8967452301",
        )];
        for (bytes, hex) in pins {
            assert_eq!(to_hex(&bytes), hex);
        }
    }
}
