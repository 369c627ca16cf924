//! System configuration, mirroring the paper's Table I.
//!
//! [`SystemConfig::alder_lake_32c`] reproduces the evaluated 32-core system
//! (Alder Lake performance-core-like parameters). Every knob the paper sweeps
//! — atomic execution policy, contention detector, predictor flavour,
//! directory-latency threshold, store→atomic forwarding — is an explicit field
//! so the benchmark harness can regenerate each figure from configuration
//! alone.

/// How atomic RMW instructions are scheduled for execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AtomicPolicy {
    /// Execute as soon as operands are ready (Free Atomics baseline).
    #[default]
    Eager,
    /// Execute only when the atomic is the oldest memory instruction in the
    /// load queue *and* the store buffer has drained. Younger instructions may
    /// still execute speculatively (this is *not* a fence).
    Lazy,
    /// Rush or Wait: predict contention per PC and pick eager/lazy per atomic.
    Row(RowConfig),
}

impl AtomicPolicy {
    /// The RoW configuration, if this policy is RoW.
    pub fn row(&self) -> Option<&RowConfig> {
        match self {
            AtomicPolicy::Row(cfg) => Some(cfg),
            _ => None,
        }
    }
}

/// Which contention-detection mechanism trains the predictor
/// (paper Sections IV-A..IV-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DetectorKind {
    /// Execution window: external requests hitting a *locked* line mark the
    /// matching atomic contended.
    ExecutionWindow,
    /// Ready window: additionally, external requests matching any in-flight
    /// atomic's (pre-computed) address mark it contended, extending the
    /// window from address-ready to unlock.
    ReadyWindow,
    /// Ready window plus the directory heuristic: a line that arrives from a
    /// *remote private cache* with latency above `latency_threshold` cycles is
    /// considered contended even if no external request was observed.
    ReadyWindowDir {
        /// Latency threshold in cycles (400 in the paper; `u64::MAX` models
        /// the "inf" point of Fig. 10, degenerating to plain ReadyWindow).
        latency_threshold: u64,
    },
}

impl DetectorKind {
    /// The paper's optimal RW+Dir configuration (400-cycle threshold).
    pub const fn rw_dir_default() -> Self {
        DetectorKind::ReadyWindowDir {
            latency_threshold: 400,
        }
    }
}

impl Default for DetectorKind {
    fn default() -> Self {
        DetectorKind::rw_dir_default()
    }
}

/// Saturating-counter update policy of the contention predictor
/// (paper Section IV-D).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PredictorKind {
    /// +1 on contention, −1 otherwise; predict contended when counter >
    /// threshold (threshold = 1 in the paper).
    #[default]
    UpDown,
    /// Jump to the maximum on contention, −1 otherwise; predict contended
    /// when counter > 0.
    SaturateOnContention,
    /// +2 on contention, −1 otherwise (evaluated and discarded by the paper;
    /// kept for the ablation bench).
    TwoUpOneDown,
    /// Gshare-style: the table index is XORed with a global history of
    /// recent contention outcomes. The paper argues history does not help
    /// because atomics are uncorrelated (Section VII); this variant exists
    /// to demonstrate that claim.
    History,
}

/// Configuration of the Rush-or-Wait mechanism.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowConfig {
    /// Contention-detection mechanism used to train the predictor.
    pub detector: DetectorKind,
    /// Predictor counter update policy.
    pub predictor: PredictorKind,
    /// Number of predictor table entries (64 in the paper).
    pub predictor_entries: usize,
    /// Width of each saturating counter in bits (4 in the paper).
    pub counter_bits: u32,
    /// Decision threshold: predict contended when counter > threshold.
    /// The paper uses 1 for UpDown and 0 for SaturateOnContention.
    pub decision_threshold: u8,
    /// Turn a predicted-lazy atomic eager when a matching older store is
    /// found in the SB (atomic-locality optimization, Section IV-E).
    pub locality_override: bool,
}

impl RowConfig {
    /// RoW with the given detector/predictor and the paper's table geometry.
    pub fn new(detector: DetectorKind, predictor: PredictorKind) -> Self {
        let decision_threshold = match predictor {
            PredictorKind::UpDown | PredictorKind::TwoUpOneDown | PredictorKind::History => 1,
            PredictorKind::SaturateOnContention => 0,
        };
        RowConfig {
            detector,
            predictor,
            predictor_entries: 64,
            counter_bits: 4,
            decision_threshold,
            locality_override: false,
        }
    }

    /// The best configuration found by the paper:
    /// RW+Dir detection, Up/Down predictor, forwarding-driven locality override.
    pub fn best() -> Self {
        let mut cfg = RowConfig::new(DetectorKind::rw_dir_default(), PredictorKind::UpDown);
        cfg.locality_override = true;
        cfg
    }

    /// Enables or disables the atomic-locality (forwarding) override.
    pub fn with_locality_override(mut self, on: bool) -> Self {
        self.locality_override = on;
        self
    }

    /// Storage cost of this configuration in bits (predictor table plus the
    /// per-AQ-entry contended/only-calculate-address/timestamp fields),
    /// matching the paper's Section IV-F accounting.
    pub fn storage_bits(&self, aq_entries: usize) -> usize {
        let table = self.predictor_entries * self.counter_bits as usize;
        let per_entry = match self.detector {
            DetectorKind::ExecutionWindow => 1,
            DetectorKind::ReadyWindow => 1 + 1,
            DetectorKind::ReadyWindowDir { .. } => 1 + 1 + 14,
        };
        table + aq_entries * per_entry
    }
}

impl Default for RowConfig {
    fn default() -> Self {
        RowConfig::best()
    }
}

/// Where atomic RMWs execute (the Section VII design alternative).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AtomicPlacement {
    /// In the L1D under a cache lock (x86 style; the paper's subject).
    #[default]
    Near,
    /// At the line's home directory bank (IBM/Arm far-atomic style): no
    /// cache locking; all private copies are invalidated and the RMW is
    /// performed at the home. Issued with the lazy discipline to preserve
    /// TSO ordering against older local accesses.
    Far,
}

/// Whether the core surrounds atomic µ-ops with implicit full fences.
///
/// `Fenced` models pre-Coffee-Lake x86 parts (the Xeon X3210 of Fig. 2);
/// `Unfenced` models current parts / Free Atomics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FenceModel {
    /// Atomics drain the SB, wait to be the oldest instruction, and block all
    /// younger memory operations until they complete.
    Fenced,
    /// Atomics execute per the configured [`AtomicPolicy`], overlapping with
    /// older and younger instructions.
    #[default]
    Unfenced,
}

/// Out-of-order core parameters (Table I, "Processor").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreConfig {
    /// Instructions fetched/renamed per cycle (6).
    pub fetch_width: usize,
    /// Instructions issued to execution per cycle (12).
    pub issue_width: usize,
    /// Instructions committed per cycle (12).
    pub commit_width: usize,
    /// Reorder buffer entries (512).
    pub rob_entries: usize,
    /// Load queue entries (192).
    pub lq_entries: usize,
    /// Store buffer entries (128).
    pub sb_entries: usize,
    /// Issue queue (scheduler) entries.
    pub iq_entries: usize,
    /// Atomic queue entries (16, per Free Atomics).
    pub aq_entries: usize,
    /// Pipeline depth from fetch to dispatch, in cycles (front-end latency
    /// charged on a branch mispredict redirect).
    pub frontend_depth: u64,
    /// Fence semantics of atomics.
    pub fence_model: FenceModel,
    /// How atomics are scheduled (only meaningful when unfenced).
    pub atomic_policy: AtomicPolicy,
    /// Allow store→load forwarding from the SB to *atomic* loads (Fig. 13
    /// "+Fwd" configurations). Regular loads always forward.
    pub forward_to_atomics: bool,
    /// Near (cache-locked) or far (at-home) atomic execution.
    pub atomic_placement: AtomicPlacement,
}

impl CoreConfig {
    /// Table I core parameters.
    pub fn alder_lake() -> Self {
        CoreConfig {
            fetch_width: 6,
            issue_width: 12,
            commit_width: 12,
            rob_entries: 512,
            lq_entries: 192,
            sb_entries: 128,
            iq_entries: 160,
            aq_entries: 16,
            frontend_depth: 12,
            fence_model: FenceModel::Unfenced,
            atomic_policy: AtomicPolicy::Eager,
            forward_to_atomics: false,
            atomic_placement: AtomicPlacement::Near,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::alder_lake()
    }
}

/// One cache level's geometry and latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole 64-byte-line sets.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::ids::LINE_BYTES as usize;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "cache geometry must divide into whole sets: {self:?}"
        );
        lines / self.ways
    }
}

/// Memory hierarchy parameters (Table I, "Memory").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemoryConfig {
    /// Private L1 data cache (48 KB, 12-way, 5-cycle).
    pub l1d: CacheConfig,
    /// Private L2 cache (1 MB, 8-way, 12-cycle).
    pub l2: CacheConfig,
    /// Shared L3, per bank (4 MB, 16-way, 35-cycle); one bank per core tile.
    pub l3_bank: CacheConfig,
    /// Main-memory access latency in cycles (160).
    pub mem_latency: u64,
    /// Outstanding misses supported per core (MSHRs).
    pub mshr_entries: usize,
    /// Enable the L1D IP-stride prefetcher.
    pub prefetcher: bool,
    /// Prefetch degree (lines ahead) when the prefetcher is enabled.
    pub prefetch_degree: u64,
}

impl MemoryConfig {
    /// Table I memory parameters.
    pub fn alder_lake() -> Self {
        MemoryConfig {
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                hit_latency: 5,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 8,
                hit_latency: 12,
            },
            l3_bank: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                ways: 16,
                hit_latency: 35,
            },
            mem_latency: 160,
            mshr_entries: 32,
            prefetcher: true,
            prefetch_degree: 2,
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::alder_lake()
    }
}

/// On-chip network parameters (GARNET-substitute mesh).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NocConfig {
    /// Mesh width (columns). Height is derived from the core count.
    pub mesh_cols: usize,
    /// Per-hop link traversal latency in cycles.
    pub link_latency: u64,
    /// Per-router pipeline latency in cycles.
    pub router_latency: u64,
    /// Flits a data (full-line) message occupies on a link; control messages
    /// occupy one flit.
    pub data_flits: u64,
}

impl NocConfig {
    /// An 8×4 mesh sized for the 32-core system.
    pub fn mesh_8x4() -> Self {
        NocConfig {
            mesh_cols: 8,
            link_latency: 1,
            router_latency: 2,
            data_flits: 5,
        }
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::mesh_8x4()
    }
}

/// Deterministic fault injection ("chaos mode") for robustness testing.
///
/// When enabled, every message delivered through the memory system's network
/// receives a bounded extra latency drawn from a [`SplitMix64`] stream seeded
/// with `seed`. Messages between *different* endpoint pairs may thereby be
/// reordered relative to the fault-free schedule; messages between the *same*
/// source and destination keep their order, matching the guarantee the mesh
/// itself provides (per-link serialization), so every perturbed schedule is
/// one the protocol must already tolerate.
///
/// The `*_ppm` knobs extend chaos from delay-only to a *lossy* fault model:
/// each wire transmission may independently be dropped, duplicated, or
/// payload-corrupted with the given probability in parts-per-million, drawn
/// from the same seeded stream. Any non-zero rate switches the memory system
/// onto its recoverable transport (sequence numbers, ACK/NACK,
/// timeout-with-backoff retransmission), which masks the faults; delay-only
/// configurations keep the exact pre-transport behaviour, timing included.
///
/// [`SplitMix64`]: crate::rng::SplitMix64
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultConfig {
    /// Seed of the perturbation stream. Equal seeds give equal schedules.
    pub seed: u64,
    /// Maximum extra delivery latency, in cycles, added per message
    /// (uniform in `[0, max_extra_latency]`).
    pub max_extra_latency: u64,
    /// Probability, in parts per million, that a transmission is dropped.
    pub drop_ppm: u32,
    /// Probability, in parts per million, that a transmission is duplicated
    /// (the copy takes an independently drawn delivery time).
    pub dup_ppm: u32,
    /// Probability, in parts per million, that a transmission's payload is
    /// corrupted in flight (detected by checksum, answered with a NACK).
    pub corrupt_ppm: u32,
}

/// Upper bound on each per-transmission fault probability: 0.5, i.e.
/// 500 000 ppm. Beyond this, retransmission no longer converges in any
/// reasonable number of attempts.
pub const MAX_FAULT_PPM: u32 = 500_000;

impl FaultConfig {
    /// The chaos object of the soak and fuzz reports.
    pub fn to_json(&self) -> crate::json::Value {
        crate::object! {
            "seed": self.seed,
            "latency": self.max_extra_latency,
            "drop_ppm": self.drop_ppm,
            "dup_ppm": self.dup_ppm,
            "corrupt_ppm": self.corrupt_ppm,
        }
    }

    /// A delay-only chaos configuration with the default perturbation bound.
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            max_extra_latency: 40,
            drop_ppm: 0,
            dup_ppm: 0,
            corrupt_ppm: 0,
        }
    }

    /// True when any lossy fault (drop/duplicate/corrupt) is enabled, which
    /// engages the recoverable transport layer.
    pub fn lossy(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.corrupt_ppm > 0
    }
}

/// One targeted delivery-delay burst of the schedule-perturbation layer.
///
/// While the global cycle counter is inside `[start, start + len)`, every
/// message whose `(src, dst)` channel is selected by `salt` (a deterministic
/// hash picks roughly half of all channels per salt) receives `extra` cycles
/// of additional delivery latency. Delaying a *subset* of channels reorders
/// messages across channels — exactly the transient-state interleavings the
/// fuzzer hunts — while the per-channel ordering floor in the transport keeps
/// every perturbed schedule one the mesh could legally produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DelayBurst {
    /// First cycle of the burst window.
    pub start: u64,
    /// Length of the window in cycles (0 disables the burst).
    pub len: u64,
    /// Extra delivery latency, in cycles, added to selected channels.
    pub extra: u64,
    /// Seed of the channel-selection hash.
    pub salt: u64,
}

/// Upper bound on a single burst's `extra` latency. Keeps fuzz schedules
/// inside the same order of magnitude as the watchdog windows, so a burst
/// perturbs ordering instead of just stalling the machine into a timeout.
pub const MAX_BURST_EXTRA: u64 = 4096;

impl DelayBurst {
    /// True when this burst is open at `now` and selects the `(src, dst)`
    /// channel. The selection hash is SplitMix64-style finalization over
    /// `(salt, src, dst)` keeping ~half of all channels per salt.
    pub fn applies(&self, now: u64, src: usize, dst: usize) -> bool {
        if self.len == 0 || now < self.start || now - self.start >= self.len {
            return false;
        }
        let mut h = self.salt ^ 0x9e37_79b9_7f4a_7c15;
        h = (h ^ src as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = (h ^ dst as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h & 1 == 0
    }
}

/// Maximum number of simultaneous delay bursts in a [`PerturbConfig`].
pub const MAX_PERTURB_BURSTS: usize = 4;

/// The schedule-perturbation layer's configuration: up to
/// [`MAX_PERTURB_BURSTS`] targeted delay bursts applied to message delivery.
///
/// This is the deterministic "genome" half the fuzzer mutates alongside the
/// chaos-rate knobs in [`FaultConfig`]; unlike chaos jitter (which draws from
/// a PRNG stream per message), bursts are pure functions of `(cycle, src,
/// dst)`, so shrinking a window keeps every delivery outside it untouched.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PerturbConfig {
    /// The burst table; only the first `n` entries are active.
    pub bursts: [DelayBurst; MAX_PERTURB_BURSTS],
    /// Number of active bursts.
    pub n: u8,
}

impl PerturbConfig {
    /// The active bursts.
    pub fn active(&self) -> &[DelayBurst] {
        &self.bursts[..(self.n as usize).min(MAX_PERTURB_BURSTS)]
    }

    /// Appends a burst; returns `false` when the table is full.
    pub fn push(&mut self, b: DelayBurst) -> bool {
        if (self.n as usize) < MAX_PERTURB_BURSTS {
            self.bursts[self.n as usize] = b;
            self.n += 1;
            true
        } else {
            false
        }
    }

    /// True when no burst is active.
    pub fn is_empty(&self) -> bool {
        self.active().iter().all(|b| b.len == 0 || b.extra == 0)
    }

    /// Total extra latency the active bursts add to a delivery on the
    /// `(src, dst)` channel at cycle `now`.
    pub fn extra_delay(&self, now: u64, src: usize, dst: usize) -> u64 {
        self.active()
            .iter()
            .filter(|b| b.applies(now, src, dst))
            .map(|b| b.extra)
            .sum()
    }
}

/// Robustness-layer knobs: invariant checking, the stall watchdog, and
/// fault injection (`row-check`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckConfig {
    /// Run the coherence invariant checker every this-many cycles during
    /// [`Machine::run`]-style loops (`None` = never). Checks also run once
    /// when a run drains successfully.
    ///
    /// [`Machine::run`]: ../row_sim/struct.Machine.html#method.run
    pub invariant_every: Option<u64>,
    /// Maximum tolerated depth of one Blocked directory entry's wait queue.
    /// `0` selects an automatic bound of `3 * cores + 4` (each core can
    /// contribute at most a request, a writeback, and a far atomic).
    pub blocked_queue_bound: usize,
    /// Declare the machine stalled when *no* core commits for this many
    /// cycles (`None` = watchdog off). Must comfortably exceed the cores'
    /// own deadlock-break threshold so the breaker gets to act first.
    pub watchdog_window: Option<u64>,
    /// Keep an in-memory checkpoint every this-many cycles and, when the
    /// invariant sweep or the watchdog fires, rewind to the last checkpoint
    /// and replay with per-cycle checking to pinpoint the *first* offending
    /// cycle (`None` = report the end state only, as before).
    pub rewind_every: Option<u64>,
    /// Deterministic fault injection of message delivery (`None` = off).
    pub chaos: Option<FaultConfig>,
    /// Targeted schedule perturbation of message delivery (`None` = off).
    /// Composes with `chaos`: burst delays apply on top of chaos jitter,
    /// and either alone routes messages through the transport's
    /// perturbation path.
    pub perturb: Option<PerturbConfig>,
    /// Record every architectural memory write in an apply-order journal,
    /// kept for the whole run, and when the run drains feed it through the
    /// same checks the online mode runs (`row-oracle`, against a sequential
    /// golden model): per-atomic RMW return values, per-core atomic counts
    /// and the final memory state must match, or the run fails with a
    /// structured mismatch.
    pub oracle: bool,
    /// Stream the apply-order journal through an *online* per-operation
    /// linearizability checker as the run executes (`row-oracle`): each
    /// journaled RMW's observed old value is checked against a sequential
    /// golden model the moment it is journaled, so a violation aborts the
    /// run at the offending operation instead of (or long before) the
    /// end-of-run replay. Memory stays O(live words) — the journal is
    /// drained as it is checked — which is what makes multi-hundred-million
    /// cycle soaks affordable. Takes precedence over `oracle` at drain time
    /// (the online checker's finish pass covers the same end-state checks).
    pub oracle_online: bool,
}

/// The full simulated system: the paper's Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// Number of cores (= threads; 32 in the paper).
    pub cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemoryConfig,
    /// Interconnect parameters.
    pub noc: NocConfig,
    /// Robustness-layer configuration (invariant checks, watchdog, chaos).
    pub check: CheckConfig,
}

impl SystemConfig {
    /// The paper's evaluated system: 32 Alder-Lake-like cores, Table I
    /// memory hierarchy, 8×4 mesh.
    pub fn alder_lake_32c() -> Self {
        SystemConfig {
            cores: 32,
            core: CoreConfig::alder_lake(),
            mem: MemoryConfig::alder_lake(),
            noc: NocConfig::mesh_8x4(),
            check: CheckConfig::default(),
        }
    }

    /// A scaled-down system for fast tests: `cores` cores, small caches.
    ///
    /// Keeps all structural behaviour (same pipeline, same protocol) while
    /// letting unit/integration tests run in milliseconds.
    pub fn small(cores: usize) -> Self {
        let mut cfg = SystemConfig::alder_lake_32c();
        cfg.cores = cores;
        cfg.core.rob_entries = 128;
        cfg.core.lq_entries = 48;
        cfg.core.sb_entries = 32;
        cfg.core.iq_entries = 48;
        cfg.mem.l1d = CacheConfig {
            size_bytes: 8 * 1024,
            ways: 4,
            hit_latency: 5,
        };
        cfg.mem.l2 = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 8,
            hit_latency: 12,
        };
        cfg.mem.l3_bank = CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            hit_latency: 35,
        };
        cfg.noc.mesh_cols = cores.clamp(1, 4);
        // Test-sized runs double as protocol stress tests: sweep the
        // coherence invariants periodically and watch for global stalls far
        // beyond the cores' own deadlock-break threshold.
        cfg.check.invariant_every = Some(2048);
        cfg.check.watchdog_window = Some(2_000_000);
        cfg
    }

    /// A beyond-paper scale-out system: `cores` cores (64/128/256) with the
    /// Table I per-core hierarchy on a wider mesh (64 → 8×8, 128 → 16×8,
    /// 256 → 16×16). Other core counts get the nearest power-of-two-ish
    /// column count so the mesh stays roughly square.
    pub fn huge(cores: usize) -> Self {
        let mut cfg = SystemConfig::alder_lake_32c();
        cfg.cores = cores;
        cfg.noc.mesh_cols = match cores {
            0..=64 => 8,
            _ => 16,
        };
        // Scale-out runs double as protocol stress tests, same as the test
        // tier: keep the (incremental) invariant sweep and the watchdog
        // armed. Figure sweeps override `check` from their own
        // ExperimentConfig, so benchmark cells are not taxed by this.
        cfg.check.invariant_every = Some(2048);
        cfg.check.watchdog_window = Some(2_000_000);
        cfg
    }

    /// Sets the atomic execution policy (builder-style).
    pub fn with_policy(mut self, policy: AtomicPolicy) -> Self {
        self.core.atomic_policy = policy;
        self
    }

    /// Sets the fence model (builder-style).
    pub fn with_fence_model(mut self, model: FenceModel) -> Self {
        self.core.fence_model = model;
        self
    }

    /// Enables store→atomic forwarding (builder-style).
    pub fn with_forward_to_atomics(mut self, on: bool) -> Self {
        self.core.forward_to_atomics = on;
        self
    }

    /// Sets near/far atomic placement (builder-style).
    pub fn with_placement(mut self, placement: AtomicPlacement) -> Self {
        self.core.atomic_placement = placement;
        self
    }

    /// Replaces the robustness-layer configuration (builder-style).
    pub fn with_check(mut self, check: CheckConfig) -> Self {
        self.check = check;
        self
    }

    /// Enables deterministic fault injection with `seed` (builder-style).
    pub fn with_chaos(mut self, seed: u64) -> Self {
        self.check.chaos = Some(FaultConfig::with_seed(seed));
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the first inconsistency found
    /// (zero cores, zero-width pipeline, non-dividing cache geometry, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("system must have at least one core".into());
        }
        if self.core.fetch_width == 0 || self.core.issue_width == 0 || self.core.commit_width == 0 {
            return Err("pipeline widths must be non-zero".into());
        }
        if self.core.rob_entries == 0
            || self.core.lq_entries == 0
            || self.core.sb_entries == 0
            || self.core.aq_entries == 0
        {
            return Err("queue sizes must be non-zero".into());
        }
        for (name, c) in [
            ("l1d", self.mem.l1d),
            ("l2", self.mem.l2),
            ("l3_bank", self.mem.l3_bank),
        ] {
            let lines = c.size_bytes / crate::ids::LINE_BYTES as usize;
            if lines == 0 || !lines.is_multiple_of(c.ways) {
                return Err(format!("{name} geometry does not divide into sets: {c:?}"));
            }
        }
        if self.noc.mesh_cols == 0 {
            return Err("mesh must have at least one column".into());
        }
        if self.check.invariant_every == Some(0) {
            return Err("invariant_every must be at least one cycle".into());
        }
        if self.check.watchdog_window == Some(0) {
            return Err("watchdog_window must be at least one cycle".into());
        }
        if self.check.rewind_every == Some(0) {
            return Err("rewind_every must be at least one cycle".into());
        }
        if let Some(fc) = &self.check.chaos {
            for (name, ppm) in [
                ("drop_ppm", fc.drop_ppm),
                ("dup_ppm", fc.dup_ppm),
                ("corrupt_ppm", fc.corrupt_ppm),
            ] {
                if ppm > MAX_FAULT_PPM {
                    return Err(format!(
                        "chaos {name} = {ppm} exceeds the maximum of {MAX_FAULT_PPM} \
                         (probability 0.5)"
                    ));
                }
            }
        }
        if let Some(pc) = &self.check.perturb {
            if pc.n as usize > MAX_PERTURB_BURSTS {
                return Err(format!(
                    "perturb config claims {} bursts, maximum is {MAX_PERTURB_BURSTS}",
                    pc.n
                ));
            }
            for b in pc.active() {
                if b.extra > MAX_BURST_EXTRA {
                    return Err(format!(
                        "perturb burst extra = {} exceeds the maximum of {MAX_BURST_EXTRA}",
                        b.extra
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::alder_lake_32c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters_match_paper() {
        let cfg = SystemConfig::alder_lake_32c();
        assert_eq!(cfg.cores, 32);
        assert_eq!(cfg.core.fetch_width, 6);
        assert_eq!(cfg.core.issue_width, 12);
        assert_eq!(cfg.core.commit_width, 12);
        assert_eq!(cfg.core.rob_entries, 512);
        assert_eq!(cfg.core.lq_entries, 192);
        assert_eq!(cfg.core.sb_entries, 128);
        assert_eq!(cfg.core.aq_entries, 16);
        assert_eq!(cfg.mem.l1d.size_bytes, 48 * 1024);
        assert_eq!(cfg.mem.l1d.ways, 12);
        assert_eq!(cfg.mem.l1d.hit_latency, 5);
        assert_eq!(cfg.mem.l2.hit_latency, 12);
        assert_eq!(cfg.mem.l3_bank.hit_latency, 35);
        assert_eq!(cfg.mem.mem_latency, 160);
        cfg.validate().unwrap();
    }

    #[test]
    fn row_storage_is_64_bytes() {
        // Section IV-F: 64-entry x 4-bit table + 16 AQ entries x 16 bits
        // = 256 + 256 bits = 64 bytes.
        let cfg = RowConfig::best();
        assert_eq!(cfg.storage_bits(16), 512);
        assert_eq!(cfg.storage_bits(16) / 8, 64);
    }

    #[test]
    fn detector_storage_scales_with_mechanism() {
        let ew = RowConfig::new(DetectorKind::ExecutionWindow, PredictorKind::UpDown);
        let rw = RowConfig::new(DetectorKind::ReadyWindow, PredictorKind::UpDown);
        assert_eq!(ew.storage_bits(16), 256 + 16);
        assert_eq!(rw.storage_bits(16), 256 + 32);
    }

    #[test]
    fn decision_threshold_tracks_predictor() {
        assert_eq!(
            RowConfig::new(DetectorKind::default(), PredictorKind::UpDown).decision_threshold,
            1
        );
        assert_eq!(
            RowConfig::new(DetectorKind::default(), PredictorKind::SaturateOnContention)
                .decision_threshold,
            0
        );
    }

    #[test]
    fn cache_sets_divide() {
        let c = CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            hit_latency: 5,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn small_config_validates() {
        for n in [1, 2, 4, 8] {
            SystemConfig::small(n).validate().unwrap();
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SystemConfig::small(2);
        cfg.cores = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small(2);
        cfg.core.fetch_width = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small(2);
        cfg.mem.l1d.ways = 7; // 128 lines % 7 != 0
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small(2).with_chaos(1);
        cfg.check.chaos.as_mut().unwrap().drop_ppm = MAX_FAULT_PPM + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_config_lossy_classification() {
        let fc = FaultConfig::with_seed(3);
        assert!(!fc.lossy(), "delay-only chaos is not lossy");
        for lossy in [
            FaultConfig { drop_ppm: 1, ..fc },
            FaultConfig { dup_ppm: 1, ..fc },
            FaultConfig {
                corrupt_ppm: 1,
                ..fc
            },
        ] {
            assert!(lossy.lossy());
        }
    }

    #[test]
    fn perturb_bursts_select_windows_and_channels() {
        let b = DelayBurst {
            start: 100,
            len: 50,
            extra: 10,
            salt: 7,
        };
        // Outside the window: never applies.
        assert!(!b.applies(99, 0, 1));
        assert!(!b.applies(150, 0, 1));
        // Inside the window: applies to a salt-selected subset of channels,
        // not all and not none.
        let hit: usize = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .filter(|&(s, d)| b.applies(120, s, d))
            .count();
        assert!(hit > 0 && hit < 64, "selection hit {hit}/64 channels");
        // Different salts select different subsets.
        let b2 = DelayBurst { salt: 8, ..b };
        let differs = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .any(|(s, d)| b.applies(120, s, d) != b2.applies(120, s, d));
        assert!(differs);
        // Determinism: same inputs, same answer.
        assert_eq!(b.applies(120, 3, 5), b.applies(120, 3, 5));

        let mut pc = PerturbConfig::default();
        assert!(pc.is_empty());
        assert!(pc.push(b));
        assert_eq!(pc.active().len(), 1);
        let any_extra = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .any(|(s, d)| pc.extra_delay(120, s, d) == 10);
        assert!(any_extra);
        assert_eq!(pc.extra_delay(99, 0, 1), 0);
    }

    #[test]
    fn perturb_config_validates() {
        let mut cfg = SystemConfig::small(2);
        let mut pc = PerturbConfig::default();
        pc.push(DelayBurst {
            start: 0,
            len: 10,
            extra: MAX_BURST_EXTRA + 1,
            salt: 0,
        });
        cfg.check.perturb = Some(pc);
        assert!(cfg.validate().is_err());
        cfg.check.perturb.as_mut().unwrap().bursts[0].extra = MAX_BURST_EXTRA;
        cfg.validate().unwrap();
    }

    #[test]
    fn builders_apply() {
        let cfg = SystemConfig::small(2)
            .with_policy(AtomicPolicy::Lazy)
            .with_fence_model(FenceModel::Fenced)
            .with_forward_to_atomics(true);
        assert_eq!(cfg.core.atomic_policy, AtomicPolicy::Lazy);
        assert_eq!(cfg.core.fence_model, FenceModel::Fenced);
        assert!(cfg.core.forward_to_atomics);
    }

    #[test]
    fn atomic_policy_row_accessor() {
        let row = AtomicPolicy::Row(RowConfig::best());
        assert!(row.row().is_some());
        assert!(AtomicPolicy::Eager.row().is_none());
    }
}
