//! One lock-service campaign cell: the machine `norush soak` and `norush
//! fuzz` both run. Each campaign fills in its own knobs (soak: the phase's
//! kernel, seed and escalated chaos; fuzz: the genome's chaos and delay
//! bursts) and plants its own test bug.

use row_common::config::{CheckConfig, FaultConfig, PerturbConfig, SystemConfig};
use row_workloads::{LockServiceConfig, LockServiceStream};

use crate::machine::Machine;
use crate::sweep::Variant;

/// Everything that shapes one lock-service cell's machine.
#[derive(Clone, Copy, Debug)]
pub struct ServiceCell<'a> {
    /// Policy name (`eager`, `lazy`, `row`, `row-fwd`, `far`).
    pub policy: &'a str,
    /// Simulated cores, one service thread each.
    pub cores: usize,
    /// The service workload, kernel included.
    pub svc: LockServiceConfig,
    /// Workload seed.
    pub seed: u64,
    /// Deadlock-watchdog window, in cycles.
    pub watchdog: u64,
    /// Delivery jitter and lossy faults (`None` = off).
    pub chaos: Option<FaultConfig>,
    /// Targeted delay bursts (`None` = off).
    pub perturb: Option<PerturbConfig>,
    /// Test-only atomicity bug: lose the Nth FAA and double-apply the next
    /// one on the same word (0 = off).
    pub net_zero_faa: u64,
    /// Test-only directory bug: the early-unblock race.
    pub early_unblock: bool,
}

impl ServiceCell<'_> {
    /// A fresh machine for the cell: one [`LockServiceStream`] per core
    /// under the policy on [`SystemConfig::small`], with the invariant sweep
    /// every 4,096 cycles, the deadlock watchdog and the online
    /// linearizability checker armed, and the test bug planted.
    ///
    /// # Errors
    /// An unknown policy, or a setting [`SystemConfig::validate`] refuses.
    pub fn machine(&self) -> Result<Machine, String> {
        let sys = Variant::by_name(self.policy)?
            .apply(SystemConfig::small(self.cores))
            .with_check(CheckConfig {
                invariant_every: Some(4_096),
                watchdog_window: Some(self.watchdog),
                oracle_online: true,
                chaos: self.chaos,
                perturb: self.perturb,
                ..CheckConfig::default()
            });
        sys.validate()?;
        let streams = (0..self.cores)
            .map(|t| Box::new(LockServiceStream::new(self.svc, t, self.cores, self.seed)) as _)
            .collect();
        let mut m = Machine::new(&sys, streams);
        if self.net_zero_faa > 0 {
            m.memory_mut()
                .inject_net_zero_faa_for_test(self.net_zero_faa);
        }
        if self.early_unblock {
            m.memory_mut().inject_early_unblock_for_test();
        }
        Ok(m)
    }
}
