//! Resource usage accounting, attributed per sharing.
//!
//! The provider "pays for the resources (CPU, Disk, Network) consumed in the
//! cloud" (§1). The [`UsageLedger`] charges each operation's usage to the
//! sharing whose push ran it — the same triggered-pays rule the executor's
//! tuple meter follows — or to the total only, for platform overhead. It is
//! the source of every dollars-per-sharing-hour figure in the evaluation.

use smile_types::{SharingId, SimDuration};
use std::collections::{BTreeMap, HashMap};

/// Re-exported so meter consumers read arrangement statistics through one
/// module.
pub use smile_storage::ArrangementCounters;
/// Re-exported so meter consumers read WAL traffic statistics through one
/// module (aggregated fleet-wide by `Cluster::wal_meter`).
pub use smile_storage::wal::WalCounters;

/// Fleet-wide arrangement statistics, aggregated across every machine's
/// database. Pairs with the dollar ledger: probe-served snapshot rows are
/// read in place and intentionally absent from the "tuples moved" metric,
/// so this meter is where that traffic becomes visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrangementMeter {
    /// Number of arrangements installed across the fleet.
    pub arrangements: u64,
    /// Summed per-arrangement counters.
    pub counters: ArrangementCounters,
}

impl ArrangementMeter {
    /// Fraction of probes that hit a non-empty bucket (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        self.counters.hit_rate()
    }
}

/// Host-side (wall-clock, not simulated) totals of the push engine: how
/// many waves and wave-jobs ran and how much real CPU time the
/// jobs cost. The counts live in the telemetry registry (`wave.waves`,
/// `wave.jobs`, `wave.host_busy_nanos`); this struct is the *view* of them
/// that `Smile::wave_meter()` assembles on demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveMeter {
    /// Waves executed.
    pub waves: u64,
    /// Edge jobs executed across all waves.
    pub jobs: u64,
    /// Host nanoseconds of per-job work, summed.
    pub busy_nanos: u64,
}

/// Accumulated resource consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// CPU busy time.
    pub cpu: SimDuration,
    /// Bytes shipped over the network.
    pub net_bytes: u64,
    /// Disk occupancy integral in byte-seconds (bytes held × seconds held);
    /// priced per GB-month.
    pub disk_byte_secs: f64,
}

impl ResourceUsage {
    /// Zero usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ResourceUsage) {
        self.cpu += other.cpu;
        self.net_bytes += other.net_bytes;
        self.disk_byte_secs += other.disk_byte_secs;
    }
}

/// Per-sharing and total resource ledger.
#[derive(Clone, Debug, Default)]
pub struct UsageLedger {
    total: ResourceUsage,
    per_sharing: HashMap<SharingId, ResourceUsage>,
    /// SLA penalty dollars accrued per sharing (violations × pens), in id
    /// order: their float sum is billed and must not depend on a hash seed.
    penalties: BTreeMap<SharingId, f64>,
}

impl UsageLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `usage` to the total and, when given, to `sharing`. `None`
    /// charges only the total (platform overhead such as heartbeats).
    pub fn charge(&mut self, usage: ResourceUsage, sharing: Option<SharingId>) {
        self.total.add(&usage);
        if let Some(s) = sharing {
            self.per_sharing.entry(s).or_default().add(&usage);
        }
    }

    /// Records an SLA penalty payment for a sharing.
    pub fn charge_penalty(&mut self, sharing: SharingId, dollars: f64) {
        *self.penalties.entry(sharing).or_default() += dollars;
    }

    /// Total usage across all sharings.
    pub fn total(&self) -> &ResourceUsage {
        &self.total
    }

    /// Usage attributed to one sharing.
    pub fn sharing(&self, s: SharingId) -> ResourceUsage {
        self.per_sharing.get(&s).copied().unwrap_or_default()
    }

    /// Penalty dollars accrued by one sharing.
    pub fn penalty(&self, s: SharingId) -> f64 {
        self.penalties.get(&s).copied().unwrap_or(0.0)
    }

    /// Sum of all penalties.
    pub fn total_penalties(&self) -> f64 {
        self.penalties.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(cpu_ms: u64, net: u64) -> ResourceUsage {
        ResourceUsage {
            cpu: SimDuration::from_millis(cpu_ms),
            net_bytes: net,
            disk_byte_secs: 0.0,
        }
    }

    #[test]
    fn a_charge_hits_the_total_and_at_most_one_sharing() {
        let mut l = UsageLedger::new();
        l.charge(usage(10, 0), None);
        assert_eq!(l.total().cpu, SimDuration::from_millis(10));
        assert_eq!(l.sharing(SharingId::new(0)), ResourceUsage::zero());
        l.charge(usage(5, 7), Some(SharingId::new(0)));
        assert_eq!(l.sharing(SharingId::new(0)), usage(5, 7));
        assert_eq!(l.total().cpu, SimDuration::from_millis(15));
    }

    #[test]
    fn penalties_accumulate() {
        let mut l = UsageLedger::new();
        let s = SharingId::new(3);
        l.charge_penalty(s, 0.001);
        l.charge_penalty(s, 0.002);
        assert!((l.penalty(s) - 0.003).abs() < 1e-12);
        assert!((l.total_penalties() - 0.003).abs() < 1e-12);
    }
}
