//! The snapshot module: the independent staleness auditor (paper §9.1.1).
//!
//! Every five seconds of simulated time the snapshot module records the
//! staleness of all sharings, whether each violates its SLA, the number of
//! tuples moved since the previous snapshot, and the dollars metered. SLA
//! penalties are charged here: a sharing found stale at a snapshot pays its
//! per-tuple penalty for the tuples it delivered during the violating
//! interval.

use crate::executor::Executor;
use smile_sim::Cluster;
use smile_types::{SharingId, SimDuration, Timestamp};

/// Staleness of one sharing at one snapshot.
#[derive(Clone, Copy, Debug)]
pub struct SharingSnapshot {
    /// The sharing.
    pub id: SharingId,
    /// Observed staleness.
    pub staleness: SimDuration,
    /// Its SLA at the time.
    pub sla: SimDuration,
    /// True iff `staleness > sla`.
    pub violated: bool,
}

/// One audit record.
#[derive(Clone, Debug)]
pub struct SnapshotRecord {
    /// Simulated time of the audit.
    pub at: Timestamp,
    /// Per-sharing staleness.
    pub sharings: Vec<SharingSnapshot>,
    /// Tuples moved platform-wide since the previous snapshot.
    pub tuples_moved: u64,
    /// Dollars metered platform-wide since the previous snapshot.
    pub dollars: f64,
}

/// The periodic auditor.
#[derive(Clone, Debug)]
pub struct SnapshotModule {
    period: SimDuration,
    last: Option<Timestamp>,
    last_tuples: u64,
    last_dollars: f64,
    /// The tuples each sharing live at the previous audit had moved by
    /// then, in id order.
    last_moved: Vec<(SharingId, u64)>,
    /// All records, oldest first.
    pub records: Vec<SnapshotRecord>,
}

impl SnapshotModule {
    /// Auditor with the paper's 5-second period.
    pub fn new() -> Self {
        Self::with_period(SimDuration::from_secs(5))
    }

    /// Auditor with a custom period.
    pub fn with_period(period: SimDuration) -> Self {
        Self {
            period,
            last: None,
            last_tuples: 0,
            last_dollars: 0.0,
            last_moved: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Records an audit if one is due at `now`. Returns true when a record
    /// was taken.
    pub fn maybe_record(
        &mut self,
        executor: &Executor,
        cluster: &mut Cluster,
        now: Timestamp,
    ) -> bool {
        if self.last.is_some_and(|t| now - t < self.period) {
            return false;
        }
        self.last = Some(now);
        // Storage metering rides the audit cadence.
        cluster.sample_disks(now);

        let audited = executor.staleness_by_sharing(now);
        let (mut sharings, mut moved) = (Vec::new(), Vec::with_capacity(audited.size_hint().0));
        for (id, staleness, sla, penalty, moved_now) in audited {
            let violated = staleness > sla;
            if violated {
                // Charge the per-tuple penalty on the tuples the sharing
                // moved during the violating interval.
                let last = self.last_moved.binary_search_by_key(&id, |&(id, _)| id);
                let moved_last = last.map_or(0, |i| self.last_moved[i].1);
                let late = moved_now.saturating_sub(moved_last).max(1);
                cluster.ledger.charge_penalty(id, penalty * late as f64);
            }
            moved.push((id, moved_now));
            sharings.push(SharingSnapshot {
                id,
                staleness,
                sla,
                violated,
            });
        }
        let dollars_now = cluster.total_dollars();
        let record = SnapshotRecord {
            at: now,
            sharings,
            tuples_moved: executor.tuples_moved - self.last_tuples,
            dollars: dollars_now - self.last_dollars,
        };
        self.last_tuples = executor.tuples_moved;
        self.last_dollars = dollars_now;
        self.last_moved = moved;
        self.records.push(record);
        true
    }

    /// Total violations observed across all sharings.
    pub fn violations_total(&self) -> usize {
        self.records
            .iter()
            .flat_map(|r| &r.sharings)
            .filter(|s| s.violated)
            .count()
    }

    /// Violations of one sharing.
    pub fn violations_of(&self, id: SharingId) -> usize {
        self.records
            .iter()
            .flat_map(|r| &r.sharings)
            .filter(|s| s.id == id && s.violated)
            .count()
    }

    /// Staleness time series of one sharing: `(time, staleness)` pairs —
    /// the Figure 6 traces.
    pub fn staleness_series(&self, id: SharingId) -> Vec<(Timestamp, SimDuration)> {
        self.records
            .iter()
            .filter_map(|r| {
                r.sharings
                    .iter()
                    .find(|s| s.id == id)
                    .map(|s| (r.at, s.staleness))
            })
            .collect()
    }

    /// Tuples-moved-per-snapshot series (Figure 6 right).
    pub fn tuples_series(&self) -> Vec<(Timestamp, u64)> {
        self.records
            .iter()
            .map(|r| (r.at, r.tuples_moved))
            .collect()
    }

    /// Violations per sharing-hour: total violations divided by
    /// (sharings × audited hours) — the unit of Figure 8b and Table 2.
    pub fn violations_per_sharing_hour(&self) -> f64 {
        let (Some(first), Some(last)) = (self.records.first(), self.records.last()) else {
            return 0.0;
        };
        let hours = (last.at - first.at).as_secs_f64() / 3600.0;
        let sharings = last.sharings.len().max(1) as f64;
        if hours <= 0.0 {
            return 0.0;
        }
        self.violations_total() as f64 / (sharings * hours)
    }
}

impl Default for SnapshotModule {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use crate::platform::{Smile, SmileConfig};
    use smile_storage::delta::{DeltaBatch, DeltaEntry};
    use smile_storage::SpjQuery;
    use smile_types::{tuple, Column, ColumnType, MachineId, RelationId, Schema};

    fn tiny_platform() -> (Smile, RelationId, SharingId) {
        let mut smile = Smile::new(SmileConfig::with_machines(1));
        let r = smile
            .register_base(
                "r",
                Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0]),
                MachineId::new(0),
                BaseStats {
                    update_rate: 2.0,
                    cardinality: 50.0,
                    tuple_bytes: 16.0,
                    distinct: vec![50.0],
                },
            )
            .unwrap();
        let id = smile
            .submit("scan", SpjQuery::scan(r), SimDuration::from_secs(10), 0.01)
            .unwrap();
        smile.install().unwrap();
        (smile, r, id)
    }

    #[test]
    fn records_every_period_and_series_accessors_work() {
        let (mut smile, r, id) = tiny_platform();
        for s in 0..30i64 {
            let now = smile.now();
            smile
                .ingest(
                    r,
                    DeltaBatch {
                        entries: vec![DeltaEntry::insert(tuple![s], now)],
                    },
                )
                .unwrap();
            smile.step().unwrap();
        }
        // 5 s period over 30 s → 6 records.
        assert_eq!(smile.snapshot.records.len(), 6);
        let series = smile.snapshot.staleness_series(id);
        assert_eq!(series.len(), 6);
        // Timestamps are strictly increasing.
        for w in series.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert_eq!(smile.snapshot.tuples_series().len(), 6);
        assert_eq!(
            smile.snapshot.violations_of(id),
            smile.snapshot.violations_total()
        );
    }

    #[test]
    fn violations_per_sharing_hour_is_zero_for_clean_runs() {
        let (mut smile, r, _id) = tiny_platform();
        for s in 0..40i64 {
            let now = smile.now();
            smile
                .ingest(
                    r,
                    DeltaBatch {
                        entries: vec![DeltaEntry::insert(tuple![s + 100], now)],
                    },
                )
                .unwrap();
            smile.step().unwrap();
        }
        assert_eq!(smile.snapshot.violations_total(), 0);
        assert_eq!(smile.snapshot.violations_per_sharing_hour(), 0.0);
    }

    #[test]
    fn custom_period_respected() {
        let m = SnapshotModule::with_period(SimDuration::from_secs(2));
        assert!(m.records.is_empty());
        assert_eq!(m.violations_total(), 0);
        assert_eq!(m.violations_per_sharing_hour(), 0.0);
    }
}
