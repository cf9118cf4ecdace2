//! Simulated machines.
//!
//! A machine hosts one database instance and two single-server FIFO
//! resources: a CPU and an outbound NIC. Work submitted to a resource starts
//! when the resource frees up and occupies it for the service time, so
//! concurrent pushes on the same machine queue behind each other — the
//! "negative interaction at low staleness values" that the cost model's
//! over-provisioning term exists to absorb (§5.2), and the mechanism by
//! which the Figure 14 read workload slows down pushes.

use crate::meter::ResourceUsage;
use smile_storage::Database;
use smile_types::{MachineId, SimDuration, Timestamp};

/// Static machine parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Relative CPU speed; service times are divided by this (1.0 = the
    /// machine the time-cost model was calibrated on).
    pub cpu_speed: f64,
    /// Outbound NIC bandwidth in bytes/second.
    pub net_bandwidth: f64,
    /// One-way network latency to any other machine.
    pub net_latency: SimDuration,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            cpu_speed: 1.0,
            // 1 Gbit/s EC2-large-class NIC.
            net_bandwidth: 125e6,
            net_latency: SimDuration::from_millis(1),
        }
    }
}

/// Outcome of reserving a FIFO resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// When the work actually started (>= submission time).
    pub start: Timestamp,
    /// When the work completes and the resource frees up.
    pub end: Timestamp,
}

/// One simulated machine: database + FIFO CPU + FIFO outbound NIC.
#[derive(Debug)]
pub struct Machine {
    id: MachineId,
    config: MachineConfig,
    /// The hosted database instance.
    pub db: Database,
    cpu_free_at: Timestamp,
    nic_free_at: Timestamp,
    usage: ResourceUsage,
    /// Bytes currently materialized, sampled into disk byte-seconds.
    last_disk_sample: Timestamp,
}

impl Machine {
    /// New idle machine.
    pub fn new(id: MachineId, config: MachineConfig) -> Self {
        Self {
            id,
            config,
            db: Database::new(),
            cpu_free_at: Timestamp::ZERO,
            nic_free_at: Timestamp::ZERO,
            usage: ResourceUsage::zero(),
            last_disk_sample: Timestamp::ZERO,
        }
    }

    /// Machine id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Submits CPU work with the given nominal service time at `now`; the
    /// job queues FIFO behind earlier work and runs scaled by CPU speed.
    /// Returns the reservation and the usage to charge.
    pub fn run_cpu(
        &mut self,
        now: Timestamp,
        service: SimDuration,
    ) -> (Reservation, ResourceUsage) {
        let busy = service.mul_f64(1.0 / self.config.cpu_speed);
        let start = self.cpu_free_at.max(now);
        let end = start + busy;
        self.cpu_free_at = end;
        let usage = ResourceUsage {
            cpu: busy,
            net_bytes: 0,
            disk_byte_secs: 0.0,
        };
        self.usage.add(&usage);
        (Reservation { start, end }, usage)
    }

    /// Submits an outbound transfer of `bytes` at `now`. The transfer
    /// serializes on the NIC, then incurs the propagation latency. Returns
    /// the reservation (whose `end` is arrival time at the peer) and usage.
    pub fn send(&mut self, now: Timestamp, bytes: u64) -> (Reservation, ResourceUsage) {
        let wire = SimDuration::from_secs_f64(bytes as f64 / self.config.net_bandwidth);
        let start = self.nic_free_at.max(now);
        let nic_done = start + wire;
        self.nic_free_at = nic_done;
        let end = nic_done + self.config.net_latency;
        let usage = ResourceUsage {
            cpu: SimDuration::ZERO,
            net_bytes: bytes,
            disk_byte_secs: 0.0,
        };
        self.usage.add(&usage);
        (Reservation { start, end }, usage)
    }

    /// Samples current disk occupancy into the byte-seconds integral.
    /// Call periodically (e.g. every snapshot). Returns the usage sampled.
    pub fn sample_disk(&mut self, now: Timestamp) -> ResourceUsage {
        let dt = (now - self.last_disk_sample).as_secs_f64();
        self.last_disk_sample = now;
        let usage = ResourceUsage {
            cpu: SimDuration::ZERO,
            net_bytes: 0,
            disk_byte_secs: self.db.total_bytes() as f64 * dt,
        };
        self.usage.add(&usage);
        usage
    }

    /// Takes the machine out of service until `until` (a crash): the CPU
    /// and NIC accept no new work before the restart, so jobs submitted
    /// during the outage queue behind it.
    pub fn outage(&mut self, until: Timestamp) {
        self.cpu_free_at = self.cpu_free_at.max(until);
        self.nic_free_at = self.nic_free_at.max(until);
    }

    /// When the CPU next frees up (load signal for schedulers).
    pub fn cpu_free_at(&self) -> Timestamp {
        self.cpu_free_at
    }

    /// Lifetime resource usage of this machine.
    pub fn usage(&self) -> &ResourceUsage {
        &self.usage
    }

    /// CPU backlog at `now`: how long a new job would wait before starting.
    pub fn cpu_backlog(&self, now: Timestamp) -> SimDuration {
        self.cpu_free_at - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineId::new(0), MachineConfig::default())
    }

    #[test]
    fn cpu_jobs_queue_fifo() {
        let mut m = machine();
        let now = Timestamp::from_secs(10);
        let (r1, _) = m.run_cpu(now, SimDuration::from_secs(2));
        assert_eq!(r1.start, now);
        assert_eq!(r1.end, Timestamp::from_secs(12));
        let (r2, _) = m.run_cpu(now, SimDuration::from_secs(1));
        assert_eq!(r2.start, Timestamp::from_secs(12));
        assert_eq!(r2.end, Timestamp::from_secs(13));
        assert_eq!(m.cpu_backlog(now), SimDuration::from_secs(3));
    }

    #[test]
    fn cpu_speed_scales_service() {
        let mut fast = Machine::new(
            MachineId::new(1),
            MachineConfig {
                cpu_speed: 2.0,
                ..MachineConfig::default()
            },
        );
        let (r, u) = fast.run_cpu(Timestamp::ZERO, SimDuration::from_secs(4));
        assert_eq!(r.end, Timestamp::from_secs(2));
        assert_eq!(u.cpu, SimDuration::from_secs(2));
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let mut m = machine();
        m.run_cpu(Timestamp::ZERO, SimDuration::from_secs(1));
        // Submit long after the CPU went idle.
        let (r, _) = m.run_cpu(Timestamp::from_secs(100), SimDuration::from_secs(1));
        assert_eq!(r.start, Timestamp::from_secs(100));
    }

    #[test]
    fn send_serializes_on_nic_and_adds_latency() {
        let mut m = machine();
        // 125 MB at 125 MB/s = 1s wire time + 1ms latency.
        let (r1, u1) = m.send(Timestamp::ZERO, 125_000_000);
        assert_eq!(
            r1.end,
            Timestamp::from_secs(1) + SimDuration::from_millis(1)
        );
        assert_eq!(u1.net_bytes, 125_000_000);
        let (r2, _) = m.send(Timestamp::ZERO, 125_000_000);
        // Second transfer waits for the NIC, not for the latency leg.
        assert_eq!(r2.start, Timestamp::from_secs(1));
        assert_eq!(
            r2.end,
            Timestamp::from_secs(2) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn disk_sampling_integrates_occupancy() {
        use smile_types::{tuple, Column, ColumnType, RelationId, Schema};
        let mut m = machine();
        m.db.create_relation(
            RelationId::new(0),
            Schema::new(vec![Column::new("k", ColumnType::I64)], vec![0]),
        )
        .unwrap();
        m.db.ingest(
            RelationId::new(0),
            [smile_storage::DeltaEntry::insert(
                tuple![1i64],
                Timestamp::ZERO,
            )]
            .into_iter()
            .collect(),
        )
        .unwrap();
        let u = m.sample_disk(Timestamp::from_secs(10));
        assert!(u.disk_byte_secs > 0.0);
        assert_eq!(u.disk_byte_secs, m.db.total_bytes() as f64 * 10.0);
    }
}
