//! The machine fleet.

use crate::clock::DistributedClock;
use crate::faults::{FaultInjector, FaultProfile};
use crate::machine::{Machine, MachineConfig};
use crate::meter::UsageLedger;
use crate::pricing::PriceSheet;
use smile_types::{MachineId, Result, SimDuration, SmileError, Timestamp};

/// Lifecycle of one machine in an elastic fleet. `MachineId`s are dense
/// indices into the machine vector and are never reused, so a retired
/// machine keeps its slot as a tombstone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineState {
    /// Accepting placements and running work.
    Active,
    /// No new placements; existing state is being migrated off before the
    /// machine retires.
    Draining,
    /// Released back to the provider; metering stopped.
    Retired,
}

/// The set of machines available to implement the sharings, plus the shared
/// clock, price sheet and the per-sharing usage ledger.
#[derive(Debug)]
pub struct Cluster {
    machines: Vec<Machine>,
    /// Per-slot lifecycle (parallel to `machines`).
    states: Vec<MachineState>,
    /// Distributed clock used to stamp deltas and heartbeats.
    pub clock: DistributedClock,
    /// Prices applied to metered usage.
    pub prices: PriceSheet,
    /// Per-sharing resource attribution.
    pub ledger: UsageLedger,
    /// Seeded fault source consulted by every fault-prone operation
    /// (disabled unless a profile is installed).
    pub faults: FaultInjector,
}

impl Cluster {
    /// Builds `n` identical machines with the default configuration, a
    /// perfect clock, and cross-zone EC2 pricing.
    pub fn homogeneous(n: usize) -> Self {
        Self::with_configs(vec![MachineConfig::default(); n])
    }

    /// Builds machines from explicit configurations.
    pub fn with_configs(configs: Vec<MachineConfig>) -> Self {
        let machines = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| Machine::new(MachineId::new(i as u32), c))
            .collect::<Vec<_>>();
        let n = machines.len();
        Self {
            machines,
            states: vec![MachineState::Active; n],
            clock: DistributedClock::perfect(n),
            prices: PriceSheet::default(),
            ledger: UsageLedger::new(),
            faults: FaultInjector::disabled(n),
        }
    }

    /// Adds a fresh machine to the fleet (scale-up), returning its id. The
    /// new machine joins fully synchronized (zero clock drift) and inherits
    /// the installed fault profile through a fresh per-machine crash stream
    /// — existing machines' fault streams are untouched, so growing the
    /// fleet never perturbs already-scheduled faults.
    pub fn add_machine(&mut self, config: MachineConfig) -> MachineId {
        let id = MachineId::new(self.machines.len() as u32);
        self.machines.push(Machine::new(id, config));
        self.states.push(MachineState::Active);
        self.clock.add_machine();
        self.faults.add_machine();
        id
    }

    /// The lifecycle state of machine `m`.
    pub fn machine_state(&self, m: MachineId) -> MachineState {
        self.states
            .get(m.index())
            .copied()
            .unwrap_or(MachineState::Retired)
    }

    /// Marks `m` draining: no new placements land there while its existing
    /// state is migrated off.
    pub fn begin_drain(&mut self, m: MachineId) {
        if let Some(state) = self.states.get_mut(m.index()) {
            if *state == MachineState::Active {
                *state = MachineState::Draining;
            }
        }
    }

    /// Retires `m` (drain-before-retire is the caller's contract); the slot
    /// stays as a tombstone so machine ids remain dense.
    pub fn retire_machine(&mut self, m: MachineId) {
        if let Some(state) = self.states.get_mut(m.index()) {
            *state = MachineState::Retired;
        }
    }

    /// Ids of machines currently accepting placements.
    pub fn active_machine_ids(&self) -> Vec<MachineId> {
        self.machines
            .iter()
            .zip(&self.states)
            .filter(|(_, &state)| state == MachineState::Active)
            .map(|(m, _)| m.id())
            .collect()
    }

    /// Number of machines not yet retired (reserved capacity the fleet is
    /// paying for).
    pub fn reserved_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&state| state != MachineState::Retired)
            .count()
    }

    /// Installs a fault profile, replacing the injector (and its history).
    pub fn set_fault_profile(&mut self, profile: FaultProfile) {
        self.faults = FaultInjector::new(profile, self.machines.len());
    }

    /// Applies crash faults due at `now`: every machine currently inside a
    /// scheduled down interval has its resources blocked until its restart,
    /// so work already queued there stalls through the outage.
    pub fn apply_faults(&mut self, now: Timestamp) {
        for i in 0..self.machines.len() {
            if let Some(until) = self.faults.down_until(MachineId::new(i as u32), now) {
                self.machines[i].outage(until);
            }
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True iff the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// All machine ids.
    pub fn machine_ids(&self) -> Vec<MachineId> {
        self.machines.iter().map(Machine::id).collect()
    }

    /// Shared read access to a machine.
    pub fn machine(&self, m: MachineId) -> Result<&Machine> {
        self.machines
            .get(m.index())
            .ok_or(SmileError::UnknownMachine(m))
    }

    /// Mutable access to a machine.
    pub fn machine_mut(&mut self, m: MachineId) -> Result<&mut Machine> {
        self.machines
            .get_mut(m.index())
            .ok_or(SmileError::UnknownMachine(m))
    }

    /// Samples disk occupancy on every machine into the ledger's total
    /// (storage is platform overhead shared by all sharings hosted on the
    /// machine; per-sharing attribution happens through plan vertices).
    pub fn sample_disks(&mut self, now: Timestamp) {
        for m in &mut self.machines {
            let u = m.sample_disk(now);
            self.ledger.charge(u, None);
        }
    }

    /// Dollars metered so far across the whole fleet.
    pub fn total_dollars(&self) -> f64 {
        let mut usage = crate::meter::ResourceUsage::zero();
        for m in &self.machines {
            usage.add(m.usage());
        }
        self.prices.dollars(&usage) + self.ledger.total_penalties()
    }

    /// Fleet-wide arrangement statistics: every arrangement on every
    /// relation of every machine, summed into one
    /// [`crate::meter::ArrangementMeter`].
    pub fn arrangement_meter(&self) -> crate::meter::ArrangementMeter {
        let mut meter = crate::meter::ArrangementMeter::default();
        for m in &self.machines {
            meter.arrangements += m.db.arrangement_count() as u64;
            meter.counters.add(&m.db.arrangement_counters());
        }
        meter
    }

    /// Fleet-wide WAL traffic: every machine's shipped/landed byte and
    /// batch counters summed into one [`crate::meter::WalCounters`]
    /// (telemetry view; the cells are maintained by the executor's
    /// ship/land halves through `Database::wal_stats`).
    pub fn wal_meter(&self) -> crate::meter::WalCounters {
        let mut total = crate::meter::WalCounters::default();
        for m in &self.machines {
            total.add(&m.db.wal_counters());
        }
        total
    }

    /// The largest CPU backlog across machines (stability signal used by the
    /// Figure 11 capacity search: a growing backlog means the offered rate
    /// exceeds what the fleet can sustain).
    pub fn max_backlog(&self, now: Timestamp) -> SimDuration {
        self.machines
            .iter()
            .map(|m| m.cpu_backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_fleet_has_sequential_ids() {
        let c = Cluster::homogeneous(3);
        assert_eq!(c.len(), 3);
        assert_eq!(
            c.machine_ids(),
            vec![MachineId::new(0), MachineId::new(1), MachineId::new(2)]
        );
        assert!(!c.is_empty());
    }

    #[test]
    fn unknown_machine_errors() {
        let mut c = Cluster::homogeneous(1);
        assert!(c.machine(MachineId::new(5)).is_err());
        assert!(c.machine_mut(MachineId::new(5)).is_err());
    }

    #[test]
    fn backlog_tracks_busiest_machine() {
        let mut c = Cluster::homogeneous(2);
        let now = Timestamp::from_secs(1);
        c.machine_mut(MachineId::new(1))
            .unwrap()
            .run_cpu(now, SimDuration::from_secs(5));
        assert_eq!(c.max_backlog(now), SimDuration::from_secs(5));
    }

    #[test]
    fn crash_outage_blocks_machine_resources_until_restart() {
        let mut c = Cluster::homogeneous(1);
        c.set_fault_profile(FaultProfile::chaos(5));
        // Find an instant where machine 0 is down.
        let mut down_at = None;
        for s in 0..3600 {
            let t = Timestamp::from_secs(s);
            if let Some(until) = c.faults.down_until(MachineId::new(0), t) {
                down_at = Some((t, until));
                break;
            }
        }
        let (t, until) = down_at.expect("no crash in an hour of chaos");
        c.apply_faults(t);
        let m = c.machine_mut(MachineId::new(0)).unwrap();
        let (res, _) = m.run_cpu(t, SimDuration::from_secs(1));
        assert!(res.start >= until, "work ran during the outage");
    }

    #[test]
    fn disabled_faults_leave_machines_untouched() {
        let mut c = Cluster::homogeneous(2);
        c.apply_faults(Timestamp::from_secs(10));
        let (res, _) = c
            .machine_mut(MachineId::new(0))
            .unwrap()
            .run_cpu(Timestamp::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(res.start, Timestamp::from_secs(10));
    }

    #[test]
    fn elastic_growth_and_drain_before_retire() {
        let mut c = Cluster::homogeneous(2);
        c.set_fault_profile(FaultProfile::chaos(9));
        let spawn_at = Timestamp::from_secs(100);
        let m2 = c.add_machine(MachineConfig::default());
        assert_eq!(m2, MachineId::new(2));
        assert_eq!(c.len(), 3);
        assert_eq!(c.machine_state(m2), MachineState::Active);
        // Fresh machine: perfect sync, crash schedule exists (no panic).
        assert_eq!(c.clock.read(m2, spawn_at), spawn_at);
        let _ = c.faults.down_until(m2, Timestamp::from_secs(3600));
        assert_eq!(c.active_machine_ids().len(), 3);
        c.begin_drain(m2);
        assert_eq!(c.machine_state(m2), MachineState::Draining);
        assert_eq!(c.active_machine_ids().len(), 2);
        assert_eq!(c.reserved_count(), 3);
        c.retire_machine(m2);
        assert_eq!(c.machine_state(m2), MachineState::Retired);
        assert_eq!(c.reserved_count(), 2);
    }

    #[test]
    fn growing_the_fleet_preserves_existing_fault_streams() {
        let mut a = Cluster::homogeneous(2);
        let mut b = Cluster::homogeneous(2);
        a.set_fault_profile(FaultProfile::chaos(77));
        b.set_fault_profile(FaultProfile::chaos(77));
        b.add_machine(MachineConfig::default());
        for s in (0..7200).step_by(13) {
            let t = Timestamp::from_secs(s);
            for m in 0..2u32 {
                assert_eq!(
                    a.faults.down_until(MachineId::new(m), t),
                    b.faults.down_until(MachineId::new(m), t),
                    "machine {m} schedule diverged at {s}s"
                );
            }
        }
    }

    #[test]
    fn dollars_accumulate_from_usage_and_penalties() {
        let mut c = Cluster::homogeneous(1);
        c.machine_mut(MachineId::new(0))
            .unwrap()
            .run_cpu(Timestamp::ZERO, SimDuration::from_secs(3600));
        c.ledger.charge_penalty(smile_types::SharingId::new(0), 0.5);
        let d = c.total_dollars();
        assert!((d - (0.34 + 0.5)).abs() < 1e-9, "d = {d}");
    }
}
