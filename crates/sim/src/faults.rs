//! Deterministic fault injection.
//!
//! The paper's testbed was real EC2 machines, which crash, lose messages
//! and suffer latency spikes; the executor's retry/backoff layer exists to
//! survive exactly that. This module reproduces those conditions inside the
//! simulator under a seed, so every fault schedule — machine crash/restart
//! intervals, dropped delta shipments, lost acknowledgements, pub/sub
//! message loss, duplication and latency spikes — is a pure function of
//! [`FaultProfile`] and the (deterministic) order in which the platform
//! queries it. Two runs of the same workload with the same profile observe
//! byte-identical fault histories.
//!
//! Faults are *pull-based*: the injector never acts on its own. The cluster
//! asks `machine_down` before using a machine, the push path asks
//! `drop_delta`/`ack_lost` around each shipment, and the pub/sub bus asks
//! `message_lost`/`latency_spike`/`duplicated` per publish. A disabled
//! profile answers every query negatively without consuming randomness, so
//! runs with faults off are bit-identical to runs built before this module
//! existed.

use smile_types::{MachineId, SimDuration, Timestamp};

/// What faults to inject, and how often. The default profile is fully
/// disabled: every probability zero, no crash schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Seed for every fault draw and crash schedule.
    pub seed: u64,
    /// Mean up-time between crashes per machine; `ZERO` disables crashes.
    /// Actual up-times are uniform in `[0.5, 1.5] ×` this.
    pub crash_period: SimDuration,
    /// Mean downtime of a crashed machine before it restarts; actual
    /// downtimes are uniform in `[0.5, 1.5] ×` this.
    pub crash_downtime: SimDuration,
    /// Probability a shipped delta batch is lost in transit (the push edge
    /// fails and must be retried).
    pub delta_drop: f64,
    /// Probability a delta batch lands but its *acknowledgement* is lost:
    /// the executor sees a failure and retries a shipment that actually
    /// succeeded — the case the producer watermark exists for.
    pub ack_loss: f64,
    /// Probability a pub/sub message (heartbeat) is lost.
    pub message_loss: f64,
    /// Probability a pub/sub message is delivered twice.
    pub duplicate: f64,
    /// Probability a pub/sub delivery suffers a latency spike.
    pub spike: f64,
    /// Extra delay added when a latency spike hits.
    pub spike_delay: SimDuration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultProfile {
    /// No faults at all (the default).
    pub const fn disabled() -> Self {
        Self {
            seed: 0,
            crash_period: SimDuration::ZERO,
            crash_downtime: SimDuration::ZERO,
            delta_drop: 0.0,
            ack_loss: 0.0,
            message_loss: 0.0,
            duplicate: 0.0,
            spike: 0.0,
            spike_delay: SimDuration::ZERO,
        }
    }

    /// A moderately hostile environment: occasional crashes with a few
    /// seconds of downtime plus a low rate of every message-level fault.
    pub const fn chaos(seed: u64) -> Self {
        Self {
            seed,
            crash_period: SimDuration::from_secs(60),
            crash_downtime: SimDuration::from_secs(4),
            delta_drop: 0.05,
            ack_loss: 0.05,
            message_loss: 0.02,
            duplicate: 0.02,
            spike: 0.05,
            spike_delay: SimDuration::from_millis(200),
        }
    }

    /// True iff any fault can ever fire under this profile.
    pub fn is_enabled(&self) -> bool {
        self.crash_period > SimDuration::ZERO
            || self.delta_drop > 0.0
            || self.ack_loss > 0.0
            || self.message_loss > 0.0
            || self.duplicate > 0.0
            || self.spike > 0.0
    }
}

/// One injected fault, as recorded in the injector's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A machine crashed at `at` and restarts at `until`.
    Crash {
        /// The crashed machine.
        machine: MachineId,
        /// Crash instant.
        at: Timestamp,
        /// Restart instant.
        until: Timestamp,
    },
    /// A shipped delta batch was lost in transit.
    DeltaDropped {
        /// When the shipment was attempted.
        at: Timestamp,
    },
    /// A delta batch landed but its acknowledgement was lost.
    AckLost {
        /// When the shipment was attempted.
        at: Timestamp,
    },
    /// A pub/sub message was lost.
    MessageLost {
        /// Publish time.
        at: Timestamp,
    },
    /// A pub/sub message was delivered twice.
    Duplicated {
        /// Publish time.
        at: Timestamp,
    },
    /// A pub/sub delivery was delayed beyond the nominal latency.
    LatencySpike {
        /// Publish time.
        at: Timestamp,
        /// The extra delay.
        extra: SimDuration,
    },
}

impl FaultEvent {
    /// `(name, at, machine)` triple used by the trace exporter to render
    /// this event as an instant marker in the right machine lane.
    pub fn trace_instant(&self) -> (&'static str, Timestamp, Option<MachineId>) {
        match *self {
            FaultEvent::Crash { machine, at, .. } => ("fault.crash", at, Some(machine)),
            FaultEvent::DeltaDropped { at } => ("fault.delta_dropped", at, None),
            FaultEvent::AckLost { at } => ("fault.ack_lost", at, None),
            FaultEvent::MessageLost { at } => ("fault.message_lost", at, None),
            FaultEvent::Duplicated { at } => ("fault.duplicated", at, None),
            FaultEvent::LatencySpike { at, .. } => ("fault.latency_spike", at, None),
        }
    }

    /// The time span a fault was active: instantaneous for message-level
    /// faults, the whole down interval for crashes.
    fn span(&self) -> (Timestamp, Timestamp) {
        match *self {
            FaultEvent::Crash { at, until, .. } => (at, until),
            FaultEvent::DeltaDropped { at }
            | FaultEvent::AckLost { at }
            | FaultEvent::MessageLost { at }
            | FaultEvent::Duplicated { at } => (at, at),
            FaultEvent::LatencySpike { at, extra } => (at, at + extra),
        }
    }
}

/// Tallies of every fault kind injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Machine crashes scheduled.
    pub crashes: u64,
    /// Delta batches lost in transit.
    pub deltas_dropped: u64,
    /// Acknowledgements lost after a successful shipment.
    pub acks_lost: u64,
    /// Pub/sub messages lost.
    pub messages_lost: u64,
    /// Pub/sub messages duplicated.
    pub duplicates: u64,
    /// Pub/sub latency spikes.
    pub latency_spikes: u64,
}

/// Lazily-extended crash schedule of one machine: alternating up/down
/// intervals generated from a private RNG stream, so querying machine A
/// never perturbs machine B's schedule.
#[derive(Clone, Debug)]
struct CrashSchedule {
    state: u64,
    /// Down intervals `(crash, restart]`, ascending, generated so far.
    intervals: Vec<(Timestamp, Timestamp)>,
    /// Time up to which the schedule has been generated.
    horizon: Timestamp,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` with 53 bits of precision.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform duration in `[0.5, 1.5] × mean`.
fn jittered(state: &mut u64, mean: SimDuration) -> SimDuration {
    mean.mul_f64(0.5 + unit(state))
}

/// The seeded fault source for one cluster.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
    /// Shared stream for message-level draws (single-threaded sim ⇒ the
    /// query order, hence the stream, is deterministic).
    state: u64,
    schedules: Vec<CrashSchedule>,
    counters: FaultCounters,
    /// Every fault injected, in injection order.
    pub events: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Injector that never faults (used until a profile is installed).
    pub fn disabled(machines: usize) -> Self {
        Self::new(FaultProfile::disabled(), machines)
    }

    /// Injector for `machines` machines under `profile`.
    pub fn new(profile: FaultProfile, machines: usize) -> Self {
        let schedules = (0..machines)
            .map(|m| CrashSchedule {
                // Distinct stream per machine, disjoint from the shared one.
                state: profile
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(m as u64 + 1),
                intervals: Vec::new(),
                horizon: Timestamp::ZERO,
            })
            .collect();
        Self {
            profile,
            state: profile.seed ^ 0x2545_f491_4f6c_dd1d,
            schedules,
            counters: FaultCounters::default(),
            events: Vec::new(),
        }
    }

    /// Registers a machine added after construction (fleet scale-up). The
    /// new machine gets the same seed-derived per-machine crash stream it
    /// would have had at construction time, and the shared message stream
    /// is untouched — growing the fleet never perturbs faults already
    /// scheduled for existing machines.
    pub fn add_machine(&mut self) {
        let m = self.schedules.len();
        self.schedules.push(CrashSchedule {
            state: self
                .profile
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(m as u64 + 1),
            intervals: Vec::new(),
            horizon: Timestamp::ZERO,
        });
    }

    /// The installed profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// True iff this injector can ever fault.
    pub fn is_enabled(&self) -> bool {
        self.profile.is_enabled()
    }

    /// Fault tallies so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Extends `machine`'s crash schedule to cover `at`.
    fn extend_schedule(&mut self, machine: usize, at: Timestamp) {
        let period = self.profile.crash_period;
        let downtime = self.profile.crash_downtime;
        let sched = &mut self.schedules[machine];
        while sched.horizon <= at {
            let up = jittered(&mut sched.state, period);
            let down = jittered(&mut sched.state, downtime).max(SimDuration::from_millis(1));
            let crash = sched.horizon + up;
            let restart = crash + down;
            sched.intervals.push((crash, restart));
            sched.horizon = restart;
            self.counters.crashes += 1;
            self.events.push(FaultEvent::Crash {
                machine: MachineId::new(machine as u32),
                at: crash,
                until: restart,
            });
        }
    }

    /// If `m` is down at `at`, returns its restart time.
    pub fn down_until(&mut self, m: MachineId, at: Timestamp) -> Option<Timestamp> {
        if self.profile.crash_period == SimDuration::ZERO {
            return None;
        }
        let idx = m.index();
        if idx >= self.schedules.len() {
            return None;
        }
        self.extend_schedule(idx, at);
        self.schedules[idx]
            .intervals
            .iter()
            .find(|&&(crash, restart)| crash < at && at <= restart)
            .map(|&(_, restart)| restart)
    }

    /// True iff machine `m` is crashed (down) at `at`.
    pub fn machine_down(&mut self, m: MachineId, at: Timestamp) -> bool {
        self.down_until(m, at).is_some()
    }

    fn bernoulli(&mut self, p: f64) -> bool {
        // Disabled probabilities must not consume the stream: a profile with
        // only crashes enabled then behaves identically to the same profile
        // with message faults later turned off.
        p > 0.0 && unit(&mut self.state) < p
    }

    /// Should the delta shipment attempted at `at` be lost in transit?
    pub fn drop_delta(&mut self, at: Timestamp) -> bool {
        let hit = self.bernoulli(self.profile.delta_drop);
        if hit {
            self.counters.deltas_dropped += 1;
            self.events.push(FaultEvent::DeltaDropped { at });
        }
        hit
    }

    /// Should the acknowledgement of a landed batch be lost at `at`?
    pub fn ack_lost(&mut self, at: Timestamp) -> bool {
        let hit = self.bernoulli(self.profile.ack_loss);
        if hit {
            self.counters.acks_lost += 1;
            self.events.push(FaultEvent::AckLost { at });
        }
        hit
    }

    /// Should the pub/sub message published at `at` be lost?
    pub fn message_lost(&mut self, at: Timestamp) -> bool {
        let hit = self.bernoulli(self.profile.message_loss);
        if hit {
            self.counters.messages_lost += 1;
            self.events.push(FaultEvent::MessageLost { at });
        }
        hit
    }

    /// Should the pub/sub message published at `at` be duplicated?
    pub fn duplicated(&mut self, at: Timestamp) -> bool {
        let hit = self.bernoulli(self.profile.duplicate);
        if hit {
            self.counters.duplicates += 1;
            self.events.push(FaultEvent::Duplicated { at });
        }
        hit
    }

    /// Extra delivery delay for the pub/sub message published at `at`
    /// (`ZERO` when no spike hits).
    pub fn latency_spike(&mut self, at: Timestamp) -> SimDuration {
        if self.bernoulli(self.profile.spike) {
            let extra = jittered(&mut self.state, self.profile.spike_delay);
            self.counters.latency_spikes += 1;
            self.events.push(FaultEvent::LatencySpike { at, extra });
            extra
        } else {
            SimDuration::ZERO
        }
    }

    /// True iff any injected fault was active inside `[from, to]` — used to
    /// attribute SLA violations to faults.
    pub fn fault_in_window(&self, from: Timestamp, to: Timestamp) -> bool {
        self.events.iter().any(|e| {
            let (start, end) = e.span();
            start <= to && end >= from
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> FaultInjector {
        FaultInjector::new(FaultProfile::chaos(42), 3)
    }

    #[test]
    fn disabled_injector_never_faults_and_stays_silent() {
        let mut f = FaultInjector::disabled(2);
        assert!(!f.is_enabled());
        for s in 0..1000 {
            let t = Timestamp::from_secs(s);
            assert!(!f.machine_down(MachineId::new(0), t));
            assert!(!f.drop_delta(t));
            assert!(!f.ack_lost(t));
            assert!(!f.message_lost(t));
            assert!(!f.duplicated(t));
            assert_eq!(f.latency_spike(t), SimDuration::ZERO);
        }
        assert!(f.events.is_empty());
        assert_eq!(f.counters(), FaultCounters::default());
    }

    #[test]
    fn crash_schedules_are_deterministic_and_per_machine() {
        let mut a = chaos();
        let mut b = chaos();
        for s in 0..600 {
            let t = Timestamp::from_secs(s);
            for m in 0..3 {
                assert_eq!(
                    a.machine_down(MachineId::new(m), t),
                    b.machine_down(MachineId::new(m), t)
                );
            }
        }
        assert_eq!(a.events, b.events);
        assert!(a.counters().crashes > 0, "no crashes in 10 minutes");
        // Querying machines in a different order must not change schedules.
        let mut c = chaos();
        for s in 0..600 {
            let t = Timestamp::from_secs(s);
            for m in (0..3).rev() {
                assert_eq!(
                    c.machine_down(MachineId::new(m), t),
                    b.machine_down(MachineId::new(m), t)
                );
            }
        }
    }

    #[test]
    fn down_until_reports_restart_inside_interval() {
        let mut f = chaos();
        let mut seen = false;
        for s in 0..3600 {
            let t = Timestamp::from_secs(s);
            if let Some(until) = f.down_until(MachineId::new(1), t) {
                assert!(until >= t);
                assert!(f.machine_down(MachineId::new(1), until));
                assert!(!f.machine_down(MachineId::new(1), until + SimDuration::from_millis(1)));
                seen = true;
                break;
            }
        }
        assert!(seen, "machine 1 never observed down at whole seconds");
    }

    #[test]
    fn message_fault_rates_track_probabilities() {
        let mut f = chaos();
        let n = 10_000;
        let drops = (0..n)
            .filter(|&s| f.drop_delta(Timestamp::from_millis(s)))
            .count();
        // 5% nominal; allow wide slack.
        assert!((250..750).contains(&drops), "drops = {drops}");
        assert_eq!(f.counters().deltas_dropped, drops as u64);
    }

    #[test]
    fn fault_window_attribution_covers_crash_intervals() {
        let mut f = chaos();
        // Generate some schedule.
        f.machine_down(MachineId::new(0), Timestamp::from_secs(300));
        let FaultEvent::Crash { at, until, .. } = f.events[0] else {
            panic!("first event must be a crash");
        };
        assert!(f.fault_in_window(at, until));
        assert!(f.fault_in_window(Timestamp::ZERO, Timestamp::from_secs(301)));
        assert!(!f.fault_in_window(Timestamp::ZERO, at - SimDuration::from_millis(1)));
    }

    #[test]
    fn unknown_machine_is_never_down() {
        let mut f = chaos();
        assert!(!f.machine_down(MachineId::new(17), Timestamp::from_secs(100)));
    }
}
