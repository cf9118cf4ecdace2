//! The agents-to-executor message channel.
//!
//! Each machine runs an agent that reports to the sharing executor over a
//! message bus (ActiveMQ in the paper). The platform has one such channel —
//! agents publish, the executor listens — so the simulated bus is a single
//! mailbox: a message published at `now` becomes visible `latency` later,
//! and the tick-driven executor drains what has arrived, in publish order.

use crate::faults::FaultInjector;
use smile_types::{SimDuration, Timestamp};
use std::collections::VecDeque;

/// A deterministic latency-delayed FIFO mailbox.
#[derive(Debug)]
pub struct Mailbox<M> {
    latency: SimDuration,
    queue: VecDeque<(Timestamp, M)>,
}

impl<M: Clone> Mailbox<M> {
    /// Mailbox with the given delivery latency.
    pub fn new(latency: SimDuration) -> Self {
        Self {
            latency,
            queue: VecDeque::new(),
        }
    }

    /// Publishes `msg` at time `now`; it is delivered at `now + latency`.
    pub fn publish(&mut self, now: Timestamp, msg: M) {
        self.queue.push_back((now + self.latency, msg));
    }

    /// Publishes through the fault injector: the message may be lost
    /// outright, delayed by a latency spike, or delivered twice (the second
    /// copy one extra latency later) — drawn in that order. With a disabled
    /// injector this is exactly [`Mailbox::publish`].
    pub fn publish_faulty(&mut self, now: Timestamp, msg: M, faults: &mut FaultInjector) {
        if faults.message_lost(now) {
            return;
        }
        let delayed = now + faults.latency_spike(now);
        self.publish(delayed, msg.clone());
        if faults.duplicated(now) {
            self.publish(delayed + self.latency, msg);
        }
    }

    /// The next message delivered by `now`, in publish order: a delayed
    /// message holds back the ones published after it.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<M> {
        if self.queue.front()?.0 > now {
            return None;
        }
        self.queue.pop_front().map(|(_, msg)| msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultProfile;

    fn drain<M: Clone>(mailbox: &mut Mailbox<M>, now: Timestamp) -> Vec<M> {
        std::iter::from_fn(|| mailbox.pop_due(now)).collect()
    }

    #[test]
    fn messages_arrive_after_latency_in_publish_order() {
        let mut mailbox = Mailbox::new(SimDuration::from_millis(10));
        for i in 0..5u32 {
            mailbox.publish(Timestamp::from_millis(u64::from(i)), i);
        }
        assert!(drain(&mut mailbox, Timestamp::from_millis(9)).is_empty());
        assert_eq!(
            drain(&mut mailbox, Timestamp::from_millis(12)),
            vec![0, 1, 2]
        );
        assert_eq!(drain(&mut mailbox, Timestamp::from_secs(1)), vec![3, 4]);
        assert!(drain(&mut mailbox, Timestamp::from_secs(1)).is_empty());
    }

    #[test]
    fn faulty_publish_with_disabled_injector_is_plain_publish() {
        let mut faults = FaultInjector::disabled(1);
        let mut mailbox = Mailbox::new(SimDuration::from_millis(10));
        mailbox.publish_faulty(Timestamp::ZERO, 9u32, &mut faults);
        assert_eq!(drain(&mut mailbox, Timestamp::from_millis(10)), vec![9]);
        assert!(faults.events.is_empty());
    }

    #[test]
    fn faulty_publish_can_lose_delay_and_duplicate() {
        let mut profile = FaultProfile::disabled();
        profile.message_loss = 1.0;
        let mut faults = FaultInjector::new(profile, 1);
        let mut mailbox = Mailbox::new(SimDuration::ZERO);
        mailbox.publish_faulty(Timestamp::ZERO, 1u32, &mut faults);
        assert!(drain(&mut mailbox, Timestamp::MAX).is_empty());

        let mut profile = FaultProfile::disabled();
        profile.duplicate = 1.0;
        profile.spike = 1.0;
        profile.spike_delay = SimDuration::from_millis(100);
        let mut faults = FaultInjector::new(profile, 1);
        mailbox.publish_faulty(Timestamp::ZERO, 2, &mut faults);
        // A message published after the spiked one queues behind it.
        mailbox.publish(Timestamp::ZERO, 3);
        assert!(drain(&mut mailbox, Timestamp::ZERO).is_empty());
        assert_eq!(drain(&mut mailbox, Timestamp::from_secs(1)), vec![2, 2, 3]);
        assert_eq!(faults.counters().duplicates, 1);
        assert_eq!(faults.counters().latency_spikes, 1);
    }
}
