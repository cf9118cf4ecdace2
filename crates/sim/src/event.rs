//! Generic discrete-event queue.

use smile_types::Timestamp;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue with deterministic FIFO tie-breaking: events
/// scheduled for the same instant pop in insertion order, so simulation runs
/// are exactly reproducible.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Timestamp, u64, EventBox<E>)>>,
    seq: u64,
}

/// Wrapper that exempts the payload from the ordering (only `(at, seq)`
/// orders the heap).
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute simulated time `at`.
    pub fn push(&mut self, at: Timestamp, event: E) {
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.heap.pop().map(|Reverse((at, _, e))| (at, e.0))
    }

    /// Pops the earliest event if it is scheduled at or before `now`.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, E)> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_secs(3), "c");
        q.push(Timestamp::from_secs(1), "a");
        q.push(Timestamp::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(5);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_leaves_future_events() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_secs(7), "late");
        q.push(Timestamp::from_secs(2), "early");
        assert_eq!(
            q.pop_due(Timestamp::from_secs(2)),
            Some((Timestamp::from_secs(2), "early"))
        );
        assert_eq!(q.pop_due(Timestamp::from_secs(6)), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert!(q.pop_due(Timestamp::from_secs(7)).is_some());
        assert!(q.is_empty());
        assert_eq!(q.pop_due(Timestamp::from_secs(99)), None);
    }
}
