//! Event-driven push calendar: O(due + invalidated) tick scheduling.
//!
//! Reconsidering every sharing on every tick, recomputing its critical
//! path from the full plan graph, is O(N·plan-size) even when nothing is
//! due. This module avoids that with two pieces:
//!
//! 1. **[`CalendarState`]** — a per-slot state machine over two min-heaps.
//!    Each idle sharing sleeps on the *wake heap* until a conservative
//!    lower bound on the first tick its lazy projection `staleness + CP +
//!    tick` can reach `l·SLA`, given a bound on the feedback inflation:
//!    the model's clamp far from firing, the live inflation ×
//!    [`INFLATION_HEADROOM`] close to it — and then the *bound heap* holds
//!    the slot until [`CalendarState::wake_over`] sees the inflation pass.
//!    Popping early is safe (the slot re-projects and goes back to sleep);
//!    popping late never happens (see `Executor::project_wake_tick`). Every
//!    transition bumps the slot's generation, so entries go stale in place.
//! 2. **[`CpEval`]** — a cached compact critical-path evaluator: the
//!    producer edges of the sharing's MV and its non-base ancestors, in
//!    topological order with their estimate parameters, so one evaluation
//!    is O(subgraph) with no full-plan topo sort. It calls the *same*
//!    `TimeCostModel::edge_estimate` the full sweep calls, so its result is
//!    byte-identical to the MV's entry in `cost::path_lengths(plan, x,
//!    model)`, the sweep admission and the plumbing SLA test read. Alongside
//!    the exact evaluator it derives affine coefficients `(C, S)` with
//!    `CP(x) ≤ inflation · (C + S·x)`, used only for wake projection.
//!
//! ### Cache invalidation obligations
//!
//! The cached evaluator snapshots edge op/rate/byte estimates at build
//! time. This is sound because merging a new sharing only *adds* vertices
//! and edges (dedup reuses existing ones without touching their
//! estimates) and never rewires a producer, so no MV's ancestors change;
//! retiring a sharing changes no other sharing's MV; and operator models
//! are only overridden before install (the Figure 5 calibration harness).
//! A migration's cutover gives its sharing a new MV and rebuilds its
//! evaluator. The one run-time moving
//! part — the feedback inflation factor — multiplies every edge uniformly,
//! so the exact evaluator reads it live and a wake assumes a bound on it.

use crate::plan::dag::{EdgeOp, Plan};
use crate::plan::timecost::TimeCostModel;
use smile_types::{SimDuration, Timestamp, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Headroom multiplied onto the live inflation to get the bound a slot
/// close to firing sleeps under, so a slowly creeping inflation does not
/// wake it every tick.
pub(crate) const INFLATION_HEADROOM: f64 = 1.25;

/// Min-heap of `(due tick, slot, generation)` wake entries. An entry whose
/// generation no longer matches its slot's is stale and dropped by the
/// caller when popped.
#[derive(Default)]
struct PushCalendar {
    heap: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// The last tick drained.
    now_tick: u64,
}

impl PushCalendar {
    /// Queued entries, stale ones included.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queues an entry. Past or current due ticks clamp to the next tick.
    fn schedule(&mut self, idx: usize, gen: u64, due_tick: u64) {
        let due = due_tick.max(self.now_tick + 1);
        self.heap.push(Reverse((due, idx, gen)));
    }

    /// Pops every entry due by `to_tick` onto `out` as `(slot, generation)`.
    fn advance(&mut self, to_tick: u64, out: &mut Vec<(usize, u64)>) {
        self.now_tick = self.now_tick.max(to_tick);
        while let Some(&Reverse((due, idx, gen))) = self.heap.peek() {
            if due > to_tick {
                break;
            }
            self.heap.pop();
            out.push((idx, gen));
        }
    }
}

/// Lifecycle state of one sharing slot — the executor's only record of
/// whether a sharing is idle, mid-push or retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Queued in the heap (or the due-now buffer) under the current
    /// generation.
    Scheduled,
    /// A push or retry is active; completion/abandonment events re-enqueue
    /// the slot.
    InFlight,
    /// Tombstone: the retired sharing's slot stays (slot indexes in queued
    /// events must remain stable) but is never scheduled again.
    Retired,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    gen: u64,
    state: SlotState,
}

/// The calendar scheduler's state: wake heap, bound heap and per-slot
/// state machine.
pub(crate) struct CalendarState {
    wakes: PushCalendar,
    /// Min-heap of `(inflation bound, slot, generation)` for slots whose
    /// wake assumed a bound below the model's clamp; a positive `f64`'s
    /// bits order as the number does.
    bounds: BinaryHeap<Reverse<(u64, usize, u64)>>,
    slots: Vec<Slot>,
    /// Slots to evaluate at the next planning pass regardless of the heap
    /// (freshly added, push-completed).
    due_now: Vec<usize>,
    tick_us: u64,
    n_scheduled: usize,
}

impl CalendarState {
    /// A fresh calendar with every slot due at the next planning pass —
    /// the first tick evaluates everything.
    pub fn new(n: usize, tick: SimDuration) -> Self {
        Self {
            wakes: PushCalendar::default(),
            bounds: BinaryHeap::new(),
            slots: vec![
                Slot {
                    gen: 0,
                    state: SlotState::Scheduled,
                };
                n
            ],
            due_now: (0..n).collect(),
            tick_us: tick.as_micros().max(1),
            n_scheduled: n,
        }
    }

    /// The scheduler tick index containing simulated time `t`.
    pub fn tick_of(&self, t: Timestamp) -> u64 {
        (t - Timestamp::ZERO).as_micros() / self.tick_us
    }

    pub fn scheduled_count(&self) -> usize {
        self.n_scheduled
    }

    pub fn wheel_len(&self) -> usize {
        self.wakes.len()
    }

    /// Moves the slot to `state` under a fresh generation, which
    /// invalidates its previous attachment (heap entry, due-now
    /// membership), and returns that generation. A tombstone stays one —
    /// the completion or retry of a push that was in flight at retirement
    /// must not bring the slot back — so `None` means nothing changed.
    fn set_state(&mut self, idx: usize, state: SlotState) -> Option<u64> {
        let slot = &mut self.slots[idx];
        match slot.state {
            SlotState::Retired => return None,
            SlotState::Scheduled => self.n_scheduled -= 1,
            SlotState::InFlight => {}
        }
        if state == SlotState::Scheduled {
            self.n_scheduled += 1;
        }
        slot.gen += 1;
        slot.state = state;
        Some(slot.gen)
    }

    /// Queues the slot to wake at `due_tick`.
    pub fn schedule_at(&mut self, idx: usize, due_tick: u64) {
        if let Some(gen) = self.set_state(idx, SlotState::Scheduled) {
            self.wakes.schedule(idx, gen, due_tick);
        }
    }

    /// Queues the slot to wake at `due_tick`, a projection that assumed
    /// the model's inflation stays at or below `bound`, or as soon as
    /// [`CalendarState::wake_over`] sees it pass.
    pub fn schedule_under(&mut self, idx: usize, due_tick: u64, bound: f64) {
        if let Some(gen) = self.set_state(idx, SlotState::Scheduled) {
            self.wakes.schedule(idx, gen, due_tick);
            // Stale entries whose bound is never passed would never pop.
            if self.bounds.len() >= 2 * self.slots.len() {
                self.bounds.retain(|e| self.slots[e.0 .1].gen == e.0 .2);
            }
            self.bounds.push(Reverse((bound.to_bits(), idx, gen)));
        }
    }

    /// Wakes, for the next planning pass, every slot asleep under a bound
    /// the model's `inflation` has passed. Stale entries are dropped.
    pub fn wake_over(&mut self, inflation: f64) {
        let passed = |e: &&Reverse<(u64, usize, u64)>| f64::from_bits(e.0 .0) < inflation;
        while let Some(&Reverse((_, idx, gen))) = self.bounds.peek().filter(passed) {
            self.bounds.pop();
            if self.slots[idx].gen == gen {
                self.wake_now(idx);
            }
        }
    }

    /// Queues the slot for the next planning pass.
    pub fn wake_now(&mut self, idx: usize) {
        if self.set_state(idx, SlotState::Scheduled).is_some() {
            self.due_now.push(idx);
        }
    }

    /// Marks the slot in flight: completion/abandonment events own its
    /// next wake, so no calendar entry exists for it.
    pub fn mark_in_flight(&mut self, idx: usize) {
        self.set_state(idx, SlotState::InFlight);
    }

    /// Tombstones the slot.
    pub fn retire(&mut self, idx: usize) {
        self.set_state(idx, SlotState::Retired);
    }

    /// Whether a push or a pending retry owns the slot.
    pub fn in_flight(&self, idx: usize) -> bool {
        self.slots[idx].state == SlotState::InFlight
    }

    /// Whether the slot's sharing has not been retired.
    pub fn is_live(&self, idx: usize) -> bool {
        self.slots[idx].state != SlotState::Retired
    }

    /// Registers a freshly added sharing slot, due at the next pass.
    pub fn add_slot(&mut self) {
        let idx = self.slots.len();
        self.slots.push(Slot {
            gen: 0,
            state: SlotState::Scheduled,
        });
        self.n_scheduled += 1;
        self.due_now.push(idx);
    }

    /// Slots asleep under a live entry of the bound heap.
    #[cfg(test)]
    pub fn sleeping_under_bound(&self) -> usize {
        let live = |e: &&Reverse<(u64, usize, u64)>| self.slots[e.0 .1].gen == e.0 .2;
        self.bounds.iter().filter(live).count()
    }

    /// Drains everything due at `now`: heap pops up to the current tick
    /// plus the due-now buffer, stale generations dropped, deduplicated
    /// and sorted ascending — slot order is the planning order.
    pub fn take_woken(&mut self, now: Timestamp) -> Vec<usize> {
        let mut popped: Vec<(usize, u64)> = Vec::new();
        self.wakes.advance(self.tick_of(now), &mut popped);
        let mut woken: Vec<usize> = std::mem::take(&mut self.due_now);
        woken.extend(
            popped
                .into_iter()
                .filter(|&(idx, gen)| self.slots[idx].gen == gen)
                .map(|(idx, _)| idx),
        );
        woken.sort_unstable();
        woken.dedup();
        woken.retain(|&i| self.slots[i].state == SlotState::Scheduled);
        woken
    }
}

/// One cached edge of a sharing's subgraph, in topological order.
#[derive(Clone, Debug)]
struct CpEdge {
    op: EdgeOp,
    est_rate: f64,
    est_tuple_bytes: f64,
    /// Positions (into [`CpEval::edges`]) of the inputs the subgraph
    /// produces; the others are plan sources, at distance zero.
    inputs: Vec<u32>,
}

/// Cached compact critical-path evaluator for one sharing, plus affine
/// upper-bound coefficients for wake projection.
#[derive(Clone, Debug)]
pub(crate) struct CpEval {
    edges: Vec<CpEdge>,
    /// `C`: inflation-free upper bound on the path constant (seconds),
    /// including per-edge rounding slack.
    pub const_secs: f64,
    /// `S`: inflation-free upper bound on the path slope (seconds of CP
    /// per second of window).
    pub slope_per_sec: f64,
}

impl CpEval {
    /// Builds the evaluator from a sharing's push order: its MV and the
    /// MV's non-base ancestors, in topological order.
    pub fn build(plan: &Plan, order: &[VertexId], model: &TimeCostModel) -> Self {
        let mut pos: HashMap<VertexId, u32> = HashMap::with_capacity(order.len());
        let mut edges: Vec<CpEdge> = Vec::with_capacity(order.len());
        // Affine bound per cached edge position: longest-path constant and
        // slope reaching it, maximized independently (their joint max at
        // any x is bounded by the independent maxima).
        let mut const_at: Vec<f64> = Vec::with_capacity(order.len());
        let mut slope_at: Vec<f64> = Vec::with_capacity(order.len());
        let (mut const_secs, mut slope_per_sec) = (0f64, 0f64);
        for &v in order {
            let Some(edge) = plan.producer(v) else {
                continue;
            };
            let out = plan.vertex(v);
            let inputs: Vec<u32> = edge
                .inputs
                .iter()
                .filter_map(|i| pos.get(i).copied())
                .collect();
            let lm = model.op_model(&edge.op);
            let mut a = lm.fixed.as_secs_f64();
            let mut b = lm.per_tuple.as_secs_f64() * out.est_rate.max(0.0);
            if matches!(edge.op, EdgeOp::CopyDelta) {
                a += model.net_latency.as_secs_f64();
                b += out.est_rate.max(0.0) * out.est_tuple_bytes / model.net_bandwidth;
            }
            // `edge_estimate` rounds to whole microseconds up to three
            // times (per-tuple term, wire term, inflation scaling); cover
            // the ceiling with explicit slack.
            a += 2e-6;
            let arrive_const = inputs
                .iter()
                .map(|&i| const_at[i as usize])
                .fold(0f64, f64::max);
            let arrive_slope = inputs
                .iter()
                .map(|&i| slope_at[i as usize])
                .fold(0f64, f64::max);
            let (ac, bs) = (arrive_const + a, arrive_slope + b);
            const_secs = const_secs.max(ac);
            slope_per_sec = slope_per_sec.max(bs);
            let slot = edges.len() as u32;
            pos.insert(v, slot);
            edges.push(CpEdge {
                op: edge.op.clone(),
                est_rate: out.est_rate,
                est_tuple_bytes: out.est_tuple_bytes,
                inputs,
            });
            const_at.push(ac);
            slope_at.push(bs);
        }
        Self {
            edges,
            const_secs,
            slope_per_sec,
        }
    }

    /// `CP(x)` over the cached subgraph — the same topological sweep as
    /// `path_lengths`, calling the same `edge_estimate`, over the MV's
    /// ancestors only. Byte-identical to the MV's entry in the full sweep
    /// by construction: the subgraph is closed under ancestors, any
    /// topo-consistent visit order yields the same distances, and none of
    /// them exceeds the MV's.
    pub fn eval(&self, x_secs: f64, model: &TimeCostModel) -> SimDuration {
        let mut dist: Vec<SimDuration> = vec![SimDuration::ZERO; self.edges.len()];
        let mut best = SimDuration::ZERO;
        for (i, e) in self.edges.iter().enumerate() {
            let n = e.est_rate * x_secs;
            let w = model.edge_estimate(&e.op, n, e.est_tuple_bytes);
            let arrive = e
                .inputs
                .iter()
                .map(|&j| dist[j as usize])
                .max()
                .unwrap_or(SimDuration::ZERO);
            dist[i] = arrive + w;
            if dist[i] > best {
                best = dist[i];
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic LCG so heap tests need no RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn heap_pops_exactly_at_due_tick() {
        let mut w = PushCalendar::default();
        let dues = [1u64, 63, 64, 65, 127, 4095, 4096, 4100, 262144, 262209];
        // Scheduled out of due order, so heap order is what sorts them.
        for (i, &d) in dues.iter().enumerate().rev() {
            w.schedule(i, 0, d);
        }
        assert_eq!(w.len(), dues.len());
        let mut out = Vec::new();
        for t in 1..=262300u64 {
            out.clear();
            w.advance(t, &mut out);
            for &(idx, _) in &out {
                assert_eq!(dues[idx], t, "entry {idx} popped at {t}");
            }
        }
        assert_eq!(w.len(), 0, "every entry popped");
        // An already-past due tick clamps to the next tick.
        w.schedule(0, 0, 5);
        out.clear();
        w.advance(262301, &mut out);
        assert_eq!(out, vec![(0, 0)]);
    }

    #[test]
    fn heap_random_schedule_pops_on_time() {
        let mut rng = Lcg(7);
        let mut w = PushCalendar::default();
        let mut due_of: HashMap<usize, u64> = HashMap::new();
        let mut next_id = 0usize;
        let mut popped = 0usize;
        let mut out = Vec::new();
        for t in 1..=20_000u64 {
            // Schedule a few entries at random future offsets.
            for _ in 0..(rng.next() % 3) {
                let due = t + rng.next() % 10_000;
                w.schedule(next_id, 0, due);
                due_of.insert(next_id, due);
                next_id += 1;
            }
            out.clear();
            w.advance(t, &mut out);
            for &(idx, _) in &out {
                assert_eq!(due_of[&idx], t, "entry {idx} popped at {t}");
                popped += 1;
            }
        }
        assert!(popped > 1_000, "exercised {popped} pops");
        assert_eq!(w.len() + popped, next_id);
    }

    #[test]
    fn calendar_generations_invalidate_stale_entries() {
        let mut c = CalendarState::new(2, SimDuration::from_secs(1));
        // Initial state: both slots due now.
        let woken = c.take_woken(Timestamp::ZERO);
        assert_eq!(woken, vec![0, 1]);
        c.schedule_at(0, 5);
        c.schedule_at(1, 5);
        // Slot 1 transitions before its wake: the heap entry goes stale.
        c.mark_in_flight(1);
        let woken = c.take_woken(Timestamp::from_secs(5));
        assert_eq!(woken, vec![0]);
        // A woken slot stays Scheduled until the planner transitions it.
        assert_eq!(c.scheduled_count(), 1);
        c.mark_in_flight(0);
        assert_eq!(c.scheduled_count(), 0);
    }

    /// The completion or abandonment of a push whose slot was retired
    /// meanwhile must not bring it back.
    #[test]
    fn a_retired_slot_stays_retired() {
        let mut c = CalendarState::new(3, SimDuration::from_secs(1));
        c.take_woken(Timestamp::ZERO);
        c.mark_in_flight(0);
        c.mark_in_flight(1);
        c.schedule_at(2, 1);
        for idx in 0..3 {
            c.retire(idx);
        }
        c.wake_now(0);
        c.schedule_at(1, 1);
        assert!(c.take_woken(Timestamp::from_secs(1)).is_empty());
        assert!((0..3).all(|idx| !c.is_live(idx) && !c.in_flight(idx)));
        assert_eq!(c.scheduled_count(), 0);
    }

    /// An inflation wakes exactly the slots whose bound it passed; a slot
    /// asleep at the clamp, one whose bound it has not reached, and the
    /// stale entries of slots that moved on stay put.
    #[test]
    fn wake_over_wakes_only_slots_whose_bound_the_inflation_passed() {
        let mut c = CalendarState::new(5, SimDuration::from_secs(1));
        c.take_woken(Timestamp::ZERO);
        c.schedule_under(0, 500, 1.5);
        c.schedule_under(1, 900, 3.0);
        c.schedule_at(2, 700);
        // Stale: slot 3 moved in flight, slot 4 re-slept under a higher
        // bound after its first one.
        c.schedule_under(3, 600, 1.2);
        c.mark_in_flight(3);
        c.schedule_under(4, 800, 1.1);
        c.schedule_under(4, 800, 4.0);
        assert_eq!(c.sleeping_under_bound(), 3);

        c.wake_over(1.5);
        assert!(c.take_woken(Timestamp::from_secs(1)).is_empty());
        c.wake_over(2.0);
        assert_eq!(c.take_woken(Timestamp::from_secs(2)), vec![0]);
        assert_eq!(c.sleeping_under_bound(), 2);
        c.wake_over(50.0);
        assert_eq!(c.take_woken(Timestamp::from_secs(3)), vec![1, 4]);
        assert_eq!(c.sleeping_under_bound(), 0);
        assert!(c.bounds.is_empty(), "stale entries popped too");
        assert!(c.in_flight(3));
        // The clamp-projected slot still wakes on its tick.
        c.schedule_at(0, 10);
        c.schedule_at(1, 10);
        c.schedule_at(4, 10);
        assert_eq!(c.take_woken(Timestamp::from_secs(700)), vec![0, 1, 2, 4]);
    }

    /// Entries whose bound no inflation reaches go stale without popping;
    /// the heap sweeps them instead of growing with every sleep.
    #[test]
    fn stale_bound_entries_are_swept() {
        let mut c = CalendarState::new(4, SimDuration::from_secs(1));
        c.take_woken(Timestamp::ZERO);
        for round in 0..100 {
            for idx in 0..4 {
                c.schedule_under(idx, 1_000 + round, 1.25);
            }
        }
        assert!(c.bounds.len() <= 8, "{} entries", c.bounds.len());
        assert_eq!(c.sleeping_under_bound(), 4);
    }
}
