//! Event-driven push calendar: O(due + invalidated) tick scheduling.
//!
//! Reconsidering every sharing on every tick, recomputing its critical
//! path from the full plan graph, is O(N·plan-size) even when nothing is
//! due. This module avoids that with two pieces:
//!
//! 1. **[`CalendarState`]** — a two-state machine (scheduled, in flight)
//!    per live sharing, keyed by its id, over two min-heaps. Each idle
//!    sharing sleeps on the *wake heap* until a conservative lower bound
//!    on the first tick its lazy projection `staleness + CP + tick` can
//!    reach `l·SLA`, given a bound on the feedback inflation:
//!    the model's clamp far from firing, the live inflation ×
//!    [`INFLATION_HEADROOM`] close to it — and then the *bound heap* holds
//!    the slot until [`CalendarState::wake_over`] sees the inflation pass.
//!    Popping early is safe (the slot re-projects and goes back to sleep);
//!    popping late never happens (see `Executor::project_wake_tick`). Every
//!    transition bumps the slot's generation, so entries go stale in place;
//!    a retirement removes the slot, and its entries are dropped as they
//!    pop, like a stale generation's.
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
use smile_types::{FastMap, SharingId, SimDuration, Timestamp, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Headroom multiplied onto the live inflation to get the bound a slot
/// close to firing sleeps under, so a slowly creeping inflation does not
/// wake it every tick.
pub(crate) const INFLATION_HEADROOM: f64 = 1.25;

/// Min-heap of `(due tick, sharing, generation)` wake entries. An entry
/// whose generation no longer matches its sharing's slot, or whose sharing
/// has no slot any more, is stale and dropped by the caller when popped.
#[derive(Default)]
struct PushCalendar {
    heap: BinaryHeap<Reverse<(u64, SharingId, u64)>>,
    /// The last tick drained.
    now_tick: u64,
}

impl PushCalendar {
    /// Queued entries, stale ones included.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queues an entry. Past or current due ticks clamp to the next tick.
    fn schedule(&mut self, id: SharingId, gen: u64, due_tick: u64) {
        let due = due_tick.max(self.now_tick + 1);
        self.heap.push(Reverse((due, id, gen)));
    }

    /// Pops every entry due by `to_tick` onto `out` as `(sharing, generation)`.
    fn advance(&mut self, to_tick: u64, out: &mut Vec<(SharingId, u64)>) {
        self.now_tick = self.now_tick.max(to_tick);
        while let Some(&Reverse((due, id, gen))) = self.heap.peek() {
            if due > to_tick {
                break;
            }
            self.heap.pop();
            out.push((id, gen));
        }
    }
}

/// Lifecycle state of one live sharing's slot — the executor's only record
/// of whether a sharing is idle or mid-push. A retired sharing has no slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Queued in the heap (or the due-now buffer) under the current
    /// generation.
    Scheduled,
    /// A push or retry is active; completion/abandonment events re-enqueue
    /// the slot.
    InFlight,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    gen: u64,
    state: SlotState,
}

/// The calendar scheduler's state: wake heap, bound heap and one slot per
/// live sharing, keyed by its id.
pub(crate) struct CalendarState {
    wakes: PushCalendar,
    /// Min-heap of `(inflation bound, sharing, generation)` for slots whose
    /// wake assumed a bound below the model's clamp; a positive `f64`'s
    /// bits order as the number does.
    bounds: BinaryHeap<Reverse<(u64, SharingId, u64)>>,
    slots: FastMap<SharingId, Slot>,
    /// Slots to evaluate at the next planning pass regardless of the heap
    /// (freshly added, push-completed).
    due_now: Vec<SharingId>,
    tick_us: u64,
    n_scheduled: usize,
}

impl CalendarState {
    /// An empty calendar ticking every `tick`.
    pub fn new(tick: SimDuration) -> Self {
        Self {
            wakes: PushCalendar::default(),
            bounds: BinaryHeap::new(),
            slots: FastMap::default(),
            due_now: Vec::new(),
            tick_us: tick.as_micros().max(1),
            n_scheduled: 0,
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

    /// Whether a heap entry of `id` under `gen` is still its slot's.
    fn current(&self, id: SharingId, gen: u64) -> bool {
        self.slots.get(&id).is_some_and(|slot| slot.gen == gen)
    }

    /// Moves the slot to `state` under a fresh generation, which
    /// invalidates its previous attachment (heap entry, due-now
    /// membership), and returns that generation. A retired sharing has no
    /// slot — the completion or retry of a push that was in flight at
    /// retirement must not bring one back — so `None` means nothing changed.
    fn set_state(&mut self, id: SharingId, state: SlotState) -> Option<u64> {
        let slot = self.slots.get_mut(&id)?;
        if slot.state == SlotState::Scheduled {
            self.n_scheduled -= 1;
        }
        if state == SlotState::Scheduled {
            self.n_scheduled += 1;
        }
        slot.gen += 1;
        slot.state = state;
        Some(slot.gen)
    }

    /// Queues the slot to wake at `due_tick`.
    pub fn schedule_at(&mut self, id: SharingId, due_tick: u64) {
        if let Some(gen) = self.set_state(id, SlotState::Scheduled) {
            self.wakes.schedule(id, gen, due_tick);
        }
    }

    /// Queues the slot to wake at `due_tick`, a projection that assumed
    /// the model's inflation stays at or below `bound`, or as soon as
    /// [`CalendarState::wake_over`] sees it pass.
    pub fn schedule_under(&mut self, id: SharingId, due_tick: u64, bound: f64) {
        if let Some(gen) = self.set_state(id, SlotState::Scheduled) {
            self.wakes.schedule(id, gen, due_tick);
            // Stale entries whose bound is never passed would never pop.
            if self.bounds.len() >= 2 * self.slots.len() {
                let slots = &self.slots;
                self.bounds.retain(|e| slots.get(&e.0 .1).is_some_and(|slot| slot.gen == e.0 .2));
            }
            self.bounds.push(Reverse((bound.to_bits(), id, gen)));
        }
    }

    /// Wakes, for the next planning pass, every slot asleep under a bound
    /// the model's `inflation` has passed. Stale entries are dropped.
    pub fn wake_over(&mut self, inflation: f64) {
        let passed = |e: &&Reverse<(u64, SharingId, u64)>| f64::from_bits(e.0 .0) < inflation;
        while let Some(&Reverse((_, id, gen))) = self.bounds.peek().filter(passed) {
            self.bounds.pop();
            if self.current(id, gen) {
                self.wake_now(id);
            }
        }
    }

    /// Queues the slot for the next planning pass.
    pub fn wake_now(&mut self, id: SharingId) {
        if self.set_state(id, SlotState::Scheduled).is_some() {
            self.due_now.push(id);
        }
    }

    /// Marks the slot in flight: completion/abandonment events own its
    /// next wake, so no calendar entry exists for it.
    pub fn mark_in_flight(&mut self, id: SharingId) {
        self.set_state(id, SlotState::InFlight);
    }

    /// Whether a push or a pending retry owns the slot.
    pub fn in_flight(&self, id: SharingId) -> bool {
        self.slots.get(&id).is_some_and(|slot| slot.state == SlotState::InFlight)
    }

    /// Gives a freshly added sharing its slot, due at the next pass.
    pub fn add(&mut self, id: SharingId) {
        self.slots.insert(id, Slot { gen: 0, state: SlotState::Scheduled });
        self.n_scheduled += 1;
        self.due_now.push(id);
    }

    /// Takes a retired sharing's slot away. Its heap entries stay until
    /// they pop and are dropped as stale: ids are never reused, so none can
    /// match a later sharing's slot.
    pub fn remove(&mut self, id: SharingId) {
        if self.slots.remove(&id).is_some_and(|slot| slot.state == SlotState::Scheduled) {
            self.n_scheduled -= 1;
        }
    }

    /// The sharings holding a slot, in id order.
    pub fn ids(&self) -> Vec<SharingId> {
        let mut ids: Vec<SharingId> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Slots asleep under a live entry of the bound heap.
    #[cfg(test)]
    pub fn sleeping_under_bound(&self) -> usize {
        self.bounds.iter().filter(|e| self.current(e.0 .1, e.0 .2)).count()
    }

    /// Drains everything due at `now`: heap pops up to the current tick
    /// plus the due-now buffer, stale entries dropped, deduplicated and
    /// sorted ascending — id order is the planning order.
    pub fn take_woken(&mut self, now: Timestamp) -> Vec<SharingId> {
        let mut popped: Vec<(SharingId, u64)> = Vec::new();
        self.wakes.advance(self.tick_of(now), &mut popped);
        let mut woken: Vec<SharingId> = std::mem::take(&mut self.due_now);
        woken.extend(popped.into_iter().filter(|&(id, gen)| self.current(id, gen)).map(|(id, _)| id));
        woken.sort_unstable();
        woken.dedup();
        woken.retain(|id| self.slots.get(id).is_some_and(|slot| slot.state == SlotState::Scheduled));
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
        let mut pos: FastMap<VertexId, u32> = FastMap::with_capacity_and_hasher(order.len(), Default::default());
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

    fn id(i: u32) -> SharingId {
        SharingId::new(i)
    }

    /// A calendar with a slot for each of sharings `0..n`.
    fn calendar(n: u32) -> CalendarState {
        let mut c = CalendarState::new(SimDuration::from_secs(1));
        (0..n).for_each(|i| c.add(id(i)));
        c
    }

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
            w.schedule(id(i as u32), 0, d);
        }
        assert_eq!(w.len(), dues.len());
        let mut out = Vec::new();
        for t in 1..=262300u64 {
            out.clear();
            w.advance(t, &mut out);
            for &(entry, _) in &out {
                assert_eq!(dues[entry.0 as usize], t, "entry {entry} popped at {t}");
            }
        }
        assert_eq!(w.len(), 0, "every entry popped");
        // An already-past due tick clamps to the next tick.
        w.schedule(id(0), 0, 5);
        out.clear();
        w.advance(262301, &mut out);
        assert_eq!(out, vec![(id(0), 0)]);
    }

    #[test]
    fn heap_random_schedule_pops_on_time() {
        let mut rng = Lcg(7);
        let mut w = PushCalendar::default();
        let mut due_of: FastMap<SharingId, u64> = FastMap::default();
        let mut next_id = 0u32;
        let mut popped = 0usize;
        let mut out = Vec::new();
        for t in 1..=20_000u64 {
            // Schedule a few entries at random future offsets.
            for _ in 0..(rng.next() % 3) {
                let due = t + rng.next() % 10_000;
                w.schedule(id(next_id), 0, due);
                due_of.insert(id(next_id), due);
                next_id += 1;
            }
            out.clear();
            w.advance(t, &mut out);
            for &(entry, _) in &out {
                assert_eq!(due_of[&entry], t, "entry {entry} popped at {t}");
                popped += 1;
            }
        }
        assert!(popped > 1_000, "exercised {popped} pops");
        assert_eq!(w.len() + popped, next_id as usize);
    }

    #[test]
    fn calendar_generations_invalidate_stale_entries() {
        let mut c = calendar(2);
        // Initial state: both slots due now.
        let woken = c.take_woken(Timestamp::ZERO);
        assert_eq!(woken, vec![id(0), id(1)]);
        c.schedule_at(id(0), 5);
        c.schedule_at(id(1), 5);
        // Slot 1 transitions before its wake: the heap entry goes stale.
        c.mark_in_flight(id(1));
        let woken = c.take_woken(Timestamp::from_secs(5));
        assert_eq!(woken, vec![id(0)]);
        // A woken slot stays Scheduled until the planner transitions it.
        assert_eq!(c.scheduled_count(), 1);
        c.mark_in_flight(id(0));
        assert_eq!(c.scheduled_count(), 0);
    }

    /// A retirement removes the slot whatever its state, keeps the
    /// scheduled count right, and the completion or abandonment of a push
    /// whose sharing was retired meanwhile must not bring the slot back;
    /// its heap entries are dropped when they pop.
    #[test]
    fn a_removed_slot_stays_removed() {
        let mut c = calendar(4);
        c.take_woken(Timestamp::ZERO);
        c.mark_in_flight(id(0));
        c.mark_in_flight(id(1));
        c.schedule_at(id(2), 1);
        c.schedule_under(id(3), 1, 1.5);
        assert_eq!(c.scheduled_count(), 2);
        for i in 0..4 {
            c.remove(id(i));
        }
        assert_eq!(c.scheduled_count(), 0);
        c.wake_now(id(0));
        c.schedule_at(id(1), 1);
        c.wake_over(50.0);
        assert!(c.take_woken(Timestamp::from_secs(1)).is_empty());
        assert!((0..4).all(|i| !c.in_flight(id(i))) && c.ids().is_empty());
        assert_eq!(c.scheduled_count(), 0);
        assert_eq!(c.wheel_len(), 0, "the removed slots' entries popped");
    }

    /// An inflation wakes exactly the slots whose bound it passed; a slot
    /// asleep at the clamp, one whose bound it has not reached, and the
    /// stale entries of slots that moved on stay put.
    #[test]
    fn wake_over_wakes_only_slots_whose_bound_the_inflation_passed() {
        let mut c = calendar(5);
        c.take_woken(Timestamp::ZERO);
        c.schedule_under(id(0), 500, 1.5);
        c.schedule_under(id(1), 900, 3.0);
        c.schedule_at(id(2), 700);
        // Stale: slot 3 moved in flight, slot 4 re-slept under a higher
        // bound after its first one.
        c.schedule_under(id(3), 600, 1.2);
        c.mark_in_flight(id(3));
        c.schedule_under(id(4), 800, 1.1);
        c.schedule_under(id(4), 800, 4.0);
        assert_eq!(c.sleeping_under_bound(), 3);

        c.wake_over(1.5);
        assert!(c.take_woken(Timestamp::from_secs(1)).is_empty());
        c.wake_over(2.0);
        assert_eq!(c.take_woken(Timestamp::from_secs(2)), vec![id(0)]);
        assert_eq!(c.sleeping_under_bound(), 2);
        c.wake_over(50.0);
        assert_eq!(c.take_woken(Timestamp::from_secs(3)), vec![id(1), id(4)]);
        assert_eq!(c.sleeping_under_bound(), 0);
        assert!(c.bounds.is_empty(), "stale entries popped too");
        assert!(c.in_flight(id(3)));
        // The clamp-projected slot still wakes on its tick.
        c.schedule_at(id(0), 10);
        c.schedule_at(id(1), 10);
        c.schedule_at(id(4), 10);
        assert_eq!(c.take_woken(Timestamp::from_secs(700)), vec![id(0), id(1), id(2), id(4)]);
    }

    /// Entries whose bound no inflation reaches go stale without popping;
    /// the heap sweeps them instead of growing with every sleep.
    #[test]
    fn stale_bound_entries_are_swept() {
        let mut c = calendar(4);
        c.take_woken(Timestamp::ZERO);
        for round in 0..100 {
            for i in 0..4 {
                c.schedule_under(id(i), 1_000 + round, 1.25);
            }
        }
        assert!(c.bounds.len() <= 8, "{} entries", c.bounds.len());
        assert_eq!(c.sleeping_under_bound(), 4);
    }
}
