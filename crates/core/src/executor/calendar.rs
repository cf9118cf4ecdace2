//! Event-driven push calendar: O(due + invalidated) tick scheduling.
//!
//! Reconsidering every sharing on every tick, recomputing its critical
//! path from the full plan graph, is O(N·plan-size) even when nothing is
//! due. This module avoids that with two pieces:
//!
//! 1. **[`CalendarState`]** — a two-state machine (scheduled, in flight)
//!    per live sharing over two min-heaps. The state and its generation are
//!    the sharing's [`Slot`], which lives in its record; the calendar holds
//!    only the heaps' entries, the due-now buffer and the scheduled count,
//!    and no per-sharing map. Each idle
//!    sharing sleeps on the *wake heap* until a conservative lower bound
//!    on the first tick its lazy projection `staleness + CP + tick` can
//!    reach `l·SLA`, given a bound on the feedback inflation:
//!    the model's clamp far from firing, the live inflation ×
//!    [`INFLATION_HEADROOM`] close to it — and then the *bound heap* holds
//!    the slot until [`CalendarState::wake_over`] sees the inflation pass.
//!    Popping early is safe (the slot re-projects and goes back to sleep);
//!    popping late never happens (see `Executor::project_wake_tick`). Every
//!    transition bumps the slot's generation, so entries go stale in place;
//!    a retirement removes the record and with it the slot, and its entries
//!    are dropped as they pop, like a stale generation's.
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
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Headroom multiplied onto the live inflation to get the bound a slot
/// close to firing sleeps under, so a slowly creeping inflation does not
/// wake it every tick.
pub(crate) const INFLATION_HEADROOM: f64 = 1.25;

/// Lifecycle state of a live sharing's slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SlotState {
    /// Queued in the heap (or the due-now buffer) under the current
    /// generation.
    Scheduled,
    /// A push or retry is active; completion/abandonment events re-enqueue
    /// the slot. A new record's slot starts here: in no calendar entry and
    /// not counted, until [`CalendarState::wake_now`] hands it over.
    #[default]
    InFlight,
}

/// A live sharing's slot, kept in its record (`Executor::sharings`): whether
/// the sharing is idle or mid-push, and the generation its calendar entries
/// carry. Every transition bumps it, so an entry made under the current one
/// is the slot's one entry, and the slot is scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Slot {
    pub gen: u64,
    state: SlotState,
}

impl Slot {
    /// Whether a push or a pending retry owns the sharing.
    pub fn in_flight(self) -> bool {
        self.state == SlotState::InFlight
    }
}

/// The calendar scheduler's state: the wake heap, the bound heap and the
/// due-now buffer, each entry a sharing and the generation of its slot it
/// was made under. It keeps no per-sharing map: an entry whose sharing has
/// no record, or whose generation is not its slot's, is dropped when read.
pub(crate) struct CalendarState {
    /// Min-heap of `(due tick, sharing, generation)` wake entries.
    wakes: BinaryHeap<Reverse<(u64, SharingId, u64)>>,
    /// The last tick drained.
    now_tick: u64,
    /// Min-heap of `(inflation bound, sharing, generation)` for slots whose
    /// wake assumed a bound below the model's clamp; a positive `f64`'s
    /// bits order as the number does.
    bounds: BinaryHeap<Reverse<(u64, SharingId, u64)>>,
    /// `(sharing, generation)` to evaluate at the next planning pass
    /// regardless of the heap (freshly added, push-completed, bound passed).
    due_now: Vec<(SharingId, u64)>,
    tick_us: u64,
    /// Slots in the `Scheduled` state, kept by the transitions and by
    /// [`CalendarState::retire`].
    n_scheduled: usize,
}

impl CalendarState {
    /// An empty calendar ticking every `tick`.
    pub fn new(tick: SimDuration) -> Self {
        Self {
            wakes: BinaryHeap::new(),
            now_tick: 0,
            bounds: BinaryHeap::new(),
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

    /// Queued wake entries, stale ones included.
    pub fn wheel_len(&self) -> usize {
        self.wakes.len()
    }

    /// Moves `slot` to `state` under a fresh generation, which invalidates
    /// its previous attachment (heap entry, due-now membership), and
    /// returns that generation.
    fn set_state(&mut self, slot: &Cell<Slot>, state: SlotState) -> u64 {
        let Slot { gen, state: was } = slot.get();
        if was == SlotState::Scheduled {
            self.n_scheduled -= 1;
        }
        if state == SlotState::Scheduled {
            self.n_scheduled += 1;
        }
        slot.set(Slot { gen: gen + 1, state });
        gen + 1
    }

    /// Queues sharing `id`, whose slot is `slot`, to wake at `due_tick`.
    /// Past or current due ticks clamp to the next tick.
    pub fn schedule_at(&mut self, id: SharingId, slot: &Cell<Slot>, due_tick: u64) {
        let gen = self.set_state(slot, SlotState::Scheduled);
        self.wakes.push(Reverse((due_tick.max(self.now_tick + 1), id, gen)));
    }

    /// Queues sharing `id` to wake at `due_tick`, a projection that assumed
    /// the model's inflation stays at or below `bound`, or as soon as
    /// [`CalendarState::wake_over`] sees it pass. `slot_of` reads a live
    /// sharing's slot.
    pub fn schedule_under(
        &mut self,
        id: SharingId,
        slot: &Cell<Slot>,
        due_tick: u64,
        bound: f64,
        slot_of: impl Fn(SharingId) -> Option<Slot>,
    ) {
        self.schedule_at(id, slot, due_tick);
        // Stale entries whose bound is never passed would never pop. At
        // most one entry per scheduled slot is current, so a sweep at twice
        // that removes at least half of what it walks.
        if self.bounds.len() >= 2 * self.n_scheduled {
            self.bounds.retain(|e| slot_of(e.0 .1).is_some_and(|slot| slot.gen == e.0 .2));
        }
        self.bounds.push(Reverse((bound.to_bits(), id, slot.get().gen)));
    }

    /// Wakes, for the next planning pass, every slot asleep under a bound
    /// the model's `inflation` has passed. The entries go to the due-now
    /// buffer as they are, so a stale one is dropped where the pass reads
    /// it.
    pub fn wake_over(&mut self, inflation: f64) {
        let passed = |e: &&Reverse<(u64, SharingId, u64)>| f64::from_bits(e.0 .0) < inflation;
        while let Some(&Reverse((_, id, gen))) = self.bounds.peek().filter(passed) {
            self.bounds.pop();
            self.due_now.push((id, gen));
        }
    }

    /// Queues sharing `id` for the next planning pass.
    pub fn wake_now(&mut self, id: SharingId, slot: &Cell<Slot>) {
        let gen = self.set_state(slot, SlotState::Scheduled);
        self.due_now.push((id, gen));
    }

    /// Marks the slot in flight: completion/abandonment events own its
    /// next wake, so no calendar entry exists for it.
    pub fn mark_in_flight(&mut self, slot: &Cell<Slot>) {
        self.set_state(slot, SlotState::InFlight);
    }

    /// Forgets the slot of a retired sharing, whose record went. Its heap
    /// entries stay until they pop and are dropped there: ids are never
    /// reused, so none can match a later sharing's slot.
    pub fn retire(&mut self, slot: Slot) {
        if slot.state == SlotState::Scheduled {
            self.n_scheduled -= 1;
        }
    }

    /// Drains everything due at `now`, heap pops up to the current tick
    /// plus the due-now buffer, as `(sharing, generation)` candidates in
    /// ascending id order, the planning order. The pass keeps those whose
    /// sharing has a record and whose generation is its slot's.
    pub fn take_woken(&mut self, now: Timestamp) -> Vec<(SharingId, u64)> {
        let tick = self.tick_of(now);
        self.now_tick = self.now_tick.max(tick);
        let mut woken = std::mem::take(&mut self.due_now);
        while let Some(&Reverse((_, id, gen))) = self.wakes.peek().filter(|e| e.0 .0 <= tick) {
            self.wakes.pop();
            woken.push((id, gen));
        }
        woken.sort_unstable();
        woken.dedup();
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
pub(super) mod tests {
    use super::*;

    fn id(i: u32) -> SharingId {
        SharingId::new(i)
    }

    /// A calendar and the slots of sharings `0..n` (the executor keeps them
    /// in their records), each handed over as a new record's is.
    fn calendar(n: u32) -> (CalendarState, Vec<Cell<Slot>>) {
        let mut c = CalendarState::new(SimDuration::from_secs(1));
        let slots: Vec<Cell<Slot>> = (0..n).map(|_| Cell::default()).collect();
        (0..n).for_each(|i| c.wake_now(id(i), &slots[i as usize]));
        (c, slots)
    }

    /// Reads a sharing's slot among `slots`, as the executor does its record.
    fn slot_of(slots: &[Cell<Slot>]) -> impl Fn(SharingId) -> Option<Slot> + '_ {
        |id| slots.get(id.0 as usize).map(Cell::get)
    }

    /// The sharings the planning pass at `now` evaluates: the woken
    /// candidates whose generation is their slot's.
    fn woken(c: &mut CalendarState, slots: &[Cell<Slot>], now: Timestamp) -> Vec<SharingId> {
        let current = |&(id, gen): &(SharingId, u64)| slot_of(slots)(id).is_some_and(|s| s.gen == gen);
        c.take_woken(now).into_iter().filter(current).map(|(id, _)| id).collect()
    }

    /// Slots asleep under a current entry of the bound heap.
    pub(in crate::executor) fn sleeping_under_bound(c: &CalendarState, slot_of: impl Fn(SharingId) -> Option<Slot>) -> usize {
        c.bounds.iter().filter(|e| slot_of(e.0 .1).is_some_and(|slot| slot.gen == e.0 .2)).count()
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
        let mut c = CalendarState::new(SimDuration::from_secs(1));
        let (dues, slot) = ([1u64, 63, 64, 65, 127, 4095, 4096, 4100, 262144, 262209], Cell::default());
        // Scheduled out of due order, so heap order is what sorts them.
        for (i, &d) in dues.iter().enumerate().rev() {
            c.schedule_at(id(i as u32), &slot, d);
        }
        assert_eq!(c.wheel_len(), dues.len());
        for t in 1..=262300u64 {
            for (entry, _) in c.take_woken(Timestamp::from_secs(t)) {
                assert_eq!(dues[entry.0 as usize], t, "entry {entry} popped at {t}");
            }
        }
        assert_eq!(c.wheel_len(), 0, "every entry popped");
        // An already-past due tick clamps to the next tick.
        c.schedule_at(id(0), &slot, 5);
        assert_eq!(c.take_woken(Timestamp::from_secs(262301)), vec![(id(0), slot.get().gen)]);
    }

    #[test]
    fn heap_random_schedule_pops_on_time() {
        let mut rng = Lcg(7);
        let mut c = CalendarState::new(SimDuration::from_secs(1));
        let (slot, mut dues, mut popped) = (Cell::default(), Vec::new(), 0usize);
        for t in 1..=20_000u64 {
            // Schedule a few entries at random future offsets.
            for _ in 0..(rng.next() % 3) {
                let due = t + rng.next() % 10_000;
                c.schedule_at(id(dues.len() as u32), &slot, due);
                dues.push(due);
            }
            for (entry, _) in c.take_woken(Timestamp::from_secs(t)) {
                assert_eq!(dues[entry.0 as usize], t, "entry {entry} popped at {t}");
                popped += 1;
            }
        }
        assert!(popped > 1_000, "exercised {popped} pops");
        assert_eq!(c.wheel_len() + popped, dues.len());
    }

    #[test]
    fn calendar_generations_invalidate_stale_entries() {
        let (mut c, s) = calendar(2);
        // Initial state: both slots due now.
        assert_eq!(woken(&mut c, &s, Timestamp::ZERO), vec![id(0), id(1)]);
        c.schedule_at(id(0), &s[0], 5);
        c.schedule_at(id(1), &s[1], 5);
        // Slot 1 transitions before its wake: the heap entry goes stale.
        c.mark_in_flight(&s[1]);
        assert_eq!(woken(&mut c, &s, Timestamp::from_secs(5)), vec![id(0)]);
        // A woken slot stays Scheduled until the planner transitions it.
        assert_eq!(c.scheduled_count(), 1);
        c.mark_in_flight(&s[0]);
        assert_eq!(c.scheduled_count(), 0);
    }

    /// A retirement takes the slot away with its record whatever its
    /// state and keeps the scheduled count right; the retired slots'
    /// entries, in both heaps and the due-now buffer, are dropped when read.
    #[test]
    fn a_removed_slot_stays_removed() {
        let (mut c, mut s) = calendar(4);
        woken(&mut c, &s, Timestamp::ZERO);
        c.mark_in_flight(&s[0]);
        c.schedule_at(id(1), &s[1], 1);
        c.schedule_under(id(2), &s[2], 1, 1.5, slot_of(&s));
        c.wake_now(id(3), &s[3]);
        s.drain(..).for_each(|slot| c.retire(slot.get()));
        assert_eq!(c.scheduled_count(), 0);
        c.wake_over(50.0);
        assert!(woken(&mut c, &s, Timestamp::from_secs(1)).is_empty());
        assert!(c.wheel_len() == 0 && c.bounds.is_empty() && c.due_now.is_empty());
    }

    /// An inflation wakes exactly the slots whose bound it passed; a slot
    /// asleep at the clamp, one whose bound it has not reached, and the
    /// stale entries of slots that moved on stay put.
    #[test]
    fn wake_over_wakes_only_slots_whose_bound_the_inflation_passed() {
        let (mut c, s) = calendar(5);
        woken(&mut c, &s, Timestamp::ZERO);
        c.schedule_under(id(0), &s[0], 500, 1.5, slot_of(&s));
        c.schedule_under(id(1), &s[1], 900, 3.0, slot_of(&s));
        c.schedule_at(id(2), &s[2], 700);
        // Stale: slot 3 moved in flight, slot 4 re-slept under a higher
        // bound after its first one.
        c.schedule_under(id(3), &s[3], 600, 1.2, slot_of(&s));
        c.mark_in_flight(&s[3]);
        c.schedule_under(id(4), &s[4], 800, 1.1, slot_of(&s));
        c.schedule_under(id(4), &s[4], 800, 4.0, slot_of(&s));
        assert_eq!(sleeping_under_bound(&c, slot_of(&s)), 3);

        c.wake_over(1.5);
        assert!(woken(&mut c, &s, Timestamp::from_secs(1)).is_empty());
        c.wake_over(2.0);
        assert_eq!(woken(&mut c, &s, Timestamp::from_secs(2)), vec![id(0)]);
        assert_eq!(sleeping_under_bound(&c, slot_of(&s)), 2);
        c.wake_over(50.0);
        assert_eq!(woken(&mut c, &s, Timestamp::from_secs(3)), vec![id(1), id(4)]);
        assert_eq!(sleeping_under_bound(&c, slot_of(&s)), 0);
        assert!(c.bounds.is_empty(), "stale entries popped too");
        assert!(s[3].get().in_flight());
        // The clamp-projected slot still wakes on its tick.
        [0, 1, 4].into_iter().for_each(|i| c.schedule_at(id(i), &s[i as usize], 10));
        assert_eq!(woken(&mut c, &s, Timestamp::from_secs(700)), vec![id(0), id(1), id(2), id(4)]);
    }

    /// Entries whose bound no inflation reaches go stale without popping;
    /// the heap sweeps them instead of growing with every sleep.
    #[test]
    fn stale_bound_entries_are_swept() {
        let (mut c, s) = calendar(4);
        woken(&mut c, &s, Timestamp::ZERO);
        for round in 0..100 {
            for i in 0..4 {
                c.schedule_under(id(i), &s[i as usize], 1_000 + round, 1.25, slot_of(&s));
            }
        }
        assert!(c.bounds.len() <= 8, "{} entries", c.bounds.len());
        assert_eq!(sleeping_under_bound(&c, slot_of(&s)), 4);
    }
}
