//! The sharing optimizer: admissibility and plan generation (paper §6).
//!
//! The optimizer casts plan generation as the bottom-up JOINCOST dynamic
//! program of Algorithm 1: states are (join sequence, machine) pairs; a
//! longer sequence `R` at machine `mi` is built from `R − a` at any machine
//! `mj` joined with base relation `a`, choosing the cheapest of the four
//! placements of Figure 3 — (a) in-place, (b) copy `R − a` to `a`'s machine,
//! (c) copy `a` to `R − a`'s machine, (d) copy both to `mi`.
//!
//! Running the DP with the dollar-cost objective yields **DPD** (cheapest,
//! ignoring time); with the critical-time-path objective it yields **DPT**
//! (fastest, ignoring dollars). The selection rule of §6.2 reads DPT only
//! when DPD misses the SLA, so [`Optimizer::plan_admission`] searches once
//! whenever the cheapest plan keeps up: if it does not and even the fastest
//! plan cannot, no plan can, and the sharing is rejected before the provider
//! signs an SLA it would pay penalties on. A search whose MV is pinned
//! builds the last layer of the DP — the full join sequence — on the pinned
//! machine only: nothing extends that layer, so no other state of it is read.
//!
//! A DP state is a cost, not a plan: a candidate is wired into a
//! [`Tally`], which resumes its sub-state's sums with what the extension
//! appends and so reads exactly what the built plan's walks would, to the
//! bit. The same wiring, replayed from the winner's choices into a
//! [`Plan`], is the one plan a search builds.
//!
//! The same type is the decision layer at admission time *and* online: it
//! borrows only immutable planning inputs (catalog, cost model, price sheet,
//! a machine list) and takes the utilization view and the MV pin per call,
//! so the control loop re-invokes it mid-run for one alerted sharing against
//! live fleet state ([`Optimizer::replan`]). It only *returns* a
//! [`PlannedSharing`]; applying one is the executor's live-migration
//! protocol (`executor/migrate.rs`). Decisions are pure functions of
//! deterministic simulation state, so the adaptive control loop stays
//! byte-reproducible run to run.

use crate::catalog::Catalog;
use crate::multi::{hill_climb, GlobalPlan, HillClimbReport};
use crate::plan::build::{PlanBuilder, RelHandle, Sink};
use crate::plan::cost::{machine_utilization, Scope, Shape, Tally};
use crate::plan::dag::Plan;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_storage::join::JoinOn;
use smile_storage::spj::SpjStep;
use smile_storage::{AggFunc, AggregateSpec};
use smile_types::{FastMap, MachineId, Result, Schema, SimDuration, SmileError, VertexId};
use std::collections::HashMap;

/// Which objective the DP's `COSTCALC` minimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize dollars per second (→ DPD).
    Dollars,
    /// Minimize the critical time path (→ DPT).
    Time,
}

/// A fully planned sharing: the plan, where its MV lives, where the plan's
/// join order puts the submitted query's columns, and the metrics the
/// admission decision used. The sharing's submitted query stays the one
/// definition of what the MV holds.
#[derive(Clone, Debug)]
pub struct PlannedSharing {
    /// The plan DAG (single-sharing; merge into the global plan to run).
    pub plan: Plan,
    /// The MV's Relation vertex within `plan`.
    pub mv: VertexId,
    /// The machine hosting the MV.
    pub mv_machine: MachineId,
    /// Where each output column of the submitted query sits in a stored MV
    /// row, or `None` when a stored row is already in submitted order: a
    /// declared projection (remapped in declared order), an aggregate (its
    /// output does not depend on the join order) or a plan that joins in the
    /// submitted order. Readers apply it; the plan never sees it.
    pub columns: Option<Vec<usize>>,
    /// Critical time path `CP(p, 1)` of this plan.
    pub critical_path: SimDuration,
    /// Steady-state dollar cost per second (Eq. 1).
    pub dollar_cost: f64,
}

/// A join condition between two of the sharing's base relations, expressed
/// as (step index in the original query, column within that base).
struct PairCond {
    a: (usize, usize),
    b: (usize, usize),
}

/// One DP state: what the objective and the capacity test read of the plan
/// fragment producing a join sequence at a machine — its output's
/// estimates, its cost so far — and the choices that build it. No state
/// holds a plan: a search builds one, its winner's.
struct State<'m> {
    tally: Tally<'m>,
    handle: RelHandle<Shape>,
    /// Original-query step indexes, in the order this fragment joined them.
    order: Vec<usize>,
    /// Per join after the first, the machine holding its result and its
    /// Figure 3 case.
    placed: Vec<(MachineId, u8)>,
    metric: f64,
}

/// What joining one more base relation onto a fragment takes besides the
/// fragment: the base (an original step index), the join condition, and —
/// when the join completes the query — the MV's projection or aggregate
/// remapped into the join order.
struct JoinSpec {
    base: usize,
    on: JoinOn,
    projection: Option<Vec<usize>>,
    aggregate: Option<AggregateSpec>,
}

/// The sharing optimizer: plan search, the §6.2 selection rule and the
/// install-time placement pass. Cheap to construct — build one per decision
/// against whatever machine set is current.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    machines: Vec<MachineId>,
    model: &'a TimeCostModel,
    prices: &'a PriceSheet,
    /// Per-machine CPU capacity in operator-seconds per second.
    capacity: f64,
    force_objective: Option<Objective>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over `machines` (`MAC(S_i)`).
    pub fn new(
        catalog: &'a Catalog,
        machines: Vec<MachineId>,
        model: &'a TimeCostModel,
        prices: &'a PriceSheet,
    ) -> Self {
        Self {
            catalog,
            machines,
            model,
            prices,
            capacity: 1.0,
            force_objective: None,
        }
    }

    /// Overrides the per-machine CPU capacity the admission test enforces
    /// (default 1.0).
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Forces one planning objective instead of the paper's DPD-else-DPT
    /// rule (the Figure 12 algorithm comparison).
    pub fn with_force_objective(mut self, objective: Option<Objective>) -> Self {
        self.force_objective = objective;
        self
    }

    /// The admission-time decision: plan `sharing` against `committed`
    /// per-machine utilization (what previously admitted sharings already
    /// load) with its MV pinned to `mv_machine` if given (the paper's §9.1
    /// setup assigns each sharing to a machine arbitrarily; the DP still
    /// places intermediates freely), and choose DPD or DPT per the paper's
    /// rule — or the forced objective, under the same admissibility test.
    pub fn plan_admission(
        &self,
        sharing: &Sharing,
        committed: HashMap<MachineId, f64>,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        self.choose(sharing, &committed, mv_machine, self.force_objective)
    }

    /// The online decision: re-plan a *running* sharing against live fleet
    /// utilization. `live_utilization` is the running global plan's
    /// per-machine load; the sharing's own current plan (`current`) is
    /// subtracted out (it stops consuming its old placement after the
    /// migration), clamped at zero so float dust never goes negative.
    /// `mv_machine` pins the new MV (None lets placement roam the machine
    /// list — which the caller has typically already restricted, e.g. to
    /// the active machines minus the saturated one).
    pub fn replan(
        &self,
        sharing: &Sharing,
        live_utilization: HashMap<MachineId, f64>,
        current: &PlannedSharing,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        let mut committed = live_utilization;
        for (m, u) in machine_utilization(&current.plan, Scope::All, self.model) {
            let e = committed.entry(m).or_default();
            *e = (*e - u).max(0.0);
        }
        self.choose(sharing, &committed, mv_machine, None)
    }

    /// [`hill_climb`], the plumbing pass `Smile::install` runs, under the
    /// name the frozen `benchmark/` harness calls. The `bool` is vestigial
    /// and ignored — it once selected scan enumeration.
    pub fn hill_climb_placement(
        &self,
        global: &mut GlobalPlan,
        _indexed: bool,
        max_iterations: usize,
    ) -> HillClimbReport {
        hill_climb(global, self.model, self.prices, max_iterations)
    }

    /// The paper's §6.2 selection rule, applied lazily: DPD is the plan when
    /// it is itself admissible; only otherwise is DPT searched, and taken
    /// iff some plan fits the SLA. With a `forced` objective that plan is
    /// searched first and is the one returned; the other objective is still
    /// searched only when it misses, and only to decide admissibility.
    ///
    /// The DP is the System-R/R* polynomial-time *heuristic*, so DPT is not
    /// provably CP-minimal; the admissibility test therefore considers the
    /// faster of the two plans rather than DPT alone.
    fn choose(
        &self,
        sharing: &Sharing,
        committed: &HashMap<MachineId, f64>,
        mv_machine: Option<MachineId>,
        forced: Option<Objective>,
    ) -> Result<PlannedSharing> {
        let sla = sharing.staleness_sla;
        let (first, second) = match forced {
            Some(Objective::Time) => (Objective::Time, Objective::Dollars),
            _ => (Objective::Dollars, Objective::Time),
        };
        let plan = self.plan_with(sharing, first, committed, mv_machine)?;
        if plan.critical_path <= sla {
            return Ok(plan);
        }
        let other = self.plan_with(sharing, second, committed, mv_machine)?;
        let fastest = other.critical_path.min(plan.critical_path);
        if fastest > sla {
            return Err(SmileError::Inadmissible {
                sharing: sharing.id,
                critical_path_secs: fastest.as_secs_f64(),
                sla_secs: sla.as_secs_f64(),
            });
        }
        Ok(if forced.is_some() { plan } else { other })
    }

    /// Runs the JOINCOST DP under one objective, against `committed`
    /// utilization and with the MV pinned to `mv_machine` if given.
    pub fn plan_with(
        &self,
        sharing: &Sharing,
        objective: Objective,
        committed: &HashMap<MachineId, f64>,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        let steps = &sharing.query.steps;
        let n = steps.len();
        if n == 0 {
            return Err(SmileError::InvalidPlan("sharing with empty query".into()));
        }
        if n > 16 {
            return Err(SmileError::InvalidPlan(
                "JOINCOST supports at most 16 base relations".into(),
            ));
        }
        let search = Search::new(self.catalog, sharing, objective, committed, mv_machine)?;

        if n == 1 {
            return self.plan_single(&search);
        }

        // Machines already at their admission ceiling cannot take any new
        // placement — `metric` would reject the added utilization — so the
        // DP skips them as placement targets up front. Source machines
        // (`mj` below) stay unpruned: a zero-cost seed fragment lives at
        // its base relation's home machine even when that machine is full.
        let placeable: Vec<MachineId> = self
            .machines
            .iter()
            .copied()
            .filter(|m| committed.get(m).copied().unwrap_or(0.0) < self.capacity)
            .collect();
        // The full mask has no successor and the answer is read off the
        // pinned machine alone, so its layer is built there and nowhere
        // else. (Every shorter sequence still roams: an intermediate on any
        // machine can feed the pinned final join.)
        let final_targets: Vec<MachineId> = match mv_machine {
            Some(pin) => placeable.iter().copied().filter(|&m| m == pin).collect(),
            None => placeable.clone(),
        };

        // dp[(mask, machine)] -> best state.
        let mut dp: FastMap<(u32, MachineId), State<'_>> = FastMap::default();

        // Seed: singleton sequences at their home machines.
        for (i, step) in steps.iter().enumerate() {
            let mut tally = Tally::new(self.model);
            let handle = search.builder.base_handle(&mut tally, step.relation, step.predicate.clone())?;
            tally.keep([handle.rel, handle.delta]);
            let (order, placed) = (vec![i], Vec::new());
            let state = State { tally, handle, order, placed, metric: 0.0 };
            dp.insert((1 << i, state.handle.machine), state);
        }

        let full: u32 = (1 << n) - 1;
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let targets = if mask == full { &final_targets } else { &placeable };
            // Inserted once the mask is done, since `dp` is read until then.
            let winners = self.layer(&search, &dp, mask, targets);
            for (&mi, state) in targets.iter().zip(winners) {
                if let Some(state) = state {
                    dp.insert((mask, mi), state);
                }
            }
        }

        let best = final_targets
            .iter()
            .filter_map(|&m| dp.remove(&(full, m)))
            .min_by(|a, b| a.metric.total_cmp(&b.metric))
            .ok_or_else(|| SmileError::CapacityExhausted {
                detail: format!(
                    "no feasible plan for sharing {} on {} machines",
                    sharing.id,
                    self.machines.len()
                ),
            })?;

        self.finish(&search, best)
    }

    /// One layer of the DP: per target machine, the cheapest state of join
    /// sequence `mask` on it (the first of the minima), each candidate
    /// costed by extending a state of `mask` less one base relation with
    /// that relation under one of the four Figure 3 cases. A candidate the
    /// capacity test refuses, or whose wiring errors, is skipped.
    fn layer<'s>(
        &self,
        s: &Search<'_>,
        dp: &FastMap<(u32, MachineId), State<'s>>,
        mask: u32,
        targets: &[MachineId],
    ) -> Vec<Option<State<'s>>> {
        let mut winners: Vec<Option<State<'s>>> = targets.iter().map(|_| None).collect();
        for a in 0..s.steps.len() {
            if mask & (1 << a) == 0 {
                continue;
            }
            let sub_mask = mask & !(1 << a);
            // Skip orders that would need a cross product.
            let connected = s.conds.iter().any(|c| {
                (c.a.0 == a && sub_mask & (1 << c.b.0) != 0)
                    || (c.b.0 == a && sub_mask & (1 << c.a.0) != 0)
            });
            if !connected {
                continue;
            }
            for &mj in &self.machines {
                let Some(sub) = dp.get(&(sub_mask, mj)) else {
                    continue;
                };
                let order = [&sub.order[..], &[a]].concat();
                let Ok(join) = s.join_spec(&order) else {
                    continue;
                };
                for (&mi, best) in targets.iter().zip(&mut winners) {
                    for case in 0..4u8 {
                        if degenerate(case, sub.handle.machine, s.home[a], mi) {
                            continue;
                        }
                        let mut tally = sub.tally.clone();
                        let extended = self.extend(s, &mut tally, &sub.handle, (mi, case), &join);
                        #[cfg(test)]
                        {
                            let placed = [&sub.placed[..], &[(mi, case)]].concat();
                            tests::assert_costed_as_built(self, s, (&order, &placed, mi), &tally, &extended);
                        }
                        let Ok(handle) = extended else { continue };
                        let Some(metric) = self.metric(s, &tally, handle.rate) else {
                            continue;
                        };
                        if best.as_ref().is_some_and(|b| b.metric <= metric) {
                            continue;
                        }
                        tally.keep([handle.rel, handle.delta]);
                        let placed = [&sub.placed[..], &[(mi, case)]].concat();
                        let order = order.clone();
                        *best = Some(State { tally, handle, order, placed, metric });
                    }
                }
            }
        }
        winners
    }

    /// Plans a single-relation sharing: a filtered/projected maintained copy
    /// on the best machine.
    fn plan_single(&self, s: &Search<'_>) -> Result<PlannedSharing> {
        let query = &s.sharing.query;
        let step = &query.steps[0];
        let mut best: Option<State<'_>> = None;
        for &m in &self.machines {
            if s.pin.is_some_and(|pin| pin != m) {
                continue;
            }
            if s.committed.get(&m).copied().unwrap_or(0.0) >= self.capacity {
                continue; // full machine: metric() would reject any placement
            }
            s.aggregate_fits.clone()?;
            let mut tally = Tally::new(self.model);
            let handle = s.builder.scan_plan(
                &mut tally,
                step.relation,
                step.predicate.clone(),
                query.projection.as_deref(),
                query.aggregate.as_ref(),
                m,
            )?;
            #[cfg(test)]
            tests::assert_costed_as_built(self, s, (&[0], &[], m), &tally, &Ok(handle.clone()));
            let Some(metric) = self.metric(s, &tally, handle.rate) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| metric < b.metric) {
                let (order, placed) = (vec![0], Vec::new());
                best = Some(State { tally, handle, order, placed, metric });
            }
        }
        let best = best.ok_or(SmileError::CapacityExhausted {
            detail: format!("no machine can host sharing {}", s.sharing.id),
        })?;
        self.finish(s, best)
    }

    /// Extends the fragment whose output is `sub` by `join`, on machine `mi`
    /// under Figure 3 case `case`: (a) in place, (b) `sub` copied to the
    /// base's machine, (c) the base copied to `sub`'s machine, (d) both
    /// copied to `mi`. The one wiring of a candidate, written into a
    /// [`Tally`] to cost it and into a [`Plan`] to build it.
    fn extend<S: Sink>(
        &self,
        s: &Search<'_>,
        sink: &mut S,
        sub: &RelHandle<S::Form>,
        (mi, case): (MachineId, u8),
        join: &JoinSpec,
    ) -> Result<RelHandle<S::Form>> {
        let builder = &s.builder;
        let step = &s.steps[join.base];
        let base = builder.base_handle(sink, step.relation, step.predicate.clone())?;
        let moved_sub = match case {
            1 => Some(builder.replica(sink, sub, base.machine)?),
            3 => Some(builder.replica(sink, sub, mi)?),
            _ => None,
        };
        let moved_base = match case {
            2 => Some(builder.replica(sink, &base, sub.machine)?),
            3 => Some(builder.replica(sink, &base, mi)?),
            _ => None,
        };
        let left = moved_sub.as_ref().unwrap_or(sub);
        let right = moved_base.as_ref().unwrap_or(&base);
        let (projection, aggregate) = (join.projection.as_deref(), join.aggregate.as_ref());
        builder.join_step(sink, left, right, &join.on, mi, projection, aggregate)
    }

    /// COSTCALC: the DP objective of a fragment tallied in `tally` whose MV
    /// receives `mv_rate` tuples per second, or `None` when it exceeds
    /// machine capacity (the paper costs infeasible plans at ∞).
    fn metric(&self, s: &Search<'_>, tally: &Tally<'_>, mv_rate: f64) -> Option<f64> {
        for (m, util) in tally.load() {
            if s.committed.get(&m).copied().unwrap_or(0.0) + util > self.capacity {
                return None;
            }
        }
        Some(match s.objective {
            Objective::Time => tally.critical_path().as_secs_f64(),
            Objective::Dollars => self.dollars(s.sharing, tally, mv_rate),
        })
    }

    /// Eq. 1 for a single-sharing fragment whose MV receives `mv_rate`.
    fn dollars(&self, sharing: &Sharing, tally: &Tally<'_>, mv_rate: f64) -> f64 {
        tally.plan_cost(self.prices, sharing.staleness_sla, sharing.penalty_per_tuple, mv_rate)
    }

    /// Builds the plan of the fragment joining `order` with the choices
    /// `placed` — the single-relation scan on `scan_at` when the query has
    /// one relation.
    fn build(
        &self,
        s: &Search<'_>,
        order: &[usize],
        placed: &[(MachineId, u8)],
        scan_at: MachineId,
    ) -> Result<(Plan, RelHandle)> {
        let mut plan = Plan::new();
        let first = &s.steps[order[0]];
        if s.steps.len() == 1 {
            let (query, pred) = (&s.sharing.query, first.predicate.clone());
            let (projection, aggregate) = (query.projection.as_deref(), query.aggregate.as_ref());
            let handle = s.builder.scan_plan(&mut plan, first.relation, pred, projection, aggregate, scan_at)?;
            return Ok((plan, handle));
        }
        let mut handle = s.builder.base_handle(&mut plan, first.relation, first.predicate.clone())?;
        for (k, &choice) in placed.iter().enumerate() {
            handle = self.extend(s, &mut plan, &handle, choice, &s.join_spec(&order[..k + 2])?)?;
        }
        Ok((plan, handle))
    }

    /// Builds the search's winner — the one plan a search materializes —
    /// and packages it with its admission metrics and where its join order
    /// stores the submitted query's columns.
    fn finish(&self, s: &Search<'_>, state: State<'_>) -> Result<PlannedSharing> {
        let (plan, handle) = self.build(s, &state.order, &state.placed, state.handle.machine)?;
        plan.validate()?;
        Ok(PlannedSharing {
            mv: handle.rel,
            mv_machine: handle.machine,
            columns: s.stored_columns(&state.order)?,
            critical_path: state.tally.critical_path(),
            dollar_cost: self.dollars(s.sharing, &state.tally, state.handle.rate),
            plan,
        })
    }
}

/// Whether Figure 3 case `case` over a fragment on `sub_at` and a base
/// relation homed at `base_at`, joined on `mi`, is a no-op duplicate of
/// case (a): a copy to where the relation already is.
fn degenerate(case: u8, sub_at: MachineId, base_at: MachineId, mi: MachineId) -> bool {
    match case {
        1 | 2 => sub_at == base_at,
        3 => sub_at == mi && base_at == mi,
        _ => false,
    }
}

/// What one [`Optimizer::plan_with`] call holds fixed while it enumerates
/// candidates, borrowed by every step of the search.
struct Search<'s> {
    sharing: &'s Sharing,
    /// `sharing.query.steps`: the base relations in the original join order.
    steps: &'s [SpjStep],
    /// Columns each step contributes to a concatenated schema.
    arity: Vec<usize>,
    /// Each step's base relation's home machine.
    home: Vec<MachineId>,
    /// Whether the query's aggregate fits the column types of its join
    /// schema — in any join order, since remapping keeps each column's
    /// type — or the error a plan's MV step gives when it does not.
    aggregate_fits: Result<()>,
    conds: Vec<PairCond>,
    builder: PlanBuilder<'s>,
    objective: Objective,
    committed: &'s HashMap<MachineId, f64>,
    pin: Option<MachineId>,
}

impl<'s> Search<'s> {
    /// Reads each step's arity off the catalog and extracts the pairwise
    /// join conditions from the left-deep query: each accumulated-schema
    /// column of a step's condition is traced back to the base relation
    /// that owns it.
    fn new(
        catalog: &'s Catalog,
        sharing: &'s Sharing,
        objective: Objective,
        committed: &'s HashMap<MachineId, f64>,
        pin: Option<MachineId>,
    ) -> Result<Self> {
        let steps = &sharing.query.steps;
        let mut arity = Vec::with_capacity(steps.len());
        let mut home = Vec::with_capacity(steps.len());
        let mut offsets = Vec::with_capacity(steps.len());
        let mut off = 0usize;
        let mut schema: Option<Schema> = None;
        for step in steps {
            let base = catalog.base(step.relation)?;
            let columns = base.schema.arity();
            arity.push(columns);
            home.push(base.machine);
            offsets.push(off);
            off += columns;
            if sharing.query.aggregate.is_some() {
                let joined = schema.map(|s| s.join(&base.schema, "l", "r"));
                schema = Some(joined.unwrap_or_else(|| base.schema.clone()));
            }
        }
        let aggregate_fits = match (&sharing.query.aggregate, &schema) {
            (Some(spec), Some(schema)) => spec.output_schema(schema).map(drop),
            _ => Ok(()),
        };
        let mut conds = Vec::new();
        for (i, step) in steps.iter().enumerate().skip(1) {
            let Some(on) = &step.join else {
                return Err(SmileError::InvalidPlan(format!(
                    "step {i} of the query lacks a join condition"
                )));
            };
            for (&l, &r) in on.left_cols.iter().zip(&on.right_cols) {
                let owner = offsets[..i]
                    .iter()
                    .rposition(|&o| o <= l)
                    .ok_or_else(|| SmileError::InvalidPlan("bad join column".into()))?;
                conds.push(PairCond {
                    a: (owner, l - offsets[owner]),
                    b: (i, r),
                });
            }
        }
        Ok(Self {
            sharing,
            steps,
            arity,
            home,
            aggregate_fits,
            conds,
            builder: PlanBuilder::new(catalog),
            objective,
            committed,
            pin,
        })
    }

    /// Where each original step's columns start in the concatenated schema
    /// of the steps joined in `order`; `None` for a step `order` leaves out.
    fn offsets_in(&self, order: &[usize]) -> Vec<Option<usize>> {
        let mut offsets = vec![None; self.steps.len()];
        let mut off = 0usize;
        for &s in order {
            offsets[s] = Some(off);
            off += self.arity[s];
        }
        offsets
    }

    /// The join condition between a fragment (original steps `placed`, in
    /// that order) and base step `a`.
    fn join_condition(&self, placed: &[usize], a: usize) -> Result<JoinOn> {
        let offsets = self.offsets_in(placed);
        let mut left_cols = Vec::new();
        let mut right_cols = Vec::new();
        for c in &self.conds {
            let (other, acol) = if c.a.0 == a {
                (c.b, c.a.1)
            } else if c.b.0 == a {
                (c.a, c.b.1)
            } else {
                continue;
            };
            let Some(off) = offsets[other.0] else {
                continue;
            };
            left_cols.push(off + other.1);
            right_cols.push(acol);
        }
        if left_cols.is_empty() {
            return Err(SmileError::InvalidPlan(format!(
                "no join condition connects base step {a} to the fragment"
            )));
        }
        Ok(JoinOn {
            left_cols,
            right_cols,
        })
    }

    /// Maps every column of the original join order's concatenated schema
    /// to its index in the schema of the complete join order `order`.
    fn column_map(&self, order: &[usize]) -> Result<Vec<usize>> {
        let offsets = self.offsets_in(order);
        let mut map = Vec::with_capacity(self.arity.iter().sum());
        for (step, &arity) in self.arity.iter().enumerate() {
            let off = offsets[step].ok_or_else(|| {
                SmileError::InvalidPlan(format!("join order {order:?} leaves out step {step}"))
            })?;
            map.extend(off..off + arity);
        }
        Ok(map)
    }

    /// The join that ends the join sequence `order`: its last base onto
    /// the fragment joining the others; an error when no condition connects
    /// them, or when it completes the query and the sharing's projection or
    /// aggregate does not fit the query's join schema.
    fn join_spec(&self, order: &[usize]) -> Result<JoinSpec> {
        let Some((&base, placed)) = order.split_last() else {
            return Err(SmileError::InvalidPlan("an empty join sequence joins nothing".into()));
        };
        let on = self.join_condition(placed, base)?;
        if order.len() < self.steps.len() {
            return Ok(JoinSpec { base, on, projection: None, aggregate: None });
        }
        let projection = self.remapped_projection(order)?;
        let aggregate = self.remapped_aggregate(order)?;
        self.aggregate_fits.clone()?;
        Ok(JoinSpec { base, on, projection, aggregate })
    }

    /// Remaps the sharing's projection (defined over the original join
    /// order's concatenated schema) into the join order `order`.
    fn remapped_projection(&self, order: &[usize]) -> Result<Option<Vec<usize>>> {
        let Some(proj) = &self.sharing.query.projection else {
            return Ok(None);
        };
        let map = self.column_map(order)?;
        proj.iter().map(|&c| remap(&map, c)).collect::<Result<_>>().map(Some)
    }

    /// Remaps the sharing's aggregation spec into the join order `order`.
    fn remapped_aggregate(&self, order: &[usize]) -> Result<Option<AggregateSpec>> {
        let Some(spec) = &self.sharing.query.aggregate else {
            return Ok(None);
        };
        let map = self.column_map(order)?;
        let group_cols = spec.group_cols.iter().map(|&c| remap(&map, c));
        let aggs = spec.aggs.iter().map(|f| {
            Ok(match f {
                AggFunc::SumI64(c) => AggFunc::SumI64(remap(&map, *c)?),
                AggFunc::SumF64(c) => AggFunc::SumF64(remap(&map, *c)?),
            })
        });
        Ok(Some(AggregateSpec {
            group_cols: group_cols.collect::<Result<_>>()?,
            aggs: aggs.collect::<Result<_>>()?,
        }))
    }

    /// [`PlannedSharing::columns`] of the complete join order `order`: its
    /// [`Search::column_map`] when the MV stores an unprojected join in
    /// another order than the submitted one, else `None`.
    fn stored_columns(&self, order: &[usize]) -> Result<Option<Vec<usize>>> {
        let query = &self.sharing.query;
        if query.projection.is_some() || query.aggregate.is_some() {
            return Ok(None);
        }
        let map = self.column_map(order)?;
        Ok(map.iter().enumerate().any(|(i, &c)| i != c).then_some(map))
    }
}

/// Looks one original-order column up in a [`Search::column_map`].
fn remap(map: &[usize], col: usize) -> Result<usize> {
    map.get(col).copied().ok_or_else(|| {
        SmileError::InvalidPlan(format!(
            "column {col} is outside the query's {}-column join schema",
            map.len()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use crate::plan::cost::{critical_path, plan_cost};
    use proptest::prelude::*;
    use smile_storage::{Predicate, SpjQuery};
    use smile_types::{Column, ColumnType, Schema, SharingId};

    /// The search's cost model checked against the plans it stands for,
    /// from inside every search these tests run: builds the candidate
    /// `(order, placed, scan_at)` (see [`Optimizer::build`]) and asserts
    /// that wiring it errs exactly when costing it into `tally` did, and
    /// that otherwise the built plan's size, Eq. 1 cost, critical path and
    /// per-machine load equal the tally's to the bit.
    pub(super) fn assert_costed_as_built(
        opt: &Optimizer<'_>,
        s: &Search<'_>,
        (order, placed, scan_at): (&[usize], &[(MachineId, u8)], MachineId),
        tally: &Tally<'_>,
        costed: &Result<RelHandle<Shape>>,
    ) {
        let built = opt.build(s, order, placed, scan_at);
        let (Ok((plan, handle)), Ok(costed)) = (&built, costed) else {
            assert_eq!(built.is_ok(), costed.is_ok(), "{order:?} {placed:?}: {built:?} / {costed:?}");
            return;
        };
        let at = format!("{order:?} {placed:?}");
        assert_eq!((plan.vertex_count(), plan.edge_count()), tally.size(), "{at}");
        assert_eq!(handle.rate.to_bits(), costed.rate.to_bits(), "{at}");
        let (sla, penalty) = (s.sharing.staleness_sla, s.sharing.penalty_per_tuple);
        let cost = plan_cost(plan, opt.model, opt.prices, sla, penalty, handle.rate);
        let tallied = tally.plan_cost(opt.prices, sla, penalty, costed.rate);
        assert_eq!(cost.to_bits(), tallied.to_bits(), "{at}: Eq. 1 {cost} built, {tallied} costed");
        assert_eq!(critical_path(plan, 1.0, opt.model), tally.critical_path(), "{at}");
        let bits = |load: Vec<(MachineId, f64)>| {
            let mut load: Vec<(MachineId, u64)> = load.into_iter().map(|(m, u)| (m, u.to_bits())).collect();
            load.sort_unstable();
            load
        };
        let built_load = machine_utilization(plan, Scope::All, opt.model).into_iter().collect();
        assert_eq!(bits(built_load), bits(tally.load().collect()), "{at}: per-machine load");
    }

    /// users(uid, name) on m0; tweets(tid, uid) on m1; curloc(tid, lat) on m2.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_base(
            "users",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("name", ColumnType::Str),
                ],
                vec![0],
            ),
            MachineId::new(0),
            BaseStats {
                update_rate: 30.0,
                cardinality: 10_000.0,
                tuple_bytes: 40.0,
                distinct: vec![10_000.0, 9_000.0],
            },
        );
        c.register_base(
            "tweets",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("uid", ColumnType::I64),
                ],
                vec![0],
            ),
            MachineId::new(1),
            BaseStats {
                update_rate: 100.0,
                cardinality: 100_000.0,
                tuple_bytes: 80.0,
                distinct: vec![100_000.0, 10_000.0],
            },
        );
        c.register_base(
            "curloc",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("lat", ColumnType::F64),
                ],
                vec![0],
            ),
            MachineId::new(2),
            BaseStats {
                update_rate: 10.0,
                cardinality: 50_000.0,
                tuple_bytes: 24.0,
                distinct: vec![50_000.0, 40_000.0],
            },
        );
        c
    }

    fn machines() -> Vec<MachineId> {
        (0..3).map(MachineId::new).collect()
    }

    fn two_way(sla_secs: u64) -> Sharing {
        // users ⋈ tweets on uid.
        let q = SpjQuery::scan(smile_types::RelationId::new(0)).join(
            smile_types::RelationId::new(1),
            JoinOn::on(0, 1),
            Predicate::True,
        );
        Sharing::new(
            SharingId::new(0),
            "twitaholic",
            q,
            SimDuration::from_secs(sla_secs),
            0.001,
        )
    }

    fn three_way() -> Sharing {
        // users ⋈ tweets on uid ⋈ curloc on tid.
        let q = SpjQuery::scan(smile_types::RelationId::new(0))
            .join(
                smile_types::RelationId::new(1),
                JoinOn::on(0, 1),
                Predicate::True,
            )
            .join(
                smile_types::RelationId::new(2),
                JoinOn::on(2, 0),
                Predicate::True,
            )
            .project(vec![1, 2, 5]);
        Sharing::new(
            SharingId::new(1),
            "twellow",
            q,
            SimDuration::from_secs(45),
            0.001,
        )
    }

    #[test]
    fn dpt_is_at_least_as_fast_as_dpd() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        let plan = |objective| opt.plan_with(&two_way(45), objective, &HashMap::new(), None);
        let (dpd, dpt) = (plan(Objective::Dollars).unwrap(), plan(Objective::Time).unwrap());
        assert!(dpt.critical_path <= dpd.critical_path);
        assert!(dpd.dollar_cost <= dpt.dollar_cost + 1e-12);
        dpd.plan.validate().unwrap();
        dpt.plan.validate().unwrap();
    }

    #[test]
    fn admissible_sharing_is_accepted() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        let sharing = two_way(45);
        let planned = opt.plan_admission(&sharing, HashMap::new(), None).unwrap();
        assert!(planned.critical_path <= SimDuration::from_secs(45));
        assert!(planned.plan.vertex_count() >= 8);
    }

    #[test]
    fn impossible_sla_is_rejected() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        // A millisecond-scale SLA is below even one operator's fixed cost.
        let sharing = Sharing::new(
            SharingId::new(9),
            "impossible",
            two_way(45).query,
            SimDuration::from_millis(1),
            0.001,
        );
        let err = opt.plan_admission(&sharing, HashMap::new(), None);
        assert!(matches!(err, Err(SmileError::Inadmissible { .. })));
    }

    #[test]
    fn three_way_join_stores_the_submitted_columns_or_says_where_they_are() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        let mut sharing = three_way();
        let planned = opt.plan_admission(&sharing, HashMap::new(), None).unwrap();
        planned.plan.validate().unwrap();
        // A declared projection is stored in declared order, whatever the
        // join order.
        assert_eq!(planned.columns, None);
        assert_eq!(planned.plan.vertex(planned.mv).schema.arity(), 3);
        // Unprojected, a stored row holds every submitted column once.
        sharing.query.projection = None;
        let planned = opt.plan_admission(&sharing, HashMap::new(), None).unwrap();
        let mut columns = planned.columns.unwrap_or_else(|| (0..6).collect());
        columns.sort_unstable();
        assert_eq!(columns, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_exhaustion_rejects() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let committed: HashMap<_, _> = machines().into_iter().map(|m| (m, 0.999)).collect();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        let r = opt.plan_with(&two_way(45), Objective::Dollars, &committed, None);
        assert!(matches!(r, Err(SmileError::CapacityExhausted { .. })));
    }

    /// Four bases `r{i}(k: I64, v: I64, x: F64)` homed on `homes`.
    fn drawn_catalog(homes: &[u32]) -> Catalog {
        let mut c = Catalog::new();
        for (i, &home) in homes.iter().enumerate() {
            let columns = vec![
                Column::new("k", ColumnType::I64),
                Column::new("v", ColumnType::I64),
                Column::new("x", ColumnType::F64),
            ];
            let card = 1_000.0 * (i + 1) as f64;
            let stats = BaseStats {
                update_rate: 5.0 + 15.0 * i as f64,
                cardinality: card,
                tuple_bytes: 24.0 + 8.0 * i as f64,
                distinct: vec![card, card / 10.0, card / 2.0],
            };
            c.register_base(format!("r{i}"), Schema::new(columns, vec![0]), MachineId::new(home), stats);
        }
        c
    }

    /// A drawn query: per step `(base, join column, predicate)` — a literal
    /// on `k` or `v` or none — each step after the first joined to the step
    /// before it (a chain) or to the first (a star); then by `last` nothing,
    /// a projection, a count-and-sum aggregate over an `I64` or an `F64`
    /// column, or one that sums an `F64` column as `I64` and fits no order.
    fn drawn_query(steps: &[(usize, usize, u8)], star: bool, last: u8) -> SpjQuery {
        let pred = |p: u8| match p {
            0 => Predicate::True,
            p => Predicate::eq(usize::from(p - 1), 3i64),
        };
        let rel = |b: usize| smile_types::RelationId::new(b as u32);
        let (b0, _, p0) = steps[0];
        let mut q = SpjQuery::select(rel(b0), pred(p0));
        for (i, &(b, col, p)) in steps.iter().enumerate().skip(1) {
            let left = if star { col } else { 3 * (i - 1) + col };
            q = q.join(rel(b), JoinOn::on(left, col), pred(p));
        }
        let arity = 3 * steps.len();
        match last {
            1 => q.project(vec![arity - 1, 0]),
            2 => q.aggregate(AggregateSpec { group_cols: vec![1], aggs: vec![AggFunc::SumI64(arity - 3)] }),
            3 => q.aggregate(AggregateSpec { group_cols: vec![0], aggs: vec![AggFunc::SumF64(arity - 1)] }),
            4 => q.aggregate(AggregateSpec { group_cols: vec![0], aggs: vec![AggFunc::SumI64(2)] }),
            _ => q,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]
        /// Every candidate a search costs is built beside it and compared
        /// (`Optimizer::assert_costed_as_built`, which runs inside every
        /// search of this crate's tests): one- to five-way chains and stars
        /// over four bases on four machines, a base often named twice (with
        /// the same literal or another), filters, projections, aggregates,
        /// and machines loaded from idle to past capacity. The winner's
        /// metrics are its built plan's.
        #[test]
        fn every_costed_candidate_is_its_built_plan(
            homes in prop::collection::vec(0u32..4, 4..5),
            steps in prop::collection::vec((0usize..4, 0usize..2, 0u8..3), 1..6),
            (star, last) in (prop::bool::ANY, 0u8..5),
            load in prop::collection::vec(0usize..6, 4..5),
            (pin, time) in (0u32..5, prop::bool::ANY),
        ) {
            let cat = drawn_catalog(&homes);
            let model = TimeCostModel::paper_defaults();
            let prices = PriceSheet::ec2_cross_zone();
            let opt = Optimizer::new(&cat, (0..4).map(MachineId::new).collect(), &model, &prices);
            let levels = [0.0, 0.5, 0.99, 0.995, 0.999, 1.0];
            let committed = load.iter().enumerate().map(|(m, &l)| (MachineId::new(m as u32), levels[l]));
            let committed: HashMap<MachineId, f64> = committed.collect();
            let query = drawn_query(&steps, star, last);
            let sharing = Sharing::new(SharingId::new(0), "drawn", query, SimDuration::from_secs(30), 0.001);
            let objective = if time { Objective::Time } else { Objective::Dollars };
            let pin = (pin < 4).then(|| MachineId::new(pin));
            if let Ok(planned) = opt.plan_with(&sharing, objective, &committed, pin) {
                let plan = &planned.plan;
                let rate = plan.vertex(planned.mv).est_rate;
                let cost = plan_cost(plan, &model, &prices, sharing.staleness_sla, 0.001, rate);
                prop_assert_eq!(cost.to_bits(), planned.dollar_cost.to_bits());
                prop_assert_eq!(critical_path(plan, 1.0, &model), planned.critical_path);
            }
        }
    }

    #[test]
    fn single_relation_sharing_plans_as_scan() {
        let cat = catalog();
        let model = TimeCostModel::paper_defaults();
        let prices = PriceSheet::ec2_cross_zone();
        let opt = Optimizer::new(&cat, machines(), &model, &prices);
        let q = SpjQuery::select(smile_types::RelationId::new(0), Predicate::eq(1, "ann"))
            .project(vec![0]);
        let sharing = Sharing::new(
            SharingId::new(2),
            "scanner",
            q,
            SimDuration::from_secs(10),
            0.001,
        );
        let planned = opt.plan_admission(&sharing, HashMap::new(), None).unwrap();
        assert_eq!(planned.plan.edge_count(), 2);
        assert_eq!(planned.plan.vertex(planned.mv).schema.arity(), 1);
    }
}
