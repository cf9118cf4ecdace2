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
use crate::plan::build::{PlanBuilder, RelHandle};
use crate::plan::cost::{critical_path, machine_utilization, plan_cost, Scope};
use crate::plan::dag::Plan;
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_storage::join::JoinOn;
use smile_storage::spj::SpjStep;
use smile_storage::{AggFunc, AggregateSpec};
use smile_types::{MachineId, Result, SimDuration, SmileError, VertexId};
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

/// One DP state: the plan fragment producing a join sequence at a machine.
struct Candidate {
    plan: Plan,
    handle: RelHandle,
    /// Original-query step indexes, in the order this fragment joined them.
    order: Vec<usize>,
    metric: f64,
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

        // dp[(mask, machine)] -> best candidate.
        let mut dp: HashMap<(u32, MachineId), Candidate> = HashMap::new();

        // Seed: singleton sequences at their home machines.
        let builder = &search.builder;
        for (i, step) in steps.iter().enumerate() {
            let mut plan = Plan::new();
            let handle = builder.base_handle(&mut plan, step.relation, step.predicate.clone())?;
            let machine = handle.machine;
            let cand = Candidate {
                plan,
                handle,
                order: vec![i],
                metric: 0.0,
            };
            dp.insert((1 << i, machine), cand);
        }

        let full: u32 = (1 << n) - 1;
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            let is_final = mask == full;
            let targets = if is_final { &final_targets } else { &placeable };
            // This mask's winner per target, first of the minima; inserted
            // once the mask is done, since `dp` is being read until then.
            let mut winners: Vec<Option<Candidate>> = targets.iter().map(|_| None).collect();
            for a in 0..n {
                if mask & (1 << a) == 0 {
                    continue;
                }
                let sub_mask = mask & !(1 << a);
                // Skip orders that would need a cross product.
                let connected = search.conds.iter().any(|c| {
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
                    for (&mi, best) in targets.iter().zip(&mut winners) {
                        for case in 0..4u8 {
                            let Ok(Some(cand)) = self.expand(&search, sub, a, mi, case, is_final)
                            else {
                                continue;
                            };
                            match best {
                                Some(b) if b.metric <= cand.metric => {}
                                _ => *best = Some(cand),
                            }
                        }
                    }
                }
            }
            for (&mi, cand) in targets.iter().zip(winners) {
                if let Some(cand) = cand {
                    dp.insert((mask, mi), cand);
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

    /// Plans a single-relation sharing: a filtered/projected maintained copy
    /// on the best machine.
    fn plan_single(&self, s: &Search<'_>) -> Result<PlannedSharing> {
        let query = &s.sharing.query;
        let step = &query.steps[0];
        let mut best: Option<Candidate> = None;
        for &m in &self.machines {
            if s.pin.is_some_and(|pin| pin != m) {
                continue;
            }
            if s.committed.get(&m).copied().unwrap_or(0.0) >= self.capacity {
                continue; // full machine: metric() would reject any placement
            }
            let mut plan = Plan::new();
            let handle = s.builder.scan_plan(
                &mut plan,
                step.relation,
                step.predicate.clone(),
                query.projection.clone(),
                query.aggregate.clone(),
                m,
            )?;
            let Some(metric) = self.metric(s, &plan, &handle) else {
                continue;
            };
            let cand = Candidate {
                plan,
                handle,
                order: vec![0],
                metric,
            };
            if best.as_ref().is_none_or(|b| cand.metric < b.metric) {
                best = Some(cand);
            }
        }
        let best = best.ok_or(SmileError::CapacityExhausted {
            detail: format!("no machine can host sharing {}", s.sharing.id),
        })?;
        self.finish(s, best)
    }

    /// Applies one of the four Figure 3 cases to extend `sub` with base
    /// relation (original step) `a`, producing the result on `mi`. Returns
    /// `Ok(None)` when the placement is infeasible (capacity) or the case is
    /// a no-op duplicate of case (a).
    fn expand(
        &self,
        s: &Search<'_>,
        sub: &Candidate,
        a: usize,
        mi: MachineId,
        case: u8,
        is_final: bool,
    ) -> Result<Option<Candidate>> {
        let builder = &s.builder;
        let step = &s.steps[a];
        let mut plan = sub.plan.clone();
        let base = builder.base_handle(&mut plan, step.relation, step.predicate.clone())?;

        // Skip degenerate copies that equal case (a).
        let (left, right) = match case {
            0 => (sub.handle.clone(), base),
            1 => {
                if sub.handle.machine == base.machine {
                    return Ok(None);
                }
                let moved = builder.replica(&mut plan, &sub.handle, base.machine)?;
                (moved, base)
            }
            2 => {
                if base.machine == sub.handle.machine {
                    return Ok(None);
                }
                let moved = builder.replica(&mut plan, &base, sub.handle.machine)?;
                (sub.handle.clone(), moved)
            }
            _ => {
                if sub.handle.machine == mi && base.machine == mi {
                    return Ok(None);
                }
                let l = builder.replica(&mut plan, &sub.handle, mi)?;
                let r = builder.replica(&mut plan, &base, mi)?;
                (l, r)
            }
        };

        let mut order = sub.order.clone();
        order.push(a);
        let on = s.join_condition(&sub.order, a)?;
        let (projection, aggregate) = if is_final {
            (s.remapped_projection(&order)?, s.remapped_aggregate(&order)?)
        } else {
            (None, None)
        };
        let handle = builder.join_step(&mut plan, &left, &right, &on, mi, projection, aggregate)?;
        let Some(metric) = self.metric(s, &plan, &handle) else {
            return Ok(None);
        };
        Ok(Some(Candidate {
            plan,
            handle,
            order,
            metric,
        }))
    }

    /// COSTCALC: the DP objective, or `None` when the fragment exceeds
    /// machine capacity (the paper costs infeasible plans at ∞).
    fn metric(&self, s: &Search<'_>, plan: &Plan, handle: &RelHandle) -> Option<f64> {
        let load = machine_utilization(plan, Scope::All, self.model);
        for (m, util) in &load {
            if s.committed.get(m).copied().unwrap_or(0.0) + util > self.capacity {
                return None;
            }
        }
        Some(match s.objective {
            Objective::Time => critical_path(plan, 1.0, self.model).as_secs_f64(),
            Objective::Dollars => self.dollars(s.sharing, plan, handle),
        })
    }

    /// Eq. 1 for a single-sharing plan whose MV is `handle`.
    fn dollars(&self, sharing: &Sharing, plan: &Plan, handle: &RelHandle) -> f64 {
        plan_cost(
            plan,
            self.model,
            self.prices,
            sharing.staleness_sla,
            sharing.penalty_per_tuple,
            handle.rate,
        )
    }

    /// Packages a winning candidate with its admission metrics and where its
    /// join order stores the submitted query's columns.
    fn finish(&self, s: &Search<'_>, cand: Candidate) -> Result<PlannedSharing> {
        cand.plan.validate()?;
        Ok(PlannedSharing {
            mv: cand.handle.rel,
            mv_machine: cand.handle.machine,
            columns: s.stored_columns(&cand.order)?,
            critical_path: critical_path(&cand.plan, 1.0, self.model),
            dollar_cost: self.dollars(s.sharing, &cand.plan, &cand.handle),
            plan: cand.plan,
        })
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
        let mut offsets = Vec::with_capacity(steps.len());
        let mut off = 0usize;
        for step in steps {
            let columns = catalog.base(step.relation)?.schema.arity();
            arity.push(columns);
            offsets.push(off);
            off += columns;
        }
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
    use smile_storage::{Predicate, SpjQuery};
    use smile_types::{Column, ColumnType, Schema, SharingId};

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
