//! The re-entrant decision layer: plan search + placement, callable at
//! admission time *and* online.
//!
//! Until PR 10 the decision logic lived inline in `Smile::submit` /
//! `Smile::install` and could run exactly once per sharing — placements
//! were frozen at admission. This module extracts that logic into a
//! [`Reoptimizer`] that borrows only immutable planning inputs (catalog,
//! cost model, price sheet, a machine list), so the control loop can
//! re-invoke it mid-run for one alerted sharing against *live* fleet
//! state: current committed utilization, the currently active machine
//! set (elastic fleets grow and drain), and a placement constraint such
//! as "anywhere but the saturated machine".
//!
//! The decide/actuate split is deliberate: the reoptimizer only *returns*
//! a [`PlannedSharing`]; applying it is the executor's live-migration
//! protocol (`executor/migrate.rs`). Decisions are pure functions of
//! deterministic simulation state, so the adaptive control loop stays
//! byte-reproducible run to run.

use crate::catalog::Catalog;
use crate::multi::{hill_climb, GlobalPlan, HillClimbReport};
use crate::optimizer::{Objective, Optimizer, PlannedSharing};
use crate::plan::cost::{machine_utilization, Scope};
use crate::plan::timecost::TimeCostModel;
use crate::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_types::{MachineId, Result, SmileError};
use std::collections::HashMap;

/// Re-invocable plan search + placement over a snapshot of planning
/// inputs. Cheap to construct — build one per decision against whatever
/// machine set and committed-utilization view is current.
pub struct Reoptimizer<'a> {
    catalog: &'a Catalog,
    model: &'a TimeCostModel,
    prices: &'a PriceSheet,
    machines: Vec<MachineId>,
    capacity: f64,
    force_objective: Option<Objective>,
}

impl<'a> Reoptimizer<'a> {
    /// A reoptimizer choosing placements among `machines`.
    pub fn new(
        catalog: &'a Catalog,
        machines: Vec<MachineId>,
        model: &'a TimeCostModel,
        prices: &'a PriceSheet,
    ) -> Self {
        Self {
            catalog,
            model,
            prices,
            machines,
            capacity: 1.0,
            force_objective: None,
        }
    }

    /// Sets the per-machine CPU capacity the admission test enforces.
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

    /// The admission-time decision: run plan search for `sharing` against
    /// `committed` per-machine utilization and choose DPD or DPT per the
    /// paper's rule (or the forced objective, still subject to the
    /// admissibility test). This is the logic extracted verbatim from the
    /// pre-PR-10 `Smile::submit`.
    pub fn plan_admission(
        &self,
        sharing: &Sharing,
        committed: HashMap<MachineId, f64>,
        mv_machine: Option<MachineId>,
    ) -> Result<PlannedSharing> {
        let optimizer = Optimizer::new(self.catalog, self.machines.clone(), self.model, self.prices)
            .with_committed(committed)
            .with_capacity(self.capacity)
            .with_mv_machine(mv_machine);
        match self.force_objective {
            Some(obj) => {
                let p = optimizer.plan_with(sharing, obj)?;
                // Even a forced objective respects the admissibility test.
                if optimizer.plan_with(sharing, Objective::Time)?.critical_path
                    > sharing.staleness_sla
                {
                    return Err(SmileError::Inadmissible {
                        sharing: sharing.id,
                        critical_path_secs: p.critical_path.as_secs_f64(),
                        sla_secs: sharing.sla_secs(),
                    });
                }
                Ok(p)
            }
            None => optimizer.plan_pair(sharing)?.choose(sharing),
        }
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
        let optimizer = Optimizer::new(self.catalog, self.machines.clone(), self.model, self.prices)
            .with_committed(committed)
            .with_capacity(self.capacity)
            .with_mv_machine(mv_machine);
        optimizer.plan_pair(sharing)?.choose(sharing)
    }

    /// The placement-improvement pass run at install time (and re-runnable
    /// on any global plan): greedy hill-climbing plumbing. The `bool` is
    /// vestigial and ignored — it once selected scan enumeration; it stays
    /// only because the frozen `benchmark/` harness passes it.
    pub fn hill_climb_placement(
        &self,
        global: &mut GlobalPlan,
        _indexed: bool,
        max_iterations: usize,
    ) -> HillClimbReport {
        hill_climb(global, self.model, self.prices, max_iterations)
    }
}
