//! The adaptive runtime actuator: live MV migration, the alert-driven
//! control loop [`Smile::step`] runs when enabled, and dollar-budgeted
//! fleet elasticity.

use super::{resident_inputs, running, running_mut, seedable, Smile, WORST_ROWS};
use crate::executor::Executor;
use smile_sim::MachineState;
use smile_telemetry::Alert;
use smile_types::{MachineId, Result, SharingId, SimDuration, SmileError, Timestamp};

/// Settings for the adaptive runtime actuator (the control loop run by
/// [`Smile::step`] when `enabled`): it drains burn-rate alerts, re-plans
/// alerted sharings off their saturated machine through the
/// [`Optimizer`](crate::optimizer::Optimizer), live-migrates their MVs, and grows/shrinks the fleet
/// against an hourly dollar budget.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Master switch. Off by default: the control loop never runs, so every
    /// pre-adaptive workload replays byte-identically.
    pub enabled: bool,
    /// Hourly instance-dollar ceiling for the reserved fleet. A scale-up
    /// that would push `reserved × cpu_per_hour` past it is denied (and
    /// logged as [`ActionKind::ScaleDenied`]).
    pub budget_dollars_per_hour: f64,
    /// Minimum sim-time between two migrations of the same sharing, so one
    /// sustained alert storm cannot thrash an MV back and forth.
    pub cooldown: SimDuration,
    /// Migration cap per drained alert: at most this many MVs leave the
    /// saturated machine per control decision.
    pub max_migrations_per_alert: usize,
    /// How long an *elastic* machine (added by scale-up) must host no MV
    /// before the shrink pass drains and retires it.
    pub idle_retire_after: SimDuration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            budget_dollars_per_hour: 0.0,
            cooldown: SimDuration::from_secs(60),
            max_migrations_per_alert: 2,
            idle_retire_after: SimDuration::from_secs(120),
        }
    }
}

/// One decision the adaptive actuator took, stamped with the sim-time it
/// was made at. The action log is derived exclusively from deterministic
/// simulation state in canonical order, so it is byte-identical run to
/// run — pinned by the adaptive conformance suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Action {
    /// Simulated microseconds since time zero.
    pub at_us: u64,
    /// What was decided.
    pub kind: ActionKind,
}

/// The decision taken by one adaptive-control action.
#[derive(Clone, Debug, PartialEq)]
pub enum ActionKind {
    /// A live migration began: the sharing's MV dual-writes `from` → `to`.
    MigrationStarted {
        /// The migrating sharing.
        sharing: SharingId,
        /// Machine the MV is leaving.
        from: MachineId,
        /// Machine the MV is moving to.
        to: MachineId,
    },
    /// A live migration cut over; the MV now serves from `to`.
    MigrationCompleted {
        /// The migrated sharing.
        sharing: SharingId,
        /// Machine the MV left.
        from: MachineId,
        /// Machine the MV now serves from.
        to: MachineId,
    },
    /// A live migration aborted; the MV keeps serving from `from`.
    MigrationAborted {
        /// The sharing whose migration aborted.
        sharing: SharingId,
        /// Machine the MV stays on.
        from: MachineId,
        /// Machine the handoff was targeting.
        to: MachineId,
    },
    /// The fleet grew by one machine within the dollar budget.
    ScaleUp {
        /// The newly added machine.
        machine: MachineId,
    },
    /// A scale-up was denied: the budget could not cover one more machine.
    ScaleDenied {
        /// Reserved (non-retired) machine count at the time of denial.
        active: usize,
    },
    /// A drained elastic machine was retired from the fleet.
    ScaleDown {
        /// The retired machine.
        machine: MachineId,
    },
}

impl ActionKind {
    /// The sharing this action concerns, if any.
    pub fn sharing(&self) -> Option<SharingId> {
        match self {
            ActionKind::MigrationStarted { sharing, .. }
            | ActionKind::MigrationCompleted { sharing, .. }
            | ActionKind::MigrationAborted { sharing, .. } => Some(*sharing),
            _ => None,
        }
    }

    /// Compact deterministic label for reports and goldens.
    pub fn label(&self) -> String {
        match self {
            ActionKind::MigrationStarted { from, to, .. } => {
                format!("migration_started m{}->m{}", from.0, to.0)
            }
            ActionKind::MigrationCompleted { from, to, .. } => {
                format!("migration_completed m{}->m{}", from.0, to.0)
            }
            ActionKind::MigrationAborted { from, to, .. } => {
                format!("migration_aborted m{}->m{}", from.0, to.0)
            }
            ActionKind::ScaleUp { machine } => format!("scale_up m{}", machine.0),
            ActionKind::ScaleDenied { active } => format!("scale_denied at {active} machines"),
            ActionKind::ScaleDown { machine } => format!("scale_down m{}", machine.0),
        }
    }
}

impl Smile {
    /// Typed log of every adaptive-actuator decision so far, in decision
    /// order (byte-identical run to run).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    fn push_action(&mut self, kind: ActionKind) {
        self.actions.push(Action {
            at_us: (self.now - Timestamp::ZERO).as_micros(),
            kind,
        });
    }

    /// **Live migration** (tentpole of the adaptive runtime): re-plans a
    /// running sharing over the active machine set — optionally pinning the
    /// new MV to `to` — and, if a better placement exists, starts the
    /// executor's dual-write handoff. Returns `Ok(true)` when a migration
    /// began, `Ok(false)` when the current placement already wins, the
    /// sharing is mid-migration, or the new placement cannot be seeded as of
    /// the committed MV yet. The MV keeps serving throughout; the cutover
    /// settles in a later [`Smile::step`].
    pub fn migrate_sharing(&mut self, id: SharingId, to: Option<MachineId>) -> Result<bool> {
        let machines = self.cluster.active_machine_ids();
        self.replan_and_migrate(id, machines, to)
    }

    /// Re-plans `id` among `machines` against live fleet utilization and
    /// starts the shadow-chain handoff when the placement moves.
    fn replan_and_migrate(
        &mut self,
        id: SharingId,
        machines: Vec<MachineId>,
        pin: Option<MachineId>,
    ) -> Result<bool> {
        let executor = running(&self.executor)?;
        if executor.migrating(id) {
            return Ok(false);
        }
        let (cur_machine, seed_at) = (executor.mv_machine(id)?, executor.mv_ts(id)?);
        let load = executor.load(&self.config.model);
        let planned = self.optimizer(machines).replan(self.sharing(id)?, load, self.planned(id)?, pin)?;
        if planned.mv_machine == cur_machine {
            return Ok(false); // the current placement already wins
        }
        // Shadow install: merge the new chain into the running plan, then
        // reconcile storage exactly like a live admission — the chain is
        // live from here on although it serves no sharing until cutover
        // repoints the sharing's MV to it. If the new chain cannot start
        // reading a resident input at this sharing's commit point yet, the
        // merge is taken back: not now.
        let cluster = &self.cluster;
        let seedable_at = |executor: &Executor, new_mv| {
            let own = executor.sharing_topology(id).map_or(&[][..], |(order, _)| order);
            let inputs = resident_inputs(&executor.global.plan, new_mv);
            seedable(cluster, executor, &inputs, seed_at, own)
        };
        let before = self.global_plan().plan.vertex_count();
        match running_mut(&mut self.executor)?.begin_migration(id, &planned, self.now, seedable_at) {
            Err(SmileError::SeedUnavailable { .. }) => return Ok(false),
            begun => begun?,
        }
        self.count_reuse(&planned, before);
        // Seed the shadow chain *as of the old chain's committed MV
        // timestamp*, not `now`: the shadow reuses the old chain's anchored
        // half-join vertices, whose push windows tile forward from that
        // commit point. A seed at `now` would double-count the in-flight
        // window's base entries on one side and miss the cross term on the
        // other; seeding at `mv_ts` makes the correction algebra telescope
        // exactly (base logs are retained back to every live MV's commit
        // point by the executor's compaction bound).
        self.reconcile_storage(Some(seed_at))?;
        self.last_migration.insert(id, self.now);
        let to = planned.mv_machine;
        self.pending_plans.insert(id, planned);
        self.push_action(ActionKind::MigrationStarted {
            sharing: id,
            from: cur_machine,
            to,
        });
        Ok(true)
    }

    /// Applies migration outcomes the executor settled this tick: swaps the
    /// sharing's admitted plan on completion, logs the action, reconciles
    /// storage (old-chain exclusives on completion, shadow-chain exclusives
    /// on abort, are no longer live) — and retires any drained machine that
    /// no longer hosts MVs, migrations or base relations.
    pub(super) fn settle_migrations(&mut self) -> Result<()> {
        let outcomes = running_mut(&mut self.executor)?.take_migration_outcomes();
        let any = !outcomes.is_empty();
        for o in outcomes {
            let new_plan = self.pending_plans.remove(&o.id);
            let (sharing, from, to) = (o.id, o.from, o.to);
            let kind = if o.completed {
                if let (Some(new_plan), Some(planned)) = (new_plan, self.planned.get_mut(&o.id)) {
                    *planned = new_plan;
                }
                ActionKind::MigrationCompleted { sharing, from, to }
            } else {
                ActionKind::MigrationAborted { sharing, from, to }
            };
            self.push_action(kind);
        }
        if any {
            self.reconcile_storage(None)?;
        }
        // Drain-before-retire: a Draining machine leaves the fleet only
        // once nothing is homed on it — no live MV, no in-flight handoff
        // touching it, no base relation.
        let draining: Vec<MachineId> = self
            .cluster
            .machine_ids()
            .into_iter()
            .filter(|&m| self.cluster.machine_state(m) == MachineState::Draining)
            .collect();
        if !draining.is_empty() {
            let executor = running(&self.executor)?;
            let hosting = executor.mv_machines();
            let mut retire: Vec<MachineId> = Vec::new();
            for m in draining {
                let busy = hosting.contains(&m)
                    || executor.migrations_touching(m)
                    || self.catalog.bases().iter().any(|b| b.machine == m);
                if !busy {
                    retire.push(m);
                }
            }
            for m in retire {
                self.cluster.retire_machine(m);
                self.push_action(ActionKind::ScaleDown { machine: m });
            }
        }
        Ok(())
    }

    /// One adaptive-control decision: consume alerts fired since the last
    /// step and, for each, move the worst-burning sharings off the alerted
    /// (hot) machine — growing the fleet within budget when there is
    /// nowhere else to go — then run the elastic shrink pass. Every input
    /// is deterministic simulation state read in canonical order.
    pub(super) fn adaptive_control(&mut self) -> Result<()> {
        let cfg = self.config.adaptive;
        let fresh: Vec<Alert> = {
            let alerts = running(&self.executor)?.alerts();
            let from = self.alert_cursor.min(alerts.len());
            self.alert_cursor = alerts.len();
            alerts[from..].to_vec()
        };
        for alert in fresh {
            let Some(sid) = alert.sharing else { continue };
            let id = SharingId::new(sid);
            // The hot machine is wherever the alerted sharing's MV lives
            // *now* (a completed migration moves it).
            let Ok(hot) = running(&self.executor)?.mv_machine(id) else {
                continue; // already retired
            };
            let mut machines: Vec<MachineId> = self
                .cluster
                .active_machine_ids()
                .into_iter()
                .filter(|&m| m != hot)
                .collect();
            if machines.is_empty() {
                // Nowhere to migrate to: grow the fleet iff one more
                // reserved machine still fits the hourly dollar budget.
                let next = (self.cluster.reserved_count() + 1) as f64;
                if next * self.config.prices.cpu_per_hour <= cfg.budget_dollars_per_hour {
                    let m = self.cluster.add_machine(self.config.machine_config);
                    self.push_action(ActionKind::ScaleUp { machine: m });
                    machines.push(m);
                } else {
                    let active = self.cluster.reserved_count();
                    self.push_action(ActionKind::ScaleDenied { active });
                    continue;
                }
            }
            // Candidate *targets*, lightest live load first (ties by id).
            // The replanner itself still sees every active machine — the
            // half-join halves must stay colocated with their base
            // relations regardless of where the MV lands — so moving off
            // the hot machine means pinning the MV to a cooler target,
            // not planning over a fleet with the hot machine excluded.
            let util = running(&self.executor)?.load(&self.config.model);
            machines.sort_by(|x, y| {
                let ux = util.get(x).copied().unwrap_or(0.0);
                let uy = util.get(y).copied().unwrap_or(0.0);
                ux.partial_cmp(&uy)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.0.cmp(&y.0))
            });
            // Candidates: the alerted sharing first, then the fleet's
            // deterministic worst-headroom rows.
            let mut candidates: Vec<SharingId> = vec![id];
            for row in running(&self.executor)?.rollup().top_k_worst(WORST_ROWS) {
                let c = SharingId::new(row.sharing);
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
            let mut moved = 0usize;
            for cid in candidates {
                if moved >= cfg.max_migrations_per_alert {
                    break;
                }
                // Only live sharings still on the hot machine qualify.
                let executor = running(&self.executor)?;
                if executor.migrating(cid) || executor.mv_machine(cid).ok() != Some(hot) {
                    continue;
                }
                if let Some(&t) = self.last_migration.get(&cid) {
                    if self.now - t < cfg.cooldown {
                        continue;
                    }
                }
                for &target in &machines {
                    let all = self.cluster.active_machine_ids();
                    match self.replan_and_migrate(cid, all, Some(target)) {
                        Ok(true) => {
                            moved += 1;
                            break;
                        }
                        Ok(false) => break,
                        // No admissible placement with the MV on this
                        // target — try the next-coolest machine, and leave
                        // the sharing where it is rather than fail the run.
                        Err(SmileError::Inadmissible { .. })
                        | Err(SmileError::CapacityExhausted { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        self.elastic_shrink()
    }

    /// The shrink half of fleet elasticity: an *elastic* machine (index at
    /// or past the seed fleet size) that has hosted no MV for
    /// `idle_retire_after` is drained; [`Smile::settle_migrations`] retires
    /// it once it is fully empty.
    fn elastic_shrink(&mut self) -> Result<()> {
        let idle_after = self.config.adaptive.idle_retire_after;
        let base = self.config.machines;
        let executor = running(&self.executor)?;
        let hosting = executor.mv_machines();
        let mut to_drain: Vec<MachineId> = Vec::new();
        for m in self.cluster.active_machine_ids() {
            if (m.0 as usize) < base {
                continue; // never drain the seed fleet
            }
            if hosting.contains(&m) || executor.migrations_touching(m) {
                self.mv_idle_since.remove(&m);
                continue;
            }
            let since = *self.mv_idle_since.entry(m).or_insert(self.now);
            if self.now - since >= idle_after {
                to_drain.push(m);
            }
        }
        for m in to_drain {
            self.cluster.begin_drain(m);
            self.mv_idle_since.remove(&m);
        }
        Ok(())
    }

    /// Drains a machine out of the fleet: marks it Draining (no new MVs
    /// land there) and live-migrates every MV it hosts to the remaining
    /// active machines. Returns the sharings whose migrations started; the
    /// machine retires via [`Smile::step`] once the handoffs settle.
    /// Refused before the start, as [`Smile::retire`] is. An MV that finds no
    /// place on the rest of the fleet returns the error with the machine as
    /// the call found it (a Draining one homing an MV never retires); the
    /// migrations already started go on.
    pub fn drain_machine(&mut self, m: MachineId) -> Result<Vec<SharingId>> {
        let executor = running(&self.executor)?;
        if !executor.started() {
            return Err(SmileError::Internal("drain before the platform started".into()));
        }
        if self.catalog.bases().iter().any(|b| b.machine == m) {
            return Err(SmileError::Internal(format!(
                "machine m{} hosts base relations and cannot be drained",
                m.0
            )));
        }
        let rest: Vec<MachineId> = self
            .cluster
            .active_machine_ids()
            .into_iter()
            .filter(|&x| x != m)
            .collect();
        if rest.is_empty() {
            return Err(SmileError::Internal(
                "cannot drain the last active machine".into(),
            ));
        }
        let state = self.cluster.machine_state(m);
        self.cluster.begin_drain(m);
        let homed: Vec<SharingId> = self
            .sharings
            .iter()
            .map(|s| s.id)
            .filter(|&id| executor.mv_machine(id).ok() == Some(m))
            .collect();
        let mut moved = Vec::new();
        for id in homed {
            match self.replan_and_migrate(id, rest.clone(), None) {
                Ok(started) => moved.extend(started.then_some(id)),
                Err(e) => {
                    if state == MachineState::Active {
                        self.cluster.cancel_drain(m);
                    }
                    return Err(e);
                }
            }
        }
        Ok(moved)
    }
}
