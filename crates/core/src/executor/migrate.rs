//! Live sharing migration: dual-write handoff between an MV's current
//! placement and a re-planned one, with atomic cutover.
//!
//! The protocol, driven by `Smile::migrate_sharing` / the adaptive control
//! loop:
//!
//! 1. **Shadow install** ([`Executor::begin_migration`]): the re-planned
//!    arrangement is merged into the running global plan as a *shadow
//!    chain* — deduplicated against the live plan but registered with no
//!    sharing, so the scheduler ignores it. The whole chain is
//!    [`Executor::live`] while the migration is in flight, so the storage
//!    reconcile slots and seeds the part of it that has no storage: the
//!    sharing's state ships as ordinary seeding + WAL frames.
//! 2. **Dual write**: while the migration is in flight, every push of the
//!    migrating sharing additionally plans a *shadow request* over the new
//!    chain to the same target, in the same batch. Vertices the two
//!    placements share are planned once and depended upon through the
//!    batch's plan shadow, so the dual write costs only the delta between
//!    the placements. The old placement keeps answering throughout — no
//!    MV advance waits on the migration.
//! 3. **Cutover** ([`Executor::finish_migrations`]): once a dual write has
//!    succeeded, nothing is in flight for the sharing, and the shadow MV's
//!    committed timestamp has caught up with the old MV's, the sharing's
//!    MV coordinates are atomically repointed
//!    ([`GlobalPlan::repoint_mv`](crate::multi::GlobalPlan::repoint_mv)),
//!    the runtime's sources/push-order swap to the new chain, the cached
//!    critical-path evaluator is rebuilt (a placement change invalidates
//!    `CpEval`), the push calendar re-evaluates the slot, and the old
//!    chain's exclusive vertices stop being live — the platform's storage
//!    reconcile drops their slots when it picks the outcome up.
//! 4. **Abort**: any shadow-side failure — the target machine crashing
//!    mid-handoff, a lost frame, a failed dependency — marks the migration
//!    failed; the shadow chain's exclusive vertices stop being live and the
//!    old placement continues untouched. Under crash-only fault profiles the
//!    shadow work consumes no fault draws, so MV bytes are identical to a
//!    run that never attempted the migration (pinned by the chaos suite).
//!
//! Every decision here is made coordinator-side from deterministic
//! simulation state in canonical (sharing-id) order, so migrations are
//! byte-stable run to run.

use super::{Executor, SharingRt};
use crate::multi::GlobalPlan;
use crate::optimizer::PlannedSharing;
use crate::plan::sig::ExprSig;
use smile_types::{MachineId, Result, SharingId, SmileError, Timestamp, VertexId};

/// Runtime state of one in-flight migration, keyed by the sharing's id in
/// the executor's migration table.
#[derive(Clone, Debug)]
pub(crate) struct MigrationRt {
    /// The migrating sharing.
    pub id: SharingId,
    /// The currently serving MV vertex (old placement).
    pub old_mv: VertexId,
    /// Machine the MV is migrating away from.
    pub from: MachineId,
    /// The shadow MV vertex (new placement).
    pub new_mv: VertexId,
    /// The shadow MV's signature — the cutover repoints the sharing's meta
    /// to `(new_mv_sig, to)`.
    pub new_mv_sig: ExprSig,
    /// Machine the MV is migrating to.
    pub to: MachineId,
    /// `SRC(S_i)` of the new placement.
    pub new_srcs: Vec<VertexId>,
    /// Push-order subgraph of the new placement — the shadow chain, every
    /// vertex of which is live while the migration is in flight.
    pub new_order: Vec<VertexId>,
    /// When the migration began (span timing).
    pub started: Timestamp,
    /// At least one dual-write push has fully succeeded on the new chain.
    pub pushed_ok: bool,
    /// A shadow-side failure occurred; the migration aborts at the next
    /// [`Executor::finish_migrations`].
    pub failed: bool,
}

/// Settled migration, handed to the platform by
/// [`Executor::take_migration_outcomes`] for the storage reconcile and
/// action logging.
#[derive(Clone, Debug)]
pub struct MigrationOutcome {
    /// The sharing that migrated (or tried to).
    pub id: SharingId,
    /// Machine the MV was leaving.
    pub from: MachineId,
    /// Machine the MV was moving to.
    pub to: MachineId,
    /// When the migration began.
    pub started: Timestamp,
    /// When it cut over (or aborted).
    pub finished: Timestamp,
    /// `true` = cut over; `false` = aborted (old placement still serves).
    pub completed: bool,
}

impl Executor {
    /// Installs the shadow chain of a live migration: merges the re-planned
    /// arrangement into the running global plan (deduplicated like an
    /// admission) without registering the sharing on it. The merge goes in
    /// whole or not at all (`Executor::merge_or_undo`): it is taken back
    /// when its shadow MV is the one serving now, when `check` — the
    /// platform's refusal, made on the merged plan from the shadow MV —
    /// refuses, or when the executor's own refusals do. The storage
    /// reconcile then slots and seeds the part of the chain that has no
    /// storage. The sharing keeps being served by its old placement; every
    /// push dual-writes both chains until `Executor::finish_migrations`.
    pub fn begin_migration(
        &mut self,
        id: SharingId,
        planned: &PlannedSharing,
        now: Timestamp,
        check: impl FnOnce(&Self, VertexId) -> Result<()>,
    ) -> Result<()> {
        let old_mv = self.rt(id)?.mv;
        if self.migrations.contains_key(&id) {
            return Err(SmileError::Internal(format!(
                "sharing {id} is already migrating"
            )));
        }
        let from = self.global.plan.vertex(old_mv).machine;
        let merge = |global: &mut GlobalPlan| match global.merge_shadow(planned)? {
            // The whole new plan deduplicated onto the current placement:
            // nothing would move.
            new_mv if new_mv == old_mv => Err(SmileError::Internal(format!(
                "migration of sharing {id} would not move its MV"
            ))),
            new_mv => Ok(new_mv),
        };
        self.merge_or_undo(merge, |ex, new_mv| {
            check(ex, new_mv)?;
            let (new_srcs, new_order) = ex.admit_merged(id, new_mv)?;
            ex.hold(new_mv);
            let new_mv_sig = ex.global.plan.vertex(new_mv).sig.clone();
            let mig = MigrationRt {
                id,
                old_mv,
                from,
                new_mv,
                new_mv_sig,
                to: planned.mv_machine,
                new_srcs,
                new_order,
                started: now,
                pushed_ok: false,
                failed: false,
            };
            ex.migrations.insert(id, mig);
            Ok(())
        })
    }

    /// The shadow MV of every migration in flight — one whose sharing
    /// retired included, until the next settle abandons it.
    pub fn shadow_mvs(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.migrations.values().map(|mig| mig.new_mv)
    }

    /// True while `id` has a migration in flight.
    pub fn migrating(&self, id: SharingId) -> bool {
        self.sharings.contains_key(&id) && self.migrations.contains_key(&id)
    }

    /// True if any in-flight migration moves an MV from or to `m` — such a
    /// machine must not be retired out from under the handoff.
    pub fn migrations_touching(&self, m: MachineId) -> bool {
        self.migrations.values().any(|mg| mg.from == m || mg.to == m)
    }

    /// Machines currently hosting at least one live MV, in canonical order
    /// (the elastic-shrink loop's "is this machine empty" signal).
    pub fn mv_machines(&self) -> std::collections::BTreeSet<MachineId> {
        self.sharings
            .values()
            .map(|rt| self.global.plan.vertex(rt.mv).machine)
            .collect()
    }

    /// Drains settled migrations (completed or aborted) accumulated by
    /// `Executor::finish_migrations`, in settle order.
    pub fn take_migration_outcomes(&mut self) -> Vec<MigrationOutcome> {
        std::mem::take(&mut self.migration_outcomes)
    }

    /// Settles in-flight migrations, in sharing-id order. A failed one
    /// aborts: its shadow chain stops being live and the old placement
    /// continues untouched. A ready one cuts over: ready
    /// means a dual write succeeded, no push is in flight, and the shadow
    /// MV's committed timestamp has caught up with the old MV's — so the
    /// swap can never publish an MV staler than the one it replaces.
    pub(crate) fn finish_migrations(&mut self, now: Timestamp) -> Result<()> {
        if self.migrations.is_empty() {
            return Ok(());
        }
        let ids: Vec<SharingId> = self.migrations.keys().copied().collect();
        for id in ids {
            let (failed, ready) = {
                let mig = &self.migrations[&id];
                let ready = mig.pushed_ok
                    && !self.cal.in_flight(id)
                    && self.visible_ts[mig.new_mv.index()] >= self.visible_ts[mig.old_mv.index()];
                (mig.failed, ready)
            };
            if !failed && !ready {
                continue;
            }
            let Some(mig) = self.migrations.remove(&id) else {
                continue;
            };
            if !failed {
                // Atomic cutover: repoint the sharing's MV coordinates (the
                // old chain's exclusive vertices serve nothing from here
                // on, and stop being live below) and rebuild the sharing's
                // record over the new subgraph — the placement change
                // invalidates the cached critical-path evaluator with it.
                // What its pushes have done so far stays.
                self.global
                    .repoint_mv(mig.id, mig.new_mv_sig.clone(), mig.to)?;
                let rt = self.sharings.get_mut(&id).ok_or(SmileError::UnknownSharing(id))?;
                let subgraph = (mig.new_srcs.clone(), mig.new_order.clone());
                let contract = (rt.sla, rt.penalty);
                let new = SharingRt::build(&self.global.plan, id, contract, mig.new_mv, subgraph, &self.model);
                *rt = SharingRt { summary: rt.summary, tuples: rt.tuples, ..new };
                // The sharing's projected wake was derived from the old
                // placement's critical path; re-evaluate it next tick.
                self.cal.wake_now(id);
                // The shadow's hold becomes the sharing's.
                self.release(mig.old_mv);
            } else {
                // The shadow chain's exclusives stop being live.
                self.release(mig.new_mv);
            }
            self.record_migration_span(&mig, now, if failed { "aborted" } else { "completed" });
            self.migration_outcomes.push(MigrationOutcome {
                id: mig.id,
                from: mig.from,
                to: mig.to,
                started: mig.started,
                finished: now,
                completed: !failed,
            });
        }
        Ok(())
    }
}
