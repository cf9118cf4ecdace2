//! Integration coverage for the adaptive runtime actuator: live MV
//! migration (happy path, chaos mid-handoff, operator drain) and
//! dollar-budgeted fleet elasticity (scale-up, budget denial, idle
//! shrink). Every scenario is fully deterministic — crash schedules are
//! pure functions of the fault seed, and all actuator decisions are made
//! coordinator-side — so each assertion pins one concrete protocol path.

mod common;

use common::{ab, ab_bases, ab_feed, ab_join, ab_sharing, assert_exact, feed, fleet, stats, Base};
use smile::core::plan::dag::VertexKind::{self, Delta, Relation};
use smile::core::platform::{ActionKind, Smile, SmileConfig};
use smile::sim::{FaultProfile, MachineState};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{tuple, MachineId, RelationId, SharingId, SimDuration, SmileError};

fn labels(smile: &Smile) -> Vec<String> {
    smile.actions().iter().map(|a| a.kind.label()).collect()
}

/// Crash-only profile: schedule-driven machine down windows, zero
/// message-level draws — so two runs that plan different batches (one
/// migrates, one does not) still observe the *same* fault history.
fn crash_only(seed: u64) -> FaultProfile {
    FaultProfile {
        seed,
        crash_period: SimDuration::from_secs(10),
        crash_downtime: SimDuration::from_secs(2),
        ..FaultProfile::disabled()
    }
}

/// Crash windows plus a heavy delta-drop rate. The scheduler defers a
/// sharing's pushes while any of its machines is inside a known crash
/// window, so crashes alone rarely fail a dual write — but a dropped
/// shadow *shipment* fails it outright and must abort the handoff,
/// while the real chain's retry layer heals the same drops.
fn handoff_chaos(seed: u64) -> FaultProfile {
    FaultProfile {
        seed,
        crash_period: SimDuration::from_secs(10),
        crash_downtime: SimDuration::from_secs(2),
        delta_drop: 0.25,
        ..FaultProfile::disabled()
    }
}

#[test]
fn live_migration_completes_and_mv_serves_from_new_machine() {
    let (mut smile, a, b, id) = ab_sharing(SmileConfig::with_machines(2), "mig", 20, None);
    ab_feed(&mut smile, a, b, 50, false);
    assert!(smile.explain(id).unwrap().contains("live on m0"));

    assert!(smile.migrate_sharing(id, Some(MachineId::new(1))).unwrap());
    // A second request while the handoff is in flight is a no-op.
    assert!(!smile.migrate_sharing(id, Some(MachineId::new(1))).unwrap());

    ab_feed(&mut smile, a, b, 150, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let acts = labels(&smile);
    assert!(acts.contains(&"migration_started m0->m1".to_string()), "{acts:?}");
    assert!(acts.contains(&"migration_completed m0->m1".to_string()), "{acts:?}");
    // The report shows the new placement and the migration history.
    let report = smile.explain(id).unwrap();
    assert!(report.contains("live on m1"), "{report}");
    assert!(report.contains("migration_completed m0->m1"), "{report}");
    // The handoff preserved semantics: the served MV equals ground truth.
    assert_exact(&smile, &[id]);
    // Migrating onto the machine the MV already lives on is a no-op.
    assert!(!smile.migrate_sharing(id, Some(MachineId::new(1))).unwrap());
}

/// Chaos during migration: live-migrate the MV back and forth while
/// crashes take machines down and delta shipments drop. A handoff whose
/// shadow shipment is lost must abort cleanly; one that completes must
/// cut over; and after the dust settles the MV bytes are identical to a
/// never-migrated twin run (both equal ground truth), because an aborted
/// shadow chain leaves no trace in the served MV and the retry layer
/// heals every dropped real shipment.
#[test]
fn crash_mid_handoff_aborts_cleanly_and_mv_matches_never_migrated() {
    let run = |migrate: bool| {
        let mut config = SmileConfig::with_machines(2);
        config.faults = handoff_chaos(20260807);
        let (mut smile, a, b, id) = ab_sharing(config, "mig", 2, None);
        for _ in 0..12 {
            if migrate {
                // Flip the MV to whichever machine it is not on; a request
                // racing an in-flight handoff is a no-op (returns false).
                let cur = smile
                    .actions()
                    .iter()
                    .rev()
                    .find_map(|act| match act.kind {
                        ActionKind::MigrationCompleted { sharing, to, .. } if sharing == id => {
                            Some(to)
                        }
                        _ => None,
                    })
                    .unwrap_or(MachineId::new(0));
                let target = MachineId::new(1 - cur.0);
                let _ = smile.migrate_sharing(id, Some(target)).unwrap();
            }
            ab_feed(&mut smile, a, b, 40, false);
        }
        smile.run_idle(SimDuration::from_secs(120)).unwrap();
        assert_exact(&smile, &[id]);
        let installed = smile.arrangement_meter().arrangements;
        (smile.mv_contents(id).unwrap().sorted_entries(), labels(&smile), installed)
    };

    let (mv_migrated, acts, arrangements_migrated) = run(true);
    let (mv_baseline, baseline_acts, arrangements_baseline) = run(false);

    // The chaos schedule actually exercised both protocol outcomes.
    assert!(
        acts.iter().any(|l| l.starts_with("migration_completed")),
        "no handoff completed: {acts:?}"
    );
    assert!(
        acts.iter().any(|l| l.starts_with("migration_aborted")),
        "no handoff aborted under crash chaos: {acts:?}"
    );
    assert!(baseline_acts.is_empty(), "baseline took actions: {baseline_acts:?}");

    // Faults delay but never lose data: both runs converge to ground
    // truth, so the migrated MV is byte-identical to never-migrated.
    assert_eq!(mv_migrated, mv_baseline, "migration left residue in the MV");
    // Nor in storage: an aborted shadow chain's joins stop probing, so the
    // arrangements only they read go with them.
    assert_eq!(
        arrangements_migrated, arrangements_baseline,
        "a settled handoff left an arrangement no live join probes"
    );
}

#[test]
fn drain_machine_moves_mvs_off_and_retires_it() {
    // Three machines, MV pinned to m2 (which hosts no base relations).
    let config = SmileConfig::with_machines(3);
    let (mut smile, a, b, id) = ab_sharing(config, "mig", 20, Some(MachineId::new(2)));
    ab_feed(&mut smile, a, b, 50, false);
    assert!(smile.explain(id).unwrap().contains("live on m2"));

    // Base-hosting machines refuse to drain.
    assert!(smile.drain_machine(MachineId::new(0)).is_err());

    let moved = smile.drain_machine(MachineId::new(2)).unwrap();
    assert_eq!(moved, vec![id]);
    ab_feed(&mut smile, a, b, 200, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let acts = labels(&smile);
    assert!(
        acts.iter().any(|l| l.starts_with("migration_completed m2->")),
        "drain never completed its migration: {acts:?}"
    );
    assert!(
        acts.iter().any(|l| l.starts_with("scale_down m2")),
        "drained machine was not retired: {acts:?}"
    );
    assert_eq!(smile.cluster.machine_state(MachineId::new(2)), MachineState::Retired);
    assert!(!smile.explain(id).unwrap().contains("live on m2"));
    assert_exact(&smile, &[id]);
}

/// Before the start nothing runs to stop or move: `retire` and
/// `drain_machine` are refused, and the admitted sharing starts as planned.
#[test]
fn retire_and_drain_are_refused_before_the_start() {
    let (mut smile, a, b) = ab(SmileConfig::with_machines(3));
    let (sla, m2) = (SimDuration::from_secs(20), MachineId::new(2));
    let id = smile.submit_pinned("s", ab_join(a, b), sla, 0.01, Some(m2)).unwrap();
    assert!(smile.retire(id).is_err() && smile.drain_machine(m2).is_err());
    assert_eq!(smile.cluster.machine_state(m2), MachineState::Active);
    ab_feed(&mut smile, a, b, 60, false);
    assert!(assert_exact(&smile, &[id]) > 0);
}

/// Builds the single-machine saturation scenario: both bases and the MV
/// on m0, a 1-second SLA, and crash-only faults whose down windows make
/// every covered push miss — so the burn-rate monitor pages and the
/// adaptive loop must decide between scaling up and denying.
fn saturated_single_machine(budget: f64) -> (Smile, RelationId, RelationId, SharingId) {
    let mut config = SmileConfig::with_machines(1);
    config.faults = crash_only(99);
    config.adaptive.enabled = true;
    config.adaptive.budget_dollars_per_hour = budget;
    config.adaptive.idle_retire_after = SimDuration::from_secs(2);
    let (mut smile, rels) = fleet(config, &ab_bases(0));
    let (a, b) = (rels[0], rels[1]);
    let id = smile.submit("hot", ab_join(a, b), SimDuration::from_secs(1), 0.01).unwrap();
    smile.install().unwrap();
    (smile, a, b, id)
}

#[test]
fn scale_up_beyond_budget_is_denied() {
    // $0.40/h covers one $0.34/h machine but not two.
    let (mut smile, a, b, _id) = saturated_single_machine(0.40);
    ab_feed(&mut smile, a, b, 400, false);
    let acts = labels(&smile);
    assert!(
        acts.contains(&"scale_denied at 1 machines".to_string()),
        "budget denial never logged: {acts:?}"
    );
    assert!(
        !acts.iter().any(|l| l.starts_with("scale_up")),
        "fleet grew past the budget: {acts:?}"
    );
    assert_eq!(smile.cluster.reserved_count(), 1);
}

#[test]
fn fleet_scales_up_within_budget_migrates_then_shrinks_when_idle() {
    // $1.00/h covers two machines: the page triggers a scale-up and the
    // MV live-migrates onto the new machine.
    let (mut smile, a, b, id) = saturated_single_machine(1.00);
    ab_feed(&mut smile, a, b, 400, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    let acts = labels(&smile);
    assert!(acts.contains(&"scale_up m1".to_string()), "{acts:?}");
    assert!(acts.contains(&"migration_started m0->m1".to_string()), "{acts:?}");
    assert!(acts.contains(&"migration_completed m0->m1".to_string()), "{acts:?}");
    assert_eq!(smile.cluster.reserved_count(), 2);
    assert!(smile.explain(id).unwrap().contains("live on m1"));

    // Hand the MV back to m0: the elastic machine goes idle, and the
    // shrink half of the loop drains and retires it within the budget
    // window — logged as a scale-down.
    assert!(smile.migrate_sharing(id, Some(MachineId::new(0))).unwrap());
    ab_feed(&mut smile, a, b, 400, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    let acts = labels(&smile);
    assert!(acts.contains(&"migration_completed m1->m0".to_string()), "{acts:?}");
    assert!(acts.contains(&"scale_down m1".to_string()), "{acts:?}");
    assert_eq!(smile.cluster.reserved_count(), 1);
    assert_eq!(smile.cluster.machine_state(MachineId::new(1)), MachineState::Retired);
    assert_exact(&smile, &[id]);
}

const SRC_KEYS: i64 = 40;

/// BENCH_0010's topology at small scale: a small `src` dimension on m0
/// (preloaded with [`SRC_KEYS`] rows) and a busier `events` stream on m1,
/// with one `events ⋈ src` sharing per `(sla_secs, projected)` pinned on m0 —
/// so `Δσ(src)` already lands on m1 for the half-join there.
fn crowd(sharings: &[(u64, bool)]) -> (Smile, RelationId, RelationId, Vec<SharingId>) {
    let mut config = SmileConfig::with_machines(2);
    config.hill_climb = false;
    // BENCH_0010's catalog priors, under which the planner joins in place.
    let base = |name, home, rate: f64, distinct: [f64; 3]| {
        let stats = stats(rate, distinct[0], 24.0, &distinct);
        Base::i64(name, &["id", "fk", "g"], &[0], home, stats)
    };
    let m0 = MachineId::new(0);
    let src = base("src", 0, 2.0, [1_000.0, 100.0, 50.0]);
    let bases = [src, base("events", 1, 30.0, [100_000.0, 1_000.0, 4.0])];
    let (mut smile, rels) = fleet(config, &bases);
    let (src, events) = (rels[0], rels[1]);
    let mut ids = Vec::new();
    for &(sla_secs, projected) in sharings {
        let mut q = SpjQuery::scan(events).join(src, JoinOn::on(1, 0), Predicate::True);
        if projected {
            q = q.project(vec![0, 1, 3]);
        }
        let sla = SimDuration::from_secs(sla_secs);
        ids.push(smile.submit_pinned("crowd", q, sla, 0.01, Some(m0)).unwrap());
    }
    smile.install().unwrap();
    let preload = (0..SRC_KEYS).map(|k| DeltaEntry::insert(tuple![k, k, k % 4], smile.now()));
    let entries = preload.collect();
    smile.ingest(src, DeltaBatch { entries }).unwrap();
    (smile, src, events, ids)
}

/// `ticks` of the crowd, `seq` counting them: each three events that join
/// `src` rows old and new — among them the row of three ticks ago — and one
/// fresh `src` row.
fn crowd_feed(smile: &mut Smile, src: RelationId, events: RelationId, seq: &mut i64, ticks: u64) {
    feed(smile, ticks, |smile, _| {
        let (now, s) = (smile.now(), *seq);
        *seq += 1;
        let crowd = (0..3).map(|i| {
            let n = s * 3 + i;
            let fk = if i == 0 { SRC_KEYS + s - 3 } else { n % SRC_KEYS };
            DeltaEntry::insert(tuple![n, fk, n % 4], now)
        });
        let fresh = vec![DeltaEntry::insert(tuple![SRC_KEYS + s, s, s % 4], now)];
        [(events, crowd.collect()), (src, DeltaBatch { entries: fresh })]
    });
}

/// The storage slot of `src`'s copy of `kind` on m1, if it holds one.
fn src_on_m1(smile: &Smile, kind: VertexKind) -> Option<RelationId> {
    let plan = &smile.global_plan().plan;
    let is_copy = |v: &&smile::core::plan::dag::Vertex| {
        !v.is_base && v.kind == kind && v.machine == MachineId::new(1) && v.schema.arity() == 3
    };
    plan.vertices().iter().find(is_copy).and_then(|v| v.slot)
}

/// `events ⋈ src` pinned on m0 is migrated to m1, where the new plan
/// replicates `σ(src)` itself. The replica adopts the storage slot its
/// delta twin has been using and must be seeded all the same — and when the
/// MV moves back, it gives the slot's rows up while the twin keeps the log.
#[test]
fn migrating_onto_the_machine_where_the_delta_twin_already_lands_is_exact() {
    let (mut smile, src, events, ids) = crowd(&[(20, false)]);
    let (id, m0, m1) = (ids[0], MachineId::new(0), MachineId::new(1));
    let mut seq = 0i64;
    let mut feed = |smile: &mut Smile, ticks| crowd_feed(smile, src, events, &mut seq, ticks);
    feed(&mut smile, 50);
    // The shape in question: `Δsrc` lands on m1 before the migration, and
    // the shadow chain replicates `src` there in the same storage slot.
    let delta_slot = src_on_m1(&smile, Delta);
    assert!(delta_slot.is_some(), "the plan does not ship Δsrc to m1");
    assert_eq!(src_on_m1(&smile, Relation), None);
    assert!(smile.migrate_sharing(id, Some(m1)).unwrap());
    assert_eq!(src_on_m1(&smile, Relation), delta_slot);

    feed(&mut smile, 150);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    let acts = labels(&smile);
    assert!(acts.contains(&"migration_completed m0->m1".to_string()), "{acts:?}");
    assert!(assert_exact(&smile, &[id]) > 0);

    // And back: the replica goes inert while `Δsrc` still lands on m1 for
    // the half-join there. Its rows are freed now, not at a later revival.
    assert!(smile.migrate_sharing(id, Some(m0)).unwrap());
    feed(&mut smile, 150);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    let acts = labels(&smile);
    assert!(acts.contains(&"migration_completed m1->m0".to_string()), "{acts:?}");
    assert_eq!(src_on_m1(&smile, Relation), None);
    assert_eq!(src_on_m1(&smile, Delta), delta_slot);
    let db = &smile.cluster.machine(m1).unwrap().db;
    assert!(db.relation(delta_slot.unwrap()).unwrap().table.is_empty());
    assert_exact(&smile, &[id]);
}

/// The same move for the lazier of two sharings over one half-join pair.
/// `Δsrc`'s log on m1 is kept for the pair, which the tighter SLA drives, so
/// it is cut past the lazy MV's commit point — the instant a shadow chain
/// must be seeded at. The replica of `src` could not catch up from that log:
/// the migration is declined until the commit point is inside the log again.
/// A declined shadow chain merges, and the merge is taken back, so the
/// global plan is byte-equal to what it was and keeps its sharings.
#[test]
fn a_migration_whose_seed_predates_an_adopted_log_waits() {
    let (mut smile, src, events, ids) = crowd(&[(5, false), (120, true)]);
    let (lazy, m1) = (ids[1], MachineId::new(1));
    let mut seq = 0i64;
    let mut feed = |smile: &mut Smile, ticks| crowd_feed(smile, src, events, &mut seq, ticks);
    feed(&mut smile, 150);
    let slot = src_on_m1(&smile, Delta).expect("the plan does not ship Δsrc to m1");
    let horizon = |smile: &Smile| {
        let db = &smile.cluster.machine(m1).unwrap().db;
        db.relation(slot).unwrap().delta.horizon()
    };
    let mv_ts = |smile: &Smile| smile.executor.as_ref().unwrap().mv_ts(lazy).unwrap();
    assert!(mv_ts(&smile) < horizon(&smile), "the lazy MV is not behind the log");
    let global = |smile: &Smile| {
        let global = smile.global_plan();
        (global.plan.canonical_string(), global.sharings.keys().copied().collect::<Vec<_>>())
    };
    let before = global(&smile);
    assert!(!smile.migrate_sharing(lazy, Some(m1)).unwrap());
    assert!(global(&smile) == before, "the declined merge left a trace in the global plan");
    assert_eq!(src_on_m1(&smile, Relation), None);
    // Its next push commits past the horizon; then the move goes ahead.
    let mut waited = 0;
    while !smile.migrate_sharing(lazy, Some(m1)).unwrap() {
        feed(&mut smile, 1);
        waited += 1;
        assert!(waited < 200, "the migration was never accepted");
    }
    assert!(mv_ts(&smile) >= horizon(&smile));
    feed(&mut smile, 150);
    smile.run_idle(SimDuration::from_secs(150)).unwrap();
    let acts = labels(&smile);
    assert!(acts.contains(&"migration_completed m0->m1".to_string()), "{acts:?}");
    assert_exact(&smile, &ids);
}

/// `b0 ⋈ b1 ⋈ b2`, a chain on `k` with no projection, over three alike bases
/// on m0–m2. Pinned on m0 the planner joins `b2 ⋈ b1` first and `b0` last;
/// re-planned onto m2, `b1 ⋈ b0` first and `b2` last. Each order stores the
/// submitted columns elsewhere in a row, and readers see the submitted order
/// on both sides of the cutover.
#[test]
fn a_migration_that_reorders_the_joins_keeps_the_readers_columns() {
    let base = |i: u32| {
        let s = stats(4.0, 1e3, 16.0, &[1e3, 8.0]);
        Base::i64(&format!("b{i}"), &["k", "v"], &[], i, s)
    };
    let (mut smile, rels) = fleet(SmileConfig::with_machines(4), &[base(0), base(1), base(2)]);
    let q = SpjQuery::scan(rels[0])
        .join(rels[1], JoinOn::on(0, 0), Predicate::True)
        .join(rels[2], JoinOn::on(2, 0), Predicate::True);
    let (m0, m2) = (MachineId::new(0), MachineId::new(2));
    let id = smile.submit_pinned("chain", q, SimDuration::from_secs(20), 0.01, Some(m0)).unwrap();
    smile.install().unwrap();
    let mut seq = 0i64;
    let mut feed_chain = |smile: &mut Smile, ticks| {
        feed(smile, ticks, |smile, _| {
            let (now, s) = (smile.now(), seq);
            seq += 1;
            let row = |i| DeltaEntry::insert(tuple![s % 30, s + i], now);
            let batch = |i| DeltaBatch { entries: vec![row(i)] };
            rels.iter().zip(0..).map(|(&rel, i)| (rel, batch(i))).collect::<Vec<_>>()
        });
    };
    let columns = |smile: &Smile| smile.planned(id).unwrap().columns.clone();
    let installed = columns(&smile);

    feed_chain(&mut smile, 60);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    assert!(assert_exact(&smile, &[id]) > 0);
    let served = smile.mv_contents(id).unwrap();

    assert!(smile.migrate_sharing(id, Some(m2)).unwrap());
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    assert!(labels(&smile).contains(&"migration_completed m0->m2".to_string()));
    let migrated = columns(&smile);
    assert!(installed.is_some() && migrated.is_some(), "{installed:?} {migrated:?}");
    assert_ne!(installed, migrated, "the re-plan joined in the same order");
    // No base changed: the reader sees the same rows, in the same columns.
    assert_eq!(smile.mv_contents(id).unwrap(), served);

    feed_chain(&mut smile, 60);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    assert!(assert_exact(&smile, &[id]) > served.len());
}

/// A drain whose replans do not all fit leaves the machine in service: the
/// error returns with it Active, the migration already started completes,
/// and once the fleet has room again the drain goes through and the machine
/// retires.
#[test]
fn a_drain_that_cannot_place_every_mv_leaves_the_machine_active() {
    let (mut smile, a, b) = ab(SmileConfig::with_machines(3));
    let (sla, m2) = (SimDuration::from_secs(20), MachineId::new(2));
    let scan = smile.submit_pinned("scan", SpjQuery::scan(a), sla, 0.01, Some(m2)).unwrap();
    let join = smile.submit_pinned("join", ab_join(a, b), sla, 0.01, Some(m2)).unwrap();
    smile.install().unwrap();
    ab_feed(&mut smile, a, b, 30, false);
    // Room on m0 and m1 for the scan's copy, not then for the join's union
    // and MV as well.
    let capacity = std::mem::replace(&mut smile.config.capacity, 0.0006);
    let err = smile.drain_machine(m2).unwrap_err();
    assert!(matches!(err, SmileError::CapacityExhausted { .. }), "{err}");
    assert_eq!(smile.cluster.machine_state(m2), MachineState::Active);
    let executor = smile.executor.as_ref().unwrap();
    assert!(executor.migrating(scan) && !executor.migrating(join));
    ab_feed(&mut smile, a, b, 60, false);
    assert!(labels(&smile).iter().any(|l| l.starts_with("migration_completed m2->")));
    assert_eq!(smile.cluster.machine_state(m2), MachineState::Active);
    assert_exact(&smile, &[scan, join]);

    smile.config.capacity = capacity;
    assert_eq!(smile.drain_machine(m2).unwrap(), vec![join]);
    ab_feed(&mut smile, a, b, 60, false);
    assert_eq!(smile.cluster.machine_state(m2), MachineState::Retired);
    assert_exact(&smile, &[scan, join]);
}
