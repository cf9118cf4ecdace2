//! Fault injection end-to-end: under a seeded schedule of machine crashes,
//! delta drops, lost acknowledgements and heartbeat loss, the executor's
//! retry/backoff layer must recover — MVs converge to ground truth, retried
//! shipments never double-apply deltas, and any SLA violation the faults
//! cause is penalized in the sharing's dollars rather than passing
//! silently.

use smile::core::catalog::BaseStats;
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration,
};

fn schema(cols: &[(&str, ColumnType)], key: Vec<usize>) -> Schema {
    Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(), key)
}

/// Two machines, one cross-machine joined sharing, fault profile as given.
fn build(faults: FaultProfile, sla_secs: u64) -> (Smile, RelationId, RelationId, SharingId) {
    let (smile, a, b, ids) = build_pinned(faults, sla_secs, &[None]);
    (smile, a, b, ids[0])
}

/// [`build`] with one sharing of the same join per entry of `mv_machines`,
/// its MV pinned there (or left to the optimizer).
fn build_pinned(
    faults: FaultProfile,
    sla_secs: u64,
    mv_machines: &[Option<MachineId>],
) -> (Smile, RelationId, RelationId, Vec<SharingId>) {
    let mut config = SmileConfig::with_machines(2);
    config.faults = faults;
    let mut smile = Smile::new(config);
    let a = smile
        .register_base(
            "a",
            schema(&[("k", ColumnType::I64)], vec![0]),
            MachineId::new(0),
            BaseStats {
                update_rate: 5.0,
                cardinality: 100.0,
                tuple_bytes: 16.0,
                distinct: vec![100.0],
            },
        )
        .unwrap();
    let b = smile
        .register_base(
            "b",
            schema(&[("k", ColumnType::I64), ("v", ColumnType::I64)], vec![0]),
            MachineId::new(1),
            BaseStats {
                update_rate: 5.0,
                cardinality: 100.0,
                tuple_bytes: 16.0,
                distinct: vec![100.0, 50.0],
            },
        )
        .unwrap();
    let sla = SimDuration::from_secs(sla_secs);
    let ids = mv_machines.iter().map(|&m| {
        let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::True);
        smile.submit_pinned("t", q, sla, 0.01, m).unwrap()
    });
    let ids = ids.collect();
    smile.install().unwrap();
    (smile, a, b, ids)
}

/// One insert into each base per tick, then a tick.
fn feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64) {
    for s in 0..ticks {
        let now = smile.now();
        smile
            .ingest(
                a,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![(s % 20) as i64], now)],
                },
            )
            .unwrap();
        smile
            .ingest(
                b,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![(s % 20) as i64, s as i64], now)],
                },
            )
            .unwrap();
        smile.step().unwrap();
    }
}

#[test]
fn mv_converges_to_ground_truth_under_seeded_chaos() {
    let (mut smile, a, b, id) = build(FaultProfile::chaos(1234), 20);
    feed(&mut smile, a, b, 300);
    // Quiet tail: no more ingest, faults keep firing, recovery completes.
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let report = smile.fault_report();
    assert!(report.crashes >= 1, "no crashes injected: {report:?}");
    assert!(
        report.pushes_retried >= 1,
        "no push ever retried: {report:?}"
    );
    assert!(
        report.deltas_dropped + report.acks_lost >= 1,
        "no delta-level fault fired: {report:?}"
    );

    // Recovery: the MV kept advancing across the whole faulty run...
    let executor = smile.executor.as_ref().unwrap();
    let mv_ts = executor.mv_ts(id).unwrap();
    assert!(
        mv_ts.as_secs_f64() > 290.0,
        "MV stuck at {mv_ts} after 360 s of run"
    );
    // ...and is exactly the query over base snapshots at its own timestamp:
    // retries and re-shipments never double-applied a delta.
    let got = smile.mv_contents(id).unwrap();
    let want = smile.expected_mv_contents(id).unwrap();
    assert!(!want.is_empty());
    assert_eq!(got.sorted_entries(), want.sorted_entries());
}

#[test]
fn lost_acknowledgements_are_absorbed_by_batch_dedup() {
    // Every cross-machine shipment loses its ack: each push needs the full
    // retry ladder and every successful retry re-ships a landed batch.
    let mut profile = FaultProfile::disabled();
    profile.seed = 7;
    profile.ack_loss = 0.5;
    let (mut smile, a, b, id) = build(profile, 20);
    feed(&mut smile, a, b, 300);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let report = smile.fault_report();
    assert!(report.acks_lost >= 1, "ack loss never fired: {report:?}");
    assert!(report.pushes_retried >= 1, "no retries: {report:?}");
    assert!(
        report.batches_deduped >= 1,
        "dedup never suppressed a re-shipped batch: {report:?}"
    );
    let got = smile.mv_contents(id).unwrap();
    let want = smile.expected_mv_contents(id).unwrap();
    assert!(!want.is_empty());
    assert_eq!(
        got.sorted_entries(),
        want.sorted_entries(),
        "double-applied deltas under ack loss"
    );
}

#[test]
fn fault_caused_sla_violations_are_penalized_not_silent() {
    // Long, frequent outages against a tight SLA: violations are
    // unavoidable, and each one must be charged to the sharing.
    let mut profile = FaultProfile::chaos(99);
    profile.crash_period = SimDuration::from_secs(30);
    profile.crash_downtime = SimDuration::from_secs(15);
    let (mut smile, a, b, id) = build(profile, 10);
    feed(&mut smile, a, b, 300);

    let report = smile.fault_report();
    assert!(
        report.sla_violations >= 1,
        "outages never violated the 10s SLA: {report:?}"
    );
    assert!(
        report.sla_violations_attributable >= 1,
        "violations not attributed to faults: {report:?}"
    );
    assert!(
        report.pushes_deferred >= 1,
        "scheduler never re-planned around a down machine: {report:?}"
    );
    // No silent violation: the auditor charged real dollars for them.
    let penalties = smile.cluster.ledger.penalty(id);
    assert!(
        penalties > 0.0,
        "SLA violated {} times but no penalty charged",
        report.sla_violations
    );
    assert!(
        smile.sharing_dollars(id) >= penalties,
        "sharing dollars exclude the SLA penalties"
    );
}

#[test]
fn disabled_faults_report_all_zero() {
    let (mut smile, a, b, _id) = build(FaultProfile::disabled(), 20);
    feed(&mut smile, a, b, 120);
    let report = smile.fault_report();
    assert_eq!(
        report,
        smile::FaultReport {
            sla_violations: report.sla_violations,
            ..Default::default()
        },
        "faults fired with a disabled profile"
    );
    assert_eq!(report.sla_violations_attributable, 0);
    assert!(smile.cluster.faults.events.is_empty());
}

/// Feeds until a tick ends with every one of `ids` waiting out a retry
/// backoff: `ids.len()` pushes failed in that tick and all slots are in
/// flight.
fn feed_until_retries_pending(smile: &mut Smile, a: RelationId, b: RelationId, ids: &[SharingId]) {
    for _ in 0..200 {
        let before = smile.fault_report().pushes_retried;
        feed(smile, a, b, 1);
        let failed = smile.fault_report().pushes_retried - before;
        let executor = smile.executor.as_ref().unwrap();
        if failed == ids.len() as u64 && ids.iter().all(|&id| executor.in_flight(id)) {
            return;
        }
    }
    panic!("no tick left every sharing with a retry pending");
}

/// A retry dies with its sharing: retiring a sharing whose push awaits a
/// retry must not leave the retry to fire over the storage the retire
/// dropped (`step` used to fail with "vertex … has no storage slot", on
/// every remaining attempt).
#[test]
fn retiring_a_sharing_with_a_retry_pending_keeps_stepping() {
    let mut profile = FaultProfile::disabled();
    profile.seed = 7;
    profile.ack_loss = 1.0;
    let (mut smile, a, b, id) = build(profile, 20);
    feed_until_retries_pending(&mut smile, a, b, &[id]);
    smile.retire(id).unwrap();
    for _ in 0..30 {
        smile.step().unwrap();
    }
    let report = smile.fault_report();
    assert_eq!(
        (report.pushes_retried, report.pushes_abandoned),
        (1, 0),
        "the retired sharing's retry still ran: {report:?}"
    );
}

/// The same with a live twin on the other machine sharing the retired
/// sharing's half-joins: the twin keeps pushing over the shared vertices
/// and its MV equals recomputation after the drain.
#[test]
fn retiring_a_twin_with_a_retry_pending_leaves_the_other_exact() {
    let mut profile = FaultProfile::disabled();
    profile.seed = 7;
    profile.ack_loss = 0.5;
    let pins = [0, 1].map(|m| Some(MachineId::new(m)));
    let (mut smile, a, b, ids) = build_pinned(profile, 20, &pins);
    feed_until_retries_pending(&mut smile, a, b, &ids);
    smile.retire(ids[0]).unwrap();
    feed(&mut smile, a, b, 100);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let twin = ids[1];
    let mv_ts = smile.executor.as_ref().unwrap().mv_ts(twin).unwrap();
    assert!(mv_ts.as_secs_f64() > 100.0, "twin's MV stuck at {mv_ts}");
    let got = smile.mv_contents(twin).unwrap();
    let want = smile.expected_mv_contents(twin).unwrap();
    assert!(!want.is_empty());
    assert_eq!(got.sorted_entries(), want.sorted_entries());
}
