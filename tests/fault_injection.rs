//! Fault injection end-to-end: under a seeded schedule of machine crashes,
//! delta drops, lost acknowledgements and heartbeat loss, the executor's
//! retry/backoff layer must recover — MVs converge to ground truth, retried
//! shipments never double-apply deltas, and any SLA violation the faults
//! cause is penalized in the sharing's dollars rather than passing
//! silently.

mod common;

use common::{ab_feed, ab_sharing, ab_sharings, assert_exact};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::types::{MachineId, RelationId, SharingId, SimDuration};

/// Two machines under `faults`.
fn faulty(faults: FaultProfile) -> SmileConfig {
    SmileConfig { faults, ..SmileConfig::with_machines(2) }
}

/// Seed 7, each acknowledgement lost with probability `ack_loss`.
fn ack_loss(ack_loss: f64) -> FaultProfile {
    FaultProfile { seed: 7, ack_loss, ..FaultProfile::disabled() }
}

#[test]
fn mv_converges_to_ground_truth_under_seeded_chaos() {
    let (mut smile, a, b, id) = ab_sharing(faulty(FaultProfile::chaos(1234)), "t", 20, None);
    ab_feed(&mut smile, a, b, 300, false);
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
    assert!(assert_exact(&smile, &[id]) > 0);
}

#[test]
fn lost_acknowledgements_are_absorbed_by_batch_dedup() {
    // Every cross-machine shipment loses its ack: each push needs the full
    // retry ladder and every successful retry re-ships a landed batch.
    let (mut smile, a, b, ids) = ab_sharings(faulty(ack_loss(0.5)), "t", 20, &[None]);
    ab_feed(&mut smile, a, b, 300, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let report = smile.fault_report();
    assert!(report.acks_lost >= 1, "ack loss never fired: {report:?}");
    assert!(report.pushes_retried >= 1, "no retries: {report:?}");
    assert!(
        report.batches_deduped >= 1,
        "dedup never suppressed a re-shipped batch: {report:?}"
    );
    assert!(assert_exact(&smile, &ids) > 0, "double-applied deltas under ack loss");
}

#[test]
fn fault_caused_sla_violations_are_penalized_not_silent() {
    // Long, frequent outages against a tight SLA: violations are
    // unavoidable, and each one must be charged to the sharing.
    let mut profile = FaultProfile::chaos(99);
    profile.crash_period = SimDuration::from_secs(30);
    profile.crash_downtime = SimDuration::from_secs(15);
    let (mut smile, a, b, id) = ab_sharing(faulty(profile), "t", 10, None);
    ab_feed(&mut smile, a, b, 300, false);

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
    let (mut smile, a, b, _) = ab_sharing(faulty(FaultProfile::disabled()), "t", 20, None);
    ab_feed(&mut smile, a, b, 120, false);
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
        ab_feed(smile, a, b, 1, false);
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
    let (mut smile, a, b, ids) = ab_sharings(faulty(ack_loss(1.0)), "t", 20, &[None]);
    feed_until_retries_pending(&mut smile, a, b, &ids);
    smile.retire(ids[0]).unwrap();
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
    let pins = [0, 1].map(|m| Some(MachineId::new(m)));
    let (mut smile, a, b, ids) = ab_sharings(faulty(ack_loss(0.5)), "t", 20, &pins);
    feed_until_retries_pending(&mut smile, a, b, &ids);
    smile.retire(ids[0]).unwrap();
    ab_feed(&mut smile, a, b, 100, false);
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    let twin = ids[1];
    let mv_ts = smile.executor.as_ref().unwrap().mv_ts(twin).unwrap();
    assert!(mv_ts.as_secs_f64() > 100.0, "twin's MV stuck at {mv_ts}");
    assert!(assert_exact(&smile, &[twin]) > 0);
}
