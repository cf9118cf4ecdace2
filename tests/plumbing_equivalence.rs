//! Plumbing preserves semantics: running the same workload through the
//! merged-only global plan and through the hill-climbed plan must produce
//! identical MV contents for every sharing — plumbing may only change *how*
//! updates travel, never *what* arrives.

mod common;

use common::{exact, feed, fleet, stats, tweet, Base};
use smile::core::platform::{Smile, SmileConfig};
use smile::types::{MachineId, SimDuration};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{standard_setup, TwitterConfig};

/// Overlapping sharings that give plumbing real work.
const PICK: [usize; 8] = [2, 3, 4, 5, 9, 12, 18, 19];

fn run(hill_climb: bool) -> Vec<(usize, Vec<(smile::types::Tuple, i64)>)> {
    let mut config = SmileConfig::with_machines(6);
    config.hill_climb = hill_climb;
    let mut smile = Smile::new(config);
    let mut workload = standard_setup(&mut smile, TwitterConfig::default(), 2_000).unwrap();
    let mut ids = Vec::new();
    for (pin, s) in paper_sharings(&workload.rels())
        .into_iter()
        .filter(|s| PICK.contains(&s.index))
        .enumerate()
    {
        let m = MachineId::new(pin as u32 % 6);
        let id = smile
            .submit_pinned(s.app, s.query, SimDuration::from_secs(30), 0.001, Some(m))
            .unwrap();
        ids.push((s.index, id));
    }
    smile.install().unwrap();

    tweet(&mut smile, &mut workload, 40.0, 120);
    // Settle: one final full push per sharing by idling past the SLA window.
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    ids.into_iter()
        .map(|(index, id)| {
            // Also assert each run individually matches its own ground truth.
            exact(&smile, id).unwrap_or_else(|e| panic!("S{index}, hill_climb={hill_climb}: {e}"));
            (index, smile.mv_contents(id).unwrap().sorted_entries())
        })
        .collect()
}

#[test]
fn hill_climbed_plan_produces_identical_views() {
    let plain = run(false);
    let climbed = run(true);
    assert_eq!(plain.len(), climbed.len());
    for ((ia, va), (ib, vb)) in plain.iter().zip(&climbed) {
        assert_eq!(ia, ib);
        assert_eq!(va, vb, "S{ia}: plumbing changed MV contents");
    }
}

#[test]
fn hill_climbing_shrinks_or_keeps_the_plan() {
    let build = |hc: bool| {
        let mut config = SmileConfig::with_machines(6);
        config.hill_climb = hc;
        let mut smile = Smile::new(config);
        let workload = standard_setup(&mut smile, TwitterConfig::default(), 1_000).unwrap();
        for (pin, s) in paper_sharings(&workload.rels())
            .into_iter()
            .filter(|s| PICK.contains(&s.index))
            .enumerate()
        {
            let m = MachineId::new(pin as u32 % 6);
            smile
                .submit_pinned(s.app, s.query, SimDuration::from_secs(30), 0.001, Some(m))
                .unwrap();
        }
        smile.install().unwrap();
        let plan = &smile.executor.as_ref().unwrap().global.plan;
        (plan.vertex_count(), plan.edge_count())
    };
    let (v_plain, e_plain) = build(false);
    let (v_hc, e_hc) = build(true);
    assert!(
        v_hc <= v_plain,
        "plumbing grew vertices: {v_plain} -> {v_hc}"
    );
    assert!(e_hc <= e_plain, "plumbing grew edges: {e_plain} -> {e_hc}");
}

// ---------------------------------------------------------------------------
// Shared-arrangement plumbing: two sharings that join different delta
// streams against the SAME snapshot relation on the SAME key must share one
// persistent arrangement once merged, and the merged platform's MVs must be
// byte-identical to what per-sharing platforms produce — with and without
// fault injection.
// ---------------------------------------------------------------------------

use smile::sim::FaultProfile;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{tuple, RelationId, SharingId};

/// Two machines; delta streams `a1`/`a2` on machine 0, shared snapshot
/// relation `b` on machine 1. `which` picks the sharings to submit
/// (0 = a1⋈b, 1 = a2⋈b) so the same builder yields the merged platform
/// and the per-sharing baselines.
fn shared_platform(
    faults: FaultProfile,
    which: &[usize],
) -> (Smile, Vec<SharingId>, [RelationId; 3]) {
    let stats = stats(5.0, 100.0, 16.0, &[100.0, 50.0]);
    let base = |name, cols, home| Base::i64(name, cols, &[0], home, stats.clone());
    let bases = [base("a1", &["k", "x"], 0), base("a2", &["k", "y"], 0), base("b", &["k", "v"], 1)];
    let (mut smile, rels) = fleet(SmileConfig { faults, ..SmileConfig::with_machines(2) }, &bases);
    let [a1, a2, b] = [rels[0], rels[1], rels[2]];
    let mut ids = Vec::new();
    for &i in which {
        let q = SpjQuery::scan([a1, a2][i]).join(b, JoinOn::on(0, 0), Predicate::True);
        let id = smile
            .submit(["app1", "app2"][i], q, SimDuration::from_secs(30), 0.01)
            .unwrap();
        ids.push(id);
    }
    smile.install().unwrap();
    (smile, ids, [a1, a2, b])
}

/// Identical deterministic feed for every platform under comparison.
fn feed_shared(smile: &mut Smile, [a1, a2, b]: [RelationId; 3], ticks: u64) {
    feed(smile, ticks, |smile, s| {
        let (now, k) = (smile.now(), (s % 16) as i64);
        let rows = [
            (a1, tuple![k, s as i64]),
            (a2, tuple![(s * 3 % 16) as i64, s as i64]),
            (b, tuple![k, (s * 7) as i64]),
        ];
        rows.map(|(rel, t)| (rel, DeltaBatch { entries: vec![DeltaEntry::insert(t, now)] }))
    });
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
}

/// Total arrangements materialized for `rel` across every machine copy.
fn arrangements_on(smile: &Smile, rel: RelationId) -> usize {
    smile
        .cluster
        .machine_ids()
        .into_iter()
        .map(|m| {
            let db = &smile.cluster.machine(m).unwrap().db;
            db.relation(rel)
                .map(|slot| slot.table.arrangements().count())
                .unwrap_or(0)
        })
        .sum()
}

fn compare_merged_vs_unmerged(faults: impl Fn() -> FaultProfile) {
    let (mut merged, mids, rels) = shared_platform(faults(), &[0, 1]);
    let (mut solo1, sids1, rels1) = shared_platform(faults(), &[0]);
    let (mut solo2, sids2, rels2) = shared_platform(faults(), &[1]);
    feed_shared(&mut merged, rels, 200);
    feed_shared(&mut solo1, rels1, 200);
    feed_shared(&mut solo2, rels2, 200);

    for (smile, id, tag) in [
        (&merged, mids[0], "merged S0"),
        (&merged, mids[1], "merged S1"),
        (&solo1, sids1[0], "solo S0"),
        (&solo2, sids2[0], "solo S1"),
    ] {
        assert!(exact(smile, id).unwrap_or_else(|e| panic!("{tag}: {e}")) > 0, "{tag}: empty");
    }

    // Byte-identical MVs: merged plumbing changed how updates travel, not
    // what arrived.
    assert_eq!(
        merged.mv_contents(mids[0]).unwrap().sorted_entries(),
        solo1.mv_contents(sids1[0]).unwrap().sorted_entries(),
        "sharing a1⋈b differs between merged and per-sharing platforms"
    );
    assert_eq!(
        merged.mv_contents(mids[1]).unwrap().sorted_entries(),
        solo2.mv_contents(sids2[0]).unwrap().sorted_entries(),
        "sharing a2⋈b differs between merged and per-sharing platforms"
    );

    // One arrangement serves both sharings: merging did not add a second
    // index to the shared relation, and the merged platform holds fewer
    // arrangements than the two isolated platforms combined.
    let b = rels[2];
    assert_eq!(
        arrangements_on(&merged, b),
        arrangements_on(&solo1, b),
        "merging duplicated the shared relation's arrangement"
    );
    let am = merged.arrangement_meter();
    let a1m = solo1.arrangement_meter();
    let a2m = solo2.arrangement_meter();
    assert!(
        am.arrangements < a1m.arrangements + a2m.arrangements,
        "merged platform does not share arrangements: {} vs {} + {}",
        am.arrangements,
        a1m.arrangements,
        a2m.arrangements
    );
    assert!(am.counters.probes > 0, "no arrangement probe ever served");
    assert!(am.counters.hits > 0, "every arrangement probe missed");
}

#[test]
fn merged_sharings_share_one_arrangement_and_match_unmerged_views() {
    compare_merged_vs_unmerged(FaultProfile::disabled);
}

#[test]
fn merged_sharings_match_unmerged_views_under_seeded_faults() {
    compare_merged_vs_unmerged(|| FaultProfile::chaos(4242));
}
