//! On-the-fly sharing addition and removal (the paper's §10 future work,
//! implemented as an extension): sharings join and leave a *running*
//! platform without disturbing the others.

mod common;

use common::scenario::{Chain, JoinEq, Off, Scenario, Spec};
use common::{assert_exact, distinct, fleet_arrangements, live_probes, tweet};
use smile::core::platform::{Smile, SmileConfig};
use smile::types::{MachineId, SimDuration, SmileError};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{standard_setup, TwitterConfig, TwitterWorkload};

/// Arrangements dropped so far because no live join probed them any more,
/// as exported.
fn reclaimed(smile: &Smile) -> f64 {
    let snap = smile.telemetry_snapshot();
    snap.gauge("arrangement_registry.reclaimed").unwrap()
}

#[test]
fn sharing_added_mid_run_is_maintained_exactly() {
    let mut smile = Smile::new(SmileConfig::with_machines(4));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 2_000).unwrap();
    let all = paper_sharings(&w.rels());

    // Start with S5 (users ⋈ tweets) only.
    let s5 = all[4].clone();
    let first = smile
        .submit(s5.app, s5.query, SimDuration::from_secs(20), 0.001)
        .unwrap();
    smile.install().unwrap();
    tweet(&mut smile, &mut w, 30.0, 60);

    // Mid-run, S6 (tweets ⋈ curloc) joins the platform.
    let s6 = all[5].clone();
    let second = smile
        .submit_live(
            s6.app,
            s6.query,
            SimDuration::from_secs(20),
            0.001,
            Some(MachineId::new(2)),
        )
        .unwrap();
    // `submit` on a running platform is the same live admission: S17
    // (users ⋈ loc) joins, runs, and is exact too.
    let s17 = all[16].clone();
    let third = smile
        .submit(s17.app, s17.query, SimDuration::from_secs(20), 0.001)
        .unwrap();
    tweet(&mut smile, &mut w, 30.0, 90);
    smile.run_idle(SimDuration::from_secs(30)).unwrap();

    for id in [first, second, third] {
        assert!(assert_exact(&smile, &[id]) > 0, "{id} is empty");
    }
    // The live-added sharing is audited and pushed.
    assert!(smile
        .executor
        .as_ref()
        .unwrap()
        .push_records
        .iter()
        .any(|r| r.sharing == second));
}

#[test]
fn live_added_sharing_reuses_existing_supply() {
    let mut smile = Smile::new(SmileConfig::with_machines(4));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 2_000).unwrap();
    let all = paper_sharings(&w.rels());

    // S5 (users ⋈ tweets) runs; then an identical query joins live, pinned
    // to the same machine as S5's MV.
    let s5 = all[4].clone();
    let first = smile
        .submit(s5.app, s5.query.clone(), SimDuration::from_secs(20), 0.001)
        .unwrap();
    smile.install().unwrap();
    let mv_machine = smile.planned(first).unwrap().mv_machine;
    tweet(&mut smile, &mut w, 20.0, 40);

    let before = smile.executor.as_ref().unwrap().global.plan.vertex_count();
    let second = smile
        .submit_live(
            "twin",
            s5.query,
            SimDuration::from_secs(40),
            0.001,
            Some(mv_machine),
        )
        .unwrap();
    let after = smile.executor.as_ref().unwrap().global.plan.vertex_count();
    // Identical sharing, identical placement: full dedup, no new vertices.
    assert_eq!(before, after, "identical live sharing duplicated the plan");

    tweet(&mut smile, &mut w, 20.0, 60);
    assert_eq!(
        smile.mv_contents(first).unwrap().sorted_entries(),
        smile.mv_contents(second).unwrap().sorted_entries()
    );
}

#[test]
fn retired_sharing_frees_storage_and_spares_others() {
    let mut smile = Smile::new(SmileConfig::with_machines(4));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 2_000).unwrap();
    let all = paper_sharings(&w.rels());

    // Two unrelated sharings: S17 (users ⋈ loc) and S23 (photos ⋈ curloc).
    let s17 = all[16].clone();
    let s23 = all[22].clone();
    let keep = smile
        .submit(s17.app, s17.query, SimDuration::from_secs(20), 0.001)
        .unwrap();
    let gone = smile
        .submit(s23.app, s23.query, SimDuration::from_secs(20), 0.001)
        .unwrap();
    smile.install().unwrap();
    tweet(&mut smile, &mut w, 25.0, 60);

    let bytes_before: usize = (0..4)
        .map(|m| {
            smile
                .cluster
                .machine(MachineId::new(m))
                .unwrap()
                .db
                .total_bytes()
        })
        .sum();
    // The installed arrangements are exactly what the live join edges probe
    // while both sharings are live.
    let probes_before = live_probes(&smile);
    assert!(!probes_before.is_empty());
    assert_eq!(
        fleet_arrangements(&smile),
        distinct(&probes_before),
        "physical arrangements differ from what live joins probe before retire"
    );
    smile.retire(gone).unwrap();
    let bytes_after: usize = (0..4)
        .map(|m| {
            smile
                .cluster
                .machine(MachineId::new(m))
                .unwrap()
                .db
                .total_bytes()
        })
        .sum();
    assert!(
        bytes_after < bytes_before,
        "retiring freed no storage ({bytes_before} -> {bytes_after})"
    );
    // The retired sharing's joins stopped probing, the arrangements only
    // they read were physically reclaimed, and the fleet still holds exactly
    // what the live joins probe.
    let probes = live_probes(&smile);
    assert!(
        probes.len() < probes_before.len(),
        "retire released no arrangement references"
    );
    assert!(reclaimed(&smile) >= 1.0, "no arrangement was reclaimed");
    assert_eq!(fleet_arrangements(&smile), distinct(&probes));
    assert!(smile.mv_contents(gone).is_err() || smile.planned(gone).is_err());

    // The surviving sharing keeps running exactly.
    tweet(&mut smile, &mut w, 25.0, 60);
    assert_exact(&smile, &[keep]);
    assert_eq!(smile.snapshot.violations_of(keep), 0);
}

#[test]
fn retire_then_resubmit_the_same_sharing() {
    let mut smile = Smile::new(SmileConfig::with_machines(3));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 1_000).unwrap();
    let all = paper_sharings(&w.rels());
    let s6 = all[5].clone();
    let first = smile
        .submit(s6.app, s6.query.clone(), SimDuration::from_secs(15), 0.001)
        .unwrap();
    smile.install().unwrap();
    let pin = smile.planned(first).unwrap().mv_machine;
    tweet(&mut smile, &mut w, 20.0, 45);
    smile.retire(first).unwrap();
    tweet(&mut smile, &mut w, 20.0, 20);

    // Resurrect the identical sharing: storage must re-materialize and the
    // view must be exact from the re-seed onward.
    let again = smile
        .submit_live(
            s6.app,
            s6.query,
            SimDuration::from_secs(15),
            0.001,
            Some(pin),
        )
        .unwrap();
    tweet(&mut smile, &mut w, 20.0, 60);
    assert_exact(&smile, &[again]);
}

#[test]
fn live_submit_before_install_stages_and_runs_after_it() {
    let mut smile = Smile::new(SmileConfig::with_machines(2));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 100).unwrap();
    let s = paper_sharings(&w.rels())[4].clone();
    let id = smile
        .submit_live(s.app, s.query, SimDuration::from_secs(20), 0.001, None)
        .unwrap();
    assert_eq!(smile.staged_plan().sharings.len(), 1, "not staged");
    smile.install().unwrap();
    tweet(&mut smile, &mut w, 20.0, 60);
    assert!(assert_exact(&smile, &[id]) > 0);
}

/// `users ⋈ σ(tid < lit)(tweets)`: one literal per sharing, so no two of
/// them share a half-join pair.
fn filtered_join(w: &TwitterWorkload, lit: i64) -> smile::storage::SpjQuery {
    use smile::storage::predicate::CmpOp;
    use smile::storage::{join::JoinOn, Predicate, SpjQuery};
    let rels = w.rels();
    SpjQuery::scan(rels.users).join(
        rels.tweets,
        JoinOn::on(0, 1),
        Predicate::cmp(0, CmpOp::Lt, lit),
    )
}

fn base_log_len(smile: &Smile, rel: smile::types::RelationId) -> usize {
    let home = smile.catalog.base(rel).unwrap().machine;
    let db = &smile.cluster.machine(home).unwrap().db;
    db.relation(rel).unwrap().delta.len()
}

#[test]
fn retire_returns_admission_capacity() {
    let mut config = SmileConfig::with_machines(2);
    config.capacity = 0.25;
    config.hill_climb = false;
    let mut smile = Smile::new(config);
    let twitter = TwitterConfig {
        assumed_tweet_rate: 400.0,
        ..TwitterConfig::default()
    };
    let w = TwitterWorkload::register(&mut smile, twitter).unwrap();
    let pin = Some(MachineId::new(1));
    let sla = SimDuration::from_secs(60);
    smile
        .submit_pinned("resident", filtered_join(&w, 1_000), sla, 0.001, pin)
        .unwrap();
    smile.install().unwrap();

    let mut admitted = Vec::new();
    let rejection = loop {
        let lit = 2_000 + admitted.len() as i64;
        match smile.submit_live("churn", filtered_join(&w, lit), sla, 0.001, pin) {
            Ok(id) => admitted.push(id),
            Err(e) => break e,
        }
        assert!(admitted.len() < 1_000, "capacity 0.25 never filled");
    };
    assert!(
        matches!(rejection, SmileError::CapacityExhausted { .. }),
        "{rejection}"
    );
    assert!(!admitted.is_empty(), "nothing fitted beside the resident");
    for id in admitted {
        smile.retire(id).unwrap();
    }
    smile
        .submit_live("after", filtered_join(&w, 9_000), sla, 0.001, pin)
        .expect("retiring every live admission must free the capacity they held");
}

#[test]
fn base_log_compacts_after_a_consumer_retires() {
    let mut smile = Smile::new(SmileConfig::with_machines(3));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 500).unwrap();
    let pin = Some(MachineId::new(2));
    let sla = SimDuration::from_secs(20);
    let keep = smile
        .submit_pinned("keep", filtered_join(&w, 1_000_000), sla, 0.001, pin)
        .unwrap();
    let gone = smile
        .submit_pinned("gone", filtered_join(&w, 2_000_000), sla, 0.001, pin)
        .unwrap();
    smile.install().unwrap();
    tweet(&mut smile, &mut w, 20.0, 60);
    smile.retire(gone).unwrap();
    tweet(&mut smile, &mut w, 20.0, 600);
    // 12,000 tweets since the retire; the live reader is never more than an
    // SLA plus the compaction period and margin behind.
    let tweets = w.rels().tweets;
    let with_reader = base_log_len(&smile, tweets);
    assert!(
        with_reader < 2_400,
        "the retired consumer still pins the tweets log: {with_reader} entries"
    );
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    assert_exact(&smile, &[keep]);
    // With no reader left at all the log is still cut.
    smile.retire(keep).unwrap();
    tweet(&mut smile, &mut w, 20.0, 120);
    let without_reader = base_log_len(&smile, tweets);
    assert!(
        without_reader < 1_200,
        "an unread base log is never cut: {without_reader} entries"
    );
}

/// A live admission whose new vertices would read two resident join outputs
/// — one at an instant inside a window the other was pushed through — is
/// refused with a typed error before anything merges; a later attempt,
/// when their pushes line up, goes in.
#[test]
fn a_live_admission_that_cannot_be_seeded_is_refused_before_it_merges() {
    let scenario = Scenario {
        machines: 5,
        bases: vec![(30.0, 60.0, 12.0), (4.0, 60.0, 60.0), (1.0, 60.0, 12.0), (1.0, 1e3, 1e3)],
        hill_climb: false,
        faults: Off,
        adaptive: false,
        sharings: vec![
            Spec { query: JoinEq(2, 0, 5), sla: 13, pin: Some(3) },
            Spec { query: Chain(2, 0, 1, 4), sla: 11, pin: Some(3) },
        ],
        initial: vec![0, 1],
        script: vec![],
    };
    let (mut smile, rels) = scenario.platform(scenario.config());
    for i in 0..2 {
        scenario.admit(&mut smile, &rels, i).unwrap();
    }
    smile.install().unwrap();
    let twin = |smile: &mut Smile| {
        let (q, sla) = (Chain(2, 0, 1, 4).build(&rels), SimDuration::from_secs(10));
        smile.submit_live("twin", q, sla, 0.001, Some(MachineId::new(0)))
    };
    smile.run_idle(SimDuration::from_secs(23)).unwrap();
    let vertices = smile.global_plan().unwrap().plan.vertex_count();
    let refused = twin(&mut smile);
    assert!(matches!(refused, Err(SmileError::SeedUnavailable { .. })), "{refused:?}");
    assert_eq!(smile.global_plan().unwrap().plan.vertex_count(), vertices, "it merged");
    assert_eq!(smile.sharings().len(), 2);
    let snap = smile.telemetry_snapshot();
    let counted = ["planner.sharings_unseedable", "planner.sharings_rejected"];
    assert_eq!(counted.map(|c| snap.counter(c)), [Some(1), Some(1)], "the refusal is counted");
    smile.run_idle(SimDuration::from_secs(6)).unwrap();
    let id = twin(&mut smile).unwrap();
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    assert_exact(&smile, &[id]);
}
