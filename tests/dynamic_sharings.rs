//! On-the-fly sharing addition and removal (the paper's §10 future work,
//! implemented as an extension): sharings join and leave a *running*
//! platform without disturbing the others.

use smile::core::platform::{Smile, SmileConfig};
use smile::types::{MachineId, SimDuration};
use smile::workload::rates::{RateIntegrator, RateTrace};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{standard_setup, TwitterConfig, TwitterWorkload};

mod common;
use common::{distinct, fleet_arrangements, live_probes};

/// Arrangements dropped so far because no live join probed them any more,
/// as exported.
fn reclaimed(smile: &Smile) -> f64 {
    let snap = smile.telemetry_snapshot();
    snap.gauge("arrangement_registry.reclaimed").unwrap()
}

fn drive(smile: &mut Smile, w: &mut TwitterWorkload, rate: f64, secs: u64) {
    let mut integrator = RateIntegrator::new(RateTrace::Constant(rate));
    let end = smile.now() + SimDuration::from_secs(secs);
    while smile.now() < end {
        let n = integrator.tick(smile.now(), SimDuration::from_secs(1));
        for (rel, batch) in w.tweets(n, smile.now()) {
            smile.ingest(rel, batch).unwrap();
        }
        smile.step().unwrap();
    }
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
    drive(&mut smile, &mut w, 30.0, 60);

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
    drive(&mut smile, &mut w, 30.0, 90);
    smile.run_idle(SimDuration::from_secs(30)).unwrap();

    for id in [first, second, third] {
        assert_eq!(
            smile.mv_contents(id).unwrap().sorted_entries(),
            smile.expected_mv_contents(id).unwrap().sorted_entries(),
            "{id} diverged"
        );
        assert!(!smile.mv_contents(id).unwrap().is_empty());
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
    drive(&mut smile, &mut w, 20.0, 40);

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

    drive(&mut smile, &mut w, 20.0, 60);
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
    drive(&mut smile, &mut w, 25.0, 60);

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
    drive(&mut smile, &mut w, 25.0, 60);
    assert_eq!(
        smile.mv_contents(keep).unwrap().sorted_entries(),
        smile.expected_mv_contents(keep).unwrap().sorted_entries()
    );
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
    drive(&mut smile, &mut w, 20.0, 45);
    smile.retire(first).unwrap();
    drive(&mut smile, &mut w, 20.0, 20);

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
    drive(&mut smile, &mut w, 20.0, 60);
    assert_eq!(
        smile.mv_contents(again).unwrap().sorted_entries(),
        smile.expected_mv_contents(again).unwrap().sorted_entries()
    );
}

#[test]
fn registry_reclaims_after_last_reference() {
    let mut smile = Smile::new(SmileConfig::with_machines(4));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 1_000).unwrap();
    let all = paper_sharings(&w.rels());

    let s5 = all[4].clone();
    let only = smile
        .submit(s5.app, s5.query, SimDuration::from_secs(20), 0.001)
        .unwrap();
    smile.install().unwrap();
    assert!(
        !live_probes(&smile).is_empty(),
        "an indexed join sharing must probe arrangements"
    );
    drive(&mut smile, &mut w, 20.0, 30);

    // Retiring the only sharing leaves no live join and reclaims all
    // arrangement memory fleet-wide.
    smile.retire(only).unwrap();
    assert_eq!(
        live_probes(&smile),
        vec![],
        "no join may stay live after the last sharing retires"
    );
    assert!(reclaimed(&smile) >= 1.0);
    assert_eq!(
        fleet_arrangements(&smile),
        0,
        "arrangement memory must be reclaimed with no live references"
    );
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
    drive(&mut smile, &mut w, 20.0, 60);
    assert!(!smile.mv_contents(id).unwrap().is_empty());
    assert_eq!(
        smile.mv_contents(id).unwrap().sorted_entries(),
        smile.expected_mv_contents(id).unwrap().sorted_entries()
    );
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
    use smile::types::SmileError;
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
    drive(&mut smile, &mut w, 20.0, 60);
    smile.retire(gone).unwrap();
    drive(&mut smile, &mut w, 20.0, 600);
    // 12,000 tweets since the retire; the live reader is never more than an
    // SLA plus the compaction period and margin behind.
    let tweets = w.rels().tweets;
    let with_reader = base_log_len(&smile, tweets);
    assert!(
        with_reader < 2_400,
        "the retired consumer still pins the tweets log: {with_reader} entries"
    );
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    assert_eq!(
        smile.mv_contents(keep).unwrap().sorted_entries(),
        smile.expected_mv_contents(keep).unwrap().sorted_entries()
    );
    // With no reader left at all the log is still cut.
    smile.retire(keep).unwrap();
    drive(&mut smile, &mut w, 20.0, 120);
    let without_reader = base_log_len(&smile, tweets);
    assert!(
        without_reader < 1_200,
        "an unread base log is never cut: {without_reader} entries"
    );
}

#[test]
fn inert_plan_vertices_hold_no_storage() {
    let mut smile = Smile::new(SmileConfig::with_machines(3));
    let mut w = standard_setup(&mut smile, TwitterConfig::default(), 500).unwrap();
    let all = paper_sharings(&w.rels());
    let sla = SimDuration::from_secs(20);
    let s5 = all[4].clone();
    let first = smile.submit(s5.app, s5.query, sla, 0.001).unwrap();
    let s6 = all[5].clone();
    smile.submit(s6.app, s6.query, sla, 0.001).unwrap();
    smile.install().unwrap();
    drive(&mut smile, &mut w, 20.0, 30);
    smile.retire(first).unwrap();
    // A different query admitted live must not bring the retired chain back.
    let s17 = all[16].clone();
    smile
        .submit_live(s17.app, s17.query, sla, 0.001, None)
        .unwrap();
    let plan = &smile.global_plan().unwrap().plan;
    let inert: Vec<_> = plan
        .vertices()
        .iter()
        .filter(|v| !v.is_base && v.sharings.is_empty())
        .collect();
    assert!(!inert.is_empty(), "the retired chain left the plan");
    for v in inert {
        assert_eq!(v.slot, None, "inert vertex {} is back in storage", v.id);
    }
}
