//! Admission-control integration tests (paper §6): the platform accepts a
//! sharing iff some plan can keep it within its SLA and the fleet has
//! capacity.

mod common;

use common::{fleet, stats, Base};
use smile::core::optimizer::{Objective, Optimizer};
use smile::core::plan::cost::{critical_path, Scope};
use smile::core::plan::timecost::TimeCostModel;
use smile::core::platform::{Smile, SmileConfig};
use smile::core::sharing::Sharing;
use smile::sim::PriceSheet;
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{ColumnType, MachineId, SharingId, SimDuration, SmileError};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{TwitterConfig, TwitterWorkload};
use std::collections::HashMap;

fn platform(machines: usize) -> (Smile, smile::workload::twitter::TwitterRels) {
    let mut smile = Smile::new(SmileConfig::with_machines(machines));
    let w = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
    let rels = w.rels();
    (smile, rels)
}

#[test]
fn sla_below_fixed_costs_is_rejected_with_cp_evidence() {
    let (mut smile, r) = platform(3);
    let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
    match smile.submit("x", q, SimDuration::from_millis(2), 0.001) {
        Err(SmileError::Inadmissible {
            critical_path_secs,
            sla_secs,
            ..
        }) => {
            assert!(critical_path_secs > sla_secs);
        }
        other => panic!("expected Inadmissible, got {other:?}"),
    }
}

#[test]
fn rejected_sharings_leave_no_residue() {
    let (mut smile, r) = platform(3);
    let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
    let _ = smile.submit("bad", q.clone(), SimDuration::from_millis(1), 0.001);
    assert!(smile.sharings().is_empty());
    // A good sharing still admits fine afterwards.
    let id = smile
        .submit("good", q, SimDuration::from_secs(30), 0.001)
        .unwrap();
    assert_eq!(smile.sharings().len(), 1);
    assert_eq!(smile.sharings()[0].id, id);
}

#[test]
fn admissibility_is_monotone_in_sla() {
    // If SLA t is admissible then any t' > t is too: find the rough
    // threshold by bisection and verify monotonicity around it.
    let (smile, r) = platform(3);
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let q = SpjQuery::scan(r.users)
        .join(r.tweets, JoinOn::on(0, 1), Predicate::True)
        .join(r.curloc, JoinOn::on(3, 0), Predicate::True);
    let admissible = |ms: u64| -> bool {
        let sharing = Sharing::new(
            SharingId::new(1),
            "probe",
            q.clone(),
            SimDuration::from_millis(ms),
            0.001,
        );
        let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices);
        opt.plan_admission(&sharing, HashMap::new(), None).is_ok()
    };
    let mut last = false;
    for ms in [1u64, 5, 20, 100, 1_000, 10_000, 60_000] {
        let now = admissible(ms);
        assert!(
            now || !last,
            "admissibility regressed at SLA {ms}ms (was admissible at smaller SLA)"
        );
        last = now;
    }
    assert!(last, "a one-minute SLA must be admissible");
}

#[test]
fn dpt_tracks_dpd_critical_path_across_all_25() {
    let (smile, r) = platform(6);
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    for p in paper_sharings(&r) {
        let sharing = Sharing::new(
            SharingId::new(p.index as u32),
            p.app,
            p.query,
            SimDuration::from_secs(45),
            0.001,
        );
        let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices);
        let plan = |objective| opt.plan_with(&sharing, objective, &HashMap::new(), None);
        let (dpd, dpt) = (plan(Objective::Dollars).unwrap(), plan(Objective::Time).unwrap());
        // The DP is a polynomial-time heuristic, so DPT is not provably
        // CP-optimal — but it must stay in the same ballpark as DPD's CP,
        // and usually beat it.
        assert!(
            dpt.critical_path <= dpd.critical_path.mul_f64(2.0),
            "S{}: DPT ({}) way slower than DPD ({})",
            p.index,
            dpt.critical_path,
            dpd.critical_path
        );
        assert!(
            dpd.dollar_cost <= dpt.dollar_cost + 1e-12,
            "S{}: DPD dearer than DPT",
            p.index
        );
        // Both plans are structurally valid and their CP is what the cost
        // module recomputes.
        dpd.plan.validate().unwrap();
        dpt.plan.validate().unwrap();
        assert_eq!(
            dpt.critical_path,
            critical_path(&dpt.plan, Scope::All, 1.0, &model)
        );
    }
}

#[test]
fn admission_reflects_previously_committed_capacity() {
    // A tiny fleet with expensive operators fills up: submitting the same
    // heavy sharing repeatedly must eventually be rejected for capacity.
    let mut config = SmileConfig::with_machines(1);
    config.capacity = 0.25; // tiny machine
    let mut smile = Smile::new(config);
    let w = TwitterWorkload::register(
        &mut smile,
        TwitterConfig {
            assumed_tweet_rate: 400.0,
            ..TwitterConfig::default()
        },
    )
    .unwrap();
    let r = w.rels();
    let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
    let mut accepted = 0;
    let mut rejected = false;
    for i in 0..24 {
        match smile.submit(
            &format!("s{i}"),
            q.clone(),
            SimDuration::from_secs(45),
            0.001,
        ) {
            Ok(_) => accepted += 1,
            Err(SmileError::CapacityExhausted { .. }) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(accepted >= 1, "the first sharing must fit");
    assert!(
        rejected,
        "capacity never filled after {accepted} admissions"
    );
}

#[test]
fn forced_objective_still_respects_admissibility() {
    let mut config = SmileConfig::with_machines(3);
    config.force_objective = Some(Objective::Dollars);
    let users = Base {
        name: "users".into(),
        cols: vec![("uid", ColumnType::I64), ("name", ColumnType::Str)],
        key: vec![0],
        home: 0,
        stats: stats(5.0, 100.0, 40.0, &[100.0, 90.0]),
    };
    let (mut smile, rels) = fleet(config, &[users]);
    let err = smile.submit("nope", SpjQuery::scan(rels[0]), SimDuration::from_millis(1), 0.001);
    assert!(matches!(err, Err(SmileError::Inadmissible { .. })));
}

#[test]
fn pinned_mv_lands_on_the_pinned_machine() {
    let (mut smile, r) = platform(4);
    let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
    let pin = MachineId::new(3);
    let id = smile
        .submit_pinned("pinned", q, SimDuration::from_secs(45), 0.001, Some(pin))
        .unwrap();
    let planned = smile.planned(id).unwrap();
    assert_eq!(planned.mv_machine, pin);
}
