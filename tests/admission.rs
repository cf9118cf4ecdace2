//! Admission-control integration tests (paper §6): the platform accepts a
//! sharing iff some plan can keep it within its SLA and the fleet has
//! capacity.

mod common;

use common::{fleet, stats, Base};
use smile::core::optimizer::{Objective, Optimizer};
use smile::core::plan::cost::{critical_path, machine_utilization, Scope};
use smile::core::plan::timecost::TimeCostModel;
use smile::core::platform::{Smile, SmileConfig};
use smile::core::sharing::Sharing;
use smile::sim::PriceSheet;
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{ColumnType, FastMap, MachineId, SharingId, SimDuration, SmileError};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{TwitterConfig, TwitterWorkload};

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
        opt.plan_admission(&sharing, FastMap::default(), None).is_ok()
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
        let plan = |objective| opt.plan_with(&sharing, objective, &FastMap::default(), None);
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
            critical_path(&dpt.plan, 1.0, &model)
        );
    }
}

#[test]
fn admission_reflects_previously_committed_capacity() {
    // A tiny fleet with expensive operators fills up: submitting heavy
    // sharings repeatedly must eventually be rejected for capacity. Each
    // filters on its own literal, so none dedups into another and each adds
    // its load (a duplicate adds none: `a_duplicate_adds_no_admission_load`).
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
    let mut accepted = 0;
    let mut rejected = false;
    for i in 0..24 {
        let own = Predicate::cmp(0, CmpOp::Ne, i as i64);
        let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), own);
        match smile.submit(
            &format!("s{i}"),
            q,
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

/// Admission plans against what the merged plan loads, not the sum of the
/// admitted plans: a duplicate dedups into the first copy and adds no load.
/// Each copy is still priced at its own plan's load, so on one machine at
/// 2.5× that load two copies fit either way; the third fits only because
/// the second loaded nothing — the sum (3×) would refuse it.
#[test]
fn a_duplicate_adds_no_admission_load() {
    let (mut smile, r) = platform(1);
    let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
    let sla = SimDuration::from_secs(45);
    let first = smile.submit("s0", q.clone(), sla, 0.001).unwrap();
    let m = MachineId::new(0);
    let load = machine_utilization(&smile.planned(first).unwrap().plan, Scope::All, &smile.config.model)[&m];
    smile.config.capacity = 2.5 * load;
    for i in 1..3 {
        smile.submit(&format!("s{i}"), q.clone(), sla, 0.001).unwrap();
    }
    let executor = smile.executor.as_ref().unwrap();
    assert_eq!(executor.load(&smile.config.model)[&m].to_bits(), load.to_bits());
    smile.install().unwrap();
    assert_eq!(smile.sharings().len(), 3);
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

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Every output of a plan search that admission reads or stores, as one
/// line: the plan, the MV's machine, the critical path, the dollar cost's
/// bits and the stored column order.
fn planned_line(smile: &Smile, id: SharingId) -> String {
    let p = smile.planned(id).unwrap();
    let (plan, cost) = (p.plan.canonical_string(), p.dollar_cost.to_bits());
    format!("{plan}|{:?}|{:?}|{cost:x}|{:?}\u{1f}", p.mv_machine, p.critical_path, p.columns)
}

/// The planner's outputs, pinned: the 25 paper sharings admitted as
/// `fig5_gardenhose` admits them (MVs round-robin on six machines), then
/// unpinned, then under each forced objective; the first 500 sharings of
/// the admission-at-scale set with their pins; and one `Inadmissible` and
/// one `CapacityExhausted` refusal. A change to how plans are searched,
/// costed or built that moves any plan, metric, tie-break or error moves
/// the digest.
#[test]
fn planner_outputs_match_the_pinned_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let sla = SimDuration::from_secs(45);
    let runs = [(true, None), (false, None), (false, Some(Objective::Dollars)), (false, Some(Objective::Time))];
    for (pinned, force) in runs {
        let mut config = SmileConfig::with_machines(6);
        config.force_objective = force;
        let mut smile = Smile::new(config);
        let r = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap().rels();
        for (i, s) in paper_sharings(&r).into_iter().enumerate() {
            let pin = pinned.then(|| MachineId::new((i % 6) as u32));
            let id = smile.submit_pinned(s.app, s.query, sla, 0.001, pin).unwrap();
            h = fnv1a(h, planned_line(&smile, id).as_bytes());
        }
        if pinned {
            let q = paper_sharings(&r).swap_remove(0).query;
            let err = smile.submit("tight", q, SimDuration::from_millis(1), 0.001).unwrap_err();
            assert!(matches!(err, SmileError::Inadmissible { .. }), "{err:?}");
            h = fnv1a(h, format!("{err:?}").as_bytes());
        }
    }
    let mut config = SmileConfig::with_machines(4);
    config.capacity = 1e9;
    let (mut smile, rels) = fleet(config, &common::scale_bases(4));
    for i in 0..500 {
        let pin = Some(MachineId::new((i % 4) as u32));
        let id = smile.submit_pinned(&format!("S{i}"), common::scale_query(&rels, i), sla, 0.001, pin).unwrap();
        h = fnv1a(h, planned_line(&smile, id).as_bytes());
    }
    let mut config = SmileConfig::with_machines(4);
    config.capacity = 1e-6;
    let (mut smile, rels) = fleet(config, &common::scale_bases(4));
    let err = smile.submit("full", common::scale_query(&rels, 1), sla, 0.001).unwrap_err();
    assert!(matches!(err, SmileError::CapacityExhausted { .. }), "{err:?}");
    h = fnv1a(h, format!("{err:?}").as_bytes());
    assert_eq!(h, 0x8bad_4ea7_e886_8540, "planner output digest moved");
}
