//! Aggregate views end to end — the §10 "aggregate operators" extension:
//! group-by COUNT/SUM views are maintained incrementally from the same
//! delta windows as SPJ views and must always equal a from-scratch
//! aggregation.

mod common;

use common::{assert_exact, feed, fleet, stats, Base};
use smile::core::platform::{Smile, SmileConfig};
use smile::storage::aggregate::{AggFunc, AggregateSpec};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{tuple, ColumnType, RelationId, SimDuration};

fn platform() -> (Smile, RelationId, RelationId) {
    let users = Base {
        name: "users".into(),
        cols: vec![("uid", ColumnType::I64), ("city", ColumnType::Str)],
        key: vec![0],
        home: 0,
        stats: stats(3.0, 100.0, 32.0, &[100.0, 10.0]),
    };
    let orders_stats = stats(10.0, 1000.0, 32.0, &[1000.0, 100.0, 50.0]);
    let orders = Base::i64("orders", &["oid", "uid", "amount"], &[0], 1, orders_stats);
    let (smile, rels) = fleet(SmileConfig::with_machines(2), &[users, orders]);
    (smile, rels[0], rels[1])
}

/// Revenue per city: users ⋈ orders, grouped by city, count + sum(amount).
fn revenue_query(users: RelationId, orders: RelationId) -> SpjQuery {
    SpjQuery::scan(users)
        .join(orders, JoinOn::on(0, 1), Predicate::True)
        .aggregate(AggregateSpec {
            group_cols: vec![1],
            aggs: vec![AggFunc::SumI64(4)],
        })
}

/// A new user every fourth second, three orders a second from known users,
/// and now and then a cancelled order (a delete).
fn drive(smile: &mut Smile, users: RelationId, orders: RelationId, seconds: u64) {
    let mut live_orders: Vec<(i64, i64, i64)> = Vec::new();
    feed(smile, seconds, |smile, s| {
        let (now, s) = (smile.now(), s as i64);
        let mut batches = Vec::new();
        if s % 4 == 0 {
            let uid = s / 4;
            let city = format!("city{}", uid % 5);
            let entries = vec![DeltaEntry::insert(tuple![uid, city.as_str()], now)];
            batches.push((users, DeltaBatch { entries }));
        }
        let mut entries = Vec::new();
        for k in 0..3 {
            let oid = s * 3 + k;
            let uid = (s + k) % (s / 4 + 1).max(1);
            let amount = 10 + (s * 7 + k) % 90;
            live_orders.push((oid, uid, amount));
            entries.push(DeltaEntry::insert(tuple![oid, uid, amount], now));
        }
        // Occasionally cancel an order (delete).
        if s % 5 == 3 && !live_orders.is_empty() {
            let (oid, uid, amount) = live_orders.swap_remove(s as usize % live_orders.len());
            entries.push(DeltaEntry::delete(tuple![oid, uid, amount], now));
        }
        batches.push((orders, DeltaBatch { entries }));
        batches
    });
}

#[test]
fn aggregated_join_view_matches_ground_truth() {
    let (mut smile, users, orders) = platform();
    let id = smile
        .submit(
            "revenue-by-city",
            revenue_query(users, orders),
            SimDuration::from_secs(12),
            0.001,
        )
        .unwrap();
    smile.install().unwrap();
    drive(&mut smile, users, orders, 120);

    assert!(assert_exact(&smile, &[id]) > 0);
    let got = smile.mv_contents(id).unwrap();
    // The view's shape: (city, count, sum) with ≤5 groups, unit weights.
    assert!(got.len() <= 5);
    for (row, w) in got.iter() {
        assert_eq!(w, 1, "aggregate rows must have unit weight");
        assert_eq!(row.arity(), 3);
        assert!(row.get(1).as_i64().unwrap() > 0, "count must be positive");
    }
}

#[test]
fn aggregated_scan_view_counts_per_key() {
    let (mut smile, _users, orders) = platform();
    // Orders per user straight off one base relation.
    let q = SpjQuery::scan(orders).aggregate(AggregateSpec::count_by(vec![1]));
    let id = smile
        .submit("orders-per-user", q, SimDuration::from_secs(10), 0.001)
        .unwrap();
    smile.install().unwrap();
    feed(&mut smile, 60, |smile, s| {
        let (now, s) = (smile.now(), s as i64);
        let orders_of = |k| DeltaEntry::insert(tuple![s * 4 + k, (s + k) % 7, 5i64], now);
        [(orders, (0..4).map(orders_of).collect())]
    });
    assert_exact(&smile, &[id]);
    let got = smile.mv_contents(id).unwrap();
    assert_eq!(got.len(), 7, "seven uid groups expected");
    // Total count across groups equals total applied orders.
    let total: i64 = got
        .iter()
        .map(|(row, _)| row.get(1).as_i64().unwrap())
        .sum();
    assert!(total > 0 && total % 4 == 0);
}

#[test]
fn aggregate_survives_deletion_churn() {
    let (mut smile, _users, orders) = platform();
    let q = SpjQuery::scan(orders).aggregate(AggregateSpec {
        group_cols: vec![1],
        aggs: vec![AggFunc::SumI64(2)],
    });
    let id = smile
        .submit("churn", q, SimDuration::from_secs(8), 0.001)
        .unwrap();
    smile.install().unwrap();
    // Insert then fully delete group 0; group 1 stays.
    let mut held: Vec<(i64, i64, i64)> = Vec::new();
    feed(&mut smile, 40, |smile, s| {
        let (now, s) = (smile.now(), s as i64);
        let mut entries = Vec::new();
        if s < 10 {
            held.push((s, 0, 7));
            entries.push(DeltaEntry::insert(tuple![s, 0i64, 7i64], now));
        } else if let Some((oid, uid, amt)) = held.pop() {
            entries.push(DeltaEntry::delete(tuple![oid, uid, amt], now));
        }
        entries.push(DeltaEntry::insert(tuple![1000 + s, 1i64, 2i64], now));
        [(orders, DeltaBatch { entries })]
    });
    smile.run_idle(SimDuration::from_secs(20)).unwrap();
    assert_exact(&smile, &[id]);
    let got = smile.mv_contents(id).unwrap();
    // Group 0 fully cancelled: it must have vanished.
    assert!(
        !got.iter().any(|(row, _)| row.get(0).as_i64() == Some(0)),
        "empty group lingered in the view: {:?}",
        got.sorted_entries()
    );
}

#[test]
fn projection_and_aggregation_are_mutually_exclusive() {
    let (mut smile, users, orders) = platform();
    let q = SpjQuery::scan(users)
        .join(orders, JoinOn::on(0, 1), Predicate::True)
        .project(vec![1])
        .aggregate(AggregateSpec::count_by(vec![0]));
    assert!(smile
        .submit("bad", q, SimDuration::from_secs(10), 0.001)
        .is_err());
}

#[test]
fn aggregate_spec_validates_columns() {
    let (mut smile, _users, orders) = platform();
    let q = SpjQuery::scan(orders).aggregate(AggregateSpec::count_by(vec![9]));
    assert!(smile
        .submit("oob", q, SimDuration::from_secs(10), 0.001)
        .is_err());
    // Sum over a string column is a type error.
    let (mut smile2, users2, _) = platform();
    let q2 = SpjQuery::scan(users2).aggregate(AggregateSpec {
        group_cols: vec![0],
        aggs: vec![AggFunc::SumI64(1)],
    });
    assert!(smile2
        .submit("type", q2, SimDuration::from_secs(10), 0.001)
        .is_err());
}
