//! Signature evaluation: computing a vertex's ground-truth contents.
//!
//! When a sharing is installed, its derived Relation vertices (replicas,
//! intermediates, the MV) must be seeded with the contents their signature
//! denotes over the *current* base relations. The same evaluator provides
//! the ground truth the test suite compares incremental maintenance
//! against.

use crate::catalog::Catalog;
use crate::plan::sig::ExprSig;
use smile_sim::Cluster;
use smile_storage::join::join_zsets;
use smile_storage::ZSet;
use smile_types::{Result, SmileError, Timestamp};

/// Evaluates `sig` against the base relations as of timestamp `at`
/// (`None` = current contents). Half-join signatures evaluate to the empty
/// z-set — they denote delta streams, not stored relations.
pub fn eval_sig(
    sig: &ExprSig,
    cluster: &Cluster,
    catalog: &Catalog,
    at: Option<Timestamp>,
) -> Result<ZSet> {
    match sig {
        ExprSig::Base(rel) => {
            let home = catalog.base(*rel)?.machine;
            let db = &cluster.machine(home)?.db;
            match at {
                Some(t) => db.snapshot_at(*rel, t),
                None => Ok(db.relation(*rel)?.table.rows().clone()),
            }
        }
        ExprSig::Filter { pred, input } => {
            let z = eval_sig(input, cluster, catalog, at)?;
            Ok(z.filter(|t| pred.eval(t)))
        }
        ExprSig::Join { left, right, on } => {
            let l = eval_sig(left, cluster, catalog, at)?;
            let r = eval_sig(right, cluster, catalog, at)?;
            Ok(join_zsets(&l, &r, on))
        }
        ExprSig::Project { cols, input } => {
            let z = eval_sig(input, cluster, catalog, at)?;
            Ok(z.project(cols))
        }
        ExprSig::Aggregate { spec, input } => {
            let z = eval_sig(input, cluster, catalog, at)?;
            Ok(spec.eval(&z))
        }
        ExprSig::HalfJoin { .. } => Err(SmileError::Internal(
            "half-join signatures denote delta streams and cannot be materialized".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use smile_storage::join::JoinOn;
    use smile_storage::{DeltaEntry, Predicate};
    use smile_types::{tuple, Column, ColumnType, MachineId, RelationId, Schema};

    fn setup() -> (Cluster, Catalog) {
        let mut cluster = Cluster::homogeneous(2);
        let mut catalog = Catalog::new();
        let users_schema = Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("name", ColumnType::Str),
            ],
            vec![0],
        );
        let tweets_schema = Schema::new(
            vec![
                Column::new("tid", ColumnType::I64),
                Column::new("uid", ColumnType::I64),
            ],
            vec![0],
        );
        let stats = |rate: f64, card: f64| BaseStats {
            update_rate: rate,
            cardinality: card,
            tuple_bytes: 30.0,
            distinct: vec![card, card],
        };
        let users = catalog.register_base(
            "users",
            users_schema.clone(),
            MachineId::new(0),
            stats(5.0, 100.0),
        );
        let tweets = catalog.register_base(
            "tweets",
            tweets_schema.clone(),
            MachineId::new(1),
            stats(20.0, 1000.0),
        );
        cluster
            .machine_mut(MachineId::new(0))
            .unwrap()
            .db
            .create_relation(users, users_schema)
            .unwrap();
        cluster
            .machine_mut(MachineId::new(1))
            .unwrap()
            .db
            .create_relation(tweets, tweets_schema)
            .unwrap();
        let m0 = cluster.machine_mut(MachineId::new(0)).unwrap();
        m0.db
            .ingest(
                users,
                [
                    DeltaEntry::insert(tuple![1i64, "ann"], Timestamp::from_secs(1)),
                    DeltaEntry::insert(tuple![2i64, "bob"], Timestamp::from_secs(2)),
                ]
                .into_iter()
                .collect(),
            )
            .unwrap();
        let m1 = cluster.machine_mut(MachineId::new(1)).unwrap();
        m1.db
            .ingest(
                tweets,
                [
                    DeltaEntry::insert(tuple![10i64, 1i64], Timestamp::from_secs(1)),
                    DeltaEntry::insert(tuple![11i64, 2i64], Timestamp::from_secs(3)),
                ]
                .into_iter()
                .collect(),
            )
            .unwrap();
        (cluster, catalog)
    }

    #[test]
    fn join_signature_evaluates_across_machines() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::join(
            ExprSig::base(RelationId::new(0)),
            ExprSig::base(RelationId::new(1)),
            JoinOn::on(0, 1),
        );
        let z = eval_sig(&sig, &cluster, &catalog, None).unwrap();
        assert_eq!(z.cardinality(), 2);
        assert_eq!(z.weight(&tuple![1i64, "ann", 10i64, 1i64]), 1);
    }

    #[test]
    fn as_of_evaluation_rolls_back() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::join(
            ExprSig::base(RelationId::new(0)),
            ExprSig::base(RelationId::new(1)),
            JoinOn::on(0, 1),
        );
        // At t=2 the second tweet (t=3) does not exist yet.
        let z = eval_sig(&sig, &cluster, &catalog, Some(Timestamp::from_secs(2))).unwrap();
        assert_eq!(z.cardinality(), 1);
    }

    #[test]
    fn filter_and_project_compose() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::project(
            Some(vec![0]),
            ExprSig::filter(Predicate::eq(1, "ann"), ExprSig::base(RelationId::new(0))),
        );
        let z = eval_sig(&sig, &cluster, &catalog, None).unwrap();
        assert_eq!(z.cardinality(), 1);
        assert_eq!(z.weight(&tuple![1i64]), 1);
    }

    #[test]
    fn half_join_refuses_materialization() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::half_join(
            ExprSig::base(RelationId::new(0)),
            ExprSig::base(RelationId::new(1)),
            JoinOn::on(0, 1),
            true,
            (MachineId::new(0), MachineId::new(1)),
        );
        assert!(eval_sig(&sig, &cluster, &catalog, None).is_err());
    }
}
