//! Signature evaluation: computing a vertex's ground-truth contents.
//!
//! When a sharing is installed, its derived Relation vertices (replicas,
//! intermediates, the MV) must be seeded with the contents their signature
//! denotes over the *current* base relations. The same evaluator provides
//! the ground truth the test suite compares incremental maintenance
//! against.
//!
//! A base is read in place, never cloned into a z-set: the first signature
//! to read it borrows its rows into a [`BaseReads`] vector, which every
//! later one iterates (an arrangement would chase a heap bucket per key).

use crate::catalog::Catalog;
use crate::plan::sig::ExprSig;
use smile_sim::Cluster;
use smile_storage::join::join_zsets;
use smile_storage::ZSet;
use smile_types::{RelationId, Result, SmileError, Timestamp, Tuple};
use std::collections::HashMap;
use std::rc::Rc;

/// The base rows read at one seed instant, by relation: one per reconcile.
pub type BaseReads<'a> = HashMap<RelationId, Rc<[(&'a Tuple, i64)]>>;

/// Evaluates `sig` against the base relations as of timestamp `at`
/// (`None` = current contents), reading each base through `reads`, which
/// must only ever be passed the same `at`. Half-join signatures are
/// refused — they denote delta streams, not stored relations.
pub fn eval_sig<'a>(
    sig: &ExprSig,
    cluster: &'a Cluster,
    catalog: &Catalog,
    at: Option<Timestamp>,
    reads: &mut BaseReads<'a>,
) -> Result<ZSet> {
    Ok(match eval(sig, cluster, catalog, at, reads)? {
        Rows::Read(rows) => rows.iter().copied().collect(),
        Rows::Computed(z) => z,
    })
}

/// What a signature evaluates to: a base's rows as read, or a z-set.
enum Rows<'a> {
    Read(Rc<[(&'a Tuple, i64)]>),
    Computed(ZSet),
}

impl Rows<'_> {
    fn iter(&self) -> Box<dyn ExactSizeIterator<Item = (&Tuple, i64)> + '_> {
        match self {
            Rows::Read(rows) => Box::new(rows.iter().copied()),
            Rows::Computed(z) => Box::new(z.iter()),
        }
    }
}

fn eval<'a>(
    sig: &ExprSig,
    cluster: &'a Cluster,
    catalog: &Catalog,
    at: Option<Timestamp>,
    reads: &mut BaseReads<'a>,
) -> Result<Rows<'a>> {
    let mut rows_of = |sig: &ExprSig| eval(sig, cluster, catalog, at, reads);
    Ok(Rows::Computed(match sig {
        ExprSig::Base(rel) => {
            if !reads.contains_key(rel) {
                let slot = cluster.machine(catalog.base(*rel)?.machine)?.db.relation(*rel)?;
                let rows = match at {
                    Some(t) => slot.table.rows_at(&slot.delta, t)?.into(),
                    None => slot.table.rows().collect(),
                };
                reads.insert(*rel, rows);
            }
            return Ok(Rows::Read(Rc::clone(&reads[rel])));
        }
        ExprSig::Filter { pred, input } => {
            rows_of(input)?.iter().filter(|(t, _)| pred.eval(t)).collect()
        }
        ExprSig::Join { left, right, on } => {
            join_zsets(rows_of(left)?.iter(), rows_of(right)?.iter(), on)
        }
        ExprSig::Project { cols, input } => {
            rows_of(input)?.iter().map(|(t, w)| (t.project(cols), w)).collect()
        }
        ExprSig::Aggregate { spec, input } => spec.eval(rows_of(input)?.iter()),
        ExprSig::HalfJoin { .. } => {
            return Err(SmileError::Internal(
                "half-join signatures denote delta streams and cannot be materialized".into(),
            ))
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BaseStats;
    use crate::plan::dag::VertexKind;
    use smile_storage::predicate::CmpOp;
    use smile_storage::join::JoinOn;
    use smile_storage::{AggregateSpec, DeltaBatch, DeltaEntry, IndexCols, Predicate, SlotIndex, SpjQuery};
    use smile_types::{tuple, Column, ColumnType, MachineId, Schema, SimDuration};

    const USERS: RelationId = RelationId(0);
    const TWEETS: RelationId = RelationId(1);
    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    /// The two bases: users on machine 0, tweets on machine 1.
    fn bases() -> [(&'static str, Schema, MachineId, BaseStats); 2] {
        let schema = |cols: [(&str, ColumnType); 2]| {
            Schema::new(cols.map(|(name, ty)| Column::new(name, ty)).to_vec(), vec![0])
        };
        let stats = |rate: f64, card: f64| BaseStats {
            update_rate: rate,
            cardinality: card,
            tuple_bytes: 30.0,
            distinct: vec![card, card],
        };
        [
            ("users", schema([("uid", ColumnType::I64), ("name", ColumnType::Str)]), M0, stats(5.0, 100.0)),
            ("tweets", schema([("tid", ColumnType::I64), ("uid", ColumnType::I64)]), M1, stats(20.0, 1000.0)),
        ]
    }

    /// Users 1 and 2 at t=1 and t=2, and a tweet of each at t=1 and t=3.
    fn rows_through_3() -> [(RelationId, DeltaBatch); 2] {
        let t = Timestamp::from_secs;
        let users = [DeltaEntry::insert(tuple![1i64, "ann"], t(1)), DeltaEntry::insert(tuple![2i64, "bob"], t(2))];
        let tweets = [DeltaEntry::insert(tuple![10i64, 1i64], t(1)), DeltaEntry::insert(tuple![11i64, 2i64], t(3))];
        [(USERS, users.into_iter().collect()), (TWEETS, tweets.into_iter().collect())]
    }

    fn setup() -> (Cluster, Catalog) {
        let mut cluster = Cluster::homogeneous(2);
        let mut catalog = Catalog::new();
        for (name, schema, machine, stats) in bases() {
            let rel = catalog.register_base(name, schema.clone(), machine, stats);
            cluster.machine_mut(machine).unwrap().db.create_relation(rel, schema).unwrap();
        }
        for (rel, batch) in rows_through_3() {
            let home = catalog.base(rel).unwrap().machine;
            cluster.machine_mut(home).unwrap().db.ingest(rel, batch).unwrap();
        }
        (cluster, catalog)
    }

    #[test]
    fn join_signature_evaluates_across_machines() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::join(
            ExprSig::base(USERS),
            ExprSig::base(TWEETS),
            JoinOn::on(0, 1),
        );
        let z = eval_sig(&sig, &cluster, &catalog, None, &mut BaseReads::new()).unwrap();
        assert_eq!(z.cardinality(), 2);
        assert_eq!(z.weight(&tuple![1i64, "ann", 10i64, 1i64]), 1);
    }

    #[test]
    fn as_of_evaluation_rolls_back() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::join(
            ExprSig::base(USERS),
            ExprSig::base(TWEETS),
            JoinOn::on(0, 1),
        );
        // At t=2 the second tweet (t=3) does not exist yet.
        let z = eval_sig(&sig, &cluster, &catalog, Some(Timestamp::from_secs(2)), &mut BaseReads::new()).unwrap();
        assert_eq!(z.cardinality(), 1);
    }

    #[test]
    fn filter_and_project_compose() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::project(
            Some(vec![0]),
            ExprSig::filter(Predicate::eq(1, "ann"), ExprSig::base(USERS)),
        );
        let z = eval_sig(&sig, &cluster, &catalog, None, &mut BaseReads::new()).unwrap();
        assert_eq!(z.cardinality(), 1);
        assert_eq!(z.weight(&tuple![1i64]), 1);
    }

    #[test]
    fn half_join_refuses_materialization() {
        let (cluster, catalog) = setup();
        let sig = ExprSig::half_join(
            ExprSig::base(USERS),
            ExprSig::base(TWEETS),
            JoinOn::on(0, 1),
            true,
            (M0, M1),
        );
        assert!(eval_sig(&sig, &cluster, &catalog, None, &mut BaseReads::new()).is_err());
    }

    /// An arranged base is read in place — users from an arrangement on
    /// `uid`, tweets from one partitioned by `uid` — and every operator over
    /// it evaluates to what it does over the same base unarranged: now, and
    /// as of instants a delete and an insert past t=3 must be rolled back
    /// from.
    #[test]
    fn an_arranged_base_read_in_place_evaluates_like_an_unarranged_one() {
        let later = |cluster: &mut Cluster| {
            let t4 = Timestamp::from_secs(4);
            let entries = [DeltaEntry::delete(tuple![10i64, 1i64], t4), DeltaEntry::insert(tuple![12i64, 2i64], t4)];
            let db = &mut cluster.machine_mut(M1).unwrap().db;
            db.ingest(TWEETS, entries.into_iter().collect()).unwrap();
        };
        let (mut plain, catalog) = setup();
        let (mut arranged, _) = setup();
        arranged.machine_mut(M0).unwrap().db.ensure_index(USERS, &[0]).unwrap();
        let by_uid = IndexCols { partition: vec![1], key: vec![0] };
        arranged.machine_mut(M1).unwrap().db.ensure(TWEETS, &SlotIndex::Arrangement(by_uid)).unwrap();
        later(&mut plain);
        later(&mut arranged);

        let (users, tweets) = (ExprSig::base(USERS), ExprSig::base(TWEETS));
        let sigs = [
            ExprSig::filter(Predicate::eq(1, "ann"), users.clone()),
            ExprSig::project(Some(vec![1]), tweets.clone()),
            ExprSig::aggregate(Some(AggregateSpec::count_by(vec![1])), tweets.clone()),
            ExprSig::join(users, tweets.clone(), JoinOn::on(0, 1)),
            tweets,
        ];
        for at in [None, Some(2), Some(3)].map(|s| s.map(Timestamp::from_secs)) {
            for sig in &sigs {
                let eval = |c| eval_sig(sig, c, &catalog, at, &mut BaseReads::new()).unwrap();
                assert_eq!(eval(&arranged), eval(&plain), "{sig} as of {at:?}");
            }
        }
        let join = |at| eval_sig(&sigs[3], &arranged, &catalog, at, &mut BaseReads::new()).unwrap();
        assert_ne!(join(None), join(Some(Timestamp::from_secs(3))), "the past differs from now");
    }

    /// One reconcile — `install` — seeds twins, a join and an aggregate that
    /// all read the tweets base, through one read of it; every table it
    /// seeds equals its signature evaluated alone.
    #[test]
    fn one_reconcile_seeds_what_each_signature_evaluates_to_alone() {
        use crate::platform::{Smile, SmileConfig};
        let mut smile = Smile::new(SmileConfig::with_machines(2));
        for (name, schema, machine, stats) in bases() {
            smile.register_base(name, schema, machine, stats).unwrap();
        }
        for (rel, batch) in rows_through_3() {
            smile.ingest(rel, batch).unwrap();
        }
        let sla = SimDuration::from_secs(30);
        let recent = SpjQuery::select(TWEETS, Predicate::cmp(0, CmpOp::Ge, 11i64));
        for pin in [M0, M1] {
            smile.submit_pinned("twin", recent.clone(), sla, 0.001, Some(pin)).unwrap();
        }
        let joined = SpjQuery::scan(USERS).join(TWEETS, JoinOn::on(0, 1), Predicate::True);
        smile.submit("join", joined, sla, 0.001).unwrap();
        let counted = SpjQuery::scan(TWEETS).aggregate(AggregateSpec::count_by(vec![1]));
        smile.submit("count", counted, sla, 0.001).unwrap();
        smile.install().unwrap();

        let plan = &smile.global_plan().plan;
        let seeded = plan.vertices().iter().filter(|v| v.kind == VertexKind::Relation && !v.is_base);
        let mut checked = 0;
        for v in seeded.filter(|v| v.slot.is_some()) {
            let db = &smile.cluster.machine(v.machine).unwrap().db;
            let got: ZSet = db.relation(v.slot.unwrap()).unwrap().table.rows().collect();
            let alone = eval_sig(&v.sig, &smile.cluster, &smile.catalog, None, &mut BaseReads::new());
            assert_eq!(got, alone.unwrap(), "{}", v.sig);
            checked += usize::from(!got.is_empty());
        }
        assert!(checked >= 4, "only {checked} non-empty seeded tables");
    }
}
