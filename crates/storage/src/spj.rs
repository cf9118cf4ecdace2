//! Select-Project-Join query specifications.
//!
//! A sharing's transformation is an SPJ query over base relations (paper
//! §3): select a subset of tuples, choose a subset of attributes, and combine
//! relations on common keys. The query is stored as a **left-deep join
//! sequence**, which is also the shape the optimizer's dynamic program
//! enumerates (§6.1 builds join sequences `R` one base relation at a time).
//!
//! [`SpjQuery::evaluate`] computes the query from scratch against relation
//! snapshots. The platform never uses it to maintain or seed a view — views
//! are maintained incrementally, and a new vertex is seeded from its plan
//! signature (`smile-core`'s `executor::seed::eval_sig`) — but the submitted
//! query evaluated this way is the ground truth every MV is compared
//! against, in the submitted column order.

use crate::aggregate::AggregateSpec;
use crate::join::{join_zsets, JoinOn};
use crate::predicate::Predicate;
use crate::zset::ZSet;
use smile_types::{RelationId, Result, Schema, SmileError};

/// One step of a left-deep join sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct SpjStep {
    /// The base relation this step brings in.
    pub relation: RelationId,
    /// Selection predicate on this relation's own columns (pushed down).
    pub predicate: Predicate,
    /// Equi-join condition against the accumulated left result. `left_cols`
    /// index the accumulated schema, `right_cols` index this relation.
    /// `None` only for the first step.
    pub join: Option<JoinOn>,
}

/// An SPJ query: a left-deep join sequence plus an optional final
/// projection *or* aggregation (an extension beyond the paper's SPJ core —
/// its §10 names aggregate operators as the first planned extension).
#[derive(Clone, Debug, PartialEq)]
pub struct SpjQuery {
    /// Join sequence, at least one step.
    pub steps: Vec<SpjStep>,
    /// Projection onto these output columns of the final join; `None` keeps
    /// every column. Mutually exclusive with `aggregate`.
    pub projection: Option<Vec<usize>>,
    /// Group-by aggregation over the final join's columns. Mutually
    /// exclusive with `projection`.
    pub aggregate: Option<AggregateSpec>,
}

/// Source of relation schemas and snapshot contents for [`SpjQuery`]
/// evaluation. Implementations decide *which* snapshot (current contents, or
/// an as-of reconstruction for consistency checks).
pub trait RelationProvider {
    /// Schema of a base relation.
    fn schema(&self, rel: RelationId) -> Result<Schema>;
    /// Snapshot contents of a base relation.
    fn rows(&self, rel: RelationId) -> Result<ZSet>;
}

impl SpjQuery {
    /// Single-relation query (select/project only).
    pub fn scan(relation: RelationId) -> Self {
        SpjQuery {
            steps: vec![SpjStep {
                relation,
                predicate: Predicate::True,
                join: None,
            }],
            projection: None,
            aggregate: None,
        }
    }

    /// Builder: starts a query at `relation` with a selection predicate.
    pub fn select(relation: RelationId, predicate: Predicate) -> Self {
        SpjQuery {
            steps: vec![SpjStep {
                relation,
                predicate,
                join: None,
            }],
            projection: None,
            aggregate: None,
        }
    }

    /// Builder: joins the accumulated result with `relation` on the given
    /// condition, with a selection predicate on the new relation.
    pub fn join(mut self, relation: RelationId, on: JoinOn, predicate: Predicate) -> Self {
        self.steps.push(SpjStep {
            relation,
            predicate,
            join: Some(on),
        });
        self
    }

    /// Builder: sets the final projection.
    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.projection = Some(cols);
        self
    }

    /// Builder: sets a final group-by aggregation.
    pub fn aggregate(mut self, spec: AggregateSpec) -> Self {
        self.aggregate = Some(spec);
        self
    }

    /// The base relations in join-sequence order (`SRC(S_i)` of the paper).
    pub fn sources(&self) -> Vec<RelationId> {
        self.steps.iter().map(|s| s.relation).collect()
    }

    /// Validates structure: first step has no join condition, later steps
    /// have one, predicates and join columns are in range.
    pub fn validate(&self, provider: &dyn RelationProvider) -> Result<()> {
        if self.steps.is_empty() {
            return Err(SmileError::InvalidPlan("SPJ query with no steps".into()));
        }
        let mut acc = provider.schema(self.steps[0].relation)?;
        if self.steps[0].join.is_some() {
            return Err(SmileError::InvalidPlan(
                "first SPJ step must not have a join condition".into(),
            ));
        }
        self.steps[0].predicate.validate(&acc)?;
        for (i, step) in self.steps.iter().enumerate().skip(1) {
            let right = provider.schema(step.relation)?;
            step.predicate.validate(&right)?;
            let on = step.join.as_ref().ok_or_else(|| {
                SmileError::InvalidPlan(format!("SPJ step {i} missing join condition"))
            })?;
            if on.left_cols.len() != on.right_cols.len() || on.left_cols.is_empty() {
                return Err(SmileError::InvalidPlan(format!(
                    "SPJ step {i} has malformed join condition"
                )));
            }
            for &c in &on.left_cols {
                if c >= acc.arity() {
                    return Err(SmileError::UnknownColumn(format!(
                        "join column {c} out of range for accumulated schema {acc}"
                    )));
                }
            }
            for &c in &on.right_cols {
                if c >= right.arity() {
                    return Err(SmileError::UnknownColumn(format!(
                        "join column {c} out of range for {right}"
                    )));
                }
            }
            acc = acc.join(&right, "l", &format!("{}", step.relation));
        }
        if let Some(proj) = &self.projection {
            for &c in proj {
                if c >= acc.arity() {
                    return Err(SmileError::UnknownColumn(format!(
                        "projection column {c} out of range for {acc}"
                    )));
                }
            }
        }
        if let Some(agg) = &self.aggregate {
            if self.projection.is_some() {
                return Err(SmileError::InvalidPlan(
                    "projection and aggregation are mutually exclusive".into(),
                ));
            }
            agg.output_schema(&acc)?;
        }
        Ok(())
    }

    /// Schema of the query output.
    pub fn output_schema(&self, provider: &dyn RelationProvider) -> Result<Schema> {
        let mut acc = provider.schema(self.steps[0].relation)?;
        for step in self.steps.iter().skip(1) {
            let right = provider.schema(step.relation)?;
            acc = acc.join(&right, "l", &format!("{}", step.relation));
        }
        if let Some(agg) = &self.aggregate {
            return agg.output_schema(&acc);
        }
        Ok(match &self.projection {
            Some(cols) => acc.project(cols),
            None => acc,
        })
    }

    /// Full (non-incremental) evaluation against the provider's snapshots.
    pub fn evaluate(&self, provider: &dyn RelationProvider) -> Result<ZSet> {
        let first = &self.steps[0];
        let mut acc = provider.rows(first.relation)?;
        if first.predicate != Predicate::True {
            acc = acc.iter().filter(|(t, _)| first.predicate.eval(t)).collect();
        }
        for step in self.steps.iter().skip(1) {
            let mut right = provider.rows(step.relation)?;
            if step.predicate != Predicate::True {
                right = right.iter().filter(|(t, _)| step.predicate.eval(t)).collect();
            }
            let on = step.join.as_ref().ok_or_else(|| {
                SmileError::InvalidPlan(format!("join step on {} has no join condition", step.relation))
            })?;
            acc = join_zsets(&acc, &right, on);
        }
        if let Some(agg) = &self.aggregate {
            return Ok(agg.eval(&acc));
        }
        Ok(match &self.projection {
            Some(cols) => acc.iter().map(|(t, w)| (t.project(cols), w)).collect(),
            None => acc,
        })
    }

    /// The query's prefix of length `n` steps (used by the optimizer to cost
    /// partial join sequences). Projection is dropped: intermediates are
    /// materialized wide so later joins can reference any column.
    pub fn prefix(&self, n: usize) -> SpjQuery {
        SpjQuery {
            steps: self.steps[..n].to_vec(),
            projection: None,
            aggregate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use smile_types::{tuple, Column, ColumnType, FastMap};

    struct MapProvider {
        rels: FastMap<RelationId, (Schema, ZSet)>,
    }

    impl RelationProvider for MapProvider {
        fn schema(&self, rel: RelationId) -> Result<Schema> {
            self.rels
                .get(&rel)
                .map(|(s, _)| s.clone())
                .ok_or(SmileError::UnknownRelation(rel))
        }
        fn rows(&self, rel: RelationId) -> Result<ZSet> {
            self.rels
                .get(&rel)
                .map(|(_, z)| z.clone())
                .ok_or(SmileError::UnknownRelation(rel))
        }
    }

    const USERS: RelationId = RelationId(0);
    const EVENTS: RelationId = RelationId(1);

    fn provider() -> MapProvider {
        let users_schema = Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("name", ColumnType::Str),
            ],
            vec![0],
        );
        let events_schema = Schema::new(
            vec![
                Column::new("eid", ColumnType::I64),
                Column::new("uid", ColumnType::I64),
                Column::new("kind", ColumnType::Str),
            ],
            vec![0],
        );
        let users = ZSet::from_tuples([tuple![1i64, "ann"], tuple![2i64, "bob"]]);
        let events = ZSet::from_tuples([
            tuple![10i64, 1i64, "dinner"],
            tuple![11i64, 1i64, "run"],
            tuple![12i64, 2i64, "dinner"],
            tuple![13i64, 3i64, "dinner"],
        ]);
        let mut rels = FastMap::default();
        rels.insert(USERS, (users_schema, users));
        rels.insert(EVENTS, (events_schema, events));
        MapProvider { rels }
    }

    /// The paper's Example 2: dinner events of known users.
    fn dinner_query() -> SpjQuery {
        SpjQuery::scan(USERS)
            .join(
                EVENTS,
                JoinOn::on(0, 1),
                Predicate::cmp(2, CmpOp::Eq, "dinner"),
            )
            .project(vec![1, 2])
    }

    #[test]
    fn evaluate_select_project_join() {
        let p = provider();
        let q = dinner_query();
        q.validate(&p).unwrap();
        let out = q.evaluate(&p).unwrap();
        assert_eq!(out.cardinality(), 2);
        assert_eq!(out.weight(&tuple!["ann", 10i64]), 1);
        assert_eq!(out.weight(&tuple!["bob", 12i64]), 1);
    }

    #[test]
    fn output_schema_projects() {
        let p = provider();
        let s = dinner_query().output_schema(&p).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.columns()[0].name, "name");
        assert_eq!(s.columns()[1].name, "eid");
    }

    #[test]
    fn sources_in_order() {
        assert_eq!(dinner_query().sources(), vec![USERS, EVENTS]);
    }

    #[test]
    fn validate_catches_bad_join_columns() {
        let p = provider();
        let q = SpjQuery::scan(USERS).join(EVENTS, JoinOn::on(9, 1), Predicate::True);
        assert!(q.validate(&p).is_err());
    }

    #[test]
    fn validate_catches_bad_projection() {
        let p = provider();
        let q = SpjQuery::scan(USERS).project(vec![5]);
        assert!(q.validate(&p).is_err());
    }

    #[test]
    fn prefix_drops_projection() {
        let q = dinner_query();
        let pre = q.prefix(1);
        assert_eq!(pre.steps.len(), 1);
        assert!(pre.projection.is_none());
    }
}
