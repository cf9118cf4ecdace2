//! The platform catalog: base relation placement and statistics.
//!
//! The optimizer reasons about plans *before* they run, so it needs, per
//! base relation: the home machine, the schema, the update arrival rate λ,
//! the cardinality, and per-column distinct counts for join fan-out
//! estimation. The workload generator seeds these figures (it knows the
//! true distributions); the platform refreshes rates from observed delta
//! capture statistics so the optimizer and executor adapt to drift.

use smile_storage::spj::RelationProvider;
use smile_storage::ZSet;
use smile_types::{MachineId, RelationId, Result, Schema, SmileError};

/// Statistics the cost model needs about a base relation.
#[derive(Clone, Debug)]
pub struct BaseStats {
    /// Update arrival rate in delta entries per second.
    pub update_rate: f64,
    /// Approximate number of rows.
    pub cardinality: f64,
    /// Mean tuple payload bytes.
    pub tuple_bytes: f64,
    /// Per-column distinct-value estimates (parallel to the schema).
    pub distinct: Vec<f64>,
}

impl BaseStats {
    /// Distinct estimate for a column, conservatively the cardinality when
    /// no per-column figure is known.
    pub fn distinct_of(&self, col: usize) -> f64 {
        self.distinct
            .get(col)
            .copied()
            .unwrap_or(self.cardinality)
            .max(1.0)
    }
}

/// One registered base relation.
#[derive(Clone, Debug)]
pub struct BaseRelation {
    /// Catalog identity.
    pub id: RelationId,
    /// Name (e.g. `users`, `tweets`).
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Home machine (where the owning app's database lives).
    pub machine: MachineId,
    /// Cost-model statistics.
    pub stats: BaseStats,
}

/// The platform-wide catalog. Base relations occupy the low relation ids;
/// derived relations (copies, intermediates, MVs) are allocated above them.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    bases: Vec<BaseRelation>,
    next_relation: u32,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base relation, assigning it the next relation id.
    pub fn register_base(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        machine: MachineId,
        stats: BaseStats,
    ) -> RelationId {
        debug_assert_eq!(
            self.bases.len() as u32,
            self.next_relation,
            "bases must be registered before any derived relation is allocated"
        );
        let id = RelationId::new(self.next_relation);
        self.next_relation += 1;
        self.bases.push(BaseRelation {
            id,
            name: name.into(),
            schema,
            machine,
            stats,
        });
        id
    }

    /// Allocates a fresh relation id for a derived relation (copy,
    /// intermediate join result, or MV).
    pub fn alloc_derived(&mut self) -> RelationId {
        let id = RelationId::new(self.next_relation);
        self.next_relation += 1;
        id
    }

    /// Looks up a base relation.
    pub fn base(&self, rel: RelationId) -> Result<&BaseRelation> {
        self.bases
            .get(rel.index())
            .ok_or(SmileError::UnknownRelation(rel))
    }

    /// Mutable access to a base relation (statistics refresh).
    pub fn base_mut(&mut self, rel: RelationId) -> Result<&mut BaseRelation> {
        self.bases
            .get_mut(rel.index())
            .ok_or(SmileError::UnknownRelation(rel))
    }

    /// All registered base relations.
    pub fn bases(&self) -> &[BaseRelation] {
        &self.bases
    }

    /// True iff `rel` is a base relation (as opposed to derived).
    pub fn is_base(&self, rel: RelationId) -> bool {
        rel.index() < self.bases.len()
    }
}

impl RelationProvider for Catalog {
    fn schema(&self, rel: RelationId) -> Result<Schema> {
        Ok(self.base(rel)?.schema.clone())
    }

    fn rows(&self, rel: RelationId) -> Result<ZSet> {
        Err(SmileError::Internal(format!(
            "catalog holds no contents for {rel}; evaluate against a Database"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("uid", ColumnType::I64)], vec![0])
    }

    fn stats() -> BaseStats {
        BaseStats {
            update_rate: 10.0,
            cardinality: 1000.0,
            tuple_bytes: 40.0,
            distinct: vec![1000.0],
        }
    }

    #[test]
    fn register_then_lookup() {
        let mut c = Catalog::new();
        let r = c.register_base("users", schema(), MachineId::new(2), stats());
        assert_eq!(r, RelationId::new(0));
        assert_eq!(c.base(r).unwrap().machine, MachineId::new(2));
    }

    #[test]
    fn derived_ids_do_not_collide_with_bases() {
        let mut c = Catalog::new();
        let r = c.register_base("users", schema(), MachineId::new(0), stats());
        let d1 = c.alloc_derived();
        let d2 = c.alloc_derived();
        assert!(d1 != r && d2 != d1);
        assert!(c.is_base(r));
        assert!(!c.is_base(d1));
        assert!(c.base(d1).is_err());
    }

    #[test]
    fn distinct_falls_back_to_cardinality() {
        let s = stats();
        assert_eq!(s.distinct_of(0), 1000.0);
        assert_eq!(s.distinct_of(7), 1000.0);
    }

    #[test]
    fn provider_yields_schema_but_no_rows() {
        let mut c = Catalog::new();
        let r = c.register_base("users", schema(), MachineId::new(0), stats());
        assert!(RelationProvider::schema(&c, r).is_ok());
        assert!(RelationProvider::rows(&c, r).is_err());
    }
}
