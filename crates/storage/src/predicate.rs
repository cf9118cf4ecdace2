//! Selection predicates.
//!
//! The paper restricts transformations to Select-Project-Join queries; the
//! selection component is a boolean combination of comparisons between a
//! column and a constant (e.g. `EventType = 'dinner'`). Predicates are
//! pushed down to the earliest plan edge that sees the column (the pushdown
//! heuristic of §5).

use smile_types::{Schema, SmileError, Tuple, Value};
use std::fmt;

/// Comparison operators on column/constant pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        // SQL three-valued logic collapsed to two: comparisons with NULL are
        // false (never "unknown-but-kept").
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A selection predicate over a single relation's tuples.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true (the neutral element for conjunction).
    True,
    /// Column `col` compared with a constant.
    Cmp {
        /// Column index within the tuple.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col op value` leaf.
    pub fn cmp(col: usize, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Cmp {
            col,
            op,
            value: value.into(),
        }
    }

    /// `col = value` leaf.
    pub fn eq(col: usize, value: impl Into<Value>) -> Self {
        Self::cmp(col, CmpOp::Eq, value)
    }

    /// Conjunction helper that elides `True`.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the predicate on a tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => op.eval(t.get(*col), value),
            Predicate::And(a, b) => a.eval(t) && b.eval(t),
            Predicate::Or(a, b) => a.eval(t) || b.eval(t),
            Predicate::Not(p) => !p.eval(t),
        }
    }

    /// The `col = literal` conjuncts every row this predicate keeps must
    /// satisfy: the `Eq` leaves among the top-level `AND`s whose literal is
    /// not NULL, sorted by column, the first literal per column. These name
    /// the partition of an arrangement that holds all the kept rows (and
    /// maybe others, which evaluating the whole predicate still removes).
    pub fn eq_literals(&self) -> Vec<(usize, &Value)> {
        fn collect<'p>(p: &'p Predicate, out: &mut Vec<(usize, &'p Value)>) {
            match p {
                Predicate::Cmp { col, op: CmpOp::Eq, value } if !value.is_null() => {
                    out.push((*col, value));
                }
                Predicate::And(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        // Stable: of two literals on one column, the first leaf's stays.
        out.sort_by_key(|&(col, _)| col);
        out.dedup_by_key(|&mut (col, _)| col);
        out
    }

    /// Checks every referenced column exists in `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), SmileError> {
        match self {
            Predicate::True => Ok(()),
            Predicate::Cmp { col, .. } => {
                if *col < schema.arity() {
                    Ok(())
                } else {
                    Err(SmileError::UnknownColumn(format!(
                        "column index {col} out of range for schema {schema}"
                    )))
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Predicate::Not(p) => p.validate(schema),
        }
    }

    /// Rewrites column indexes through a mapping (used when a predicate is
    /// pushed through a join whose output reorders columns). `map[i]` is the
    /// new index of old column `i`.
    pub fn remap(&self, map: &dyn Fn(usize) -> usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::Cmp { col, op, value } => Predicate::Cmp {
                col: map(*col),
                op: *op,
                value: value.clone(),
            },
            Predicate::And(a, b) => Predicate::And(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Predicate::Or(a, b) => Predicate::Or(Box::new(a.remap(map)), Box::new(b.remap(map))),
            Predicate::Not(p) => Predicate::Not(Box::new(p.remap(map))),
        }
    }

    /// A crude selectivity estimate used by the cost model when no observed
    /// statistics are available: equality keeps 10%, inequality 90%, range
    /// comparisons 33%, combined by independence.
    pub fn default_selectivity(&self) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Cmp { op, .. } => match op {
                CmpOp::Eq => 0.1,
                CmpOp::Ne => 0.9,
                _ => 1.0 / 3.0,
            },
            Predicate::And(a, b) => a.default_selectivity() * b.default_selectivity(),
            Predicate::Or(a, b) => {
                let (sa, sb) = (a.default_selectivity(), b.default_selectivity());
                (sa + sb - sa * sb).min(1.0)
            }
            Predicate::Not(p) => 1.0 - p.default_selectivity(),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { col, op, value } => write!(f, "#{col} {op} {value}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_types::{tuple, Column, ColumnType};

    #[test]
    fn comparisons() {
        let t = tuple![5i64, "dinner"];
        assert!(Predicate::eq(1, "dinner").eval(&t));
        assert!(Predicate::cmp(0, CmpOp::Gt, 4i64).eval(&t));
        assert!(!Predicate::cmp(0, CmpOp::Lt, 5i64).eval(&t));
        assert!(Predicate::cmp(0, CmpOp::Le, 5i64).eval(&t));
        assert!(Predicate::cmp(0, CmpOp::Ne, 4i64).eval(&t));
    }

    #[test]
    fn null_comparisons_are_false() {
        let t = tuple![Value::Null];
        assert!(!Predicate::eq(0, 1i64).eval(&t));
        assert!(!Predicate::cmp(0, CmpOp::Ne, 1i64).eval(&t));
    }

    #[test]
    fn boolean_combinators() {
        let t = tuple![5i64];
        let p = Predicate::cmp(0, CmpOp::Gt, 1i64).and(Predicate::cmp(0, CmpOp::Lt, 10i64));
        assert!(p.eval(&t));
        let q = Predicate::eq(0, 7i64).or(Predicate::eq(0, 5i64));
        assert!(q.eval(&t));
        assert!(!Predicate::Not(Box::new(q)).eval(&t));
    }

    #[test]
    fn and_elides_true() {
        let p = Predicate::True.and(Predicate::eq(0, 1i64));
        assert_eq!(p, Predicate::eq(0, 1i64));
        let q = Predicate::eq(0, 1i64).and(Predicate::True);
        assert_eq!(q, Predicate::eq(0, 1i64));
    }

    #[test]
    fn eq_literals_take_top_level_conjuncts_only() {
        let p = Predicate::eq(3, "x")
            .and(Predicate::cmp(0, CmpOp::Ge, 1i64))
            .and(Predicate::eq(1, 7i64).and(Predicate::eq(3, "y")))
            .and(Predicate::eq(2, Value::Null))
            .and(Predicate::eq(4, 1i64).or(Predicate::eq(4, 2i64)))
            .and(Predicate::Not(Box::new(Predicate::eq(5, 1i64))));
        let (x, seven) = (Value::str("x"), Value::I64(7));
        assert_eq!(p.eq_literals(), vec![(1, &seven), (3, &x)]);
        assert!(Predicate::True.eq_literals().is_empty());
        assert!(Predicate::cmp(0, CmpOp::Ne, 1i64).eq_literals().is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_columns() {
        let schema = Schema::new(vec![Column::new("a", ColumnType::I64)], vec![0]);
        assert!(Predicate::eq(0, 1i64).validate(&schema).is_ok());
        assert!(Predicate::eq(3, 1i64).validate(&schema).is_err());
    }

    #[test]
    fn remap_rewrites_columns() {
        let p = Predicate::eq(1, "x").and(Predicate::eq(0, 2i64));
        let r = p.remap(&|c| c + 10);
        assert!(r.eval(&{
            let mut vals = vec![Value::Null; 12];
            vals[10] = Value::I64(2);
            vals[11] = Value::str("x");
            Tuple::new(vals)
        }));
    }

    #[test]
    fn selectivity_estimates_bounded() {
        let p = Predicate::eq(0, 1i64).or(Predicate::cmp(1, CmpOp::Gt, 2i64));
        let s = p.default_selectivity();
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(Predicate::True.default_selectivity(), 1.0);
    }
}
