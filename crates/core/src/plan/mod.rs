//! Sharing plans: the DAG of update-movement operators.
//!
//! The update mechanism of a sharing is a *sharing plan* (paper §5) — a DAG
//! whose vertices are relations or deltas of relations pinned to machines,
//! and whose edges apply the four operators:
//!
//! * **DeltaToRel** — apply pending delta entries to a relation;
//! * **CopyDelta** — ship delta entries between machines;
//! * **Join** — join a delta window against a snapshot of the other side;
//! * **Union** — merge delta streams.
//!
//! The two properties the optimizer reasons about are the **critical time
//! path** `CP(p, x)` (longest transformation path in seconds for `x` seconds
//! of updates — [`cost::critical_path`]) and the **dollar cost**
//! ([`cost::plan_cost`], Eq. 1 of the paper).

pub mod build;
pub mod cost;
pub mod dag;
pub mod sig;
pub mod timecost;

pub use build::PlanBuilder;
pub use dag::{Edge, EdgeOp, Plan, Vertex, VertexKind};
pub use sig::ExprSig;
pub use timecost::{LinearModel, TimeCostModel};
