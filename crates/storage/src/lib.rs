//! Embedded relational storage engine for the SMILE platform.
//!
//! This crate substitutes for the PostgreSQL instances of the paper's
//! deployment. Each simulated machine hosts one [`engine::Database`], which
//! stores relations as **z-sets** (multisets with signed multiplicities) and
//! records every mutation in a timestamped **delta table** — the equivalent
//! of the paper's WAL-based delta capture module.
//!
//! The signed-delta representation makes asynchronous view maintenance
//! compositional: inserts are `+1` entries, deletes are `-1` entries, and an
//! update is a delete followed by an insert. Rolling a relation back to an
//! earlier timestamp ("compensation", Zhuge et al.) is just subtracting the
//! deltas recorded after that timestamp, and the incremental join identity
//!
//! ```text
//! Δ(A ⋈ B) = ΔA ⋈ B@t0  ∪  A@t1 ⋈ ΔB        (window t0 → t1)
//! ```
//!
//! holds exactly on z-sets, which is what the plan's `Join` edges compute.

#![warn(missing_docs)]
// The size ratchet: a function over the default 100 lines needs an `#[allow]`
// that says why (CI runs clippy with `-D warnings`).
#![warn(clippy::too_many_lines)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod arrangement;
pub mod delta;
pub mod engine;
pub mod join;
pub mod predicate;
pub mod spj;
pub mod table;
pub mod wal;
pub mod zset;

pub use aggregate::{AggFunc, AggregateSpec};
pub use arrangement::{Arrangement, ArrangementCounters, IndexCols, Partition};
pub use delta::{DeltaBatch, DeltaEntry, DeltaTable};
pub use engine::Database;
pub use predicate::Predicate;
pub use spj::SpjQuery;
pub use table::Table;
pub use wal::{ColumnarBatch, Frame};
pub use zset::ZSet;
