//! Common vocabulary types for the SMILE data sharing platform.
//!
//! This crate defines the identifiers, scalar values, tuples, relation
//! schemas, simulated timestamps and error types shared by every other crate
//! in the workspace. It deliberately has no dependencies so that substrate
//! crates (storage engine, simulator, workload generator) and the core
//! platform can all agree on these types without version friction.
//!
//! The paper's platform runs across several machines, each hosting one
//! database instance; relations, deltas of relations and materialized views
//! are all *vertices pinned to machines*, and time is tracked with a
//! periodically synchronized distributed clock. The types here mirror that
//! model: [`MachineId`]/[`RelationId`] name the placement grid, and
//! [`Timestamp`] is the simulated wall-clock used for staleness accounting.

#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod id;
pub mod key;
pub mod schema;
pub mod time;
pub mod tuple;
pub mod value;

pub use error::{Result, SmileError};
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use id::{MachineId, RelationId, SharingId, VertexId};
pub use key::Key;
pub use schema::{Column, ColumnType, Schema};
pub use time::{SimDuration, Timestamp};
pub use tuple::Tuple;
pub use value::Value;
