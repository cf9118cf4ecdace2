//! Platform-wide error type.

use crate::id::{MachineId, RelationId, SharingId, VertexId};
use crate::time::Timestamp;
use std::fmt;

/// Convenient alias used across all SMILE crates.
pub type Result<T> = std::result::Result<T, SmileError>;

/// Errors surfaced by the SMILE platform and its substrates.
#[derive(Debug, Clone, PartialEq)]
pub enum SmileError {
    /// A relation id was not found in a machine's catalog.
    UnknownRelation(RelationId),
    /// A machine id was not found in the infrastructure.
    UnknownMachine(MachineId),
    /// A sharing id was not found in the platform.
    UnknownSharing(SharingId),
    /// A plan vertex id was not found in a plan DAG.
    UnknownVertex(VertexId),
    /// A tuple did not conform to the target relation's schema.
    SchemaMismatch {
        /// The offending relation.
        relation: RelationId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A sharing was rejected at admission because even its fastest plan
    /// (DPT) cannot be maintained within the requested staleness SLA.
    Inadmissible {
        /// The rejected sharing.
        sharing: SharingId,
        /// Critical time path of the fastest plan found, in seconds.
        critical_path_secs: f64,
        /// The requested staleness SLA, in seconds.
        sla_secs: f64,
    },
    /// The optimizer could not place a plan because machine capacities were
    /// exhausted.
    CapacityExhausted {
        /// Description of the placement that failed.
        detail: String,
    },
    /// A plan DAG failed structural validation (cycle, dangling edge, ...).
    InvalidPlan(String),
    /// WAL bytes could not be decoded.
    WalCorrupt(String),
    /// A query referenced a column that does not exist.
    UnknownColumn(String),
    /// A push operation failed for a recoverable reason — the target
    /// machine is down, a shipped delta was lost, or an acknowledgement
    /// never arrived. The executor retries these with backoff.
    Transient {
        /// What failed.
        detail: String,
    },
    /// A live admission's new vertices cannot start reading a resident input
    /// at the instant they would be seeded at: its log is cut past it, or
    /// holds no consistent state there. Nothing was merged; a later attempt
    /// can succeed.
    SeedUnavailable {
        /// The input's storage slot.
        relation: RelationId,
        /// The instant the admission had to seed at.
        seed: Timestamp,
    },
    /// A delta log was asked to take an entry behind its end: behind its
    /// newest entry or its compaction horizon, or behind an earlier entry
    /// of the same batch. A log only grows at its end, so the batch was
    /// refused whole.
    OutOfOrder {
        /// The entry's timestamp.
        at: Timestamp,
        /// Where the log (with the batch's earlier entries) ended.
        end: Timestamp,
    },
    /// `install` was called on a platform that has already started (by an
    /// earlier `install` or a tick): plumbing cannot move seeded state, so
    /// the platform keeps running as it was.
    AlreadyStarted,
    /// Catch-all for invariant violations with context.
    Internal(String),
}

impl fmt::Display for SmileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmileError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            SmileError::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            SmileError::UnknownSharing(s) => write!(f, "unknown sharing {s}"),
            SmileError::UnknownVertex(v) => write!(f, "unknown plan vertex {v}"),
            SmileError::SchemaMismatch { relation, detail } => {
                write!(f, "schema mismatch on {relation}: {detail}")
            }
            SmileError::Inadmissible {
                sharing,
                critical_path_secs,
                sla_secs,
            } => write!(
                f,
                "sharing {sharing} is inadmissible: fastest plan has critical time path \
                 {critical_path_secs:.3}s > staleness SLA {sla_secs:.3}s"
            ),
            SmileError::CapacityExhausted { detail } => {
                write!(f, "machine capacity exhausted: {detail}")
            }
            SmileError::InvalidPlan(d) => write!(f, "invalid sharing plan: {d}"),
            SmileError::WalCorrupt(d) => write!(f, "corrupt WAL stream: {d}"),
            SmileError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            SmileError::Transient { detail } => write!(f, "transient fault: {detail}"),
            SmileError::SeedUnavailable { relation, seed } => {
                write!(f, "cannot seed as of {seed}: {relation} holds no state to read from there")
            }
            SmileError::OutOfOrder { at, end } => {
                write!(f, "delta entry stamped {at} is behind its log's end {end}")
            }
            SmileError::AlreadyStarted => {
                write!(f, "the platform has already started; install runs only before the first tick")
            }
            SmileError::Internal(d) => write!(f, "internal invariant violated: {d}"),
        }
    }
}

impl std::error::Error for SmileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SmileError::Inadmissible {
            sharing: SharingId::new(4),
            critical_path_secs: 12.5,
            sla_secs: 10.0,
        };
        let s = e.to_string();
        assert!(s.contains("S4"));
        assert!(s.contains("12.500"));
        assert!(s.contains("10.000"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(SmileError::UnknownMachine(MachineId::new(2)));
        assert_eq!(e.to_string(), "unknown machine m2");
    }
}
