//! Umbrella crate re-exporting the full SMILE public API.
//!
//! SMILE is a reproduction of *"SMILE: A Data Sharing Platform for Mobile
//! Apps in the Cloud"* (EDBT 2014). Downstream users normally depend on this
//! crate and use [`platform::Smile`](smile_core::platform) as the entry
//! point; the individual subsystem crates are re-exported for finer-grained
//! use.

pub use smile_core as core;
pub use smile_sim as sim;
pub use smile_storage as storage;
pub use smile_telemetry as telemetry;
pub use smile_types as types;
pub use smile_workload as workload;

pub use smile_core::platform::{FaultReport, Smile, SmileConfig};
pub use smile_sim::FaultProfile;
