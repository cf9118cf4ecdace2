//! The SMILE platform core: sharing plans, cost models, the admission
//! optimizer, multi-sharing plumbing, and the lazy sharing executor.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrates (`smile-storage` for the per-machine databases, `smile-sim`
//! for the machine fleet). The flow mirrors Figure 1 of the paper:
//!
//! 1. A consumer specifies a [`sharing::Sharing`]: base relations, an SPJ
//!    transformation, a staleness SLA and a per-tuple penalty.
//! 2. The **sharing optimizer** ([`optimizer`]) runs the JOINCOST dynamic
//!    program for the cheapest plan (DPD) and, only if that misses the SLA,
//!    the fastest (DPT); it admits the sharing iff one of them fits and
//!    merges the chosen plan into the global plan, where the hill-climbing
//!    plumbing pass ([`multi`]) removes redundant work across sharings.
//! 3. The **sharing executor** ([`executor`]) lazily schedules PUSH
//!    commands through per-machine agents so every MV stays within its SLA,
//!    recalibrating its time model from observed push durations.
//! 4. The **snapshot module** ([`snapshot`]) audits staleness, violations,
//!    tuples moved and dollar cost every five seconds.
//!
//! [`platform::Smile`] ties the pieces together behind one facade.

#![warn(missing_docs)]
// The size ratchet: a function over the default 100 lines needs an `#[allow]`
// that says why (CI runs clippy with `-D warnings`).
#![warn(clippy::too_many_lines)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod executor;
pub mod multi;
pub mod optimizer;
pub mod plan;
pub mod platform;
pub mod sharing;
pub mod snapshot;

pub use catalog::Catalog;
pub use executor::{ExecConfig, RetryPolicy};
pub use multi::MergeCatalog;
/// The name the frozen `benchmark/` harness knows the optimizer by.
pub use optimizer::Optimizer as Reoptimizer;
pub use platform::{Action, ActionKind, AdaptiveConfig, FaultReport, Smile, SmileConfig};
pub use sharing::Sharing;
