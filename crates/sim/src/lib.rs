//! Deterministic discrete-event cloud simulator for the SMILE platform.
//!
//! This crate substitutes for the paper's physical testbed: six EC2-class
//! machines, each running one database, connected by a network and a pub/sub
//! bus, with a periodically synchronized distributed clock. Experiments
//! measure staleness, SLA violations and dollar cost as functions of update
//! rate and placement, so the simulator models exactly the things those
//! metrics depend on:
//!
//! * **machines** with single-server FIFO CPU queues and outbound NICs with
//!   finite bandwidth — contention and queueing delays emerge naturally;
//! * **resource metering** of CPU-seconds, network bytes and disk
//!   byte-seconds, attributed per sharing and priced with the paper's EC2
//!   price sheet ($0.34/h instance, $0.01/GB transfer, $0.11/GB-month EBS);
//! * a **mailbox** with delivery latency carrying the agents' heartbeats
//!   to the executor;
//! * a **distributed clock** with bounded per-machine skew and periodic
//!   resynchronization;
//! * a generic **event queue** with deterministic FIFO tie-breaking, so
//!   every simulation run is exactly reproducible;
//! * seeded **fault injection** — machine crash/restart schedules, delta
//!   and message loss, duplication and latency spikes — so recovery paths
//!   can be exercised reproducibly.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod cluster;
pub mod event;
pub mod faults;
pub mod machine;
pub mod mailbox;
pub mod meter;
pub mod pricing;

pub use clock::DistributedClock;
pub use cluster::{Cluster, MachineState};
pub use event::EventQueue;
pub use faults::{FaultCounters, FaultEvent, FaultInjector, FaultProfile};
pub use machine::{Machine, MachineConfig};
pub use mailbox::Mailbox;
pub use meter::{ResourceUsage, UsageLedger, WaveMeter};
pub use pricing::PriceSheet;
