//! Fault injection demo: a cross-machine joined sharing survives a seeded
//! schedule of machine crashes, dropped delta batches and lost
//! acknowledgements. Prints the fault report and what the faults cost.
//!
//! Usage: `cargo run --release --example fault_tolerance [seed] [drop_prob]`

use smile::core::catalog::BaseStats;
use smile::storage::join::JoinOn;
use smile::storage::{DeltaBatch, DeltaEntry, Predicate, SpjQuery};
use smile::types::{tuple, Column, ColumnType, MachineId, Schema, SimDuration};
use smile::{FaultProfile, Smile, SmileConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(42);
    let drop: f64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(0.05);

    let mut config = SmileConfig::with_machines(2);
    config.faults = FaultProfile::chaos(seed);
    config.faults.delta_drop = drop;
    let mut smile = Smile::new(config);

    let users = smile.register_base(
        "users",
        Schema::new(
            vec![Column::new("uid", ColumnType::I64)],
            vec![0],
        ),
        MachineId::new(0),
        BaseStats {
            update_rate: 5.0,
            cardinality: 100.0,
            tuple_bytes: 16.0,
            distinct: vec![100.0],
        },
    )?;
    let posts = smile.register_base(
        "posts",
        Schema::new(
            vec![
                Column::new("uid", ColumnType::I64),
                Column::new("post", ColumnType::I64),
            ],
            vec![0],
        ),
        MachineId::new(1),
        BaseStats {
            update_rate: 5.0,
            cardinality: 100.0,
            tuple_bytes: 16.0,
            distinct: vec![100.0, 50.0],
        },
    )?;

    let query = SpjQuery::scan(users).join(posts, JoinOn::on(0, 0), Predicate::True);
    let feed = smile.submit("timeline", query, SimDuration::from_secs(20), 0.01)?;
    smile.install()?;

    // Five simulated minutes of updates while machines crash and batches
    // drop, then a quiet minute for recovery to finish.
    for s in 0..300i64 {
        let now = smile.now();
        smile.ingest(
            users,
            DeltaBatch {
                entries: vec![DeltaEntry::insert(tuple![s % 20], now)],
            },
        )?;
        smile.ingest(
            posts,
            DeltaBatch {
                entries: vec![DeltaEntry::insert(tuple![s % 20, s], now)],
            },
        )?;
        smile.step()?;
    }
    smile.run_idle(SimDuration::from_secs(60))?;

    let report = smile.fault_report();
    println!("fault report (seed {seed}, drop {drop}):");
    println!("{report:#?}");

    let got = smile.mv_contents(feed)?;
    let want = smile.expected_mv_contents(feed)?;
    let exact = got.sorted_entries() == want.sorted_entries();
    println!(
        "MV exact after recovery: {exact} ({} tuples)",
        got.cardinality()
    );
    println!(
        "sharing dollars: {:.4} (of which SLA penalties: {:.4})",
        smile.sharing_dollars(feed),
        smile.cluster.ledger.penalty(feed)
    );
    if !exact {
        return Err("MV diverged from ground truth".into());
    }
    Ok(())
}
