//! Wake soundness of the push calendar on randomized schedules.
//!
//! `Executor::plan_calendar` asserts, in this crate's unit-test build, that
//! no slot it leaves asleep would fire or defer (`assert_sleepers_idle`).
//! Every unit test that ticks an executor exercises that assertion; the
//! property here drives it across SLA mixes, ingest/heartbeat schedules,
//! seeded chaos and clock skew, and the long-SLA fleet below through a
//! feedback spike to the inflation clamp, where slots asleep under a live
//! inflation bound must wake and wakes must stay proportional to pushes.

use super::calendar::tests::sleeping_under_bound;
use crate::catalog::BaseStats;
use crate::plan::timecost::MAX_INFLATION;
use crate::platform::{Smile, SmileConfig};
use proptest::prelude::*;
use smile_sim::{DistributedClock, FaultProfile};
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_storage::join::JoinOn;
use smile_storage::{Predicate, SpjQuery};
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration, Timestamp,
};

/// A randomized application update.
#[derive(Clone, Debug)]
enum Op {
    InsertLeft { k: i64, v: i64 },
    InsertRight { k: i64, v: i64 },
    DeleteLeftByKey { k: i64 },
}

/// One sharing of the schedule: query shape and staleness SLA in seconds.
type SchedSharing = (u8, u64);

fn arb_sched_case() -> impl Strategy<Value = (Vec<SchedSharing>, Vec<Vec<Op>>, u64, u8)> {
    (
        proptest::collection::vec((0u8..4, 4u64..30), 1..4),
        // Ingest/heartbeat schedule; an empty tick still ticks the platform
        // (heartbeats advance, windows stay), which is exactly the
        // mostly-idle regime the calendar sleeps through.
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    ((0i64..8), (0i64..4)).prop_map(|(k, v)| Op::InsertLeft { k, v }),
                    ((0i64..8), (0i64..4)).prop_map(|(k, v)| Op::InsertRight { k, v }),
                    (0i64..8).prop_map(|k| Op::DeleteLeftByKey { k }),
                ],
                0..4,
            ),
            1..40,
        ),
        // Fault-schedule selector; 0 runs fault-free.
        0u64..4,
        // Clock-skew selector: perfect, mild, heavy.
        0u8..3,
    )
}

/// Keyless two-column relation: the generator may insert duplicates.
/// `update_rate` is what admission and the critical-path estimates assume.
fn register(smile: &mut Smile, name: &str, machine: u32, update_rate: f64) -> RelationId {
    let schema = Schema::new(
        vec![
            Column::new("k", ColumnType::I64),
            Column::new("v", ColumnType::I64),
        ],
        vec![],
    );
    let stats = BaseStats {
        update_rate,
        cardinality: 50.0,
        tuple_bytes: 16.0,
        distinct: vec![8.0, 4.0],
    };
    smile
        .register_base(name, schema, MachineId::new(machine), stats)
        .unwrap()
}

fn query(left: RelationId, right: RelationId, shape: u8) -> SpjQuery {
    match shape {
        0 => SpjQuery::scan(left).join(right, JoinOn::on(0, 0), Predicate::True),
        1 => SpjQuery::scan(left).join(right, JoinOn::on(0, 0), Predicate::eq(1, 1i64)),
        2 => SpjQuery::select(left, Predicate::eq(1, 1i64)).join(
            right,
            JoinOn::on(0, 0),
            Predicate::True,
        ),
        _ => SpjQuery::scan(right),
    }
}

/// Drives one schedule; the assertion under test fires inside `step`.
/// Returns the number of completed pushes.
fn run_sched(sharings: &[SchedSharing], ticks: &[Vec<Op>], chaos: u64, skew: u8) -> usize {
    let mut config = SmileConfig::with_machines(2);
    if chaos > 0 {
        config.faults = FaultProfile::chaos(chaos * 1000 + 7);
    }
    let mut smile = Smile::new(config);
    let left = register(&mut smile, "left", 0, 4.0);
    let right = register(&mut smile, "right", 1, 4.0);
    let skewed = |drift_ms, period_s| {
        DistributedClock::with_skew(
            2,
            SimDuration::from_millis(drift_ms),
            SimDuration::from_secs(period_s),
        )
    };
    match skew {
        0 => {}
        1 => smile.cluster.clock = skewed(20, 10),
        _ => smile.cluster.clock = skewed(200, 5),
    }
    let mut admitted = 0;
    for (i, &(shape, sla)) in sharings.iter().enumerate() {
        let q = query(left, right, shape);
        if smile
            .submit(&format!("s{i}"), q, SimDuration::from_secs(sla), 0.001)
            .is_ok()
        {
            admitted += 1;
        }
    }
    if admitted == 0 {
        return 0;
    }
    smile.install().unwrap();

    // Track live left rows so deletes target existing tuples.
    let mut live: Vec<(i64, i64)> = Vec::new();
    for ops in ticks {
        let now = smile.now();
        let mut lbatch = Vec::new();
        let mut rbatch = Vec::new();
        for op in ops {
            match op {
                Op::InsertLeft { k, v } => {
                    live.push((*k, *v));
                    lbatch.push(DeltaEntry::insert(tuple![*k, *v], now));
                }
                Op::InsertRight { k, v } => {
                    rbatch.push(DeltaEntry::insert(tuple![*k, *v], now));
                }
                Op::DeleteLeftByKey { k } => {
                    if let Some(pos) = live.iter().position(|(lk, _)| lk == k) {
                        let (lk, lv) = live.swap_remove(pos);
                        lbatch.push(DeltaEntry::delete(tuple![lk, lv], now));
                    }
                }
            }
        }
        if !lbatch.is_empty() {
            smile.ingest(left, DeltaBatch { entries: lbatch }).unwrap();
        }
        if !rbatch.is_empty() {
            smile.ingest(right, DeltaBatch { entries: rbatch }).unwrap();
        }
        smile.step().unwrap();
    }
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    smile.executor.as_ref().unwrap().push_records.len()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// On any random SLA mix, heartbeat/ingest schedule, fault schedule
    /// and clock skew, every tick's sleeping slots are ones the guard
    /// chain neither fires nor defers.
    #[test]
    fn calendar_never_sleeps_through_a_due_push(
        (sharings, ticks, chaos, skew) in arb_sched_case()
    ) {
        run_sched(&sharings, &ticks, chaos, skew);
    }
}

/// The property above is not vacuous: a schedule with data and a short SLA
/// completes pushes, so slots did sleep and wake under the assertion.
#[test]
fn soundness_schedule_completes_pushes() {
    let ticks: Vec<Vec<Op>> = (0..30)
        .map(|s| {
            vec![
                Op::InsertLeft { k: s % 8, v: s % 4 },
                Op::InsertRight { k: s % 8, v: 1 },
            ]
        })
        .collect();
    assert!(run_sched(&[(0, 6), (3, 20)], &ticks, 2, 1) > 0);
}

/// A fleet of nine joins at SLAs of 40–96 s over bases declared at 100
/// updates/s, so a critical path at the inflation clamp outgrows the SLA
/// and every slot near firing sleeps under a live inflation bound. A few
/// rows are fed per tick; the pushes that move them are far faster than
/// the declared rate predicts, which keeps the learned inflation at 1.
fn long_sla_fleet() -> (Smile, RelationId, RelationId) {
    let mut smile = Smile::new(SmileConfig::with_machines(2));
    let left = register(&mut smile, "left", 0, 100.0);
    let right = register(&mut smile, "right", 1, 100.0);
    for i in 0..9 {
        let q = query(left, right, (i % 3) as u8);
        let sla = SimDuration::from_secs(40 + 7 * i);
        smile.submit(&format!("s{i}"), q, sla, 0.001).unwrap();
    }
    smile.install().unwrap();
    (smile, left, right)
}

fn feed_fleet(smile: &mut Smile, left: RelationId, right: RelationId, ticks: u64) {
    for _ in 0..ticks {
        let now = smile.now();
        let k = ((now - Timestamp::ZERO).as_secs_f64() as i64) % 8;
        let row = |v| DeltaBatch {
            entries: vec![DeltaEntry::insert(tuple![k, v], now)],
        };
        smile.ingest(left, row(1)).unwrap();
        smile.ingest(right, row(2)).unwrap();
        smile.step().unwrap();
    }
}

/// Drives the executor's own model to the inflation clamp, as a run of
/// pushes that each took 50× their prediction would.
fn spike_inflation(smile: &mut Smile) {
    let model = &mut smile.executor.as_mut().unwrap().model;
    let predicted = SimDuration::from_millis(10);
    while model.inflation() < MAX_INFLATION {
        model.observe(predicted, predicted * 1_000);
    }
}

/// A slot asleep under a live inflation bound is woken when feedback
/// passes it: after a spike to the clamp, every tick's sleepers still pass
/// `assert_sleepers_idle`. Without `wake_over`, a slot that slept under
/// `1.25×` an inflation of 1 sleeps through the pushes the spike makes due.
#[test]
fn an_inflation_spike_wakes_slots_sleeping_under_its_bound() {
    let (mut smile, left, right) = long_sla_fleet();
    feed_fleet(&mut smile, left, right, 150);
    let ex = smile.executor.as_ref().unwrap();
    assert_eq!(ex.model.inflation(), 1.0);
    let asleep = sleeping_under_bound(&ex.cal, |id| ex.sharings.get(&id).map(|rt| rt.slot.get()));
    assert!(asleep > 0, "no slot sleeps under a live bound");
    spike_inflation(&mut smile);
    feed_fleet(&mut smile, left, right, 30);
}

/// How many calendar wakes a push may cost on the long-SLA fleet after a
/// spike: about 8 with per-slot bounds. A global bound ratcheted up to the
/// clamp holds every slot at the clamp's projection for the rest of the
/// run, which wakes it on every tick of the last ≈ 50·CP seconds before
/// each push: 51 per push on this fleet.
const WAKES_PER_PUSH: f64 = 12.0;

/// Wakes stay proportional to pushes through an inflation spike to the
/// clamp: once feedback decays, slots sleep under the live inflation's
/// bound again.
#[test]
fn wakes_per_push_stay_bounded_after_an_inflation_spike() {
    let (mut smile, left, right) = long_sla_fleet();
    feed_fleet(&mut smile, left, right, 100);
    spike_inflation(&mut smile);
    let ex = smile.executor.as_ref().unwrap();
    let (wakes0, pushes0) = (ex.ctr_cal_wakes.get(), ex.push_records.len());
    feed_fleet(&mut smile, left, right, 600);
    let ex = smile.executor.as_ref().unwrap();
    let wakes = (ex.ctr_cal_wakes.get() - wakes0) as f64;
    let pushes = (ex.push_records.len() - pushes0) as f64;
    assert!(pushes >= 50.0, "{pushes} pushes");
    assert!(
        wakes <= WAKES_PER_PUSH * pushes,
        "{wakes} wakes for {pushes} pushes"
    );
}
