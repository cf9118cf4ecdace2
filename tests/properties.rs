//! Property-based integration tests over the whole platform: random
//! workloads and random push schedules must never break the platform's two
//! central invariants — incremental maintenance is exact, and pushes are
//! idempotent/monotone.

mod common;

use common::scenario::*;
use common::{fleet, stats, Base};
use proptest::prelude::*;
use smile::core::platform::{Smile, SmileConfig};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::{join_zsets, JoinOn};
use smile::storage::{Database, Predicate, SpjQuery, ZSet};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration, SmileError, Timestamp,
    Tuple,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Lifecycles: seeded scenarios (`common::scenario`) — duplicate queries over
// distinct pins admitted before `install` and live, retired and migrated,
// fed inserts, duplicate inserts and deletes, with hill climbing on or off,
// under faults or none — run through the checker. A failing case shrinks
// to a short script before it reports.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After any drawn lifecycle and the executor's own push schedule, every
    /// served MV equals a from-scratch SPJ evaluation as of its timestamp,
    /// and the checker's resource clauses hold.
    #[test]
    fn incremental_maintenance_is_exact(scenario in arb_scenario()) {
        scenario.verify(|s| s.run().map(drop))?;
    }

    /// The same lifecycle at twice the executor's tick cadence (twice the
    /// scheduling decisions) ends with the same MV contents — push
    /// scheduling affects freshness, never correctness. Sharings are matched
    /// by admission attempt, and when neither cadence refused one both serve
    /// the same ones; every attempt served at both is compared, whatever
    /// join order each cadence's migrations re-planned it to.
    #[test]
    fn push_schedule_does_not_change_contents(scenario in arb_scenario()) {
        scenario.verify(|s| {
            let contents = |tick_ms| {
                let mut config = s.config();
                config.exec.tick = SimDuration::from_millis(tick_ms);
                let run = s.run_with(config, |_| Ok(()))?;
                let smile = &run.smile;
                let mv = |id| smile.mv_contents(id).unwrap().sorted_entries();
                let served = run.admitted.iter().map(|id| id.filter(|id| run.served.contains(id)));
                let served = served.enumerate().filter_map(|(i, id)| Some((i, mv(id?))));
                Ok::<_, String>((run.admitted.contains(&None), served.collect::<BTreeMap<_, _>>()))
            };
            let ((slow_refused, slow), (fast_refused, fast)) = (contents(1000)?, contents(500)?);
            if !slow_refused && !fast_refused && slow.keys().ne(fast.keys()) {
                let (s, f) = (slow.keys(), fast.keys());
                return Err(format!("attempts {s:?} served at 1 s, {f:?} at 0.5 s"));
            }
            let mut compared = 0;
            for (i, mv) in &slow {
                match fast.get(i) {
                    Some(theirs) if theirs != mv => {
                        return Err(format!("attempt {i}'s MV depends on the tick cadence"));
                    }
                    Some(_) => compared += 1,
                    None => {}
                }
            }
            match compared {
                0 if !slow.is_empty() => Err("no MV served at both cadences compared".into()),
                _ => Ok(()),
            }
        })?;
    }
}

proptest! {
    // Each case runs twice.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Sharings join and leave a running platform, dedup'ing onto whatever
    /// the plan holds — a twin's half-join pair, a delta copy another sharing
    /// ships, the inert chain a retired one left. The checker holds after the
    /// drain, and the same scenario run twice is byte-identical (invariant 8).
    #[test]
    fn live_lifecycles_keep_every_served_mv_exact(scenario in arb_scenario()) {
        scenario.verify(Scenario::check)?;
    }
}

/// ROADMAP item 1, root cause 2: a twin admitted live dedups into a
/// half-join pair whose coverage lags `now`. Seeded as of `now`, its chain
/// lost the cross-term `ΔL(now, t] ⋈ ΔR(T_pair, now]`, stamped inside the
/// lag; it is seeded as of the pair's coverage now.
#[test]
fn live_twin_attaching_to_a_lagging_pair_is_exact() {
    let scenario = Scenario {
        machines: 5,
        bases: vec![(4.0, 1e3, 1e3), (4.0, 1e3, 1e3)],
        hill_climb: false,
        faults: Off,
        adaptive: false,
        sharings: vec![
            Spec { query: JoinEq(0, 1, 2), sla: 300, pin: Some(2) },
            Spec { query: JoinEq(0, 1, 2), sla: 302, pin: Some(3) },
        ],
        initial: vec![0],
        script: vec![Ticks(300, 1), Admit(1), Ticks(300, 2)],
    };
    scenario.run().unwrap();
}

/// The soak's fleet: six machines, four bases, eight sharings over four
/// queries that repeat over distinct pins, chaos, hill climbing and the
/// adaptive actuator; `initial` admitted before `install`, then `script`.
fn soak(initial: Vec<usize>, script: Vec<Step>) -> Scenario {
    let sharings = (0..8).map(|i| Spec {
        query: [JoinEq(0, 1, 2), Chain(0, 1, 2, 5), Join(2, 3), Count(1, 3)][i % 4],
        sla: [8, 15, 30][i % 3],
        pin: Some(i as u32 % 6),
    });
    Scenario {
        machines: 6,
        bases: vec![(4.0, 60.0, 12.0), (30.0, 1e3, 12.0), (1.0, 60.0, 12.0), (4.0, 1e3, 12.0)],
        hill_climb: true,
        faults: Chaos(7),
        adaptive: true,
        sharings: sharings.collect(),
        initial,
        script,
    }
}

/// A simulated day: live churn every five minutes (admissions, retirements,
/// migrations) under chaos, with the checker after every step and the
/// drain. Release only: CI runs it.
#[test]
#[ignore = "a simulated day; CI runs it in release"]
fn a_simulated_day_under_chaos_keeps_every_invariant() {
    let churn = (0..288).flat_map(|i| {
        let event = [Admit(i % 8), Migrate(i, (i % 6) as u32), Retire(i)][i % 3];
        [Ticks(300, i as u64), event]
    });
    let day = soak((0..6).collect(), churn.collect());
    let run = day.verify(|s| s.run_checked().map(drop));
    assert_eq!(run, Ok(()));
}

// What the generator and the soak found, each as a short script on the
// soak's fleet that fails with its fix reverted (searched and shrunk on a
// scratch copy; the soak's own scripts ran thousands of ticks).

/// A push applied a sharing's MV through an instant inside a window a twin
/// had already pushed the chain they share through: no state of the
/// half-join output. The request now goes to the window's end.
#[test]
fn a_push_behind_a_shared_chain_goes_to_its_end() {
    let script = vec![Ticks(136, 4400), Admit(1), Ticks(85, 4402), Migrate(3, 2), Ticks(137, 4403)];
    Scenario { faults: Chaos(872), ..soak(vec![1, 3, 4, 5], script) }.run_checked().unwrap();
}

/// A migration's new chain read a shared log from its own commit point,
/// before the log's horizon. A migration now waits until every log it reads
/// reaches back.
#[test]
fn a_migration_never_reads_a_log_from_before_its_horizon() {
    soak(vec![0, 1, 3], vec![Ticks(300, 234), Admit(2), Ticks(150, 237)]).run_checked().unwrap();
}

/// A migration (the actuator's) seeded its new chain at its commit point,
/// inside a window a twin had pushed the shared join output through. It now
/// waits for an instant that ends one.
#[test]
fn a_migration_never_seeds_inside_a_shared_window() {
    let scenario = Scenario { faults: Chaos(116), ..soak(vec![0, 2, 4], vec![Ticks(194, 9900)]) };
    scenario.run_checked().unwrap();
}

/// Hill climbing fed one aggregate twin's MV from the other's delta stream,
/// which is written against the other's view rows and so replayed stale
/// ones. An aggregate stream is no plumbing source now.
#[test]
fn aggregate_twins_stay_exact_after_hill_climbing() {
    let scenario = Scenario {
        machines: 4,
        bases: vec![(30.0, 1e3, 12.0), (4.0, 1e3, 12.0)],
        hill_climb: true,
        faults: Off,
        adaptive: false,
        sharings: vec![
            Spec { query: Count(1, 0), sla: 9, pin: Some(2) },
            Spec { query: Count(1, 0), sla: 6, pin: Some(3) },
        ],
        initial: vec![0, 1],
        script: vec![Ticks(32, 962), Ticks(8, 313), Ticks(7, 878)],
    };
    scenario.run().unwrap();
}

/// The billed penalty total summed a hash map, in an order that changed
/// from process to process (invariant 8); it sums in sharing order now.
#[test]
fn penalties_sum_the_same_way_every_run() {
    let scenario = Scenario {
        machines: 3,
        bases: vec![(30.0, 60.0, 12.0), (30.0, 1e3, 12.0)],
        hill_climb: false,
        faults: AckLoss(566),
        adaptive: false,
        sharings: vec![
            Spec { query: Count(0, 1), sla: 3, pin: Some(0) },
            Spec { query: JoinEq(0, 1, 1), sla: 10, pin: Some(1) },
            Spec { query: Count(0, 1), sla: 10, pin: Some(0) },
            Spec { query: JoinEq(0, 1, 1), sla: 5, pin: None },
        ],
        initial: vec![1, 0, 2],
        script: vec![Ticks(32, 372), Ticks(24, 466), Admit(3)],
    };
    scenario.check().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Delta application is idempotent under retries: re-applying a push
    /// batch with the same batch id (the ack-was-lost case) changes nothing
    /// — the deduped database is byte-identical to one that saw each batch
    /// exactly once.
    #[test]
    fn delta_application_is_idempotent(
        batches in proptest::collection::vec(
            proptest::collection::vec(((0i64..8), (0i64..4)), 1..6),
            1..12,
        ),
        dup_mask in proptest::collection::vec(any::<bool>(), 12..13),
    ) {
        let rel = RelationId::new(0);
        let schema = Schema::new(
            vec![
                Column::new("k", ColumnType::I64),
                Column::new("v", ColumnType::I64),
            ],
            vec![],
        );
        let mut once = Database::new();
        let mut retried = Database::new();
        once.create_relation(rel, schema.clone()).unwrap();
        retried.create_relation(rel, schema).unwrap();

        let mut from = Timestamp::ZERO;
        for (i, rows) in batches.iter().enumerate() {
            let to = from + SimDuration::from_secs(1);
            let batch = DeltaBatch {
                entries: rows
                    .iter()
                    .map(|(k, v)| DeltaEntry::insert(tuple![*k, *v], to))
                    .collect(),
            };
            let id = i as u64;
            once.append_delta_dedup(rel, batch.clone(), id, 0, to).unwrap();
            prop_assert!(
                retried.append_delta_dedup(rel, batch.clone(), id, 0, to).unwrap(),
                "first application of batch {} refused", i
            );
            if dup_mask[i] {
                // The retry after a lost ack: same window, same id.
                prop_assert!(
                    !retried.append_delta_dedup(rel, batch, id, 0, to).unwrap(),
                    "duplicate batch {} was applied twice", i
                );
            }
            from = to;
        }
        once.apply_pending(rel, from).unwrap();
        retried.apply_pending(rel, from).unwrap();
        prop_assert_eq!(
            once.snapshot_at(rel, from).unwrap().sorted_entries(),
            retried.snapshot_at(rel, from).unwrap().sorted_entries()
        );
        prop_assert_eq!(
            once.relation(rel).unwrap().table.rows().collect::<ZSet>().cardinality(),
            retried.relation(rel).unwrap().table.rows().collect::<ZSet>().cardinality()
        );
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: arrangement-backed incremental maintenance vs a
// from-scratch SPJ recomputation, on randomized workloads with deletes,
// negative weights and a multi-column join key. Run at 256 cases — this
// suite is storage-level and fast.
// ---------------------------------------------------------------------------

/// One randomized update: which side, the two key columns, a payload and a
/// signed weight (negative = delete / over-delete).
type RawOp = (bool, i64, i64, i64, i64);

fn arb_update_ticks() -> impl Strategy<Value = Vec<Vec<RawOp>>> {
    // Tiny key domain on a two-column key to force collisions, join matches
    // and weight churn; weights in -2..3 exercise deletes and negative
    // multiplicities.
    proptest::collection::vec(
        proptest::collection::vec(
            (any::<bool>(), 0i64..4, 0i64..3, 0i64..4, -2i64..3),
            0..8,
        ),
        1..16,
    )
}

/// Probe-joins a consolidated delta against an arranged table:
/// `Δ ⋈ R@now` through `Table::probe_index` (which routes through the
/// relation's shared arrangement and meters hits/misses).
fn probe_join(
    delta: &ZSet,
    db: &Database,
    rel: RelationId,
    key_cols: &[usize],
    delta_on_left: bool,
) -> ZSet {
    let table = &db.relation(rel).unwrap().table;
    let mut out = ZSet::new();
    for (t, w) in delta.iter() {
        let key = t.project(key_cols);
        let bucket = table
            .probe_index(key_cols, &key)
            .expect("arrangement installed by the test");
        for (row, &rw) in bucket {
            let joined: Tuple = if delta_on_left {
                t.concat(row)
            } else {
                row.concat(t)
            };
            out.add(joined, w * rw);
        }
    }
    out
}

fn three_cols(names: [&str; 3]) -> Schema {
    Schema::new(
        vec![
            Column::new(names[0], ColumnType::I64),
            Column::new(names[1], ColumnType::I64),
            Column::new(names[2], ColumnType::I64),
        ],
        vec![],
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After every batch, the incrementally maintained join MV — maintained
    /// once through arrangement probes and once through the legacy
    /// scan-join path — equals a from-scratch SPJ recomputation over the
    /// relations' current contents.
    #[test]
    fn arrangement_maintenance_matches_differential_oracle(ticks in arb_update_ticks()) {
        let left = RelationId::new(0);
        let right = RelationId::new(1);
        let key_cols: [usize; 2] = [0, 1];
        let on = JoinOn::on_all(&[(0, 0), (1, 1)]);

        let mut db = Database::new();
        db.create_relation(left, three_cols(["k1", "k2", "v"])).unwrap();
        db.create_relation(right, three_cols(["k1", "k2", "w"])).unwrap();
        db.ensure_index(left, &key_cols).unwrap();
        db.ensure_index(right, &key_cols).unwrap();

        let oracle_query = SpjQuery::scan(left).join(right, on.clone(), Predicate::True);

        // Incrementally maintained MVs: one via arrangement probes, one via
        // the scan join (arrangements disabled).
        let mut mv_arranged = ZSet::new();
        let mut mv_scan = ZSet::new();

        for (tick, ops) in ticks.iter().enumerate() {
            let ts = Timestamp::from_secs(tick as u64 + 1);
            let mut lbatch = Vec::new();
            let mut rbatch = Vec::new();
            for &(is_left, k1, k2, v, w) in ops {
                if w == 0 {
                    continue;
                }
                let e = DeltaEntry { tuple: tuple![k1, k2, v], weight: w, ts };
                if is_left { lbatch.push(e) } else { rbatch.push(e) }
            }
            let dl = DeltaBatch { entries: lbatch };
            let dr = DeltaBatch { entries: rbatch };
            let dl_z = dl.to_zset();
            let dr_z = dr.to_zset();

            // Snapshot of the right side *before* its delta lands, for the
            // scan path (the arrangement path reads it live instead).
            let right_old: ZSet = db.relation(right).unwrap().table.rows().collect();

            // ΔL ⋈ R@old: probe the right arrangement before applying ΔR.
            let delta_arr_1 = probe_join(&dl_z, &db, right, &key_cols, true);
            db.ingest(left, dl).map_err(|e| e.to_string())?;
            // L@new ⋈ ΔR: probe the left arrangement after ΔL applied.
            let delta_arr_2 = probe_join(&dr_z, &db, left, &key_cols, false);

            let left_new: ZSet = db.relation(left).unwrap().table.rows().collect();
            db.ingest(right, dr).map_err(|e| e.to_string())?;

            let mut delta_arr = delta_arr_1;
            delta_arr.merge_owned(delta_arr_2);
            mv_arranged.merge_owned(delta_arr);

            // Same identity through the legacy scan joins.
            let mut delta_scan = join_zsets(&dl_z, &right_old, &on);
            delta_scan.merge_owned(join_zsets(&left_new, &dr_z, &on));
            mv_scan.merge_owned(delta_scan);

            // From-scratch SPJ recomputation over current contents.
            let oracle = oracle_query.evaluate(&db).map_err(|e| e.to_string())?;
            prop_assert_eq!(
                mv_arranged.sorted_entries(),
                oracle.sorted_entries(),
                "arrangement-maintained MV diverged at tick {}",
                tick
            );
            prop_assert_eq!(
                mv_scan.sorted_entries(),
                oracle.sorted_entries(),
                "scan-maintained MV diverged at tick {}",
                tick
            );
        }

        // The arrangements really were maintained incrementally (never
        // rebuilt) and served every probe above.
        let counters = db.arrangement_counters();
        let total_updates: usize = ticks.iter().flatten().filter(|op| op.4 != 0).count();
        prop_assert_eq!(counters.maintained, total_updates as u64);
        prop_assert_eq!(counters.built_rows, 0);
    }
}

// ---------------------------------------------------------------------------
// Telemetry histogram law: the log2 histogram keeps exact count/sum/min/max
// alongside its buckets.
// ---------------------------------------------------------------------------

use smile::telemetry::instrument::{bucket_bounds, HISTOGRAM_BUCKETS};
use smile::telemetry::Histogram;

/// Samples spanning the full bucket range: small values, exact powers of
/// two, off-by-one boundary values and huge outliers.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0u64),
            1u64..1024,
            (0u32..64).prop_map(|e| 1u64 << e),
            (1u32..64).prop_map(|e| (1u64 << e) - 1),
            any::<u64>(),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Bucket counts sum to `count`; `sum`/`min`/`max` are exact; every
    /// sample landed in the bucket whose bounds contain it.
    #[test]
    fn histogram_stats_are_exact(samples in arb_samples()) {
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert_eq!(s.buckets.len(), HISTOGRAM_BUCKETS);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        let mut expect_sum = 0u64;
        for &v in &samples {
            expect_sum = expect_sum.wrapping_add(v);
        }
        prop_assert_eq!(s.sum, expect_sum);
        prop_assert_eq!(s.min, *samples.iter().min().unwrap());
        prop_assert_eq!(s.max, *samples.iter().max().unwrap());
        // Each non-empty bucket's bounds are honest: rebuild the expected
        // bucket counts from the samples and compare exactly.
        let mut expect_buckets = vec![0u64; HISTOGRAM_BUCKETS];
        for &v in &samples {
            let b = (0..HISTOGRAM_BUCKETS)
                .find(|&i| {
                    let (lo, hi) = bucket_bounds(i);
                    lo <= v && v <= hi
                })
                .unwrap();
            expect_buckets[b] += 1;
        }
        prop_assert_eq!(s.buckets, expect_buckets);
        // Quantiles are bracketed by the exact extrema.
        prop_assert!(s.quantile(0.0) <= s.max);
        prop_assert_eq!(s.quantile(1.0), s.max);
        prop_assert!(s.mean() >= 0.0);
    }
}

// ---------------------------------------------------------------------------
// Admission-state oracle: admission keeps three pieces of state
// incrementally — SHR sets on the merged plan, the staged global plan, and
// committed per-machine utilization. On the lifecycle scenarios, each must
// equal its from-scratch recomputation by functions production also calls
// (`recompute_shr`, a `merge` fold, `machine_utilization`) after every
// admission before `install`, refused or not; the running plan's SHR sets
// after every step once installed; and the checker must hold after the
// drain.
// ---------------------------------------------------------------------------

use smile::core::multi::GlobalPlan;
use smile::core::plan::cost::{machine_utilization, Scope};
use smile::core::plan::dag::VertexKind;
use smile::core::plan::sig::ExprSig;
use std::collections::{HashMap, HashSet};

/// Incremental SHR sets == a clone put through the full rebuild.
fn shr_fresh(plan: &GlobalPlan) -> Result<(), String> {
    let mut rebuilt = plan.clone();
    rebuilt.recompute_shr().unwrap();
    let same = plan.plan.canonical_string() == rebuilt.plan.canonical_string();
    same.then_some(()).ok_or_else(|| "SHR sets diverged from recompute_shr".into())
}

/// Staged committed utilization == a fresh sum over the admitted plans
/// (relative 1e-9 over a 1e-12 floor).
fn committed_fresh(smile: &Smile) -> Result<(), String> {
    let mut fresh: HashMap<MachineId, f64> = HashMap::new();
    for s in smile.sharings() {
        let plan = &smile.planned(s.id).unwrap().plan;
        for (m, u) in machine_utilization(plan, Scope::All, &smile.config.model) {
            *fresh.entry(m).or_default() += u;
        }
    }
    let running = smile.committed_utilization();
    for m in fresh.keys().chain(running.keys()) {
        let (a, b) = (running.get(m).copied().unwrap_or(0.0), fresh.get(m).copied().unwrap_or(0.0));
        if (a - b).abs() > 1e-9 * a.abs().max(b.abs()) + 1e-12 {
            return Err(format!("committed utilization on {m} is {a}, fresh sum {b}"));
        }
    }
    Ok(())
}

fn admission_state_is_fresh(smile: &Smile) -> Result<(), String> {
    let Some(running) = smile.global_plan() else {
        shr_fresh(smile.staged_plan())?;
        committed_fresh(smile)?;
        let mut fold = GlobalPlan::new();
        for s in smile.sharings() {
            fold.merge(s, smile.planned(s.id).unwrap()).unwrap();
        }
        let same = smile.staged_plan().plan.canonical_string() == fold.plan.canonical_string();
        return same.then_some(()).ok_or_else(|| "staged plan diverged from a merge fold".into());
    };
    shr_fresh(running)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn incremental_admission_state_matches_recomputation(scenario in arb_scenario()) {
        scenario.verify(|s| s.run_with(s.config(), admission_state_is_fresh).map(drop))?;
    }
}

// ---------------------------------------------------------------------------
// Lazy admission ≡ §6.2: `plan_admission` searches DPT only when DPD misses
// the SLA. Whatever it returns must be what the rule written out over both
// searches returns — reject if neither fits, DPD if it fits, else DPT; with
// an objective forced, that objective's plan instead, under the same test — on
// two- and three-way queries and drawn pins, committed loads drawn around
// capacity, and SLAs aimed where the rule's arms meet: on, or a microsecond
// either side of, one of the case's own two critical paths.
// ---------------------------------------------------------------------------

use smile::core::optimizer::{Objective, Optimizer, PlannedSharing};
use smile::core::sharing::Sharing;
use smile::types::SharingId;
use std::sync::atomic::{AtomicU32, Ordering};

const LAZY_CASES: u32 = 512;
/// Cases seen; then cases per arm (DPD fits / DPD misses and DPT is taken /
/// nothing fits); then cases where DPD fits and the DPT search fails — the
/// one outcome the lazy rule may change, since §6.2 never reads that result.
static LAZY_DRAWN: [AtomicU32; 5] = [const { AtomicU32::new(0) }; 5];

/// Query shape (the seven of [`lazy_query`]), a literal, an MV pin (0 =
/// unpinned, 1..=4 = machine 0..=3); an SLA in
/// microseconds and where to aim it instead (0..3: around `CP(DPD)`, 3..6:
/// around `CP(DPT)`, else as drawn); committed load per machine as a choice
/// of empty (twice as likely) / a hair under capacity / full.
fn arb_lazy_case() -> impl Strategy<Value = (u8, i64, u8, (u64, u64), Vec<u8>)> {
    let load = proptest::collection::vec(0u8..4, 4..5);
    (0u8..7, 0i64..3, 0u8..5, (4_000u64..14_000, 0u64..8), load)
}

/// Four machines, keyless bases on machines 0 and 1, and a third base on
/// machine 2 so a query can have an intermediate to place.
fn lazy_platform() -> (Smile, [RelationId; 3]) {
    let kv = |name, col, home, rate, card| {
        Base::i64(name, &["k", col], &[], home, stats(rate, card, 16.0, &[8.0, 4.0]))
    };
    let (left, right) = (kv("left", "v", 0, 4.0, 50.0), kv("right", "w", 1, 4.0, 50.0));
    let bases = [left, right, kv("third", "x", 2, 2.0, 30.0)];
    let (smile, rels) = fleet(SmileConfig::with_machines(4), &bases);
    (smile, [rels[0], rels[1], rels[2]])
}

/// Two-way shapes (`left ⋈ right`, filtered on `right.v`, on `left.v`, and
/// a scan of `right`), then three-way ones: a chain `left ⋈ right ⋈
/// third`, the chain filtered and projected (so the final step remaps
/// columns into whatever join order wins), and a star around `left`.
fn lazy_query(rels: [RelationId; 3], shape: u8, lit: i64) -> SpjQuery {
    use common::scenario::{Join, JoinEq, SelectJoin};
    let [left, right, third] = rels;
    let pair = |pred| SpjQuery::scan(left).join(right, JoinOn::on(0, 0), pred);
    match shape {
        0 => Join(0, 1).build(&rels),
        1 => JoinEq(0, 1, lit).build(&rels),
        2 => SelectJoin(0, 1, lit).build(&rels),
        3 => SpjQuery::scan(right),
        4 => pair(Predicate::True).join(third, JoinOn::on(2, 0), Predicate::True),
        5 => pair(Predicate::eq(1, lit))
            .join(third, JoinOn::on(2, 0), Predicate::True)
            .project(vec![1, 3, 5]),
        _ => pair(Predicate::True).join(third, JoinOn::on(0, 0), Predicate::eq(1, lit)),
    }
}

/// A drawn load choice per machine as committed utilization.
fn lazy_committed(load: &[u8]) -> HashMap<MachineId, f64> {
    load.iter()
        .enumerate()
        .map(|(m, &l)| (MachineId::new(m as u32), [0.0, 0.0, 0.9995, 1.0][l as usize]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: LAZY_CASES, ..ProptestConfig::default() })]

    #[test]
    fn lazy_admission_matches_the_selection_rule(
        (shape, lit, pin, (sla_us, aim), load) in arb_lazy_case()
    ) {
        let (smile, bases) = lazy_platform();
        let query = lazy_query(bases, shape, lit);
        let sharing = |sla_us| {
            let sla = SimDuration::from_micros(sla_us);
            Sharing::new(SharingId::new(1), "d", query.clone(), sla, 0.001)
        };
        let pin = pin.checked_sub(1).map(|m| MachineId::new(m as u32));
        let committed = lazy_committed(&load);
        let (model, prices) = (&smile.config.model, &smile.config.prices);
        let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), model, prices);

        let search = |s: &Sharing, objective| opt.plan_with(s, objective, &committed, pin);
        let probe = |objective| {
            search(&sharing(sla_us), objective).map(|p| p.critical_path.as_micros())
        };
        let sharing = sharing(match (probe(Objective::Dollars), probe(Objective::Time)) {
            (Ok(dpd), Ok(_)) if aim < 3 => dpd + aim - 1,
            (Ok(_), Ok(dpt)) if aim < 6 => dpt + aim - 4,
            _ => sla_us,
        });
        let sla = sharing.staleness_sla;

        // §6.2 over two explicit searches: the first plan if it fits, else
        // admit iff the faster of the two fits — with the second plan, or
        // still the first when its objective is forced.
        let (dpd, dpt) = (search(&sharing, Objective::Dollars), search(&sharing, Objective::Time));
        type Searched = Result<PlannedSharing, SmileError>;
        let rule = |first: &Searched, second: &Searched, forced| {
            match (first.clone(), second.clone()) {
                (Err(e), _) => (None, Err(e)),
                (Ok(first), second) if first.critical_path <= sla => {
                    (Some(if second.is_ok() { 1 } else { 4 }), Ok(first))
                }
                (Ok(_), Err(e)) => (None, Err(e)),
                (Ok(first), Ok(second)) => match second.critical_path.min(first.critical_path) {
                    fastest if fastest <= sla => (Some(2), Ok(if forced { first } else { second })),
                    fastest => (Some(3), Err(SmileError::Inadmissible {
                        sharing: sharing.id,
                        critical_path_secs: fastest.as_secs_f64(),
                        sla_secs: sla.as_secs_f64(),
                    })),
                },
            }
        };
        let (arm, _) = rule(&dpd, &dpt, false);
        for (force, (_, want)) in [
            (None, rule(&dpd, &dpt, false)),
            (Some(Objective::Dollars), rule(&dpd, &dpt, true)),
            (Some(Objective::Time), rule(&dpt, &dpd, true)),
        ] {
            let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), model, prices)
                .with_force_objective(force);
            let got = opt.plan_admission(&sharing, committed.clone(), pin);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.plan.canonical_string(), want.plan.canonical_string());
                    prop_assert_eq!(got.mv_machine, want.mv_machine);
                    prop_assert_eq!(got.critical_path, want.critical_path);
                    prop_assert_eq!(got.dollar_cost, want.dollar_cost);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                _ => prop_assert!(
                    false, "forcing {:?} admitted: {}, the rule: {}", force, got.is_ok(), want.is_ok()
                ),
            }
        }

        for slot in arm.into_iter().chain([0]) {
            LAZY_DRAWN[slot].fetch_add(1, Ordering::Relaxed);
        }
        if LAZY_DRAWN[0].load(Ordering::Relaxed) == LAZY_CASES {
            let drawn: Vec<u32> = LAZY_DRAWN.iter().map(|n| n.load(Ordering::Relaxed)).collect();
            eprintln!(
                "[lazy] cases {} | DPD fits {} | DPT taken {} | nothing fits {} \
                 | DPD fits, DPT search fails {}",
                drawn[0], drawn[1], drawn[2], drawn[3], drawn[4]
            );
            let all_drawn = drawn[1..4].iter().all(|&n| n > 0);
            prop_assert!(all_drawn, "an arm of §6.2 was never drawn: {:?}", drawn);
            prop_assert_eq!(drawn[4], 0, "DPD fitted while the DPT search failed");
        }
    }
}

// ---------------------------------------------------------------------------
// A pinned search builds its last layer on the pinned machine only. The
// unpinned search builds it on every machine and keeps the first minimum, so
// through the public API the two are tied together: `plan_with(.., None)`
// must be the first minimum, over the machines in list order, of
// `plan_with(.., Some(m))`. Restricting any *earlier* layer to the pin breaks
// this on the three-way shapes, whose intermediate is free to sit elsewhere.
// ---------------------------------------------------------------------------

const PINNED_CASES: u32 = 64;
const SQUEEZE: f64 = 0.6;
/// Cases seen; searches that placed a join intermediate apart from the MV —
/// the plans a prune of a non-final layer would lose.
static PINNED_DRAWN: [AtomicU32; 2] = [const { AtomicU32::new(0) }; 2];

proptest! {
    #![proptest_config(ProptestConfig { cases: PINNED_CASES, ..ProptestConfig::default() })]

    #[test]
    fn pinned_search_is_the_unpinned_search_restricted(
        (shape, lit, _, (sla_us, _), load) in arb_lazy_case()
    ) {
        let (smile, bases) = lazy_platform();
        let sla = SimDuration::from_micros(sla_us);
        let sharing = Sharing::new(SharingId::new(1), "d", lazy_query(bases, shape, lit), sla, 0.001);
        let machines = smile.cluster.machine_ids();
        let (model, prices) = (&smile.config.model, &smile.config.prices);
        let opt = Optimizer::new(&smile.catalog, machines.clone(), model, prices);
        // The drawn fleet, then a squeezed one: every machine has room for
        // SQUEEZE of what the unconstrained plan loads its busiest machine
        // with, so no machine holds a whole plan and a three-way join's
        // intermediate has to sit apart from its MV.
        let free = opt.plan_with(&sharing, Objective::Dollars, &HashMap::new(), None).unwrap();
        let busiest = machine_utilization(&free.plan, Scope::All, model).into_values().fold(0.0, f64::max);
        let squeezed = machines.iter().map(|&m| (m, 1.0 - SQUEEZE * busiest)).collect();
        for (committed, objective) in [lazy_committed(&load), squeezed]
            .iter()
            .flat_map(|c| [(c, Objective::Dollars), (c, Objective::Time)])
        {
            let metric = |p: &PlannedSharing| match objective {
                Objective::Dollars => p.dollar_cost,
                Objective::Time => p.critical_path.as_secs_f64(),
            };
            let pinned: Vec<_> = machines
                .iter()
                .map(|&m| opt.plan_with(&sharing, objective, committed, Some(m)))
                .collect();
            for (m, planned) in machines.iter().zip(&pinned) {
                match planned {
                    Ok(p) => prop_assert_eq!(p.mv_machine, *m),
                    Err(e) => {
                        let exhausted = matches!(e, SmileError::CapacityExhausted { .. });
                        prop_assert!(exhausted, "pin {} fails with {}", m, e);
                    }
                }
                prop_assert!(committed[m] < 1.0 || planned.is_err(), "an MV sits on full {}", m);
            }
            // `min_by` keeps the first of equal minima, as the search does.
            let want = pinned.iter().flatten().min_by(|a, b| metric(a).total_cmp(&metric(b)));
            match (opt.plan_with(&sharing, objective, committed, None), want) {
                (Ok(got), Some(want)) => {
                    prop_assert_eq!(got.plan.canonical_string(), want.plan.canonical_string());
                    prop_assert_eq!(got.mv_machine, want.mv_machine);
                    prop_assert_eq!(got.critical_path, want.critical_path);
                    prop_assert_eq!(got.dollar_cost.to_bits(), want.dollar_cost.to_bits());
                    let apart = got.plan.vertices().iter().any(|v| {
                        let join = matches!(v.sig, ExprSig::Join { .. });
                        join && v.kind == VertexKind::Relation && v.machine != got.mv_machine
                    });
                    PINNED_DRAWN[1].fetch_add(u32::from(apart), Ordering::Relaxed);
                }
                (Err(e), None) => {
                    prop_assert!(matches!(e, SmileError::CapacityExhausted { .. }), "{}", e);
                }
                (got, want) => prop_assert!(
                    false, "unpinned admitted: {}, some pin admitted: {}", got.is_ok(), want.is_some()
                ),
            }
        }
        if PINNED_DRAWN[0].fetch_add(1, Ordering::Relaxed) + 1 == PINNED_CASES {
            let apart = PINNED_DRAWN[1].load(Ordering::Relaxed);
            eprintln!("[pinned] cases {PINNED_CASES} | searches whose intermediate sits apart {apart}");
            prop_assert!(apart > 0, "no search placed an intermediate apart from its MV");
        }
    }
}

// ---------------------------------------------------------------------------
// Hill climbing ≡ the loop of §7.2 written out: materialize every candidate
// (`apply_plumbing`: rewire, recompute SHR, collect, validate), drop those
// that break an SLA, cost what is left, keep the first of the maxima.
// `hill_climb_filtered` costs a candidate before it collects it and collects
// only one that wins; it must apply the same plumbings in the same order and
// report the same trajectory, costs to the bit.
// ---------------------------------------------------------------------------

use smile::core::multi::{apply_plumbing, enumerate_plumbings, hill_climb_filtered, Plumbing};
use smile::core::plan::timecost::TimeCostModel;
use smile::sim::PriceSheet;

type Trajectory = Vec<(usize, usize, u64)>;

fn reference_hill_climb(
    g: &mut GlobalPlan,
    (model, prices): (&TimeCostModel, &PriceSheet),
    max_iterations: usize,
    allow_join_plumbing: bool,
) -> (Vec<Plumbing>, Trajectory) {
    let point = |g: &GlobalPlan| {
        let cost = g.total_cost(model, prices).to_bits();
        (g.plan.vertex_count(), g.plan.edge_count(), cost)
    };
    let (mut applied, mut trajectory) = (Vec::new(), vec![point(g)]);
    for _ in 0..max_iterations {
        let current_cost = g.total_cost(model, prices);
        let mut best: Option<(f64, Plumbing, GlobalPlan)> = None;
        for cand in enumerate_plumbings(g) {
            if !allow_join_plumbing && matches!(cand, Plumbing::Join { .. }) {
                continue;
            }
            let Ok(next) = apply_plumbing(g, &cand) else { continue };
            if !next.all_slas_hold(model) {
                continue;
            }
            let benefit = current_cost - next.total_cost(model, prices);
            if benefit > 1e-15 && best.as_ref().is_none_or(|(b, _, _)| benefit > *b) {
                best = Some((benefit, cand, next));
            }
        }
        let Some((_, cand, next)) = best else { break };
        *g = next;
        applied.push(cand);
        trajectory.push(point(g));
    }
    (applied, trajectory)
}

/// Climbs clones of `staged` both ways, with and without join plumbing.
/// Returns how many plumbings the full climb applied.
fn assert_hill_climb_matches_reference(
    staged: &GlobalPlan,
    costs: (&TimeCostModel, &PriceSheet),
    max_iterations: usize,
) -> usize {
    let mut applied = 0;
    for allow_join in [false, true] {
        let (mut fast, mut slow) = (staged.clone(), staged.clone());
        let report = hill_climb_filtered(&mut fast, costs.0, costs.1, max_iterations, allow_join);
        let (want_applied, want_trajectory) =
            reference_hill_climb(&mut slow, costs, max_iterations, allow_join);
        assert_eq!(report.applied, want_applied, "allow_join_plumbing = {allow_join}");
        let trajectory: Trajectory =
            report.trajectory.iter().map(|&(v, e, c)| (v, e, c.to_bits())).collect();
        assert_eq!(trajectory, want_trajectory, "allow_join_plumbing = {allow_join}");
        assert_eq!(fast.plan.canonical_string(), slow.plan.canonical_string());
        applied = report.applied.len();
    }
    applied
}

/// The paper's 25 sharings, admitted and merged as `experiments fig13` does.
/// The reference collects all ~600 candidates of every iteration, so the
/// unoptimized profile compares the first two iterations and `--release`
/// (CI) the whole climb.
#[test]
fn hill_climb_matches_the_reference_loop_on_the_paper_sharings() {
    use smile::workload::sharings::paper_sharings;
    use smile::workload::twitter::{standard_setup, TwitterConfig};
    let mut config = SmileConfig::with_machines(6);
    config.hill_climb = false;
    config.capacity = 4.0;
    let mut smile = Smile::new(config);
    let twitter = TwitterConfig {
        assumed_tweet_rate: 1000.0,
        ..TwitterConfig::default()
    };
    let workload = standard_setup(&mut smile, twitter, 2_000).unwrap();
    for (pin, s) in paper_sharings(&workload.rels()).into_iter().enumerate() {
        let m = Some(MachineId::new(pin as u32 % 6));
        smile.submit_pinned(s.app, s.query, SimDuration::from_secs(45), 0.001, m).unwrap();
    }
    let costs = (&TimeCostModel::paper_defaults(), &PriceSheet::ec2_same_region());
    let iterations = if cfg!(debug_assertions) { 2 } else { 128 };
    let applied = assert_hill_climb_matches_reference(smile.staged_plan(), costs, iterations);
    assert!(applied >= iterations.min(10), "only {applied} plumbings applied");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// On the lifecycle scenarios' install-time sharings, staged with hill
    /// climbing off.
    #[test]
    fn hill_climb_matches_the_reference_loop(scenario in arb_scenario()) {
        let mut config = scenario.config();
        config.hill_climb = false;
        let (mut smile, rels) = scenario.platform(config);
        for &i in &scenario.initial {
            scenario.admit(&mut smile, &rels, i)?;
        }
        let costs = (&smile.config.model, &smile.config.prices);
        assert_hill_climb_matches_reference(smile.staged_plan(), costs, 32);
    }
}

// ---------------------------------------------------------------------------
// WAL frames at the landing: both ways a frame can land agree, and a hostile
// frame either decodes to itself or moves no book.

use smile::storage::wal::{self, Frame};
use smile::types::Value;

/// Small scalar domain covering every codec tag, hash-sensitive floats and
/// multi-byte UTF-8.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..5).prop_map(Value::I64),
        (-2i32..3).prop_map(|v| Value::F64(f64::from(v) * 0.5)),
        (0usize..4).prop_map(|i| Value::str(["", "a", "bb", "ß"][i])),
    ]
}

/// Raw delta entries with duplicate-prone rows, zero and negative weights,
/// and non-monotone timestamps.
fn arb_frame_entries() -> impl Strategy<Value = Vec<DeltaEntry>> {
    proptest::collection::vec(
        (arb_value(), arb_value(), -3i64..4, 0u64..4),
        0..48,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, w, ts)| DeltaEntry {
                tuple: Tuple::new(vec![a, b]),
                weight: w,
                ts: Timestamp::from_secs(ts),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The two entries a shipped frame can land by — `append_frame_dedup` of
    /// the parsed frame (the harness's) and `append_delta_dedup` of the
    /// decoded batch (the executor's) — leave identical log contents,
    /// watermarks and return values, push after push, and both agree with a
    /// reference that also keeps the set of landed batch ids the slot used
    /// to keep: for ids that name a producer's window, as the executor's
    /// do, the watermark alone decides. Two producers ship windows of their
    /// own logs into one slot on a drawn schedule: exact retries (the first
    /// attempt landed), an abandoned window then a wider one (clipped
    /// prefix), an older window after a wider one (wholly stale); deletes
    /// and zero weights ride along.
    #[test]
    fn frame_landing_matches_decoded_landing(
        sources in (arb_frame_entries(), arb_frame_entries()),
        // (producer, window start, window length): small domains so windows
        // repeat, nest and overlap.
        pushes in proptest::collection::vec((0usize..2, 0u64..4, 1u64..4), 1..12),
    ) {
        let (rel, t) = (RelationId::new(0), Timestamp::from_secs);
        let schema = || Schema::new(
            vec![Column::new("a", ColumnType::I64), Column::new("b", ColumnType::I64)],
            vec![],
        );
        let mut sources = [sources.0, sources.1];
        sources.iter_mut().for_each(|log| log.sort_by_key(|e| e.ts));
        let (mut framed, mut decoded, mut reference) =
            (Database::new(), Database::new(), Database::new());
        for db in [&mut framed, &mut decoded, &mut reference] {
            db.create_relation(rel, schema()).unwrap();
        }
        let (mut landed_ids, mut marks) = (HashSet::new(), HashMap::new());
        for (producer, from, len) in pushes {
            // One id per producer and window, as `push::batch_id` gives.
            let id = producer as u64 * 100 + from * 10 + (from + len);
            let (from, to, producer) = (t(from), t(from + len), producer as u64);
            let in_window = |e: &&DeltaEntry| from < e.ts && e.ts <= to;
            let source = &sources[producer as usize];
            let mut entries: Vec<_> = source.iter().filter(in_window).cloned().collect();
            let bytes = wal::encode(&DeltaBatch { entries: entries.clone() });
            let frame = Frame::parse(bytes.clone()).unwrap();
            let by_frame = framed.append_frame_dedup(rel, &frame, id, producer, to).unwrap();
            let by_decode = decoded
                .append_delta_dedup(rel, wal::decode(bytes).unwrap(), id, producer, to)
                .unwrap();
            // The reference: skip an id seen before, then the watermark.
            let fresh = landed_ids.insert(id);
            let mark = marks.entry(producer).or_insert(Timestamp::ZERO);
            let by_set = fresh && to > *mark;
            if by_set {
                let clip = std::mem::replace(mark, to);
                entries.retain(|e| clip == Timestamp::ZERO || e.ts > clip);
                reference.append_delta(rel, DeltaBatch { entries }).unwrap();
            }
            prop_assert_eq!(by_frame, by_decode, "appended-anything flag differs");
            prop_assert_eq!(by_frame, by_set, "the id set decided something the watermark did not");
            let log = |db: &Database| db.delta_window(rel, Timestamp::ZERO, Timestamp::MAX).unwrap();
            prop_assert_eq!(log(&framed), log(&decoded), "log contents differ");
            prop_assert_eq!(log(&framed), log(&reference), "log differs from the set-keeping reference");
            let (f, d) = (framed.relation(rel).unwrap(), decoded.relation(rel).unwrap());
            prop_assert_eq!(&f.shipped_through, &d.shipped_through, "watermarks differ");
            prop_assert_eq!(&f.shipped_through, &marks, "watermarks differ from the reference");
        }
    }
}

/// A frame with 1–3 bytes flipped anywhere — header, timestamps, weights,
/// offsets or arena — is refused with a typed error or decodes to a batch
/// whose encoding is exactly those bytes: the codec is one-to-one on what it
/// accepts. A frame whose layout passes `parse` but whose rows do not decode
/// moves neither the log nor the watermark. Both outcomes must occur.
#[test]
fn hostile_frames_decode_to_themselves_or_move_no_book() {
    let mut rng = proptest::TestRng::from_name("hostile_frames");
    let flips = proptest::collection::vec((0usize..1 << 16, 1u16..256), 1..4);
    let (rel, t) = (RelationId::new(0), Timestamp::from_secs);
    let schema = Schema::new(
        vec![Column::new("a", ColumnType::I64), Column::new("b", ColumnType::I64)],
        vec![],
    );
    let books = |db: &Database| {
        let log = db.delta_window(rel, Timestamp::ZERO, Timestamp::MAX).unwrap();
        (log, db.relation(rel).unwrap().shipped_through.clone())
    };
    let (mut accepted, mut refused_by_parse, mut refused_at_landing) = (0, 0, 0);
    for _ in 0..2048 {
        let entries = arb_frame_entries().generate(&mut rng);
        let mut raw = wal::encode(&DeltaBatch { entries }).to_vec();
        for (at, mask) in flips.generate(&mut rng) {
            let len = raw.len();
            raw[at % len] ^= mask as u8;
        }
        let bytes = wal::Bytes::from(raw);
        let err = match wal::decode(bytes.clone()) {
            Ok(batch) => {
                accepted += 1;
                assert_eq!(wal::encode(&batch), bytes, "an accepted frame re-encodes differently");
                continue;
            }
            Err(err) => err,
        };
        assert!(matches!(err, SmileError::WalCorrupt(_)), "untyped refusal: {err}");
        let Ok(frame) = Frame::parse(bytes) else {
            refused_by_parse += 1;
            continue;
        };
        refused_at_landing += 1;
        let mut db = Database::new();
        db.create_relation(rel, schema.clone()).unwrap();
        let landed = [DeltaEntry::insert(tuple![1i64, 1i64], t(1))].into_iter().collect();
        db.append_delta_dedup(rel, landed, 0, 7, t(1)).unwrap();
        let before = books(&db);
        assert!(db.append_frame_dedup(rel, &frame, 1, 7, t(9)).is_err());
        assert_eq!(books(&db), before, "a frame that failed to decode moved a book");
    }
    eprintln!(
        "hostile frames: {accepted} accepted, {refused_by_parse} refused by parse, \
         {refused_at_landing} refused at landing"
    );
    assert!(accepted > 0, "no flipped frame decoded");
    assert!(refused_at_landing > 0, "no flipped frame got past parse and failed to decode");
}

// ---------------------------------------------------------------------------
// A table's primary-key index comes to exist on the first `get_by_key`:
// whenever that first read falls, every answer must be the one an index
// maintained from the table's first entry would give.

/// One step against a keyed `(k, v)` relation.
#[derive(Clone, Debug)]
enum KeyOp {
    /// One batch at one timestamp: `(k, v)` inserts or updates key `k`
    /// (delete of the old row, then insert of the new), `v < 0` deletes it.
    Apply(Vec<(i64, i64)>),
    /// An update whose delete ends one batch and whose insert starts the
    /// next, at one timestamp, with or without a read of the key between.
    SplitUpdate(i64, i64, bool),
    /// One batch of `(k, v, insert?)` entries applied as drawn, whatever the
    /// table holds: an insert of a key that is present, a delete of one that
    /// is absent (or of another row than the key's), a delete directly
    /// before an insert of the same key or of a different one.
    Raw(Vec<(i64, i64, bool)>),
    Read(i64),
    /// `clear_table`, then (if any rows are given) `seed_relation`.
    Reseed(Vec<(i64, i64)>),
}

fn arb_key_ops() -> impl Strategy<Value = Vec<KeyOp>> {
    let pairs = |v_lo: i64| proptest::collection::vec((0i64..6, v_lo..4), 0..5);
    proptest::collection::vec(
        prop_oneof![
            pairs(-2).prop_map(KeyOp::Apply),
            (0i64..6, 0i64..4, prop::bool::ANY)
                .prop_map(|(k, v, read)| KeyOp::SplitUpdate(k, v, read)),
            proptest::collection::vec((0i64..3, 0i64..2, prop::bool::ANY), 1..5)
                .prop_map(KeyOp::Raw),
            (0i64..6).prop_map(KeyOp::Read),
            (0i64..6).prop_map(KeyOp::Read),
            pairs(0).prop_map(KeyOp::Reseed),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// First-read index ≡ eager index: `get_by_key` at random points of a
    /// random apply / seed / clear history answers like a model map kept
    /// from the first entry on by the index's own rule (an insert sets the
    /// key's row, a delete removes the key) — however the table reaches the
    /// key: an update pair replaced in place, a lone delete or insert, a
    /// pair split across batches. From the first read on every key is
    /// compared after every step, and `rows()` with a plain z-set fold of
    /// the same entries.
    #[test]
    fn key_index_built_on_first_read_matches_an_eager_one(ops in arb_key_ops()) {
        let rel = RelationId::new(0);
        let schema = Schema::new(
            vec![Column::new("k", ColumnType::I64), Column::new("v", ColumnType::I64)],
            vec![0],
        );
        let mut db = Database::new();
        db.create_relation(rel, schema).unwrap();
        // The eager index, and the rows folded as a plain z-set.
        type Model = (HashMap<i64, i64>, ZSet);
        let (mut model, mut now, mut read_once): (Model, _, _) = (Default::default(), 0u64, false);
        // Applies one batch of `(k, v, weight)` rows stamped `now`, and keeps
        // the model as an eager index would.
        let apply = |db: &mut Database, model: &mut Model, now: u64, rows: &[(i64, i64, i64)]| {
            let ts = Timestamp::from_secs(now);
            let entry = |&(k, v, weight)| DeltaEntry { tuple: tuple![k, v], weight, ts };
            db.ingest(rel, rows.iter().map(entry).collect()).unwrap();
            for &(k, v, weight) in rows {
                model.1.add(tuple![k, v], weight);
                if weight > 0 {
                    model.0.insert(k, v);
                } else {
                    model.0.remove(&k);
                }
            }
        };
        let read = |db: &Database, model: &Model, k: i64| {
            let got = db.relation(rel).unwrap().table.get_by_key(&tuple![k]).cloned();
            (got, model.0.get(&k).map(|&v| tuple![k, v]))
        };
        for op in ops {
            now += 1;
            match op {
                KeyOp::Apply(puts) => {
                    let (mut rows, mut state) = (Vec::new(), model.0.clone());
                    for (k, v) in puts {
                        if let Some(old) = state.remove(&k) {
                            rows.push((k, old, -1));
                        }
                        if v >= 0 {
                            rows.push((k, v, 1));
                            state.insert(k, v);
                        }
                    }
                    apply(&mut db, &mut model, now, &rows);
                }
                KeyOp::SplitUpdate(k, v, read_between) => {
                    if let Some(&old) = model.0.get(&k) {
                        apply(&mut db, &mut model, now, &[(k, old, -1)]);
                    }
                    if read_between {
                        let (got, want) = read(&db, &model, k);
                        prop_assert_eq!(got, want, "between an update's delete and its insert");
                        read_once = true;
                    }
                    apply(&mut db, &mut model, now, &[(k, v, 1)]);
                }
                KeyOp::Raw(entries) => {
                    // The index goes by key and `rows` by row, so across a
                    // batch like this only an index that exists is comparable.
                    let (got, want) = read(&db, &model, 0);
                    prop_assert_eq!(got, want);
                    read_once = true;
                    let weighted = |&(k, v, insert)| (k, v, if insert { 1 } else { -1 });
                    let rows: Vec<_> = entries.iter().map(weighted).collect();
                    apply(&mut db, &mut model, now, &rows);
                }
                KeyOp::Read(k) => {
                    let (got, want) = read(&db, &model, k);
                    prop_assert_eq!(got, want);
                    read_once = true;
                }
                KeyOp::Reseed(rows) => {
                    db.clear_table(rel).unwrap();
                    model.0 = rows.into_iter().collect();
                    model.1 = ZSet::from_tuples(model.0.iter().map(|(&k, &v)| tuple![k, v]));
                    if !model.0.is_empty() {
                        let at = Timestamp::from_secs(now);
                        db.seed_relation(rel, model.1.clone(), at).unwrap();
                    }
                }
            }
            // The first read falls where the history put it; from then on
            // the index exists and every step is checked in full.
            for k in (0..6).filter(|_| read_once) {
                let (got, want) = read(&db, &model, k);
                prop_assert_eq!(got, want, "after a step");
            }
            prop_assert_eq!(db.relation(rel).unwrap().table.rows().collect::<ZSet>(), model.1.clone());
        }
        for k in 0..6 {
            let (got, want) = read(&db, &model, k);
            prop_assert_eq!(got, want, "after the whole history");
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregate maintenance numbers groups by a borrowed view of each entry's
// group columns; the map-of-key-tuples fold it replaced is the oracle.

use smile::storage::{AggFunc, AggregateSpec};

/// The fold this module had before it numbered groups by borrowed key,
/// kept as the oracle: a key `Tuple` per entry, a SipHash map, two `Vec`s
/// per group — and an order of groups that differs from call to call.
fn oracle_transform(
    spec: &AggregateSpec,
    window: &DeltaBatch,
    view: &HashMap<Tuple, Tuple>,
) -> Result<DeltaBatch, SmileError> {
    type Acc = (i64, Vec<i64>, Vec<f64>, Timestamp);
    let n = spec.aggs.len();
    let mut groups: HashMap<Tuple, Acc> = HashMap::new();
    for e in &window.entries {
        let acc = groups
            .entry(e.tuple.project(&spec.group_cols))
            .or_insert_with(|| (0, vec![0; n], vec![0.0; n], Timestamp::ZERO));
        acc.0 += e.weight;
        acc.3 = acc.3.max(e.ts);
        for (i, a) in spec.aggs.iter().enumerate() {
            let v = |c: &usize| e.tuple.get(*c);
            match a {
                AggFunc::SumI64(c) => acc.1[i] += e.weight * v(c).as_i64().unwrap_or(0),
                AggFunc::SumF64(c) => acc.2[i] += e.weight as f64 * v(c).as_f64().unwrap_or(0.0),
            }
        }
    }
    let mut out = Vec::new();
    for (g, (count, add_i, add_f, ts)) in groups {
        if count == 0 && add_i.iter().all(|&s| s == 0) && add_f.iter().all(|&s| s == 0.0) {
            continue;
        }
        let base = spec.group_cols.len();
        let old = view.get(&g);
        let new_count = old.map_or(0, |row| row.get(base).as_i64().unwrap()) + count;
        if let Some(row) = old {
            out.push(DeltaEntry::delete(row.clone(), ts));
        }
        if new_count < 0 {
            return Err(SmileError::Internal("count went negative".into()));
        }
        if new_count > 0 {
            let mut vals = g.values().to_vec();
            vals.push(Value::I64(new_count));
            for (i, a) in spec.aggs.iter().enumerate() {
                let was = old.map(|row| row.get(base + 1 + i));
                vals.push(match a {
                    AggFunc::SumI64(_) => {
                        Value::I64(was.and_then(Value::as_i64).unwrap_or(0) + add_i[i])
                    }
                    AggFunc::SumF64(_) => {
                        Value::F64(was.and_then(Value::as_f64).unwrap_or(0.0) + add_f[i])
                    }
                });
            }
            out.push(DeltaEntry::insert(Tuple::new(vals), ts));
        }
    }
    out.sort_by_key(|e| e.ts);
    Ok(DeltaBatch { entries: out })
}

/// Group-column values: every variant, with the floats whose hash and
/// equality go by bit pattern.
fn arb_group_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::I64(0)),
        (0usize..3).prop_map(|i| Value::F64([f64::NAN, -0.0, 0.0][i])),
        Just(Value::str("ß")),
    ]
}

/// `(g0, g1, i64 addend, f64 addend)` rows with weights ±1..3.
fn arb_weighted_rows(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(Tuple, i64)>> {
    let addend = (0usize..5).prop_map(|i| [f64::NAN, -0.0, 0.5, -2.25, 1e300][i]);
    let row = (arb_group_value(), arb_group_value(), -3i64..4, addend);
    let weight = (1i64..4, prop::bool::ANY).prop_map(|(w, neg)| if neg { -w } else { w });
    proptest::collection::vec((row, weight), len).prop_map(|rows| {
        let tupled = |((g0, g1, i, f), w)| (tuple![g0, g1, Value::I64(i), Value::F64(f)], w);
        rows.into_iter().map(tupled).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The fold is the old fold in a fixed order: against the oracle,
    /// `delta_transform` gives the same z-set (so the same sums bit for
    /// bit — `Value` compares `F64` by `to_bits`) in as many entries,
    /// in timestamp order, each surviving group's delete directly
    /// before its insert.
    #[test]
    fn delta_transform_matches_the_keyed_map_oracle(
        prior in arb_weighted_rows(0..12),
        rows in arb_weighted_rows(0..24),
        // Per window row: its timestamp, whether the window retracts it
        // again, and (when 0) whether the view lacks what it deletes.
        marks in proptest::collection::vec((1u64..4, prop::bool::ANY, 0u8..8), 24..25),
    ) {
        let spec = AggregateSpec {
            group_cols: vec![0, 1],
            aggs: vec![AggFunc::SumI64(2), AggFunc::SumF64(3)],
        };
        // The view holds some of the window's groups and not others, and
        // (mostly) the rows the window deletes.
        let mut held = ZSet::new();
        prior.into_iter().for_each(|(t, w)| _ = held.add(t, w.abs()));
        for ((t, w), &(_, _, ghost)) in rows.iter().zip(&marks) {
            if *w < 0 && ghost != 0 {
                held.add(t.clone(), -w);
            }
        }
        let view: HashMap<Tuple, Tuple> = spec
            .eval(&held)
            .iter()
            .map(|(row, _)| (row.project(&[0, 1]), row.clone()))
            .collect();
        // Some rows are retracted again inside the window.
        let mut window = DeltaBatch::new();
        for sign in [1, -1] {
            for ((tuple, w), &(ts, cancelled, _)) in rows.iter().zip(&marks) {
                if sign == 1 || cancelled {
                    let (tuple, ts) = (tuple.clone(), Timestamp::from_secs(ts));
                    window.entries.push(DeltaEntry { tuple, weight: sign * w, ts });
                }
            }
        }

        let want = oracle_transform(&spec, &window, &view);
        let got = spec.delta_transform(&window, |g| view.get(g));
        prop_assert_eq!(got.is_err(), want.is_err());
        if let (Ok(got), Ok(want)) = (got, want) {
            prop_assert_eq!(got.to_zset().sorted_entries(), want.to_zset().sorted_entries());
            prop_assert_eq!(got.len(), want.len());
            let group = |e: &DeltaEntry| e.tuple.project(&[0, 1]);
            for (i, e) in got.entries.iter().enumerate() {
                let next = got.entries.get(i + 1);
                prop_assert!(next.is_none_or(|n| e.ts <= n.ts), "timestamps fall");
                let survives = got.entries.iter().any(|o| o.weight > 0 && group(o) == group(e));
                if e.weight < 0 && survives {
                    let paired = next.is_some_and(|n| {
                        n.weight > 0 && n.ts == e.ts && group(n) == group(e)
                    });
                    prop_assert!(paired, "delete {:?} not directly before its insert", e);
                }
            }
        }
    }
}
