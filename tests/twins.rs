//! Twin sharings: the *same* query admitted more than once with the MVs
//! pinned to *different* machines. The merged plan shares whatever the
//! twins' plans have in common, so each half-join of the delta
//! decomposition must stay paired with its own sibling — a half shared
//! between two pairs snapshots against the wrong twin's coverage and the
//! `ΔL ⋈ ΔR` cross-term of a skewed window is lost.
//!
//! The fleet is `benchmark/`'s synthetic one (six machines, six keyed
//! relations `(id, fk, g)` homed round-robin, four two-way join shapes with
//! an `isqrt(i)` literal) with MV pin `i % 6` instead of the harness's
//! `synth_pin`, which keeps identical queries on one machine.

use smile::core::catalog::BaseStats;
use smile::core::platform::{Smile, SmileConfig};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration,
};

const MACHINES: usize = 6;
const RELATIONS: u32 = 6;
const SHAPES: u32 = 4;

/// The i-th synthetic sharing: `rel_s.fk = rel_{s+1}.id ∧ rel_{s+1}.g = ⌊√i⌋`.
fn synth_query(i: usize) -> SpjQuery {
    let shape = (i as u32) % SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    SpjQuery::scan(RelationId::new(shape)).join(
        RelationId::new((shape + 1) % RELATIONS),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    )
}

fn fleet(hill_climb: bool) -> (Smile, Vec<RelationId>) {
    let mut config = SmileConfig::with_machines(MACHINES);
    config.capacity = 1e12;
    config.hill_climb = hill_climb;
    let mut smile = Smile::new(config);
    let rels = (0..RELATIONS)
        .map(|r| {
            let card = 50_000.0 + 25_000.0 * f64::from(r);
            smile
                .register_base(
                    &format!("rel{r}"),
                    Schema::new(
                        vec![
                            Column::new("id", ColumnType::I64),
                            Column::new("fk", ColumnType::I64),
                            Column::new("g", ColumnType::I64),
                        ],
                        vec![0],
                    ),
                    MachineId::new(r % MACHINES as u32),
                    BaseStats {
                        update_rate: 10.0 + f64::from(r),
                        cardinality: card,
                        tuple_bytes: 24.0,
                        distinct: vec![card, card / 10.0, 1000.0],
                    },
                )
                .unwrap()
        })
        .collect();
    (smile, rels)
}

fn submit(smile: &mut Smile, i: usize, sla_secs: u64, pin: usize) -> SharingId {
    smile
        .submit_pinned(
            &format!("S{i}"),
            synth_query(i),
            SimDuration::from_secs(sla_secs),
            0.001,
            Some(MachineId::new(pin as u32)),
        )
        .unwrap()
}

/// One row per relation per tick. Row `t` of every relation points at row
/// `64·⌊t/64⌋` of its join partner — up to a minute older, so most matches
/// have both inputs arrive inside one push window (the cross-term carries
/// the result) and some straddle any instant a twin is admitted at — and
/// `g = ⌊t/64⌋ mod 4` gives every literal `0..=3` a quarter of the matches.
fn drive(smile: &mut Smile, rels: &[RelationId], ticks: std::ops::Range<i64>) {
    for t in ticks {
        let now = smile.now();
        for &rel in rels {
            let entries = vec![DeltaEntry::insert(tuple![t, t - t % 64, t / 64 % 4], now)];
            smile.ingest(rel, DeltaBatch { entries }).unwrap();
        }
        smile.step().unwrap();
    }
}

/// Row counts are reported instead of the rows themselves: an MV here holds
/// hundreds of six-column rows.
fn assert_exact(smile: &Smile, ids: &[SharingId], what: &str) {
    for &id in ids {
        let got = smile.mv_contents(id).unwrap();
        let want = smile.expected_mv_contents(id).unwrap();
        assert!(!want.is_empty(), "{id} has an empty ground truth ({what})");
        assert!(
            got == want,
            "{id} holds {} rows (total weight {}), recomputation gives {} ({}) ({what})",
            got.len(),
            got.iter().map(|(_, w)| w).sum::<i64>(),
            want.len(),
            want.iter().map(|(_, w)| w).sum::<i64>(),
        );
    }
}

/// ROADMAP item 1's install-time repro: 16 sharings, SLA `300 + i` s, pin
/// `i % 6`, 600 ticks of ingest, drain. S11/S15 (and S9/S13) are twins on
/// different machines.
fn install_time_twins(hill_climb: bool) {
    let (mut smile, rels) = fleet(hill_climb);
    let ids: Vec<SharingId> = (0..16)
        .map(|i| submit(&mut smile, i, 300 + i as u64, i % MACHINES))
        .collect();
    smile.install().unwrap();
    drive(&mut smile, &rels, 0..600);
    smile.run_idle(SimDuration::from_secs(3 * 320)).unwrap();
    assert_exact(&smile, &ids, &format!("hill_climb={hill_climb}"));
}

#[test]
fn install_time_twins_on_different_machines_are_exact() {
    install_time_twins(false);
}

#[test]
fn install_time_twins_are_exact_after_hill_climbing() {
    install_time_twins(true);
}

/// Root cause 2: a twin admitted *live* dedups into a half-join pair whose
/// coverage lags `now`, but its own chain is seeded as of `now`, so the
/// cross-term `ΔL(now, t] ⋈ ΔR(T_pair, now]` is stamped at or before the
/// seed instant and falls outside the new copy's first window.
#[test]
#[ignore = "ROADMAP item 1, root cause 2"]
fn live_twin_attaching_to_a_lagging_pair_is_exact() {
    let (mut smile, rels) = fleet(false);
    // Every MV sits on a machine hosting neither base, so all four plans
    // join in place and a twin's halves are the resident pair's own.
    let mut ids = vec![submit(&mut smile, 0, 300, 2), submit(&mut smile, 1, 301, 3)];
    smile.install().unwrap();
    drive(&mut smile, &rels, 0..300);
    ids.push(submit(&mut smile, 0, 302, 3));
    ids.push(submit(&mut smile, 1, 303, 4));
    drive(&mut smile, &rels, 300..600);
    smile.run_idle(SimDuration::from_secs(3 * 320)).unwrap();
    assert_exact(&smile, &ids, "live twins");
}
