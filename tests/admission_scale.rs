//! Admission at scale: 10k sharings admitted one `submit_pinned` at a time,
//! then executed under chaos. Asserts the load-bearing properties of the
//! scale-out layer: structure sharing is real (the fleet holds far fewer
//! arrangements than the unshared sum, and exactly those the live join
//! edges probe), and fault recovery stays exact at this population.

use smile::core::plan::dag::EdgeOp;
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::delta::DeltaEntry;
use smile::types::{tuple, MachineId, RelationId, SharingId, SimDuration};

const MACHINES: u32 = 4;
const SHARINGS: usize = 10_000;

mod common;
use common::{assert_exact, distinct, feed, fleet, fleet_arrangements, live_probes, scale_bases, scale_query};

fn build() -> (Smile, Vec<RelationId>) {
    let mut config = SmileConfig::with_machines(MACHINES as usize);
    // Hill climbing is O(plan²) per iteration and orthogonal to what this
    // test exercises. Measured on the 266-vertex `fig5_gardenhose` plan
    // (release): ≈0.13 ms a candidate, ≈600 candidates an iteration, one
    // iteration per plumbing applied, all three growing with the plan —
    // and this plan (400 distinct joins) is an order of magnitude larger.
    config.hill_climb = false;
    config.capacity = 1e9;
    // The chaos preset with a compressed crash schedule: every machine's
    // first crash draw (uniform in [7.5, 22.5] s) lands inside the 40 s
    // drive window, so fault recovery is exercised without a long run.
    let mut faults = FaultProfile::chaos(7);
    faults.crash_period = SimDuration::from_secs(15);
    faults.crash_downtime = SimDuration::from_secs(3);
    config.faults = faults;
    // A coarser scheduler tick: per-invocation work scales with the 10k
    // resident sharings, and tick cadence affects freshness, not
    // correctness (a property the proptest suite pins down).
    config.exec.tick = SimDuration::from_secs(2);
    fleet(config, &scale_bases(MACHINES))
}

#[test]
fn ten_thousand_sharings_share_structure_and_stay_exact_under_chaos() {
    let started = std::time::Instant::now();
    let (mut smile, rels) = build();

    // Admit 10k sharings; every one must be admitted (capacity is ample,
    // the SLA generous).
    let admitted: Vec<SharingId> = (0..SHARINGS)
        .map(|i| {
            let pin = Some(MachineId::new((i % MACHINES as usize) as u32));
            let sla = SimDuration::from_secs(25);
            smile
                .submit_pinned(&format!("S{i}"), scale_query(&rels, i), sla, 0.001, pin)
                .unwrap_or_else(|e| panic!("sharing {i} rejected at scale: {e}"))
        })
        .collect();

    // Per-sharing arrangement demand as if nothing were shared: one
    // arrangement per join edge of each planned plan, no
    // cross-plan dedup.
    let unshared: usize = admitted
        .iter()
        .map(|&id| {
            smile
                .planned(id)
                .unwrap()
                .plan
                .edges()
                .iter()
                .filter(|e| matches!(e.op, EdgeOp::Join { .. }))
                .count()
        })
        .sum();

    eprintln!("[scale] admitted in {:.1}s", started.elapsed().as_secs_f64());
    smile.install().unwrap();
    eprintln!("[scale] installed at {:.1}s", started.elapsed().as_secs_f64());

    // Drive 40 simulated seconds of ingest under chaos (each machine's
    // first crash lands by 22.5 s; the 25 s SLA forces at least one push
    // cycle per MV).
    feed(&mut smile, 20, |smile, tick| {
        let (now, tick) = (smile.now(), tick as i64);
        let row = |r, j| tuple![tick * 31 + r * 7 + j, tick % 97, tick % 8];
        let batch = |r: usize| (0..3).map(|j| DeltaEntry::insert(row(r as i64, j), now)).collect();
        rels.iter().enumerate().map(|(r, &rel)| (rel, batch(r))).collect::<Vec<_>>()
    });
    smile.run_idle(SimDuration::from_secs(16)).unwrap();
    eprintln!("[scale] driven at {:.1}s", started.elapsed().as_secs_f64());

    // Structure sharing: the fleet's physical arrangement count is strictly
    // below the unshared per-sharing sum, and the fleet holds exactly the
    // arrangements the live join edges probe.
    let fleet = fleet_arrangements(&smile);
    assert!(
        fleet < unshared,
        "no structure sharing: {fleet} arrangements vs unshared sum {unshared}"
    );
    assert_eq!(fleet, distinct(&live_probes(&smile)));

    // Chaos actually fired, and recovery stayed exact: every sampled MV
    // matches the from-scratch oracle. The sample spans the population:
    // early ids (literals small enough to match ingested `g` values, so the
    // views are non-trivial) and a spread of later ones.
    assert!(
        smile.fault_report().crashes >= 1,
        "chaos profile injected no crashes"
    );
    let sample = [0usize, 1, 2, 3, 9, 25, 100, 999, 5000, 9999].map(|i| admitted[i]);
    assert!(
        assert_exact(&smile, &sample) > 0,
        "every sampled MV is empty — the exactness check is vacuous"
    );
}

/// At 3,000 resident sharings, a live admission and a retirement each make
/// the storage reconcile walk no more vertices than their liveness changed:
/// the executor's journal of flipped vertices, not the whole plan, which
/// only the start walks.
#[test]
fn a_lifecycle_change_reconciles_only_what_it_changed() {
    let (mut smile, rels) = build();
    let (sla, pin) = (SimDuration::from_secs(25), Some(MachineId::new(0)));
    for i in 0..3_000 {
        smile.submit_pinned(&format!("S{i}"), scale_query(&rels, i), sla, 0.001, pin).unwrap();
    }
    smile.install().unwrap();
    let live = |smile: &Smile| {
        let executor = smile.executor.as_ref().unwrap();
        let vertices = smile.global_plan().plan.vertices().iter();
        vertices.map(|v| executor.live(v.id)).collect::<Vec<bool>>()
    };
    let walked = |smile: &Smile| smile.executor.as_ref().unwrap().last_reconciled();
    let all = smile.global_plan().plan.vertex_count();
    assert_eq!(walked(&smile), all, "the start walks every vertex");
    // A literal none of the 3,000 carries: the admission brings its own
    // half-joins and MV.
    let before = live(&smile);
    let id = smile.submit_live("new", scale_query(&rels, 10_000), sla, 0.001, pin).unwrap();
    let after = live(&smile);
    let flipped = (0..after.len()).filter(|&v| before.get(v) != Some(&after[v])).count();
    assert!(flipped > 0 && walked(&smile) <= flipped, "walked {} of {all}, {flipped} flipped", walked(&smile));
    smile.retire(id).unwrap();
    let retired = live(&smile);
    let flipped = (0..after.len()).filter(|&v| after[v] != retired[v]).count();
    assert!(flipped > 0 && walked(&smile) <= flipped, "walked {} of {all}, {flipped} flipped", walked(&smile));
    assert!(smile.executor.as_ref().unwrap().journal().is_empty());
}

/// Churn leaves the executor holding the live fleet and nothing else: after
/// 500 live admit/retire pairs on the 1,000-sharing fleet, ticking under
/// chaos between them, its records and calendar slots are one per admitted
/// sharing, and no retired sharing's id names a record, a summary or a push
/// in flight.
#[test]
fn churn_leaves_records_for_the_live_fleet_only() {
    let (mut smile, rels) = build();
    let (sla, pin) = (SimDuration::from_secs(25), Some(MachineId::new(0)));
    for i in 0..1_000 {
        smile.submit_pinned(&format!("S{i}"), scale_query(&rels, i), sla, 0.001, pin).unwrap();
    }
    smile.install().unwrap();
    let mut retired = Vec::new();
    for pair in 0..500 {
        smile.submit_live(&format!("L{pair}"), scale_query(&rels, 1_000 + pair), sla, 0.001, pin).unwrap();
        let oldest = smile.sharings()[0].id;
        smile.retire(oldest).unwrap();
        retired.push(oldest);
        smile.step().unwrap();
    }
    let executor = smile.executor.as_ref().unwrap();
    let live: Vec<SharingId> = smile.sharings().iter().map(|s| s.id).collect();
    assert_eq!(live.len(), 1_000);
    assert_eq!(executor.sharing_ids().collect::<Vec<_>>(), live);
    assert_eq!(executor.calendar_ids(), live);
    let gone = |id| executor.sharing_summary(id).is_none() && executor.sharing_tuples(id).is_none();
    assert!(retired.iter().all(|&id| gone(id) && !executor.in_flight(id)));
    assert!(executor.push_records.iter().any(|r| retired.contains(&r.sharing)), "no retired sharing ever pushed");
}
