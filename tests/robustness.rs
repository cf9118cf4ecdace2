//! Executor robustness (paper §9.6 / Figure 14): abrupt changes in update
//! rate and reader load must not push staleness past the SLA — the feedback
//! loop detects slower pushes and schedules earlier.

mod common;

use common::{assert_exact, feed, fleet, stats, Base};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::{DistributedClock, FaultProfile};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{tuple, ColumnType, MachineId, RelationId, SharingId, SimDuration, Timestamp};
use smile::workload::rates::{RateIntegrator, RateTrace};
use smile::workload::readload::ReadLoad;
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{standard_setup, TwitterConfig, TwitterWorkload};

struct Setup {
    smile: Smile,
    workload: TwitterWorkload,
    ids: Vec<SharingId>,
}

fn setup(feedback: bool) -> Setup {
    setup_faulty(feedback, FaultProfile::disabled())
}

fn setup_faulty(feedback: bool, faults: FaultProfile) -> Setup {
    let mut config = SmileConfig::with_machines(4);
    config.exec.feedback = feedback;
    config.faults = faults;
    let mut smile = Smile::new(config);
    let workload = standard_setup(&mut smile, TwitterConfig::default(), 1_500).unwrap();
    let slas = [20u64, 35, 70, 50];
    let mut ids = Vec::new();
    for (i, s) in paper_sharings(&workload.rels())
        .into_iter()
        .take(4)
        .enumerate()
    {
        let id = smile
            .submit_pinned(
                s.app,
                s.query,
                SimDuration::from_secs(slas[i]),
                0.001,
                Some(MachineId::new(i as u32)),
            )
            .unwrap();
        ids.push(id);
    }
    smile.install().unwrap();
    Setup {
        smile,
        workload,
        ids,
    }
}

fn run_phases(s: &mut Setup, phases: &[(usize, f64)], phase_secs: u64) -> f64 {
    let mut peak = 0.0f64;
    let s4 = s.ids[3];
    let second = SimDuration::from_secs(1);
    for &(users, rate) in phases {
        let load = ReadLoad::new(s.ids.clone(), users);
        let mut integrator = RateIntegrator::new(RateTrace::Constant(rate));
        feed(&mut s.smile, phase_secs, |smile, _| {
            let now = smile.now();
            // The staleness the previous tick left, before this one's load.
            let staleness = smile.executor.as_ref().unwrap().staleness(s4, now).unwrap();
            peak = peak.max(staleness.as_secs_f64());
            load.apply(smile, second).unwrap();
            s.workload.tweets(integrator.tick(now, second), now)
        });
        let executor = s.smile.executor.as_ref().unwrap();
        peak = peak.max(executor.staleness(s4, s.smile.now()).unwrap().as_secs_f64());
    }
    peak
}

#[test]
fn staleness_survives_abrupt_phase_changes() {
    let mut s = setup(true);
    let peak = run_phases(&mut s, &[(8, 25.0), (16, 40.0), (32, 50.0), (50, 75.0)], 60);
    // S4's SLA is 50 s; the executor must stay below it throughout the
    // phase changes (the paper's run never exceeds 40 s).
    assert!(peak <= 50.0, "S4 staleness peaked at {peak}s > SLA 50s");
    assert_eq!(s.smile.snapshot.violations_of(s.ids[3]), 0);
}

#[test]
fn feedback_inflation_tracks_reader_load() {
    let mut s = setup(true);
    // Crushing reader load: pushes queue behind reader queries.
    run_phases(&mut s, &[(2, 25.0), (120, 25.0)], 60);
    let inflation = s.smile.executor.as_ref().unwrap().model.inflation();
    assert!(
        inflation > 1.05,
        "feedback never noticed the load (inflation = {inflation})"
    );
}

#[test]
fn executor_recovers_after_load_clears() {
    let mut s = setup(true);
    run_phases(&mut s, &[(100, 30.0)], 60);
    // Load clears; the platform must drain back under SLA and keep MVs
    // exact.
    run_phases(&mut s, &[(1, 10.0)], 90);
    let s4 = s.ids[3];
    let staleness = s
        .smile
        .executor
        .as_ref()
        .unwrap()
        .staleness(s4, s.smile.now())
        .unwrap();
    assert!(
        staleness <= SimDuration::from_secs(50),
        "never recovered: staleness {staleness}"
    );
    assert_exact(&s.smile, &s.ids);
}

#[test]
fn fault_schedule_is_deterministic_per_seed() {
    // Same seed, same workload: the entire faulty run — the injected
    // events, the retry bookkeeping, the SLA outcome and the MV contents —
    // must replay byte-for-byte. A different seed must produce a different
    // schedule.
    let run = |seed: u64| {
        let mut s = setup_faulty(true, FaultProfile::chaos(seed));
        run_phases(&mut s, &[(8, 25.0), (16, 40.0)], 60);
        let report = s.smile.fault_report();
        let events = format!("{:?}", s.smile.cluster.faults.events);
        let mvs: Vec<_> = s
            .ids
            .iter()
            .map(|&id| s.smile.mv_contents(id).unwrap().sorted_entries())
            .collect();
        (format!("{report:?}"), events, mvs)
    };
    let first = run(42);
    let second = run(42);
    assert!(
        !first.1.is_empty() && first.1 != "[]",
        "chaos profile injected nothing"
    );
    assert_eq!(first.0, second.0, "FaultReport differs across replays");
    assert_eq!(first.1, second.1, "fault event log differs across replays");
    assert_eq!(first.2, second.2, "MV contents differ across replays");
    let other = run(43);
    assert_ne!(first.1, other.1, "different seeds produced identical faults");
}

// ---------------------------------------------------------------------------
// Late ingest: an entry stamped behind windows already pushed is stamped
// past what readers have read, and reaches every MV.

/// `accounts(uid, name)` on m0 and `events(eid, uid)` on m1, and the
/// sharing `accounts ⋈ events` on `uid` at a 5 s SLA, installed; with
/// `skewed`, the 80 ms of clock skew `clock_skew.rs` runs under.
fn accounts_events(skewed: bool) -> (Smile, [RelationId; 2], SharingId) {
    let accounts = Base {
        name: "accounts".into(),
        cols: vec![("uid", ColumnType::I64), ("name", ColumnType::Str)],
        key: vec![0],
        home: 0,
        stats: stats(1.0, 10.0, 16.0, &[10.0, 1.0]),
    };
    let events = Base::i64("events", &["eid", "uid"], &[0], 1, stats(1.0, 100.0, 16.0, &[100.0, 10.0]));
    let (mut smile, rels) = fleet(SmileConfig::with_machines(2), &[accounts, events]);
    if skewed {
        smile.cluster.clock =
            DistributedClock::with_skew(2, SimDuration::from_millis(80), SimDuration::from_secs(10));
    }
    let query = SpjQuery::scan(rels[0]).join(rels[1], JoinOn::on(0, 1), Predicate::True);
    let id = smile.submit("late", query, SimDuration::from_secs(5), 0.001).unwrap();
    smile.install().unwrap();
    (smile, [rels[0], rels[1]], id)
}

/// Ticks `from..to` of in-order ingest, stamped `now`: tick `s` inserts the
/// account `(s, "u")` while `s < 10`, and the event `(s, s % 10)`.
fn in_order(smile: &mut Smile, [accounts, events]: [RelationId; 2], from: u64, to: u64) {
    feed(smile, to - from, |smile, t| {
        let (s, now) = ((from + t) as i64, smile.now());
        let event = (events, DeltaBatch { entries: vec![DeltaEntry::insert(tuple![s, s % 10], now)] });
        let account = (accounts, DeltaBatch { entries: vec![DeltaEntry::insert(tuple![s, "u"], now)] });
        std::iter::once(event).chain((s < 10).then_some(account))
    });
}

/// Sixty ticks in order, `late(now)` ingested into `events`, sixty more
/// ticks and a drain, under both clocks; the MV then equals recomputation
/// and holds every `(uid, eid)` of `joined`.
fn late_ingest_reaches_the_mv(late: impl Fn(Timestamp) -> Vec<DeltaEntry>, joined: &[(i64, i64)]) {
    for skewed in [false, true] {
        let (mut smile, rels, id) = accounts_events(skewed);
        in_order(&mut smile, rels, 0, 60);
        let entries = late(smile.now());
        smile.ingest(rels[1], DeltaBatch { entries }).unwrap();
        in_order(&mut smile, rels, 60, 120);
        smile.run_idle(SimDuration::from_secs(20)).unwrap();
        assert_exact(&smile, &[id]);
        let mv = smile.mv_contents(id).unwrap();
        for &(uid, eid) in joined {
            assert_eq!(mv.weight(&tuple![uid, "u", eid, uid]), 1, "({uid}, {eid}) missing, skewed: {skewed}");
        }
    }
}

/// One event stamped 5 s, behind every window pushed in the minute before.
#[test]
fn a_row_stamped_behind_pushed_windows_reaches_the_mv() {
    let row = |_| vec![DeltaEntry::insert(tuple![1000i64, 3i64], Timestamp::from_secs(5))];
    late_ingest_reaches_the_mv(row, &[(3, 1000)]);
}

/// One tick's batch out of order: its events stamped 0, 3, 6 and 9 s
/// behind `now`, in that order.
#[test]
fn an_unsorted_batch_reaches_the_mv() {
    let batch = |now: Timestamp| {
        let behind = |i: i64| now - SimDuration::from_secs(3 * i as u64);
        (0..4).map(|i| DeltaEntry::insert(tuple![2000 + i, i], behind(i))).collect()
    };
    late_ingest_reaches_the_mv(batch, &[(0, 2000), (1, 2001), (2, 2002), (3, 2003)]);
}
