//! Executor robustness (paper §9.6 / Figure 14): abrupt changes in update
//! rate and reader load must not push staleness past the SLA — the feedback
//! loop detects slower pushes and schedules earlier.

mod common;

use common::{assert_exact, feed};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::types::{MachineId, SharingId, SimDuration};
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
