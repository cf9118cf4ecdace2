//! One run of one workload: set-up, drive, drain, verification, and the
//! end-to-end metrics. The drive loop is the same with tracing on or off.
//!
//! A timed run repeats set-up and drive [`PASSES`] times on the
//! same inputs, each pass on a platform built from nothing, and times the
//! host-speed probe during each drive. Every timing is divided by the host
//! index of its own pass, and a tick's time is the smaller of that tick's
//! two readings, so that neither a slow minute nor a burst on the shared
//! host reads as a change in the program.

use crate::probe::{host_index, Probe};
use crate::spans::{Tracer, HARNESS};
use crate::stats;
use crate::workloads::{build, Built, SplitMix, Workload, TICK};
use smile_storage::DeltaBatch;
use smile_types::{Result, SharingId, SimDuration, SmileError};
use std::hash::{Hash, Hasher};

/// Fewest ticks a drive runs, so that `tick_ms_p99` always has ten
/// samples beyond it.
pub const MIN_TICKS: u64 = 1_000;
/// Passes of set-up and drive a timed run makes on the same inputs. A
/// burst on the host has to hit the same tick in every pass to show.
pub const PASSES: usize = 2;
/// Within a pass set-up is repeated until it has run this many times or
/// [`SETUP_REPEAT_BUDGET_S`] is spent, whichever is first: a 20 ms set-up
/// is timed seven times a pass, a 9 s one once.
const MAX_SETUPS: usize = 7;
const SETUP_REPEAT_BUDGET_S: f64 = 0.3;
/// Probe samples taken over one drive, evenly spaced in ticks.
const PROBES_PER_DRIVE: u64 = 48;
/// Layer name of the probe's spans: time spent measuring the host.
const HOST: &str = "host";

/// Worker threads of the timed runs: one. The whole run is then a single
/// thread, which is both the steadier and, on the reference host, the
/// faster configuration (`executor.parallel_speedup` reports what a
/// second worker does). Never read from the environment.
pub const TIMED_WORKERS: usize = 1;

/// Worker threads of the traced run's comparison drive: two, or one on a
/// single-core host. Never more threads than cores.
pub fn parallel_workers() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Ticks driven for `--seconds`.
pub fn ticks_for(workload: Workload, seconds: u64) -> u64 {
    (workload.ticks_per_second() * seconds).max(MIN_TICKS)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| SmileError::Internal(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| SmileError::Internal("no VmHWM in /proc/self/status".into()))
}

/// What the harness timed and counted over one drive.
#[derive(Debug, Default)]
pub struct DriveLog {
    /// Wall seconds of each tick: its `ingest` calls, its live admission
    /// and retirement if any, and its `step`. Generator time is excluded.
    pub tick_s: Vec<f64>,
    /// Wall seconds inside `ingest` per tick.
    pub ingest_s: Vec<f64>,
    /// Wall seconds inside `step` per tick.
    pub step_s: Vec<f64>,
    /// Whether `wave.jobs` grew across the tick's `step`.
    pub push_tick: Vec<bool>,
    /// Wall seconds of each `submit_live`.
    pub live_s: Vec<f64>,
    /// Wall seconds of each `retire`.
    pub retire_s: Vec<f64>,
    /// Wall seconds inside the generator.
    pub gen_s: f64,
    /// Base-relation delta entries accepted by `ingest`.
    pub entries: u64,
    /// How many of them were deletes.
    pub deletes: u64,
    /// Platform calls made (all returned `Ok`).
    pub calls: u64,
    /// Wall seconds of each probe sample taken during the drive.
    pub probe_s: Vec<f64>,
}

impl DriveLog {
    /// Wall seconds inside the platform over the drive.
    pub fn busy_s(&self) -> f64 {
        self.tick_s.iter().sum()
    }

    /// Entries accepted per wall second inside the platform.
    pub fn tuples_per_s(&self) -> f64 {
        self.entries as f64 / self.busy_s()
    }

    /// The host index over the drive.
    pub fn host_index(&self) -> f64 {
        host_index(&self.probe_s)
    }
}

/// Drives `ticks` simulated seconds of input through an installed
/// platform. When `capture` is given, the batches ingested into the
/// busiest base relation are kept for the storage replays.
pub fn drive(
    b: &mut Built,
    ticks: u64,
    probe: &Probe,
    tracer: &mut Tracer,
    mut capture: Option<&mut Vec<DeltaBatch>>,
) -> Result<DriveLog> {
    let jobs = b.smile.telemetry().registry().counter("wave.jobs");
    let mut log = DriveLog::default();
    let probe_every = (ticks / PROBES_PER_DRIVE).max(1);
    tracer.open(HARNESS, "drive");
    for t in 0..ticks {
        tracer.tick = t + 1;
        tracer.open(HARNESS, "tick");
        if t % probe_every == 0 {
            log.probe_s
                .push(tracer.time(HOST, "probe", || probe.sample()).0 .0);
        }
        let now = b.smile.now();
        let (batches, gen_s) = tracer.time("workload", "gen", || {
            let n = b.integrator.tick(now, TICK);
            b.generator.batches(n, now)
        });
        log.gen_s += gen_s;
        let mut ingest_s = 0.0;
        for (rel, batch) in batches {
            log.entries += batch.len() as u64;
            log.deletes += batch.entries.iter().filter(|e| e.weight < 0).count() as u64;
            if let Some(kept) = capture.as_deref_mut() {
                if rel == b.busiest {
                    kept.push(batch.clone());
                }
            }
            let (r, s) = tracer.time("platform", "ingest", || b.smile.ingest(rel, batch));
            r?;
            ingest_s += s;
            log.calls += 1;
        }
        let mut churn_s = 0.0;
        if let Some(churn) = b.churn.as_mut().filter(|c| c.due(t)) {
            let (r, s) = tracer.time("platform", "submit_live", || {
                churn.submit_live(&mut b.smile)
            });
            r?;
            log.live_s.push(s);
            let (r, r_s) = tracer.time("platform", "retire", || churn.retire_oldest(&mut b.smile));
            r?;
            log.retire_s.push(r_s);
            churn_s = s + r_s;
            log.calls += 2;
        }
        let before = jobs.get();
        let (r, step_s) = tracer.time("platform", "step", || b.smile.step());
        r?;
        log.calls += 1;
        log.push_tick.push(jobs.get() > before);
        log.ingest_s.push(ingest_s);
        log.step_s.push(step_s);
        log.tick_s.push(ingest_s + churn_s + step_s);
        tracer.close();
    }
    tracer.close();
    Ok(log)
}

/// The simulated outcome of a drive: what the tenant is promised, read
/// from the usage ledger and the push log. The same for one seed on any
/// host at any speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOutcome {
    /// The paper's Figure 8a unit.
    pub dollars_per_sharing_hour: f64,
    /// Staleness as a share of the MV's SLA, averaged over every audit of
    /// every MV: how much of what the tenant was promised the platform
    /// uses. Lazy scheduling at `l = 0.8` holds it near 0.4.
    pub staleness_mean_ratio: f64,
    /// The worst staleness the auditor saw on any MV, as a share of that
    /// MV's SLA: the tenant's promise is that this stays below 1.
    pub staleness_peak_ratio: f64,
    /// Completed pushes.
    pub pushes: u64,
    /// Pushes that completed past their SLA.
    pub sla_missed: u64,
    /// Tuples moved across all edges.
    pub tuples_moved: u64,
    /// Total platform dollars.
    pub dollars: f64,
}

/// Reads the simulated outcome off an installed platform.
pub fn sim_outcome(b: &Built) -> Result<SimOutcome> {
    let executor = b
        .smile
        .executor
        .as_ref()
        .ok_or_else(|| SmileError::Internal("no executor".into()))?;
    let records = &b.smile.snapshot.records;
    let hours = match (records.first(), records.last()) {
        (Some(a), Some(z)) if z.at > a.at => (z.at - a.at).as_secs_f64() / 3600.0,
        _ => {
            return Err(SmileError::Internal(
                "the auditor recorded no interval".into(),
            ))
        }
    };
    let pushes = executor.push_records.len() as u64;
    let sla_missed = b
        .smile
        .telemetry()
        .registry()
        .counter("push.sla_missed")
        .get();
    let dollars = b.smile.total_dollars();
    let ratios: Vec<f64> = records
        .iter()
        .flat_map(|r| &r.sharings)
        .filter(|s| s.sla > SimDuration::ZERO)
        .map(|s| s.staleness.as_secs_f64() / s.sla.as_secs_f64())
        .collect();
    Ok(SimOutcome {
        dollars_per_sharing_hour: dollars / (hours * b.smile.sharings().len().max(1) as f64),
        staleness_mean_ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        staleness_peak_ratio: ratios.iter().copied().fold(0.0, f64::max),
        pushes,
        sla_missed,
        tuples_moved: executor.tuples_moved,
        dollars,
    })
}

/// The result of draining the platform and recomputing MVs.
#[derive(Debug, Default)]
pub struct Verified {
    /// MVs compared against recomputation.
    pub checked: u64,
    /// MVs whose contents differed.
    pub mismatched: u64,
    /// Order-independent digest of the checked MVs' contents.
    pub digest: u64,
    /// Wall seconds of the drain (`run_idle`).
    pub drain_s: f64,
    /// Wall seconds of each `mv_contents`.
    pub mv_read_s: Vec<f64>,
    /// Wall seconds of each `expected_mv_contents` (the SPJ evaluation).
    pub spj_eval_s: Vec<f64>,
    /// Platform calls made (all returned `Ok`).
    pub calls: u64,
}

/// Stops ingest, lets every in-flight push land (three times the largest
/// SLA of simulated time), then requires each MV — all of them, or a
/// seeded sample of the fleet — to equal its query recomputed over the
/// base relations as of the MV's own timestamp.
pub fn drain_and_verify(
    b: &mut Built,
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Verified> {
    let mut v = Verified::default();
    let (r, drain_s) = tracer.time("platform", "run_idle", || {
        b.smile.run_idle(b.max_sla.mul_f64(3.0))
    });
    r?;
    v.drain_s = drain_s;
    let mut resident: Vec<SharingId> = match &b.churn {
        Some(churn) => churn.resident().collect(),
        None => b.sharings.clone(),
    };
    let want = workload.verify_sample().min(resident.len());
    let mut rng = SplitMix::new(seed);
    for i in 0..want {
        let j = i + rng.below((resident.len() - i) as u64) as usize;
        resident.swap(i, j);
    }
    resident.truncate(want);
    resident.sort();
    tracer.open(HARNESS, "verify");
    for id in resident {
        let (got, read_s) = tracer.time("platform", "mv_contents", || b.smile.mv_contents(id));
        let (expected, eval_s) =
            tracer.time("storage", "spj_eval", || b.smile.expected_mv_contents(id));
        let (got, expected) = (got?, expected?);
        let ((got, expected), _) = tracer.time("storage", "sorted_entries", || {
            (got.sorted_entries(), expected.sorted_entries())
        });
        v.mv_read_s.push(read_s);
        v.spj_eval_s.push(eval_s);
        v.checked += 1;
        if got != expected {
            v.mismatched += 1;
            eprintln!(
                "MV of sharing {id} differs from recomputation: {} rows, expected {}",
                got.len(),
                expected.len()
            );
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        for (tuple, weight) in &got {
            tuple.hash(&mut h);
            weight.hash(&mut h);
        }
        v.digest = v.digest.wrapping_add(h.finish());
    }
    tracer.close();
    v.calls = 1 + 2 * v.checked;
    Ok(v)
}

/// One pass of a timed run: a platform built from nothing and driven.
pub struct Pass {
    /// Wall seconds of each set-up made (the last one is the platform
    /// that was then driven).
    pub setups_s: Vec<f64>,
    /// The drive, with the probe samples that give the pass its host
    /// index. The set-ups end where the drive starts, seconds apart, and
    /// the host's speed moves over minutes: one index serves both.
    pub log: DriveLog,
}

/// Everything one untraced run measured.
pub struct TimedRun {
    /// The passes, in the order they ran.
    pub passes: Vec<Pass>,
    /// Peak resident set after the first pass's drive: one platform's.
    pub peak_rss_mb: f64,
    /// Simulated outcome of the drive (the same in every pass).
    pub sim: SimOutcome,
    /// Drain and MV verification of the last pass's platform.
    pub verified: Verified,
    /// Platform calls made by one set-up.
    pub setup_calls: u64,
}

/// Each tick's time at reference speed: the smallest over the passes of
/// that tick's wall seconds ÷ its pass's host index. The passes do the
/// same work and interference from the host only ever adds time, so the
/// smallest reading is the one nearest the program's own cost.
pub fn ticks_at_reference(passes: &[(&[f64], f64)]) -> Vec<f64> {
    let ticks = passes.first().map_or(0, |(tick_s, _)| tick_s.len());
    (0..ticks)
        .map(|t| {
            passes
                .iter()
                .map(|(tick_s, index)| tick_s[t] / index)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

impl TimedRun {
    /// Every set-up's time at reference speed.
    pub fn setups_at_reference(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.setups_s.iter().map(|s| s / p.log.host_index()))
            .collect()
    }

    /// Every tick's time at reference speed.
    pub fn ticks_at_reference(&self) -> Vec<f64> {
        let passes: Vec<(&[f64], f64)> = self
            .passes
            .iter()
            .map(|p| (p.log.tick_s.as_slice(), p.log.host_index()))
            .collect();
        ticks_at_reference(&passes)
    }

    /// The end-to-end metrics, in [`crate::metrics::END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let tick_s = self.ticks_at_reference();
        vec![
            stats::median(&self.setups_at_reference()),
            self.passes[0].log.entries as f64 / tick_s.iter().sum::<f64>(),
            stats::quantile(&tick_s, 0.99) * 1e3,
            self.peak_rss_mb,
            self.sim.dollars_per_sharing_hour,
            self.sim.staleness_mean_ratio,
        ]
    }

    /// Operations attempted: platform calls plus MVs checked.
    pub fn attempted(&self) -> u64 {
        let driven: u64 = self.passes.iter().map(|p| p.log.calls).sum();
        let setups: usize = self.passes.iter().map(|p| p.setups_s.len()).sum();
        self.setup_calls * setups as u64 + driven + self.verified.calls + self.verified.checked
    }
}

/// One untraced run: [`PASSES`] passes of set-up and drive on
/// the same inputs, then drain and verification of the last platform.
pub fn run_timed(workload: Workload, seed: u64, seconds: u64) -> Result<TimedRun> {
    let mut tracer = Tracer::new(false);
    let probe = Probe::new();
    let ticks = ticks_for(workload, seconds);
    let mut passes = Vec::new();
    let mut peak = None;
    let mut last: Option<(Built, SimOutcome)> = None;
    for _ in 0..PASSES {
        // The previous pass's platform is gone before the next is built.
        let earlier = last.take().map(|(_, sim)| sim);
        let mut setups_s = Vec::new();
        let mut built = loop {
            let b = build(workload, seed, TIMED_WORKERS, &mut tracer)?;
            setups_s.push(b.setup_s);
            if setups_s.len() == MAX_SETUPS || setups_s.iter().sum::<f64>() > SETUP_REPEAT_BUDGET_S
            {
                break b;
            }
        };
        let log = drive(&mut built, ticks, &probe, &mut tracer, None)?;
        if peak.is_none() {
            peak = Some(peak_rss_mb()?);
        }
        let sim = sim_outcome(&built)?;
        if earlier.is_some_and(|earlier| earlier != sim) {
            return Err(SmileError::Internal(format!(
                "two passes of one seed differ: {earlier:?} then {sim:?}"
            )));
        }
        passes.push(Pass { setups_s, log });
        last = Some((built, sim));
    }
    let (mut built, sim) = last.expect("at least one pass");
    let verified = drain_and_verify(&mut built, workload, seed, &mut tracer)?;
    Ok(TimedRun {
        passes,
        peak_rss_mb: peak.expect("at least one pass"),
        sim,
        verified,
        setup_calls: built.calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tick_is_its_smallest_reading_at_reference_speed() {
        // Pass 1 was hit by a burst on its second tick; pass 2 ran on a
        // host twice as slow. Neither shows.
        let passes: [(&[f64], f64); 2] = [(&[1.0, 9.0], 1.0), (&[2.0, 8.0], 2.0)];
        assert_eq!(ticks_at_reference(&passes), vec![1.0, 4.0]);
        assert_eq!(ticks_at_reference(&passes[..1]), vec![1.0, 9.0]);
        assert!(ticks_at_reference(&[]).is_empty());
    }
}
