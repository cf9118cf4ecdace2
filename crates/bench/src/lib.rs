//! Shared experiment harness for the SMILE evaluation (paper §9).
//!
//! Every table and figure of the paper has a regenerator in the
//! `experiments` binary; this library holds the common machinery: building
//! the standard 6-machine / 25-sharing platform, driving a rate trace
//! through it, and collecting the metrics the figures report.
//!
//! **Scaling.** The paper's testbed ran PostgreSQL on six physical machines
//! for 40-minute windows at up to 6000 tweets/second. The reproduction
//! executes every tuple through a real storage engine inside a simulator,
//! so default runs divide rates by [`Scale::rate_div`] and durations by
//! [`Scale::duration_div`] (documented per experiment in EXPERIMENTS.md).
//! Shapes — who wins, where violations appear, how costs scale — are
//! preserved; absolute tuple counts are smaller.

#![warn(missing_docs)]

use smile_core::optimizer::Objective;
use smile_core::platform::{Smile, SmileConfig};
use smile_types::{MachineId, Result, SharingId, SimDuration};
use smile_workload::rates::{RateIntegrator, RateTrace};
use smile_workload::sharings::{paper_sharings, PaperSharing};
use smile_workload::twitter::{standard_setup, TwitterConfig, TwitterWorkload};

/// Down-scaling applied to the paper's rates and durations.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divide paper tweet rates by this.
    pub rate_div: f64,
    /// Divide paper experiment durations by this.
    pub duration_div: f64,
}

impl Scale {
    /// The default laptop scale (rates ÷ 20, durations ÷ 8).
    pub fn default_scale() -> Self {
        Scale {
            rate_div: 20.0,
            duration_div: 8.0,
        }
    }

    /// The paper's full scale (slow: hours of wall time).
    pub fn full() -> Self {
        Scale {
            rate_div: 1.0,
            duration_div: 1.0,
        }
    }

    /// A paper rate in tweets/second, scaled.
    pub fn rate(&self, paper_rate: f64) -> f64 {
        (paper_rate / self.rate_div).max(1.0)
    }

    /// A paper duration, scaled.
    pub fn duration(&self, paper: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64((paper.as_secs_f64() / self.duration_div).max(30.0))
    }
}

/// How SLAs are assigned across the 25 sharings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SlaAssignment {
    /// Every sharing gets the same SLA.
    Uniform(SimDuration),
    /// The paper's "mix": S1–S7 → 10 s, S8–S15 → 40 s, S16–S25 → 60 s.
    Mix,
}

impl SlaAssignment {
    /// The SLA of paper sharing `index` (1-based).
    pub fn sla_of(&self, index: usize) -> SimDuration {
        match self {
            SlaAssignment::Uniform(s) => *s,
            SlaAssignment::Mix => {
                if index <= 7 {
                    SimDuration::from_secs(10)
                } else if index <= 15 {
                    SimDuration::from_secs(40)
                } else {
                    SimDuration::from_secs(60)
                }
            }
        }
    }
}

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Machines in the fleet.
    pub machines: usize,
    /// Which paper sharings to submit (1-based indexes).
    pub sharing_indexes: Vec<usize>,
    /// SLA assignment.
    pub slas: SlaAssignment,
    /// Tweet-rate trace (already scaled).
    pub trace: RateTrace,
    /// Simulated run length (already scaled).
    pub duration: SimDuration,
    /// Tweets prepopulated before install.
    pub prepopulate: u64,
    /// Hill-climbing plumbing on install.
    pub hill_climb: bool,
    /// Force DPD or DPT (Figure 12); `None` = the paper's selection rule.
    pub force_objective: Option<Objective>,
    /// Network pricing: cross-zone (default) or same-region (Figure 12).
    pub same_region_prices: bool,
    /// Lazy executor (ablation switch).
    pub lazy: bool,
    /// Feedback recalibration (ablation switch).
    pub feedback: bool,
    /// Catalog update-rate prior used by the optimizer. `None` uses the
    /// trace's mean rate; experiments that study *planning* behaviour
    /// (Figures 12–13) pass the paper's unscaled rate so placement
    /// pressure matches the paper even when execution is scaled down.
    pub assumed_rate: Option<f64>,
    /// Per-machine CPU capacity for admission (operator-seconds/second).
    /// 1.0 models one core; the paper's EC2 large instances expose ≈4 ECUs.
    pub capacity: f64,
}

impl RunConfig {
    /// The standard setup: 6 machines, all 25 sharings, uniform 45 s SLA.
    pub fn standard(trace: RateTrace, duration: SimDuration) -> Self {
        Self {
            machines: 6,
            sharing_indexes: (1..=25).collect(),
            slas: SlaAssignment::Uniform(SimDuration::from_secs(45)),
            trace,
            duration,
            prepopulate: 5_000,
            hill_climb: true,
            force_objective: None,
            same_region_prices: false,
            lazy: true,
            feedback: true,
            assumed_rate: None,
            capacity: 1.0,
        }
    }
}

/// Everything an experiment needs after a run.
pub struct RunOutcome {
    /// The platform (snapshot module, executor, ledger all inspectable).
    pub smile: Smile,
    /// Submitted sharings: (paper index, app, id).
    pub ids: Vec<(usize, &'static str, SharingId)>,
    /// Tweets generated during the driven phase.
    pub tweets_generated: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

impl RunOutcome {
    /// The platform id of paper sharing `index`.
    pub fn id_of(&self, index: usize) -> Option<SharingId> {
        self.ids
            .iter()
            .find(|(i, _, _)| *i == index)
            .map(|(_, _, id)| *id)
    }

    /// Simulated hours the auditor observed.
    pub fn audited_hours(&self) -> f64 {
        let r = &self.smile.snapshot.records;
        match (r.first(), r.last()) {
            (Some(a), Some(b)) => (b.at - a.at).as_secs_f64() / 3600.0,
            _ => 0.0,
        }
    }

    /// Dollars per sharing-hour across the run (Figure 8a unit).
    pub fn dollars_per_sharing_hour(&self) -> f64 {
        let hours = self.audited_hours().max(1e-9);
        let sharings = self.ids.len().max(1) as f64;
        self.smile.total_dollars() / (hours * sharings)
    }

    /// Dollars per sharing-second (Figure 12 unit).
    pub fn dollars_per_sharing_second(&self) -> f64 {
        self.dollars_per_sharing_hour() / 3600.0
    }
}

/// Builds the platform, submits the selected sharings (pinned round-robin —
/// the paper assigns sharings to machines arbitrarily), installs, and
/// drives the trace for the configured duration.
pub fn run_experiment(cfg: &RunConfig) -> Result<RunOutcome> {
    let started = std::time::Instant::now();
    let mut pconf = SmileConfig::with_machines(cfg.machines);
    pconf.hill_climb = cfg.hill_climb;
    pconf.force_objective = cfg.force_objective;
    pconf.exec.lazy = cfg.lazy;
    pconf.exec.feedback = cfg.feedback;
    if cfg.same_region_prices {
        pconf.prices = smile_sim::PriceSheet::ec2_same_region();
    }
    pconf.capacity = cfg.capacity;
    // The catalog's rate priors follow the experiment's mean trace rate
    // unless the experiment overrides them for planning-pressure fidelity.
    let mean_rate = cfg
        .assumed_rate
        .unwrap_or_else(|| cfg.trace.rate_at(smile_types::Timestamp::from_secs(1)));
    let mut smile = Smile::new(pconf);
    let mut workload = standard_setup(
        &mut smile,
        TwitterConfig {
            assumed_tweet_rate: mean_rate,
            ..TwitterConfig::default()
        },
        cfg.prepopulate,
    )?;

    let all: Vec<PaperSharing> = paper_sharings(&workload.rels());
    let mut ids = Vec::new();
    for (pin, want) in cfg.sharing_indexes.iter().enumerate() {
        // Indexes beyond 25 wrap around: the paper grows beyond 25 sharings
        // by "placing the same sharing on more than one machine" (§9.4).
        let s = &all[(want - 1) % 25];
        let sla = cfg.slas.sla_of(s.index);
        let machine = MachineId::new(pin as u32 % cfg.machines as u32);
        let id = smile.submit_pinned(s.app, s.query.clone(), sla, 0.001, Some(machine))?;
        ids.push((*want, s.app, id));
    }
    smile.install()?;

    let tweets = drive(&mut smile, &mut workload, cfg.trace.clone(), cfg.duration)?;
    Ok(RunOutcome {
        smile,
        ids,
        tweets_generated: tweets,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

/// Drives a trace through an installed platform; returns tweets generated.
pub fn drive(
    smile: &mut Smile,
    workload: &mut TwitterWorkload,
    trace: RateTrace,
    duration: SimDuration,
) -> Result<u64> {
    let mut integrator = RateIntegrator::new(trace);
    let tick = SimDuration::from_secs(1);
    let end = smile.now() + duration;
    let mut total = 0u64;
    while smile.now() < end {
        let n = integrator.tick(smile.now(), tick);
        total += n;
        for (rel, batch) in workload.tweets(n, smile.now()) {
            smile.ingest(rel, batch)?;
        }
        smile.step()?;
    }
    Ok(total)
}

/// Prints a CSV-ish table: header then rows, pipe-aligned for terminals.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_paper_numbers() {
        let s = Scale::default_scale();
        assert_eq!(s.rate(6000.0), 300.0);
        assert_eq!(s.rate(1.0), 1.0); // floor
        assert_eq!(
            s.duration(SimDuration::from_secs(2400)),
            SimDuration::from_secs(300)
        );
        // Durations floor at 30 s.
        assert_eq!(
            s.duration(SimDuration::from_secs(60)),
            SimDuration::from_secs(30)
        );
    }

    #[test]
    fn mix_sla_matches_the_paper() {
        let m = SlaAssignment::Mix;
        assert_eq!(m.sla_of(1), SimDuration::from_secs(10));
        assert_eq!(m.sla_of(7), SimDuration::from_secs(10));
        assert_eq!(m.sla_of(8), SimDuration::from_secs(40));
        assert_eq!(m.sla_of(15), SimDuration::from_secs(40));
        assert_eq!(m.sla_of(16), SimDuration::from_secs(60));
        assert_eq!(m.sla_of(25), SimDuration::from_secs(60));
    }

    #[test]
    fn small_experiment_runs_end_to_end() {
        let cfg = RunConfig {
            machines: 3,
            sharing_indexes: vec![1, 5, 6],
            slas: SlaAssignment::Uniform(SimDuration::from_secs(30)),
            trace: RateTrace::Constant(10.0),
            duration: SimDuration::from_secs(40),
            prepopulate: 500,
            ..RunConfig::standard(RateTrace::Constant(10.0), SimDuration::from_secs(40))
        };
        let out = run_experiment(&cfg).unwrap();
        assert_eq!(out.ids.len(), 3);
        assert!(out.tweets_generated > 300);
        assert!(out.audited_hours() > 0.0);
        assert!(out.dollars_per_sharing_hour() >= 0.0);
        assert!(out.id_of(5).is_some());
        assert!(out.id_of(99).is_none());
    }

    #[test]
    fn sharing_indexes_beyond_25_wrap() {
        let cfg = RunConfig {
            machines: 2,
            sharing_indexes: vec![1, 26],
            slas: SlaAssignment::Uniform(SimDuration::from_secs(30)),
            trace: RateTrace::Constant(5.0),
            duration: SimDuration::from_secs(30),
            prepopulate: 200,
            ..RunConfig::standard(RateTrace::Constant(5.0), SimDuration::from_secs(30))
        };
        let out = run_experiment(&cfg).unwrap();
        // Both map to paper sharing S1 but are distinct platform sharings.
        assert_eq!(out.ids.len(), 2);
        assert_ne!(out.ids[0].2, out.ids[1].2);
    }
}
