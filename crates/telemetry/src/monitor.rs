//! SLA burn-rate monitor: fast/slow dual-window miss ratios and
//! headroom-trend slopes per sharing cohort.
//!
//! Sharings are grouped into at most [`COHORTS`] cohorts by the log2 of
//! their SLA in seconds, so the monitor's state is O(cohorts), independent
//! of fleet size. Each cohort keeps a *fast* and a *slow* sliding window
//! (see [`crate::window`]) over pushes and misses plus a slow window of
//! headroom expressed in ppm of the SLA. On every executor tick the monitor
//! evaluates, in cohort order:
//!
//! * **burn rate** — miss ratio in the fast window, confirmed against the
//!   slow window: a fast spike alone pages only when the slow window also
//!   burns, a sustained slow burn warns;
//! * **headroom trend** — least-squares slope over the slow window's
//!   per-sub-window mean headroom; if the projection crosses zero within
//!   the configured horizon, the cohort warns before it starts missing.
//!
//! Alerts are edge-triggered per (cohort, kind): one record when the
//! condition starts or escalates, silence while it persists, re-arm when it
//! clears. All inputs are sim-time and recorded coordinator-side in
//! canonical merge order, so the alert stream is byte-identical run to
//! run — it is the control signal ROADMAP item 5's adaptive runtime will
//! consume.

use crate::window::{slope, SlidingWindow, WindowSpec, WindowStats};
use std::fmt;

/// Number of SLA cohorts (log2 buckets of SLA seconds, clamped).
pub const COHORTS: usize = 16;

/// The cohort a sharing belongs to: `floor(log2(sla_secs))`, clamped to
/// `COHORTS - 1`. 30 s SLAs land in cohort 4, 300 s in cohort 8.
pub fn cohort_of(sla_us: u64) -> u8 {
    let secs = (sla_us / 1_000_000).max(1);
    let lg = 63 - secs.leading_zeros() as u64;
    lg.min(COHORTS as u64 - 1) as u8
}

/// The fast window: 6 × 5 s = 30 s of sim-time.
const FAST: WindowSpec = WindowSpec {
    sub_width_us: 5_000_000,
    subs: 6,
};
/// The slow window: 6 × 30 s = 180 s of sim-time.
const SLOW: WindowSpec = WindowSpec {
    sub_width_us: 30_000_000,
    subs: 6,
};
/// Miss ratio (ppm) at which a window is considered burning: 5 %.
const WARN_RATIO_PPM: u64 = 50_000;
/// Miss ratio (ppm) at which the fast window pages (with slow burn): 20 %.
const PAGE_RATIO_PPM: u64 = 200_000;
/// Minimum pushes in a window before its ratio is trusted.
const MIN_PUSHES: u64 = 4;
/// Trend horizon in slow sub-windows: warn if the fitted headroom
/// projection reaches zero within this many sub-windows.
const TREND_HORIZON_SUBS: u64 = 4;
/// Minimum populated slow sub-windows before fitting a trend.
const TREND_MIN_POINTS: usize = 4;

/// Alert severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Sustained degradation worth scheduling work for.
    Warn,
    /// Fast and slow windows both burning: act now.
    Page,
}

impl Severity {
    fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// What fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// SLA miss-ratio burn over the dual windows.
    BurnRate,
    /// Headroom projected to cross zero within the horizon.
    HeadroomTrend,
}

impl AlertKind {
    fn name(self) -> &'static str {
        match self {
            AlertKind::BurnRate => "burn_rate",
            AlertKind::HeadroomTrend => "headroom_trend",
        }
    }
}

/// One deterministic alert record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Sim-time of the tick that fired the alert (µs).
    pub at_us: u64,
    /// SLA cohort the alert concerns.
    pub cohort: u8,
    /// Worst sharing in the cohort's fast window, when one is known.
    pub sharing: Option<u32>,
    /// Condition kind.
    pub kind: AlertKind,
    /// Severity.
    pub severity: Severity,
    /// Kind-specific magnitude: burn ratio in ppm, or projected headroom
    /// loss per slow sub-window in ppm-of-SLA for trends.
    pub value_ppm: u64,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}us cohort={} sharing={} kind={} severity={} value_ppm={}",
            self.at_us,
            self.cohort,
            match self.sharing {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            },
            self.kind.name(),
            self.severity.name(),
            self.value_ppm
        )
    }
}

#[derive(Debug)]
struct CohortState {
    fast_pushes: SlidingWindow,
    fast_misses: SlidingWindow,
    slow_pushes: SlidingWindow,
    slow_misses: SlidingWindow,
    /// Headroom in ppm of the SLA, recorded per push into the slow spec —
    /// its per-sub-window means are the trend-fit points.
    headroom_ppm: SlidingWindow,
    /// Worst (sharing, headroom_ppm) inside the current fast window.
    worst_epoch: u64,
    worst: Option<(u64, u32)>,
    burn_active: Option<Severity>,
    trend_active: bool,
}

impl CohortState {
    fn new() -> Self {
        Self {
            fast_pushes: SlidingWindow::new(FAST),
            fast_misses: SlidingWindow::new(FAST),
            slow_pushes: SlidingWindow::new(SLOW),
            slow_misses: SlidingWindow::new(SLOW),
            headroom_ppm: SlidingWindow::new(SLOW),
            worst_epoch: 0,
            worst: None,
            burn_active: None,
            trend_active: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.fast_pushes.is_empty() && self.slow_pushes.is_empty()
    }
}

fn ratio_ppm(misses: &WindowStats, pushes: &WindowStats) -> u64 {
    (misses.count * 1_000_000).checked_div(pushes.count).unwrap_or(0)
}

/// The fleet burn-rate monitor. Single-writer, executor-owned.
#[derive(Debug)]
pub struct BurnRateMonitor {
    cohorts: Vec<CohortState>,
}

impl Default for BurnRateMonitor {
    /// A monitor with all cohorts empty.
    fn default() -> Self {
        Self {
            cohorts: (0..COHORTS).map(|_| CohortState::new()).collect(),
        }
    }
}

impl BurnRateMonitor {
    /// Records one completed push. Called by the executor coordinator in
    /// canonical completion order.
    pub fn record_push(
        &mut self,
        sla_us: u64,
        sharing: u32,
        headroom_us: u64,
        missed: bool,
        now_us: u64,
    ) {
        let c = &mut self.cohorts[cohort_of(sla_us) as usize];
        c.fast_pushes.record(now_us, 1);
        c.slow_pushes.record(now_us, 1);
        if missed {
            c.fast_misses.record(now_us, 1);
            c.slow_misses.record(now_us, 1);
        }
        let ppm = headroom_us
            .saturating_mul(1_000_000)
            .checked_div(sla_us)
            .unwrap_or(0);
        c.headroom_ppm.record(now_us, ppm);
        // Track the worst sharing inside the current fast window.
        let epoch = now_us / FAST.sub_width_us / FAST.subs as u64;
        if c.worst_epoch != epoch {
            c.worst_epoch = epoch;
            c.worst = None;
        }
        if c.worst.is_none_or(|(w, _)| ppm < w) {
            c.worst = Some((ppm, sharing));
        }
    }

    /// Evaluates every cohort at sim-time `now_us`; returns newly fired
    /// alerts in cohort order (edge-triggered, deterministic).
    pub fn on_tick(&mut self, now_us: u64) -> Vec<Alert> {
        let mut fired = Vec::new();
        for (ci, c) in self.cohorts.iter_mut().enumerate() {
            let fast_p = c.fast_pushes.stats(now_us);
            let slow_p = c.slow_pushes.stats(now_us);
            let fast = ratio_ppm(&c.fast_misses.stats(now_us), &fast_p);
            let slow = ratio_ppm(&c.slow_misses.stats(now_us), &slow_p);
            let fast_ok = fast_p.count >= MIN_PUSHES;
            let slow_ok = slow_p.count >= MIN_PUSHES;
            let severity = if fast_ok && fast >= PAGE_RATIO_PPM && slow >= WARN_RATIO_PPM {
                Some(Severity::Page)
            } else if (fast_ok && fast >= WARN_RATIO_PPM) || (slow_ok && slow >= WARN_RATIO_PPM) {
                Some(Severity::Warn)
            } else {
                None
            };
            match severity {
                Some(sev) if c.burn_active.is_none_or(|prev| sev > prev) => {
                    fired.push(Alert {
                        at_us: now_us,
                        cohort: ci as u8,
                        sharing: c.worst.map(|(_, s)| s),
                        kind: AlertKind::BurnRate,
                        severity: sev,
                        value_ppm: fast.max(slow),
                    });
                    c.burn_active = Some(sev);
                }
                Some(_) => {}
                None => c.burn_active = None,
            }

            // Headroom trend: fit per-sub-window means, project forward.
            let series = c.headroom_ppm.series(now_us);
            if series.len() >= TREND_MIN_POINTS {
                let pts: Vec<(f64, f64)> = series
                    .iter()
                    .map(|&(e, n, sum)| (e as f64, sum as f64 / n as f64))
                    .collect();
                // The fitted slope, if it falls fast enough to reach zero
                // headroom within the horizon.
                let falling = slope(&pts).zip(pts.last()).and_then(|(m, last)| {
                    (m < 0.0 && last.1 + m * TREND_HORIZON_SUBS as f64 <= 0.0).then_some(m)
                });
                if let (Some(m), false) = (falling, c.trend_active) {
                    fired.push(Alert {
                        at_us: now_us,
                        cohort: ci as u8,
                        sharing: c.worst.map(|(_, s)| s),
                        kind: AlertKind::HeadroomTrend,
                        severity: Severity::Warn,
                        value_ppm: (-m) as u64,
                    });
                }
                c.trend_active = falling.is_some();
            } else {
                c.trend_active = false;
            }
        }
        fired
    }

    /// True when no cohort window holds any sample — the quiet-mode
    /// invariant the determinism suite pins.
    pub fn windows_empty(&self) -> bool {
        self.cohorts.iter().all(|c| c.is_empty())
    }

    /// Fast/slow miss ratios (ppm) and fast-window push count for `cohort`
    /// at `now_us` — surfaced by `Smile::explain`.
    pub fn cohort_burn(&self, cohort: u8, now_us: u64) -> (u64, u64, u64) {
        let c = &self.cohorts[cohort as usize];
        let fast_p = c.fast_pushes.stats(now_us);
        let fast = ratio_ppm(&c.fast_misses.stats(now_us), &fast_p);
        let slow = ratio_ppm(&c.slow_misses.stats(now_us), &c.slow_pushes.stats(now_us));
        (fast, slow, fast_p.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_bucket_by_log2_sla_secs() {
        assert_eq!(cohort_of(30_000_000), 4);
        assert_eq!(cohort_of(300_000_000), 8);
        assert_eq!(cohort_of(1), 0);
        assert_eq!(cohort_of(u64::MAX), (COHORTS - 1) as u8);
    }

    #[test]
    fn burn_alert_is_edge_triggered_and_escalates() {
        let mut m = BurnRateMonitor::default();
        // Healthy traffic: no alerts.
        for i in 0..10 {
            m.record_push(30_000_000, 1, 20_000_000, false, i * 1_000_000);
        }
        assert!(m.on_tick(10_000_000).is_empty());
        // Sustained misses: warn once, then silence while it persists.
        for i in 10..20 {
            m.record_push(30_000_000, 2, 0, true, i * 1_000_000);
        }
        let fired = m.on_tick(20_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::BurnRate);
        assert_eq!(fired[0].sharing, Some(2));
        assert!(m
            .on_tick(20_500_000)
            .iter()
            .all(|a| a.kind != AlertKind::BurnRate));
        assert!(!m.windows_empty());
    }

    #[test]
    fn trend_alert_fires_before_misses() {
        let mut m = BurnRateMonitor::default();
        // Headroom shrinking ~17% of SLA per slow sub-window, no misses yet.
        for sub in 0..6u64 {
            let headroom = 25_000_000u64.saturating_sub(sub * 5_000_000);
            for k in 0..5u64 {
                m.record_push(30_000_000, 9, headroom, false, sub * 30_000_000 + k * 1_000_000);
            }
        }
        let fired = m.on_tick(5 * 30_000_000 + 10_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::HeadroomTrend);
        assert_eq!(fired[0].severity, Severity::Warn);
    }
}
