//! The scheduling half of a tick: which sharings push now, and to what
//! target. Candidates come from the push calendar; each goes through the
//! one guard chain ([`Executor::consider`]) and is planned into the tick's
//! [`Batch`].

use super::batch::Batch;
use super::calendar::INFLATION_HEADROOM;
use super::{Executor, SharingRt};
use crate::plan::timecost::MAX_INFLATION;
use smile_sim::Cluster;
use smile_types::{Result, SimDuration, Timestamp, VertexId};

/// The `l` factor of §8.2: a lazy push fires when the staleness projected
/// at its completion reaches `L_FACTOR · SLA`.
const L_FACTOR: f64 = 0.8;

/// Outcome of evaluating one sharing for a push at the current tick. Only
/// `Fire`/`Deferred` have effects; the calendar maps the others to the
/// tick at which the outcome can next change, so the slot sleeps until then.
enum Consider {
    /// Push now, to `target`.
    Fire { target: Timestamp },
    /// Nothing to move yet: a source has no heartbeat, `MINTS(SRC) ≤ TS(MV)`,
    /// or the skew clamp `min(MINTS(SRC), now)` emptied the window. Every
    /// base vertex heartbeats once per second, so re-evaluate next tick.
    Idle,
    /// The lazy projection has not reached `l·SLA`; time-driven.
    Lazy,
    /// A machine the push needs is down; re-evaluate (and re-count) next
    /// tick.
    Deferred,
}

impl Executor {
    /// `MINTS(SRC(S_i))` from the heartbeat cache; `None` while a source
    /// has no heartbeat yet (`srcs` is never empty, checked at build).
    fn src_min(&self, rt: &SharingRt) -> Option<Timestamp> {
        let min = |m: Timestamp, v: &VertexId| Some(m.min(self.heartbeats[v.index()]?));
        rt.srcs.iter().try_fold(Timestamp::MAX, min)
    }

    /// Plans everything that should fire this tick — due retries first,
    /// then newly triggered pushes — into one batch: a list of requests
    /// (one per sharing push) and the edge jobs that realize them, each job
    /// tagged with its dependencies and topological wave.
    ///
    /// Candidates come from the push calendar: only slots whose projected
    /// fire tick arrived or that an event re-enqueued — O(due) — each put
    /// through the guard chain ([`Executor::consider`]) in ascending slot
    /// order. A slot with a retry pending is in flight to the calendar, so
    /// the two sources never name the same slot.
    pub(super) fn plan_batch(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<Batch> {
        let mut batch = Batch::default();
        for (idx, target, attempt) in self.collect_due_retries(now) {
            self.push_request(idx, target, attempt, now, &mut batch)?;
        }
        self.plan_calendar(cluster, now, &mut batch)?;

        batch.assign_waves(&self.global.plan, &self.topo_rank);
        Ok(batch)
    }

    /// The event-driven scheduler: evaluate only the slots the calendar
    /// woke this tick, in ascending slot order. Every wake is conservative
    /// — never later than the first tick the guard chain would say `Fire`
    /// or `Deferred` — and an early wake is side-effect-free (the guard
    /// chain says `Lazy` or `Idle` and the slot goes back to sleep), so the
    /// batch is the one a visit to every live slot would plan.
    fn plan_calendar(
        &mut self,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &mut Batch,
    ) -> Result<()> {
        // A slot asleep under an inflation bound that feedback has since
        // passed may be due sooner than its projection said: re-derive it.
        self.cal.wake_over(self.model.inflation());
        let skew_bound = cluster.clock.skew_bound();
        let woken = self.cal.take_woken(now);
        self.ctr_cal_wakes.add(woken.len() as u64);
        #[cfg(test)]
        let mut checked = 0;
        for idx in woken {
            #[cfg(test)]
            {
                self.assert_sleepers_idle(checked..idx, cluster, now, batch);
                checked = idx + 1;
            }
            match self.consider(idx, cluster, now, batch) {
                Consider::Fire { target } => {
                    self.push_request(idx, target, 1, now, batch)?;
                    // The push's completion, retry or abandonment hands
                    // the slot back.
                    self.cal.mark_in_flight(idx);
                }
                Consider::Lazy => {
                    self.ctr_cal_early.inc();
                    self.sleep_lazy(idx, now, skew_bound);
                }
                Consider::Idle => {
                    let next = self.cal.tick_of(now) + 1;
                    self.cal.schedule_at(idx, next);
                }
                Consider::Deferred => {
                    // A deferral is counted on every tick the machine
                    // stays down.
                    self.fault_stats.pushes_deferred += 1;
                    let next = self.cal.tick_of(now) + 1;
                    self.cal.schedule_at(idx, next);
                }
            }
        }
        #[cfg(test)]
        self.assert_sleepers_idle(checked..self.sharings.len(), cluster, now, batch);
        Ok(())
    }

    /// Wake soundness, checked in this crate's unit-test build only: an
    /// idle slot the calendar left asleep this tick, shown the batch's
    /// timestamp shadow it would see at its place in slot order, must be
    /// one the guard chain neither fires nor defers. `machine_down` is
    /// schedule-driven, so the extra `consider` calls draw nothing from
    /// the fault streams.
    #[cfg(test)]
    fn assert_sleepers_idle(
        &self,
        slots: std::ops::Range<usize>,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &Batch,
    ) {
        for idx in slots {
            if !self.cal.is_live(idx) || self.cal.in_flight(idx) {
                continue;
            }
            let outcome = self.consider(idx, cluster, now, batch);
            assert!(
                !matches!(outcome, Consider::Fire { .. } | Consider::Deferred),
                "calendar slept through a due push: slot {idx} at {now}"
            );
        }
    }

    /// Evaluates sharing `idx` for a push at `now` against the batch's
    /// timestamp shadow — the single guard chain.
    fn consider(
        &self,
        idx: usize,
        cluster: &mut Cluster,
        now: Timestamp,
        batch: &Batch,
    ) -> Consider {
        let rt = &self.sharings[idx];
        let Some(min_src) = self.src_min(rt) else {
            return Consider::Idle; // no heartbeats yet
        };
        let mv_data_ts = batch.ts(&self.data_ts, rt.mv);
        if min_src <= mv_data_ts {
            return Consider::Idle; // nothing new to move
        }
        let window_secs = (min_src - mv_data_ts).as_secs_f64();
        let cp = self.cp_for(idx, window_secs);
        let staleness_now = now - self.visible_ts[rt.mv.index()];
        if self.config.lazy {
            // Wait as long as possible: fire only when finishing a push
            // started one tick later would land at l·SLA or beyond.
            let projected = staleness_now + cp + self.config.tick;
            if projected < rt.sla.mul_f64(L_FACTOR) {
                return Consider::Lazy;
            }
        }
        // Clamp the target to local time: a skewed machine clock can
        // heartbeat a timestamp *ahead* of true time, and pushing past
        // `now` would permanently skip entries that arrive inside the
        // already-consumed window.
        let min_src = min_src.min(now);
        if min_src <= mv_data_ts {
            return Consider::Idle;
        }
        // Crash-aware re-planning: a push that needs a down machine is
        // deferred to a later tick instead of being fired into a
        // guaranteed timeout (the staleness it accrues meanwhile is real
        // and shows up in the snapshot audit).
        if self.needs_down_machine(idx, cluster, now) {
            return Consider::Deferred;
        }
        Consider::Fire {
            target: self.choose_target(idx, mv_data_ts, min_src, now),
        }
    }

    /// Critical path of sharing `idx` over a window of `x_secs`, from the
    /// cached compact evaluator. It issues the `edge_estimate` call
    /// sequence `plan::cost::critical_path` would over the sharing's
    /// in-scope edges, so the result is byte-equal to the full plan walk
    /// (`cached_critical_path_matches_full_walk`) — the cache only skips
    /// re-walking (and re-toposorting) the whole merged plan.
    pub(super) fn cp_for(&self, idx: usize, x_secs: f64) -> SimDuration {
        self.sharings[idx].cp.eval(x_secs, &self.model)
    }

    /// Whether any machine hosting the sharing's subgraph or sources is
    /// currently down — over the machine set cached at plan install.
    /// `machine_down` is schedule-driven and idempotent, so probing the
    /// deduplicated set gives the same answer as the old per-vertex walk
    /// without touching the fault draw streams.
    fn needs_down_machine(&self, idx: usize, cluster: &mut Cluster, now: Timestamp) -> bool {
        self.sharings[idx]
            .machines
            .iter()
            .any(|&m| cluster.faults.machine_down(m, now))
    }

    /// Puts a `Lazy` slot to sleep under the model's inflation clamp, which
    /// no feedback can pass — or, when that would wake it next tick anyway,
    /// under the live inflation × [`INFLATION_HEADROOM`], which it can.
    /// The live bound alone would be sound, but feedback swings past it for
    /// thousands of far slots at once (1.85× the wakes on `fleet_idle`,
    /// DESIGN §13); a far slot pays one clamp-projected wake per cycle.
    fn sleep_lazy(&mut self, idx: usize, now: Timestamp, skew: SimDuration) {
        let due = self.project_wake_tick(idx, now, skew, MAX_INFLATION);
        let bound = self.model.inflation() * INFLATION_HEADROOM;
        if due > self.cal.tick_of(now) + 1 || bound >= MAX_INFLATION {
            self.cal.schedule_at(idx, due);
        } else {
            let due = self.project_wake_tick(idx, now, skew, bound);
            self.cal.schedule_under(idx, due, bound);
        }
    }

    /// First tick at which the lazy guard could pass for idle sharing
    /// `idx`, while the model's inflation stays at or below `ib`.
    /// Conservative by construction: staleness grows at 1 s/s
    /// (`visible_ts` only advances), the window upper bound grows at
    /// ≤ 1 s/s (heartbeats lead true time by at most `skew`, and the
    /// committed `data_ts` only advances), and the critical path is bounded
    /// by the cached affine majorant scaled by `ib`. So the projection
    /// grows at ≤ `1 + ib·slope` per second, and sleeping until it could
    /// first reach `l·SLA` — minus one tick of margin for µs rounding —
    /// can never skip past the tick the guard chain first fires on. An
    /// early wake just re-evaluates and goes back to sleep.
    fn project_wake_tick(&self, idx: usize, now: Timestamp, skew: SimDuration, ib: f64) -> u64 {
        let cal = &self.cal;
        let rt = &self.sharings[idx];
        let cp = &rt.cp;
        let tick_secs = self.config.tick.as_secs_f64();
        let l_sla = rt.sla.mul_f64(L_FACTOR).as_secs_f64();
        let staleness = (now - self.visible_ts[rt.mv.index()]).as_secs_f64();
        // Window bound from the *committed* data_ts, not the plan shadow: a
        // same-tick overlay entry can be rolled back by a failed push, so
        // the bound must not assume it.
        let w0 = ((now + skew) - self.data_ts[rt.mv.index()]).as_secs_f64();
        let projected0 = staleness + tick_secs + ib * (cp.const_secs + cp.slope_per_sec * w0);
        let gap = l_sla - projected0;
        if gap <= 0.0 {
            return cal.tick_of(now) + 1;
        }
        let denom = 1.0 + ib * cp.slope_per_sec;
        let dt_ticks = ((gap / denom) / tick_secs).floor() - 1.0;
        let dt = if dt_ticks >= 1.0 {
            // Clamp before the u64 cast so the tick sum cannot overflow.
            dt_ticks.min(1e18) as u64
        } else {
            1
        };
        cal.tick_of(now) + dt
    }

    /// Binary search (§8.2) for the latest target `t` in
    /// `(TS(MV), MINTS(SRC)]` whose projected completion staleness fits the
    /// SLA; falls back to `MINTS(SRC)` (best effort) when none does.
    fn choose_target(
        &self,
        idx: usize,
        mv_ts: Timestamp,
        min_src: Timestamp,
        now: Timestamp,
    ) -> Timestamp {
        let rt = &self.sharings[idx];
        let projected = |t: Timestamp| -> SimDuration {
            let x = (t - mv_ts).as_secs_f64();
            let cp = self.cp_for(idx, x);
            // Completion at now + cp; sources will have advanced there too.
            (now + cp) - t
        };
        if projected(min_src) <= rt.sla {
            return min_src;
        }
        // Overloaded: the freshest target already misses. Search for the
        // largest t that still fits; if none fits, best-effort full push.
        let (mut lo, mut hi) = (mv_ts, min_src);
        let mut best = None;
        for _ in 0..20 {
            let mid = lo.midpoint(hi);
            if mid == lo || mid == hi {
                break;
            }
            if projected(mid) <= rt.sla {
                best = Some(mid);
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best.unwrap_or(min_src)
    }
}
