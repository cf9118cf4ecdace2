//! Delta-log compaction: every slot's log is cut below the oldest
//! timestamp any live consumer could still ask for, once per period, and
//! the cut entries are freed over the ticks that follow.

use super::Executor;
use smile_sim::Cluster;
use smile_types::{FastMap, MachineId, RelationId, Result, SimDuration, Timestamp};

/// How often delta logs are compacted.
const COMPACTION_PERIOD: SimDuration = SimDuration::from_secs(30);
/// Retention margin kept below the minimum consumer timestamp.
const COMPACTION_MARGIN: SimDuration = SimDuration::from_secs(10);

impl Executor {
    /// Once per [`COMPACTION_PERIOD`], cuts every slot's delta log below
    /// the minimum timestamp its live consumers could still request (minus
    /// the safety margin): the horizon and every read move at once, and
    /// the cut entries stay allocated. Every tick after frees a share of
    /// them ([`Executor::reclaim_budget`]), so no tick pays for a whole
    /// period's log.
    pub(super) fn compact_if_due(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<()> {
        if now - self.last_compaction < COMPACTION_PERIOD {
            return self.reclaim_cut(cluster);
        }
        self.last_cut = 0;
        for ((machine, slot), cut) in self.log_cuts(now) {
            let Some(log) = cluster.machine_mut(machine)?.db.log_mut(slot) else { continue };
            let n = log.compact(cut);
            if n > 0 {
                self.reclaiming.push_back((machine, slot));
                self.last_cut += n;
            }
        }
        self.last_compaction = now;
        Ok(())
    }

    /// How many cut entries a tick frees: the last cut spread over half a
    /// period's ticks, so every cut entry is freed well before the next
    /// cut.
    fn reclaim_budget(&self) -> usize {
        let ticks = COMPACTION_PERIOD.as_micros() / self.config.tick.as_micros().max(1);
        self.last_cut.div_ceil((ticks as usize / 2).max(1))
    }

    /// Frees up to the tick's budget of cut entries, from the slots in the
    /// order they were cut; a slot leaves the queue once it holds none.
    fn reclaim_cut(&mut self, cluster: &mut Cluster) -> Result<()> {
        let mut budget = self.reclaim_budget();
        while budget > 0 {
            let Some(&(machine, slot)) = self.reclaiming.front() else { break };
            // A slot dropped since its cut took its entries along.
            if let Some(log) = cluster.machine_mut(machine)?.db.log_mut(slot) {
                budget -= log.reclaim(budget);
                if log.reclaimable() > 0 {
                    break;
                }
            }
            self.reclaiming.pop_front();
        }
        Ok(())
    }

    /// Where each slot's log is cut at `now`: the minimum timestamp its
    /// live consumers could still request, minus the margin. Only
    /// [`Executor::live`] vertices and edges pin a log: a retired sharing's
    /// inert chain must not hold its inputs' logs for ever. On the seedless
    /// hasher, so slots are cut, and their entries freed, in the same
    /// order every run.
    fn log_cuts(&self, now: Timestamp) -> FastMap<(MachineId, RelationId), Timestamp> {
        let mut bound: FastMap<(MachineId, RelationId), Timestamp> = FastMap::default();
        // Seed bounds with each vertex's own data_ts (slots nobody consumes
        // can be compacted to their own progress).
        for v in self.global.plan.vertices() {
            let Some(slot) = v.slot.filter(|_| self.live(v.id)) else { continue };
            let own = if v.is_base {
                // Base slots have no data_ts of their own; they are bounded
                // purely by consumers below.
                Timestamp::MAX
            } else {
                self.data_ts[v.id.index()]
            };
            let e = bound.entry((v.machine, slot)).or_insert(Timestamp::MAX);
            *e = (*e).min(own);
        }
        // Every edge may re-read its inputs back to its output's data_ts —
        // and a half-join additionally corrects its snapshot relation back
        // to its *sibling's* coverage, which lags its own after a partial
        // failure, so the relation's log is pinned by both.
        //
        // Base logs carry one more pin: a live migration re-seeds a shadow
        // chain from base snapshots *as of the sharing's committed MV
        // timestamp*, so every base slot an edge reads must stay
        // reconstructable back to the oldest committed MV among the
        // sharings that edge serves.
        let mv_floor = self.mv_floors();
        for e in self.live_edges() {
            let mut out_ts = self.data_ts[e.output.index()];
            if let Some(sib) = self.anchor_of[e.id] {
                out_ts = out_ts.min(self.data_ts[sib.index()]);
            }
            let base_floor = mv_floor[e.output.index()];
            for &input in &e.inputs {
                let iv = self.global.plan.vertex(input);
                let Some(slot) = iv.slot else { continue };
                let pin = if iv.is_base {
                    out_ts.min(base_floor)
                } else {
                    out_ts
                };
                let b = bound.entry((iv.machine, slot)).or_insert(Timestamp::MAX);
                *b = (*b).min(pin);
            }
        }
        for ts in bound.values_mut() {
            // Still unbounded: a base slot no live edge reads. Whoever
            // reads it next is seeded from its table, not its log.
            *ts = if *ts == Timestamp::MAX { now } else { *ts } - COMPACTION_MARGIN;
        }
        bound
    }

    /// Per vertex, the oldest committed MV among the live sharings it
    /// serves — those whose MV is `v` or downstream of it — so one
    /// reverse-topological pass, in descending id, carries each MV's up.
    fn mv_floors(&self) -> Vec<Timestamp> {
        let plan = &self.global.plan;
        let mut floor = vec![Timestamp::MAX; plan.vertex_count()];
        for rt in self.live_sharings() {
            let f = &mut floor[rt.mv.index()];
            *f = (*f).min(self.visible_ts[rt.mv.index()]);
        }
        for v in plan.vertices().iter().rev().map(|v| v.id) {
            for &input in plan.producer(v).map_or(&[][..], |e| &e.inputs) {
                floor[input.index()] = floor[input.index()].min(floor[v.index()]);
            }
        }
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed, installed_pinned};
    use crate::platform::Smile;
    use smile_storage::delta::{DeltaBatch, DeltaEntry};
    use smile_storage::join::JoinOn;
    use smile_storage::{Predicate, SpjQuery};
    use smile_types::{tuple, MachineId, RelationId, SharingId, SimDuration, Timestamp};
    use std::collections::HashMap;

    /// Every log on every machine, with its slot.
    fn logs(smile: &Smile) -> Vec<((MachineId, RelationId), &smile_storage::DeltaTable)> {
        let machines = smile.cluster.machine_ids();
        let dbs = machines.into_iter().map(|m| (m, &smile.cluster.machine(m).unwrap().db));
        dbs.flat_map(|(m, db)| db.relations().map(move |(rel, slot)| ((m, rel), &slot.delta))).collect()
    }

    /// On a fleet of literal half-joins whose logs carry literal
    /// partitions, over several periods: a boundary tick cuts and frees
    /// nothing, no later tick frees more cut entries than its budget (and
    /// than its appends into full rings), every cut is freed whole within
    /// the half period after it, and every log's horizon is, at every
    /// tick, the cut its last boundary computed.
    #[test]
    fn cuts_are_reclaimed_within_budget_before_the_next_cut() {
        let m = MachineId::new;
        let (mut smile, a, b, _) = installed_pinned(true, 10, &[Some(m(0)), Some(m(1))]);
        assert_eq!(smile.config.exec.tick, SimDuration::from_secs(1));
        for lit in 0..3i64 {
            let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::eq(1, lit));
            let sla = SimDuration::from_secs(8 + lit as u64);
            smile.submit_live("lit", q, sla, 0.001, Some(m(lit as u32 % 2))).unwrap();
        }
        let held = |smile: &Smile| logs(smile).iter().map(|(_, log)| log.reclaimable()).sum::<usize>();
        let retained = |smile: &Smile| logs(smile).iter().map(|(_, log)| log.len()).sum::<usize>();
        let mut horizons: HashMap<(MachineId, RelationId), Timestamp> = HashMap::new();
        let (mut boundaries, mut paced, mut partitioned, mut since) = (0, 0, false, 0);
        for s in 0..130i64 {
            let now = smile.now();
            let rows = |f: &dyn Fn(i64) -> smile_types::Tuple| DeltaBatch {
                entries: (0..12).map(|i| DeltaEntry::insert(f(s * 12 + i), now)).collect(),
            };
            smile.ingest(a, rows(&|k| tuple![k % 30])).unwrap();
            smile.ingest(b, rows(&|k| tuple![k % 30, k % 4])).unwrap();
            let last = smile.executor.as_ref().unwrap().last_compaction;
            let (before, kept) = (held(&smile), retained(&smile));
            smile.step().unwrap();
            let ex = smile.executor.as_ref().unwrap();
            let after = held(&smile);
            since += 1;
            if ex.last_compaction != last {
                (boundaries, since) = (boundaries + 1, 0);
                assert_eq!(before, 0, "tick {s}: a cut was still held when the next came");
                assert_eq!(after, ex.last_cut, "tick {s}: the boundary freed part of its cut");
                for (slot, cut) in ex.log_cuts(ex.last_compaction) {
                    let h = horizons.entry(slot).or_insert(Timestamp::ZERO);
                    *h = (*h).max(cut);
                }
            } else {
                // Between boundaries nothing is cut, so what the logs
                // gained was appended.
                let (freed, appended) = (before - after, retained(&smile) - kept);
                // The cut spread over half the period's one-second ticks.
                let budget = ex.last_cut.div_ceil(15);
                assert!(freed <= budget + appended, "tick {s}: freed {freed} > {budget} + {appended}");
                paced += usize::from(freed > 0 && after > 0);
                assert!(since < 15 || after == 0, "tick {s}: {after} held {since} ticks after the cut");
            }
            for (slot, log) in logs(&smile) {
                let want = horizons.get(&slot).copied().unwrap_or(Timestamp::ZERO);
                assert_eq!(log.horizon(), want, "tick {s}: the horizon of {slot:?}");
                partitioned |= log.reclaimable() > 0 && log.partitions().next().is_some();
            }
        }
        assert!(boundaries >= 3, "{boundaries} boundaries");
        assert!(paced >= 2 * boundaries, "{paced} ticks freed part of a cut");
        assert!(partitioned, "no partitioned log held a cut");
    }

    /// The one-pass floors equal a per-edge walk over the sharings each edge
    /// serves (those whose MV is its output or downstream of it), on
    /// a plan with twins (two MVs sharing a half-join pair, and two
    /// sharings on one MV), a retired sharing's inert chain and a
    /// migration's shadow chain, at every tick from the migration's start
    /// past its cutover.
    #[test]
    fn mv_floors_match_the_per_edge_walk() {
        let m = MachineId::new;
        let pins = [Some(m(0)), Some(m(1)), Some(m(1))];
        let (mut smile, a, b, _) = installed_pinned(true, 20, &pins);
        feed(&mut smile, a, b, 10);
        let mut submit = |name, q, sla, pin| {
            let sla = SimDuration::from_secs(sla);
            smile.submit_live(name, q, sla, 0.001, Some(pin)).unwrap()
        };
        let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::eq(1, 1i64));
        let moved = submit("f", q, 9, m(0));
        let retired = submit("s", SpjQuery::scan(a), 7, m(1));
        feed(&mut smile, a, b, 25);
        smile.retire(retired).unwrap();
        assert!(smile.migrate_sharing(moved, Some(m(1))).unwrap());
        assert!(smile.executor.as_ref().unwrap().migrating(moved));
        let mut floors_seen = std::collections::BTreeSet::new();
        for tick in 0..40 {
            let ex = smile.executor.as_ref().unwrap();
            let mv_ts: HashMap<SharingId, Timestamp> = ex
                .live_sharings()
                .map(|rt| (rt.id, ex.visible_ts[rt.mv.index()]))
                .collect();
            let floors = ex.mv_floors();
            let plan = &ex.global.plan;
            for e in ex.live_edges() {
                let reach = plan.downstream(e.output);
                let served = ex.live_sharings().filter(|rt| reach.contains(&rt.mv)).map(|rt| rt.id);
                let walk = served.filter_map(|s| mv_ts.get(&s)).min();
                let walk = walk.copied().unwrap_or(Timestamp::MAX);
                assert_eq!(floors[e.output.index()], walk, "edge {}, tick {tick}", e.id);
                floors_seen.insert(walk);
            }
            feed(&mut smile, a, b, 1);
        }
        let ex = smile.executor.as_ref().unwrap();
        assert!(!ex.migrating(moved), "never cut over");
        assert!(floors_seen.len() > 2, "{floors_seen:?}");
    }
}
