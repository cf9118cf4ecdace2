//! Delta-log compaction: every slot's log is cut below the oldest
//! timestamp any live consumer could still ask for.

use super::Executor;
use smile_sim::Cluster;
use smile_types::{FastMap, MachineId, RelationId, Result, SimDuration, Timestamp, VertexId};

/// How often delta logs are compacted.
const COMPACTION_PERIOD: SimDuration = SimDuration::from_secs(30);
/// Retention margin kept below the minimum consumer timestamp.
const COMPACTION_MARGIN: SimDuration = SimDuration::from_secs(10);

impl Executor {
    /// Once per [`COMPACTION_PERIOD`], compacts every slot's delta log
    /// below the minimum timestamp its live consumers could still request
    /// (minus the safety margin). Only [`Executor::live`] vertices and
    /// edges pin a log: a retired sharing's inert chain must not hold its
    /// inputs' logs for ever.
    pub(super) fn compact_if_due(&mut self, cluster: &mut Cluster, now: Timestamp) -> Result<()> {
        if now - self.last_compaction < COMPACTION_PERIOD {
            return Ok(());
        }
        // On the seedless hasher, so slots are cut, and their entries freed,
        // in the same order every run.
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
        for ((machine, slot), ts) in bound {
            // Still unbounded: a base slot no live edge reads. Whoever
            // reads it next is seeded from its table, not its log.
            let cut = if ts == Timestamp::MAX { now } else { ts } - COMPACTION_MARGIN;
            let m = cluster.machine_mut(machine)?;
            if m.db.has_relation(slot) {
                m.db.compact(slot, cut)?;
            }
        }
        self.last_compaction = now;
        Ok(())
    }

    /// Per vertex, the oldest committed MV among the live sharings it
    /// serves — those whose MV is `v` or downstream of it — so one
    /// reverse-topological pass carries each MV's up.
    fn mv_floors(&self) -> Vec<Timestamp> {
        let plan = &self.global.plan;
        let mut floor = vec![Timestamp::MAX; plan.vertex_count()];
        for rt in self.live_sharings() {
            let f = &mut floor[rt.mv.index()];
            *f = (*f).min(self.visible_ts[rt.mv.index()]);
        }
        let mut order = vec![VertexId::new(0); floor.len()];
        for (v, &rank) in self.topo_rank.iter().enumerate() {
            order[rank as usize] = VertexId::new(v as u32);
        }
        for v in order.into_iter().rev() {
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
    use smile_storage::join::JoinOn;
    use smile_storage::{Predicate, SpjQuery};
    use smile_types::{MachineId, SharingId, SimDuration, Timestamp};
    use std::collections::HashMap;

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
