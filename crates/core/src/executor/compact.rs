//! Delta-log compaction: every slot's log is cut below the oldest
//! timestamp any live consumer could still ask for.

use super::Executor;
use smile_sim::Cluster;
use smile_types::{MachineId, RelationId, Result, SharingId, SimDuration, Timestamp};
use std::collections::HashMap;

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
        let mut bound: HashMap<(MachineId, RelationId), Timestamp> = HashMap::new();
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
        let mv_floor: HashMap<SharingId, Timestamp> = self
            .live_sharings()
            .map(|rt| (rt.id, self.visible_ts[rt.mv.index()]))
            .collect();
        for e in self.live_edges() {
            let mut out_ts = self.data_ts[e.output.index()];
            if let Some(sib) = self.anchor_of.get(&e.id) {
                out_ts = out_ts.min(self.data_ts[sib.index()]);
            }
            let served = &self.global.plan.vertex(e.output).sharings;
            let base_floor = served
                .iter()
                .filter_map(|s| mv_floor.get(s))
                .min()
                .copied()
                .unwrap_or(Timestamp::MAX);
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
}
