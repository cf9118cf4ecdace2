//! Helpers shared by the integration tests that check arrangements against
//! the running plan.

use smile::core::plan::dag::{DeltaSide, EdgeOp};
use smile::core::platform::Smile;
use smile::types::{MachineId, RelationId};
use std::collections::BTreeSet;

/// One physical arrangement: hosting machine, relation slot, key columns.
pub type ArrangementKey = (MachineId, RelationId, Vec<usize>);

/// What the live join edges of the running plan probe, one key per edge —
/// the length counts references, [`distinct`] of it the arrangements that
/// should exist.
pub fn live_probes(smile: &Smile) -> Vec<ArrangementKey> {
    let executor = smile.executor.as_ref().expect("installed");
    let plan = &executor.global.plan;
    let probe = |e: &smile::core::plan::dag::Edge| {
        let EdgeOp::Join { on, delta_side, .. } = &e.op else {
            return None;
        };
        let cols = match delta_side {
            DeltaSide::Left => &on.right_cols,
            DeltaSide::Right => &on.left_cols,
        };
        let rel = plan.vertex(e.inputs[1]);
        Some((rel.machine, rel.slot?, cols.clone()))
    };
    executor.live_edges().filter_map(probe).collect()
}

/// Number of distinct keys.
pub fn distinct(probes: &[ArrangementKey]) -> usize {
    probes.iter().collect::<BTreeSet<_>>().len()
}

/// Fleet-wide count of physically installed arrangements.
pub fn fleet_arrangements(smile: &Smile) -> usize {
    let machines = smile.cluster.machine_ids().into_iter();
    machines
        .map(|m| smile.cluster.machine(m).unwrap().db.arrangement_count())
        .sum()
}
