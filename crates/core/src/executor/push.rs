//! PUSH command execution: running one plan edge against the cluster.
//!
//! A PUSH advances a vertex's timestamp by applying its producing edge's
//! operator to the delta window `(from, to]` (paper §8.1). Every operation
//! both **moves real tuples** through the storage engine and **occupies
//! simulated resources** — the CPU FIFO of the machine it runs on, the NIC
//! for `CopyDelta` — so queueing delays and dollar costs emerge from the
//! same call that maintains the data.
//!
//! Join edges read the non-delta side at a *snapshot*. Rather than cloning
//! the whole relation to roll it back (the naive compensation), the probe
//! algebra is used:
//!
//! ```text
//! Δ ⋈ R@at  =  Δ ⋈ R@now  −  Δ ⋈ (R@now − R@at)
//! ```
//!
//! where `R@now − R@at` is the (small) consolidated delta window between
//! the snapshot and the table's current state — so the big side is probed
//! through its persistent secondary index and only the correction is
//! materialized.
//!
//! ## Machine-local primitives
//!
//! Every operator except a cross-machine `CopyDelta` touches exactly one
//! machine (plan validation enforces co-location), so the execution
//! primitives here take `&mut Machine`, not the whole cluster. A
//! cross-machine copy splits into [`ship_copy`] on the source machine and
//! [`land_copy`] on the destination, exchanging immutable WAL bytes;
//! everything else is [`run_local`] on the output's machine
//! ([`super::wave`] sequences them). Fault decisions (crash windows, delta
//! drops, ack losses) are **not** drawn here — the coordinator pre-draws
//! them in canonical order and passes the outcomes in as [`JobFaults`], so
//! the seeded fault streams are consumed in one place.

use crate::plan::dag::{DeltaSide, Edge, EdgeOp, Plan, VertexKind};
use crate::plan::timecost::TimeCostModel;
use smile_sim::machine::Machine;
use smile_sim::meter::ResourceUsage;
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_storage::wal::Bytes;
use smile_storage::{wal, Predicate};
use smile_types::{Result, SmileError, Timestamp, Tuple, VertexId};

/// Outcome of executing one edge.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRun {
    /// Simulated completion time (queueing + service + wire).
    pub end: Timestamp,
    /// Tuples this edge actually *moved* downstream: the input window for
    /// copies/applies/unions, the produced outputs for joins. Snapshot rows
    /// served from an arrangement probe are read in place and never counted
    /// — their movement was already billed by the `CopyDelta`/`DeltaToRel`
    /// edges that delivered them.
    pub tuples: u64,
    /// True iff the output batch was suppressed by batch-id deduplication
    /// (a retry re-shipping a window that already landed).
    pub deduped: bool,
    /// When the edge was a cross-machine copy, the simulated instant the
    /// WAL bytes arrived at the destination — the boundary between the ship
    /// and land halves, exported as the ship/land span split in the push
    /// trace. `None` for machine-local edges.
    pub ship_arrive: Option<Timestamp>,
}

/// Pre-drawn fault outcomes for one edge job. The coordinator consumes the
/// shared fault stream in canonical job order *before* dispatching a wave,
/// so these booleans — not the injector — are what the execution sees.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct JobFaults {
    /// A cross-machine delta batch is lost in transit after the NIC time
    /// was spent.
    pub drop_delta: bool,
    /// The batch lands but its acknowledgement is lost; the retry re-ships
    /// and is absorbed by batch-id dedup.
    pub ack_lost: bool,
}

/// The source-machine half of a cross-machine `CopyDelta`: the filtered
/// window encoded as WAL bytes and already pushed through the NIC.
#[derive(Clone, Debug)]
pub(crate) struct ShipOutput {
    /// Encoded WAL bytes, handed to the land half on the destination.
    pub bytes: Bytes,
    /// Arrival time at the destination (NIC serialization + latency).
    pub arrive: Timestamp,
    /// The NIC usage to charge (spent even if the batch is then dropped).
    pub usage: ResourceUsage,
}

fn slot_of(plan: &Plan, v: VertexId) -> Result<smile_types::RelationId> {
    plan.vertex(v)
        .slot
        .ok_or_else(|| SmileError::Internal(format!("vertex {v} has no storage slot")))
}

/// Identity of the batch one push edge produces for the window `(from, to]`
/// — stable across retries, distinct across edges and windows (FNV-1a over
/// the output vertex and the window bounds).
pub(crate) fn batch_id(output: VertexId, from: Timestamp, to: Timestamp) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [
        output.index() as u64,
        (from - Timestamp::ZERO).as_micros(),
        (to - Timestamp::ZERO).as_micros(),
    ] {
        for byte in part.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn apply_filter_projection(
    batch: DeltaBatch,
    filter: &Predicate,
    projection: Option<&Vec<usize>>,
) -> DeltaBatch {
    if *filter == Predicate::True && projection.is_none() {
        return batch;
    }
    DeltaBatch {
        entries: batch
            .entries
            .into_iter()
            .filter(|e| filter.eval(&e.tuple))
            .map(|mut e| {
                if let Some(cols) = projection {
                    e.tuple = e.tuple.project(cols);
                }
                e
            })
            .collect(),
    }
}

/// Source-machine half of a cross-machine copy: read the window, filter and
/// project it, encode WAL bytes and occupy the NIC. No fault is consulted —
/// the caller has pre-drawn whether the batch is dropped.
///
/// The frame is encoded in one pass straight from the borrowed delta log
/// slice — no window clone, no intermediate `DeltaBatch`, no per-row
/// `Tuple` allocation.
pub(crate) fn ship_copy(
    src: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    from: Timestamp,
    to: Timestamp,
    submit: Timestamp,
) -> Result<ShipOutput> {
    let src_slot = slot_of(plan, edge.inputs[0])?;
    let bytes =
        src.db
            .delta_window_encode(src_slot, from, to, &edge.filter, edge.projection.as_deref())?;
    src.db.wal_stats().note_shipped(bytes.len() as u64);
    let (res, usage) = src.send(submit, bytes.len() as u64);
    Ok(ShipOutput {
        bytes,
        arrive: res.end,
        usage,
    })
}

/// Destination-machine half of a cross-machine copy: land the shipped WAL
/// bytes (CPU service, aggregation, idempotent append).
///
/// The shipped bytes are validated once as a zero-copy [`wal::Frame`] and
/// handed to [`finish_copy`], which lands a plain copy straight from the
/// frame and materializes a batch only for an aggregate-bearing edge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn land_copy(
    dst: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    from: Timestamp,
    to: Timestamp,
    bytes: Bytes,
    arrive: Timestamp,
    model: &TimeCostModel,
    ack_lost: bool,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    // The WAL round-trip is the real data path: parse/decode on arrival.
    dst.db.wal_stats().note_landed(bytes.len() as u64);
    let frame = wal::Frame::parse(bytes)?;
    let landing = Landing::Frame(&frame);
    let mut run = finish_copy(
        dst, plan, edge, landing, arrive, from, to, model, ack_lost, charges,
    )?;
    run.ship_arrive = Some(arrive);
    Ok(run)
}

/// Runs an edge whose every byte lives on one machine: a same-machine copy,
/// a delta application, a join, or a union. `snapshot_at` only applies to
/// `Join` (the instant its relation side is read at: the sibling half's
/// landed coverage, which keeps the two halves consistent even when
/// failures have skewed their windows). `ack_lost` only applies to
/// `CopyDelta` (the other operators have no acknowledgement fault in the
/// model) and fires *after* the batch landed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local(
    machine: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    from: Timestamp,
    to: Timestamp,
    snapshot_at: Timestamp,
    submit: Timestamp,
    model: &TimeCostModel,
    ack_lost: bool,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    match &edge.op {
        EdgeOp::CopyDelta => {
            // Same-machine copies never hit the wire, so there is no frame
            // to land zero-copy; the window is materialized.
            let src_slot = slot_of(plan, edge.inputs[0])?;
            let raw = machine.db.delta_window(src_slot, from, to)?;
            let batch = apply_filter_projection(raw, &edge.filter, edge.projection.as_ref());
            let landing = Landing::Batch(batch);
            finish_copy(
                machine, plan, edge, landing, submit, from, to, model, ack_lost, charges,
            )
        }
        EdgeOp::DeltaToRel => run_apply(machine, plan, edge, to, submit, model, charges),
        EdgeOp::Join {
            on,
            delta_side,
            snapshot_filter,
        } => run_join(
            machine,
            plan,
            edge,
            from,
            to,
            snapshot_at,
            submit,
            model,
            charges,
            on,
            *delta_side,
            snapshot_filter,
        ),
        EdgeOp::Union => run_union(machine, plan, edge, from, to, submit, model, charges),
    }
}

/// What a copy lands: the materialized window of a same-machine copy, or
/// the validated frame a cross-machine copy shipped.
enum Landing<'a> {
    Batch(DeltaBatch),
    Frame(&'a wal::Frame),
}

/// Shared tail of both copy variants: CPU service, aggregation against the
/// output table, idempotent append, then the (possibly pre-drawn) ack loss.
/// An aggregate-free frame lands straight from the shipped bytes via
/// [`smile_storage::Database::append_frame_dedup`]; everything else goes
/// through a batch (the aggregate transform needs one). `tests/properties.rs`
/// pins the two routes to the same log contents, stats and dedup books.
#[allow(clippy::too_many_arguments)]
fn finish_copy(
    dst: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    landing: Landing,
    start: Timestamp,
    from: Timestamp,
    to: Timestamp,
    model: &TimeCostModel,
    ack_lost: bool,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    let dst_v = plan.vertex(edge.output);
    let dst_slot = slot_of(plan, dst_v.id)?;
    let n = match &landing {
        Landing::Batch(batch) => batch.len(),
        Landing::Frame(frame) => frame.len(),
    } as u64;
    let service = model.edge_service(&edge.op, n as f64, edge.est_tuple_bytes);
    let (res, usage) = dst.run_cpu(start, service);
    charges.push(usage);
    let (id, producer) = (batch_id(dst_v.id, from, to), dst_v.id.index() as u64);
    let appended = match landing {
        Landing::Frame(frame) if edge.aggregate.is_none() => dst
            .db
            .append_frame_dedup(dst_slot, frame, id, producer, to)?,
        landing => {
            let batch = match landing {
                Landing::Batch(batch) => batch,
                Landing::Frame(frame) => frame.to_batch(),
            };
            let batch = apply_aggregate(dst, dst_slot, batch, edge)?;
            dst.db
                .append_delta_dedup(dst_slot, batch, id, producer, to)?
        }
    };
    if ack_lost {
        // The batch landed but the completion message did not; the retry
        // will re-ship and be absorbed by the batch-id dedup above.
        return Err(SmileError::Transient {
            detail: format!("acknowledgement for vertex {} push lost", dst_v.id),
        });
    }
    Ok(EdgeRun {
        end: res.end,
        tuples: n,
        deduped: !appended,
        ship_arrive: None,
    })
}

/// Applies the edge's aggregation (if any) to a batch destined for the MV's
/// delta: the raw window is folded into aggregate-space delete/insert
/// entries against the MV's current rows (the output slot is the MV's).
fn apply_aggregate(
    machine: &Machine,
    slot: smile_types::RelationId,
    batch: DeltaBatch,
    edge: &Edge,
) -> Result<DeltaBatch> {
    let Some(spec) = &edge.aggregate else {
        return Ok(batch);
    };
    let table = &machine.db.relation(slot)?.table;
    spec.delta_transform(&batch, |g| table.get_by_key(g))
}

fn run_apply(
    machine: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    to: Timestamp,
    submit: Timestamp,
    model: &TimeCostModel,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    let out_v = plan.vertex(edge.output);
    let slot = slot_of(plan, out_v.id)?;
    // `apply_pending` is naturally idempotent: it only moves the table
    // forward from its current timestamp, so a retry re-applies nothing.
    let n = machine.db.apply_pending(slot, to)? as u64;
    let service = model.edge_service(&edge.op, n as f64, edge.est_tuple_bytes);
    let (res, usage) = machine.run_cpu(submit, service);
    charges.push(usage);
    Ok(EdgeRun {
        end: res.end,
        tuples: n,
        deduped: false,
        ship_arrive: None,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_join(
    machine: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    from: Timestamp,
    to: Timestamp,
    at: Timestamp,
    submit: Timestamp,
    model: &TimeCostModel,
    charges: &mut Vec<ResourceUsage>,
    on: &smile_storage::join::JoinOn,
    delta_side: DeltaSide,
    snapshot_filter: &Predicate,
) -> Result<EdgeRun> {
    let delta_v = plan.vertex(edge.inputs[0]);
    let rel_v = plan.vertex(edge.inputs[1]);
    let out_v = plan.vertex(edge.output);
    debug_assert_eq!(delta_v.machine, out_v.machine);
    debug_assert_eq!(rel_v.machine, out_v.machine);
    debug_assert_eq!(rel_v.kind, VertexKind::Relation);
    let delta_slot = slot_of(plan, delta_v.id)?;
    let rel_slot = slot_of(plan, rel_v.id)?;
    let out_slot = slot_of(plan, out_v.id)?;

    // Column orientation: the delta probes with its side's join columns and
    // matches rows on the snapshot side's columns.
    let (delta_cols, snap_cols) = match delta_side {
        DeltaSide::Left => (&on.left_cols, &on.right_cols),
        DeltaSide::Right => (&on.right_cols, &on.left_cols),
    };
    let (outputs, window_len) = {
        let db = &machine.db;
        // Borrow the window straight from the delta log (no clone), build
        // one flattened key buffer for the whole window, and probe the
        // arrangement in a single batched pass.
        let all = db.delta_window_entries(delta_slot, from, to)?;
        let unfiltered = edge.filter == Predicate::True;
        let entries: Vec<&DeltaEntry> = all
            .iter()
            .filter(|e| unfiltered || edge.filter.eval(&e.tuple))
            .collect();
        let window_len = entries.len() as u64;
        let mut outputs: Vec<DeltaEntry> = Vec::new();
        if !entries.is_empty() {
            let slot_ref = db.relation(rel_slot)?;
            let table = &slot_ref.table;
            let concat = |d: &Tuple, s: &Tuple| match delta_side {
                DeltaSide::Left => d.concat(s),
                DeltaSide::Right => s.concat(d),
            };
            let Some(arr) = table.arrangement(snap_cols) else {
                return Err(SmileError::Internal(format!(
                    "relation vertex {} lacks the arrangement on {:?} its join edge probes",
                    rel_v.id, snap_cols
                )));
            };
            // One contiguous key arena for the whole window: keys are
            // assembled back to back and hashed/probed in one batched
            // pass instead of allocating a key `Tuple` per entry.
            let arity = delta_cols.len();
            let mut keys_flat: Vec<smile_types::Value> = Vec::with_capacity(arity * entries.len());
            for e in &entries {
                for &c in delta_cols.iter() {
                    keys_flat.push(e.tuple.values()[c].clone());
                }
            }
            let buckets = arr.probe_batch(&keys_flat, arity, entries.len());
            for (e, bucket) in entries.iter().zip(buckets) {
                for (row, &w) in bucket {
                    if !snapshot_filter.eval(row) {
                        continue;
                    }
                    let weight = e.weight * w;
                    if weight != 0 {
                        outputs.push(DeltaEntry {
                            tuple: concat(&e.tuple, row),
                            weight,
                            ts: e.ts,
                        });
                    }
                }
            }
            // Correction: the table is at `table.ts()`, we need it at `at`.
            //   R@at = R@now − Σ(at, now]   (at < now)
            //   R@at = R@now + Σ(now, at]   (at > now)
            let table_ts = table.ts();
            if at != table_ts {
                let (corr, sign) = if at < table_ts {
                    (slot_ref.delta.window(at, table_ts).to_zset(), -1)
                } else {
                    (slot_ref.delta.window(table_ts, at).to_zset(), 1)
                };
                if !corr.is_empty() {
                    // Index the correction by the snapshot-side join columns.
                    let mut corr_index: std::collections::HashMap<Tuple, Vec<(&Tuple, i64)>> =
                        std::collections::HashMap::new();
                    for (t, w) in corr.iter() {
                        if !snapshot_filter.eval(t) {
                            continue;
                        }
                        corr_index
                            .entry(t.project(snap_cols))
                            .or_default()
                            .push((t, w));
                    }
                    for e in &entries {
                        let key = e.tuple.project(delta_cols);
                        if let Some(matches) = corr_index.get(&key) {
                            for (row, w) in matches {
                                let weight = e.weight * w * sign;
                                if weight != 0 {
                                    outputs.push(DeltaEntry {
                                        tuple: concat(&e.tuple, row),
                                        weight,
                                        ts: e.ts,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        (outputs, window_len)
    };

    // Service time is billed on the work actually done — reading the window
    // and writing the outputs, whichever dominates. The *moved* count is
    // `produced` only: the window was already counted by the edge that
    // delivered it, and probe-served snapshot rows are read in place, so
    // counting the window again would double-bill it in the meter.
    let produced = outputs.len() as u64;
    let n = window_len.max(produced);
    let batch = DeltaBatch { entries: outputs };
    let service = model.edge_service(&edge.op, n as f64, edge.est_tuple_bytes);
    let (res, usage) = machine.run_cpu(submit, service);
    charges.push(usage);
    let appended = machine.db.append_delta_dedup(
        out_slot,
        batch,
        batch_id(out_v.id, from, to),
        out_v.id.index() as u64,
        to,
    )?;
    Ok(EdgeRun {
        end: res.end,
        tuples: produced,
        deduped: !appended,
        ship_arrive: None,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_union(
    machine: &mut Machine,
    plan: &Plan,
    edge: &Edge,
    from: Timestamp,
    to: Timestamp,
    submit: Timestamp,
    model: &TimeCostModel,
    charges: &mut Vec<ResourceUsage>,
) -> Result<EdgeRun> {
    let out_v = plan.vertex(edge.output);
    let out_slot = slot_of(plan, out_v.id)?;
    let mut merged: Vec<DeltaEntry> = Vec::new();
    for &input in &edge.inputs {
        let in_v = plan.vertex(input);
        debug_assert_eq!(in_v.machine, out_v.machine);
        let in_slot = slot_of(plan, input)?;
        let raw = machine.db.delta_window(in_slot, from, to)?;
        let filtered = apply_filter_projection(raw, &edge.filter, edge.projection.as_ref());
        merged.extend(filtered.entries);
    }
    // Keep the output log timestamp-sorted.
    merged.sort_by_key(|e| e.ts);
    let n = merged.len() as u64;
    let service = model.edge_service(&edge.op, n as f64, edge.est_tuple_bytes);
    let (res, usage) = machine.run_cpu(submit, service);
    charges.push(usage);
    let batch = apply_aggregate(machine, out_slot, DeltaBatch { entries: merged }, edge)?;
    let appended = machine.db.append_delta_dedup(
        out_slot,
        batch,
        batch_id(out_v.id, from, to),
        out_v.id.index() as u64,
        to,
    )?;
    Ok(EdgeRun {
        end: res.end,
        tuples: n,
        deduped: !appended,
        ship_arrive: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::sig::ExprSig;
    use smile_sim::Cluster;
    use smile_storage::join::JoinOn;
    use smile_storage::ZSet;
    use smile_types::{tuple, Column, ColumnType, MachineId, RelationId, Schema};

    fn two_cols() -> Schema {
        Schema::new(
            vec![
                Column::new("k", ColumnType::I64),
                Column::new("v", ColumnType::I64),
            ],
            vec![],
        )
    }

    fn four_cols() -> Schema {
        Schema::new(
            vec![
                Column::new("k", ColumnType::I64),
                Column::new("v", ColumnType::I64),
                Column::new("k2", ColumnType::I64),
                Column::new("w", ColumnType::I64),
            ],
            vec![],
        )
    }

    /// One machine, one Join edge: a 5-entry delta window probing a relation
    /// in which only key 1 has (two) matching rows.
    fn join_fixture(build_index: bool) -> (Cluster, Plan, usize) {
        let m = MachineId::new(0);
        let mut cluster = Cluster::homogeneous(1);
        let (d_slot, r_slot, o_slot) = (
            RelationId::new(0),
            RelationId::new(1),
            RelationId::new(2),
        );
        let db = &mut cluster.machine_mut(m).unwrap().db;
        db.create_relation(d_slot, two_cols()).unwrap();
        db.create_relation(r_slot, two_cols()).unwrap();
        db.create_relation(o_slot, four_cols()).unwrap();
        // Window (0, 2s]: five entries, only key 1 matches the relation.
        let ts = Timestamp::from_secs(2);
        let batch: DeltaBatch = (1..=5)
            .map(|k| DeltaEntry::insert(tuple![k, 100 + k], ts))
            .collect();
        db.append_delta(d_slot, batch).unwrap();
        // Two rows under key 1, seeded current through `to` (no correction).
        let rows: ZSet = [(tuple![1i64, 10i64], 1), (tuple![1i64, 11i64], 1)]
            .into_iter()
            .collect();
        db.seed_relation(r_slot, rows, ts).unwrap();
        if build_index {
            db.ensure_index(r_slot, &[0]).unwrap();
        }

        let mut plan = Plan::new();
        let vd = plan.add_vertex(
            VertexKind::Delta,
            ExprSig::Base(d_slot),
            m,
            two_cols(),
            false,
            1.0,
            0.0,
            16.0,
        );
        let vr = plan.add_vertex(
            VertexKind::Relation,
            ExprSig::Base(r_slot),
            m,
            two_cols(),
            false,
            1.0,
            2.0,
            16.0,
        );
        let vo = plan.add_vertex(
            VertexKind::Delta,
            ExprSig::Base(o_slot),
            m,
            four_cols(),
            false,
            1.0,
            0.0,
            32.0,
        );
        plan.vertex_mut(vd).slot = Some(d_slot);
        plan.vertex_mut(vr).slot = Some(r_slot);
        plan.vertex_mut(vo).slot = Some(o_slot);
        let e = plan
            .add_edge(
                EdgeOp::Join {
                    on: JoinOn::on(0, 0),
                    delta_side: DeltaSide::Left,
                    snapshot_filter: Predicate::True,
                },
                vec![vd, vr],
                vo,
                Predicate::True,
                None,
                1.0,
                32.0,
            )
            .unwrap();
        (cluster, plan, e)
    }

    fn run_fixture(cluster: &mut Cluster, plan: &Plan, e: usize) -> Result<EdgeRun> {
        let model = TimeCostModel::paper_defaults();
        run_local(
            cluster.machine_mut(MachineId::new(0)).unwrap(),
            plan,
            plan.edge(e),
            Timestamp::ZERO,
            Timestamp::from_secs(2),
            Timestamp::from_secs(2),
            Timestamp::from_secs(2),
            &model,
            false,
            &mut Vec::new(),
        )
    }

    /// The meter-correctness fix: a join reports only its *produced* tuples
    /// as moved. The 5-entry window probes rows in place; before the fix
    /// this run reported `max(window, produced) = 5`, double-billing the
    /// window the CopyDelta edge had already counted as moved.
    #[test]
    fn join_counts_produced_tuples_not_window() {
        let (mut cluster, plan, e) = join_fixture(true);
        let run = run_fixture(&mut cluster, &plan, e).unwrap();
        assert_eq!(run.tuples, 2, "only the two matched outputs moved");
        assert!(!run.deduped);
        // The output batch really landed, with the probed rows attached.
        let db = &cluster.machine(MachineId::new(0)).unwrap().db;
        let out = db
            .delta_window(RelationId::new(2), Timestamp::ZERO, Timestamp::from_secs(2))
            .unwrap();
        assert_eq!(
            out.to_zset().sorted_entries(),
            vec![
                (tuple![1i64, 101i64, 1i64, 10i64], 1),
                (tuple![1i64, 101i64, 1i64, 11i64], 1),
            ]
        );
        // And the probes were metered on the arrangement: 5 probes, 1
        // key hit, 4 misses.
        let c = db.arrangement_counters();
        assert_eq!((c.probes, c.hits, c.misses), (5, 1, 4));
    }

    /// A join without its arrangement is a hard install bug, not a silent
    /// scan.
    #[test]
    fn indexed_join_without_arrangement_errors() {
        let (mut cluster, plan, e) = join_fixture(false);
        let err = run_fixture(&mut cluster, &plan, e).unwrap_err();
        assert!(matches!(err, SmileError::Internal(_)));
    }

    /// The split primitives compose: ship on the source, land on the
    /// destination.
    #[test]
    fn ship_then_land_moves_the_window_across_machines() {
        let mut cluster = Cluster::homogeneous(2);
        let (m0, m1) = (MachineId::new(0), MachineId::new(1));
        let slot = RelationId::new(0);
        let dst_slot = RelationId::new(1);
        cluster
            .machine_mut(m0)
            .unwrap()
            .db
            .create_relation(slot, two_cols())
            .unwrap();
        cluster
            .machine_mut(m1)
            .unwrap()
            .db
            .create_relation(dst_slot, two_cols())
            .unwrap();
        let ts = Timestamp::from_secs(1);
        let batch: DeltaBatch = (0..4)
            .map(|k| DeltaEntry::insert(tuple![k, k], ts))
            .collect();
        cluster
            .machine_mut(m0)
            .unwrap()
            .db
            .append_delta(slot, batch)
            .unwrap();

        let mut plan = Plan::new();
        let vs = plan.add_vertex(
            VertexKind::Delta,
            ExprSig::Base(slot),
            m0,
            two_cols(),
            false,
            1.0,
            0.0,
            16.0,
        );
        let vd = plan.add_vertex(
            VertexKind::Delta,
            ExprSig::Base(dst_slot),
            m1,
            two_cols(),
            false,
            1.0,
            0.0,
            16.0,
        );
        plan.vertex_mut(vs).slot = Some(slot);
        plan.vertex_mut(vd).slot = Some(dst_slot);
        let e = plan
            .add_edge(
                EdgeOp::CopyDelta,
                vec![vs],
                vd,
                Predicate::True,
                None,
                1.0,
                16.0,
            )
            .unwrap();
        let edge = plan.edge(e).clone();
        let model = TimeCostModel::paper_defaults();

        let ship = ship_copy(
            cluster.machine_mut(m0).unwrap(),
            &plan,
            &edge,
            Timestamp::ZERO,
            ts,
            ts,
        )
        .unwrap();
        assert!(ship.usage.net_bytes > 0, "the wire was used");
        assert!(ship.arrive > ts, "latency applied");
        let mut charges = Vec::new();
        let run = land_copy(
            cluster.machine_mut(m1).unwrap(),
            &plan,
            &edge,
            Timestamp::ZERO,
            ts,
            ship.bytes,
            ship.arrive,
            &model,
            false,
            &mut charges,
        )
        .unwrap();
        assert_eq!(run.tuples, 4);
        assert_eq!(charges.len(), 1, "one CPU charge on the destination");
        let landed = cluster
            .machine(m1)
            .unwrap()
            .db
            .delta_window(dst_slot, Timestamp::ZERO, ts)
            .unwrap();
        assert_eq!(landed.len(), 4);
    }
}
