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
//! The first term probes the big side through its persistent arrangement —
//! only the partition the snapshot filter's `col = literal` conjuncts name
//! (`Plan::probed_arrangement`), so a reader that differs from others on
//! the same relation only by a literal never walks their rows; the whole
//! filter is still evaluated on each row found. For the second,
//! `R@now − R@at` is the relation's log between the two instants, and it is
//! never materialized: the log is read by reference through its literal
//! partition on the same columns (`Plan::read_log_partitions`), so only
//! the entries carrying the reader's literal are visited, and each passes
//! the whole snapshot filter first; whichever side is then smaller — the
//! kept log rows or the delta window's keys — is hashed by join key while
//! the other streams past it. The kept rows are netted — a delete cancels
//! its insert, a repeat adds up — so the output has one entry per (delta
//! entry, distinct surviving row): the multiset and the entry count of
//! consolidating the window first. Outputs are handed over stably sorted
//! by timestamp, probe run ahead of correction run: a log only takes a
//! batch in timestamp order, at its end.
//!
//! Every other log read that filters a window — a copy's, a union's, a
//! join's delta window — goes through the same partitioned read
//! (`DeltaTable::window_filtered`): with a partition on the filter's
//! `col = literal` columns it visits only that literal's entries, without
//! one it scans the window; the entries and their order are the same.
//!
//! ## Machine-local primitives
//!
//! Every operator except a cross-machine `CopyDelta` touches exactly one
//! machine (plan validation enforces co-location), so the execution
//! primitives here take one `Job` — a `&mut Machine`, the edge and its
//! window, where the simulated cost goes — not the whole cluster. A
//! cross-machine copy splits into `ship_copy` on the source machine and
//! `land_copy` on the destination, exchanging immutable WAL bytes;
//! everything else is `run_local` on the output's machine (the wave loop
//! of `executor::batch` sequences them). Fault decisions (crash windows,
//! delta drops, ack losses) are **not** drawn here — the coordinator draws
//! them in canonical order before a wave runs and passes the outcomes in,
//! so the seeded fault streams are consumed in one place.

use crate::plan::dag::{DeltaSide, Edge, EdgeOp, Plan, VertexKind};
use crate::plan::timecost::TimeCostModel;
use smile_sim::machine::Machine;
use smile_sim::meter::ResourceUsage;
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_storage::wal::Bytes;
use smile_storage::{wal, Predicate};
use smile_types::{FastMap, Result, SmileError, Timestamp, Tuple, Value, VertexId};

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
    /// True iff the producer's watermark suppressed the output batch (a
    /// retry re-shipping a window that already landed).
    pub deduped: bool,
    /// When the edge was a cross-machine copy, the simulated instant the
    /// WAL bytes arrived at the destination — the boundary between the ship
    /// and land halves, exported as the ship/land span split in the push
    /// trace. `None` for machine-local edges.
    pub ship_arrive: Option<Timestamp>,
}

impl EdgeRun {
    /// A run on one machine; [`land_copy`] adds the ship/land boundary.
    fn local(end: Timestamp, tuples: u64, appended: bool) -> Self {
        Self {
            end,
            tuples,
            deduped: !appended,
            ship_arrive: None,
        }
    }
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

/// Appends to `out` the entries a copy or union moves: each borrowed log
/// entry it kept, cloned and projected onto `projection`. Room for every
/// entry the read could yield is reserved first, as cloning the whole
/// window did.
fn project<'a>(
    rows: impl Iterator<Item = &'a DeltaEntry>,
    projection: Option<&Vec<usize>>,
    out: &mut Vec<DeltaEntry>,
) {
    out.reserve(rows.size_hint().1.unwrap_or(0));
    out.extend(rows.map(|e| match projection {
        Some(cols) => DeltaEntry { tuple: e.tuple.project(cols), ..*e },
        None => e.clone(),
    }));
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

/// What every machine-local primitive is handed: the machine the job runs
/// on, the edge and its window, and where its simulated cost goes.
pub(crate) struct Job<'a> {
    /// The machine the edge's output lives on.
    pub machine: &'a mut Machine,
    pub plan: &'a Plan,
    pub edge: &'a Edge,
    /// Window start (exclusive).
    pub from: Timestamp,
    /// Window end (inclusive).
    pub to: Timestamp,
    /// Simulated instant the work reaches this machine's CPU: the job's
    /// submission, or the shipped bytes' arrival for a landing copy.
    pub start: Timestamp,
    pub model: &'a TimeCostModel,
    /// `CopyDelta` only (the other operators have no acknowledgement fault
    /// in the model): the batch lands, then its acknowledgement is lost.
    pub ack_lost: bool,
    /// Resource usages to charge, in the order they were incurred.
    pub charges: &'a mut Vec<ResourceUsage>,
}

impl Job<'_> {
    /// Occupies the machine's CPU for the edge's service time over `n`
    /// tuples, charges it, and returns the simulated completion time.
    fn bill(&mut self, n: u64) -> Timestamp {
        let bytes = self.plan.vertex(self.edge.output).est_tuple_bytes;
        let service = self.model.edge_service(&self.edge.op, n as f64, bytes);
        let (res, usage) = self.machine.run_cpu(self.start, service);
        self.charges.push(usage);
        res.end
    }

    /// Applies the edge's aggregation (if any) to a batch destined for the
    /// MV's delta: the raw window is folded into aggregate-space delete/insert
    /// entries against the MV's current rows (the output slot is the MV's).
    fn aggregate(&self, batch: DeltaBatch) -> Result<DeltaBatch> {
        let Some(spec) = &self.edge.aggregate else {
            return Ok(batch);
        };
        let slot = slot_of(self.plan, self.edge.output)?;
        let table = &self.machine.db.relation(slot)?.table;
        spec.delta_transform(&batch, |g| table.get_by_key(g))
    }

    /// Idempotent append of the edge's output for this window; `false` when
    /// the producer's watermark absorbed it.
    fn append(&mut self, batch: DeltaBatch) -> Result<bool> {
        let out = self.edge.output;
        let (slot, id) = (slot_of(self.plan, out)?, batch_id(out, self.from, self.to));
        let db = &mut self.machine.db;
        db.append_delta_dedup(slot, batch, id, out.index() as u64, self.to)
    }
}

/// Destination-machine half of a cross-machine copy: land the shipped WAL
/// bytes (CPU service, aggregation, idempotent append); `job.start` is their
/// arrival. The bytes are validated and decoded here, every row before any
/// of them reaches the log.
pub(crate) fn land_copy(job: Job<'_>, bytes: Bytes) -> Result<EdgeRun> {
    // The WAL round-trip is the real data path: parse/decode on arrival.
    job.machine.db.wal_stats().note_landed(bytes.len() as u64);
    let batch = wal::decode(bytes)?;
    let arrive = job.start;
    let mut run = finish_copy(job, batch)?;
    run.ship_arrive = Some(arrive);
    Ok(run)
}

/// Runs an edge whose every byte lives on one machine: a same-machine copy,
/// a delta application, a join, or a union. `snapshot_at` only applies to
/// `Join` (the instant its relation side is read at: the sibling half's
/// landed coverage, which keeps the two halves consistent even when
/// failures have skewed their windows).
pub(crate) fn run_local(mut job: Job<'_>, snapshot_at: Timestamp) -> Result<EdgeRun> {
    let edge = job.edge;
    match &edge.op {
        EdgeOp::CopyDelta => {
            // Same-machine copies never hit the wire: the kept entries are
            // cloned.
            let src_slot = slot_of(job.plan, edge.inputs[0])?;
            let rows = job.machine.db.delta_window_filtered(src_slot, job.from, job.to, &edge.filter)?;
            let mut entries = Vec::new();
            project(rows, edge.projection.as_ref(), &mut entries);
            finish_copy(job, DeltaBatch { entries })
        }
        EdgeOp::DeltaToRel => {
            // `apply_pending` is naturally idempotent: it only moves the
            // table forward from its current timestamp, so a retry
            // re-applies nothing.
            let slot = slot_of(job.plan, edge.output)?;
            let n = job.machine.db.apply_pending(slot, job.to)? as u64;
            Ok(EdgeRun::local(job.bill(n), n, true))
        }
        EdgeOp::Join {
            on,
            delta_side,
            snapshot_filter,
        } => run_join(job, snapshot_at, on, *delta_side, snapshot_filter),
        EdgeOp::Union => run_union(job),
    }
}

/// Shared tail of both copy variants: CPU service, aggregation against the
/// output table, idempotent append, then the (possibly pre-drawn) ack loss.
fn finish_copy(mut job: Job<'_>, batch: DeltaBatch) -> Result<EdgeRun> {
    let n = batch.len() as u64;
    let end = job.bill(n);
    let batch = job.aggregate(batch)?;
    let appended = job.append(batch)?;
    if job.ack_lost {
        // The batch landed but the completion message did not; the retry
        // will re-ship and be absorbed by the watermark above.
        return Err(SmileError::Transient {
            detail: format!("acknowledgement for vertex {} push lost", job.edge.output),
        });
    }
    Ok(EdgeRun::local(end, n, appended))
}

/// One half-join: `Δ(from, to] ⋈ R@at`, the relation side read at the
/// snapshot `at` without rolling the table there (module doc).
fn run_join(
    mut job: Job<'_>,
    at: Timestamp,
    on: &smile_storage::join::JoinOn,
    delta_side: DeltaSide,
    snapshot_filter: &Predicate,
) -> Result<EdgeRun> {
    let (plan, edge) = (job.plan, job.edge);
    let delta_v = plan.vertex(edge.inputs[0]);
    let rel_v = plan.vertex(edge.inputs[1]);
    let out_v = plan.vertex(edge.output);
    debug_assert_eq!(delta_v.machine, out_v.machine);
    debug_assert_eq!(rel_v.machine, out_v.machine);
    debug_assert_eq!(rel_v.kind, VertexKind::Relation);
    let delta_slot = slot_of(plan, delta_v.id)?;
    let ((_, rel_slot, index), partition) = plan
        .probed_arrangement(edge)
        .ok_or_else(|| SmileError::Internal(format!("vertex {} has no storage slot", rel_v.id)))?;

    // The delta probes with its side's join columns.
    let delta_cols = match delta_side {
        DeltaSide::Left => &on.left_cols,
        DeltaSide::Right => &on.right_cols,
    };
    // Borrow the window straight from the delta log (no clone).
    let db = &job.machine.db;
    let entries: Vec<&DeltaEntry> =
        db.delta_window_filtered(delta_slot, job.from, job.to, &edge.filter)?.collect();
    let window_len = entries.len() as u64;
    let mut outputs: Vec<DeltaEntry> = Vec::new();
    if !entries.is_empty() {
        let rel = db.relation(rel_slot)?;
        let Some(arr) = rel.table.arrangement_on(&index) else {
            return Err(SmileError::Internal(format!(
                "relation vertex {} lacks the arrangement on {index:?} its join edge probes",
                rel_v.id
            )));
        };
        let mut emit = |e: &DeltaEntry, row: &Tuple, weight: i64| {
            if weight != 0 {
                outputs.push(DeltaEntry {
                    tuple: match delta_side {
                        DeltaSide::Left => e.tuple.concat(row),
                        DeltaSide::Right => row.concat(&e.tuple),
                    },
                    weight,
                    ts: e.ts,
                });
            }
        };
        // One contiguous key arena for the whole window: keys are assembled
        // back to back and hashed/probed in one batched pass instead of
        // allocating a key `Tuple` per entry.
        let arity = delta_cols.len();
        let mut keys_flat: Vec<Value> = Vec::with_capacity(arity * entries.len());
        for e in &entries {
            keys_flat.extend(delta_cols.iter().map(|&c| e.tuple.values()[c].clone()));
        }
        // Only the partition of the filter's literals can hold a kept row.
        let buckets = arr.partition(&partition).probe_batch(&keys_flat, arity, entries.len());
        for (e, bucket) in entries.iter().zip(buckets) {
            for (row, &w) in bucket {
                if snapshot_filter.eval(row) {
                    emit(e, row, e.weight * w);
                }
            }
        }
        // Correction: the table is at `table.ts()`, we need it at `at`.
        //   R@at = R@now − Σ(at, now]   (at < now)
        //   R@at = R@now + Σ(now, at]   (at > now)
        // The window between the two is empty when they agree.
        // Only the log partition of the filter's literals can hold a kept
        // row, as for the probe.
        let now = rel.table.ts();
        let (lo, hi, sign) = if at < now { (at, now, -1) } else { (now, at, 1) };
        let kept: Vec<&DeltaEntry> = rel.delta.window_filtered(lo, hi, snapshot_filter).collect();
        correct(&keys_flat, entries.len(), &kept, &index.key, |i, row, w| {
            emit(entries[i], row, entries[i].weight * w * sign);
        });
    }
    // Hand the output over in log order, which the log refuses otherwise:
    // each run is already in delta-entry (timestamp) order, and the stable
    // sort keeps a probe output ahead of a correction output of its instant.
    outputs.sort_by_key(|e| e.ts);

    // Service time is billed on the work actually done — reading the window
    // and writing the outputs, whichever dominates. The *moved* count is
    // `produced` only: the window was already counted by the edge that
    // delivered it, and probe-served snapshot rows are read in place, so
    // counting the window again would double-bill it in the meter.
    let produced = outputs.len() as u64;
    let end = job.bill(window_len.max(produced));
    let appended = job.append(DeltaBatch { entries: outputs })?;
    Ok(EdgeRun::local(end, produced, appended))
}

/// The correction term `Δ ⋈ kept`, where `kept` are the log rows between
/// the table's instant and the snapshot's that pass the snapshot filter —
/// read through the log's literal partition, so a literal reader never
/// visits another literal's rows — and `keys_flat` holds the `n` delta
/// entries' join keys back to back. Calls `emit(i, row, w)` for each
/// delta entry `i` in order and, under it, each
/// distinct kept row with `i`'s key at `key_cols`, in the order the row was
/// first seen, `w` its net weight over `kept` (a delete cancels its insert,
/// a repeat adds up) — one call per (delta entry, distinct row), as if the
/// rows had been consolidated first.
///
/// Whichever side is smaller is hashed by join key, and the other streams
/// past it: the kept rows, or the delta window's keys. Both give the same
/// calls in the same order. Neither side is smaller as a rule: a half-join
/// behind a literal filter keeps a few rows against thousands of window
/// entries, an unfiltered one thousands of rows against a few, and hashing
/// either side always loses on the other (DESIGN §9a).
fn correct<'r>(
    keys_flat: &[Value],
    n: usize,
    kept: &[&'r DeltaEntry],
    key_cols: &[usize],
    mut emit: impl FnMut(usize, &'r Tuple, i64),
) {
    if kept.is_empty() {
        return;
    }
    let arity = key_cols.len();
    let range = |i: usize| i * arity..(i + 1) * arity;
    let hash_kept = kept.len() <= n;
    let kept_keys: Vec<Value> = if hash_kept {
        let keys = kept.iter().map(|r| key_cols.iter().map(|&c| r.tuple.values()[c].clone()));
        keys.flatten().collect()
    } else {
        Vec::new()
    };
    let mut net: FastMap<&Tuple, i64> = FastMap::default();
    let mut rows_of: FastMap<&[Value], Vec<&Tuple>> = FastMap::default();
    if hash_kept {
        // Hash the kept rows: each netted and listed under its key.
        for (j, r) in kept.iter().enumerate() {
            let w = net.entry(&r.tuple).or_insert_with(|| {
                rows_of.entry(&kept_keys[range(j)]).or_default().push(&r.tuple);
                0
            });
            *w += r.weight;
        }
    } else {
        // Hash the window's keys; only kept rows some entry joins are netted.
        rows_of.extend((0..n).map(|i| (&keys_flat[range(i)], Vec::new())));
        let mut key: Vec<Value> = Vec::with_capacity(arity);
        for r in kept {
            key.clear();
            key.extend(key_cols.iter().map(|&c| r.tuple.values()[c].clone()));
            let Some(rows) = rows_of.get_mut(key.as_slice()) else {
                continue;
            };
            let w = net.entry(&r.tuple).or_insert_with(|| {
                rows.push(&r.tuple);
                0
            });
            *w += r.weight;
        }
    }
    for i in 0..n {
        for &row in rows_of.get(&keys_flat[range(i)]).into_iter().flatten() {
            emit(i, row, net[row]);
        }
    }
}

fn run_union(mut job: Job<'_>) -> Result<EdgeRun> {
    let edge = job.edge;
    let mut merged: Vec<DeltaEntry> = Vec::new();
    for &input in &edge.inputs {
        debug_assert_eq!(
            job.plan.vertex(input).machine,
            job.plan.vertex(edge.output).machine
        );
        let in_slot = slot_of(job.plan, input)?;
        let rows = job.machine.db.delta_window_filtered(in_slot, job.from, job.to, &edge.filter)?;
        project(rows, edge.projection.as_ref(), &mut merged);
    }
    // Keep the output log timestamp-sorted.
    merged.sort_by_key(|e| e.ts);
    let n = merged.len() as u64;
    let end = job.bill(n);
    let batch = job.aggregate(DeltaBatch { entries: merged })?;
    let appended = job.append(batch)?;
    Ok(EdgeRun::local(end, n, appended))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::sig::ExprSig;
    use proptest::prelude::*;
    use smile_sim::Cluster;
    use smile_storage::join::JoinOn;
    use smile_storage::predicate::CmpOp;
    use smile_storage::ZSet;
    use smile_types::{tuple, Column, ColumnType, MachineId, RelationId, Schema};

    const M0: MachineId = MachineId::new(0);

    /// `n` unkeyed `I64` columns.
    fn cols(n: usize) -> Schema {
        let columns = (0..n).map(|i| Column::new(format!("c{i}"), ColumnType::I64));
        Schema::new(columns.collect(), vec![])
    }

    /// A plan vertex of `width` columns stored in `slot` on machine `m`.
    fn vertex(
        plan: &mut Plan,
        kind: VertexKind,
        slot: u32,
        m: MachineId,
        width: usize,
    ) -> VertexId {
        let slot = RelationId::new(slot);
        let v = plan.add_vertex(
            kind,
            ExprSig::Base(slot),
            m,
            cols(width),
            false,
            1.0,
            0.0,
            16.0,
        );
        plan.vertex_mut(v).slot = Some(slot);
        v
    }

    /// One machine, one Join edge `Δ0 ⋈ R1 → Δ2` over `width`-column
    /// relations: `window` sits in slot 0's log, `log` in slot 1's with the
    /// table applied through `applied` and, if `index`, the arrangement the
    /// edge probes installed; if `partitioned`, the log partitions the edge
    /// reads through too.
    fn join_fixture(
        width: usize,
        op: EdgeOp,
        window: Vec<DeltaEntry>,
        log: Vec<DeltaEntry>,
        applied: Timestamp,
        (index, partitioned): (bool, bool),
    ) -> (Cluster, Plan, usize) {
        let mut plan = Plan::new();
        let vd = vertex(&mut plan, VertexKind::Delta, 0, M0, width);
        let vr = vertex(&mut plan, VertexKind::Relation, 1, M0, width);
        let vo = vertex(&mut plan, VertexKind::Delta, 2, M0, 2 * width);
        let e = plan
            .add_edge(op, vec![vd, vr], vo, Predicate::True, None)
            .unwrap();
        let mut cluster = Cluster::homogeneous(1);
        let [d, r, o] = [0, 1, 2].map(RelationId::new);
        let db = &mut cluster.machine_mut(M0).unwrap().db;
        db.create_relation(d, cols(width)).unwrap();
        db.create_relation(r, cols(width)).unwrap();
        db.create_relation(o, cols(2 * width)).unwrap();
        db.append_delta(d, window.into_iter().collect()).unwrap();
        db.append_delta(r, log.into_iter().collect()).unwrap();
        db.apply_pending(r, applied).unwrap();
        if index {
            let ((_, slot, on), _) = plan.probed_arrangement(plan.edge(e)).unwrap();
            db.ensure_arrangement(slot, &on).unwrap();
        }
        for (_, slot, cols) in plan.read_log_partitions(plan.edge(e)).into_iter().filter(|_| partitioned) {
            db.ensure_log_partition(slot, &cols).unwrap();
        }
        (cluster, plan, e)
    }

    /// A 5-entry delta window `(0, 2s]` probing a relation, current through
    /// 2s, in which only key 1 has (two) matching rows.
    fn key_one_fixture(index: bool) -> (Cluster, Plan, usize) {
        let ts = Timestamp::from_secs(2);
        let window = (1..=5).map(|k| DeltaEntry::insert(tuple![k, 100 + k], ts));
        let log = [10i64, 11].map(|v| DeltaEntry::insert(tuple![1i64, v], ts));
        let op = EdgeOp::Join {
            on: JoinOn::on(0, 0),
            delta_side: DeltaSide::Left,
            snapshot_filter: Predicate::True,
        };
        join_fixture(2, op, window.collect(), log.to_vec(), ts, (index, false))
    }

    /// A job over the window `(0, to]` submitted at its end.
    fn job<'a>(
        machine: &'a mut Machine,
        plan: &'a Plan,
        edge: &'a Edge,
        to: Timestamp,
        model: &'a TimeCostModel,
        charges: &'a mut Vec<ResourceUsage>,
    ) -> Job<'a> {
        Job {
            machine,
            plan,
            edge,
            from: Timestamp::ZERO,
            to,
            start: to,
            model,
            ack_lost: false,
            charges,
        }
    }

    /// Runs the fixture's edge over `(0, to]`, its relation side read at `at`.
    fn run_fixture(
        cluster: &mut Cluster,
        plan: &Plan,
        e: usize,
        to: Timestamp,
        at: Timestamp,
    ) -> Result<EdgeRun> {
        let model = TimeCostModel::paper_defaults();
        let mut charges = Vec::new();
        let machine = cluster.machine_mut(M0).unwrap();
        run_local(
            job(machine, plan, plan.edge(e), to, &model, &mut charges),
            at,
        )
    }

    /// The meter-correctness fix: a join reports only its *produced* tuples
    /// as moved. The 5-entry window probes rows in place; before the fix
    /// this run reported `max(window, produced) = 5`, double-billing the
    /// window the CopyDelta edge had already counted as moved.
    #[test]
    fn join_counts_produced_tuples_not_window() {
        let (mut cluster, plan, e) = key_one_fixture(true);
        let ts = Timestamp::from_secs(2);
        let run = run_fixture(&mut cluster, &plan, e, ts, ts).unwrap();
        assert_eq!(run.tuples, 2, "only the two matched outputs moved");
        assert!(!run.deduped);
        // The output batch really landed, with the probed rows attached.
        let db = &cluster.machine(M0).unwrap().db;
        let out = db
            .delta_window(RelationId::new(2), Timestamp::ZERO, ts)
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
        let (mut cluster, plan, e) = key_one_fixture(false);
        let ts = Timestamp::from_secs(2);
        let err = run_fixture(&mut cluster, &plan, e, ts, ts).unwrap_err();
        assert!(matches!(err, SmileError::Internal(_)));
    }

    /// Up to `max` log entries over a domain small enough that deletes meet
    /// their inserts and rows repeat (weight 2) inside one window.
    fn arb_entries(max: usize) -> impl Strategy<Value = Vec<DeltaEntry>> {
        let entry = (0i64..3, 0i64..2, 0i64..3, 0i64..3, 1u64..10);
        prop::collection::vec(entry, 0..max).prop_map(|raw| {
            let entry = |(a, b, c, w, ts)| DeltaEntry {
                tuple: tuple![a, b, c],
                weight: if w == 0 { -1 } else { 1 },
                ts: Timestamp::from_secs(ts),
            };
            let mut entries: Vec<DeltaEntry> = raw.into_iter().map(entry).collect();
            entries.sort_by_key(|e| e.ts);
            entries
        })
    }

    /// A few entries or many, so that either the delta window or the
    /// relation's log window is the smaller side of a correction.
    fn arb_lopsided() -> impl Strategy<Value = Vec<DeltaEntry>> {
        prop_oneof![arb_entries(4), arb_entries(40)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The correction equals the definition: whatever the table's
        /// timestamp — behind `at`, ahead of it, or at it — a half-join lands
        /// `Δ ⋈ σ(R@at)`, with one log entry per (delta entry, matching row)
        /// of `R@now` and of the *consolidated* window between the two, in
        /// timestamp order. The snapshot filter is a range conjunct alone
        /// (an unpartitioned arrangement), an equality literal (a partition
        /// of one) or an equality literal beside a residual range conjunct,
        /// which still has to be evaluated on the partition's rows. Dropping
        /// the netting leaves the z-set equal and breaks the count. With the
        /// relation's log partitioned on the literal's column, the
        /// correction reads the partition and lands the same log, entry for
        /// entry.
        #[test]
        fn half_join_lands_delta_join_snapshot(
            window in arb_lopsided(),
            log in arb_lopsided(),
            (applied, at) in (0u64..11, 0u64..11),
            (right, two_cols) in (prop::bool::ANY, prop::bool::ANY),
            (filter_kind, literal) in (0u8..3, 0i64..3),
        ) {
            let [applied, at, to] = [applied, at, 10].map(Timestamp::from_secs);
            let on = if two_cols { JoinOn::on_all(&[(0, 0), (1, 1)]) } else { JoinOn::on(0, 0) };
            let keys = on.left_cols.len();
            let filter = match filter_kind {
                0 => Predicate::cmp(2, CmpOp::Ge, 1i64),
                1 => Predicate::eq(2, literal),
                _ => Predicate::eq(2, literal).and(Predicate::cmp(1, CmpOp::Ge, 1i64)),
            };
            let op = EdgeOp::Join {
                on,
                delta_side: if right { DeltaSide::Right } else { DeltaSide::Left },
                snapshot_filter: filter.clone(),
            };
            let fixture = |partitioned| {
                join_fixture(3, op.clone(), window.clone(), log.clone(), applied, (true, partitioned))
            };
            let (mut cluster, plan, e) = fixture(false);
            let run = run_fixture(&mut cluster, &plan, e, to, at).unwrap();
            let db = &cluster.machine(M0).unwrap().db;
            let landed = db.delta_window(RelationId::new(2), Timestamp::ZERO, to).unwrap();

            let (mut split, plan, e) = fixture(true);
            let split_run = run_fixture(&mut split, &plan, e, to, at).unwrap();
            let split_db = &split.machine(M0).unwrap().db;
            let split_log = &split_db.relation(RelationId::new(1)).unwrap().delta;
            let partitions: Vec<&[usize]> = split_log.partitions().collect();
            prop_assert_eq!(partitions, if filter_kind == 0 { vec![] } else { vec![&[2][..]] });
            let split_landed = split_db.delta_window(RelationId::new(2), Timestamp::ZERO, to).unwrap();
            prop_assert_eq!(&split_landed, &landed);
            prop_assert_eq!(split_run.tuples, run.tuples);

            let rel = db.relation(RelationId::new(1)).unwrap();
            let partitioned: Vec<_> = rel.table.arrangements().map(|a| a.on().partition.clone()).collect();
            prop_assert_eq!(partitioned, vec![if filter_kind == 0 { vec![] } else { vec![2] }]);
            let joins = |d: &Tuple, row: &Tuple| {
                d.values()[..keys] == row.values()[..keys] && filter.eval(row)
            };
            let snapshot = rel.table.snapshot_at(&rel.delta, at).unwrap();
            let mut expected = ZSet::new();
            for d in &window {
                for (row, w) in snapshot.iter().filter(|(row, _)| joins(&d.tuple, row)) {
                    let out = if right { row.concat(&d.tuple) } else { d.tuple.concat(row) };
                    expected.add(out, d.weight * w);
                }
            }
            prop_assert_eq!(landed.to_zset(), expected);

            let now = rel.table.ts();
            let missed = rel.delta.window(at.min(now), at.max(now)).to_zset();
            let sources = || rel.table.rows().chain(missed.iter());
            let matches = |d: &DeltaEntry| sources().filter(|(row, _)| joins(&d.tuple, row)).count();
            prop_assert_eq!(landed.len(), window.iter().map(matches).sum::<usize>());
            prop_assert_eq!(run.tuples, landed.len() as u64);
            prop_assert!(landed.entries.windows(2).all(|w| w[0].ts <= w[1].ts));
        }
    }

    /// The split primitives compose: ship on the source, land on the
    /// destination.
    #[test]
    fn ship_then_land_moves_the_window_across_machines() {
        let mut cluster = Cluster::homogeneous(2);
        let (m0, m1) = (MachineId::new(0), MachineId::new(1));
        let [slot, dst_slot] = [0, 1].map(RelationId::new);
        let db0 = &mut cluster.machine_mut(m0).unwrap().db;
        db0.create_relation(slot, cols(2)).unwrap();
        let ts = Timestamp::from_secs(1);
        let batch: DeltaBatch = (0..4)
            .map(|k| DeltaEntry::insert(tuple![k, k], ts))
            .collect();
        db0.append_delta(slot, batch).unwrap();
        let db1 = &mut cluster.machine_mut(m1).unwrap().db;
        db1.create_relation(dst_slot, cols(2)).unwrap();

        let mut plan = Plan::new();
        let vs = vertex(&mut plan, VertexKind::Delta, 0, m0, 2);
        let vd = vertex(&mut plan, VertexKind::Delta, 1, m1, 2);
        let e = plan
            .add_edge(EdgeOp::CopyDelta, vec![vs], vd, Predicate::True, None)
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
        let dst = cluster.machine_mut(m1).unwrap();
        let mut job = job(dst, &plan, &edge, ts, &model, &mut charges);
        job.start = ship.arrive;
        let run = land_copy(job, ship.bytes).unwrap();
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
