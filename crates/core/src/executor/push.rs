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
//! (`Plan::probed_arrangement`, the first index `Plan::reads` lists for the
//! edge), so a reader that differs from others on the same relation only
//! by a literal never walks their rows; the whole filter is still
//! evaluated on each row found. The smaller side drives it: each window
//! entry's key probes the partition, or, when the partition's few keys
//! (and the correction's kept rows) are fewer than a whole unfiltered
//! window's entries, each partition key reads its own entries of the
//! window through the delta log's join-key index — a log partition on the
//! delta side's join columns, which `Plan::reads` lists for such an edge —
//! and the hits are emitted in window order. Both directions land the same
//! entries in the same order and count one probe per window entry.
//!
//! For the second term, `R@now − R@at` is the relation's log between the
//! two instants, and it is never materialized: the log is read by
//! reference through its literal partition on the same columns (the last
//! index `Plan::reads` lists), so only the entries carrying the reader's
//! literal are visited, and each passes the whole snapshot filter first;
//! whichever side is then smaller — the
//! kept log rows or the delta window's keys — is hashed by join key while
//! the other streams past it. A *literal-delta half-join* — an unpartitioned
//! arrangement probed by a delta side that is a literal's selection, under
//! the edge filter or in a filtered copy — reads its relation log by key
//! instead: `Plan::reads` lists the log's partition on the arrangement's
//! key columns for it (the join-key history), and each window entry reads
//! only its own key's log rows. The kept rows are netted
//! — a delete cancels its insert, a repeat adds up — so the output has one
//! entry per (delta entry, distinct surviving row): the multiset and the
//! entry count of consolidating the window first. Outputs are handed over
//! stably sorted by timestamp, probe run ahead of correction run: a log
//! only takes a batch in timestamp order, at its end.
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
use smile_storage::delta::{DeltaBatch, DeltaEntry, DeltaTable};
use smile_storage::wal::Bytes;
use smile_storage::{wal, Bucket, Predicate};
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
///
/// Whichever side is smaller drives the join (DESIGN §9a). Every window
/// entry's key probes the partition, or — when the edge keeps the whole
/// window, its delta log has a join-key index (the one `Plan::reads`
/// lists, or a literal-delta half-join's history on the same log), and
/// the partition's keys and the kept correction rows are fewer than the
/// window's entries — each of those keys reads its entries out of the
/// window through the index. Both give the same outputs in the same order
/// and count the same probes. When the relation log carries its join-key
/// history, the window-side arm reads each entry's correction through it
/// ([`correct_by_key`]) instead of collecting the kept rows.
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
    let (_, rel_slot, index, partition) = plan
        .probed_arrangement(edge)
        .ok_or_else(|| SmileError::Internal(format!("vertex {} has no storage slot", rel_v.id)))?;
    let (delta_cols, _) = delta_side.cols(on);
    let arity = delta_cols.len();

    // Borrow the window straight from the delta log (no clone). An edge
    // that keeps all of it may read it by key instead of scanning it.
    let db = &job.machine.db;
    let log = &db.relation(delta_slot)?.delta;
    let (range, window) = (log.window_range(job.from, job.to), log.window_ref(job.from, job.to));
    let keyed = edge.filter == Predicate::True && log.partitions().any(|(cols, _)| cols == delta_cols);
    let scan: Option<Vec<&DeltaEntry>> =
        (!keyed).then(|| log.window_filtered(job.from, job.to, &edge.filter).collect());
    let window_len = scan.as_ref().map_or(window.len(), Vec::len);
    let mut outputs: Vec<DeltaEntry> = Vec::new();
    if window_len > 0 {
        let rel = db.relation(rel_slot)?;
        let Some(arr) = rel.table.arrangement_on(&index) else {
            return Err(SmileError::Internal(format!(
                "relation vertex {} lacks the arrangement on {index:?} its join edge probes",
                rel_v.id
            )));
        };
        // Only the partition of the filter's literals can hold a kept row.
        let part = arr.partition(&partition);
        // Correction: the table is at `table.ts()`, we need it at `at`.
        //   R@at = R@now − Σ(at, now]   (at < now)
        //   R@at = R@now + Σ(now, at]   (at > now)
        // The window between the two is empty when they agree. Only the
        // log partition of the filter's literals can hold a kept row, as
        // for the probe.
        let now = rel.table.ts();
        let (lo, hi, sign) = if at < now { (at, now, -1) } else { (now, at, 1) };
        // With the log's join-key history installed, the big side reads
        // each window entry's own key's rows and never collects the kept
        // rows; the small side's condition counts them.
        let history = rel.delta.partitions().any(|(cols, _)| cols == index.key);
        let kept: Vec<&DeltaEntry> = match scan {
            Some(_) if history => Vec::new(),
            _ => rel.delta.window_filtered(lo, hi, snapshot_filter).collect(),
        };
        // The probe run, then the correction run, each in window order.
        let mut probed: Vec<(&DeltaEntry, &Bucket)> = Vec::new();
        let mut corrected: Vec<(&DeltaEntry, &Tuple, i64)> = Vec::new();
        match scan {
            None if part.key_count() + kept.len() < window_len => {
                // Small side: each key's entries, looked up in the window
                // through the join-key index and sorted into window order.
                let at_key = |key: &[Value]| log.positions_where(&range, delta_cols, key).into_iter().flatten();
                let mut hits: Vec<(usize, &Bucket)> =
                    part.buckets().flat_map(|(key, bucket)| at_key(key.values()).map(move |i| (i, bucket))).collect();
                part.count_probes(window_len, hits.len());
                hits.sort_unstable_by_key(|&(i, _)| i);
                probed.extend(hits.into_iter().map(|(i, bucket)| (window.entry(i), bucket)));
                let kept_keys = flat_keys(kept.iter().map(|r| &r.tuple), &index.key);
                let (net, rows_of) = hash_kept(&kept, &kept_keys, arity);
                let mut hits: Vec<(usize, &Vec<&Tuple>)> =
                    rows_of.iter().flat_map(|(&key, rows)| at_key(key).map(move |i| (i, rows))).collect();
                hits.sort_unstable_by_key(|&(i, _)| i);
                for (i, rows) in hits {
                    corrected.extend(rows.iter().map(|&row| (window.entry(i), row, net[row])));
                }
            }
            scan => {
                // Big side: one contiguous key arena for the whole window,
                // hashed and probed in one batched pass instead of
                // allocating a key `Tuple` per entry.
                let entries = scan.unwrap_or_else(|| window.iter().collect());
                let keys_flat = flat_keys(entries.iter().map(|e| &e.tuple), delta_cols);
                let buckets = part.probe_batch(&keys_flat, arity, entries.len());
                probed.extend(entries.iter().copied().zip(buckets).filter(|(_, bucket)| !bucket.is_empty()));
                let emit = |i, row, w| corrected.push((entries[i], row, w));
                if history {
                    correct_by_key(&rel.delta, (lo, hi), snapshot_filter, &keys_flat, entries.len(), &index.key, emit);
                } else {
                    correct(&keys_flat, entries.len(), &kept, &index.key, emit);
                }
            }
        }
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
        for (e, bucket) in probed {
            for (row, &w) in bucket {
                if snapshot_filter.eval(row) {
                    emit(e, row, e.weight * w);
                }
            }
        }
        for (e, row, w) in corrected {
            emit(e, row, e.weight * w * sign);
        }
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
    let end = job.bill((window_len as u64).max(produced));
    let appended = job.append(DeltaBatch { entries: outputs })?;
    Ok(EdgeRun::local(end, produced, appended))
}

/// The values of `tuples` at `cols`, laid back to back: one key arena for
/// a whole side of a join.
fn flat_keys<'a>(tuples: impl Iterator<Item = &'a Tuple>, cols: &[usize]) -> Vec<Value> {
    let mut keys = Vec::with_capacity(tuples.size_hint().0 * cols.len());
    for t in tuples {
        keys.extend(cols.iter().map(|&c| t.values()[c].clone()));
    }
    keys
}

/// Kept rows netted — a delete cancels its insert, a repeat adds up — and
/// each distinct one listed under its join key, in the order first seen.
type Netted<'k, 'r> = (FastMap<&'r Tuple, i64>, FastMap<&'k [Value], Vec<&'r Tuple>>);

/// Hashes the kept rows by join key; `keys` holds their keys of `arity`
/// values back to back.
fn hash_kept<'k, 'r>(kept: &[&'r DeltaEntry], keys: &'k [Value], arity: usize) -> Netted<'k, 'r> {
    let mut net: FastMap<&Tuple, i64> = FastMap::default();
    let mut rows_of: FastMap<&[Value], Vec<&Tuple>> = FastMap::default();
    for (j, r) in kept.iter().enumerate() {
        let key = &keys[j * arity..(j + 1) * arity];
        let w = net.entry(&r.tuple).or_insert_with(|| {
            rows_of.entry(key).or_default().push(&r.tuple);
            0
        });
        *w += r.weight;
    }
    (net, rows_of)
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
    let kept_keys: Vec<Value>;
    let (net, rows_of): Netted = if kept.len() <= n {
        kept_keys = flat_keys(kept.iter().map(|r| &r.tuple), key_cols);
        hash_kept(kept, &kept_keys, arity)
    } else {
        // Hash the window's keys; only kept rows some entry joins are netted.
        let mut net: FastMap<&Tuple, i64> = FastMap::default();
        let mut rows_of: FastMap<&[Value], Vec<&Tuple>> =
            (0..n).map(|i| (&keys_flat[range(i)], Vec::new())).collect();
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
        (net, rows_of)
    };
    for i in 0..n {
        for &row in rows_of.get(&keys_flat[range(i)]).into_iter().flatten() {
            emit(i, row, net[row]);
        }
    }
}

/// The correction term `Δ ⋈ kept` read through the relation log's
/// join-key history (`DeltaTable::positions_where` on `key_cols`): each of
/// the delta entries whose join keys `keys_flat` holds back to back reads
/// only its own key's log rows in `(lo, hi]`, keeps those that pass
/// `filter`, and nets them per row in log order. So it makes the calls
/// [`correct`] makes, in the same order, without collecting the kept rows
/// or hashing either side — a literal-delta half-join's few window entries
/// against a relation log of thousands of rows (DESIGN §9a).
fn correct_by_key<'r>(
    log: &'r DeltaTable,
    (lo, hi): (Timestamp, Timestamp),
    filter: &Predicate,
    keys_flat: &[Value],
    n: usize,
    key_cols: &[usize],
    mut emit: impl FnMut(usize, &'r Tuple, i64),
) {
    let (range, rows) = (log.window_range(lo, hi), log.window_ref(lo, hi));
    let arity = key_cols.len();
    // A key's rows in one window are few: netted by a linear search.
    let mut net: Vec<(&Tuple, i64)> = Vec::new();
    for i in 0..n {
        net.clear();
        let key = &keys_flat[i * arity..(i + 1) * arity];
        let kept = log.positions_where(&range, key_cols, key).into_iter().flatten().map(|p| rows.entry(p));
        for r in kept.filter(|r| filter.eval(&r.tuple)) {
            match net.iter_mut().find(|(row, _)| *row == &r.tuple) {
                Some((_, w)) => *w += r.weight,
                None => net.push((&r.tuple, r.weight)),
            }
        }
        for &(row, w) in &net {
            emit(i, row, w);
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
    use smile_storage::{SlotIndex, ZSet};
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
    /// table applied through `applied`, and of the indexes the edge reads
    /// through, those `install` picks are installed.
    fn join_fixture(
        width: usize,
        op: EdgeOp,
        window: Vec<DeltaEntry>,
        log: Vec<DeltaEntry>,
        applied: Timestamp,
        install: impl Fn(RelationId, &SlotIndex) -> bool,
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
        for (_, slot, read) in plan.reads(plan.edge(e)).into_iter().filter(|(_, slot, read)| install(*slot, read)) {
            db.ensure(slot, &read).unwrap();
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
        join_fixture(2, op, window.collect(), log.to_vec(), ts, |_, _| index)
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

    /// Which of the indexes a join reads through a fixture installs.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Installed {
        /// The probed arrangement only.
        Arrangement,
        /// And the relation log's literal partition.
        SnapshotLog,
        /// Every index: the delta log's join-key index too.
        All,
        /// Every index, the relation log's join-key history on the
        /// arrangement key, which `Plan::reads` lists only for a
        /// literal-delta half-join, and the delta log's join-key index even on an
        /// unpartitioned arrangement: the big side reads its correction
        /// by key, and the small side runs on a whole arrangement.
        History,
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
        /// the netting leaves the z-set equal and breaks the count.
        ///
        /// Both directions give one answer: with the relation's log
        /// partitioned on the literal's column, and then with the delta
        /// log's join-key index too, so that a window that outgrows the
        /// partition's keys and the kept rows is read from the partition's
        /// side, the edge lands the same log, entry for entry, moves the same
        /// tuples and counts the same probes, hits and misses. A window of up
        /// to 160 entries against a log of a few rows makes that side the
        /// smaller one often. With the relation log's join-key history and
        /// the delta log's join-key index installed whatever the filter,
        /// the big side reads each entry's correction by key, the small
        /// side still hashes the kept rows and runs on an unpartitioned
        /// arrangement too, and the edge lands the same log again.
        #[test]
        fn half_join_lands_delta_join_snapshot(
            window in prop_oneof![arb_lopsided(), arb_entries(160)],
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
            let delta_side = if right { DeltaSide::Right } else { DeltaSide::Left };
            let (delta_cols, key_cols) = delta_side.cols(&on);
            let (delta_cols, key_cols) = (delta_cols.to_vec(), key_cols.to_vec());
            let op = EdgeOp::Join { on, delta_side, snapshot_filter: filter.clone() };
            let installs = |installed: Installed| {
                move |slot: RelationId, read: &SlotIndex| match installed {
                    Installed::Arrangement => matches!(read, SlotIndex::Arrangement(_)),
                    Installed::SnapshotLog => slot != RelationId::new(0),
                    Installed::All | Installed::History => true,
                }
            };
            let arms = [Installed::Arrangement, Installed::SnapshotLog, Installed::All, Installed::History];
            let runs = arms.map(|installed| {
                let (mut cluster, plan, e) =
                    join_fixture(3, op.clone(), window.clone(), log.clone(), applied, installs(installed));
                if installed == Installed::History {
                    let db = &mut cluster.machine_mut(M0).unwrap().db;
                    db.ensure(RelationId::new(1), &SlotIndex::Log(key_cols.clone())).unwrap();
                    db.ensure(RelationId::new(0), &SlotIndex::Log(delta_cols.clone())).unwrap();
                }
                let run = run_fixture(&mut cluster, &plan, e, to, at).unwrap();
                (cluster, run)
            });
            let [(cluster, run), (split, split_run), (keyed, keyed_run), (history, history_run)] = &runs;
            let db = &cluster.machine(M0).unwrap().db;
            let landed = db.delta_window(RelationId::new(2), Timestamp::ZERO, to).unwrap();
            let log_partitions = |cluster: &Cluster, slot: u32| -> Vec<Vec<usize>> {
                let db = &cluster.machine(M0).unwrap().db;
                db.relation(RelationId::new(slot)).unwrap().delta.partitions().map(|(cols, _)| cols.to_vec()).collect()
            };
            let literal_cols = if filter_kind == 0 { vec![] } else { vec![vec![2]] };
            let join_key_cols = if filter_kind == 0 { vec![] } else { vec![delta_cols.clone()] };
            prop_assert_eq!(log_partitions(split, 1), literal_cols.clone());
            prop_assert_eq!(log_partitions(split, 0), vec![] as Vec<Vec<usize>>);
            prop_assert_eq!(log_partitions(keyed, 1), literal_cols.clone());
            prop_assert_eq!(log_partitions(keyed, 0), join_key_cols);
            prop_assert_eq!(log_partitions(history, 1), [literal_cols, vec![key_cols]].concat());
            prop_assert_eq!(log_partitions(history, 0), vec![delta_cols]);
            for (other, other_run) in [(split, split_run), (keyed, keyed_run), (history, history_run)] {
                let other_db = &other.machine(M0).unwrap().db;
                let other_landed = other_db.delta_window(RelationId::new(2), Timestamp::ZERO, to).unwrap();
                prop_assert_eq!(&other_landed, &landed);
                prop_assert_eq!(other_run.tuples, run.tuples);
                prop_assert_eq!(other_db.arrangement_counters(), db.arrangement_counters());
            }

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
