//! The one description of a test platform: a fleet of machines and base
//! relations, the feed loop that drives it, the MV-exactness assert, the
//! arrangement census and the observable digest of invariant 8. Seeded
//! lifecycles over it, and the checker that holds DESIGN §6 as code, are
//! [`scenario`]. Every suite compiles this module on its own and uses part
//! of it.
#![allow(dead_code)]

pub mod scenario;

use smile::core::catalog::BaseStats;
use smile::core::executor::PushRecord;
use smile::core::plan::dag::IndexId;
use smile::core::platform::{FaultReport, Smile, SmileConfig};
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::spj::RelationProvider;
use smile::storage::{Predicate, SlotIndex, SpjQuery, ZSet};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration, Timestamp,
};
use smile::workload::rates::{RateIntegrator, RateTrace};
use smile::workload::twitter::TwitterWorkload;
use std::collections::BTreeSet;

/// One base relation of a fleet.
pub struct Base {
    pub name: String,
    pub cols: Vec<(&'static str, ColumnType)>,
    pub key: Vec<usize>,
    pub home: u32,
    pub stats: BaseStats,
}

impl Base {
    /// A base whose columns are all `I64`.
    pub fn i64(name: &str, cols: &[&'static str], key: &[usize], home: u32, s: BaseStats) -> Self {
        let cols = cols.iter().map(|&c| (c, ColumnType::I64)).collect();
        Self { name: name.into(), cols, key: key.to_vec(), home, stats: s }
    }
}

/// Catalog priors: update rate, cardinality, tuple bytes, distinct values
/// per column.
pub fn stats(update_rate: f64, cardinality: f64, tuple_bytes: f64, distinct: &[f64]) -> BaseStats {
    BaseStats { update_rate, cardinality, tuple_bytes, distinct: distinct.to_vec() }
}

/// The fleet builder: `config.machines` machines holding `bases`, registered
/// in order.
pub fn fleet(config: SmileConfig, bases: &[Base]) -> (Smile, Vec<RelationId>) {
    let mut smile = Smile::new(config);
    let rels = bases.iter().map(|b| {
        let cols = b.cols.iter().map(|&(n, t)| Column::new(n, t)).collect();
        let (schema, home) = (Schema::new(cols, b.key.clone()), MachineId::new(b.home));
        smile.register_base(&b.name, schema, home, b.stats.clone()).unwrap()
    });
    let rels = rels.collect();
    (smile, rels)
}

/// The admission-at-scale fleet's bases: `rel{m}(id, fk, g)` on each of
/// `machines` machines, with equal priors.
pub fn scale_bases(machines: u32) -> Vec<Base> {
    let base = |m| {
        let stats = stats(8.0, 1000.0, 24.0, &[1000.0, 100.0, 8.0]);
        Base::i64(&format!("rel{m}"), &["id", "fk", "g"], &[0], m, stats)
    };
    (0..machines).map(base).collect()
}

/// The i-th sharing of the admission-at-scale set over [`scale_bases`]: a
/// two-way cross-machine join whose equality literal advances as
/// `isqrt(i)`, so most admissions dedup into a resident structure while
/// distinct structures keep appearing throughout the sweep.
pub fn scale_query(rels: &[RelationId], i: usize) -> SpjQuery {
    let shape = i % 4;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (rels[shape], rels[(shape + 1) % rels.len()]);
    SpjQuery::scan(a).join(b, JoinOn::on(1, 1), Predicate::eq(2, k))
}

/// The fixture the two-machine suites share: `a(k)` on m0 and `b(k, v)` on
/// `b_home`, both keyed on `k`.
pub fn ab_bases(b_home: u32) -> [Base; 2] {
    [
        Base::i64("a", &["k"], &[0], 0, stats(5.0, 100.0, 16.0, &[100.0])),
        Base::i64("b", &["k", "v"], &[0], b_home, stats(5.0, 100.0, 16.0, &[100.0, 50.0])),
    ]
}

/// [`ab_bases`] on machines 0 and 1.
pub fn ab(config: SmileConfig) -> (Smile, RelationId, RelationId) {
    let (smile, rels) = fleet(config, &ab_bases(1));
    (smile, rels[0], rels[1])
}

/// `a ⋈ b` on `k`.
pub fn ab_join(a: RelationId, b: RelationId) -> SpjQuery {
    SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::True)
}

/// [`ab`] with one `a ⋈ b` sharing named `name` per entry of `pins` (its MV
/// pinned there, or left to the optimizer), installed.
pub fn ab_sharings(
    config: SmileConfig,
    name: &str,
    sla_secs: u64,
    pins: &[Option<MachineId>],
) -> (Smile, RelationId, RelationId, Vec<SharingId>) {
    let (mut smile, a, b) = ab(config);
    let sla = SimDuration::from_secs(sla_secs);
    let submit = |smile: &mut Smile, &pin| smile.submit_pinned(name, ab_join(a, b), sla, 0.01, pin);
    let ids = pins.iter().map(|pin| submit(&mut smile, pin).unwrap()).collect();
    smile.install().unwrap();
    (smile, a, b, ids)
}

/// [`ab_sharings`] with the one sharing.
pub fn ab_sharing(
    config: SmileConfig,
    name: &str,
    sla_secs: u64,
    pin: Option<MachineId>,
) -> (Smile, RelationId, RelationId, SharingId) {
    let (smile, a, b, ids) = ab_sharings(config, name, sla_secs, &[pin]);
    (smile, a, b, ids[0])
}

/// The one feed loop: `ticks` platform ticks, each ingesting what `batches`
/// returns for the platform and the tick's index, then stepping.
pub fn feed<B>(smile: &mut Smile, ticks: u64, mut batches: impl FnMut(&mut Smile, u64) -> B)
where
    B: IntoIterator<Item = (RelationId, DeltaBatch)>,
{
    for t in 0..ticks {
        for (rel, batch) in batches(smile, t) {
            smile.ingest(rel, batch).unwrap();
        }
        smile.step().unwrap();
    }
}

/// The fixture's stream: tick `s` inserts key `s % 20` into `a` and
/// `(s % 20, s)` into `b`; with `deletes`, every fourth tick also deletes
/// the `a` key of two ticks before, so negative weights cross the wire.
pub fn ab_feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64, deletes: bool) {
    feed(smile, ticks, |smile, s| {
        let (now, k) = (smile.now(), (s % 20) as i64);
        let mut entries = vec![DeltaEntry::insert(tuple![k], now)];
        if deletes && s % 4 == 3 {
            entries.push(DeltaEntry::delete(tuple![(s.saturating_sub(2) % 20) as i64], now));
        }
        let b_row = DeltaBatch { entries: vec![DeltaEntry::insert(tuple![k, s as i64], now)] };
        [(a, DeltaBatch { entries }), (b, b_row)]
    });
}

/// The Twitter stream at a constant `rate` tweets/s, one tick a second.
pub fn tweet(smile: &mut Smile, w: &mut TwitterWorkload, rate: f64, secs: u64) {
    let mut integrator = RateIntegrator::new(RateTrace::Constant(rate));
    feed(smile, secs, |smile, _| {
        let now = smile.now();
        w.tweets(integrator.tick(now, SimDuration::from_secs(1)), now)
    });
}

/// Base snapshots as of one instant, for [`exact_in_flight`]:
/// `Smile::expected_mv_contents` evaluates only at the committed timestamp.
struct AsOf<'a>(&'a Smile, Timestamp);

impl RelationProvider for AsOf<'_> {
    fn schema(&self, rel: RelationId) -> smile::types::Result<Schema> {
        Ok(self.0.catalog.base(rel)?.schema.clone())
    }

    fn rows(&self, rel: RelationId) -> smile::types::Result<ZSet> {
        let home = self.0.catalog.base(rel)?.machine;
        self.0.cluster.machine(home)?.db.snapshot_at(rel, self.1)
    }
}

/// `id`'s MV table: its rows as readers see them (`Smile::mv_contents`, in
/// the submitted query's column order), the instant it was applied through
/// and the MV's committed timestamp, which trails the first while a push
/// lands but never leads it.
pub fn mv_table(smile: &Smile, id: SharingId) -> Result<(ZSet, Timestamp, Timestamp), String> {
    let e = |e: smile::types::SmileError| format!("MV of {id}: {e}");
    let (global, executor) = (smile.global_plan(), smile.executor.as_ref());
    let mv = global.plan.vertex(global.mv_vertex(id).map_err(e)?);
    let db = &smile.cluster.machine(mv.machine).map_err(e)?.db;
    let slot = mv.slot.ok_or(format!("MV of {id} holds no storage"))?;
    let committed = executor.ok_or("not running")?.mv_ts(id).map_err(e)?;
    let applied = db.relation_ts(slot).map_err(e)?;
    if committed > applied {
        return Err(format!("MV of {id} committed as of {committed}, past its table's {applied}"));
    }
    Ok((smile.mv_contents(id).map_err(e)?, applied, committed))
}

/// Whether `id`'s MV equals ground truth as of its committed timestamp
/// (`Smile::expected_mv_contents`) — the instant SLA audits, staleness and
/// billing read — and its row count if so. For a quiet platform: a push
/// landing past that instant fails it unless no base changed since.
pub fn exact(smile: &Smile, id: SharingId) -> Result<usize, String> {
    let got = mv_table(smile, id)?.0;
    same(id, &got, &smile.expected_mv_contents(id).map_err(|e| format!("MV of {id}: {e}"))?)
}

/// [`exact`] mid-run, while a push may be landing: the table against the
/// submitted query evaluated as of the instant it was applied through.
pub fn exact_in_flight(smile: &Smile, id: SharingId) -> Result<usize, String> {
    let (got, applied, _) = mv_table(smile, id)?;
    let sharing = smile.sharings().iter().find(|s| s.id == id).ok_or("not admitted")?;
    let want = sharing.query.evaluate(&AsOf(smile, applied));
    same(id, &got, &want.map_err(|e| format!("MV of {id}: {e}"))?)
}

/// `got`'s row count if it equals `want`. Rows are summarized, not printed:
/// an MV can hold hundreds.
fn same(id: SharingId, got: &ZSet, want: &ZSet) -> Result<usize, String> {
    let weight = |z: &ZSet| z.iter().map(|(_, w)| w).sum::<i64>();
    if got != want {
        let (g, w) = ((got.len(), weight(got)), (want.len(), weight(want)));
        return Err(format!("MV of {id} holds {g:?} (rows, weight), recomputation gives {w:?}"));
    }
    Ok(got.len())
}

/// Asserts every one of `ids`' MV equals recomputation; returns the rows
/// compared, so a caller can refuse a vacuous comparison.
pub fn assert_exact(smile: &Smile, ids: &[SharingId]) -> usize {
    ids.iter().map(|&id| exact(smile, id).unwrap_or_else(|e| panic!("{e}"))).sum()
}

/// Every index the live edges of the running plan read through, once per
/// reader, as the platform defines it (`Executor::live_reads`).
pub fn live_reads(smile: &Smile) -> Vec<IndexId> {
    smile.executor.as_ref().expect("installed").live_reads().collect()
}

/// The arrangements of [`live_reads`], one per live join edge — the length
/// counts references, [`distinct`] of it the arrangements that should
/// exist.
pub fn live_probes(smile: &Smile) -> Vec<IndexId> {
    let reads = live_reads(smile).into_iter();
    reads.filter(|(.., index)| matches!(index, SlotIndex::Arrangement(_))).collect()
}

/// Number of distinct keys.
pub fn distinct(probes: &[IndexId]) -> usize {
    probes.iter().collect::<BTreeSet<_>>().len()
}

/// Fleet-wide count of physically installed arrangements.
pub fn fleet_arrangements(smile: &Smile) -> usize {
    let machines = smile.cluster.machine_ids().into_iter();
    machines
        .map(|m| smile.cluster.machine(m).unwrap().db.arrangement_count())
        .sum()
}

/// Everything observable about a run that invariant 8 says repeats byte for
/// byte when the same configuration runs again.
pub struct Observed {
    /// Sorted MV entries of each sharing observed, `;`-separated.
    pub mv: String,
    /// The same for ground truth.
    pub expected: String,
    pub report: FaultReport,
    pub pushes: Vec<PushRecord>,
    pub dollars: String,
    /// Exported Chrome trace — sim-time only, canonical order.
    pub trace: String,
    /// Metrics snapshot with host wall-clock lines (`host_` marker)
    /// filtered out; the rest is logical and must repeat.
    pub metrics: String,
    /// Burn-rate monitor alert stream, Debug-formatted.
    pub alerts: String,
    /// Typed control-loop action stream, Debug-formatted. Empty in static
    /// runs.
    pub actions: String,
    /// Not in the pinned digests, which predate them: the tuples-moved
    /// meter, `explain()` of each sharing and the flight-recorder incidents
    /// as `(sharing, at_us, reason, span ids)`.
    pub tuples_moved: u64,
    pub explain: String,
    pub flight: String,
}

/// Reads [`Observed`] off a platform for the sharings `ids`.
pub fn observe(smile: &Smile, ids: &[SharingId]) -> Observed {
    let each = |f: &dyn Fn(SharingId) -> String| ids.iter().map(|&id| f(id)).collect::<Vec<_>>();
    let sorted = |z: ZSet| format!("{:?}", z.sorted_entries());
    let incidents = smile.flight_incidents();
    let flight = incidents.iter().map(|i| {
        let spans: Vec<u64> = i.spans.iter().map(|s| s.id).collect();
        format!("({}, {}, {}, {spans:?})", i.sharing, i.at_us, i.reason)
    });
    let snapshot = smile.telemetry_snapshot().to_text();
    let executor = smile.executor.as_ref().unwrap();
    Observed {
        mv: each(&|id| sorted(smile.mv_contents(id).unwrap())).join(";"),
        expected: each(&|id| sorted(smile.expected_mv_contents(id).unwrap())).join(";"),
        report: smile.fault_report(),
        pushes: executor.push_records.clone(),
        dollars: format!("{:.9}", smile.total_dollars()),
        trace: smile.export_trace(),
        metrics: snapshot.lines().filter(|l| !l.contains("host_")).collect::<Vec<_>>().join("\n"),
        alerts: format!("{:?}", smile.alerts()),
        actions: format!("{:?}", smile.actions()),
        tuples_moved: executor.tuples_moved,
        explain: each(&|id| smile.explain(id).unwrap()).concat(),
        flight: flight.collect::<Vec<_>>().join(";"),
    }
}

impl Observed {
    /// Every part by name, the nine the pinned digests cover first.
    fn parts(&self) -> [(&'static str, String); 12] {
        [
            ("MV", self.mv.clone()),
            ("ground truth", self.expected.clone()),
            ("fault report", format!("{:?}", self.report)),
            ("PUSH records", format!("{:?}", self.pushes)),
            ("billing", self.dollars.clone()),
            ("exported trace", self.trace.clone()),
            ("logical metrics", self.metrics.clone()),
            ("alert stream", self.alerts.clone()),
            ("action stream", self.actions.clone()),
            ("tuples moved", self.tuples_moved.to_string()),
            ("explain()", self.explain.clone()),
            ("flight incidents", self.flight.clone()),
        ]
    }

    /// The first part that differs from `other`'s, by name.
    pub fn differs(&self, other: &Self) -> Option<&'static str> {
        let theirs = other.parts();
        self.parts().into_iter().zip(theirs).find(|(a, b)| a.1 != b.1).map(|(a, _)| a.0)
    }

    /// FNV-1a over the digest's nine parts, each terminated by a unit
    /// separator so adjacent parts cannot trade bytes.
    pub fn digest(&self) -> u64 {
        let parts = self.parts();
        let bytes = parts[..9].iter().flat_map(|(_, p)| p.bytes().chain([0x1f]));
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        bytes.fold(0xcbf2_9ce4_8422_2325, step)
    }
}
