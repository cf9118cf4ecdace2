//! Seeded lifecycles over a small fleet, run through the [`Checker`] that
//! holds DESIGN §6 as code.
//!
//! A [`Scenario`] draws a fleet (two to four keyless `(k, v, t)` bases,
//! `t` derived from `v` ([`derived`]), base `i` on machine `i`, one or two
//! machines hosting none), hill climbing on or off, a fault profile, rarely
//! the adaptive actuator, and a handful of sharings whose queries repeat
//! over distinct pins — the traffic structural dedup exists for, and where
//! every invariant-1 bug so far was. Its script runs after the install-time
//! admissions: ingest ticks, late-stamped ingest, live admissions,
//! retirements, migrations. Its `Debug` form is the Rust expression that
//! rebuilds it, and a failing scenario shrinks itself before it reports, so
//! a failure reads as a short script that pastes into a named test.

use super::{exact, exact_in_flight, feed, fleet, live_reads, mv_table, observe, stats, Base};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use smile::core::platform::{Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::aggregate::AggregateSpec;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SlotIndex, SpjQuery};
use smile::types::{tuple, ColumnType, MachineId, RelationId, SharingId, SimDuration, SmileError, Timestamp, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use Faults::*;
pub use Query::*;
pub use Step::*;

/// Every scenario sharing's penalty per late tuple.
const PENALTY: f64 = 0.001;

/// A query over the fleet's bases, by index, on their shared key `k`.
/// Literals filter the `v` column of the base they follow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// `x ⋈ y`.
    Join(usize, usize),
    /// `x ⋈ σ(v = lit)(y)`.
    JoinEq(usize, usize, i64),
    /// `σ(v = lit)(x) ⋈ y`.
    SelectJoin(usize, usize, i64),
    /// `x ⋈ σ(v < lit)(y) ⋈ z`: a chain, so every join the planner can
    /// start with involves the filtered `y`.
    Chain(usize, usize, usize, i64),
    /// `σ(v < lit)(x)`.
    Scan(usize, i64),
    /// `count(*)` per `k` over `x ⋈ y`.
    Count(usize, usize),
}

impl Query {
    fn draw(rng: &mut StdRng, bases: usize) -> Self {
        let x = rng.gen_range(0..bases);
        let y = (x + rng.gen_range(1..bases)) % bases;
        let z = (0..bases).find(|&z| z != x && z != y);
        let lit = rng.gen_range(0..6i64);
        match (rng.gen_range(0..6), z) {
            (0, _) => Join(x, y),
            (1, _) => JoinEq(x, y, lit),
            (2, _) => SelectJoin(x, y, lit),
            (3, Some(z)) => Chain(x, y, z, lit + 2),
            (4, _) => Scan(x, lit + 2),
            _ => Count(x, y),
        }
    }

    pub fn build(self, rels: &[RelationId]) -> SpjQuery {
        let join = |x: usize, y: usize, pred| {
            SpjQuery::scan(rels[x]).join(rels[y], JoinOn::on(0, 0), pred)
        };
        let lt = |lit: i64| Predicate::cmp(1, CmpOp::Lt, lit);
        match self {
            Join(x, y) => join(x, y, Predicate::True),
            JoinEq(x, y, lit) => join(x, y, Predicate::eq(1, lit)),
            SelectJoin(x, y, lit) => SpjQuery::select(rels[x], Predicate::eq(1, lit))
                .join(rels[y], JoinOn::on(0, 0), Predicate::True),
            Chain(x, y, z, lit) => {
                join(x, y, lt(lit)).join(rels[z], JoinOn::on(3, 0), Predicate::True)
            }
            Scan(x, lit) => SpjQuery::select(rels[x], lt(lit)),
            Count(x, y) => join(x, y, Predicate::True).aggregate(AggregateSpec::count_by(vec![0])),
        }
    }
}

/// Base `b`'s third column, its type and its value derived from `v`: text
/// on even bases, a float on odd ones, so the blocks a join concatenates
/// differ in type and a permuted MV column shows in
/// [`Checker::columns_hold`].
fn derived(b: usize, v: i64) -> (ColumnType, Value) {
    match b % 2 {
        0 => (ColumnType::Str, Value::str(format!("t{v}"))),
        _ => (ColumnType::F64, Value::F64(v as f64)),
    }
}

/// One sharing: its query, SLA in seconds, and the machine its MV is pinned
/// to (or `None`, the optimizer's choice).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub query: Query,
    pub sla: u64,
    pub pin: Option<u32>,
}

/// One step of a scenario's script, after `install`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// `n` ticks, each ingesting up to two rows drawn from `seed`: an
    /// insert of `(k, v, t)`, or — more often than not, when the base holds a
    /// row with key `k` — the delete of one.
    Ticks(u32, u64),
    /// One tick ingesting one or two rows drawn from `seed` as [`Ticks`]
    /// draws them, all stamped one instant up to 30 s behind `now`: behind
    /// windows already pushed, and often behind the rows they delete.
    Late(u64),
    /// A live admission of sharing `i`.
    Admit(usize),
    /// Retires the `i`-th served sharing (modulo how many are served).
    Retire(usize),
    /// Migrates the `i`-th served sharing's MV onto machine `m`.
    Migrate(usize, u32),
}

/// A fault profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Faults {
    Off,
    /// Half of all acknowledgements lost, seeded.
    AckLoss(u64),
    /// [`FaultProfile::chaos`].
    Chaos(u64),
}

/// A seeded lifecycle: a fleet, its configuration, its sharings and what
/// happens to them.
#[derive(Clone, PartialEq)]
pub struct Scenario {
    /// Machines; base `i` lives on machine `i`.
    pub machines: u32,
    /// Each base's update rate, cardinality and distinct keys, as the
    /// planner is told: the keys' spread decides whether joining in place
    /// and shipping the output beats replicating the inputs.
    pub bases: Vec<(f64, f64, f64)>,
    pub hill_climb: bool,
    pub faults: Faults,
    /// The adaptive actuator, its budget one machine above the fleet.
    pub adaptive: bool,
    pub sharings: Vec<Spec>,
    /// Sharings admitted before `install`, by index.
    pub initial: Vec<usize>,
    pub script: Vec<Step>,
}

/// The Rust expression that rebuilds the scenario.
impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { machines, bases, hill_climb, faults, adaptive, .. } = self;
        let (sharings, initial, script) = (&self.sharings, &self.initial, &self.script);
        write!(
            f,
            "Scenario {{ machines: {machines}, bases: vec!{bases:?}, hill_climb: {hill_climb}, \
             faults: {faults:?}, adaptive: {adaptive}, sharings: vec!{sharings:?}, \
             initial: vec!{initial:?}, script: vec!{script:?} }}"
        )
    }
}

/// Scenarios drawn from a seed.
pub fn arb_scenario() -> impl Strategy<Value = Scenario> {
    any::<u64>().prop_map(Scenario::seeded)
}

/// A scenario's platform after its drain, and the sharings it serves.
pub struct Run {
    pub smile: Smile,
    pub served: Vec<SharingId>,
    /// Every admission attempt in order, install-time then live: what it
    /// admitted, or `None` for a refusal.
    pub admitted: Vec<Option<SharingId>>,
}

impl Scenario {
    /// Two to four bases, two to eight sharings over one to three distinct
    /// queries, one to three of them admitted before `install`, up to a
    /// dozen script steps: five in eleven ingest ticks, one in eleven a late
    /// ingest.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..5usize);
        let machines = n as u32 + rng.gen_range(1..3u32);
        let (rates, cards) = ([1.0, 4.0, 30.0], [60.0, 1e3]);
        let base = |rng: &mut StdRng| {
            let (rate, card) = (rates[rng.gen_range(0..3usize)], cards[rng.gen_range(0..2usize)]);
            (rate, card, if rng.gen_bool(0.5) { card } else { 12.0 })
        };
        let bases = (0..n).map(|_| base(&mut rng)).collect();
        let hill_climb = rng.gen_bool(0.5);
        let faults = match rng.gen_range(0..8) {
            0 => AckLoss(rng.gen_range(0..1000u64)),
            1 => Chaos(rng.gen_range(0..1000u64)),
            _ => Off,
        };
        let adaptive = rng.gen_range(0..10) == 0;
        let pool: Vec<Query> = (0..rng.gen_range(1..4)).map(|_| Query::draw(&mut rng, n)).collect();
        let sharings: Vec<Spec> = (0..rng.gen_range(2..9))
            .map(|_| Spec {
                query: pool[rng.gen_range(0..pool.len())],
                sla: rng.gen_range(3..60u64),
                pin: rng.gen_bool(0.8).then(|| rng.gen_range(0..machines)),
            })
            .collect();
        let initial = (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..sharings.len())).collect();
        let script = (0..rng.gen_range(1..13))
            .map(|_| match rng.gen_range(0..11) {
                0..=4 => Ticks(rng.gen_range(1..25u32), rng.next_u64() % 1000),
                5 | 6 => Admit(rng.gen_range(0..sharings.len())),
                7 | 8 => Retire(rng.gen_range(0..8usize)),
                9 => Migrate(rng.gen_range(0..8usize), rng.gen_range(0..machines)),
                _ => Late(rng.next_u64() % 1000),
            })
            .collect();
        Self { machines, bases, hill_climb, faults, adaptive, sharings, initial, script }
    }

    pub fn config(&self) -> SmileConfig {
        let mut config = SmileConfig::with_machines(self.machines as usize);
        config.hill_climb = self.hill_climb;
        config.faults = match self.faults {
            Off => FaultProfile::disabled(),
            AckLoss(seed) => FaultProfile { seed, ack_loss: 0.5, ..FaultProfile::disabled() },
            Chaos(seed) => FaultProfile::chaos(seed),
        };
        if self.adaptive {
            config.adaptive.enabled = true;
            let per_machine = config.prices.cpu_per_hour;
            config.adaptive.budget_dollars_per_hour = f64::from(self.machines + 1) * per_machine;
        }
        config
    }

    /// The fleet under `config`, nothing admitted.
    pub fn platform(&self, config: SmileConfig) -> (Smile, Vec<RelationId>) {
        let base = |(i, &(rate, card, keys)): (usize, &(f64, f64, f64))| {
            let stats = stats(rate, card, 16.0, &[keys, 8.0]);
            let cols = vec![("k", ColumnType::I64), ("v", ColumnType::I64), ("t", derived(i, 0).0)];
            Base { name: format!("b{i}"), cols, key: vec![], home: i as u32, stats }
        };
        fleet(config, &self.bases.iter().enumerate().map(base).collect::<Vec<_>>())
    }

    /// Submits sharing `i`. A refusal is an answer (`None`); any other
    /// error is a platform bug.
    pub fn admit(
        &self,
        smile: &mut Smile,
        rels: &[RelationId],
        i: usize,
    ) -> Result<Option<SharingId>, String> {
        let Spec { query, sla, pin } = self.sharings[i];
        let (sla, pin) = (SimDuration::from_secs(sla), pin.map(MachineId::new));
        match smile.submit_pinned(&format!("S{i}"), query.build(rels), sla, PENALTY, pin) {
            Ok(id) => Ok(Some(id)),
            Err(
                SmileError::Inadmissible { .. }
                | SmileError::CapacityExhausted { .. }
                | SmileError::SeedUnavailable { .. },
            ) => Ok(None),
            Err(e) => Err(format!("admitting S{i}: {e}")),
        }
    }

    /// Runs the scenario under its own configuration through the checker.
    pub fn run(&self) -> Result<Run, String> {
        self.run_with(self.config(), |_| Ok(()))
    }

    /// [`Scenario::run`] with the checker after every step too.
    pub fn run_checked(&self) -> Result<Run, String> {
        let checked = |smile: &Smile| match smile.started() {
            true => Checker(smile).check(),
            false => Ok(()),
        };
        self.run_with(self.config(), checked)
    }

    /// Runs the scenario under `config`: the install-time admissions,
    /// `install`, the script, the drain; then the checker. `observe` sees the
    /// platform after every admission and step, and the checker's
    /// [`Checker::commits_advance`], [`Checker::columns_hold`] and
    /// [`Checker::ids_are_topological`] after every tick.
    pub fn run_with(
        &self,
        config: SmileConfig,
        mut observe: impl FnMut(&Smile) -> Result<(), String>,
    ) -> Result<Run, String> {
        let (mut smile, rels) = self.platform(config);
        let (mut served, mut admitted) = (Vec::new(), Vec::new());
        let mut admit = |smile: &mut Smile, served: &mut Vec<_>, i| {
            let id = self.admit(smile, &rels, i)?;
            served.extend(id);
            admitted.push(id);
            Ok::<_, String>(())
        };
        for &i in &self.initial {
            admit(&mut smile, &mut served, i)?;
            observe(&smile)?;
        }
        smile.install().map_err(|e| format!("install: {e}"))?;
        observe(&smile)?;
        let mut rows: Vec<Vec<(i64, i64)>> = vec![Vec::new(); rels.len()];
        let (mut commits, mut columns) = (HashMap::new(), HashMap::new());
        let mut each_tick = |smile: &Smile| {
            let checker = Checker(smile);
            checker.commits_advance(&mut commits)?;
            checker.columns_hold(&mut columns)?;
            checker.ids_are_topological()
        };
        for &step in &self.script {
            let pick = |served: &[SharingId], i| served.get(i % served.len().max(1)).copied();
            match step {
                Ticks(_, seed) | Late(seed) => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut advanced = Ok(());
                    let n = if let Ticks(n, _) = step { n } else { 1 };
                    feed(&mut smile, n.into(), |smile, _| {
                        advanced = advanced.clone().and_then(|()| each_tick(smile));
                        let (count, behind) = match step {
                            Late(_) => (rng.gen_range(1..3), rng.gen_range(0..30_001u64)),
                            _ => (rng.gen_range(0..3), 0),
                        };
                        let at = smile.now() - SimDuration::from_millis(behind);
                        let draw = |_| {
                            let (r, k) = (rng.gen_range(0..rels.len()), rng.gen_range(0..12i64));
                            let live = &mut rows[r];
                            let entry = match live.iter().position(|row| row.0 == k) {
                                Some(i) if rng.gen_bool(0.6) => {
                                    let (k, v) = live.swap_remove(i);
                                    DeltaEntry::delete(tuple![k, v, derived(r, v).1], at)
                                }
                                _ => {
                                    let v = rng.gen_range(0..8i64);
                                    live.push((k, v));
                                    DeltaEntry::insert(tuple![k, v, derived(r, v).1], at)
                                }
                            };
                            (rels[r], DeltaBatch { entries: vec![entry] })
                        };
                        (0..count).map(draw).collect::<Vec<_>>()
                    });
                    advanced?;
                }
                Admit(i) => admit(&mut smile, &mut served, i)?,
                Retire(i) => {
                    if let Some(id) = pick(&served, i) {
                        served.retain(|&s| s != id);
                        smile.retire(id).map_err(|e| format!("retiring {id}: {e}"))?;
                    }
                }
                Migrate(i, m) => {
                    let Some(id) = pick(&served, i) else { continue };
                    use SmileError::{CapacityExhausted, Inadmissible};
                    match smile.migrate_sharing(id, Some(MachineId::new(m))) {
                        Ok(_) | Err(Inadmissible { .. } | CapacityExhausted { .. }) => {}
                        Err(e) => return Err(format!("migrating {id} to m{m}: {e}")),
                    }
                }
            }
            each_tick(&smile)?;
            observe(&smile)?;
        }
        // The drain: until every served MV has committed past the script's
        // end, for at most twice the longest SLA.
        let (end, longest) = (smile.now(), self.sharings.iter().map(|s| s.sla).max());
        let cap = end + SimDuration::from_secs(2 * longest.unwrap_or(0) + 5);
        let mv_ts = |smile: &Smile, id| smile.executor.as_ref().unwrap().mv_ts(id).unwrap();
        while smile.now() < cap && smile.sharings().iter().any(|s| mv_ts(&smile, s.id) < end) {
            smile.step().map_err(|e| format!("drain: {e}"))?;
            each_tick(&smile)?;
        }
        Checker(&smile).check_drained(end)?;
        Ok(Run { smile, served, admitted })
    }

    /// [`Scenario::run`] twice: on top of the checker, invariant 8 — the two
    /// runs' observables are identical.
    pub fn check(&self) -> Result<(), String> {
        let (first, second) = (self.run()?, self.run()?);
        let seen = |run: &Run| observe(&run.smile, &run.served);
        match seen(&first).differs(&seen(&second)) {
            Some(part) => Err(format!("{part} differs between two runs of one scenario")),
            None => Ok(()),
        }
    }

    /// `test(self)`; when it fails (or panics), the error of the smallest
    /// variant that still fails, with that variant.
    pub fn verify(&self, test: impl Fn(&Scenario) -> Result<(), String>) -> Result<(), String> {
        let outcome = |s: &Scenario| {
            catch_unwind(AssertUnwindSafe(|| test(s))).unwrap_or_else(|panic| {
                let text = panic.downcast_ref::<String>().cloned();
                let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                Err(text.unwrap_or_default())
            })
        };
        if outcome(self).is_ok() {
            return Ok(());
        }
        let small = self.clone().shrink(|s| outcome(s).is_err());
        Err(format!("{}\nshrunk to: {small:?}", outcome(&small).unwrap_err()))
    }

    /// Drops halves of the script, then quarters, down to single steps, then
    /// install-time sharings, then halves each step's ticks, keeping each cut
    /// that still fails.
    fn shrink(mut self, fails: impl Fn(&Scenario) -> bool) -> Scenario {
        let mut chunk = self.script.len().div_ceil(2);
        while chunk > 0 {
            let mut at = 0;
            while at < self.script.len() {
                let mut cut = self.clone();
                cut.script.drain(at..(at + chunk).min(self.script.len()));
                if fails(&cut) {
                    self = cut;
                } else {
                    at += chunk;
                }
            }
            chunk /= 2;
        }
        for i in (0..self.initial.len()).rev() {
            let mut cut = self.clone();
            cut.initial.remove(i);
            if fails(&cut) {
                self = cut;
            }
        }
        for i in 0..self.script.len() {
            while let Ticks(n @ 2.., seed) = self.script[i] {
                let mut cut = self.clone();
                cut.script[i] = Ticks(n / 2, seed);
                if !fails(&cut) {
                    break;
                }
                self = cut;
            }
        }
        self
    }
}

/// DESIGN §6 as code, over a running platform.
pub struct Checker<'a>(pub &'a Smile);

impl Checker<'_> {
    /// Mid-run, pushes landing: every served MV is [`exact_in_flight`].
    pub fn check(&self) -> Result<(), String> {
        self.check_with(exact_in_flight)
    }

    /// After a drain whose ingest stopped at `end`: every served MV is
    /// [`exact`] as of its committed timestamp, or [`exact_in_flight`] while
    /// a push lands; without faults, every one has committed past `end`, so
    /// its committed timestamp covers every row ingested.
    pub fn check_drained(&self, end: Timestamp) -> Result<(), String> {
        let faults = self.0.config.faults.is_enabled();
        self.check_with(|smile, id| match mv_table(smile, id)? {
            (_, _, committed) if committed < end && !faults => {
                Err(format!("MV of {id} committed as of {committed}, before the drain's {end}"))
            }
            (_, applied, committed) if applied == committed => exact(smile, id),
            _ => exact_in_flight(smile, id),
        })
    }

    /// No served MV's committed timestamp moves back from the one `seen`
    /// last recorded for it — across a migration's cutover, a retried push
    /// and a crash — and `seen` takes the current ones.
    pub fn commits_advance(&self, seen: &mut HashMap<SharingId, Timestamp>) -> Result<(), String> {
        let Some(executor) = self.0.executor.as_ref().filter(|e| e.started()) else { return Ok(()) };
        for s in self.0.sharings() {
            let committed = executor.mv_ts(s.id).map_err(|e| e.to_string())?;
            match seen.insert(s.id, committed) {
                Some(before) if committed < before => {
                    return Err(format!("MV of {} committed as of {committed} after {before}", s.id));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Each served MV shows its reader as many columns, of the same types,
    /// as `seen` last recorded for it — across a migration's cutover, which
    /// swaps the plan saying where each submitted column is stored — and
    /// `seen` takes the current ones.
    pub fn columns_hold(&self, seen: &mut HashMap<SharingId, Vec<ColumnType>>) -> Result<(), String> {
        let global = self.0.global_plan();
        for s in self.0.sharings() {
            let e = |e: SmileError| format!("MV of {}: {e}", s.id);
            let stored = &global.plan.vertex(global.mv_vertex(s.id).map_err(e)?).schema;
            let shown = match &self.0.planned(s.id).map_err(e)?.columns {
                Some(columns) => stored.project(columns),
                None => stored.clone(),
            };
            let types: Vec<ColumnType> = shown.columns().iter().map(|c| c.ty).collect();
            match seen.insert(s.id, types.clone()) {
                Some(before) if before != types => {
                    return Err(format!("MV of {} shows columns {types:?} after {before:?}", s.id));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// In the running plan, vertex ids are a topological order: every
    /// attached edge's inputs have smaller ids than its output. The wave
    /// assignment and compaction's MV floors order vertices by id on the
    /// strength of it.
    pub fn ids_are_topological(&self) -> Result<(), String> {
        let plan = &self.0.global_plan().plan;
        let mut attached = plan.edges().iter().filter(|e| e.attached(plan));
        match attached.find(|e| e.inputs.iter().any(|&input| input >= e.output)) {
            Some(e) => Err(format!("edge {} feeds {} from {:?}", e.id, e.output, e.inputs)),
            None => Ok(()),
        }
    }

    fn check_with(
        &self,
        exact: impl Fn(&Smile, SharingId) -> Result<usize, String>,
    ) -> Result<(), String> {
        for s in self.0.sharings() {
            exact(self.0, s.id)?;
        }
        self.records_follow_sharings()?;
        self.slots_follow_liveness()?;
        self.indexes_are_read()?;
        self.misses_are_penalized()
    }

    /// The executor's records, which hold each sharing's calendar slot and
    /// headroom summary, cover exactly the admitted sharings: a retirement
    /// leaves none behind, and a push completing after it brings none back.
    fn records_follow_sharings(&self) -> Result<(), String> {
        let Some(executor) = self.0.executor.as_ref().filter(|e| e.started()) else { return Ok(()) };
        let admitted: Vec<SharingId> = self.0.sharings().iter().map(|s| s.id).collect();
        let records: Vec<SharingId> = executor.sharing_ids().collect();
        if records != admitted {
            return Err(format!("admitted {admitted:?}: records {records:?}"));
        }
        Ok(())
    }

    /// A derived vertex holds a storage slot exactly when it is live.
    fn slots_follow_liveness(&self) -> Result<(), String> {
        let executor = self.0.executor.as_ref().ok_or("not installed")?;
        let wrong = |v: &&smile::core::plan::dag::Vertex| v.slot.is_some() != executor.live(v.id);
        match executor.global.plan.vertices().iter().filter(|v| !v.is_base).find(wrong) {
            Some(v) => Err(format!("{} holds {:?}, live: {}", v.id, v.slot, executor.live(v.id))),
            None => Ok(()),
        }
    }

    /// The installed indexes are exactly those the live edges read
    /// through, the reconcile's reader count of each is how many live edges
    /// read it, and each log partition lists every retained entry of its
    /// log once, under the literal the entry carries — nothing outlives a
    /// compaction, a retirement or a cutover.
    fn indexes_are_read(&self) -> Result<(), String> {
        let mut installed = BTreeSet::new();
        for m in self.0.cluster.machine_ids() {
            for (rel, slot) in self.0.cluster.machine(m).unwrap().db.relations() {
                for (index, _) in slot.indexes() {
                    if let SlotIndex::Log(cols) = &index {
                        let mut want: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                        for (i, e) in slot.delta.iter().enumerate() {
                            let literal = cols.iter().map(|&c| e.tuple.values()[c].clone()).collect();
                            want.entry(literal).or_default().push(i);
                        }
                        let listing = slot.delta.partition_listing(cols).unwrap();
                        let got: HashMap<Vec<Value>, Vec<usize>> =
                            listing.into_iter().map(|(lit, at)| (lit.to_vec(), at)).collect();
                        if got != want {
                            return Err(format!("log {rel} on {m} by {cols:?} lists {got:?}, holds {want:?}"));
                        }
                    }
                    installed.insert((m, rel, index));
                }
            }
        }
        let mut readers: BTreeMap<_, u32> = BTreeMap::new();
        for read in live_reads(self.0) {
            *readers.entry(read).or_default() += 1;
        }
        if !installed.iter().eq(readers.keys()) {
            return Err(format!("indexes {installed:?} installed, {readers:?} read"));
        }
        let counted = self.0.index_readers().map_err(|e| e.to_string())?;
        if counted != readers {
            return Err(format!("reader counts {counted:?}, live reads {readers:?}"));
        }
        Ok(())
    }

    /// Every miss the auditor recorded was charged at least one late
    /// tuple's penalty.
    fn misses_are_penalized(&self) -> Result<(), String> {
        let mut misses: HashMap<SharingId, usize> = HashMap::new();
        let audited = self.0.snapshot.records.iter().flat_map(|r| &r.sharings);
        for s in audited.filter(|s| s.violated) {
            *misses.entry(s.id).or_default() += 1;
        }
        for (id, n) in misses {
            let charged = self.0.cluster.ledger.penalty(id);
            if charged < n as f64 * PENALTY * (1.0 - 1e-9) {
                return Err(format!("{id} missed its SLA at {n} audits and was charged ${charged}"));
            }
        }
        Ok(())
    }
}
