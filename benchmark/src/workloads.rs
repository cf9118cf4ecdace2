//! The four workloads: how each platform is built (set-up) and what one
//! simulated second of input looks like (the generator).
//!
//! Input is open-loop in *simulated* time: the rate trace fixes how many
//! delta entries arrive in each simulated second, whatever the host speed.
//! `--seed` feeds only the generators — tuple contents, authors, which
//! rows land in which relation. The rate trace itself is one fixed
//! recording ([`TRACE_SEED`]), as the paper's gardenhose trace is: a seed
//! that moved the bursts would change the input size by tens of percent
//! from run to run and the metrics could not be compared across seeds.

use crate::spans::{Tracer, HARNESS};
use smile_core::catalog::BaseStats;
use smile_core::platform::{Smile, SmileConfig};
use smile_storage::delta::DeltaEntry;
use smile_storage::join::JoinOn;
use smile_storage::{AggFunc, AggregateSpec, DeltaBatch, Predicate, SpjQuery};
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Result, Schema, SharingId, SimDuration,
    Timestamp, Tuple,
};
use smile_workload::rates::{RateIntegrator, RateTrace};
use smile_workload::sharings::paper_sharings;
use smile_workload::twitter::{TwitterConfig, TwitterRels, TwitterWorkload};
use std::collections::VecDeque;
use std::time::Instant;

/// Fleet size of every workload (the paper's six machines).
pub const MACHINES: usize = 6;
/// Seed of the one recorded rate trace every workload replays.
pub const TRACE_SEED: u64 = 7;
/// One executor tick of simulated time.
pub const TICK: SimDuration = SimDuration::from_secs(1);
const PENALTY_PER_TUPLE: f64 = 0.001;
const PREPOPULATE_TWEETS: u64 = 5_000;
/// `agg_retract`: a row lives this long before the harness deletes it.
pub const RETENTION: SimDuration = SimDuration::from_secs(120);
const SYNTH_RELATIONS: u32 = 6;
const SYNTH_SHAPES: u32 = 4;
/// Resident sharings of `fleet_idle`.
const FLEET_RESIDENT: usize = 4_000;
/// Sharings `admit_churn` admits cold, before `install`.
const CHURN_RESIDENT: usize = 3_000;

/// The workloads, in the order the suite interleaves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's standard setup under the gardenhose trace.
    Fig5Gardenhose,
    /// Aggregate views under inserts *and* deletes (retention).
    AggRetract,
    /// Thousands of resident, mostly idle sharings.
    FleetIdle,
    /// Cold batch admission, then live admission/retirement beside ingest.
    AdmitChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Gardenhose,
        Workload::AggRetract,
        Workload::FleetIdle,
        Workload::AdmitChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Gardenhose => "fig5_gardenhose",
            Workload::AggRetract => "agg_retract",
            Workload::FleetIdle => "fleet_idle",
            Workload::AdmitChurn => "admit_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds one pass drives per requested second of
    /// measuring: sized so that on the 2-core reference host the passes'
    /// drives together last about as long as `--seconds` asks. The input
    /// size is therefore a function of the arguments alone, never of how
    /// fast the host happens to be.
    pub fn ticks_per_second(self) -> u64 {
        match self {
            Workload::Fig5Gardenhose => 150,
            Workload::AggRetract => 100,
            Workload::FleetIdle => 225,
            Workload::AdmitChurn => 80,
        }
    }

    /// How many MVs the correctness check recomputes (all, or a sample).
    pub fn verify_sample(self) -> usize {
        match self {
            Workload::Fig5Gardenhose | Workload::AggRetract => usize::MAX,
            Workload::FleetIdle | Workload::AdmitChurn => 64,
        }
    }
}

/// SplitMix64: the harness's own generator for the synthetic streams, so
/// the benchmark depends on nothing but the platform crates.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Harness-side retention: remembers every row inserted into the
/// tweet-scoped relations and deletes it `retention` later, so state stays
/// bounded and a fixed share of the input is retractions.
pub struct Retention {
    scoped: Vec<RelationId>,
    retention: SimDuration,
    queue: VecDeque<(Timestamp, RelationId, Tuple)>,
}

impl Retention {
    /// Retention over the six relations keyed by tweet id.
    pub fn new(rels: &TwitterRels, retention: SimDuration) -> Self {
        Self {
            scoped: vec![
                rels.tweets,
                rels.curloc,
                rels.urls,
                rels.hashtags,
                rels.photos,
                rels.foursq,
            ],
            retention,
            queue: VecDeque::new(),
        }
    }

    /// Queues the expiry of this tick's inserts and appends a delete for
    /// every row whose time is up. `batches` stays sorted by relation.
    pub fn apply(&mut self, now: Timestamp, batches: &mut Vec<(RelationId, DeltaBatch)>) {
        for (rel, batch) in batches.iter() {
            if self.scoped.contains(rel) {
                for e in batch.entries.iter().filter(|e| e.weight > 0) {
                    self.queue
                        .push_back((now + self.retention, *rel, e.tuple.clone()));
                }
            }
        }
        while self.queue.front().is_some_and(|(due, _, _)| *due <= now) {
            let (_, rel, tuple) = self.queue.pop_front().expect("checked non-empty");
            let entry = DeltaEntry::delete(tuple, now);
            match batches.binary_search_by_key(&rel, |(r, _)| *r) {
                Ok(i) => batches[i].1.entries.push(entry),
                Err(i) => batches.insert(
                    i,
                    (
                        rel,
                        DeltaBatch {
                            entries: vec![entry],
                        },
                    ),
                ),
            }
        }
    }

    /// Rows inserted and not yet deleted.
    #[cfg(test)]
    pub fn live_rows(&self) -> usize {
        self.queue.len()
    }
}

/// One `submit_live` + one `retire` (oldest resident) every `period` ticks.
pub struct Churn {
    /// Ticks between churn events.
    pub period: u64,
    next_index: usize,
    resident: VecDeque<SharingId>,
}

/// What produces a workload's input, one tick at a time.
pub enum Generator {
    /// The tweet-event generator, optionally with retention deletes.
    Twitter {
        /// The nine-relation generator.
        workload: Box<TwitterWorkload>,
        /// Deletes rows after a fixed lifetime (`agg_retract`).
        retention: Option<Retention>,
    },
    /// Three-column synthetic rows round-robined over six relations.
    Synthetic {
        /// The six base relations.
        rels: Vec<RelationId>,
        /// Next row id.
        seq: i64,
        /// Seeded stream of foreign keys and group values.
        rng: SplitMix,
    },
}

impl Generator {
    /// The delta batches of one tick carrying `count` events, sorted by
    /// relation id (the tweet generator hands them back in `HashMap`
    /// order, which differs from run to run).
    pub fn batches(&mut self, count: u64, now: Timestamp) -> Vec<(RelationId, DeltaBatch)> {
        match self {
            Generator::Twitter {
                workload,
                retention,
            } => {
                let mut batches = workload.tweets(count, now);
                batches.sort_by_key(|(rel, _)| *rel);
                if let Some(r) = retention {
                    r.apply(now, &mut batches);
                }
                batches
            }
            Generator::Synthetic { rels, seq, rng } => {
                let mut per_rel: Vec<Vec<DeltaEntry>> = vec![Vec::new(); rels.len()];
                for _ in 0..count {
                    let r = (*seq % rels.len() as i64) as usize;
                    let fk = rng.below(977) as i64;
                    let g = rng.below(1000) as i64;
                    per_rel[r].push(DeltaEntry::insert(tuple![*seq, fk, g], now));
                    *seq += 1;
                }
                rels.iter()
                    .zip(per_rel)
                    .filter(|(_, entries)| !entries.is_empty())
                    .map(|(rel, entries)| (*rel, DeltaBatch { entries }))
                    .collect()
            }
        }
    }
}

/// A platform built, admitted and installed, ready for its first tick.
pub struct Built {
    /// The platform under test.
    pub smile: Smile,
    /// Its input generator.
    pub generator: Generator,
    /// The rate trace, integrated tick by tick.
    pub integrator: RateIntegrator,
    /// Live churn beside ingest (`admit_churn` only).
    pub churn: Option<Churn>,
    /// Resident sharings, in admission order.
    pub sharings: Vec<SharingId>,
    /// The largest SLA among them (the drain before verification waits
    /// three of these).
    pub max_sla: SimDuration,
    /// The base relation that receives the most entries — the one whose
    /// stream the storage replays run over.
    pub busiest: RelationId,
    /// Wall seconds of each admission call (`submit` / `submit_pinned`).
    pub admit_s: Vec<f64>,
    /// Wall seconds of `install`.
    pub install_s: f64,
    /// Wall seconds from `Smile::new` to the end of `install`.
    pub setup_s: f64,
    /// Platform calls made during set-up (all returned `Ok`).
    pub calls: u64,
}

impl Built {
    /// Admissions per second of admission work: resident sharings over
    /// the time inside the admission calls plus `install`.
    pub fn admit_per_s(&self) -> f64 {
        self.sharings.len() as f64 / (self.admit_s.iter().sum::<f64>() + self.install_s)
    }
}

fn config(workers: usize) -> SmileConfig {
    let mut config = SmileConfig::with_machines(MACHINES);
    // Set explicitly so `SMILE_WORKERS` in the environment cannot change
    // what is measured.
    config.exec.workers = workers;
    config
}

/// Builds one workload's platform from nothing: register, prepopulate,
/// admit, install. Everything here is the workload's set-up time.
pub fn build(workload: Workload, seed: u64, workers: usize, tracer: &mut Tracer) -> Result<Built> {
    let started = Instant::now();
    tracer.open(HARNESS, "setup");
    let built = match workload {
        Workload::Fig5Gardenhose | Workload::AggRetract => {
            build_twitter(workload, seed, workers, tracer)
        }
        Workload::FleetIdle | Workload::AdmitChurn => {
            build_synthetic(workload, seed, workers, tracer)
        }
    };
    tracer.close();
    built.map(|mut b| {
        b.setup_s = started.elapsed().as_secs_f64();
        b
    })
}

fn build_twitter(
    workload: Workload,
    seed: u64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Built> {
    let retract = workload == Workload::AggRetract;
    let mean = if retract { 300.0 } else { 100.0 };
    let (mut smile, _) = tracer.time("platform", "new", || Smile::new(config(workers)));
    let (tw, _) = tracer.time("workload", "register", || {
        TwitterWorkload::register(
            &mut smile,
            TwitterConfig {
                seed,
                assumed_tweet_rate: mean,
                ..TwitterConfig::default()
            },
        )
    });
    let tw = tw?;
    let rels = tw.rels();
    let mut calls = rels.all().len() as u64;
    let mut generator = Generator::Twitter {
        retention: retract.then(|| Retention::new(&rels, RETENTION)),
        workload: Box::new(tw),
    };
    // `standard_setup`, unrolled so that prepopulated rows expire too.
    let now = smile.now();
    let (batches, _) = tracer.time("workload", "gen", || {
        generator.batches(PREPOPULATE_TWEETS, now)
    });
    for (rel, batch) in batches {
        tracer
            .time("platform", "ingest", || smile.ingest(rel, batch))
            .0?;
        calls += 1;
    }
    if let Generator::Twitter { workload, .. } = &generator {
        tracer
            .time("workload", "refresh_stats", || {
                workload.refresh_stats(&mut smile)
            })
            .0?;
    }

    let mut sharings = Vec::new();
    let mut admit_s = Vec::new();
    let mut max_sla = SimDuration::ZERO;
    if retract {
        for (name, query, sla) in retract_sharings(&rels) {
            let sla = SimDuration::from_secs(sla);
            max_sla = max_sla.max(sla);
            let (id, secs) = tracer.time("platform", "submit", || {
                smile.submit(name, query, sla, PENALTY_PER_TUPLE)
            });
            sharings.push(id?);
            admit_s.push(secs);
        }
    } else {
        max_sla = SimDuration::from_secs(45);
        for (pin, s) in paper_sharings(&rels).iter().enumerate() {
            let machine = MachineId::new((pin % MACHINES) as u32);
            let (id, secs) = tracer.time("platform", "submit", || {
                smile.submit_pinned(
                    s.app,
                    s.query.clone(),
                    max_sla,
                    PENALTY_PER_TUPLE,
                    Some(machine),
                )
            });
            sharings.push(id?);
            admit_s.push(secs);
        }
    }
    let (installed, install_s) = tracer.time("platform", "install", || smile.install());
    installed?;
    calls += sharings.len() as u64 + 1;
    Ok(Built {
        smile,
        generator,
        integrator: RateIntegrator::new(RateTrace::Gardenhose {
            mean,
            seed: TRACE_SEED,
        }),
        churn: None,
        sharings,
        max_sla,
        busiest: rels.tweets,
        admit_s,
        install_s,
        setup_s: 0.0,
        calls,
    })
}

/// `agg_retract`'s eight sharings: six group-by views and two joins, with
/// their SLAs in seconds.
fn retract_sharings(r: &TwitterRels) -> Vec<(&'static str, SpjQuery, u64)> {
    let t = Predicate::True;
    vec![
        (
            "tweets_per_hashtag",
            SpjQuery::scan(r.hashtags).aggregate(AggregateSpec::count_by(vec![1])),
            15,
        ),
        (
            "chars_per_author",
            SpjQuery::scan(r.tweets).aggregate(AggregateSpec {
                group_cols: vec![1],
                aggs: vec![AggFunc::SumI64(2)],
            }),
            20,
        ),
        (
            // hashtags(tid, tag) ++ tweets(tid, uid, len)
            "chars_per_hashtag",
            SpjQuery::scan(r.hashtags)
                .join(r.tweets, JoinOn::on(0, 0), t.clone())
                .aggregate(AggregateSpec {
                    group_cols: vec![1],
                    aggs: vec![AggFunc::SumI64(4)],
                }),
            30,
        ),
        (
            "checkins_per_restaurant",
            SpjQuery::scan(r.foursq).aggregate(AggregateSpec::count_by(vec![1])),
            25,
        ),
        (
            // users(uid, name, followers) ++ tweets(tid, uid, len)
            "tweets_per_user",
            SpjQuery::scan(r.users)
                .join(r.tweets, JoinOn::on(0, 1), t.clone())
                .aggregate(AggregateSpec::count_by(vec![0])),
            45,
        ),
        (
            "users_per_place",
            SpjQuery::scan(r.loc).aggregate(AggregateSpec::count_by(vec![1])),
            40,
        ),
        (
            "nearbytweets",
            SpjQuery::scan(r.tweets).join(r.curloc, JoinOn::on(0, 0), t.clone()),
            35,
        ),
        (
            "twitpic",
            SpjQuery::scan(r.tweets).join(r.photos, JoinOn::on(0, 0), t),
            45,
        ),
    ]
}

/// SLA of the i-th synthetic sharing: a 1-in-200 interactive minority
/// keeps real pushes firing; the rest sleep for minutes (BENCH_0007).
fn synth_sla_secs(i: usize) -> u64 {
    if i.is_multiple_of(200) {
        30 + (i / 200 % 30) as u64
    } else {
        300 + (i % 600) as u64
    }
}

/// The i-th synthetic sharing: four two-way join shapes with an
/// `isqrt(i)` literal, so ~98% of admissions dedup into resident plans.
pub fn synth_query(i: usize) -> SpjQuery {
    let shape = (i as u32) % SYNTH_SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (shape, (shape + 1) % SYNTH_RELATIONS);
    SpjQuery::scan(RelationId::new(a)).join(
        RelationId::new(b),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    )
}

/// MV machine of the i-th synthetic sharing. Sharings with the *same*
/// query (same shape, same literal) share one machine: at the seed commit
/// two identical queries whose MVs sit on different machines leave one MV
/// short of the rows both join inputs received inside its first push
/// window (see the README's findings), and this benchmark only reports
/// workloads whose outputs are correct.
fn synth_pin(i: usize) -> MachineId {
    let k = (i as f64).sqrt().floor() as usize;
    MachineId::new(((k + i % SYNTH_SHAPES as usize) % MACHINES) as u32)
}

fn build_synthetic(
    workload: Workload,
    seed: u64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Built> {
    let mut config = config(workers);
    // Every sharing must admit: these workloads measure admission and
    // scheduling mechanics, not rejection.
    config.capacity = 1e12;
    config.hill_climb = false;
    let (mut smile, _) = tracer.time("platform", "new", || Smile::new(config));
    let mut rels = Vec::new();
    for r in 0..SYNTH_RELATIONS {
        let card = 50_000.0 + 25_000.0 * r as f64;
        let (rel, _) = tracer.time("platform", "register_base", || {
            smile.register_base(
                &format!("rel{r}"),
                Schema::new(
                    vec![
                        Column::new("id", ColumnType::I64),
                        Column::new("fk", ColumnType::I64),
                        Column::new("g", ColumnType::I64),
                    ],
                    vec![0],
                ),
                MachineId::new(r % MACHINES as u32),
                BaseStats {
                    update_rate: 10.0 + r as f64,
                    cardinality: card,
                    tuple_bytes: 24.0,
                    distinct: vec![card, card / 10.0, 1000.0],
                },
            )
        });
        rels.push(rel?);
    }
    let n = if workload == Workload::FleetIdle {
        FLEET_RESIDENT
    } else {
        CHURN_RESIDENT
    };
    let mut sharings = Vec::with_capacity(n);
    let mut admit_s = Vec::with_capacity(n);
    let mut max_sla = SimDuration::ZERO;
    for i in 0..n {
        let sla = SimDuration::from_secs(synth_sla_secs(i));
        max_sla = max_sla.max(sla);
        let (id, secs) = tracer.time("platform", "submit", || {
            smile.submit_pinned(
                &format!("S{i}"),
                synth_query(i),
                sla,
                PENALTY_PER_TUPLE,
                Some(synth_pin(i)),
            )
        });
        sharings.push(id?);
        admit_s.push(secs);
    }
    let (installed, install_s) = tracer.time("platform", "install", || smile.install());
    installed?;
    let churn = (workload == Workload::AdmitChurn).then(|| Churn {
        period: 10,
        next_index: n,
        resident: sharings.iter().copied().collect(),
    });
    Ok(Built {
        smile,
        busiest: rels[0],
        generator: Generator::Synthetic {
            rels,
            seq: 0,
            rng: SplitMix::new(seed),
        },
        integrator: RateIntegrator::new(RateTrace::Gardenhose {
            mean: 100.0,
            seed: TRACE_SEED,
        }),
        churn,
        sharings,
        max_sla,
        admit_s,
        install_s,
        setup_s: 0.0,
        calls: SYNTH_RELATIONS as u64 + n as u64 + 1,
    })
}

impl Churn {
    /// Whether tick number `tick` (0-based) carries a churn event.
    pub fn due(&self, tick: u64) -> bool {
        tick % self.period == self.period - 1
    }

    /// Admits the next synthetic sharing into the running plan.
    pub fn submit_live(&mut self, smile: &mut Smile) -> Result<SharingId> {
        let i = self.next_index;
        self.next_index += 1;
        let id = smile.submit_live(
            &format!("S{i}"),
            synth_query(i),
            SimDuration::from_secs(synth_sla_secs(i)),
            PENALTY_PER_TUPLE,
            Some(synth_pin(i)),
        )?;
        self.resident.push_back(id);
        Ok(id)
    }

    /// Retires the oldest resident sharing.
    pub fn retire_oldest(&mut self, smile: &mut Smile) -> Result<SharingId> {
        let id = self.resident.pop_front().expect("residents never run out");
        smile.retire(id)?;
        Ok(id)
    }

    /// The sharings resident right now, oldest first.
    pub fn resident(&self) -> impl Iterator<Item = SharingId> + '_ {
        self.resident.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The retention generator keeps the net cardinality of the six
    /// tweet-scoped relations bounded by rate × retention.
    #[test]
    fn retention_bounds_net_cardinality() {
        const RATE: u64 = 40;
        let mut smile = Smile::new(config(1));
        let tw = TwitterWorkload::register(
            &mut smile,
            TwitterConfig {
                seed: 11,
                ..TwitterConfig::default()
            },
        )
        .unwrap();
        let rels = tw.rels();
        let scoped = [
            rels.tweets,
            rels.curloc,
            rels.urls,
            rels.hashtags,
            rels.photos,
            rels.foursq,
        ];
        let mut generator = Generator::Twitter {
            retention: Some(Retention::new(&rels, RETENTION)),
            workload: Box::new(tw),
        };
        let retention_secs = RETENTION.as_micros() / 1_000_000;
        let mut net: HashMap<RelationId, i64> = HashMap::new();
        let mut deletes = 0u64;
        for tick in 0..4 * retention_secs {
            let batches = generator.batches(RATE, Timestamp::from_secs(tick));
            assert!(
                batches.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted by relation"
            );
            for (rel, batch) in batches {
                for e in &batch.entries {
                    *net.entry(rel).or_default() += e.weight;
                    deletes += u64::from(e.weight < 0 && scoped.contains(&rel));
                }
            }
            for rel in scoped {
                let rows = net.get(&rel).copied().unwrap_or(0);
                assert!(rows >= 0);
                assert!(
                    rows as u64 <= RATE * retention_secs,
                    "{rows} rows of {rel} at tick {tick}"
                );
            }
        }
        // One tweet row per event: in steady state exactly a window's worth.
        assert_eq!(net[&rels.tweets] as u64, RATE * retention_secs);
        assert!(
            deletes >= RATE * 3 * retention_secs,
            "every expired tweet was deleted"
        );
        let Generator::Twitter { retention, .. } = &generator else {
            unreachable!()
        };
        let live: i64 = scoped
            .iter()
            .map(|r| net.get(r).copied().unwrap_or(0))
            .sum();
        assert_eq!(retention.as_ref().unwrap().live_rows() as i64, live);
    }

    #[test]
    fn synthetic_stream_is_a_function_of_the_seed() {
        let rels: Vec<RelationId> = (0..SYNTH_RELATIONS).map(RelationId::new).collect();
        let stream = |seed: u64| {
            let mut g = Generator::Synthetic {
                rels: rels.clone(),
                seq: 0,
                rng: SplitMix::new(seed),
            };
            let batches = g.batches(50, Timestamp::from_secs(1));
            format!("{batches:?}")
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
    }

    #[test]
    fn identical_synthetic_queries_share_a_machine() {
        for i in 0..500usize {
            for j in 0..i {
                if format!("{:?}", synth_query(i)) == format!("{:?}", synth_query(j)) {
                    assert_eq!(synth_pin(i), synth_pin(j), "sharings {j} and {i}");
                }
            }
        }
    }
}
