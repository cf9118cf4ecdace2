//! The nine Twitter base relations and the tweet-event generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smile_core::catalog::BaseStats;
use smile_core::platform::Smile;
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_types::{tuple, Column, ColumnType, RelationId, Result, Schema, Timestamp};
use std::collections::HashMap;

/// Probability that one incoming tweet inserts a row into each non-`tweets`
/// relation (§9.1: measured after 7M prepopulated tweets).
#[derive(Clone, Copy, Debug)]
pub struct UpdateRatios {
    /// Previously unseen user → `users` insert.
    pub users: f64,
    /// New follow edge → `socnet` insert.
    pub socnet: f64,
    /// Profile address change → `loc` update.
    pub loc: f64,
    /// Geotagged tweet → `curloc` insert.
    pub curloc: f64,
    /// Tweet contains a link → `urls` insert.
    pub urls: f64,
    /// Tweet contains a hashtag → `hashtags` insert.
    pub hashtags: f64,
    /// Tweet contains a photo → `photos` insert.
    pub photos: f64,
    /// Tweet is a Foursquare checkin → `foursq` insert.
    pub foursq: f64,
}

impl Default for UpdateRatios {
    fn default() -> Self {
        // users/socnet/loc/curloc/urls are the paper's numbers; the rest
        // are filled in at the same order of magnitude.
        Self {
            users: 0.3,
            socnet: 0.25,
            loc: 0.02,
            curloc: 0.1,
            urls: 0.2,
            hashtags: 0.15,
            photos: 0.08,
            foursq: 0.05,
        }
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TwitterConfig {
    /// RNG seed (every run is reproducible).
    pub seed: u64,
    /// Update ratios.
    pub ratios: UpdateRatios,
    /// The paper's assumed steady tweet rate used to derive the catalog's
    /// per-relation update-rate statistics.
    pub assumed_tweet_rate: f64,
    /// Number of distinct hashtag strings.
    pub hashtag_vocab: usize,
    /// Number of distinct restaurants for checkins.
    pub restaurants: usize,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            ratios: UpdateRatios::default(),
            assumed_tweet_rate: 100.0,
            hashtag_vocab: 500,
            restaurants: 400,
        }
    }
}

/// Relation ids of the nine base relations after registration.
#[derive(Clone, Copy, Debug)]
pub struct TwitterRels {
    /// `users(uid*, name, followers)`
    pub users: RelationId,
    /// `tweets(tid*, uid, len)`
    pub tweets: RelationId,
    /// `socnet(uid*, uid2*)`
    pub socnet: RelationId,
    /// `loc(uid*, place)`
    pub loc: RelationId,
    /// `curloc(tid*, lat, lng)`
    pub curloc: RelationId,
    /// `urls(tid*, url)`
    pub urls: RelationId,
    /// `hashtags(tid*, tag)`
    pub hashtags: RelationId,
    /// `photos(tid*, url)`
    pub photos: RelationId,
    /// `foursq(tid*, rid)`
    pub foursq: RelationId,
}

impl TwitterRels {
    /// All nine ids in declaration order.
    pub fn all(&self) -> [RelationId; 9] {
        [
            self.users,
            self.tweets,
            self.socnet,
            self.loc,
            self.curloc,
            self.urls,
            self.hashtags,
            self.photos,
            self.foursq,
        ]
    }
}

/// The tweet-event generator: turns "one tweet arrived" into delta batches
/// on the nine base relations, maintaining the update ratios.
pub struct TwitterWorkload {
    config: TwitterConfig,
    rels: TwitterRels,
    rng: StdRng,
    next_tid: i64,
    next_uid: i64,
    /// uid → current `loc` place index (for update = delete + insert).
    loc_of: HashMap<i64, i64>,
}

impl TwitterWorkload {
    /// Registers the nine base relations on the platform, spreading their
    /// home machines round-robin (the paper assigns apps to machines
    /// arbitrarily), and returns the generator.
    pub fn register(smile: &mut Smile, config: TwitterConfig) -> Result<Self> {
        let machines = smile.cluster.machine_ids();
        let n = machines.len();
        let at = |i: usize| machines[i % n];
        let r = config.assumed_tweet_rate;
        let ratios = config.ratios;
        // Cardinalities scale with the prepopulation users expect; these
        // are the catalog priors, refreshed by observation as data flows.
        let users = smile.register_base(
            "users",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("name", ColumnType::Str),
                    Column::new("followers", ColumnType::I64),
                ],
                vec![0],
            ),
            at(0),
            BaseStats {
                update_rate: r * ratios.users,
                cardinality: 20_000.0,
                tuple_bytes: 48.0,
                distinct: vec![20_000.0, 20_000.0, 1_000.0],
            },
        )?;
        let tweets = smile.register_base(
            "tweets",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("uid", ColumnType::I64),
                    Column::new("len", ColumnType::I64),
                ],
                vec![0],
            ),
            at(1),
            BaseStats {
                update_rate: r,
                cardinality: 70_000.0,
                tuple_bytes: 40.0,
                distinct: vec![70_000.0, 20_000.0, 140.0],
            },
        )?;
        let socnet = smile.register_base(
            "socnet",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("uid2", ColumnType::I64),
                ],
                vec![0, 1],
            ),
            at(2),
            BaseStats {
                update_rate: r * ratios.socnet,
                cardinality: 17_000.0,
                tuple_bytes: 24.0,
                distinct: vec![10_000.0, 10_000.0],
            },
        )?;
        let loc = smile.register_base(
            "loc",
            Schema::new(
                vec![
                    Column::new("uid", ColumnType::I64),
                    Column::new("place", ColumnType::I64),
                ],
                vec![0],
            ),
            at(3),
            BaseStats {
                update_rate: r * ratios.loc,
                cardinality: 6_000.0,
                tuple_bytes: 24.0,
                distinct: vec![6_000.0, 500.0],
            },
        )?;
        let curloc = smile.register_base(
            "curloc",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("lat", ColumnType::F64),
                    Column::new("lng", ColumnType::F64),
                ],
                vec![0],
            ),
            at(4),
            BaseStats {
                update_rate: r * ratios.curloc,
                cardinality: 7_000.0,
                tuple_bytes: 32.0,
                distinct: vec![7_000.0, 5_000.0, 5_000.0],
            },
        )?;
        let urls = smile.register_base(
            "urls",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("url", ColumnType::Str),
                ],
                vec![0],
            ),
            at(5),
            BaseStats {
                update_rate: r * ratios.urls,
                cardinality: 14_000.0,
                tuple_bytes: 60.0,
                distinct: vec![14_000.0, 12_000.0],
            },
        )?;
        let hashtags = smile.register_base(
            "hashtags",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("tag", ColumnType::Str),
                ],
                vec![0],
            ),
            at(0),
            BaseStats {
                update_rate: r * ratios.hashtags,
                cardinality: 10_000.0,
                tuple_bytes: 32.0,
                distinct: vec![10_000.0, config.hashtag_vocab as f64],
            },
        )?;
        let photos = smile.register_base(
            "photos",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("url", ColumnType::Str),
                ],
                vec![0],
            ),
            at(1),
            BaseStats {
                update_rate: r * ratios.photos,
                cardinality: 5_500.0,
                tuple_bytes: 60.0,
                distinct: vec![5_500.0, 5_500.0],
            },
        )?;
        let foursq = smile.register_base(
            "foursq",
            Schema::new(
                vec![
                    Column::new("tid", ColumnType::I64),
                    Column::new("rid", ColumnType::I64),
                ],
                vec![0],
            ),
            at(2),
            BaseStats {
                update_rate: r * ratios.foursq,
                cardinality: 3_500.0,
                tuple_bytes: 24.0,
                distinct: vec![3_500.0, config.restaurants as f64],
            },
        )?;
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Self {
            config,
            rels: TwitterRels {
                users,
                tweets,
                socnet,
                loc,
                curloc,
                urls,
                hashtags,
                photos,
                foursq,
            },
            rng,
            next_tid: 0,
            next_uid: 0,
            loc_of: HashMap::new(),
        })
    }

    /// The registered relation ids.
    pub fn rels(&self) -> TwitterRels {
        self.rels
    }

    /// Number of users generated so far.
    pub fn user_count(&self) -> i64 {
        self.next_uid
    }

    /// Generates `count` tweets at timestamp `ts`, returning the delta
    /// batches per base relation (only non-empty batches are returned).
    pub fn tweets(&mut self, count: u64, ts: Timestamp) -> Vec<(RelationId, DeltaBatch)> {
        let mut batches: HashMap<RelationId, Vec<DeltaEntry>> = HashMap::new();
        let mut push = |rel: RelationId, e: DeltaEntry| batches.entry(rel).or_default().push(e);
        let ratios = self.config.ratios;
        for _ in 0..count {
            let tid = self.next_tid;
            self.next_tid += 1;
            // Pick the author: new user with probability `ratios.users`.
            let uid = if self.next_uid == 0 || self.rng.gen_bool(ratios.users) {
                let uid = self.next_uid;
                self.next_uid += 1;
                push(
                    self.rels.users,
                    DeltaEntry::insert(
                        tuple![
                            uid,
                            format!("user{uid}").as_str(),
                            self.rng.gen_range(0..5000i64)
                        ],
                        ts,
                    ),
                );
                uid
            } else {
                self.rng.gen_range(0..self.next_uid)
            };
            push(
                self.rels.tweets,
                DeltaEntry::insert(tuple![tid, uid, self.rng.gen_range(1..140i64)], ts),
            );
            if self.rng.gen_bool(ratios.socnet) && self.next_uid > 1 {
                let other = self.rng.gen_range(0..self.next_uid);
                push(self.rels.socnet, DeltaEntry::insert(tuple![uid, other], ts));
            }
            if self.rng.gen_bool(ratios.loc) {
                let place = self.rng.gen_range(0..500i64);
                if let Some(old) = self.loc_of.insert(uid, place) {
                    // Profile move: SQL UPDATE captured as delete + insert.
                    push(self.rels.loc, DeltaEntry::delete(tuple![uid, old], ts));
                }
                push(self.rels.loc, DeltaEntry::insert(tuple![uid, place], ts));
            }
            if self.rng.gen_bool(ratios.curloc) {
                push(
                    self.rels.curloc,
                    DeltaEntry::insert(
                        tuple![
                            tid,
                            self.rng.gen_range(-90.0..90.0f64),
                            self.rng.gen_range(-180.0..180.0f64)
                        ],
                        ts,
                    ),
                );
            }
            if self.rng.gen_bool(ratios.urls) {
                push(
                    self.rels.urls,
                    DeltaEntry::insert(tuple![tid, format!("http://t.co/{tid:x}").as_str()], ts),
                );
            }
            if self.rng.gen_bool(ratios.hashtags) {
                let tag = self.rng.gen_range(0..self.config.hashtag_vocab);
                push(
                    self.rels.hashtags,
                    DeltaEntry::insert(tuple![tid, format!("#tag{tag}").as_str()], ts),
                );
            }
            if self.rng.gen_bool(ratios.photos) {
                push(
                    self.rels.photos,
                    DeltaEntry::insert(tuple![tid, format!("http://pic/{tid:x}").as_str()], ts),
                );
            }
            if self.rng.gen_bool(ratios.foursq) {
                let rid = self.rng.gen_range(0..self.config.restaurants as i64);
                push(self.rels.foursq, DeltaEntry::insert(tuple![tid, rid], ts));
            }
        }
        batches
            .into_iter()
            .map(|(rel, entries)| (rel, DeltaBatch { entries }))
            .collect()
    }

    /// Prepopulates the platform with `count` tweets at the current time
    /// (the paper starts with 7 million tweets already loaded).
    pub fn prepopulate(&mut self, smile: &mut Smile, count: u64) -> Result<()> {
        let ts = smile.now();
        // Generate in modest chunks to keep batches reasonable.
        let mut remaining = count;
        while remaining > 0 {
            let chunk = remaining.min(10_000);
            for (rel, batch) in self.tweets(chunk, ts) {
                smile.ingest(rel, batch)?;
            }
            remaining -= chunk;
        }
        Ok(())
    }

    /// Refreshes the catalog's cardinality statistics from the actual
    /// storage (call after prepopulation so the optimizer sees real sizes).
    pub fn refresh_stats(&self, smile: &mut Smile) -> Result<()> {
        for rel in self.rels.all() {
            let machine = smile.catalog.base(rel)?.machine;
            let (rows, bytes) = {
                let slot = smile.cluster.machine(machine)?.db.relation(rel)?;
                (slot.table.len() as f64, slot.table.byte_size() as f64)
            };
            if rows > 0.0 {
                let base = smile.catalog.base_mut(rel)?;
                base.stats.cardinality = rows;
                base.stats.tuple_bytes = bytes / rows;
                for d in &mut base.stats.distinct {
                    *d = d.min(rows.max(1.0));
                }
            }
        }
        Ok(())
    }
}

/// Convenience: registers the dataset, prepopulates, and refreshes stats.
pub fn standard_setup(
    smile: &mut Smile,
    config: TwitterConfig,
    prepopulate_tweets: u64,
) -> Result<TwitterWorkload> {
    let mut w = TwitterWorkload::register(smile, config)?;
    w.prepopulate(smile, prepopulate_tweets)?;
    w.refresh_stats(smile)?;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smile_core::platform::SmileConfig;

    fn platform() -> Smile {
        Smile::new(SmileConfig::with_machines(6))
    }

    #[test]
    fn registration_creates_nine_relations() {
        let mut smile = platform();
        let w = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
        assert_eq!(w.rels().all().len(), 9);
        assert_eq!(smile.catalog.bases().len(), 9);
        // Storage exists on the home machines.
        for rel in w.rels().all() {
            let m = smile.catalog.base(rel).unwrap().machine;
            assert!(smile.cluster.machine(m).unwrap().db.has_relation(rel));
        }
    }

    #[test]
    fn update_ratios_are_respected() {
        let mut smile = platform();
        let mut w = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
        let batches = w.tweets(20_000, Timestamp::from_secs(1));
        let count = |rel: RelationId| -> f64 {
            batches
                .iter()
                .filter(|(r, _)| *r == rel)
                .map(|(_, b)| b.entries.iter().filter(|e| e.weight > 0).count())
                .sum::<usize>() as f64
                / 20_000.0
        };
        assert_eq!(count(w.rels().tweets), 1.0);
        assert!((count(w.rels().users) - 0.3).abs() < 0.03);
        assert!((count(w.rels().socnet) - 0.25).abs() < 0.03);
        assert!((count(w.rels().curloc) - 0.1).abs() < 0.02);
        assert!((count(w.rels().urls) - 0.2).abs() < 0.03);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut s1 = platform();
        let mut s2 = platform();
        let mut w1 = TwitterWorkload::register(&mut s1, TwitterConfig::default()).unwrap();
        let mut w2 = TwitterWorkload::register(&mut s2, TwitterConfig::default()).unwrap();
        let mut b1 = w1.tweets(500, Timestamp::from_secs(3));
        let mut b2 = w2.tweets(500, Timestamp::from_secs(3));
        b1.sort_by_key(|(r, _)| *r);
        b2.sort_by_key(|(r, _)| *r);
        assert_eq!(b1, b2);
    }

    #[test]
    fn prepopulate_fills_storage_and_stats() {
        let mut smile = platform();
        let w = standard_setup(&mut smile, TwitterConfig::default(), 5_000).unwrap();
        let tweets_rel = w.rels().tweets;
        let m = smile.catalog.base(tweets_rel).unwrap().machine;
        let rows = smile
            .cluster
            .machine(m)
            .unwrap()
            .db
            .relation(tweets_rel)
            .unwrap()
            .table
            .len();
        assert_eq!(rows, 5_000);
        // Catalog cardinality refreshed to match reality.
        assert_eq!(
            smile.catalog.base(tweets_rel).unwrap().stats.cardinality,
            5_000.0
        );
    }

    #[test]
    fn loc_updates_are_delete_insert_pairs() {
        let mut smile = platform();
        let mut w = TwitterWorkload::register(
            &mut smile,
            TwitterConfig {
                ratios: UpdateRatios {
                    loc: 1.0,
                    users: 0.0,
                    ..UpdateRatios::default()
                },
                ..TwitterConfig::default()
            },
        )
        .unwrap();
        // First tweet creates the user (forced) and sets loc; subsequent
        // ones update it.
        let batches = w.tweets(50, Timestamp::from_secs(1));
        let loc_entries: Vec<_> = batches
            .iter()
            .filter(|(r, _)| *r == w.rels().loc)
            .flat_map(|(_, b)| &b.entries)
            .collect();
        let deletes = loc_entries.iter().filter(|e| e.weight < 0).count();
        assert!(deletes > 0, "loc updates should produce deletes");
        // Net cardinality equals distinct users with a location.
        let net: i64 = loc_entries.iter().map(|e| e.weight).sum();
        assert!(net >= 1);
    }
}
