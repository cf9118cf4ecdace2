//! The host-speed probe: a fixed piece of work, owned by the harness, that
//! is timed beside every measurement so that a timing can be stated at
//! the reference host's speed rather than at whatever speed the shared
//! host happened to run that minute.
//!
//! The host this benchmark runs on is a small guest on a shared machine:
//! identical runs of one seed differ by up to 40% in user CPU time (no
//! steal, no I/O), in phases that last minutes, because neighbours contend
//! for the memory system and the core's clock. Nothing inside a run
//! averages that away, so every wall-clock end-to-end metric is divided by
//! the **host index** measured around it: the probe's median time over the
//! measured interval ÷ [`REFERENCE_S`]. An index of 1.25 says the host ran
//! the probe 25% slower than the reference, and the timing is scaled back
//! by that much. The probe shares no code with the platform, so a change
//! to the platform cannot move it.
//!
//! The probe mixes the kinds of work the engine does — hash-map lookups
//! with a clone, independent random reads over a table larger than L2, a
//! streaming pass, a sort, and an allocate-insert-remove loop — because a
//! probe of one kind (a pure ALU chain, a pure pointer chase) tracks the
//! engine's slow-down markedly worse than the mix does (README, "Noise on
//! the record").

use crate::stats;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Seconds one probe sample takes on the quiet 2-vCPU reference host. A
/// constant of the ruler, not a measurement: changing it rescales every
/// timing metric by the same factor.
pub const REFERENCE_S: f64 = 0.0045;

/// Words of the table the random reads and the streaming pass run over
/// (16 MB: four times the reference host's L2).
const TABLE_WORDS: usize = 2 << 20;
const LOOKUPS: usize = 10_000;
const GATHERS: usize = 100_000;
const STREAM_WORDS: usize = 1 << 20;
const SORT_KEYS: usize = 40_000;
const CHURN_KEYS: usize = 8_000;

/// Hash maps with a fixed hasher, so that the probe does the same work in
/// every process.
type FixedMap<V> = HashMap<u64, V, BuildHasherDefault<DefaultHasher>>;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe's fixed inputs.
pub struct Probe {
    table: Vec<u64>,
    rows: FixedMap<Vec<u64>>,
    keys: Vec<u64>,
}

impl Probe {
    /// Builds the inputs (about 30 MB, tens of milliseconds).
    pub fn new() -> Self {
        let mut x = 1u64;
        let mut rows = FixedMap::default();
        for i in 0..200_000u64 {
            let k = lcg(&mut x);
            rows.insert(k >> 20, vec![i, k, i ^ k]);
        }
        let keys = (0..SORT_KEYS).map(|_| lcg(&mut x)).collect();
        Probe {
            table: (0..TABLE_WORDS as u64).collect(),
            rows,
            keys,
        }
    }

    /// Runs the fixed work once; returns its wall seconds and a checksum
    /// (the same in every call).
    pub fn sample(&self) -> (f64, u64) {
        let started = Instant::now();
        let mut sum = 0u64;
        // Hash-map lookups, each hit cloned: what a join probe does.
        let mut x = 1u64;
        for _ in 0..LOOKUPS {
            if let Some(row) = self.rows.get(&(lcg(&mut x) >> 20)) {
                sum = sum.wrapping_add(row.clone().len() as u64);
            }
        }
        // Independent random reads: many cache misses in flight.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..GATHERS {
            sum = sum.wrapping_add(self.table[xorshift(&mut x) as usize % TABLE_WORDS]);
        }
        // A streaming pass.
        for w in &self.table[..STREAM_WORDS] {
            sum = sum.wrapping_add(*w);
        }
        // A sort: branches and moves.
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        sum = sum.wrapping_add(sorted[SORT_KEYS / 3]);
        // Allocate, insert, remove: what landing and compacting rows does.
        let mut live: FixedMap<Box<[u64; 4]>> = FixedMap::default();
        for k in &self.keys[..CHURN_KEYS] {
            live.insert(*k, Box::new([*k; 4]));
        }
        for k in &self.keys[..CHURN_KEYS] {
            sum = sum.wrapping_add(live.remove(k).map_or(0, |b| b[3]));
        }
        let sum = std::hint::black_box(sum);
        (started.elapsed().as_secs_f64(), sum)
    }
}

/// The host index of an interval: the median of the probe samples taken
/// over it ÷ [`REFERENCE_S`].
pub fn host_index(samples_s: &[f64]) -> f64 {
    stats::median(samples_s) / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let p = Probe::new();
        let (secs, sum) = p.sample();
        assert!(secs > 0.0);
        assert_eq!(p.sample().1, sum);
        assert_eq!(Probe::new().sample().1, sum);
    }

    #[test]
    fn the_index_is_the_median_sample_over_the_reference() {
        let at = |x: f64| x * REFERENCE_S;
        assert!((host_index(&[at(1.0), at(1.5), at(9.0)]) - 1.5).abs() < 1e-12);
        assert!((host_index(&[at(1.0)]) - 1.0).abs() < 1e-12);
    }
}
