//! A literal-delta half-join — `σ(a) ⋈ Δσ(v = lit)(b)`, its arrangement
//! on `a` unpartitioned and its delta side filtered by a literal — reads
//! its correction through `a`'s log's join-key history (DESIGN §9a). The
//! history is an index: it changes how the correction is read, never what
//! lands. The same run with the history dropped after `install` reads the
//! correction by scanning the log, and must land the same MV and move the
//! same tuples in every push.

mod common;

use common::scenario::Checker;
use common::{exact, feed, fleet, live_reads, stats, Base};
use smile::core::executor::PushRecord;
use smile::core::platform::SmileConfig;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SlotIndex, SpjQuery};
use smile::types::{tuple, MachineId, SimDuration, Tuple};

const M0: MachineId = MachineId::new(0);

/// `σ(w < 2)(a) ⋈ σ(v = 1)(b)` on `k`, with `a(k, w)` and `b(k, v)` on one
/// machine, so that `b`'s literal filters the half-join's own delta window
/// and `a`'s range is its snapshot filter. `a` repeats a row and deletes
/// rows inside one push window, so the correction has rows to net. With
/// `history` the run keeps the history the plan installs; without, it
/// drops it before the first tick. Returns the MV and the push records.
fn run(history: bool) -> (Vec<(Tuple, i64)>, Vec<PushRecord>) {
    let base = |name, home| Base::i64(name, &["k", name], &[], home, stats(4.0, 100.0, 16.0, &[5.0, 3.0]));
    let (mut smile, rels) = fleet(SmileConfig::with_machines(1), &[base("a", 0), base("b", 0)]);
    let (a, b) = (rels[0], rels[1]);
    let a_side = SpjQuery::select(a, Predicate::cmp(1, CmpOp::Lt, 2i64));
    let query = a_side.join(b, JoinOn::on(0, 0), Predicate::eq(1, 1i64));
    let id = smile.submit_pinned("lit", query, SimDuration::from_secs(12), 0.01, Some(M0)).unwrap();
    smile.install().unwrap();
    // A base's slot is its relation id.
    let key_history = SlotIndex::Log(vec![0]);
    assert!(live_reads(&smile).contains(&(M0, a, key_history.clone())), "nothing reads a's key history");
    if !history {
        assert!(smile.cluster.machine_mut(M0).unwrap().db.drop_index(a, &key_history));
    }
    feed(&mut smile, 90, |smile, s| {
        let (now, row) = (smile.now(), |s: u64| tuple![(s % 5) as i64, (s % 3) as i64]);
        let mut a_rows = vec![DeltaEntry::insert(row(s), now)];
        match s % 4 {
            1 => a_rows.push(DeltaEntry::insert(row(s), now)),
            3 => a_rows.push(DeltaEntry::delete(row(s - 2), now)),
            _ => {}
        }
        let b_rows = vec![DeltaEntry::insert(row(s), now)];
        [(a, DeltaBatch { entries: a_rows }), (b, DeltaBatch { entries: b_rows })]
    });
    smile.run_idle(SimDuration::from_secs(30)).unwrap();
    let log = &smile.cluster.machine(M0).unwrap().db.relation(a).unwrap().delta;
    assert_eq!(log.partitions().any(|cols| cols == [0]), history);
    assert!(exact(&smile, id).unwrap() > 0, "an empty MV compares nothing");
    if history {
        Checker(&smile).check().unwrap();
    }
    let records = smile.executor.as_ref().unwrap().push_records.clone();
    assert!(records.iter().filter(|r| r.tuples > 0).count() > 5, "too few pushes moved tuples");
    (smile.mv_contents(id).unwrap().sorted_entries(), records)
}

#[test]
fn a_literal_delta_side_lands_the_same_with_and_without_its_key_history() {
    let (with, without) = (run(true), run(false));
    assert_eq!(with.0, without.0, "MV contents");
    assert_eq!(with.1, without.1, "push records");
}
