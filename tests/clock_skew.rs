//! Correctness under clock skew: the paper's distributed clock is only
//! periodically synchronized (§4.0.1), so agents may stamp heartbeats ahead
//! of or behind true time. The executor must stay exact regardless.

mod common;

use common::{ab, ab_feed, ab_join, assert_exact};
use smile::core::platform::SmileConfig;
use smile::sim::DistributedClock;
use smile::types::SimDuration;

#[test]
fn skewed_clocks_do_not_lose_updates() {
    let (mut smile, a, b) = ab(SmileConfig::with_machines(3));
    // 80 ms of skew, resynchronized every 10 s — well above the bus latency.
    smile.cluster.clock =
        DistributedClock::with_skew(3, SimDuration::from_millis(80), SimDuration::from_secs(10));
    let id = smile
        .submit("skewed", ab_join(a, b), SimDuration::from_secs(12), 0.001)
        .unwrap();
    smile.install().unwrap();
    ab_feed(&mut smile, a, b, 150, false);
    smile.run_idle(SimDuration::from_secs(30)).unwrap();

    assert!(assert_exact(&smile, &[id]) > 0, "skewed clocks corrupted the view");
    // Mild skew must not cause violations either.
    assert_eq!(smile.snapshot.violations_total(), 0);
}
