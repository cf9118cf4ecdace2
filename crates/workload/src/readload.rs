//! Closed-loop read workload on MVs (Figure 14).
//!
//! The robustness experiment subjects each MV to simulated users issuing a
//! query template in a closed loop. Each query occupies the MV's machine
//! CPU for a service time, so raising the user count loads the machines and
//! slows pushes down — exactly the disturbance the executor's feedback loop
//! must absorb.

use smile_core::platform::Smile;
use smile_types::{MachineId, Result, SharingId, SimDuration};

/// A closed-loop reader population over the MVs of a set of sharings.
#[derive(Clone, Debug)]
pub struct ReadLoad {
    /// Simulated users per MV.
    pub users_per_mv: usize,
    /// CPU service time of one query execution.
    pub query_service: SimDuration,
    /// Think time between a user's queries.
    pub think_time: SimDuration,
    targets: Vec<SharingId>,
}

impl ReadLoad {
    /// Readers over the given sharings' MVs.
    pub fn new(targets: Vec<SharingId>, users_per_mv: usize) -> Self {
        Self {
            users_per_mv,
            // 8 ms per point query keeps 50 readers/MV at ~0.7 CPU
            // utilization — heavily loaded but sustainable, like the
            // paper's testbed.
            query_service: SimDuration::from_millis(8),
            think_time: SimDuration::from_millis(500),
            targets,
        }
    }

    /// Machines hosting the target MVs.
    fn mv_machines(&self, smile: &Smile) -> Result<Vec<MachineId>> {
        let executor = smile
            .executor
            .as_ref()
            .ok_or_else(|| smile_types::SmileError::Internal("read load before install".into()))?;
        self.targets
            .iter()
            .map(|&id| {
                let mv = executor.global.mv_vertex(id)?;
                Ok(executor.global.plan.vertex(mv).machine)
            })
            .collect()
    }

    /// Applies one tick's worth of queries: each user completes about
    /// `dt / (service + think)` queries; their CPU time lands on the MV's
    /// machine FIFO, delaying any pushes queued behind them.
    pub fn apply(&self, smile: &mut Smile, dt: SimDuration) -> Result<()> {
        let machines = self.mv_machines(smile)?;
        let now = smile.now();
        let cycle = (self.query_service + self.think_time).as_secs_f64();
        let queries_per_user = dt.as_secs_f64() / cycle;
        for m in machines {
            let busy = self
                .query_service
                .mul_f64(queries_per_user * self.users_per_mv as f64);
            if busy > SimDuration::ZERO {
                let (_res, usage) = smile.cluster.machine_mut(m)?.run_cpu(now, busy);
                smile.cluster.ledger.charge(usage, None);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twitter::{TwitterConfig, TwitterWorkload};
    use smile_core::platform::SmileConfig;
    use smile_storage::join::JoinOn;
    use smile_storage::{Predicate, SpjQuery};

    #[test]
    fn readers_load_the_mv_machine() {
        let mut smile = Smile::new(SmileConfig::with_machines(3));
        let w = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
        let r = w.rels();
        let q = SpjQuery::scan(r.users).join(r.tweets, JoinOn::on(0, 1), Predicate::True);
        let id = smile
            .submit("s", q, SimDuration::from_secs(45), 0.001)
            .unwrap();
        smile.install().unwrap();

        let load = ReadLoad::new(vec![id], 32);
        let before = smile.cluster.max_backlog(smile.now());
        load.apply(&mut smile, SimDuration::from_secs(1)).unwrap();
        let after = smile.cluster.max_backlog(smile.now());
        assert!(after > before, "read load should create CPU backlog");
    }

    #[test]
    fn read_load_before_install_errors() {
        let mut smile = Smile::new(SmileConfig::with_machines(2));
        let _w = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
        let load = ReadLoad::new(vec![smile_types::SharingId::new(1)], 8);
        assert!(load.apply(&mut smile, SimDuration::from_secs(1)).is_err());
    }
}
