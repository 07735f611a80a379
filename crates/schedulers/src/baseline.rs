//! Greedy FCFS baseline scheduler.
//!
//! Not from the paper — a comparison point for the benches. An idealized
//! centralized scheduler with full knowledge: each round it scans pending
//! transactions in arrival (id) order and commits every transaction whose
//! accounts are untouched by earlier picks this round, subject to the
//! model's capacity constraint of one subtransaction per shard per round.
//! It pays no coordination rounds at all, so it upper-bounds what any
//! real distributed protocol could commit — and still goes unstable under
//! adversarial conflict patterns, which is the point of the comparison.

use crate::metrics::{MetricsCollector, RunReport, SchedulerKind};
use crate::node::CommitEvent;
use ::metrics::RoundRow;
use adversary::AdversaryConfig;
use sharding_core::{AccountMap, Round, SystemConfig, Transaction, TxnId};
use simnet::{FaultCounters, SendTally};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Baseline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsConfig {
    /// If true, a committed transaction costs one round of capacity on
    /// each accessed shard (the model's constraint); if false, unlimited
    /// per-shard throughput (a pure conflict-only idealization).
    pub respect_capacity: bool,
}

/// The FCFS baseline as a steppable simulation (same [`step`]/[`finish`]
/// shape as [`Sim`](crate::node::Sim), so the generic driver and the conformance
/// harness can run it). Because FCFS commits greedily with zero protocol
/// rounds, its commit log doubles as the harness's *oracle*: under zero
/// contention every scheduler must commit exactly the set FCFS commits.
///
/// [`step`]: FcfsSim::step
/// [`finish`]: FcfsSim::finish
#[derive(Debug)]
pub struct FcfsSim {
    fcfg: FcfsConfig,
    shards: u64,
    pending: BTreeMap<TxnId, Transaction>,
    collector: MetricsCollector,
}

impl FcfsSim {
    /// Creates an FCFS simulation.
    pub fn new(sys: &SystemConfig, fcfg: FcfsConfig) -> Self {
        sys.validate().expect("valid system config");
        FcfsSim {
            fcfg,
            shards: sys.shards as u64,
            pending: BTreeMap::new(),
            collector: MetricsCollector::new(sys.shards),
        }
    }

    /// Commit log: (commit round, transaction id) in commit order.
    pub fn committed_log(&self) -> &[(Round, TxnId)] {
        self.collector.committed_log()
    }

    /// Turns the metrics plane on. FCFS has no epochs, so its timeline is
    /// a single epoch-0 row.
    pub fn enable_metrics(&mut self) {
        self.collector.enable_metrics();
    }

    /// Executes one round: inject `new_txns`, then greedily commit a
    /// maximal conflict-free set in id (FIFO) order.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        let now = self.collector.now();
        self.collector.book_generated(new_txns.len() as u64);
        for t in new_txns {
            self.pending.insert(t.id, t);
        }
        let mut locked_accounts: BTreeSet<sharding_core::AccountId> = BTreeSet::new();
        let mut busy_shards: BTreeSet<sharding_core::ShardId> = BTreeSet::new();
        let mut chosen = Vec::new();
        for (id, t) in self.pending.iter() {
            let account_free = t.accounts().all(|a| !locked_accounts.contains(&a));
            let shard_free =
                !self.fcfg.respect_capacity || t.shards().all(|s| !busy_shards.contains(&s));
            if account_free && shard_free {
                locked_accounts.extend(t.accounts());
                if self.fcfg.respect_capacity {
                    for s in t.shards() {
                        busy_shards.insert(s);
                    }
                }
                chosen.push(*id);
            }
        }
        for id in chosen {
            let t = self.pending.remove(&id).expect("chosen from pending");
            self.collector.book(CommitEvent {
                generated: t.generated,
                commit_round: now,
                txn: id,
                home: t.home,
                committed: true,
            });
        }
        let pending = self.pending.len() as u64;
        let row = RoundRow {
            queue: pending as f64 / self.shards as f64,
            pending,
            epoch: 0,
            active: self.shards,
        };
        self.collector.end_round(row, [0, 0]);
    }

    /// Finalizes the run into a [`RunReport`]: no epochs, no messages,
    /// no faults.
    pub fn finish(self) -> RunReport {
        let (kind, links) = (SchedulerKind::Fcfs, SendTally::default());
        self.collector
            .finish(kind, (0, 0), links, FaultCounters::default())
            .0
    }
}

/// Runs the FCFS baseline for `rounds` rounds.
pub fn run_fcfs(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    fcfg: FcfsConfig,
) -> RunReport {
    crate::driver::drive(FcfsSim::new(sys, fcfg), sys, map, adv, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::StrategyKind;
    use sharding_core::stats::StabilityVerdict;

    fn sys() -> (SystemConfig, AccountMap) {
        let sys = SystemConfig::paper_simulation();
        let map = AccountMap::round_robin(&sys);
        (sys, map)
    }

    #[test]
    fn commits_everything_at_low_rate() {
        let (sys, map) = sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 5,
            strategy: StrategyKind::UniformRandom,
            seed: 1,
            ..Default::default()
        };
        let r = run_fcfs(
            &sys,
            &map,
            &adv,
            Round(2000),
            FcfsConfig {
                respect_capacity: true,
            },
        );
        assert!(r.resolution_rate() > 0.95, "{}", r.summary());
        assert_eq!(r.verdict, StabilityVerdict::Stable);
    }

    #[test]
    fn latency_beats_bds_at_same_rate() {
        // FCFS pays no protocol rounds, so its latency must be far below
        // BDS's — it is the idealized upper bound.
        let (sys, map) = sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 5,
            strategy: StrategyKind::UniformRandom,
            seed: 2,
            ..Default::default()
        };
        let f = run_fcfs(
            &sys,
            &map,
            &adv,
            Round(1500),
            FcfsConfig {
                respect_capacity: true,
            },
        );
        let b = crate::bds::run_bds(&sys, &map, &adv, Round(1500));
        assert!(
            f.avg_latency < b.avg_latency,
            "fcfs {} vs bds {}",
            f.avg_latency,
            b.avg_latency
        );
    }

    /// FCFS has no epochs: with the plane on, its timeline is one epoch-0
    /// row holding the whole run, over every shard.
    #[test]
    fn the_timeline_is_one_epoch_zero_row() {
        let (sys, map) = sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 5,
            strategy: StrategyKind::UniformRandom,
            seed: 4,
            ..Default::default()
        };
        let mut sim = FcfsSim::new(&sys, FcfsConfig::default());
        sim.enable_metrics();
        let r = crate::driver::drive(sim, &sys, &map, &adv, Round(300));
        let plane = r.metrics.as_ref().expect("metrics on");
        let shape: Vec<_> = plane
            .timeline
            .iter()
            .map(|row| (row.epoch, row.commits, row.rounds, row.active_shards))
            .collect();
        assert_eq!(shape, [(0, r.committed, r.rounds, sys.shards as u64)]);
        assert!(r.committed > 0 && r.rounds == 300, "{}", r.summary());
    }

    #[test]
    fn capacity_constraint_reduces_throughput() {
        let (sys, map) = sys();
        let adv = AdversaryConfig {
            rho: 0.25,
            burstiness: 50,
            strategy: StrategyKind::HotShard,
            seed: 3,
            ..Default::default()
        };
        let with = run_fcfs(
            &sys,
            &map,
            &adv,
            Round(800),
            FcfsConfig {
                respect_capacity: true,
            },
        );
        let without = run_fcfs(
            &sys,
            &map,
            &adv,
            Round(800),
            FcfsConfig {
                respect_capacity: false,
            },
        );
        assert!(with.avg_latency >= without.avg_latency);
    }
}
