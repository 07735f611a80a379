//! Placement-aware source adapter for elastic resharding.
//!
//! Workload producers ([`Adversary`](crate::Adversary),
//! [`IngestPipeline`](crate::IngestPipeline)) build transactions against
//! a *fixed* account placement. Under a live reshard schedule the
//! placement is versioned, so [`ReshardSource`] wraps any
//! [`RoundSource`] and re-derives, per round, each transaction's home
//! shard and shard grouping from the plan's table at that round:
//!
//! * **home** becomes the current owner of the transaction's lowest
//!   accessed account (a deterministic placement-following rule — under
//!   a static table it matches the vnode placement exactly);
//! * **subtransactions** are regrouped so every destination is the
//!   current owner of its accounts.
//!
//! The source's version switches at event *rounds*; the engines switch
//! tables only at migration *epoch boundaries*. The skew is harmless and
//! deterministic: engines rebuild each drained transaction's grouping
//! against their own live table at phase 1, and every provisioned shard
//! is a protocol participant, so a transaction homed at a just-retired
//! shard is still validly coordinated.
//!
//! Build the inner source against the *initial* active shard count and
//! the plan's version-0 map (inner producers draw target shards from
//! `0..cfg.shards`, and only active shards own accounts). Traffic still
//! reaches shards that join later: accounts migrate to them, and the
//! re-homing rule follows the accounts.

use crate::mempool::{MempoolStats, RoundSource};
use sharding_core::{ReshardPlan, Round, Transaction};

/// A [`RoundSource`] that re-homes and regroups an inner source's
/// output under a precomputed [`ReshardPlan`].
pub struct ReshardSource<S> {
    inner: S,
    plan: ReshardPlan,
}

impl<S: RoundSource> ReshardSource<S> {
    /// Wraps `inner`, following `plan`'s placement version by round.
    pub fn new(inner: S, plan: ReshardPlan) -> ReshardSource<S> {
        ReshardSource { inner, plan }
    }
}

impl<S: RoundSource> RoundSource for ReshardSource<S> {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        let v = self.plan.version_at(round.0);
        let map = &self.plan.versions[v].map;
        self.inner
            .next_round(round)
            .into_iter()
            .map(|t| {
                let mut t = t.regrouped(map);
                if let Some(first) = t.accounts().min() {
                    t.home = map.owner_unchecked(first);
                }
                t
            })
            .collect()
    }

    fn stats(&self) -> Option<MempoolStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Adversary, AdversaryConfig};
    use crate::strategy::StrategyKind;
    use sharding_core::SystemConfig;

    fn plan() -> (SystemConfig, ReshardPlan) {
        let cfg = SystemConfig {
            shards: 1, // overwritten by the plan's s_max
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 3,
            accounts: 64,
        };
        let plan = ReshardPlan::build(4, &cfg, &[(2, 50)]).unwrap();
        // Inner sources run against the *initial* active count.
        let sys = SystemConfig { shards: 4, ..cfg };
        (sys, plan)
    }

    #[test]
    fn homes_and_groups_follow_the_live_version() {
        let (sys, plan) = plan();
        let map = plan.versions[0].map.clone();
        let adv = AdversaryConfig {
            rho: 0.2,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 9,
            ..Default::default()
        };
        let mut src = ReshardSource::new(Adversary::new(&sys, &map, adv), plan.clone());
        let mut saw_post_event = false;
        for r in 0..120u64 {
            let v = plan.version_at(r);
            let live = &plan.versions[v].map;
            for t in src.next_round(Round(r)) {
                assert_eq!(t.home, live.owner_unchecked(t.accounts().min().unwrap()));
                for sub in &t.subs {
                    let conditions = sub.conditions().iter().map(|c| c.account);
                    for a in conditions.chain(sub.actions().iter().map(|a| a.account)) {
                        assert_eq!(sub.dest, live.owner_unchecked(a), "regrouped to the owner");
                    }
                }
                t.validate(sys.k_max).expect("regrouped txn stays valid");
                saw_post_event |= v == 1;
            }
        }
        assert!(saw_post_event, "the schedule's +2 event was exercised");
    }

    #[test]
    fn static_schedule_is_a_passthrough() {
        let cfg = SystemConfig {
            shards: 1,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 3,
            accounts: 32,
        };
        let plan = ReshardPlan::build(4, &cfg, &[]).unwrap();
        let sys = SystemConfig {
            shards: plan.s_max,
            ..cfg
        };
        let map = plan.versions[0].map.clone();
        let adv = AdversaryConfig {
            rho: 0.2,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 5,
            ..Default::default()
        };
        let mut plain = Adversary::new(&sys, &map, adv);
        let mut wrapped = ReshardSource::new(Adversary::new(&sys, &map, adv), plan);
        for r in 0..60u64 {
            let a = plain.next_round(Round(r));
            let b = wrapped.next_round(Round(r));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                // Homes follow the owner-of-lowest-account rule; the
                // grouping is untouched (identity regroup under the
                // producing map).
                assert_eq!(y.home, map.owner_unchecked(x.accounts().min().unwrap()));
                assert_eq!(x.subs.len(), y.subs.len());
                for (sx, sy) in x.subs.iter().zip(&y.subs) {
                    assert_eq!(sx.dest, sy.dest);
                }
            }
        }
    }
}
