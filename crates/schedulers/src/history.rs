//! Execution-history verification.
//!
//! Section 3 of the paper states the correctness requirement for
//! conflicting transactions: *"their respective subtransactions should
//! serialize in the exact same order in every involved shard to ensure
//! atomicity of transaction execution."*
//!
//! [`check_cross_shard_order`] verifies exactly that, post-run, from the
//! shards' local blockchains: for every pair of committed transactions
//! that conflict, their relative order must be identical in the chain of
//! every destination shard they share.
//!
//! BDS satisfies this by construction (conflicting transactions get
//! different colors, colors commit in disjoint round groups). FDS with
//! the strict pipeline window `W = 1` satisfies it too; with `W > 1`
//! confirmations from different cluster leaders can arrive at different
//! shared destinations in different orders, so the checker reports the
//! violations and the caller decides whether they matter for its workload
//! (pure-increment workloads commute; conditional ones do not). The
//! ablation benches report the measured violation counts.

use sharding_core::{Transaction, TxnId};
use simnet::LocalChain;
use std::collections::BTreeMap;

/// One detected ordering violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// The conflicting pair.
    pub first: TxnId,
    /// The conflicting pair.
    pub second: TxnId,
    /// Shard where `first` precedes `second`.
    pub shard_forward: sharding_core::ShardId,
    /// Shard where `second` precedes `first`.
    pub shard_backward: sharding_core::ShardId,
}

/// Verifies the cross-shard serialization-order requirement.
///
/// `txns` must contain every committed transaction (extra entries are
/// fine). Returns all violations found (empty = the history is
/// serialization-consistent).
pub fn check_cross_shard_order(
    chains: &[LocalChain],
    txns: &BTreeMap<TxnId, Transaction>,
) -> Vec<OrderViolation> {
    // Position of each transaction in each shard's chain.
    let mut position: BTreeMap<(TxnId, u32), usize> = BTreeMap::new();
    for chain in chains {
        for (idx, t) in chain.committed_txns().enumerate() {
            position.insert((t, chain.shard().raw()), idx);
        }
    }

    // Conflict candidates via account buckets: committed transactions
    // touching a common account where at least one writes.
    let mut by_account: BTreeMap<sharding_core::AccountId, Vec<TxnId>> = BTreeMap::new();
    for chain in chains {
        for t in chain.committed_txns() {
            if let Some(txn) = txns.get(&t) {
                for account in txn.accounts() {
                    let bucket = by_account.entry(account).or_default();
                    if bucket.last() != Some(&t) {
                        bucket.push(t);
                    }
                }
            }
        }
    }

    let mut checked: std::collections::BTreeSet<(TxnId, TxnId)> = Default::default();
    let mut violations = Vec::new();
    for bucket in by_account.values() {
        for i in 0..bucket.len() {
            for j in (i + 1)..bucket.len() {
                let (a, b) = (bucket[i].min(bucket[j]), bucket[i].max(bucket[j]));
                if a == b || !checked.insert((a, b)) {
                    continue;
                }
                let (Some(ta), Some(tb)) = (txns.get(&a), txns.get(&b)) else {
                    continue;
                };
                if !ta.conflicts_with(tb) {
                    continue;
                }
                // Relative order in every shared destination shard.
                let shared: Vec<u32> = ta
                    .shards()
                    .filter(|s| tb.shards().any(|x| x == *s))
                    .map(|s| s.raw())
                    .collect();
                let mut forward: Option<u32> = None;
                let mut backward: Option<u32> = None;
                for s in shared {
                    let (Some(&pa), Some(&pb)) = (position.get(&(a, s)), position.get(&(b, s)))
                    else {
                        continue;
                    };
                    if pa < pb {
                        forward = Some(s);
                    } else {
                        backward = Some(s);
                    }
                }
                if let (Some(f), Some(bk)) = (forward, backward) {
                    violations.push(OrderViolation {
                        first: a,
                        second: b,
                        shard_forward: sharding_core::ShardId(f),
                        shard_backward: sharding_core::ShardId(bk),
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::{AccountMap, Round, ShardId, SystemConfig};

    fn setup() -> (SystemConfig, AccountMap) {
        let sys = SystemConfig {
            shards: 4,
            accounts: 4,
            k_max: 4,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        (sys, map)
    }

    fn two_conflicting(map: &AccountMap) -> BTreeMap<TxnId, Transaction> {
        // Both write the accounts of shards 1 and 2.
        let mut m = BTreeMap::new();
        for id in [1u64, 2] {
            let t = Transaction::writing_shards(
                TxnId(id),
                ShardId(0),
                Round::ZERO,
                map,
                &[ShardId(1), ShardId(2)],
            )
            .unwrap();
            m.insert(t.id, t);
        }
        m
    }

    fn append(chain: &mut LocalChain, txns: &BTreeMap<TxnId, Transaction>, id: u64, round: u64) {
        let t = &txns[&TxnId(id)];
        let sub = t
            .subs
            .iter()
            .find(|s| s.dest == chain.shard())
            .expect("txn has a sub for this shard")
            .clone();
        chain.append(sub, Round(round));
    }

    #[test]
    fn consistent_history_passes() {
        let (_, map) = setup();
        let txns = two_conflicting(&map);
        let mut c1 = LocalChain::new(ShardId(1));
        let mut c2 = LocalChain::new(ShardId(2));
        // T1 before T2 at both shards.
        append(&mut c1, &txns, 1, 5);
        append(&mut c1, &txns, 2, 9);
        append(&mut c2, &txns, 1, 5);
        append(&mut c2, &txns, 2, 9);
        let v = check_cross_shard_order(&[c1, c2], &txns);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inconsistent_history_detected() {
        let (_, map) = setup();
        let txns = two_conflicting(&map);
        let mut c1 = LocalChain::new(ShardId(1));
        let mut c2 = LocalChain::new(ShardId(2));
        // T1 before T2 at shard 1, T2 before T1 at shard 2.
        append(&mut c1, &txns, 1, 5);
        append(&mut c1, &txns, 2, 9);
        append(&mut c2, &txns, 2, 5);
        append(&mut c2, &txns, 1, 9);
        let v = check_cross_shard_order(&[c1, c2], &txns);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].first, TxnId(1));
        assert_eq!(v[0].second, TxnId(2));
    }

    #[test]
    fn non_conflicting_pairs_ignored() {
        let (_, map) = setup();
        // Two txns on disjoint shards cannot violate anything.
        let mut txns = BTreeMap::new();
        let a = Transaction::writing_shards(TxnId(1), ShardId(0), Round::ZERO, &map, &[ShardId(1)])
            .unwrap();
        let b = Transaction::writing_shards(TxnId(2), ShardId(0), Round::ZERO, &map, &[ShardId(2)])
            .unwrap();
        txns.insert(a.id, a.clone());
        txns.insert(b.id, b.clone());
        let mut c1 = LocalChain::new(ShardId(1));
        let mut c2 = LocalChain::new(ShardId(2));
        c1.append(a.subs[0].clone(), Round(1));
        c2.append(b.subs[0].clone(), Round(1));
        assert!(check_cross_shard_order(&[c1, c2], &txns).is_empty());
    }

    #[test]
    fn bds_run_is_serialization_consistent() {
        use crate::bds::{BdsConfig, BdsSim};
        use adversary::{Adversary, AdversaryConfig, StrategyKind};
        let sys = SystemConfig {
            shards: 8,
            accounts: 8,
            k_max: 3,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let mut adv = Adversary::new(
            &sys,
            &map,
            AdversaryConfig {
                rho: 0.1,
                burstiness: 10,
                strategy: StrategyKind::UniformRandom,
                seed: 8,
                ..Default::default()
            },
        );
        let mut all = BTreeMap::new();
        for r in 0..2000u64 {
            let batch = adv.generate(Round(r));
            for t in &batch {
                all.insert(t.id, t.clone());
            }
            sim.step(batch);
        }
        let v = check_cross_shard_order(sim.chains(), &all);
        assert!(v.is_empty(), "BDS must serialize consistently: {v:?}");
    }

    #[test]
    fn fds_strict_window_is_serialization_consistent() {
        use crate::fds::{FdsConfig, FdsSim};
        use adversary::{Adversary, AdversaryConfig, StrategyKind};
        use cluster::LineMetric;
        let sys = SystemConfig {
            shards: 8,
            accounts: 8,
            k_max: 3,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(
            &sys,
            &map,
            FdsConfig {
                pipeline_window: 1,
                ..FdsConfig::default()
            },
            &metric,
        );
        let mut adv = Adversary::new(
            &sys,
            &map,
            AdversaryConfig {
                rho: 0.01,
                burstiness: 2,
                strategy: StrategyKind::UniformRandom,
                seed: 8,
                ..Default::default()
            },
        );
        let mut all = BTreeMap::new();
        for r in 0..3000u64 {
            let batch = adv.generate(Round(r));
            for t in &batch {
                all.insert(t.id, t.clone());
            }
            sim.step(batch);
        }
        let v = check_cross_shard_order(sim.chains(), &all);
        assert!(
            v.is_empty(),
            "strict FDS must serialize consistently: {v:?}"
        );
    }
}
