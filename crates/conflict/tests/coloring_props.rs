//! Property tests for the conflict layer: every coloring strategy is
//! *proper* on arbitrary batches, and [`ConflictGraph::build`] is the
//! all-pairs [`Transaction::conflicts_with`] predicate, computed by one
//! sort of the accesses, whatever the account ids: dense or sparse, read
//! or written. The unit suites pin these on hand-picked shapes; the
//! properties sweep random ones.

use conflict::{color_transactions, ColoringStrategy, ConflictGraph};
use proptest::prelude::*;
use sharding_core::txn::TxnBuilder;
use sharding_core::{AccountId, AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use std::collections::BTreeSet;

/// Deterministic splitmix-style stream for building batches from a seed.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `n` transactions over `accounts` total ids, each touching 1..=3
/// distinct accounts drawn from a window of `spread` ids — small spreads
/// force conflicts, large ones exercise sparse account ids.
fn random_batch(
    n: usize,
    seed: u64,
    map: &AccountMap,
    accounts: u64,
    spread: u64,
) -> Vec<Transaction> {
    let mut next = stream(seed);
    let spread = spread.clamp(1, accounts);
    (0..n)
        .map(|i| {
            let k = 1 + (next() % 3) as usize;
            let picked: BTreeSet<AccountId> = (0..k)
                .map(|_| AccountId((next() % spread) * (accounts / spread).max(1)))
                .collect();
            let first = *picked.iter().next().expect("k >= 1");
            let mut b = TxnBuilder::new(TxnId(i as u64), map.owner_unchecked(first), Round(0), map);
            for a in picked {
                b = b.update(a, 1);
            }
            b.build().expect("<= 3 accounts <= k_max shards")
        })
        .collect()
}

/// `n` transactions, each making 1..=4 accesses to ids drawn from
/// `spread` ids spaced `accounts / spread` apart, every access a read or a
/// write at random (an account may be both read and written by one
/// transaction).
fn mixed_batch(
    n: usize,
    seed: u64,
    map: &AccountMap,
    accounts: u64,
    spread: u64,
) -> Vec<Transaction> {
    let mut next = stream(seed);
    let spread = spread.clamp(1, accounts);
    (0..n)
        .map(|i| {
            let mut b = TxnBuilder::new(TxnId(i as u64), ShardId(0), Round(0), map);
            for _ in 0..1 + next() % 4 {
                let a = AccountId((next() % spread) * (accounts / spread).max(1));
                b = if next() & 1 == 0 {
                    b.check(a, 0)
                } else {
                    b.update(a, 1)
                };
            }
            b.build().expect("every id is below `accounts`")
        })
        .collect()
}

/// Round-robin placement of `accounts` ids over eight shards: 24 is
/// dense, 200 000 sparse for batches that touch a few dozen ids.
fn map_over(accounts: usize) -> AccountMap {
    let cfg = SystemConfig {
        shards: 8,
        accounts,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    AccountMap::round_robin(&cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every strategy produces a proper coloring (no edge monochromatic,
    /// all colors < num_colors) on random contended batches.
    #[test]
    fn every_strategy_colors_properly(
        n in 1usize..24,
        seed in any::<u64>(),
        threshold in 1usize..4,
    ) {
        let map = map_over(24);
        let batch = random_batch(n, seed, &map, 24, 8);
        let graph = ConflictGraph::build(&batch);
        for strategy in [
            ColoringStrategy::Greedy,
            ColoringStrategy::Dsatur,
            ColoringStrategy::HeavyLight { threshold },
        ] {
            let coloring = color_transactions(strategy, &batch);
            prop_assert!(
                coloring.is_proper(&graph),
                "{strategy} produced an improper coloring on n={} seed={}", n, seed
            );
            prop_assert_eq!(coloring.colors().len(), batch.len());
            let max = coloring.colors().iter().copied().max().unwrap_or(0);
            prop_assert_eq!(u64::from(coloring.num_colors()), u64::from(max) + 1);
        }
    }

    /// `ConflictGraph::build` is invariant under relabelling accounts:
    /// the same access structure, re-homed onto a huge sparse account
    /// space, yields an identical adjacency over transaction indices.
    #[test]
    fn dense_and_sparse_build_paths_agree(
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let (dense, sparse) = (map_over(24), map_over(200_000));
        // Same draw sequence over both spaces: account j in the dense
        // batch maps to a widely-spaced id in the sparse one, preserving
        // equality structure (and thus the conflict relation) exactly.
        let dense_batch = random_batch(n, seed, &dense, 24, 24);
        let sparse_batch = random_batch(n, seed, &sparse, 200_000, 24);
        let g_dense = ConflictGraph::build(&dense_batch);
        let g_sparse = ConflictGraph::build(&sparse_batch);
        prop_assert_eq!(g_dense.len(), g_sparse.len());
        prop_assert_eq!(
            g_dense.edge_count(),
            g_sparse.edge_count(),
            "edge counts diverge on n={} seed={}", n, seed
        );
        for v in 0..g_dense.len() {
            prop_assert_eq!(
                g_dense.neighbors(v),
                g_sparse.neighbors(v),
                "adjacency of vertex {} diverges on seed={}", v, seed
            );
        }
    }

    /// The graph has an edge exactly where the all-pairs predicate says
    /// two transactions conflict — reads and writes mixed, over dense
    /// and sparse ids — and no self-loop.
    #[test]
    fn build_matches_the_pairwise_predicate(
        n in 1usize..24,
        seed in any::<u64>(),
        sparse in any::<bool>(),
        spread in 1u64..24,
    ) {
        let accounts = if sparse { 200_000 } else { 24 };
        let map = map_over(accounts);
        let batch = mixed_batch(n, seed, &map, accounts as u64, spread);
        let graph = ConflictGraph::build(&batch);
        prop_assert_eq!(graph.len(), batch.len());
        let mut pairs = 0;
        for i in 0..batch.len() {
            prop_assert!(!graph.are_adjacent(i, i), "self-loop at {}", i);
            for j in 0..batch.len() {
                if i == j {
                    continue;
                }
                let conflict = batch[i].conflicts_with(&batch[j]);
                prop_assert_eq!(
                    graph.are_adjacent(i, j),
                    conflict,
                    "pair ({}, {}) on n={} seed={} sparse={}", i, j, n, seed, sparse
                );
                pairs += usize::from(conflict && i < j);
            }
        }
        prop_assert_eq!(graph.edge_count(), pairs);
    }

    /// Greedy coloring over sparse ids is proper against the graph.
    #[test]
    fn sparse_path_batches_color_properly(
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let map = map_over(200_000);
        let batch = random_batch(n, seed, &map, 200_000, 16);
        let graph = ConflictGraph::build(&batch);
        let coloring = color_transactions(ColoringStrategy::Greedy, &batch);
        prop_assert!(coloring.is_proper(&graph));
    }
}
