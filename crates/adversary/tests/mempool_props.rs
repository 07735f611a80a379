//! Property tests for the streaming ingestion plane.
//!
//! 1. **Alias sampler vs the CDF oracle**: on small universes the alias
//!    table must realize *exactly* the distribution of the
//!    pre-materialized Zipf CDF (per-index mass equals successive CDF
//!    differences), and the same seed must reproduce the same draw
//!    sequence — the determinism the golden reports stand on.
//! 2. **Mempool model**: however producers interleave the same offered
//!    transactions, the retained set, the drain order, and every counter
//!    are identical — the property that makes the ingestion plane safe
//!    under the engine's thread-count and sim/net byte-equality
//!    guarantees.
//! 3. **Lane vs the ordered-map oracle**: the bucketed deques and the
//!    cached lane minimum agree, step by step, with one ordered map per
//!    lane truncated to capacity.
//! 4. **Deferred build vs the eager oracle**: the pool builds a
//!    transaction only when it drains; building every offer the moment it
//!    is offered, into the ordered-map reference, drains the same
//!    transactions byte for byte with the same counters.

use adversary::{
    IngestPipeline, Mempool, MempoolStats, Offer, RoundSource, ShardBudgets, StreamKind,
    StreamSource, TxnScratch, WorkloadShape,
};
use proptest::prelude::*;
use sharding_core::rngutil::seeded_rng;
use sharding_core::{AccountId, AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use std::cmp::Reverse;
use std::collections::BTreeMap;

fn small_sys(shards: usize, accounts: usize) -> (SystemConfig, AccountMap) {
    let sys = SystemConfig {
        shards,
        accounts,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    (sys, map)
}

/// A write-only offer over `shards`, homed on the first. Under the
/// round-robin placement of `small_sys`, account `s` lives on shard `s`.
fn writing(id: usize, shards: &[u32]) -> Offer {
    let draws: Vec<_> = shards
        .iter()
        .map(|&s| (ShardId(s), AccountId(u64::from(s))))
        .collect();
    Offer::new(
        TxnId(id as u64),
        Round::ZERO,
        WorkloadShape::WriteOnly,
        0,
        &draws,
    )
}

/// Applies `perm` (a permutation encoded as swap indices) to `items`.
fn permute<T>(mut items: Vec<T>, swaps: &[usize]) -> Vec<T> {
    let n = items.len();
    if n < 2 {
        return items;
    }
    for (i, &s) in swaps.iter().enumerate() {
        items.swap(i % n, s % n);
    }
    items
}

/// The reference pool: each lane one ordered map keyed by priority
/// (first key = maximum, last key = minimum), truncated to `capacity`
/// after every insert.
struct RefPool {
    lanes: Vec<BTreeMap<(Reverse<u8>, TxnId), Transaction>>,
    capacity: usize,
    stats: MempoolStats,
}

impl RefPool {
    fn new(lanes: usize, capacity: usize) -> RefPool {
        RefPool {
            lanes: vec![BTreeMap::new(); lanes],
            capacity,
            stats: MempoolStats::default(),
        }
    }

    fn offer(&mut self, fee: u8, txn: Transaction) {
        let lane = &mut self.lanes[txn.home.index()];
        lane.insert((Reverse(fee), txn.id), txn);
        if lane.len() > self.capacity {
            lane.pop_last();
            self.stats.evicted += 1;
        }
    }

    fn lane_min(&self, lane: usize) -> Option<(u8, TxnId)> {
        let (&(Reverse(fee), id), _) = self.lanes[lane].last_key_value()?;
        Some((fee, id))
    }

    fn drain(&mut self, budgets: &mut ShardBudgets, round: u64) -> Vec<Transaction> {
        let depth = self.lanes.iter().map(|l| l.len() as u64).sum();
        self.stats.depth_max = self.stats.depth_max.max(depth);
        let (n, mut out) = (self.lanes.len(), Vec::new());
        for i in 0..n {
            let lane = &mut self.lanes[(round as usize + i) % n];
            while let Some(head) = lane.first_entry() {
                if !budgets.try_charge(head.get().shards()) {
                    self.stats.deferred += 1;
                    break;
                }
                out.push(head.remove());
            }
        }
        self.stats.admitted += out.len() as u64;
        out
    }

    /// Counters and every lane's minimum against the pool's.
    fn assert_agrees_with(&self, pool: &Mempool) {
        for lane in 0..self.lanes.len() {
            assert_eq!(pool.lane_min(ShardId(lane as u32)), self.lane_min(lane));
        }
        assert_eq!(pool.stats(), self.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Alias-table masses equal the CDF oracle's successive differences
    /// for arbitrary small universes and exponents.
    #[test]
    fn alias_mass_matches_cdf_oracle(n in 1usize..80, tenths in 0u32..25) {
        let exponent = f64::from(tenths) / 10.0;
        let table = adversary::AliasTable::zipf(n, exponent);
        // Pre-materialized CDF oracle, built independently here.
        let weights: Vec<f64> =
            (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let masses = table.masses();
        for (i, (&m, &w)) in masses.iter().zip(weights.iter()).enumerate() {
            let oracle = w / total;
            prop_assert!(
                (m - oracle).abs() < 1e-9,
                "index {} of {}: alias {} vs oracle {}", i, n, m, oracle
            );
        }
    }

    /// Same seed ⇒ same draw sequence, and draws stay in bounds.
    #[test]
    fn alias_draws_replay_under_same_seed(n in 1usize..80, seed in 0u64..1_000) {
        let table = adversary::AliasTable::zipf(n, 0.9);
        let (mut a, mut b) = (seeded_rng(seed), seeded_rng(seed));
        for _ in 0..64 {
            let x = table.sample(&mut a);
            prop_assert_eq!(x, table.sample(&mut b));
            prop_assert!(x < n);
        }
    }

    /// The full streaming source replays byte-identically under the same
    /// seed (offers, fees, and ids).
    #[test]
    fn stream_source_replays_under_same_seed(seed in 0u64..500, zipf in 0u8..2) {
        let zipf = zipf == 1;
        let (sys, map) = small_sys(4, 64);
        let kind = if zipf {
            StreamKind::Zipf { exponent: 1.1 }
        } else {
            StreamKind::Shift { period: 3 }
        };
        let mk = || StreamSource::new(
            &sys, &map, kind, WorkloadShape::WriteOnly, 0.5, 2, 6, seed,
        );
        let (mut a, mut b) = (mk(), mk());
        for r in 0..8 {
            prop_assert_eq!(a.offer_round(Round(r)), b.offer_round(Round(r)));
        }
    }

    /// Arbitrary producer interleavings of the same offers drain in the
    /// same order with the same stats.
    #[test]
    fn mempool_drain_is_interleaving_independent(
        fees in proptest::collection::vec(0u8..8, 1..60),
        homes in proptest::collection::vec(0u32..3, 1..60),
        swaps in proptest::collection::vec(0usize..60, 0..40),
        capacity in 1usize..12,
    ) {
        let offers: Vec<(u8, Offer)> = fees
            .iter()
            .zip(homes.iter().cycle())
            .enumerate()
            .map(|(i, (&fee, &home))| (fee, writing(i, &[home, (home + 1) % 3])))
            .collect();
        let shuffled = permute(offers.clone(), &swaps);

        let run = |offers: Vec<(u8, Offer)>| {
            let mut pool = Mempool::new(3, capacity);
            for (fee, offer) in offers {
                pool.offer(fee, offer);
            }
            pool.note_depth();
            // Tight budgets so the deferral path is exercised too.
            let mut budgets = ShardBudgets::new(3, 0.9, 3);
            let mut drained = Vec::new();
            for r in 0..4 {
                budgets.tick();
                drained.extend(pool.drain(&mut budgets, Round(r)).into_iter().map(|t| t.id));
            }
            (drained, pool.stats(), pool.depth())
        };

        prop_assert_eq!(run(offers), run(shuffled));
    }

    /// A capacity-1 lane is a running maximum under (fee desc, id asc):
    /// whatever the offer order, each lane retains exactly the winning
    /// transaction, and every other offer into a non-empty lane counts
    /// as one eviction — the degenerate bound where backpressure fires
    /// on *every* contested insert.
    #[test]
    fn capacity_one_lane_retains_exactly_the_max(
        fees in proptest::collection::vec(0u8..8, 1..40),
        swaps in proptest::collection::vec(0usize..40, 0..40),
    ) {
        let offers: Vec<(u8, Offer)> = fees
            .iter()
            .enumerate()
            .map(|(i, &fee)| (fee, writing(i, &[(i % 2) as u32])))
            .collect();
        let shuffled = permute(offers.clone(), &swaps);

        let mut pool = Mempool::new(2, 1);
        for (fee, offer) in shuffled {
            pool.offer(fee, offer);
        }

        // Oracle: the per-lane winner under (fee desc, id asc), computed
        // over the *unshuffled* offers.
        let winner = |lane: u32| -> Option<u64> {
            offers
                .iter()
                .filter(|(_, o)| o.home() == ShardId(lane))
                .max_by_key(|(fee, o)| (*fee, std::cmp::Reverse(o.id)))
                .map(|(_, o)| o.id.0)
        };
        let expected: Vec<u64> = (0..2).filter_map(winner).collect();
        let retained = expected.len();
        prop_assert_eq!(pool.depth(), retained);
        prop_assert_eq!(
            pool.stats().evicted as usize,
            offers.len() - retained,
            "every contested offer evicts exactly one loser"
        );

        let mut budgets = ShardBudgets::new(2, 1.0, 100);
        budgets.tick();
        let drained: Vec<u64> = pool
            .drain(&mut budgets, Round::ZERO)
            .iter()
            .map(|t| t.id.0)
            .collect();
        prop_assert_eq!(drained, expected, "lane 0 then lane 1 at round 0");
    }

    /// Within a single fee class a full lane is FIFO: it keeps the
    /// `capacity` smallest ids it was ever offered (ids are assigned in
    /// generation order), whatever the arrival order, and drains them in
    /// ascending id order.
    #[test]
    fn fee_tie_eviction_keeps_the_earliest_ids(
        n in 1usize..40,
        fee in 0u8..8,
        capacity in 1usize..6,
        swaps in proptest::collection::vec(0usize..40, 0..40),
    ) {
        let offers: Vec<(u8, Offer)> = (0..n).map(|i| (fee, writing(i, &[0]))).collect();
        let shuffled = permute(offers, &swaps);

        let mut pool = Mempool::new(1, capacity);
        for (f, o) in shuffled {
            pool.offer(f, o);
        }
        let kept = n.min(capacity);
        prop_assert_eq!(pool.depth(), kept);
        prop_assert_eq!(pool.stats().evicted as usize, n.saturating_sub(capacity));

        let mut budgets = ShardBudgets::new(1, 1.0, 100);
        budgets.tick();
        let drained: Vec<u64> = pool
            .drain(&mut budgets, Round::ZERO)
            .iter()
            .map(|t| t.id.0)
            .collect();
        let expected: Vec<u64> = (0..kept as u64).collect();
        prop_assert_eq!(drained, expected, "fee ties retain and drain FIFO by id");
    }

    /// Offers arrive shuffled — ids out of order inside a fee class —
    /// with a budget-limited drain every few offers; after every offer
    /// and every drain the pool agrees with the ordered-map reference on
    /// the drained ids, the counters and each lane's cached minimum.
    /// The capacity selector covers 1, a few, and "never full".
    #[test]
    fn lanes_agree_with_the_ordered_map_reference(
        fees in proptest::collection::vec(0u8..4, 1..60),
        swaps in proptest::collection::vec(0usize..60, 0..60),
        capacity in 0usize..8,
        every in 1usize..12,
    ) {
        const LANES: usize = 2;
        let offers: Vec<(u8, Offer)> = fees
            .iter()
            .enumerate()
            .map(|(i, &fee)| (fee, writing(i, &[(i % LANES) as u32])))
            .collect();
        let capacity = match capacity {
            0 => offers.len(),
            c => c,
        };
        let mut pool = Mempool::new(LANES, capacity);
        let mut reference = RefPool::new(LANES, capacity);
        let mut scratch = TxnScratch::default();
        let mut budgets = (ShardBudgets::new(LANES, 0.9, 2), ShardBudgets::new(LANES, 0.9, 2));
        let mut round = 0;
        for (i, (fee, offer)) in permute(offers, &swaps).into_iter().enumerate() {
            reference.offer(fee, offer.build(&mut scratch));
            pool.offer(fee, offer);
            reference.assert_agrees_with(&pool);
            if (i + 1) % every == 0 {
                pool.note_depth();
                budgets.0.tick();
                budgets.1.tick();
                let drained = pool.drain(&mut budgets.0, Round(round));
                prop_assert_eq!(drained, reference.drain(&mut budgets.1, round));
                reference.assert_agrees_with(&pool);
                round += 1;
            }
        }
    }
}

/// The eager ingestion plane the deferred build replaced: every offer is
/// built the moment it is offered and held, built, in the ordered-map
/// reference. Returns each round's drained batch, the counters, and how
/// many offers spilled past the eight inline draws.
fn eager_drains(
    mut source: StreamSource,
    capacity: usize,
    rounds: u64,
) -> (Vec<Vec<Transaction>>, MempoolStats, usize) {
    let (shards, rho, b) = source.budget_params();
    let mut reference = RefPool::new(shards, capacity);
    let mut budgets = ShardBudgets::new(shards, rho, b);
    let mut scratch = TxnScratch::default();
    let mut spilled = 0;
    let batches = (0..rounds)
        .map(|r| {
            for (fee, offer) in source.offer_round(Round(r)) {
                spilled += usize::from(offer.shards().count() > 8);
                reference.offer(fee, offer.build(&mut scratch));
            }
            budgets.tick();
            reference.drain(&mut budgets, r)
        })
        .collect();
    (batches, reference.stats, spilled)
}

/// The pipeline builds a transaction only when it drains, and drains
/// what the eager oracle does, byte for byte, with the same counters:
/// every shape, both stream kinds, and widths up to 3, 8 (the inline
/// limit) and 12 (spilled drafts).
#[test]
fn the_deferred_build_drains_what_the_eager_oracle_does() {
    let shapes = [
        WorkloadShape::WriteOnly,
        WorkloadShape::Transfers { amount_max: 40 },
        WorkloadShape::ReadMostly,
    ];
    let kinds = [
        StreamKind::Zipf { exponent: 1.1 },
        StreamKind::Shift { period: 3 },
    ];
    for k_max in [3, 8, 12] {
        let sys = SystemConfig {
            shards: 16,
            accounts: 200,
            k_max,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        for shape in shapes {
            for kind in kinds {
                for seed in 0..2 {
                    let source = || StreamSource::new(&sys, &map, kind, shape, 0.5, 3, 24, seed);
                    let mut lazy = IngestPipeline::new(source(), 6);
                    let got: Vec<_> = (0..40).map(|r| lazy.next_round(Round(r))).collect();
                    let (want, stats, spilled) = eager_drains(source(), 6, 40);
                    let case = format!("k={k_max} {shape} {kind} seed {seed}");
                    assert!(got.iter().map(Vec::len).sum::<usize>() > 0, "{case}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(lazy.stats(), Some(stats), "{case}");
                    assert_eq!(spilled > 0, k_max > 8, "{case}");
                }
            }
        }
    }
}
