//! Property-based tests (proptest) over the workspace's core invariants.

use blockshard::adversary::{validate_trace, Adversary, TraceRecorder};
use blockshard::cluster::{Hierarchy, LineMetric, RingMetric, ShardMetric};
use blockshard::conflict::{dsatur, greedy_by_order, ConflictGraph};
use blockshard::core_types::bounds;
use blockshard::core_types::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use blockshard::prelude::*;
use proptest::prelude::*;

fn arb_system() -> impl Strategy<Value = SystemConfig> {
    (2usize..=24, 1usize..=6).prop_map(|(shards, k)| SystemConfig {
        shards,
        accounts: shards,
        k_max: k.min(shards),
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    })
}

fn arb_txns(sys: SystemConfig) -> impl Strategy<Value = (SystemConfig, Vec<Vec<u32>>)> {
    let s = sys.shards as u32;
    let k = sys.k_max;
    let set = proptest::collection::btree_set(0..s, 1..=k);
    proptest::collection::vec(set, 0..40).prop_map(move |sets| {
        (
            sys.clone(),
            sets.into_iter().map(|x| x.into_iter().collect()).collect(),
        )
    })
}

fn build_txns(sys: &SystemConfig, sets: &[Vec<u32>]) -> (AccountMap, Vec<Transaction>) {
    let map = AccountMap::round_robin(sys);
    let txns = sets
        .iter()
        .enumerate()
        .map(|(i, set)| {
            let shards: Vec<ShardId> = set.iter().map(|&x| ShardId(x)).collect();
            Transaction::writing_shards(
                TxnId(i as u64),
                ShardId(set[0]),
                Round::ZERO,
                &map,
                &shards,
            )
            .unwrap()
        })
        .collect();
    (map, txns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Greedy and DSATUR always produce proper colorings within Δ+1.
    #[test]
    fn colorings_proper_and_bounded((sys, sets) in arb_system().prop_flat_map(arb_txns)) {
        let (_, txns) = build_txns(&sys, &sets);
        let g = ConflictGraph::build(&txns);
        let order: Vec<u32> = (0..g.len() as u32).collect();
        for c in [greedy_by_order(&g, &order), dsatur(&g)] {
            prop_assert!(c.is_proper(&g));
            prop_assert!(c.num_colors() as usize <= g.max_degree() + 1);
        }
    }

    /// Every adversary emission conforms to its own (rho, b) constraint —
    /// over every window, for every strategy, at random parameters.
    #[test]
    fn adversary_always_conforms(
        rho in 0.01f64..0.9,
        b in 1u64..20,
        seed in 0u64..1000,
        strat in 0usize..5,
    ) {
        let sys = SystemConfig {
            shards: 12, accounts: 12, k_max: 4,
            nodes_per_shard: 4, faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let strategy = match strat {
            0 => StrategyKind::UniformRandom,
            1 => StrategyKind::SingleBurst { burst_round: 50 },
            2 => StrategyKind::PairwiseConflict,
            3 => StrategyKind::HotShard,
            _ => StrategyKind::BurstTrain { period: 60 },
        };
        let mut adv = Adversary::new(&sys, &map, AdversaryConfig { rho, burstiness: b, strategy, seed, ..Default::default() });
        let mut rec = TraceRecorder::new(sys.shards);
        for r in 0..300u64 {
            let batch = adv.generate(Round(r));
            rec.record_round(batch.iter());
        }
        prop_assert!(validate_trace(&rec, rho, b).is_ok());
    }

    /// Hierarchy invariants hold for arbitrary line/ring sizes and
    /// sublayer counts: partitions cover, home clusters contain the
    /// queried neighborhood, diameters are bounded by 2^{l+1}.
    #[test]
    fn hierarchy_invariants(s in 2usize..=48, h2 in 1usize..=4, ring in any::<bool>()) {
        let h = if ring {
            Hierarchy::build_with_sublayers(&RingMetric::new(s), h2)
        } else {
            Hierarchy::build_with_sublayers(&LineMetric::new(s), h2)
        };
        for l in 0..h.num_layers() as u32 {
            prop_assert!(h.layer_diameter(l) <= 2u64 << l);
            for j in 0..h.num_sublayers() as u32 {
                let mut seen = vec![false; s];
                for c in h.clusters(l, j) {
                    for sh in &c.shards {
                        prop_assert!(!seen[sh.index()]);
                        seen[sh.index()] = true;
                    }
                    prop_assert!(c.contains(c.leader));
                }
                prop_assert!(seen.iter().all(|&x| x));
            }
        }
        let metric = LineMetric::new(s);
        for shard in 0..s as u32 {
            for x in [0u64, 1, (s as u64) / 2] {
                let id = h.home_cluster(ShardId(shard), x);
                let hood = metric.neighborhood(ShardId(shard), x.min(s as u64 - 1));
                // Hierarchy distance == metric distance for line builds.
                if !ring {
                    prop_assert!(h.cluster(id).contains_all(&hood));
                }
            }
        }
    }

    /// Theorem-bound calculators are monotone in their parameters and
    /// mutually consistent.
    #[test]
    fn bounds_sane(k in 1usize..=32, s in 1usize..=256, b in 1u64..=64) {
        let t1 = bounds::theorem1_threshold(k, s);
        prop_assert!(t1 > 0.0 && t1 <= 1.0);
        let r = bounds::bds_rate_bound(k, s);
        prop_assert!(r > 0.0 && r < t1 + 1e-9, "algorithmic bound below absolute bound");
        prop_assert_eq!(bounds::bds_latency_bound(b, k, s), 2 * bounds::bds_epoch_bound(b, k, s));
        prop_assert_eq!(bounds::bds_queue_bound(b, s), 4 * b * s as u64);
        // ceil/floor sqrt exactness.
        let c = bounds::ceil_sqrt(s);
        prop_assert!(c * c >= s && (c == 0 || (c - 1) * (c - 1) < s));
        let f = bounds::floor_sqrt(s);
        prop_assert!(f * f <= s && (f + 1) * (f + 1) > s);
    }

    /// Short BDS runs never violate the Theorem 2 pending bound when the
    /// rate is admissible.
    #[test]
    fn bds_pending_within_theorem2(seed in 0u64..50) {
        let sys = SystemConfig {
            shards: 8, accounts: 8, k_max: 2,
            nodes_per_shard: 4, faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let b = 2u64;
        let adv = AdversaryConfig {
            rho: bounds::bds_rate_bound(sys.k_max, sys.shards),
            burstiness: b,
            strategy: StrategyKind::UniformRandom,
            seed,
            ..Default::default()
        };
        let report = run_bds(&sys, &map, &adv, Round(800));
        prop_assert!(report.max_total_pending <= bounds::bds_queue_bound(b, sys.shards));
    }
}
