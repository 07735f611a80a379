//! Cross-crate integration tests: adversary → scheduler → ledger/chain,
//! exercised through the public facade API exactly as a downstream user
//! would.

use blockshard::adversary::{validate_trace, Adversary, TraceRecorder};
use blockshard::core_types::{Transaction, TxnId};
use blockshard::prelude::*;
use blockshard::schedulers::bds::{BdsConfig, BdsProtocol, BdsSim};
use blockshard::schedulers::fds::{run_fds_line, FdsConfig, FdsSim};
use std::collections::BTreeMap;

fn paper_small() -> (SystemConfig, AccountMap) {
    // A scaled-down version of the paper's setup, fast enough for CI.
    let sys = SystemConfig {
        shards: 16,
        accounts: 16,
        k_max: 4,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::random(&sys, 5);
    (sys, map)
}

#[test]
fn bds_end_to_end_pipeline() {
    let (sys, map) = paper_small();
    let adv = AdversaryConfig {
        rho: 0.05,
        burstiness: 20,
        strategy: StrategyKind::SingleBurst { burst_round: 200 },
        seed: 77,
        ..Default::default()
    };
    // Drive the simulation manually so the trace can be validated and the
    // commit history checked for serializability.
    let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
    let mut adversary = Adversary::new(&sys, &map, adv);
    let mut recorder = TraceRecorder::new(sys.shards);
    let mut all: BTreeMap<TxnId, Transaction> = BTreeMap::new();
    for r in 0..4000u64 {
        let batch = adversary.generate(Round(r));
        recorder.record_round(batch.iter());
        for t in &batch {
            all.insert(t.id, t.clone());
        }
        sim.step(batch);
    }

    // (1) The generated trace conforms to (rho, b) over every window.
    validate_trace(&recorder, adv.rho, adv.burstiness).expect("conforming trace");

    // (2) Every local chain verifies.
    for c in sim.chains() {
        assert!(c.verify());
    }

    // (3) Same-round commits never conflict (conflict-free schedule).
    let mut by_round: BTreeMap<Round, Vec<TxnId>> = BTreeMap::new();
    for (r, t) in sim.committed_log() {
        by_round.entry(*r).or_default().push(*t);
    }
    for (round, txns) in &by_round {
        for i in 0..txns.len() {
            for j in (i + 1)..txns.len() {
                assert!(
                    !all[&txns[i]].conflicts_with(&all[&txns[j]]),
                    "conflicting commits at {round}"
                );
            }
        }
    }

    // (4) Every committed transaction's subtransactions appear in the
    //     chains of exactly its destination shards.
    let committed: Vec<TxnId> = sim.committed_log().iter().map(|(_, t)| *t).collect();
    let mut chain_txns: BTreeMap<TxnId, Vec<u32>> = BTreeMap::new();
    for c in sim.chains() {
        for t in c.committed_txns() {
            chain_txns.entry(t).or_default().push(c.shard().raw());
        }
    }
    for t in &committed {
        let expected: Vec<u32> = all[t].shards().map(|s| s.raw()).collect();
        let mut got = chain_txns.get(t).cloned().unwrap_or_default();
        got.sort_unstable();
        assert_eq!(got, expected, "txn {t} chain placement");
    }

    let report = sim.finish();
    assert!(report.resolution_rate() > 0.9, "{}", report.summary());
}

#[test]
fn fds_end_to_end_on_line() {
    let (sys, map) = paper_small();
    let adv = AdversaryConfig {
        rho: 0.05,
        burstiness: 10,
        strategy: StrategyKind::UniformRandom,
        seed: 13,
        ..Default::default()
    };
    let metric = LineMetric::new(sys.shards);
    let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
    let mut adversary = Adversary::new(&sys, &map, adv);
    for r in 0..6000u64 {
        sim.step(adversary.generate(Round(r)));
    }
    for c in sim.chains() {
        assert!(c.verify());
    }
    let r = sim.finish();
    assert!(r.resolution_rate() > 0.9, "{}", r.summary());
    assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
}

#[test]
fn theorem1_pairwise_overload_saturates_fcfs_baseline() {
    // Above the Theorem 1 threshold, even the idealized FCFS baseline
    // (zero coordination cost) cannot stay stable on the pairwise-conflict
    // workload; below a comfortable margin it can.
    let sys = SystemConfig {
        shards: 16,
        accounts: 16,
        k_max: 4,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    let threshold = blockshard::core_types::bounds::theorem1_threshold(sys.k_max, sys.shards);
    use blockshard::schedulers::baseline::{run_fcfs, FcfsConfig};

    let overload = AdversaryConfig {
        rho: (threshold * 1.8).min(1.0),
        burstiness: 8,
        strategy: StrategyKind::PairwiseConflict,
        seed: 3,
        ..Default::default()
    };
    let r = run_fcfs(
        &sys,
        &map,
        &overload,
        Round(6000),
        FcfsConfig {
            respect_capacity: true,
        },
    );
    assert_eq!(r.verdict, StabilityVerdict::Unstable, "{}", r.summary());

    let light = AdversaryConfig {
        rho: threshold * 0.3,
        burstiness: 8,
        strategy: StrategyKind::PairwiseConflict,
        seed: 3,
        ..Default::default()
    };
    let r = run_fcfs(
        &sys,
        &map,
        &light,
        Round(6000),
        FcfsConfig {
            respect_capacity: true,
        },
    );
    assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
}

#[test]
fn networked_runtime_agrees_with_simulator_on_paper_shape() {
    let (sys, map) = paper_small();
    let adv = AdversaryConfig {
        rho: 0.04,
        burstiness: 5,
        strategy: StrategyKind::BurstTrain { period: 150 },
        seed: 41,
        ..Default::default()
    };
    let run = blockshard::runtime::NetRun {
        sys: &sys,
        map: &map,
        metric: &UniformMetric::new(sys.shards),
        faults: &blockshard::simnet::FaultPlan::default(),
        workers: blockshard::runtime::default_workers(sys.shards),
        metrics: false,
    };
    let proto = BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds);
    let net = run.run(&proto, &mut Adversary::new(&sys, &map, adv), Round(700));
    let sim = blockshard::schedulers::bds::run_bds(&sys, &map, &adv, Round(700));
    assert_eq!(net.report.summary(), sim.summary(), "full report parity");
    assert!(net.chains_verified);
}

#[test]
fn fds_degrades_before_bds_under_overload_on_line() {
    // The paper's qualitative comparison (Section 7): under the same
    // pessimistic overload, FDS on the line accumulates significantly
    // larger backlogs than BDS on the uniform clique ("the queue size and
    // transaction latency of Algorithm 2 grew significantly more than
    // those of Algorithm 1").
    let sys = SystemConfig::paper_simulation();
    let map = AccountMap::random(&sys, 2);
    let adv = AdversaryConfig {
        rho: 0.27,
        burstiness: 300,
        strategy: StrategyKind::SingleBurst { burst_round: 500 },
        seed: 9,
        ..Default::default()
    };
    let bds = run_bds(&sys, &map, &adv, Round(5000));
    let fds = run_fds_line(&sys, &map, &adv, Round(5000));
    assert!(bds.committed > 0 && fds.committed > 0);
    assert!(
        fds.avg_queue_per_shard > bds.avg_queue_per_shard,
        "fds queue {} vs bds queue {}",
        fds.avg_queue_per_shard,
        bds.avg_queue_per_shard
    );
    // The backlog separation widens with run length (the figure harness
    // shows ~3x at 8000+ rounds); at this test's 5000 rounds demand a
    // conservative 1.5x.
    assert!(
        fds.pending_at_end as f64 > 1.5 * bds.pending_at_end as f64,
        "fds pending {} vs bds pending {}",
        fds.pending_at_end,
        bds.pending_at_end
    );
}

#[test]
fn bds_message_size_within_o_bs() {
    // Section 3: "the message size in our model is upper-bounded by
    // O(bs)". The largest BDS message is the phase-1 TxnInfo batch; with
    // per-shard burst budget b and s shards, pending per home shard is
    // O(bs), each transaction O(k) words. Check with a generous constant.
    let (sys, map) = paper_small();
    let b = 16u64;
    let adv = AdversaryConfig {
        rho: 0.04,
        burstiness: b,
        strategy: StrategyKind::SingleBurst { burst_round: 100 },
        seed: 19,
        ..Default::default()
    };
    let r = blockshard::schedulers::bds::run_bds(&sys, &map, &adv, Round(2_000));
    assert!(r.max_message_bytes > 0, "sizer active");
    let word = 16u64; // bytes per access entry in the estimator
    let per_txn = 24 + (sys.k_max as u64) * (word + 12);
    let bound = 16 + 4 * b * sys.shards as u64 * per_txn; // 4bs txns, one home shard worst case
    assert!(
        r.max_message_bytes <= bound,
        "max message {} exceeds O(bs) budget {bound}",
        r.max_message_bytes
    );
}

#[test]
fn bds_transfers_conserve_total_balance_and_abort() {
    // Conditional transfers: every commit moves money atomically, every
    // abort leaves balances untouched. BDS's color-serialized commits
    // guarantee no stale votes, so conservation must hold exactly.
    use blockshard::adversary::{Adversary, WorkloadShape};
    use blockshard::schedulers::bds::{BdsConfig, BdsSim};
    let (sys, map) = paper_small();
    let initial = 50u64;
    let bcfg = BdsConfig {
        initial_balance: initial,
        ..BdsConfig::default()
    };
    let mut sim = BdsSim::new(&sys, &map, bcfg);
    let adv = AdversaryConfig {
        rho: 0.06,
        burstiness: 10,
        strategy: StrategyKind::UniformRandom,
        shape: WorkloadShape::Transfers { amount_max: 120 }, // > initial → some aborts
        seed: 33,
    };
    let mut adversary = Adversary::new(&sys, &map, adv);
    for r in 0..3000u64 {
        sim.step(adversary.generate(Round(r)));
    }
    for c in sim.chains() {
        assert!(c.verify());
    }
    let total: u64 = sim.ledgers().map(|l| l.total()).sum();
    // Transfers move money between accounts; single-shard "deposits" mint
    // amount once. Reconstruct expected total from the chains: every
    // committed action's delta sums to (total - initial supply).
    let minted: i64 = sim
        .chains()
        .iter()
        .flat_map(|c| c.blocks())
        .flat_map(|b| b.subs)
        .flat_map(|s| s.actions())
        .map(|a| a.delta)
        .sum();
    let expected = sys.accounts as i64 * initial as i64 + minted;
    assert_eq!(
        total as i64, expected,
        "ledger total equals initial supply plus applied deltas"
    );
    let r = sim.finish();
    assert!(
        r.aborted > 0,
        "oversized transfers must abort: {}",
        r.summary()
    );
    assert!(
        r.committed > 0,
        "small transfers must commit: {}",
        r.summary()
    );
}

#[test]
fn fds_strict_window_transfers_conserve() {
    // With the strict pipeline window (W = 1), FDS votes cannot go stale,
    // so the same conservation reconciliation must hold.
    use blockshard::adversary::{Adversary, WorkloadShape};
    use blockshard::schedulers::fds::{FdsConfig, FdsSim};
    let (sys, map) = paper_small();
    let metric = LineMetric::new(sys.shards);
    let fcfg = FdsConfig {
        pipeline_window: 1,
        initial_balance: 50,
        ..FdsConfig::default()
    };
    let mut sim = FdsSim::new(&sys, &map, fcfg, &metric);
    let adv = AdversaryConfig {
        rho: 0.01,
        burstiness: 3,
        strategy: StrategyKind::UniformRandom,
        shape: WorkloadShape::Transfers { amount_max: 120 },
        seed: 34,
    };
    let mut adversary = Adversary::new(&sys, &map, adv);
    for r in 0..5000u64 {
        sim.step(adversary.generate(Round(r)));
    }
    for c in sim.chains() {
        assert!(c.verify());
    }
    let total: u64 = sim.ledgers().map(|l| l.total()).sum();
    let minted: i64 = sim
        .chains()
        .iter()
        .flat_map(|c| c.blocks())
        .flat_map(|b| b.subs)
        .flat_map(|s| s.actions())
        .map(|a| a.delta)
        .sum();
    let expected = sys.accounts as i64 * 50 + minted;
    assert_eq!(total as i64, expected);
    let r = sim.finish();
    assert!(r.committed > 0, "{}", r.summary());
}
