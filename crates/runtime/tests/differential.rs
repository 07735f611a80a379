//! What each kind of fault does to a networked run — a crash stalls it,
//! drops strand transactions, a Byzantine quota changes nothing but its
//! counter — and the refusal of a fault plan under a fault-free-only
//! description. That a networked run equals the simulator's byte for
//! byte and does not depend on the worker count, faulted or not, fault
//! counters included, is `conformance_net.rs`'s table; that the threaded
//! hub hands out what `simnet::Network` does under faults is
//! `hub_stress.rs`'s.

use adversary::{Adversary, AdversaryConfig, StrategyKind};
use cluster::{ShardMetric, UniformMetric};
use runtime::{default_workers, NetOutcome, NetRun};
use schedulers::bds::{BdsConfig, BdsProtocol};
use schedulers::node::{Node, Protocol};
use schedulers::testkit::small_system;
use schedulers::SchedulerKind;
use sharding_core::{Round, ShardId};
use simnet::FaultPlan;

fn adversary(seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho: 0.06,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

/// `rounds` rounds of `proto` on the networked engine over the kit's
/// 8-shard system under `faults`.
fn net<P>(
    proto: &P,
    metric: &dyn ShardMetric,
    seed: u64,
    rounds: u64,
    faults: &FaultPlan,
) -> NetOutcome
where
    P: Protocol,
    P::Node: Send,
    <P::Node as Node>::Msg: Send,
{
    let (sys, map) = small_system();
    let run = NetRun {
        sys: &sys,
        map: &map,
        metric,
        faults,
        workers: default_workers(8),
        metrics: false,
    };
    let mut source = Adversary::new(&sys, &map, adversary(seed));
    run.run(proto, &mut source, Round(rounds))
}

/// BDS over the uniform metric.
fn net_bds(seed: u64, rounds: u64, faults: &FaultPlan) -> NetOutcome {
    let proto = BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds);
    net(&proto, &UniformMetric::new(8), seed, rounds, faults)
}

#[test]
fn crash_fault_stalls_progress_and_is_counted() {
    let healthy = net_bds(43, 800, &FaultPlan::default());
    let crash = FaultPlan {
        crashes: vec![(ShardId(0), Round(100))],
        ..FaultPlan::default()
    };
    let crashed = net_bds(43, 800, &crash);
    assert_eq!(crashed.report.faults.crashes, 1);
    assert!(
        crashed.report.committed < healthy.report.committed,
        "a crashed shard must cost commits: {} vs {}",
        crashed.report.committed,
        healthy.report.committed
    );
    assert!(
        crashed.report.pending_at_end > healthy.report.pending_at_end,
        "work strands as pending"
    );
}

#[test]
fn message_drops_strand_transactions_not_the_run() {
    let drops = FaultPlan {
        seed: 3,
        drop_prob: 0.05,
        ..FaultPlan::default()
    };
    let lossy = net_bds(47, 900, &drops);
    assert!(lossy.report.faults.dropped > 0, "{:?}", lossy.report.faults);
    // The run completes and stays internally consistent; some
    // transactions may be stranded by lost ballots.
    assert!(lossy.chains_verified);
    assert_eq!(
        lossy.report.generated,
        lossy.report.committed + lossy.report.aborted + lossy.report.pending_at_end
    );
}

#[test]
fn byzantine_votes_are_flipped_but_harmless() {
    let clean = net_bds(53, 600, &FaultPlan::default());
    let quota = FaultPlan {
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let byz = net_bds(53, 600, &quota);
    // n > 3f: a full Byzantine quota changes nothing but the counter.
    assert_eq!(byz.report.faults.byz_flips, 8 * 600);
    assert_eq!(byz.report.summary(), clean.report.summary());
    assert_eq!(byz.committed_log, clean.committed_log);
}

/// A live migration hands balances off exactly once, so a description
/// that arms one is only defined fault-free — and the host refuses the
/// combination rather than losing state quietly.
#[test]
#[should_panic(expected = "requires a fault-free run")]
fn a_reshard_plan_under_a_fault_plan_is_refused() {
    let (sys, _) = small_system();
    let plan = sharding_core::ReshardPlan::build(6, &sys, &[(2, 50)]).unwrap();
    let proto = BdsProtocol {
        reshard: Some(std::sync::Arc::new(plan)),
        ..BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds)
    };
    let drops = FaultPlan {
        drop_prob: 0.01,
        ..FaultPlan::default()
    };
    net(&proto, &UniformMetric::new(8), 61, 100, &drops);
}
