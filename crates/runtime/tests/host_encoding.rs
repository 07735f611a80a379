//! The two places the networked host re-encodes a run instead of keeping
//! a `shards × rounds` structure: the pre-drained workload (one `(round,
//! txn)` queue per home shard, injected through a cursor) and the
//! per-shard sample logs (run-length, carried forward by the merge).
//! Neither may be observable. The cursor is `conformance_net.rs`'s
//! clumped-source row, held to the simulator; here are the empty run and
//! the logs under a fault plan that makes some shards' samples change
//! every round and another's freeze — at worker counts whose shard
//! ranges differ, the per-epoch timeline compared field by field.

use adversary::{Adversary, AdversaryConfig, RoundSource, StrategyKind};
use cluster::UniformMetric;
use runtime::{NetOutcome, NetRun};
use schedulers::bds::{BdsConfig, BdsProtocol};
use schedulers::testkit::{report_fingerprint, small_system};
use schedulers::SchedulerKind;
use sharding_core::{Round, ShardId};
use simnet::FaultPlan;

fn adversary(rho: f64, seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho,
        burstiness: 6,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

fn bds() -> BdsProtocol {
    BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds)
}

/// BDS on the kit's 8 uniform shards, networked.
fn net(
    source: &mut dyn RoundSource,
    rounds: u64,
    faults: &FaultPlan,
    workers: usize,
) -> NetOutcome {
    let (sys, map) = small_system();
    let run = NetRun {
        sys: &sys,
        map: &map,
        metric: &UniformMetric::new(8),
        faults,
        workers,
        metrics: true,
    };
    run.run(&bds(), source, Round(rounds))
}

#[test]
fn a_run_of_zero_rounds_is_an_empty_report() {
    let (sys, map) = small_system();
    let mut source = Adversary::new(&sys, &map, adversary(0.3, 61));
    let out = net(&mut source, 0, &FaultPlan::default(), 3);
    assert_eq!((out.report.rounds, out.report.generated), (0, 0));
    assert!(out.report.queue_series.samples().is_empty());
    assert!(out.committed_log.is_empty() && out.chains_verified);
}

#[test]
fn sample_logs_merge_the_same_under_crash_and_byzantine_votes_at_any_worker_count() {
    let (sys, map) = small_system();
    let plan = FaultPlan {
        crashes: vec![(ShardId(5), Round(150))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let run = |workers| {
        let mut source = Adversary::new(&sys, &map, adversary(0.06, 67));
        net(&mut source, 500, &plan, workers)
    };
    let (one, three) = (run(1), run(3));
    // Seven live shards flip one vote a round; the crashed one stops.
    assert_eq!(one.report.faults.byz_flips, 7 * 500 + 150);
    assert_eq!(one.report.faults.crashes, 1);
    assert_eq!(
        report_fingerprint(&one.report),
        report_fingerprint(&three.report)
    );
    assert_eq!(
        one.report.queue_series.samples(),
        three.report.queue_series.samples()
    );
    assert_eq!(
        one.report.metrics, three.report.metrics,
        "per-epoch timeline"
    );
    assert_eq!(one.committed_log, three.committed_log);
    assert!(one.chains == three.chains);
    let timeline = one.report.metrics.expect("metrics on").timeline;
    assert_eq!(
        timeline.iter().map(|row| row.byz_flips).sum::<u64>(),
        7 * 500 + 150
    );
    assert_eq!(
        timeline.iter().map(|row| row.crashed_shards_max).max(),
        Some(1)
    );
}
