//! Networked BDS over any [`ShardMetric`]: `schedulers::bds::BdsNode`,
//! one per shard, on the threaded host (`host.rs`).
//!
//! The protocol lives in `schedulers::bds` and is the code the simulator
//! runs; this module only chooses what the host lends each node (a
//! ledger, a policy instance from the kind's factory, the reshard plan)
//! and how the merged run becomes a report: `bds::record_round` per
//! round, `bds::epoch_stats` for the epoch counters.
//!
//! With an inert [`FaultPlan`], [`run_net_bds`] returns a `RunReport`
//! **byte-identical** to `run_bds_with_metric` on the same inputs —
//! commits, latencies, queue series, message counts, verdict, everything
//! (`tests/differential.rs` enforces it) — because both engines execute
//! the same node and book its decisions in the same order. With a
//! non-inert plan the run stays deterministic (fault decisions are
//! per-link ChaCha streams, independent of thread interleaving) but the
//! protocol is allowed to degrade: crashed shards freeze, dropped
//! ballots strand transactions as forever-pending, and the
//! injected-fault counters surface in `RunReport::faults`.

use crate::exec::default_workers;
use crate::host::{self, NetOutcome};
use adversary::{Adversary, AdversaryConfig, RoundSource};
use cluster::ShardMetric;
use schedulers::bds::{self, BdsConfig, BdsNode};
use schedulers::metrics::SchedulerKind;
use sharding_core::{AccountMap, ReshardPlan, Round, SystemConfig};
use simnet::faults::FaultPlan;
use simnet::ShardLedger;
use std::sync::Arc;

/// Runs the networked BDS. Equivalent to
/// [`run_net_sched`] with [`SchedulerKind::Bds`] and
/// [`default_workers`] threads.
pub fn run_net_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
) -> NetOutcome {
    run_net_sched(
        sys,
        map,
        adv,
        rounds,
        metric,
        bcfg,
        faults,
        SchedulerKind::Bds,
        default_workers(sys.shards),
        false,
    )
}

/// Runs any epoch-hosted scheduler — BDS proper or a zoo policy — over
/// the networked engine. `kind` must have an epoch policy
/// ([`SchedulerKind::epoch_policy`] returns `Some`); FDS has its own
/// networked driver and FCFS no networked protocol at all. `workers`
/// sets the cooperative executor's thread count ([`default_workers`] is
/// the natural choice; the result is identical for any `workers >= 1` —
/// the conformance harness pins it).
///
/// Every shard constructs its own policy instance from the factory; only
/// the rotating leader's is consulted each epoch, which is sound because
/// the [`Scheduler`](schedulers::Scheduler) contract requires plans to be
/// pure functions of `(epoch, batch)`.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
) -> NetOutcome {
    let mut adversary = Adversary::new(sys, map, *adv);
    run_net_sched_from(
        sys,
        map,
        &mut adversary,
        rounds,
        metric,
        bcfg,
        faults,
        kind,
        workers,
        metrics,
    )
}

/// [`run_net_sched`] generalized over any [`RoundSource`] — the seam the
/// streaming ingestion plane plugs into. The source is pre-drained round
/// by round (generation stays off the executed rounds), then the engine
/// runs exactly as with the legacy adversary.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched_from(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
) -> NetOutcome {
    run_net_epoch_hosted(
        sys, map, source, rounds, metric, bcfg, faults, kind, workers, metrics, None,
    )
}

/// Runs an epoch-hosted scheduler under a live reshard schedule. The
/// system must be provisioned for the plan's `s_max` and `map` must be
/// the plan's version-0 placement; the fault plan must be inert (a
/// crashed shard losing a balance handoff is unrecoverable state loss,
/// so the scenario layer rejects the combination and this engine
/// asserts it). The outcome carries the zero-loss/zero-duplication
/// audit in [`NetOutcome::reshard_audit`].
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched_reshard(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
    plan: &ReshardPlan,
) -> NetOutcome {
    assert_eq!(
        plan.s_max, sys.shards,
        "system must be provisioned for the plan's s_max"
    );
    assert!(faults.is_inert(), "resharding requires a fault-free run");
    run_net_epoch_hosted(
        sys,
        map,
        source,
        rounds,
        metric,
        bcfg,
        faults,
        kind,
        workers,
        metrics,
        Some(plan),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_net_epoch_hosted(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
    reshard: Option<&ReshardPlan>,
) -> NetOutcome {
    let reshard = reshard.map(|plan| Arc::new(plan.clone()));
    let run = host::run(sys, metric, faults, source, rounds, workers, |id| {
        let mut node = BdsNode::new(id, metric, bcfg.rotate_leader);
        if let Some(plan) = &reshard {
            node.set_reshard(plan.clone());
        }
        let policy = kind
            .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
            .unwrap_or_else(|| {
                panic!("{kind} has no epoch policy; use its dedicated networked driver")
            });
        let ledger = ShardLedger::new(id, map, bcfg.initial_balance);
        (node, ledger, policy)
    });
    debug_assert!(
        !faults.is_inert() || run.shards.iter().all(|h| h.node.stranded() == 0),
        "undecided entry survived its epoch without faults"
    );
    let epochs = bds::epoch_stats(run.shards.iter().map(|h| &h.node));
    run.finish(
        kind,
        metrics,
        epochs,
        reshard.is_some(),
        |collector, _round, samples, byz, crashed| {
            bds::record_round(collector, samples, byz, crashed)
        },
    )
}
