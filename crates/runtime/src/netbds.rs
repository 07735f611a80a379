//! The three positional spellings of a networked run that `benchmark/`
//! calls. Each is one [`NetRun::run`] over a [`BdsProtocol`] or
//! [`FdsProtocol`] description; new code builds the [`NetRun`] itself.
//! They go when the benchmark crate switches over (ROADMAP item 10).

use crate::exec::default_workers;
use crate::host::{NetOutcome, NetRun};
use adversary::{Adversary, AdversaryConfig, RoundSource};
use cluster::ShardMetric;
use schedulers::bds::{BdsConfig, BdsProtocol};
use schedulers::fds::{FdsConfig, FdsProtocol};
use schedulers::metrics::SchedulerKind;
use sharding_core::{AccountMap, Round, SystemConfig};
use simnet::faults::FaultPlan;

/// Runs any epoch-hosted scheduler — BDS proper or a zoo policy — over
/// the networked engine against a fresh adversary. `kind` must have an
/// epoch policy ([`SchedulerKind::epoch_policy`] returns `Some`).
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

/// [`run_net_sched`] over any [`RoundSource`] — the seam the streaming
/// ingestion plane plugs into.
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
    let run = NetRun {
        sys,
        map,
        metric,
        faults,
        workers,
        metrics,
    };
    run.run(&BdsProtocol::new(bcfg, kind), source, rounds)
}

/// Runs the networked FDS on [`default_workers`] threads against a fresh
/// adversary.
#[allow(clippy::too_many_arguments)]
pub fn run_net_fds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    fcfg: FdsConfig,
    faults: &FaultPlan,
    metrics: bool,
) -> NetOutcome {
    let run = NetRun {
        sys,
        map,
        metric,
        faults,
        workers: default_workers(sys.shards),
        metrics,
    };
    let mut adversary = Adversary::new(sys, map, *adv);
    run.run(&FdsProtocol::new(fcfg, metric), &mut adversary, rounds)
}
