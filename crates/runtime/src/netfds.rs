//! Networked FDS over any [`ShardMetric`]: `schedulers::fds::FdsNode`,
//! one per shard, on the threaded host (`host.rs`).
//!
//! FDS needs nothing beyond the node to be networkable: epoch starts,
//! coloring moments and rescheduling alignments are pure functions of
//! the round number and the shared, immutable cluster hierarchy. This
//! module builds that hierarchy once, lends every node a ledger and a
//! coloring policy, and turns the merged run into a report with
//! `fds::record_round`.
//!
//! With an inert [`FaultPlan`] the resulting
//! [`RunReport`](schedulers::metrics::RunReport) is byte-identical to
//! `run_fds` on the same inputs (differential-test enforced) because
//! both engines execute the same node; with faults, the run stays
//! deterministic and the injected counters surface in
//! [`RunReport::faults`](schedulers::metrics::RunReport::faults).

use crate::exec::default_workers;
use crate::host::{self, NetOutcome};
use adversary::{Adversary, AdversaryConfig};
use cluster::{Hierarchy, ShardMetric};
use schedulers::fds::{self, FdsConfig, FdsNode};
use schedulers::metrics::SchedulerKind;
use schedulers::scheduler::{ColoringPolicy, Scheduler};
use sharding_core::{AccountMap, Round, SystemConfig};
use simnet::faults::FaultPlan;
use simnet::ShardLedger;
use std::sync::Arc;

/// Runs the networked FDS on [`default_workers`] threads.
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
    let hierarchy = Arc::new(Hierarchy::build_with_sublayers(metric, fcfg.sublayers));
    let mut source = Adversary::new(sys, map, *adv);
    let workers = default_workers(sys.shards);
    let run = host::run(sys, metric, faults, &mut source, rounds, workers, |id| {
        let policy: Box<dyn Scheduler> = Box::new(ColoringPolicy::new(
            SchedulerKind::Fds,
            fcfg.coloring,
            sys.accounts,
        ));
        let ledger = ShardLedger::new(id, map, fcfg.initial_balance);
        (FdsNode::new(id, fcfg, hierarchy.clone()), ledger, policy)
    });
    // The report's epoch is the layer-0 epoch, its "longest epoch" the
    // top layer's fixed length.
    let e0 = fds::base_epoch(&fcfg, sys.shards);
    let top_epoch = e0 << (hierarchy.num_layers() as u64 - 1);
    run.finish(
        SchedulerKind::Fds,
        metrics,
        (rounds.raw() / e0, top_epoch),
        false,
        |collector, round, samples, byz, crashed| {
            fds::record_round(collector, round / e0, samples, byz, crashed)
        },
    )
}
