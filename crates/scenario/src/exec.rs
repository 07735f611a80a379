//! The parallel sweep executor: a fixed pool of `std::thread` workers
//! claiming jobs by atomic index and reporting results over a channel.
//!
//! There is no work stealing and no shared mutable simulation state:
//! each job is a pure function of its [`JobSpec`] (all randomness flows
//! from the spec's seeds), workers claim disjoint indices, and the merge
//! step re-sorts outcomes by index — so reports are byte-identical for
//! any worker count.

use crate::spec::JobSpec;
use adversary::{Adversary, MempoolStats, ReshardSource, RoundSource};
use runtime::{
    default_workers, run_net_fds, run_net_sched_from, run_net_sched_reshard, EngineKind,
};
use schedulers::baseline::{FcfsConfig, FcfsSim};
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::driver::drive_with;
use schedulers::fds::{FdsConfig, FdsSim};
use schedulers::history::check_cross_shard_order;
use schedulers::{RunReport, SchedulerKind};
use sharding_core::{AccountMap, ReshardPlan, Round, SystemConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The result of one executed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The spec that produced this outcome.
    pub spec: JobSpec,
    /// The scheduler's run report.
    pub report: RunReport,
    /// Cross-shard serialization-order violations, when the spec asked
    /// for the check (`check-order = true`, FDS only).
    pub violations: Option<u64>,
    /// Ingestion-plane counters, when the spec ran the streaming
    /// mempool (`mempool = CAPACITY`).
    pub mempool: Option<MempoolStats>,
    /// Migration audit for reshard jobs: `(lost, duplicated)` committed
    /// transactions across the whole schedule — `(0, 0)` on every
    /// correct run. `None` for static jobs.
    pub reshard: Option<(u64, u64)>,
}

/// The job's one workload source. The producer is built against the
/// *initial* active shard count (only active shards own accounts at
/// round 0; without a plan that is simply `sys`); under a reshard plan it
/// is wrapped so homes and groupings follow the live placement version.
fn job_source(
    spec: &JobSpec,
    sys: &SystemConfig,
    map: &AccountMap,
    plan: Option<&ReshardPlan>,
) -> Box<dyn RoundSource> {
    let src_sys = SystemConfig {
        shards: spec.shards,
        ..sys.clone()
    };
    let adversary = || Adversary::new(&src_sys, map, spec.adversary_config());
    match (spec.ingest_pipeline(&src_sys, map), plan) {
        (Some(pipeline), Some(plan)) => Box::new(ReshardSource::new(pipeline, plan.clone())),
        (Some(pipeline), None) => Box::new(pipeline),
        (None, Some(plan)) => Box::new(ReshardSource::new(adversary(), plan.clone())),
        (None, None) => Box::new(adversary()),
    }
}

/// The BDS tunables a spec selects.
fn bds_config(spec: &JobSpec) -> BdsConfig {
    BdsConfig {
        coloring: spec.coloring,
        rotate_leader: spec.rotate_leader,
        ..BdsConfig::default()
    }
}

/// The FDS tunables a spec selects.
fn fds_config(spec: &JobSpec) -> FdsConfig {
    FdsConfig {
        epoch_scale: spec.epoch_scale,
        sublayers: spec.sublayers,
        reschedule: spec.reschedule,
        pipeline_window: spec.pipeline_window,
        coloring: spec.coloring,
        ..FdsConfig::default()
    }
}

/// Runs one job to completion on the calling thread. Jobs with
/// `engine = net` route through the networked runtime, which for the
/// duration of the job spawns [`default_workers`] threads — one per
/// shard up to the host's core count — that claim shard rounds
/// cooperatively; everything else runs the shared-memory simulators.
pub fn run_job(spec: &JobSpec) -> JobOutcome {
    let sys = spec.system_config();
    let map = spec.account_map();
    let plan = spec.reshard_plan();
    // Reshard jobs provision the metric for the schedule's maximum
    // shard count (`sys.shards` == the plan's `s_max`).
    let metric = spec
        .metric
        .build(sys.shards)
        .expect("spec validated at plan time");
    let metric = metric.as_ref();
    let rounds = Round(spec.rounds);
    let metrics_on = spec.metrics.enabled();
    let mut source = job_source(spec, &sys, &map, plan.as_ref());
    let mut violations = None;
    let mut reshard = None;
    let report = match (spec.engine, spec.scheduler) {
        (EngineKind::Net, SchedulerKind::Fcfs) => unreachable!("rejected at plan time"),
        // FDS has no mempool or reshard seam; its driver builds the same
        // adversary `job_source` did.
        (EngineKind::Net, SchedulerKind::Fds) => {
            let (adv, fcfg, faults) =
                (spec.adversary_config(), fds_config(spec), spec.fault_plan());
            run_net_fds(&sys, &map, &adv, rounds, metric, fcfg, &faults, metrics_on).report
        }
        // BDS proper and every zoo policy share the epoch host, which
        // pre-drains the same source the simulator drains live, so
        // reports stay byte-identical across engines.
        (EngineKind::Net, kind) => {
            let (bcfg, faults) = (bds_config(spec), spec.fault_plan());
            let workers = default_workers(sys.shards);
            let source = source.as_mut();
            let out = match &plan {
                Some(plan) => run_net_sched_reshard(
                    &sys, &map, source, rounds, metric, bcfg, &faults, kind, workers, metrics_on,
                    plan,
                ),
                None => run_net_sched_from(
                    &sys, &map, source, rounds, metric, bcfg, &faults, kind, workers, metrics_on,
                ),
            };
            reshard = out.reshard_audit;
            out.report
        }
        (EngineKind::Sim, SchedulerKind::Fds) => {
            let mut sim = FdsSim::new(&sys, &map, fds_config(spec), metric);
            if metrics_on {
                sim.enable_metrics();
            }
            if spec.check_order {
                // Driven by hand so the full transaction set is available
                // to the order checker afterwards.
                let mut all = BTreeMap::new();
                for r in 0..spec.rounds {
                    let batch = source.next_round(Round(r));
                    for t in &batch {
                        all.insert(t.id, t.clone());
                    }
                    sim.step(batch);
                }
                violations = Some(check_cross_shard_order(sim.chains(), &all).len() as u64);
                sim.finish()
            } else {
                drive_with(sim, source.as_mut(), rounds)
            }
        }
        (EngineKind::Sim, SchedulerKind::Fcfs) => {
            let fcfg = FcfsConfig {
                respect_capacity: spec.respect_capacity,
            };
            let mut sim = FcfsSim::new(&sys, fcfg);
            if metrics_on {
                sim.enable_metrics();
            }
            drive_with(sim, source.as_mut(), rounds)
        }
        // The factory is the single registration point
        // (`run_bds_with_metric` is exactly `with_policy` + the Bds
        // coloring policy).
        (EngineKind::Sim, kind) => {
            let bcfg = bds_config(spec);
            let policy = kind
                .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
                .expect("non-policy kinds have explicit arms above");
            let mut sim = BdsSim::with_policy(&sys, &map, bcfg, metric, policy);
            if metrics_on {
                sim.enable_metrics();
            }
            let resharding = plan.is_some();
            if let Some(plan) = plan {
                sim.set_reshard(plan);
            }
            // Driven by hand so the migration audit can run over the
            // chains before the simulator is consumed.
            for r in 0..spec.rounds {
                sim.step(source.next_round(Round(r)));
            }
            reshard = resharding.then(|| sim.reshard_audit());
            sim.finish()
        }
    };
    JobOutcome {
        spec: spec.clone(),
        report,
        violations,
        mempool: source.stats(),
        reshard,
    }
}

/// Runs all jobs on a fixed pool of `threads` workers and returns the
/// outcomes in job-index order. `threads` is clamped to
/// `1..=specs.len()`. With `progress`, one line per finished job goes to
/// stderr (stderr only — report bytes are unaffected).
pub fn run_jobs(specs: &[JobSpec], threads: usize, progress: bool) -> Vec<JobOutcome> {
    if specs.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, specs.len());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();

    let mut slots: Vec<Option<JobOutcome>> = (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let done = &done;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let outcome = run_job(&specs[i]);
                if progress {
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "  [{finished}/{}] job {i} ({}): {}",
                        specs.len(),
                        specs[i].label(),
                        outcome.report.summary()
                    );
                }
                // The receiver outlives every worker inside this scope.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Scenario;

    const TINY: &str = "
name = exec-tiny
scheduler = fcfs
shards = 4
accounts = 8
k = 2
nodes-per-shard = 4
faulty-per-shard = 1
rounds = 120
rho = 0.2
b = 4

[grid]
seed = 1, 2, 3, 4
";

    #[test]
    fn outcomes_come_back_in_index_order() {
        let jobs = Scenario::parse_str(TINY, "<t>").unwrap().jobs().unwrap();
        let outcomes = run_jobs(&jobs, 3, false);
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.spec.index, i);
            assert!(o.report.generated > 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let jobs = Scenario::parse_str(TINY, "<t>").unwrap().jobs().unwrap();
        let a = run_jobs(&jobs, 1, false);
        let b = run_jobs(&jobs, 4, false);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.report.summary(), y.report.summary());
        }
    }
}
