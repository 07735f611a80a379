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
    default_workers, run_net_fds, run_net_sched, run_net_sched_from, run_net_sched_reshard,
    EngineKind,
};
use schedulers::baseline::{FcfsConfig, FcfsSim};
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::driver::{drive, drive_with};
use schedulers::fds::{FdsConfig, FdsSim};
use schedulers::history::check_cross_shard_order;
use schedulers::{RunReport, SchedulerKind};
use sharding_core::{Round, SystemConfig};
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

/// The workload source for a reshard job: the inner producer is built
/// against the *initial* active shard count (only active shards own
/// accounts at round 0), then wrapped so homes and groupings follow the
/// plan's live placement version.
fn reshard_source(spec: &JobSpec, sys: &SystemConfig) -> Box<dyn RoundSource> {
    let plan = spec
        .reshard_plan()
        .expect("caller checked the schedule is non-empty");
    let src_sys = SystemConfig {
        shards: spec.shards,
        ..sys.clone()
    };
    let map = spec.account_map();
    match spec.ingest_pipeline(&src_sys, &map) {
        Some(pipeline) => Box::new(ReshardSource::new(pipeline, plan)),
        None => Box::new(ReshardSource::new(
            Adversary::new(&src_sys, &map, spec.adversary_config()),
            plan,
        )),
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
    let adv = spec.adversary_config();
    // Reshard jobs provision the metric for the schedule's maximum
    // shard count (`sys.shards` == the plan's `s_max`).
    let metric = spec
        .metric
        .build(sys.shards)
        .expect("spec validated at plan time");
    let rounds = Round(spec.rounds);
    if spec.engine == EngineKind::Net {
        let faults = spec.fault_plan();
        let workers = default_workers(sys.shards);
        let (report, mempool, reshard) = match spec.scheduler {
            SchedulerKind::Fds => (
                run_net_fds(
                    &sys,
                    &map,
                    &adv,
                    rounds,
                    metric.as_ref(),
                    fds_config(spec),
                    &faults,
                    spec.metrics.enabled(),
                )
                .report,
                None,
                None,
            ),
            SchedulerKind::Fcfs => unreachable!("rejected at plan time"),
            // BDS proper and every zoo policy share the epoch host.
            kind => {
                if let Some(plan) = spec.reshard_plan() {
                    let mut source = reshard_source(spec, &sys);
                    let out = run_net_sched_reshard(
                        &sys,
                        &map,
                        source.as_mut(),
                        rounds,
                        metric.as_ref(),
                        bds_config(spec),
                        &faults,
                        kind,
                        workers,
                        spec.metrics.enabled(),
                        &plan,
                    );
                    (out.report, source.stats(), out.reshard_audit)
                } else if let Some(mut pipeline) = spec.ingest_pipeline(&sys, &map) {
                    // Firehose: the networked engine pre-drains the same
                    // stream the simulator drains live, so reports stay
                    // byte-identical across engines.
                    let report = run_net_sched_from(
                        &sys,
                        &map,
                        &mut pipeline,
                        rounds,
                        metric.as_ref(),
                        bds_config(spec),
                        &faults,
                        kind,
                        workers,
                        spec.metrics.enabled(),
                    )
                    .report;
                    (report, pipeline.stats(), None)
                } else {
                    let report = run_net_sched(
                        &sys,
                        &map,
                        &adv,
                        rounds,
                        metric.as_ref(),
                        bds_config(spec),
                        &faults,
                        kind,
                        workers,
                        spec.metrics.enabled(),
                    )
                    .report;
                    (report, None, None)
                }
            }
        };
        return JobOutcome {
            spec: spec.clone(),
            report,
            violations: None,
            mempool,
            reshard,
        };
    }
    let (report, violations, mempool, reshard) = match spec.scheduler {
        SchedulerKind::Fds => {
            let fcfg = fds_config(spec);
            if spec.check_order {
                // Drive the simulator by hand so the full transaction set
                // is available to the order checker afterwards.
                let mut sim = FdsSim::new(&sys, &map, fcfg, metric.as_ref());
                if spec.metrics.enabled() {
                    sim.enable_metrics();
                }
                let mut adversary = Adversary::new(&sys, &map, adv);
                let mut all = BTreeMap::new();
                for r in 0..spec.rounds {
                    let batch = adversary.generate(Round(r));
                    for t in &batch {
                        all.insert(t.id, t.clone());
                    }
                    sim.step(batch);
                }
                let violations = check_cross_shard_order(sim.chains(), &all).len() as u64;
                (sim.finish(), Some(violations), None, None)
            } else {
                let mut sim = FdsSim::new(&sys, &map, fcfg, metric.as_ref());
                if spec.metrics.enabled() {
                    sim.enable_metrics();
                }
                (drive(sim, &sys, &map, &adv, rounds), None, None, None)
            }
        }
        SchedulerKind::Fcfs => {
            let fcfg = FcfsConfig {
                respect_capacity: spec.respect_capacity,
            };
            let mut sim = FcfsSim::new(&sys, fcfg);
            if spec.metrics.enabled() {
                sim.enable_metrics();
            }
            (drive(sim, &sys, &map, &adv, rounds), None, None, None)
        }
        // BDS proper and every zoo policy share the epoch host; the
        // factory is the single registration point (`run_bds_with_metric`
        // is exactly `with_policy` + the Bds coloring policy).
        kind => {
            let bcfg = bds_config(spec);
            let policy = kind
                .epoch_policy(bcfg.coloring, sys.accounts, sys.shards)
                .expect("non-policy kinds have explicit arms above");
            let metric_ref = metric.as_ref();
            let mut sim = BdsSim::with_policy(&sys, &map, bcfg, metric_ref, policy);
            if spec.metrics.enabled() {
                sim.enable_metrics();
            }
            if let Some(plan) = spec.reshard_plan() {
                // Hand-driven so the migration audit can run over the
                // chains before the simulator is consumed.
                sim.set_reshard(plan);
                let mut source = reshard_source(spec, &sys);
                for r in 0..spec.rounds {
                    sim.step(source.next_round(Round(r)));
                }
                let audit = sim.reshard_audit();
                (sim.finish(), None, source.stats(), Some(audit))
            } else if let Some(mut pipeline) = spec.ingest_pipeline(&sys, &map) {
                let report = drive_with(sim, &mut pipeline, rounds);
                (report, None, pipeline.stats(), None)
            } else {
                (drive(sim, &sys, &map, &adv, rounds), None, None, None)
            }
        }
    };
    JobOutcome {
        spec: spec.clone(),
        report,
        violations,
        mempool,
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
