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
use cluster::ShardMetric;
use runtime::{default_workers, EngineKind, NetRun};
use schedulers::baseline::FcfsSim;
use schedulers::bds::BdsProtocol;
use schedulers::fds::FdsProtocol;
use schedulers::history::check_cross_shard_order;
use schedulers::node::{Node, Protocol, Sim};
use schedulers::{RunReport, SchedulerKind};
use sharding_core::{AccountMap, ReshardPlan, Round, SystemConfig, Transaction, TxnId};
use simnet::LocalChain;
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
    /// for the check (`check-order = true`) of a scheduler that keeps
    /// per-shard chains (every one but FCFS).
    pub violations: Option<u64>,
    /// Ingestion-plane counters, when the spec ran the streaming
    /// mempool (`mempool = CAPACITY`).
    pub mempool: Option<MempoolStats>,
    /// Migration audit for reshard jobs: `(lost, duplicated)` committed
    /// transactions across the whole schedule — `(0, 0)` on every
    /// correct run. `None` for static jobs.
    pub reshard: Option<(u64, u64)>,
}

/// The job's one workload source, consumed by whichever engine runs the
/// job. With `seen` it also remembers every transaction it hands out,
/// for the order checker.
struct JobSource {
    inner: Box<dyn RoundSource>,
    seen: Option<BTreeMap<TxnId, Transaction>>,
}

impl RoundSource for JobSource {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        let batch = self.inner.next_round(round);
        if let Some(seen) = &mut self.seen {
            seen.extend(batch.iter().map(|t| (t.id, t.clone())));
        }
        batch
    }

    fn stats(&self) -> Option<MempoolStats> {
        self.inner.stats()
    }
}

/// Builds the job's source. The producer is built against the system as
/// written (`spec.sys`: only the initially active shards own accounts at
/// round 0); under a reshard plan it is wrapped so homes and groupings
/// follow the live placement version.
fn job_source(spec: &JobSpec, map: &AccountMap) -> JobSource {
    let adversary = || Adversary::new(&spec.sys, map, spec.adv);
    let plan = spec.plan().map(|plan| ReshardPlan::clone(plan));
    let inner: Box<dyn RoundSource> = match (spec.ingest_pipeline(map), plan) {
        (Some(pipeline), Some(plan)) => Box::new(ReshardSource::new(pipeline, plan)),
        (Some(pipeline), None) => Box::new(pipeline),
        (None, Some(plan)) => Box::new(ReshardSource::new(adversary(), plan)),
        (None, None) => Box::new(adversary()),
    };
    // FCFS keeps no per-shard chains to check the recording against.
    let record = spec.check_order && spec.scheduler != SchedulerKind::Fcfs;
    JobSource {
        inner,
        seen: record.then(BTreeMap::new),
    }
}

/// What the post-run checks found — `(order violations, reshard audit)`
/// — each `None` when the spec did not ask for it.
type Checks = (Option<u64>, Option<(u64, u64)>);

/// The checks a spec asks for, computed from what either engine leaves
/// behind: the cross-shard order check over the chains and the
/// transactions `source` recorded, and the table-independent
/// loss/duplication audit of a reshard schedule over the chains and the
/// commit log.
fn checks(
    spec: &JobSpec,
    source: &JobSource,
    chains: &[LocalChain],
    log: &[(Round, TxnId)],
) -> Checks {
    let order = |txns| check_cross_shard_order(chains, txns).len() as u64;
    (
        source.seen.as_ref().map(order),
        spec.plan().map(|_| simnet::reshard_audit(chains, log)),
    )
}

/// Runs `proto` on the engine the spec selects, feeding it `source`.
/// `engine = net` spawns [`default_workers`] threads — one per shard up
/// to the host's core count — for the duration of the job; `engine =
/// sim` runs on the calling thread. Both arm the spec's fault plan, and
/// the two produce the same bytes.
fn host<P>(
    spec: &JobSpec,
    proto: &P,
    (sys, map, metric): (&SystemConfig, &AccountMap, &dyn ShardMetric),
    source: &mut JobSource,
) -> (RunReport, Checks)
where
    P: Protocol,
    P::Node: Send,
    <P::Node as Node>::Msg: Send,
{
    match spec.engine {
        EngineKind::Sim => {
            let mut sim = Sim::host(proto, sys, map, metric, &spec.faults);
            if spec.metrics.enabled() {
                sim.enable_metrics();
            }
            for r in 0..spec.rounds {
                sim.step(source.next_round(Round(r)));
            }
            let checks = checks(spec, source, sim.chains(), sim.committed_log());
            (sim.finish(), checks)
        }
        EngineKind::Net => {
            let run = NetRun {
                sys,
                map,
                metric,
                faults: &spec.faults,
                workers: default_workers(sys.shards),
                metrics: spec.metrics.enabled(),
            };
            let out = run.run(proto, source, Round(spec.rounds));
            let checks = checks(spec, source, &out.chains, &out.committed_log);
            (out.report, checks)
        }
    }
}

/// Runs one job to completion. The scheduler picks the protocol
/// description — BDS proper and every zoo policy share the epoch
/// protocol (the policy factory is the single registration point), FDS
/// has its own, FCFS is a centralized loop with no protocol at all —
/// and `host` picks the engine.
pub fn run_job(spec: &JobSpec) -> JobOutcome {
    let sys = spec.system_config();
    let map = spec.account_map();
    // Reshard jobs provision the metric for the schedule's maximum
    // shard count (`sys.shards` == the plan's `s_max`).
    let metric = spec
        .metric
        .build(sys.shards)
        .expect("resolve built this metric over these shards");
    let on = (&sys, &map, metric.as_ref());
    let mut source = job_source(spec, &map);
    let (report, (violations, reshard)) = match spec.scheduler {
        SchedulerKind::Fcfs => {
            let mut sim = FcfsSim::new(&sys, spec.fcfs);
            if spec.metrics.enabled() {
                sim.enable_metrics();
            }
            for r in 0..spec.rounds {
                sim.step(source.next_round(Round(r)));
            }
            // Commits centrally and keeps no per-shard chains: nothing
            // for either check to look at.
            (sim.finish(), (None, None))
        }
        SchedulerKind::Fds => {
            let proto = FdsProtocol::new(spec.fds, on.2);
            host(spec, &proto, on, &mut source)
        }
        kind => {
            let proto = BdsProtocol {
                cfg: spec.bds,
                kind,
                reshard: spec.plan().cloned(),
            };
            host(spec, &proto, on, &mut source)
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
