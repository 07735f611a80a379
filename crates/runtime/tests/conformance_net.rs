//! The sim≡net table: the contract that makes `engine = net`
//! interchangeable with `engine = sim` in scenario files, checked for
//! every protocol description the workspace has.
//!
//! Both hosts are generic over `schedulers::node::Protocol` and make the
//! same per-shard step, fault plane included, so one helper states the
//! contract once — [`assert_sim_equals_net`] — and every configuration
//! is a row: a description, a system, a metric, a source, a round count,
//! a fault plan and the worker counts to try. The rows cover BDS on every
//! metric shape and shard count, every epoch-hosted zoo kind, FDS on
//! line/uniform/ring and under bursts, a source that releases its
//! transactions in clumps, live resharding (scale-out, scale-in, churn on
//! a line, every hosted kind), FDS behind an ingestion pipeline, the
//! cross-shard order check on what either engine leaves behind, BDS and
//! FDS under drops, duplicates, a crash and Byzantine votes, with the
//! fault counters asserted, and samples that change every round or
//! freeze. Beside the rows: the empty run, and the round loop itself —
//! the networked host pulls round `r + 1` from its source only after
//! every shard has stepped round `r`, and before any steps `r + 1`.
//! Worker-count independence, and with it determinism, is part of the
//! contract: thread count is a performance knob, never a semantic one.
//! (`differential.rs` keeps what each kind of fault does to a networked
//! run.)

use adversary::{
    Adversary, AdversaryConfig, IngestPipeline, ReshardSource, RoundSource, StrategyKind,
    StreamKind, StreamSource, WorkloadShape,
};
use cluster::{GridMetric, LineMetric, RingMetric, ShardMetric, UniformMetric};
use conflict::ColoringStrategy;
use runtime::{default_workers, NetOutcome, NetRun};
use schedulers::bds::{BdsConfig, BdsProtocol};
use schedulers::fds::{FdsConfig, FdsProtocol};
use schedulers::node::{Lent, Node, Protocol, Seam, Sim};
use schedulers::scheduler::Scheduler;
use schedulers::testkit::report_fingerprint;
use schedulers::{check_cross_shard_order, SchedulerKind};
use sharding_core::{AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction};
use simnet::FaultPlan;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Where a row runs.
struct Bed {
    sys: SystemConfig,
    map: AccountMap,
    metric: Box<dyn ShardMetric>,
}

/// `shards` shards with one round-robin account each, over `metric`.
fn bed(shards: usize, k: usize, metric: impl ShardMetric + 'static) -> Bed {
    let sys = SystemConfig {
        shards,
        accounts: shards,
        k_max: k,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    Bed {
        map: AccountMap::round_robin(&sys),
        sys,
        metric: Box::new(metric),
    }
}

fn uniform_load(rho: f64, seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

/// Runs `proto` under `faults` on the simulator and, once per entry of
/// `workers`, on the networked engine — each over a fresh `source()` —
/// and asserts the contract: the report equal in every field (floats by
/// bit pattern, the per-round queue series, the fault counters and the
/// metrics plane's per-epoch timeline included), the commit log round
/// for round, the chains block for block, every chain verifying. Returns
/// the last networked outcome, by then equal to the simulator's.
fn assert_sim_equals_net<P, S>(
    label: &str,
    proto: &P,
    bed: &Bed,
    source: impl Fn() -> S,
    rounds: u64,
    faults: &FaultPlan,
    workers: &[usize],
) -> NetOutcome
where
    P: Protocol,
    P::Node: Send,
    <P::Node as Node>::Msg: Send,
    S: RoundSource,
{
    let (sys, map, metric) = (&bed.sys, &bed.map, bed.metric.as_ref());
    let mut sim = Sim::host(proto, sys, map, metric, faults);
    sim.enable_metrics();
    let mut src = source();
    for r in 0..rounds {
        sim.step(src.next_round(Round(r)));
    }
    let (sim_log, sim_chains) = (sim.committed_log().to_vec(), sim.chains().to_vec());
    let sim = sim.finish();
    assert!(sim.committed > 0, "{label}: workload must be non-trivial");

    let mut last = None;
    for &workers in workers {
        let run = NetRun {
            sys,
            map,
            metric,
            faults,
            workers,
            metrics: true,
        };
        let net = run.run(proto, &mut source(), Round(rounds));
        let label = format!("{label}, {workers} workers");
        assert_eq!(
            report_fingerprint(&net.report),
            report_fingerprint(&sim),
            "{label}: report"
        );
        assert_eq!(
            net.report.queue_series.samples(),
            sim.queue_series.samples(),
            "{label}: per-round queue series"
        );
        assert_eq!(net.report.metrics, sim.metrics, "{label}: timeline");
        assert_eq!(net.committed_log, sim_log, "{label}: commit log");
        assert!(net.chains == sim_chains, "{label}: chains");
        assert!(net.chains_verified, "{label}: chain verification");
        last = Some(net);
    }
    last.expect("at least one worker count")
}

fn bds(kind: SchedulerKind) -> BdsProtocol {
    BdsProtocol::new(BdsConfig::default(), kind)
}

/// Every kind the shared epoch protocol carries.
fn epoch_hosted_kinds() -> Vec<SchedulerKind> {
    SchedulerKind::ALL
        .into_iter()
        .filter(|k| k.epoch_policy(ColoringStrategy::Greedy, 8, 8).is_some())
        .collect()
}

#[test]
fn every_epoch_hosted_kind_is_net_capable_and_vice_versa() {
    for kind in SchedulerKind::ALL {
        let hosted = kind.epoch_policy(ColoringStrategy::Greedy, 8, 8).is_some();
        match kind {
            SchedulerKind::Fds => assert!(
                !hosted && kind.supports_net(),
                "FDS has its own protocol description"
            ),
            SchedulerKind::Fcfs => {
                assert!(!hosted && !kind.supports_net(), "FCFS is sim-only")
            }
            _ => assert!(
                hosted && kind.supports_net(),
                "{kind}: epoch-hosted kinds are net-capable by construction"
            ),
        }
    }
}

#[test]
fn bds_rows() {
    // (label, bed, adversary seed, rounds): the uniform model, every
    // metric shape (the phase gap stretches to the diameter), and every
    // scale from 2 shards up.
    let mut rows = vec![
        ("uniform", bed(8, 3, UniformMetric::new(8)), 17, 900),
        ("line", bed(8, 3, LineMetric::new(8)), 23, 1200),
        ("ring", bed(8, 3, RingMetric::new(8)), 23, 1200),
        ("grid4x2", bed(8, 3, GridMetric::new(4, 2)), 23, 1200),
    ];
    for s in [2usize, 4, 12] {
        let scaled = bed(s, 2.min(s), UniformMetric::new(s));
        rows.push(("scaled", scaled, 29 + s as u64, 600));
    }
    for (name, bed, seed, rounds) in rows {
        let label = format!("bds/{name}/{}", bed.sys.shards);
        let source = || Adversary::new(&bed.sys, &bed.map, uniform_load(0.06, seed));
        let workers = [default_workers(bed.sys.shards)];
        assert_sim_equals_net(
            &label,
            &bds(SchedulerKind::Bds),
            &bed,
            source,
            rounds,
            &FaultPlan::default(),
            &workers,
        );
    }
}

#[test]
fn every_hosted_kind_at_every_worker_count() {
    // One worker, one per shard, and a deliberate oversubscription.
    let bed = bed(8, 3, UniformMetric::new(8));
    let source = || Adversary::new(&bed.sys, &bed.map, uniform_load(0.08, 23));
    for kind in epoch_hosted_kinds() {
        let label = format!("{kind}/uniform");
        let inert = FaultPlan::default();
        assert_sim_equals_net(&label, &bds(kind), &bed, source, 400, &inert, &[1, 8, 17]);
    }
}

#[test]
fn fds_rows() {
    let rows = [
        ("line", bed(8, 3, LineMetric::new(8))),
        ("uniform", bed(8, 3, UniformMetric::new(8))),
        ("ring", bed(8, 3, RingMetric::new(8))),
    ];
    for (name, bed) in rows {
        let proto = FdsProtocol::new(FdsConfig::default(), bed.metric.as_ref());
        let source = || Adversary::new(&bed.sys, &bed.map, uniform_load(0.06, 31));
        let label = format!("fds/{name}");
        let inert = FaultPlan::default();
        assert_sim_equals_net(&label, &proto, &bed, source, 1500, &inert, &[1, 8]);
    }
    // A burst deep enough to reach the rescheduling periods.
    let bed = bed(12, 4, LineMetric::new(12));
    let burst = AdversaryConfig {
        rho: 0.08,
        burstiness: 10,
        strategy: StrategyKind::SingleBurst { burst_round: 100 },
        seed: 37,
        ..Default::default()
    };
    let proto = FdsProtocol::new(FdsConfig::default(), bed.metric.as_ref());
    let source = || Adversary::new(&bed.sys, &bed.map, burst);
    let workers = [default_workers(12)];
    let inert = FaultPlan::default();
    assert_sim_equals_net("fds/burst", &proto, &bed, source, 2000, &inert, &workers);
}

/// Holds the adversary's output back and releases it every fourth round:
/// three empty rounds, then one that carries several transactions for
/// the same home shard.
struct Clumped {
    inner: Adversary,
    held: Vec<Transaction>,
    /// The most transactions one home shard received in one round.
    widest: usize,
}

impl RoundSource for Clumped {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        self.held.extend(self.inner.next_round(round));
        if round.raw() % 4 != 3 {
            return Vec::new();
        }
        let mut per_home = [0usize; 8];
        for t in &self.held {
            per_home[t.home.index()] += 1;
        }
        self.widest = self.widest.max(per_home.into_iter().max().unwrap_or(0));
        std::mem::take(&mut self.held)
    }
}

#[test]
fn empty_and_crowded_rounds_inject_like_the_simulator() {
    let bed = bed(8, 3, UniformMetric::new(8));
    let load = AdversaryConfig {
        burstiness: 6,
        ..uniform_load(0.3, 61)
    };
    let clumped = || Clumped {
        inner: Adversary::new(&bed.sys, &bed.map, load),
        held: Vec::new(),
        widest: 0,
    };
    let mut alone = clumped();
    for r in 0..600 {
        alone.next_round(Round(r));
    }
    assert!(alone.widest >= 3, "the source must crowd a home shard");
    let inert = FaultPlan::default();
    let bds = bds(SchedulerKind::Bds);
    assert_sim_equals_net("bds/clumped", &bds, &bed, clumped, 600, &inert, &[1, 3]);
}

#[test]
fn fds_behind_an_ingest_pipeline() {
    // The streaming producer and the mempool in front of FDS: both
    // engines drain the pipeline a round at a time and must see the same
    // admitted batches and ingestion counters.
    let bed = bed(8, 3, LineMetric::new(8));
    let pipeline = || {
        let kind = StreamKind::Zipf { exponent: 0.6 };
        let shape = WorkloadShape::WriteOnly;
        let stream = StreamSource::new(&bed.sys, &bed.map, kind, shape, 0.06, 4, 6, 43);
        IngestPipeline::new(stream, 16)
    };
    let mut alone = pipeline();
    for r in 0..600 {
        alone.next_round(Round(r));
    }
    let stats = alone.stats().expect("a pipeline has a mempool");
    assert!(stats.deferred > 0, "admission must bite: {stats:?}");
    let proto = FdsProtocol::new(FdsConfig::default(), bed.metric.as_ref());
    let inert = FaultPlan::default();
    assert_sim_equals_net("fds/mempool", &proto, &bed, pipeline, 600, &inert, &[1, 8]);
}

#[test]
fn order_check_on_what_either_engine_leaves_behind() {
    // The chains the two engines return are equal (asserted by the
    // helper), so one check covers both; BDS and the zoo kinds serialize
    // conflicting transactions by construction, FDS under the strict
    // window `W = 1`.
    let bed = bed(8, 3, UniformMetric::new(8));
    let load = uniform_load(0.08, 47);
    let source = || Adversary::new(&bed.sys, &bed.map, load);
    let mut generator = source();
    let txns: BTreeMap<_, _> = (0..500)
        .flat_map(|r| generator.generate(Round(r)))
        .map(|t| (t.id, t))
        .collect();
    let strict = FdsConfig {
        pipeline_window: 1,
        ..FdsConfig::default()
    };
    let fds = FdsProtocol::new(strict, bed.metric.as_ref());
    let inert = FaultPlan::default();
    let outcomes = [
        assert_sim_equals_net(
            "order/bds",
            &bds(SchedulerKind::Bds),
            &bed,
            source,
            500,
            &inert,
            &[8],
        ),
        assert_sim_equals_net(
            "order/edf",
            &bds(SchedulerKind::Edf),
            &bed,
            source,
            500,
            &inert,
            &[8],
        ),
        assert_sim_equals_net("order/fds", &fds, &bed, source, 500, &inert, &[8]),
    ];
    for out in outcomes {
        let kind = out.report.scheduler;
        assert!(out.chains.iter().any(|c| !c.is_empty()), "{kind}");
        let violations = check_cross_shard_order(&out.chains, &txns);
        assert_eq!(violations, Vec::new(), "{kind}");
    }
}

/// A row under a live migration schedule: `initial` active shards at
/// round 0 stepped through `events`, provisioned for the schedule's
/// maximum, homes and groupings following the live placement version.
/// Beyond the contract, no committed transaction may be lost or doubled
/// across the migration — on the chains and log both engines agree on.
fn assert_reshard_row(
    kind: SchedulerKind,
    initial: usize,
    events: &[(i64, u64)],
    metric: fn(usize) -> Box<dyn ShardMetric>,
    seed: u64,
    rounds: u64,
    workers: &[usize],
) {
    let cfg = SystemConfig {
        shards: initial, // producers draw from the initial active set
        accounts: 64,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let plan = ReshardPlan::build(initial, &cfg, events).unwrap();
    let bed = Bed {
        sys: SystemConfig {
            shards: plan.s_max,
            ..cfg.clone()
        },
        map: plan.versions[0].map.clone(),
        metric: metric(plan.s_max),
    };
    let proto = BdsProtocol {
        reshard: Some(Arc::new(plan.clone())),
        ..bds(kind)
    };
    let load = uniform_load(0.06, seed);
    let source = || ReshardSource::new(Adversary::new(&cfg, &bed.map, load), plan.clone());
    let label = format!("reshard/{kind}/{events:?}");
    let inert = FaultPlan::default();
    let out = assert_sim_equals_net(&label, &proto, &bed, source, rounds, &inert, workers);
    let audit = simnet::reshard_audit(&out.chains, &out.committed_log);
    assert_eq!(audit, (0, 0), "{label}: commits lost or doubled");
}

#[test]
fn reshard_rows() {
    let uniform = |s| Box::new(UniformMetric::new(s)) as Box<dyn ShardMetric>;
    let line = |s| Box::new(LineMetric::new(s)) as Box<dyn ShardMetric>;
    let bds = SchedulerKind::Bds;
    assert_reshard_row(bds, 4, &[(2, 60)], uniform, 61, 400, &[6]);
    assert_reshard_row(bds, 6, &[(-2, 60)], uniform, 67, 400, &[6]);
    // Two opposing events over a line: handoffs ride the longest links
    // the metric allows and must still land before the first
    // post-migration epoch check.
    assert_reshard_row(bds, 4, &[(2, 40), (-3, 120)], line, 71, 500, &[6]);
    // Resharding lives in the shared epoch protocol, so every hosted
    // policy inherits it — at every worker count.
    for kind in epoch_hosted_kinds() {
        assert_reshard_row(kind, 4, &[(2, 60)], uniform, 37, 300, &[1, 6, 13]);
    }
}

#[test]
fn faulted_rows() {
    // Every kind of fault at once: lossy and duplicating links, a shard
    // crashing mid-run, and a full Byzantine quota (f = 1) — at one
    // worker, one per shard, and 2s + 1.
    let plan = FaultPlan {
        seed: 9,
        drop_prob: 0.02,
        dup_prob: 0.01,
        crashes: vec![(ShardId(5), Round(300))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let workers = [1, 8, 17];
    let load = uniform_load(0.06, 41);
    let uniform = bed(8, 3, UniformMetric::new(8));
    let on_uniform = || Adversary::new(&uniform.sys, &uniform.map, load);
    let line = bed(8, 3, LineMetric::new(8));
    let on_line = || Adversary::new(&line.sys, &line.map, load);
    let (bds, fds) = (
        bds(SchedulerKind::Bds),
        FdsProtocol::new(FdsConfig::default(), line.metric.as_ref()),
    );
    let outcomes = [
        assert_sim_equals_net(
            "faulted/bds/uniform",
            &bds,
            &uniform,
            on_uniform,
            900,
            &plan,
            &workers,
        ),
        assert_sim_equals_net(
            "faulted/bds/line",
            &bds,
            &line,
            on_line,
            1200,
            &plan,
            &workers,
        ),
        assert_sim_equals_net(
            "faulted/fds/line",
            &fds,
            &line,
            on_line,
            1200,
            &plan,
            &workers,
        ),
    ];
    for out in outcomes {
        let faults = out.report.faults;
        let kind = out.report.scheduler;
        assert_eq!(faults.crashes, 1, "{kind}: {faults:?}");
        assert!(
            faults.dropped > 0 && faults.duplicated > 0,
            "{kind}: {faults:?}"
        );
        assert!(faults.byz_flips > 0, "{kind}: {faults:?}");
    }
}

#[test]
fn samples_that_change_every_round_or_freeze() {
    // A Byzantine quota makes every live shard's cumulative flip count
    // change every round; the crashed shard's samples freeze from round
    // 150 on. One worker and three (ranges of 2, 3 and 3 shards).
    let plan = FaultPlan {
        crashes: vec![(ShardId(5), Round(150))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let bed = bed(8, 3, UniformMetric::new(8));
    let load = AdversaryConfig {
        burstiness: 6,
        ..uniform_load(0.06, 67)
    };
    let source = || Adversary::new(&bed.sys, &bed.map, load);
    let bds = bds(SchedulerKind::Bds);
    let out = assert_sim_equals_net("samples/bds", &bds, &bed, source, 500, &plan, &[1, 3]);
    // Seven live shards flip one vote a round; the crashed one stops.
    assert_eq!(out.report.faults.byz_flips, 7 * 500 + 150);
    assert_eq!(out.report.faults.crashes, 1);
    let timeline = out.report.metrics.expect("metrics on").timeline;
    assert_eq!(
        timeline.iter().map(|row| row.byz_flips).sum::<u64>(),
        7 * 500 + 150
    );
    assert_eq!(
        timeline.iter().map(|row| row.crashed_shards_max).max(),
        Some(1)
    );
}

/// What the order test sees happen, in the order it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    /// The source handed out round `r`.
    Pull(u64),
    /// A shard stepped a round.
    Step { round: u64, shard: u32 },
}

type SeenLog = Arc<Mutex<Vec<Seen>>>;

/// `P`, with every node step logged.
struct Logged<P> {
    inner: P,
    log: SeenLog,
}

/// `N`, logging its steps. It asks to be stepped every round (the
/// default wake): a step before the inner node's wake with an empty inbox
/// is a no-op, so the run is the inner protocol's.
struct LoggedNode<N> {
    inner: N,
    id: ShardId,
    log: SeenLog,
}

impl<N: Node> Node for LoggedNode<N> {
    type Msg = N::Msg;

    fn msg_bytes(msg: &N::Msg) -> usize {
        N::msg_bytes(msg)
    }

    fn inject(&mut self, txn: Transaction) {
        self.inner.inject(txn);
    }

    fn step<S: Seam<N::Msg>>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (ShardId, N::Msg)>,
        lent: Lent<'_>,
        seam: &mut S,
    ) {
        self.log.lock().unwrap().push(Seen::Step {
            round,
            shard: self.id.0,
        });
        self.inner.step(round, inbox, lent, seam);
    }

    fn sample(&self) -> [u64; 4] {
        self.inner.sample()
    }
}

impl<P: Protocol<Node: 'static>> Protocol for Logged<P> {
    type Node = LoggedNode<P::Node>;

    fn initial_balance(&self) -> u64 {
        self.inner.initial_balance()
    }

    fn node(&self, id: ShardId, metric: &dyn ShardMetric) -> Self::Node {
        LoggedNode {
            inner: self.inner.node(id, metric),
            id,
            log: self.log.clone(),
        }
    }

    fn policy(&self, sys: &SystemConfig) -> Box<dyn Scheduler> {
        self.inner.policy(sys)
    }

    fn fault_free_only(node: &Self::Node) -> bool {
        P::fault_free_only(&node.inner)
    }

    fn round_row(
        node: &Self::Node,
        round: u64,
        samples: impl Iterator<Item = [u64; 4]>,
        faulty: bool,
    ) -> metrics::RoundRow {
        P::round_row(&node.inner, round, samples, faulty)
    }

    fn epochs<'a>(nodes: impl Iterator<Item = &'a Self::Node>, rounds: u64) -> (u64, u64)
    where
        Self::Node: 'a,
    {
        P::epochs(nodes.map(|node| &node.inner), rounds)
    }
}

/// A source that logs each round it hands out.
struct LoggedSource {
    inner: Adversary,
    log: SeenLog,
}

impl RoundSource for LoggedSource {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        self.log.lock().unwrap().push(Seen::Pull(round.raw()));
        self.inner.next_round(round)
    }
}

#[test]
fn each_round_is_pulled_after_every_step_of_the_round_before() {
    const ROUNDS: u64 = 60;
    let bed = bed(8, 3, UniformMetric::new(8));
    let log = SeenLog::default();
    let proto = Logged {
        inner: bds(SchedulerKind::Bds),
        log: log.clone(),
    };
    for workers in [1, 2, bed.sys.shards] {
        for rounds in [0, ROUNDS] {
            let mut source = LoggedSource {
                inner: Adversary::new(&bed.sys, &bed.map, uniform_load(0.08, 53)),
                log: log.clone(),
            };
            let run = NetRun {
                sys: &bed.sys,
                map: &bed.map,
                metric: bed.metric.as_ref(),
                faults: &FaultPlan::default(),
                workers,
                metrics: false,
            };
            let out = run.run(&proto, &mut source, Round(rounds));
            assert!(rounds == 0 || out.report.committed > 0, "{workers} workers");
            let seen = std::mem::take(&mut *log.lock().unwrap());
            // Pull(r) before every step of r, every step of r before Pull(r + 1).
            let order = |e: &Seen| match *e {
                Seen::Pull(r) => (r, 0),
                Seen::Step { round, .. } => (round, 1),
            };
            assert!(seen.is_sorted_by_key(order), "{workers} workers: {seen:?}");
            let (pulls, mut steps): (Vec<_>, Vec<_>) =
                seen.into_iter().partition(|e| matches!(e, Seen::Pull(_)));
            let each_round: Vec<_> = (0..rounds).map(Seen::Pull).collect();
            assert_eq!(pulls, each_round, "{workers} workers: one pull per round");
            steps.sort();
            let every =
                (0..rounds).flat_map(|round| (0..8).map(move |shard| Seen::Step { round, shard }));
            assert!(
                steps.into_iter().eq(every),
                "{workers} workers: one step per shard-round"
            );
        }
    }
}

#[test]
fn a_run_of_zero_rounds_is_the_simulators_empty_report() {
    let bed = bed(8, 3, UniformMetric::new(8));
    for metrics in [false, true] {
        let mut sim = Sim::host(
            &bds(SchedulerKind::Bds),
            &bed.sys,
            &bed.map,
            bed.metric.as_ref(),
            &FaultPlan::default(),
        );
        if metrics {
            sim.enable_metrics();
        }
        let sim = sim.finish();
        assert_eq!(sim.metrics.is_some(), metrics);
        for workers in [1, 3] {
            let run = NetRun {
                sys: &bed.sys,
                map: &bed.map,
                metric: bed.metric.as_ref(),
                faults: &FaultPlan::default(),
                workers,
                metrics,
            };
            let mut source = Adversary::new(&bed.sys, &bed.map, uniform_load(0.3, 61));
            let out = run.run(&bds(SchedulerKind::Bds), &mut source, Round(0));
            let label = format!("{workers} workers, metrics {metrics}");
            assert_eq!(
                report_fingerprint(&out.report),
                report_fingerprint(&sim),
                "{label}"
            );
            assert_eq!(out.report.metrics, sim.metrics, "{label}: timeline");
            assert_eq!((out.report.rounds, out.report.generated), (0, 0));
            assert!(out.report.queue_series.samples().is_empty());
            assert!(out.committed_log.is_empty() && out.chains_verified);
        }
    }
}
