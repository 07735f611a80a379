//! The four workloads, each a closed run-to-completion job: build the
//! system and its whole input from the seed (set-up), then run it to the
//! last round on one thread (the timed region).
//!
//! All four share the paper's Section 7 system: 64 shards of 4 nodes with
//! one tolerated fault, `k = 8`. They differ in which layers carry the
//! timed region:
//!
//! | workload | timed region is mostly |
//! |---|---|
//! | `sim_bds_uniform` | `schedulers::bds` + `conflict` + `simnet`, small dense batches |
//! | `sim_fds_line` | `schedulers::fds` + `cluster`; bypasses the BDS epoch pipeline |
//! | `net_bds_uniform` | `runtime` (hub, rings, gate, executor, merge) around the same BDS |
//! | `firehose_zipf` | `adversary` ingestion on the timed path, sparse 2M-account batches |

use crate::alloc::{self, AllocStats};
use crate::clock::process_cpu_ns;
use crate::trace::Tracer;
use adversary::{
    Adversary, AdversaryConfig, Mempool, MempoolStats, RoundSource, ShardBudgets, StrategyKind,
    StreamKind, StreamSource, WorkloadShape,
};
use cluster::{LineMetric, UniformMetric};
use runtime::run_net_sched_from;
use schedulers::testkit::AnySim;
use schedulers::{BdsConfig, BdsSim, FdsConfig, FdsSim, RunReport, SchedulerKind};
use sharding_core::{AccountMap, Round, SystemConfig, Transaction, TxnId};
use simnet::{FaultPlan, LocalChain};
use std::time::Instant;

/// Shards in every workload (the paper's Section 7 system).
pub const SHARDS: usize = 64;

/// Worker threads of the networked engine. One, so that no end-to-end
/// workload ever has two runnable threads: on a 2-core host a second
/// worker's CPU time swung 0.48 s ↔ 0.81 s with the other core's load.
pub const NET_WORKERS: usize = 1;

/// Rounds stepped inside one `schedulers.step` span and one lap.
pub const STEP_CHUNK: usize = 100;

/// Rounds generated per lap of set-up.
pub const GENERATE_CHUNK: u64 = 1_000;

/// Burst size and bucket depth `b` of the adversary-fed workloads.
pub const BURST: u64 = 2_000;

/// `(ρ, b)` of the firehose's live admission.
pub const FIREHOSE_RHO: f64 = 0.9;
pub const FIREHOSE_B: u64 = 64;
/// Per-lane mempool bound of the firehose.
pub const FIREHOSE_LANE: usize = 1_024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimBdsUniform,
    SimFdsLine,
    NetBdsUniform,
    FirehoseZipf,
}

/// Full size for measuring; `Mini` is the same code on a few thousand
/// rounds for the crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimBdsUniform,
        Workload::SimFdsLine,
        Workload::NetBdsUniform,
        Workload::FirehoseZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBdsUniform => "sim_bds_uniform",
            Workload::SimFdsLine => "sim_fds_line",
            Workload::NetBdsUniform => "net_bds_uniform",
            Workload::FirehoseZipf => "firehose_zipf",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimBdsUniform => {
                "paper Fig. 2: BDS, uniform metric, rho 0.15, burst 2000; closed run-to-completion job of 100k rounds; schedulers::bds + conflict + simnet on small dense batches"
            }
            Workload::SimFdsLine => {
                "paper Fig. 3: FDS, line metric, rho 0.10, burst 2000; closed job of 60k rounds; schedulers::fds + cluster, bypasses the BDS epoch pipeline"
            }
            Workload::NetBdsUniform => {
                "same BDS schedule (first 8000 rounds) through the networked runtime at one worker; closed job; about 90% runtime message plane, so it must leave both sims flat"
            }
            Workload::FirehoseZipf => {
                "Zipf(0.6) stream over 2M accounts through mempool and live admission into BDS; closed job of 750 rounds at 700 offers/round; ingestion on the timed path, sparse interned colouring"
            }
        }
    }

    /// Simulated rounds of one iteration.
    pub fn rounds(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::SimBdsUniform, Scale::Full) => 100_000,
            (Workload::SimFdsLine, Scale::Full) => 60_000,
            (Workload::NetBdsUniform, Scale::Full) => 8_000,
            (Workload::FirehoseZipf, Scale::Full) => 750,
            (Workload::FirehoseZipf, Scale::Mini) => 40,
            (_, Scale::Mini) => 2_000,
        }
    }

    /// `(ρ, b)` the injected stream must conform to.
    pub fn envelope(self) -> (f64, u64) {
        match self {
            Workload::SimBdsUniform | Workload::NetBdsUniform => (0.15, BURST),
            Workload::SimFdsLine => (0.10, BURST),
            Workload::FirehoseZipf => (FIREHOSE_RHO, FIREHOSE_B),
        }
    }
}

/// The shared system with `accounts` accounts.
pub fn system(accounts: usize) -> SystemConfig {
    SystemConfig {
        shards: SHARDS,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
        k_max: 8,
        accounts,
    }
}

/// Accounts of the firehose universe and offers per round.
pub fn firehose_size(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (2_000_000, 700),
        Scale::Mini => (20_000, 200),
    }
}

/// The adversary of an adversary-fed workload: steady rate plus the
/// paper's one-time burst a tenth of the way in. `net_bds_uniform` replays
/// the head of `sim_bds_uniform`'s schedule, so it shares its adversary.
pub fn adversary_config(w: Workload, scale: Scale, seed: u64) -> AdversaryConfig {
    let schedule_of = match w {
        Workload::NetBdsUniform => Workload::SimBdsUniform,
        other => other,
    };
    let (rho, burstiness) = w.envelope();
    AdversaryConfig {
        rho,
        burstiness,
        strategy: StrategyKind::CountBurst {
            burst_round: schedule_of.rounds(scale) / 10,
            count: BURST,
        },
        shape: WorkloadShape::WriteOnly,
        seed,
    }
}

/// The first `rounds` batches the adversary injects, with a lap every
/// [`GENERATE_CHUNK`] rounds.
pub fn generate(
    sys: &SystemConfig,
    map: &AccountMap,
    acfg: AdversaryConfig,
    rounds: u64,
    laps: &mut Laps,
) -> Vec<Vec<Transaction>> {
    let mut adv = Adversary::new(sys, map, acfg);
    let mut schedule = Vec::with_capacity(rounds as usize);
    for r in 0..rounds {
        schedule.push(adv.generate(Round(r)));
        if (r + 1) % GENERATE_CHUNK == 0 {
            laps.mark();
        }
    }
    schedule
}

/// The firehose producer for `seed`.
pub fn firehose_stream(
    sys: &SystemConfig,
    map: &AccountMap,
    scale: Scale,
    seed: u64,
) -> StreamSource {
    StreamSource::new(
        sys,
        map,
        StreamKind::Zipf { exponent: 0.6 },
        WorkloadShape::WriteOnly,
        FIREHOSE_RHO,
        FIREHOSE_B,
        firehose_size(scale).1,
        seed,
    )
}

/// One round of ingestion, decomposed into the three calls
/// `IngestPipeline::next_round` makes, so each gets its own span and lap.
/// The counted iteration checks that this yields the pipeline's batches.
pub fn ingest_round(
    stream: &mut StreamSource,
    pool: &mut Mempool,
    budgets: &mut ShardBudgets,
    round: Round,
    t: &mut Tracer,
    laps: &mut Laps,
) -> Vec<Transaction> {
    let offers = t.span("adversary.stream_offer", |_| stream.offer_round(round));
    laps.mark();
    t.span("adversary.mempool_offer", |_| {
        for (fee, txn) in offers {
            pool.offer(fee, txn);
        }
    });
    laps.mark();
    let batch = t.span("adversary.mempool_drain", |_| {
        pool.note_depth();
        budgets.tick();
        pool.drain(budgets, round)
    });
    laps.mark();
    batch
}

/// A pre-generated schedule as the engines' injection seam.
pub struct VecSource {
    batches: std::vec::IntoIter<Vec<Transaction>>,
}

impl VecSource {
    pub fn new(batches: Vec<Vec<Transaction>>) -> VecSource {
        VecSource {
            batches: batches.into_iter(),
        }
    }
}

impl RoundSource for VecSource {
    fn next_round(&mut self, _round: Round) -> Vec<Transaction> {
        self.batches.next().unwrap_or_default()
    }
}

/// What the correctness checks need from the run, cloned out after the
/// timed region ends.
pub struct Evidence {
    /// The simulators' local chains (empty for the networked engine,
    /// which reports `chains_verified` instead).
    pub chains: Vec<LocalChain>,
    pub net_chains_verified: Option<bool>,
    pub committed_log: Vec<(Round, TxnId)>,
    /// Firehose only: ingestion counters and distinct accounts streamed.
    pub ingest: Option<(MempoolStats, u64)>,
}

/// Wall and process-CPU clocks read at fixed points of an iteration, so
/// that it is timed as a sequence of *segments*. A segment does the same
/// work in every iteration of a workload, which lets the harness take each
/// segment from the iteration that ran it undisturbed (see
/// [`crate::stats::fastest_sum`]) instead of needing one whole iteration
/// to be undisturbed.
pub struct Laps {
    wall: Instant,
    cpu: u64,
    /// Nanoseconds of each completed segment.
    pub wall_ns: Vec<u64>,
    pub cpu_ns: Vec<u64>,
}

impl Laps {
    /// Starts the first segment; room for `segments` of them, so that
    /// marking does not allocate inside a timed region.
    pub fn start(segments: usize) -> Laps {
        Laps {
            wall_ns: Vec::with_capacity(segments),
            cpu_ns: Vec::with_capacity(segments),
            cpu: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Ends the current segment and starts the next.
    pub fn mark(&mut self) {
        let (wall, cpu) = (Instant::now(), process_cpu_ns());
        self.wall_ns.push((wall - self.wall).as_nanos() as u64);
        self.cpu_ns.push(cpu - self.cpu);
        (self.wall, self.cpu) = (wall, cpu);
    }
}

/// One iteration's measurements.
pub struct Iteration {
    /// Everything before the timed region, by segment.
    pub setup: Laps,
    /// The timed region, by segment.
    pub run: Laps,
    /// Allocations inside the timed region, with the live-bytes high-water
    /// mark since counting started (all zero unless counting is on).
    pub region_allocs: AllocStats,
    pub report: RunReport,
    pub evidence: Option<Evidence>,
}

/// Allocations between `since` and now, with the current high-water mark.
fn allocs_since(since: AllocStats) -> AllocStats {
    let now = alloc::snapshot();
    AllocStats {
        allocs: now.allocs - since.allocs,
        bytes: now.bytes - since.bytes,
        peak_live: now.peak_live,
    }
}

/// Steps `sim` through `schedule`, one span and one lap per [`STEP_CHUNK`]
/// rounds.
fn step_all(sim: &mut AnySim, schedule: Vec<Vec<Transaction>>, t: &mut Tracer, laps: &mut Laps) {
    let mut batches = schedule.into_iter();
    while batches.len() > 0 {
        t.span("schedulers.step", |_| {
            for batch in batches.by_ref().take(STEP_CHUNK) {
                sim.step(batch);
            }
        });
        laps.mark();
    }
}

fn sim_evidence(sim: &AnySim, ingest: Option<(MempoolStats, u64)>) -> Evidence {
    Evidence {
        chains: sim.chains().expect("BDS and FDS keep chains").to_vec(),
        net_chains_verified: None,
        committed_log: sim.committed_log().to_vec(),
        ingest,
    }
}

/// Runs one iteration of `w`: set-up from scratch, then the timed region.
/// With `evidence`, also clones out what the checks need, after the timed
/// region's counters are read.
pub fn run_iteration(
    w: Workload,
    scale: Scale,
    seed: u64,
    t: &mut Tracer,
    evidence: bool,
) -> Iteration {
    let rounds = w.rounds(scale);
    let mut setup = Laps::start((rounds / GENERATE_CHUNK) as usize + 8);
    match w {
        Workload::SimBdsUniform | Workload::SimFdsLine => {
            let (mut sim, schedule) = t.span("setup", |t| {
                let sys = system(SHARDS);
                let map = t.span("sharding-core.account_map", |_| AccountMap::random(&sys, 1));
                let acfg = adversary_config(w, scale, seed);
                let schedule = t.span("adversary.generate", |_| {
                    generate(&sys, &map, acfg, rounds, &mut setup)
                });
                let sim = t.span("schedulers.sim_new", |_| match w {
                    Workload::SimBdsUniform => AnySim::EpochHost(Box::new(BdsSim::with_metric(
                        &sys,
                        &map,
                        BdsConfig::default(),
                        &UniformMetric::new(SHARDS),
                    ))),
                    _ => AnySim::Fds(Box::new(FdsSim::new(
                        &sys,
                        &map,
                        FdsConfig::default(),
                        &LineMetric::new(SHARDS),
                    ))),
                });
                (sim, schedule)
            });
            setup.mark();
            let before = alloc::snapshot();
            let mut run = Laps::start(rounds as usize / STEP_CHUNK + 1);
            t.span("run", |t| step_all(&mut sim, schedule, t, &mut run));
            let region_allocs = allocs_since(before);
            let evidence = evidence.then(|| sim_evidence(&sim, None));
            Iteration {
                setup,
                run,
                region_allocs,
                report: sim.finish(),
                evidence,
            }
        }
        Workload::NetBdsUniform => {
            let (sys, map, metric, mut source) = t.span("setup", |t| {
                let sys = system(SHARDS);
                let map = t.span("sharding-core.account_map", |_| AccountMap::random(&sys, 1));
                let acfg = adversary_config(w, scale, seed);
                let schedule = t.span("adversary.generate", |_| {
                    generate(&sys, &map, acfg, rounds, &mut setup)
                });
                (
                    sys,
                    map,
                    UniformMetric::new(SHARDS),
                    VecSource::new(schedule),
                )
            });
            setup.mark();
            let before = alloc::snapshot();
            let mut run = Laps::start(1);
            // Opaque from outside: one call, one segment.
            let out = t.span("run", |t| {
                t.span("runtime.run_net_sched_from", |_| {
                    run_net_sched_from(
                        &sys,
                        &map,
                        &mut source,
                        Round(rounds),
                        &metric,
                        BdsConfig::default(),
                        &FaultPlan::default(),
                        SchedulerKind::Bds,
                        NET_WORKERS,
                        false,
                    )
                })
            });
            run.mark();
            let region_allocs = allocs_since(before);
            Iteration {
                setup,
                run,
                region_allocs,
                evidence: evidence.then(|| Evidence {
                    chains: Vec::new(),
                    net_chains_verified: Some(out.chains_verified),
                    committed_log: out.committed_log,
                    ingest: None,
                }),
                report: out.report,
            }
        }
        Workload::FirehoseZipf => {
            let (mut sim, mut stream, mut pool, mut budgets) = t.span("setup", |t| {
                let sys = system(firehose_size(scale).0);
                let map = t.span("sharding-core.account_map", |_| {
                    AccountMap::round_robin(&sys)
                });
                setup.mark();
                let stream = t.span("adversary.stream_new", |_| {
                    firehose_stream(&sys, &map, scale, seed)
                });
                setup.mark();
                let pool = Mempool::new(SHARDS, FIREHOSE_LANE);
                let budgets = ShardBudgets::new(SHARDS, FIREHOSE_RHO, FIREHOSE_B);
                let sim = t.span("schedulers.sim_new", |_| {
                    AnySim::EpochHost(Box::new(BdsSim::new(&sys, &map, BdsConfig::default())))
                });
                (sim, stream, pool, budgets)
            });
            setup.mark();
            let before = alloc::snapshot();
            let mut run = Laps::start(4 * rounds as usize);
            t.span("run", |t| {
                for r in 0..rounds {
                    let (stream, pool, budgets) = (&mut stream, &mut pool, &mut budgets);
                    let batch = ingest_round(stream, pool, budgets, Round(r), t, &mut run);
                    t.span("schedulers.step", |_| sim.step(batch));
                    run.mark();
                }
            });
            let region_allocs = allocs_since(before);
            let ingest = Some((pool.stats(), stream.distinct_accounts()));
            let evidence = evidence.then(|| sim_evidence(&sim, ingest));
            Iteration {
                setup,
                run,
                region_allocs,
                report: sim.finish(),
                evidence,
            }
        }
    }
}
