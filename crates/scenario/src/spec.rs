//! Fully resolved job specifications and the key/value assignment logic
//! shared by the base section and grid axes of a scenario file.

use adversary::{
    saturation_offered, IngestPipeline, StrategyKind, StreamKind, StreamSource, WorkloadShape,
};
use cluster::MetricKind;
use conflict::ColoringStrategy;
use metrics::MetricsMode;
use runtime::EngineKind;
use schedulers::SchedulerKind;
use sharding_core::{bounds, AccountMap, ReshardPlan, Round, ShardId, SystemConfig, VnodeTable};
use simnet::FaultPlan;
use std::str::FromStr;

/// Parses the `crash = S@R[; S@R...]` spelling (or `none`, so a grid
/// axis can sweep crash schedules against a crash-free control).
fn parse_crashes(value: &str) -> Result<Vec<(u32, u64)>, String> {
    if value == "none" {
        return Ok(Vec::new());
    }
    value
        .split(';')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(|item| {
            let (shard, round) = item
                .split_once('@')
                .ok_or_else(|| format!("crash entry `{item}` is not SHARD@ROUND"))?;
            let shard: u32 = shard
                .trim()
                .parse()
                .map_err(|_| format!("crash shard `{shard}` is not an integer"))?;
            let round: u64 = round
                .trim()
                .parse()
                .map_err(|_| format!("crash round `{round}` is not an integer"))?;
            Ok((shard, round))
        })
        .collect()
}

/// Parses the `reshard = +N@R[; -N@R...]` spelling (or `none`, so a
/// grid axis can sweep migration schedules against a static control).
fn parse_reshard(value: &str) -> Result<Vec<(i64, u64)>, String> {
    if value == "none" {
        return Ok(Vec::new());
    }
    value
        .split(';')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(|item| {
            let (delta, round) = item
                .split_once('@')
                .ok_or_else(|| format!("reshard entry `{item}` is not +N@ROUND or -N@ROUND"))?;
            let delta = delta.trim();
            if !delta.starts_with('+') && !delta.starts_with('-') {
                return Err(format!(
                    "reshard delta `{delta}` needs an explicit sign (+N joins, -N retires)"
                ));
            }
            let delta: i64 = delta
                .parse()
                .map_err(|_| format!("reshard delta `{delta}` is not an integer"))?;
            let round: u64 = round
                .trim()
                .parse()
                .map_err(|_| format!("reshard round `{round}` is not an integer"))?;
            Ok((delta, round))
        })
        .collect()
}

/// How accounts are placed onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Balanced random placement with an explicit seed
    /// ([`AccountMap::random`]).
    Random(u64),
    /// Deterministic round-robin placement ([`AccountMap::round_robin`]).
    RoundRobin,
    /// Consistent-hash placement through the vnode table
    /// ([`VnodeTable::balanced`]) — required by (and the only placement
    /// that supports) `reshard` schedules, because migrations are
    /// expressed as vnode re-assignments.
    Vnode,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Random(seed) => write!(f, "random:{seed}"),
            Placement::RoundRobin => write!(f, "round-robin"),
            Placement::Vnode => write!(f, "vnode"),
        }
    }
}

impl FromStr for Placement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None if s == "round-robin" => Ok(Placement::RoundRobin),
            None if s == "vnode" => Ok(Placement::Vnode),
            Some(("random", seed)) => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("`{seed}` is not an integer"))?;
                Ok(Placement::Random(seed))
            }
            _ => Err(format!(
                "unknown placement `{s}` (expected random:SEED, round-robin, or vnode)"
            )),
        }
    }
}

/// The draft a scenario accumulates while assignments are applied: the
/// [`JobSpec`] under construction plus the three spellings that can only
/// be bound once the whole job is known, because they resolve against
/// `rounds`, `b` and `shards`.
#[derive(Debug, Clone)]
pub(crate) struct JobDraft {
    spec: JobSpec,
    /// `accounts` was assigned (otherwise it follows `shards`).
    accounts_set: bool,
    /// `strategy = count-burst:auto`.
    auto_burst: bool,
    /// `coloring = heavy-light:auto`.
    auto_threshold: bool,
}

impl Default for JobDraft {
    fn default() -> Self {
        JobDraft {
            spec: JobSpec {
                scenario: String::new(),
                index: 0,
                overrides: Vec::new(),
                scheduler: SchedulerKind::Bds,
                engine: EngineKind::Sim,
                metric: MetricKind::Uniform,
                shards: 64,
                accounts: 64,
                k: 8,
                nodes_per_shard: 4,
                faulty_per_shard: 1,
                placement: Placement::Random(1),
                rounds: 8_000,
                rho: 0.1,
                b: 1,
                strategy: StrategyKind::UniformRandom,
                shape: WorkloadShape::WriteOnly,
                seed: 42,
                coloring: ColoringStrategy::Greedy,
                rotate_leader: true,
                reschedule: true,
                pipeline_window: 16,
                sublayers: 2,
                epoch_scale: 1,
                respect_capacity: true,
                check_order: false,
                fault_seed: 1,
                drop_prob: 0.0,
                dup_prob: 0.0,
                drop_budget: u64::MAX,
                crashes: Vec::new(),
                byz_votes: 0,
                mempool: None,
                stream: None,
                offered: None,
                metrics: MetricsMode::Off,
                reshard: Vec::new(),
            },
            accounts_set: false,
            auto_burst: false,
            auto_threshold: false,
        }
    }
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" | "on" | "yes" => Ok(true),
        "false" | "off" | "no" => Ok(false),
        other => Err(format!("`{other}` is not a boolean (true/false)")),
    }
}

fn parse_num<T: FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("`{v}` is not {what}"))
}

/// A cross-key validation failure: the scenario keys the rule blames
/// (the planner points at the last line assigning one of them) and the
/// message.
pub(crate) type Blame = (&'static [&'static str], String);

/// The keys that ask the fault plane for something.
const FAULT_KEYS: &[&str] = &["drop-prob", "dup-prob", "crash", "byzantine-votes"];

impl JobDraft {
    /// Applies one `key = value` assignment. `name` and `description` are
    /// handled by the parser, not here.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        let spec = &mut self.spec;
        match key {
            "scheduler" => spec.scheduler = value.parse()?,
            "engine" => spec.engine = value.parse()?,
            "metric" => spec.metric = value.parse()?,
            "shards" => spec.shards = parse_num(value, "an integer")?,
            "accounts" => {
                spec.accounts = parse_num(value, "an integer")?;
                self.accounts_set = true;
            }
            "k" => spec.k = parse_num(value, "an integer")?,
            "nodes-per-shard" => spec.nodes_per_shard = parse_num(value, "an integer")?,
            "faulty-per-shard" => spec.faulty_per_shard = parse_num(value, "an integer")?,
            "placement" => spec.placement = value.parse()?,
            "rounds" => spec.rounds = parse_num(value, "an integer")?,
            "rho" => spec.rho = parse_num(value, "a number")?,
            "b" => spec.b = parse_num(value, "an integer")?,
            "strategy" => {
                self.auto_burst = value == "count-burst:auto";
                if !self.auto_burst {
                    spec.strategy = value.parse()?;
                }
            }
            "shape" => spec.shape = value.parse()?,
            "seed" => spec.seed = parse_num(value, "an integer")?,
            "coloring" => {
                self.auto_threshold = value == "heavy-light:auto";
                if !self.auto_threshold {
                    spec.coloring = value.parse()?;
                }
            }
            "rotate-leader" => spec.rotate_leader = parse_bool(value)?,
            "reschedule" => spec.reschedule = parse_bool(value)?,
            "pipeline-window" => spec.pipeline_window = parse_num(value, "an integer")?,
            "sublayers" => spec.sublayers = parse_num(value, "an integer")?,
            "epoch-scale" => spec.epoch_scale = parse_num(value, "an integer")?,
            "respect-capacity" => spec.respect_capacity = parse_bool(value)?,
            "check-order" => spec.check_order = parse_bool(value)?,
            "fault-seed" => spec.fault_seed = parse_num(value, "an integer")?,
            "drop-prob" => spec.drop_prob = parse_num(value, "a number")?,
            "dup-prob" => spec.dup_prob = parse_num(value, "a number")?,
            "drop-budget" => spec.drop_budget = parse_num(value, "an integer")?,
            "crash" => spec.crashes = parse_crashes(value)?,
            "byzantine-votes" => spec.byz_votes = parse_num(value, "an integer")?,
            "mempool" => spec.mempool = Some(parse_num(value, "an integer")?),
            "stream" => spec.stream = Some(value.parse()?),
            "offered" => spec.offered = Some(parse_num(value, "an integer")?),
            "metrics" => spec.metrics = value.parse()?,
            "reshard" => spec.reshard = parse_reshard(value)?,
            other => return Err(format!("unknown key `{other}`")),
        }
        Ok(())
    }

    /// Binds the late spellings and validates the result into a
    /// [`JobSpec`].
    pub fn resolve(
        &self,
        scenario: &str,
        index: usize,
        overrides: Vec<(String, String)>,
    ) -> Result<JobSpec, Blame> {
        let mut spec = self.spec.clone();
        spec.scenario = scenario.to_string();
        spec.index = index;
        spec.overrides = overrides;
        if !self.accounts_set {
            spec.accounts = spec.shards;
        }
        if self.auto_burst {
            spec.strategy = StrategyKind::CountBurst {
                burst_round: (spec.rounds / 10).max(1),
                count: spec.b,
            };
        }
        if self.auto_threshold {
            spec.coloring = ColoringStrategy::HeavyLight {
                threshold: bounds::ceil_sqrt(spec.shards),
            };
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// One fully resolved, validated sweep job: a pure description of a
/// single simulation run. Running a `JobSpec` twice — on any thread —
/// produces identical reports.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Name of the scenario this job came from.
    pub scenario: String,
    /// Position in the expanded plan (grid cross-product order).
    pub index: usize,
    /// The grid assignments that produced this job, in axis order —
    /// `(key, value)` raw strings, used to label report rows.
    pub overrides: Vec<(String, String)>,
    /// Which scheduler runs the job.
    pub scheduler: SchedulerKind,
    /// Which execution engine runs it: the shared-memory simulator or
    /// the concurrent networked runtime (fault-free runs of the
    /// two are byte-identical, test-enforced).
    pub engine: EngineKind,
    /// Shard metric shape.
    pub metric: MetricKind,
    /// Number of shards `s`.
    pub shards: usize,
    /// Total shared accounts.
    pub accounts: usize,
    /// Max shards per transaction `k`.
    pub k: usize,
    /// Nodes per shard `n_i`.
    pub nodes_per_shard: usize,
    /// Byzantine nodes per shard `f_i`.
    pub faulty_per_shard: usize,
    /// Account placement.
    pub placement: Placement,
    /// Simulated rounds.
    pub rounds: u64,
    /// Injection rate `ρ`.
    pub rho: f64,
    /// Burstiness `b`.
    pub b: u64,
    /// Adversarial strategy (fully resolved).
    pub strategy: StrategyKind,
    /// Workload shape.
    pub shape: WorkloadShape,
    /// Adversary seed.
    pub seed: u64,
    /// Coloring algorithm (fully resolved).
    pub coloring: ColoringStrategy,
    /// BDS: rotate the epoch leader.
    pub rotate_leader: bool,
    /// FDS: enable rescheduling periods.
    pub reschedule: bool,
    /// FDS: vote pipeline window `W`.
    pub pipeline_window: usize,
    /// FDS: hierarchy sublayers `H2`.
    pub sublayers: usize,
    /// FDS: epoch scale constant `c`.
    pub epoch_scale: u64,
    /// FCFS: charge per-shard capacity.
    pub respect_capacity: bool,
    /// Run the cross-shard serialization-order checker over the chains
    /// afterwards (FCFS keeps none, so there it checks nothing).
    pub check_order: bool,
    /// Net engine: seed of the fault plane's ChaCha streams.
    pub fault_seed: u64,
    /// Net engine: per-link message-drop probability.
    pub drop_prob: f64,
    /// Net engine: per-link message-duplication probability.
    pub dup_prob: f64,
    /// Net engine: max drops per directed link (`u64::MAX` = unlimited).
    pub drop_budget: u64,
    /// Net engine: `(shard, round)` crash schedule.
    pub crashes: Vec<(u32, u64)>,
    /// Net engine: Byzantine voters per intra-shard consensus instance.
    pub byz_votes: usize,
    /// Firehose: per-home-shard mempool lane capacity (`None` = the
    /// legacy inline generator, no ingestion plane).
    pub mempool: Option<usize>,
    /// Firehose: which account distribution the producer streams.
    pub stream: Option<StreamKind>,
    /// Firehose: transactions offered per round (`None` = saturation
    /// default, 4× the `(ρ, b)`-sustainable rate).
    pub offered: Option<u64>,
    /// How much of the metrics plane to record (`off` keeps every legacy
    /// byte untouched; `summary` fills the percentile columns; `full`
    /// additionally emits the per-epoch timeline JSONL).
    pub metrics: MetricsMode,
    /// Elastic reshard schedule: signed shard-count deltas by round
    /// (`+N@R` activates the `N` lowest inactive ids, `-N@R` retires the
    /// `N` highest active ids). Empty = static placement. `shards` stays
    /// the *initial* active count; the provisioned system spans the
    /// schedule's maximum (see [`system_config`](Self::system_config)).
    pub reshard: Vec<(i64, u64)>,
}

impl JobSpec {
    /// The system configuration this job runs against. For reshard jobs
    /// this is the *provisioned* system — `shards` spans the schedule's
    /// maximum active count, because every provisioned shard is a
    /// protocol participant from round 0 (inactive ones simply own no
    /// vnodes until their join event).
    pub fn system_config(&self) -> SystemConfig {
        let shards = self.reshard_plan().map_or(self.shards, |plan| plan.s_max);
        SystemConfig {
            shards,
            nodes_per_shard: self.nodes_per_shard,
            faulty_per_shard: self.faulty_per_shard,
            k_max: self.k,
            accounts: self.accounts,
        }
    }

    /// The precomputed migration plan, or `None` for static jobs.
    pub fn reshard_plan(&self) -> Option<ReshardPlan> {
        self.try_reshard_plan()
            .expect("reshard schedule validated at resolve time")
    }

    /// Builds the migration plan, validating the schedule itself (event
    /// ordering, active-set floor, provisioned-capacity system bounds).
    fn try_reshard_plan(&self) -> Result<Option<ReshardPlan>, String> {
        if self.reshard.is_empty() {
            return Ok(None);
        }
        let cfg = SystemConfig {
            shards: self.shards,
            nodes_per_shard: self.nodes_per_shard,
            faulty_per_shard: self.faulty_per_shard,
            k_max: self.k,
            accounts: self.accounts,
        };
        ReshardPlan::build(self.shards, &cfg, &self.reshard).map(Some)
    }

    /// The cross-key rules: every way a set of individually well-formed
    /// assignments can still describe no runnable job. Each failure names
    /// the keys it blames so the planner can attribute it to a line.
    fn validate(&self) -> Result<(), Blame> {
        let fail = |keys: &'static [&'static str], msg: String| Err((keys, msg));
        if !(self.rho > 0.0 && self.rho <= 1.0) {
            return fail(
                &["rho"],
                format!("rho must satisfy 0 < rho <= 1, got {}", self.rho),
            );
        }
        if self.b == 0 {
            return fail(&["b"], "b must be >= 1".into());
        }
        if self.rounds == 0 {
            return fail(&["rounds"], "rounds must be >= 1".into());
        }
        if self.pipeline_window == 0 {
            return fail(&["pipeline-window"], "pipeline-window must be >= 1".into());
        }
        if self.sublayers == 0 {
            return fail(&["sublayers"], "sublayers must be >= 1".into());
        }
        if self.nodes_per_shard <= 3 * self.faulty_per_shard {
            // Checked here (not only in SystemConfig::validate) so the
            // failure carries the quorum keys.
            return fail(
                &["nodes-per-shard", "faulty-per-shard"],
                format!(
                    "nodes-per-shard = {} does not satisfy n > 3f for \
                     faulty-per-shard = {} (PBFT quorum impossible)",
                    self.nodes_per_shard, self.faulty_per_shard
                ),
            );
        }
        if self.engine == EngineKind::Net && !self.scheduler.supports_net() {
            return fail(
                &["engine", "scheduler"],
                format!(
                    "engine = net does not support scheduler = {} (fcfs is an idealized \
                     centralized baseline with no networked protocol)",
                    self.scheduler.name()
                ),
            );
        }
        let faults = self.fault_plan();
        let faults_requested = !faults.is_inert();
        if faults_requested && self.engine != EngineKind::Net {
            return fail(
                FAULT_KEYS,
                "fault keys (drop-prob, dup-prob, crash, byzantine-votes) require \
                 engine = net — the simulator never injects faults"
                    .into(),
            );
        }
        if self.byz_votes > self.faulty_per_shard {
            return fail(
                &["byzantine-votes", "faulty-per-shard"],
                format!(
                    "byzantine-votes = {} exceeds faulty-per-shard = {} — a shard \
                     cannot flip more voters than it declares Byzantine",
                    self.byz_votes, self.faulty_per_shard
                ),
            );
        }
        if let Some(cap) = self.mempool {
            if cap == 0 {
                return fail(&["mempool"], "mempool capacity must be >= 1".into());
            }
            if self.stream.is_none() {
                return fail(
                    &["mempool"],
                    "mempool requires stream = zipf:<exponent> | shift:<period> \
                     (the ingestion plane needs a streaming producer)"
                        .into(),
                );
            }
        } else {
            if self.stream.is_some() {
                return fail(&["stream"], "stream requires mempool = CAPACITY".into());
            }
            if self.offered.is_some() {
                return fail(&["offered"], "offered requires mempool = CAPACITY".into());
            }
        }
        if self.offered == Some(0) {
            return fail(&["offered"], "offered must be >= 1".into());
        }
        if !self.reshard.is_empty() {
            if self.placement != Placement::Vnode {
                return fail(
                    &["reshard", "placement"],
                    "reshard requires placement = vnode (migration schedules are \
                     vnode-table re-assignments)"
                        .into(),
                );
            }
            if matches!(self.scheduler, SchedulerKind::Fds | SchedulerKind::Fcfs) {
                return fail(
                    &["reshard", "scheduler"],
                    format!(
                        "reshard requires an epoch-hosted scheduler (bds or a zoo \
                         policy); {} has no epoch boundary to switch tables at",
                        self.scheduler
                    ),
                );
            }
            if faults_requested {
                return fail(
                    &["reshard"],
                    "reshard cannot be combined with fault keys — the zero-loss \
                     migration audit is defined for fault-free runs"
                        .into(),
                );
            }
            self.try_reshard_plan().map_err(|m| (&["reshard"][..], m))?;
        }
        let sys = self.system_config();
        sys.validate()
            .map_err(|e| (&["shards", "accounts", "k"][..], e.to_string()))?;
        // The metric spans the provisioned shard count (reshard jobs
        // provision for the schedule's maximum).
        self.metric
            .build(sys.shards)
            .map_err(|m| (&["metric", "shards"][..], m))?;
        faults.validate(self.shards).map_err(|m| (FAULT_KEYS, m))
    }

    /// The account placement map this job runs against. For reshard
    /// jobs this is the plan's version-0 map (only initially active
    /// shards own accounts).
    pub fn account_map(&self) -> AccountMap {
        let sys = self.system_config();
        match self.placement {
            Placement::Random(seed) => AccountMap::random(&sys, seed),
            Placement::RoundRobin => AccountMap::round_robin(&sys),
            Placement::Vnode => match self.reshard_plan() {
                Some(plan) => plan.versions[0].map.clone(),
                None => VnodeTable::balanced(self.shards).account_map(&sys),
            },
        }
    }

    /// The adversary configuration this job runs against.
    pub fn adversary_config(&self) -> adversary::AdversaryConfig {
        adversary::AdversaryConfig {
            rho: self.rho,
            burstiness: self.b,
            strategy: self.strategy,
            shape: self.shape,
            seed: self.seed,
        }
    }

    /// The fault plane this job injects (inert unless fault keys are
    /// set; only the net engine consumes it).
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.fault_seed,
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
            drop_budget: self.drop_budget,
            crashes: self
                .crashes
                .iter()
                .map(|&(s, r)| (ShardId(s), Round(r)))
                .collect(),
            byz_votes: self.byz_votes,
        }
    }

    /// The round-by-round offered rate of this job's firehose producer
    /// (explicit `offered`, or the saturation default).
    pub fn offered_rate(&self) -> u64 {
        self.offered
            .unwrap_or_else(|| saturation_offered(self.rho, self.shards, self.k))
    }

    /// The streaming ingestion pipeline for firehose jobs, or `None`
    /// when the job uses the legacy inline generator. `sys`/`map` must
    /// be this job's own [`system_config`](Self::system_config) /
    /// [`account_map`](Self::account_map).
    pub fn ingest_pipeline(&self, sys: &SystemConfig, map: &AccountMap) -> Option<IngestPipeline> {
        let capacity = self.mempool?;
        let kind = self.stream.expect("validated: stream accompanies mempool");
        let source = StreamSource::new(
            sys,
            map,
            kind,
            self.shape,
            self.rho,
            self.b,
            self.offered_rate(),
            self.seed,
        );
        Some(IngestPipeline::new(source, capacity))
    }

    /// Compact human label: the grid overrides that produced this job,
    /// or `"(base)"` when the plan has no grid.
    pub fn label(&self) -> String {
        if self.overrides.is_empty() {
            "(base)".to_string()
        } else {
            self.overrides
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
    }

    /// One-line deterministic description, used by `blockshard plan` and
    /// the golden parser tests.
    pub fn plan_line(&self) -> String {
        // The firehose token group is present only for mempool jobs so
        // legacy plan goldens stay byte-identical.
        let firehose = match (self.mempool, self.stream) {
            (Some(cap), Some(kind)) => {
                format!(
                    "mempool={cap} stream={kind} offered={} ",
                    self.offered_rate()
                )
            }
            _ => String::new(),
        };
        // Likewise the metrics token appears only when the plane is on.
        let metrics = match self.metrics {
            MetricsMode::Off => String::new(),
            mode => format!("metrics={mode} "),
        };
        // And the reshard token only for migration jobs.
        let reshard = if self.reshard.is_empty() {
            String::new()
        } else {
            format!(
                "reshard={} ",
                self.reshard
                    .iter()
                    .map(|(d, r)| format!("{d:+}@{r}"))
                    .collect::<Vec<_>>()
                    .join(";")
            )
        };
        format!(
            "job {:>3}: {} engine={} {} s={} k={} rounds={} rho={} b={} strategy={} shape={} seed={} {firehose}{metrics}{reshard}[{}]",
            self.index,
            self.scheduler,
            self.engine,
            self.metric,
            self.shards,
            self.k,
            self.rounds,
            self.rho,
            self.b,
            self.strategy,
            self.shape,
            self.seed,
            self.label(),
        )
    }
}
