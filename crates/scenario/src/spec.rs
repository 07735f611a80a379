//! Fully resolved job specifications and the key/value assignment logic
//! shared by the base section and grid axes of a scenario file.

use adversary::{
    saturation_offered, AdversaryConfig, IngestPipeline, StrategyKind, StreamKind, StreamSource,
};
use cluster::MetricKind;
use conflict::ColoringStrategy;
use metrics::MetricsMode;
use runtime::EngineKind;
use schedulers::baseline::FcfsConfig;
use schedulers::bds::BdsConfig;
use schedulers::fds::FdsConfig;
use schedulers::SchedulerKind;
use sharding_core::{bounds, AccountMap, ReshardPlan, Round, ShardId, SystemConfig, VnodeTable};
use simnet::FaultPlan;
use std::str::FromStr;
use std::sync::Arc;

/// Parses a `LEFT@ROUND[; LEFT@ROUND…]` list (or `none`, so a grid axis
/// can sweep a schedule against a control without one). `what` names the
/// key in errors, `shape` spells one entry, `left` parses its left side.
fn parse_at_list<T>(
    value: &str,
    what: &str,
    shape: &str,
    left: fn(&str) -> Result<T, String>,
) -> Result<Vec<(T, u64)>, String> {
    if value == "none" {
        return Ok(Vec::new());
    }
    let entry = |item: &str| {
        let (lhs, round) = item
            .split_once('@')
            .ok_or_else(|| format!("{what} entry `{item}` is not {shape}"))?;
        let at = round.trim().parse();
        let at = at.map_err(|_| format!("{what} round `{round}` is not an integer"));
        Ok((left(lhs)?, at?))
    };
    let items = value.split(';').map(str::trim).filter(|v| !v.is_empty());
    items.map(entry).collect()
}

/// The left side of a `crash = S@R` entry: the shard.
fn parse_crash_shard(shard: &str) -> Result<ShardId, String> {
    let id = shard.trim().parse();
    id.map(ShardId)
        .map_err(|_| format!("crash shard `{shard}` is not an integer"))
}

/// The left side of a `reshard = +N@R` entry: the signed shard-count
/// delta.
fn parse_reshard_delta(delta: &str) -> Result<i64, String> {
    let delta = delta.trim();
    if !delta.starts_with('+') && !delta.starts_with('-') {
        return Err(format!(
            "reshard delta `{delta}` needs an explicit sign (+N joins, -N retires)"
        ));
    }
    delta
        .parse()
        .map_err(|_| format!("reshard delta `{delta}` is not an integer"))
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
            Some(("random", seed)) => Ok(Placement::Random(parse_num(seed, "an integer")?)),
            _ => Err(format!(
                "unknown placement `{s}` (expected random:SEED, round-robin, or vnode)"
            )),
        }
    }
}

/// The streaming ingestion plane of a firehose job. One value, so
/// `mempool` ⇔ `stream` and `offered` ⇒ `mempool` hold by type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ingest {
    /// Per-home-shard mempool lane capacity.
    pub mempool: usize,
    /// Which account distribution the producer streams.
    pub stream: StreamKind,
    /// Transactions offered per round: the `offered` key, or the
    /// saturation default (4× the `(ρ, b)`-sustainable rate).
    pub offered: u64,
}

/// The draft a scenario accumulates while assignments are applied: the
/// [`JobSpec`] under construction plus the spellings that can only be
/// bound once the whole job is known — those that resolve against
/// `rounds`, `b` and `shards`, and the three ingestion keys that pair
/// into one [`Ingest`].
#[derive(Debug, Clone)]
pub(crate) struct JobDraft {
    spec: JobSpec,
    /// `accounts` was assigned (otherwise it follows `shards`).
    accounts_set: bool,
    /// `strategy = count-burst:auto`.
    auto_burst: bool,
    /// `coloring = heavy-light:auto`.
    auto_threshold: bool,
    mempool: Option<usize>,
    stream: Option<StreamKind>,
    offered: Option<u64>,
}

/// Every default is its owning layer's own, except the two spelled out:
/// scenarios seed the adversary with 42, and FCFS charges capacity.
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
                sys: SystemConfig::paper_simulation(),
                placement: Placement::Random(1),
                rounds: 8_000,
                adv: AdversaryConfig {
                    seed: 42,
                    ..AdversaryConfig::default()
                },
                bds: BdsConfig::default(),
                fds: FdsConfig::default(),
                fcfs: FcfsConfig {
                    respect_capacity: true,
                },
                check_order: false,
                faults: FaultPlan::default(),
                ingest: None,
                metrics: MetricsMode::Off,
                reshard: Vec::new(),
                plan: None,
            },
            accounts_set: false,
            auto_burst: false,
            auto_threshold: false,
            mempool: None,
            stream: None,
            offered: None,
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

/// A plan-time failure: the scenario keys it blames (the planner points
/// at the last line assigning one of them) and the message.
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
            "shards" => spec.sys.shards = parse_num(value, "an integer")?,
            "accounts" => {
                spec.sys.accounts = parse_num(value, "an integer")?;
                self.accounts_set = true;
            }
            "k" => spec.sys.k_max = parse_num(value, "an integer")?,
            "nodes-per-shard" => spec.sys.nodes_per_shard = parse_num(value, "an integer")?,
            "faulty-per-shard" => spec.sys.faulty_per_shard = parse_num(value, "an integer")?,
            "placement" => spec.placement = value.parse()?,
            "rounds" => spec.rounds = parse_num(value, "an integer")?,
            "rho" => spec.adv.rho = parse_num(value, "a number")?,
            "b" => spec.adv.burstiness = parse_num(value, "an integer")?,
            "strategy" => {
                self.auto_burst = value == "count-burst:auto";
                if !self.auto_burst {
                    spec.adv.strategy = value.parse()?;
                }
            }
            "shape" => spec.adv.shape = value.parse()?,
            "seed" => spec.adv.seed = parse_num(value, "an integer")?,
            "coloring" => {
                self.auto_threshold = value == "heavy-light:auto";
                if !self.auto_threshold {
                    spec.bds.coloring = value.parse()?;
                    spec.fds.coloring = spec.bds.coloring;
                }
            }
            "rotate-leader" => spec.bds.rotate_leader = parse_bool(value)?,
            "reschedule" => spec.fds.reschedule = parse_bool(value)?,
            "pipeline-window" => spec.fds.pipeline_window = parse_num(value, "an integer")?,
            "sublayers" => spec.fds.sublayers = parse_num(value, "an integer")?,
            "respect-capacity" => spec.fcfs.respect_capacity = parse_bool(value)?,
            "check-order" => spec.check_order = parse_bool(value)?,
            "fault-seed" => spec.faults.seed = parse_num(value, "an integer")?,
            "drop-prob" => spec.faults.drop_prob = parse_num(value, "a number")?,
            "dup-prob" => spec.faults.dup_prob = parse_num(value, "a number")?,
            "drop-budget" => spec.faults.drop_budget = parse_num(value, "an integer")?,
            "crash" => {
                let crashes = parse_at_list(value, "crash", "SHARD@ROUND", parse_crash_shard)?;
                spec.faults.crashes = crashes.into_iter().map(|(s, r)| (s, Round(r))).collect();
            }
            "byzantine-votes" => spec.faults.byz_votes = parse_num(value, "an integer")?,
            "mempool" => self.mempool = Some(parse_num(value, "an integer")?),
            "stream" => self.stream = Some(value.parse()?),
            "offered" => self.offered = Some(parse_num(value, "an integer")?),
            "metrics" => spec.metrics = value.parse()?,
            "reshard" => {
                let shape = "+N@ROUND or -N@ROUND";
                spec.reshard = parse_at_list(value, "reshard", shape, parse_reshard_delta)?;
            }
            other => return Err(format!("unknown key `{other}`")),
        }
        Ok(())
    }

    /// The only constructor of a [`JobSpec`]: binds the late spellings,
    /// checks the job against [`RULES`], and builds — once — everything
    /// that can fail to build, keeping what [`run_job`](crate::run_job)
    /// needs.
    pub fn resolve(
        &self,
        scenario: &str,
        index: usize,
        overrides: Vec<(String, String)>,
    ) -> Result<JobSpec, Blame> {
        let fail = |keys: &'static [&'static str], msg: &str| Err((keys, msg.to_string()));
        let mut spec = self.spec.clone();
        spec.scenario = scenario.to_string();
        spec.index = index;
        spec.overrides = overrides;
        if !self.accounts_set {
            spec.sys.accounts = spec.sys.shards;
        }
        if self.auto_burst {
            spec.adv.strategy = StrategyKind::CountBurst {
                burst_round: (spec.rounds / 10).max(1),
                count: spec.adv.burstiness,
            };
        }
        if self.auto_threshold {
            spec.bds.coloring = ColoringStrategy::HeavyLight {
                threshold: bounds::ceil_sqrt(spec.sys.shards),
            };
            spec.fds.coloring = spec.bds.coloring;
        }
        spec.ingest = match (self.mempool, self.stream) {
            (Some(mempool), Some(stream)) => Some(Ingest {
                mempool,
                stream,
                offered: self.offered.unwrap_or_else(|| {
                    saturation_offered(spec.adv.rho, spec.sys.shards, spec.sys.k_max)
                }),
            }),
            (Some(_), None) => {
                return fail(
                    &["mempool"],
                    "mempool requires stream = zipf:<exponent> | shift:<period> \
                     (the ingestion plane needs a streaming producer)",
                )
            }
            (None, Some(_)) => return fail(&["stream"], "stream requires mempool = CAPACITY"),
            (None, None) if self.offered.is_some() => {
                return fail(&["offered"], "offered requires mempool = CAPACITY")
            }
            (None, None) => None,
        };
        let broken = |(keys, check): &Rule| Some((*keys, check(&spec)?));
        if let Some(blame) = RULES.iter().find_map(broken) {
            return Err(blame);
        }
        if !spec.reshard.is_empty() {
            let plan = ReshardPlan::build(spec.sys.shards, &spec.sys, &spec.reshard)
                .map_err(|m| (&["reshard"][..], m))?;
            spec.plan = Some(Arc::new(plan));
        }
        let sys = spec.system_config();
        sys.validate()
            .map_err(|e| (&["shards", "accounts", "k"][..], e.to_string()))?;
        spec.metric
            .build(sys.shards)
            .map_err(|m| (&["metric", "shards"][..], m))?;
        spec.faults
            .validate(spec.sys.shards)
            .map_err(|m| (FAULT_KEYS, m))?;
        Ok(spec)
    }
}

/// One row of [`RULES`]: the keys it blames, and the check — the message
/// when the job breaks it.
pub(crate) type Rule = (&'static [&'static str], fn(&JobSpec) -> Option<String>);

/// Every way a set of individually well-formed assignments can still
/// describe no runnable job, in precedence order: the first broken row is
/// the one reported. The rows blaming or reading more than one key are
/// DESIGN.md's "Restrictions", row for row (a test holds the two
/// together): lifting a restriction is deleting its row in both.
pub(crate) const RULES: &[Rule] = &[
    (&["rho"], |j| {
        let rho = j.adv.rho;
        (!(rho > 0.0 && rho <= 1.0)).then(|| format!("rho must satisfy 0 < rho <= 1, got {rho}"))
    }),
    (&["b"], |j| {
        (j.adv.burstiness == 0).then(|| "b must be >= 1".into())
    }),
    (&["rounds"], |j| {
        (j.rounds == 0).then(|| "rounds must be >= 1".into())
    }),
    // A chain stores a block's round in 32 bits (`simnet::LocalChain`).
    (&["rounds"], |j| {
        (j.rounds > 1 << 32).then(|| format!("rounds must be <= 2^32, got {}", j.rounds))
    }),
    (&["pipeline-window"], |j| {
        (j.fds.pipeline_window == 0).then(|| "pipeline-window must be >= 1".into())
    }),
    (&["sublayers"], |j| {
        (j.fds.sublayers == 0).then(|| "sublayers must be >= 1".into())
    }),
    // Here, not only in `SystemConfig::validate`, so the failure carries
    // the quorum keys.
    (&["nodes-per-shard", "faulty-per-shard"], |j| {
        let (n, f) = (j.sys.nodes_per_shard, j.sys.faulty_per_shard);
        (n <= 3 * f).then(|| {
            format!(
                "nodes-per-shard = {n} does not satisfy n > 3f for \
                 faulty-per-shard = {f} (PBFT quorum impossible)"
            )
        })
    }),
    (&["engine", "scheduler"], |j| {
        let asks = match (j.engine, j.faults.is_inert()) {
            (EngineKind::Net, _) => "engine = net",
            (EngineKind::Sim, false) => "the fault plane",
            (EngineKind::Sim, true) => return None,
        };
        (!j.scheduler.supports_net()).then(|| {
            format!(
                "{asks} does not support scheduler = {} (fcfs is an idealized \
                 centralized baseline with no per-shard protocol)",
                j.scheduler.name()
            )
        })
    }),
    (&["byzantine-votes", "faulty-per-shard"], |j| {
        let (votes, f) = (j.faults.byz_votes, j.sys.faulty_per_shard);
        (votes > f).then(|| {
            format!(
                "byzantine-votes = {votes} exceeds faulty-per-shard = {f} — a shard \
                 cannot flip more voters than it declares Byzantine"
            )
        })
    }),
    (&["mempool"], |j| {
        j.ingest
            .is_some_and(|i| i.mempool == 0)
            .then(|| "mempool capacity must be >= 1".into())
    }),
    (&["offered"], |j| {
        j.ingest
            .is_some_and(|i| i.offered == 0)
            .then(|| "offered must be >= 1".into())
    }),
    (&["reshard", "placement"], |j| {
        (!j.reshard.is_empty() && j.placement != Placement::Vnode).then(|| {
            "reshard requires placement = vnode (migration schedules are \
             vnode-table re-assignments)"
                .into()
        })
    }),
    (&["reshard", "scheduler"], |j| {
        let hosted = !matches!(j.scheduler, SchedulerKind::Fds | SchedulerKind::Fcfs);
        (!j.reshard.is_empty() && !hosted).then(|| {
            format!(
                "reshard requires an epoch-hosted scheduler (bds or a zoo \
                 policy); {} has no epoch boundary to switch tables at",
                j.scheduler
            )
        })
    }),
    (&["reshard"], |j| {
        (!j.reshard.is_empty() && !j.faults.is_inert()).then(|| {
            "reshard cannot be combined with fault keys — the zero-loss \
             migration audit is defined for fault-free runs"
                .into()
        })
    }),
];

/// One fully resolved sweep job — the built inputs of a single run:
/// each layer's own configuration as that layer declares it, and the
/// migration plan the job was checked against. Running a `JobSpec`
/// twice — on any thread — produces identical reports.
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
    /// the concurrent networked runtime (runs of the
    /// two are byte-identical, test-enforced).
    pub engine: EngineKind,
    /// Shard metric shape.
    pub metric: MetricKind,
    /// The system as written: `shards`, `accounts`, `k`,
    /// `nodes-per-shard`, `faulty-per-shard`. Under a reshard schedule
    /// `shards` is the *initial* active count; the engines run the
    /// provisioned [`system_config`](Self::system_config).
    pub sys: SystemConfig,
    /// Account placement.
    pub placement: Placement,
    /// Simulated rounds.
    pub rounds: u64,
    /// The adversary: `rho`, `b`, `strategy`, `shape`, `seed` (strategy
    /// fully resolved).
    pub adv: AdversaryConfig,
    /// BDS and the zoo policies: `coloring`, `rotate-leader`.
    pub bds: BdsConfig,
    /// FDS: `coloring`, `reschedule`, `pipeline-window`, `sublayers`.
    pub fds: FdsConfig,
    /// FCFS: `respect-capacity`.
    pub fcfs: FcfsConfig,
    /// Run the cross-shard serialization-order checker over the chains
    /// afterwards (FCFS keeps none, so there it checks nothing).
    pub check_order: bool,
    /// Net engine: the fault plane — `fault-seed`, `drop-prob`,
    /// `dup-prob`, `drop-budget`, `crash`, `byzantine-votes` (inert
    /// unless one of the last four is set).
    pub faults: FaultPlan,
    /// Firehose: the streaming ingestion plane (`None` = the legacy
    /// inline generator).
    pub ingest: Option<Ingest>,
    /// How much of the metrics plane to record (`off` keeps every legacy
    /// byte untouched; `summary` fills the percentile columns; `full`
    /// additionally emits the per-epoch timeline JSONL).
    pub metrics: MetricsMode,
    /// Elastic reshard schedule: signed shard-count deltas by round
    /// (`+N@R` activates the `N` lowest inactive ids, `-N@R` retires the
    /// `N` highest active ids). Empty = static placement.
    pub reshard: Vec<(i64, u64)>,
    /// `reshard` built against `sys`; private, so a `JobSpec` comes only
    /// from [`JobDraft::resolve`].
    plan: Option<Arc<ReshardPlan>>,
}

impl JobSpec {
    /// The precomputed migration plan, or `None` for static jobs.
    pub fn plan(&self) -> Option<&Arc<ReshardPlan>> {
        self.plan.as_ref()
    }

    /// The system configuration this job runs against. For reshard jobs
    /// this is the *provisioned* system — `shards` spans the schedule's
    /// maximum active count, because every provisioned shard is a
    /// protocol participant from round 0 (inactive ones simply own no
    /// vnodes until their join event).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            shards: self.plan.as_ref().map_or(self.sys.shards, |p| p.s_max),
            ..self.sys.clone()
        }
    }

    /// The account placement map this job runs against. For reshard
    /// jobs this is the plan's version-0 map (only initially active
    /// shards own accounts).
    pub fn account_map(&self) -> AccountMap {
        let sys = self.system_config();
        match self.placement {
            Placement::Random(seed) => AccountMap::random(&sys, seed),
            Placement::RoundRobin => AccountMap::round_robin(&sys),
            Placement::Vnode => match &self.plan {
                Some(plan) => plan.versions[0].map.clone(),
                None => VnodeTable::balanced(self.sys.shards).account_map(&sys),
            },
        }
    }

    /// The streaming ingestion pipeline for firehose jobs, or `None`
    /// when the job uses the legacy inline generator. `map` must be this
    /// job's own [`account_map`](Self::account_map).
    pub fn ingest_pipeline(&self, map: &AccountMap) -> Option<IngestPipeline> {
        let ingest = self.ingest?;
        let source = StreamSource::new(
            &self.sys,
            map,
            ingest.stream,
            self.adv.shape,
            self.adv.rho,
            self.adv.burstiness,
            ingest.offered,
            self.adv.seed,
        );
        Some(IngestPipeline::new(source, ingest.mempool))
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
        let firehose = self.ingest.map_or(String::new(), |i| {
            format!(
                "mempool={} stream={} offered={} ",
                i.mempool, i.stream, i.offered
            )
        });
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
            self.sys.shards,
            self.sys.k_max,
            self.rounds,
            self.adv.rho,
            self.adv.burstiness,
            self.adv.strategy,
            self.adv.shape,
            self.adv.seed,
            self.label(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Scenario;

    /// One minimal failing scenario per [`RULES`] row, in row order: the
    /// message it must produce, the line it must blame, and the DESIGN.md
    /// "Restrictions" row it is (`""` for a single-key range check).
    const BREAKS: &[(&str, &str, usize, &str)] = &[
        ("rho = 1.5\n", "0 < rho <= 1, got 1.5", 2, ""),
        ("b = 0\n", "b must be >= 1", 2, ""),
        ("rounds = 0\n", "rounds must be >= 1", 2, ""),
        (
            "rounds = 4294967297\n",
            "rounds must be <= 2^32, got 4294967297",
            2,
            "",
        ),
        (
            "pipeline-window = 0\n",
            "pipeline-window must be >= 1",
            2,
            "",
        ),
        ("sublayers = 0\n", "sublayers must be >= 1", 2, ""),
        (
            "faulty-per-shard = 2\nk = 3\n",
            "does not satisfy n > 3f",
            2,
            "nodes-per-shard > 3·faulty-per-shard",
        ),
        (
            "scheduler = fcfs\nk = 3\nengine = net\n",
            "does not support scheduler = fcfs",
            4,
            "engine = net or fault keys ⇒ scheduler ≠ fcfs",
        ),
        (
            "byzantine-votes = 2\nk = 3\n",
            "exceeds faulty-per-shard = 1",
            2,
            "byzantine-votes ≤ faulty-per-shard",
        ),
        (
            "mempool = 0\nstream = zipf:0.6\n",
            "mempool capacity must be >= 1",
            2,
            "",
        ),
        (
            "mempool = 8\noffered = 0\nstream = zipf:0.6\n",
            "offered must be >= 1",
            3,
            "",
        ),
        (
            "reshard = +2@100\nk = 3\n",
            "requires placement = vnode",
            2,
            "reshard ⇒ placement = vnode",
        ),
        (
            "placement = vnode\nreshard = +2@100\nscheduler = fds\n",
            "epoch-hosted scheduler",
            4,
            "reshard ⇒ epoch-hosted scheduler",
        ),
        (
            "placement = vnode\nreshard = +2@100\ncrash = 0@50\n",
            "cannot be combined with fault keys",
            3,
            "reshard ⇒ fault-free",
        ),
    ];

    #[test]
    fn every_rule_has_a_scenario_it_alone_rejects_at_the_blamed_line() {
        assert_eq!(BREAKS.len(), RULES.len(), "one break per RULES row");
        for ((body, needle, line, _), (keys, _)) in BREAKS.iter().zip(RULES) {
            let text = format!("name = x\n{body}");
            let scenario = Scenario::parse_str(&text, "<rule>").unwrap();
            let e = scenario.jobs().expect_err(body);
            assert!(e.msg.contains(needle), "{body:?}: {e}");
            assert_eq!(e.line, Some(*line), "{body:?}: {e}");
            // The blamed line assigns one of the row's own keys.
            let blamed = text.lines().nth(line - 1).unwrap();
            let key = blamed.split('=').next().unwrap().trim();
            assert!(keys.contains(&key), "{body:?} blames `{key}`, not {keys:?}");
        }
    }

    /// DESIGN.md's "Restrictions" table and the cross-key rows of
    /// [`RULES`] are the same list, in the same order.
    #[test]
    fn design_restrictions_table_is_the_cross_key_rows() {
        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## Restrictions").nth(1).unwrap();
        let section = section.split("\n## ").next().unwrap();
        let documented: Vec<String> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| "))
            .skip(1) // the header; the `|---|` separator has no `| ` prefix
            .map(|row| row.split(" | ").next().unwrap().replace('`', ""))
            .collect();
        let ruled: Vec<&str> = BREAKS
            .iter()
            .map(|b| b.3)
            .filter(|r| !r.is_empty())
            .collect();
        assert_eq!(documented, ruled);
    }

    /// The scenario defaults are the owning layers' own, except exactly
    /// two: the adversary seed and FCFS's capacity charge.
    #[test]
    fn defaults_are_the_layers_own_except_seed_and_respect_capacity() {
        let spec = JobDraft::default().resolve("d", 0, Vec::new()).unwrap();
        let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        };
        assert_eq!(spec.sys, SystemConfig::paper_simulation());
        assert_eq!(spec.adv.seed, 42);
        assert_eq!(
            AdversaryConfig {
                seed: 0,
                ..spec.adv
            },
            AdversaryConfig::default()
        );
        same(&spec.bds, &BdsConfig::default());
        same(&spec.fds, &FdsConfig::default());
        assert!(spec.fcfs.respect_capacity && !FcfsConfig::default().respect_capacity);
        assert_eq!(spec.faults, FaultPlan::default());
        assert!(spec.ingest.is_none() && spec.plan().is_none());
    }
}
