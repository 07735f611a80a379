//! Per-run measurement report shared by every scheduler, and the run
//! book every host keeps to build it.

use crate::node::{CommitEvent, Protocol, RunFaults, Shard};
use ::metrics::{MetricsRecorder, MetricsReport, RoundRow};
use serde::{Deserialize, Serialize};
use sharding_core::stats::{StabilityDetector, StabilityVerdict, TimeSeries};
use sharding_core::{Round, TxnId};
use simnet::{FaultCounters, SendTally};

/// Which scheduler produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Algorithm 1 (uniform model).
    Bds,
    /// Algorithm 2 (non-uniform model).
    Fds,
    /// Greedy FCFS baseline.
    Fcfs,
    /// Earliest-deadline-first epoch coloring (deadline = arrival round).
    Edf,
    /// Fixed-priority epoch coloring (priority = account hotness).
    FixedPriority,
    /// Work-stealing greedy epoch scheduler.
    WorkSteal,
    /// Speculative coloring against a predicted conflict set, repaired
    /// against the true conflicts before dispatch.
    Speculative,
}

impl SchedulerKind {
    /// Every registered scheduler, in registration order. The scheduler
    /// zoo (conformance harness, scenario docs, did-you-mean suggestions)
    /// iterates this — adding an enum variant without registering it here
    /// fails the conformance suite's exhaustiveness check.
    pub const ALL: [SchedulerKind; 7] = [
        SchedulerKind::Bds,
        SchedulerKind::Fds,
        SchedulerKind::Fcfs,
        SchedulerKind::Edf,
        SchedulerKind::FixedPriority,
        SchedulerKind::WorkSteal,
        SchedulerKind::Speculative,
    ];

    /// The canonical scenario-file spelling (what `FromStr` accepts and
    /// the grammar docs advertise).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Bds => "bds",
            SchedulerKind::Fds => "fds",
            SchedulerKind::Fcfs => "fcfs",
            SchedulerKind::Edf => "edf",
            SchedulerKind::FixedPriority => "fp",
            SchedulerKind::WorkSteal => "ws",
            SchedulerKind::Speculative => "spec",
        }
    }

    /// Whether the networked engine (`engine = net`) can run this
    /// scheduler. Everything that plans epochs through the BDS epoch-host
    /// protocol runs unmodified over the message plane; FCFS is an
    /// idealized centralized baseline with no networked protocol at all.
    pub fn supports_net(self) -> bool {
        self != SchedulerKind::Fcfs
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Bds => write!(f, "BDS"),
            SchedulerKind::Fds => write!(f, "FDS"),
            SchedulerKind::Fcfs => write!(f, "FCFS"),
            SchedulerKind::Edf => write!(f, "EDF"),
            SchedulerKind::FixedPriority => write!(f, "FP"),
            SchedulerKind::WorkSteal => write!(f, "WS"),
            SchedulerKind::Speculative => write!(f, "SPEC"),
        }
    }
}

/// Levenshtein distance, for the did-you-mean suggestion. Inputs are
/// scheduler-name-sized, so the quadratic table is irrelevant.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    /// Parses the scenario-file spelling, case-insensitively. Each zoo
    /// scheduler also accepts its long name (`fixed-priority`,
    /// `work-steal`, `speculative`). Unknown names get the registered
    /// list plus a did-you-mean suggestion when one is close.
    fn from_str(s: &str) -> Result<Self, String> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "bds" => Ok(SchedulerKind::Bds),
            "fds" => Ok(SchedulerKind::Fds),
            "fcfs" => Ok(SchedulerKind::Fcfs),
            "edf" => Ok(SchedulerKind::Edf),
            "fp" | "fixed-priority" => Ok(SchedulerKind::FixedPriority),
            "ws" | "work-steal" => Ok(SchedulerKind::WorkSteal),
            "spec" | "speculative" => Ok(SchedulerKind::Speculative),
            other => {
                let known: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
                let suggestion = known
                    .iter()
                    .map(|name| (edit_distance(other, name), *name))
                    .min()
                    .filter(|(d, _)| *d <= 2)
                    .map(|(_, name)| format!("; did you mean `{name}`?"))
                    .unwrap_or_default();
                Err(format!(
                    "unknown scheduler `{other}` (expected one of {}{suggestion})",
                    known.join(", ")
                ))
            }
        }
    }
}

/// The full measurement record of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Which scheduler ran.
    pub scheduler: SchedulerKind,
    /// Rounds executed.
    pub rounds: u64,
    /// Transactions the adversary generated.
    pub generated: u64,
    /// Transactions committed (all subtransactions appended).
    pub committed: u64,
    /// Transactions aborted (failed condition/validity checks).
    pub aborted: u64,
    /// Transactions still pending when the run ended.
    pub pending_at_end: u64,
    /// Mean over rounds of the *per-home-shard average* pending-queue size
    /// (Figure 2/3 left panel quantity).
    pub avg_queue_per_shard: f64,
    /// Maximum total pending transactions observed in any round
    /// (comparable against the `4bs` bound of Theorems 2–3).
    pub max_total_pending: u64,
    /// Mean latency in rounds over committed transactions
    /// (Figure 2/3 right panel quantity).
    pub avg_latency: f64,
    /// Maximum latency in rounds over committed transactions (comparable
    /// against the latency bounds of Theorems 2–3).
    pub max_latency: u64,
    /// Number of epochs driven (BDS) or layer-0 epochs elapsed (FDS).
    pub epochs: u64,
    /// Longest epoch in rounds (BDS; compared against Lemma 1's `τ`).
    pub max_epoch_len: u64,
    /// Total messages sent between shards.
    pub messages: u64,
    /// Largest single message payload in (estimated) bytes; the paper
    /// upper-bounds message size by `O(bs)`.
    pub max_message_bytes: u64,
    /// Faults injected during the run (all zeros for fault-free runs):
    /// the shards' crashes and Byzantine flips, the links' drops and
    /// duplicates.
    pub faults: FaultCounters,
    /// Stability verdict from the queue-length series.
    pub verdict: StabilityVerdict,
    /// Per-round total pending series (for plotting / later analysis).
    #[serde(skip)]
    pub queue_series: TimeSeries,
    /// Detailed metrics-plane output (log-scale latency quantiles,
    /// per-shard utilization, epoch timeline) when the plane was on;
    /// `None` — the default — leaves every legacy byte untouched.
    #[serde(skip)]
    pub metrics: Option<MetricsReport>,
}

impl RunReport {
    /// Committed + aborted as a fraction of generated (1.0 = everything
    /// resolved).
    pub fn resolution_rate(&self) -> f64 {
        if self.generated == 0 {
            return 1.0;
        }
        (self.committed + self.aborted) as f64 / self.generated as f64
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: rounds={} gen={} committed={} aborted={} pending={} avg_q={:.2} max_pend={} avg_lat={:.1} max_lat={} verdict={:?}",
            self.scheduler,
            self.rounds,
            self.generated,
            self.committed,
            self.aborted,
            self.pending_at_end,
            self.avg_queue_per_shard,
            self.max_total_pending,
            self.avg_latency,
            self.max_latency,
            self.verdict,
        )
    }
}

/// The run book every host keeps: the transactions generated, each
/// decision as it is booked, each round as it closes, and the commit
/// log. [`finish`](MetricsCollector::finish) turns it into the
/// [`RunReport`].
#[derive(Debug)]
pub struct MetricsCollector {
    shards: usize,
    queue_series: TimeSeries,
    total_pending_max: u64,
    /// Running mean of committed latencies, over `committed` commits.
    latency_mean: f64,
    max_latency: u64,
    committed: u64,
    aborted: u64,
    /// `(commit round, txn)` of every commit, in booking order.
    log: Vec<(Round, TxnId)>,
    generated: u64,
    /// What the last closed round counted pending.
    pending: u64,
    /// Rounds closed, which is the index of the round being booked.
    rounds: u64,
    /// The metrics plane, when [`enable_metrics`](Self::enable_metrics)
    /// turned it on. It sees only what the book is fed, in booking order,
    /// so it is as thread- and engine-deterministic as the book.
    detail: Option<Box<MetricsRecorder>>,
}

impl MetricsCollector {
    /// New collector for `shards` home shards.
    pub fn new(shards: usize) -> Self {
        MetricsCollector {
            shards,
            queue_series: TimeSeries::new(),
            total_pending_max: 0,
            latency_mean: 0.0,
            max_latency: 0,
            committed: 0,
            aborted: 0,
            log: Vec::new(),
            generated: 0,
            pending: 0,
            rounds: 0,
            detail: None,
        }
    }

    /// Turns the metrics plane on for this run.
    pub fn enable_metrics(&mut self) {
        self.detail = Some(Box::new(MetricsRecorder::new(self.shards)));
    }

    /// Books `n` transactions the source generated.
    pub fn book_generated(&mut self, n: u64) {
        self.generated += n;
    }

    /// Books one decision: a commit's latency and log entry, or an abort.
    pub fn book(&mut self, event: CommitEvent) {
        if event.committed {
            let lat = event.commit_round.since(event.generated);
            self.committed += 1;
            self.latency_mean += (lat as f64 - self.latency_mean) / self.committed as f64;
            self.max_latency = self.max_latency.max(lat);
            self.log.push((event.commit_round, event.txn));
            if let Some(detail) = &mut self.detail {
                detail.on_commit(event.home.index(), lat);
            }
        } else {
            self.aborted += 1;
        }
    }

    /// Closes the round being booked over every shard of the run, in
    /// shard order, under the run's `faults`: `P` folds their samples into
    /// the round's row.
    pub fn close_shards<'a, P: Protocol<Node: 'a>>(
        &mut self,
        mut shards: impl Iterator<Item = &'a Shard<P::Node>> + Clone,
        faults: &RunFaults,
    ) {
        let samples = shards.clone().map(|shard| shard.sample);
        let first = shards.next().expect("a shard");
        let row = P::round_row(&first.node, self.rounds, samples, faults.live);
        self.end_round(row, faults.count(self.rounds + 1));
    }

    /// Closes the round being booked as `row`, with the fault plane's
    /// `[cumulative Byzantine flips, shards crashed now]`: the queue
    /// series, the pending maximum and, when the plane is on, the
    /// timeline.
    pub(crate) fn end_round(&mut self, row: RoundRow, [flips, crashed]: [u64; 2]) {
        self.queue_series.push(row.queue);
        self.total_pending_max = self.total_pending_max.max(row.pending);
        if let Some(detail) = &mut self.detail {
            let totals = [self.committed, self.aborted, flips];
            detail.close_round(self.rounds, &row, crashed, totals);
        }
        self.pending = row.pending;
        self.rounds += 1;
    }

    /// The round being booked.
    pub fn now(&self) -> Round {
        Round(self.rounds)
    }

    /// What the last closed round counted pending.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// `(commit round, txn)` of every commit, in booking order.
    pub fn committed_log(&self) -> &[(Round, TxnId)] {
        &self.log
    }

    /// [`finish`](Self::finish) over every shard of the run under its
    /// `faults`: `P::epochs` of the nodes, and what the plan did plus the
    /// links' drops and duplicates.
    pub fn finish_shards<'a, P: Protocol<Node: 'a>>(
        self,
        scheduler: SchedulerKind,
        shards: impl Iterator<Item = &'a Shard<P::Node>>,
        links: SendTally,
        faults: &RunFaults,
    ) -> (RunReport, Vec<(Round, TxnId)>) {
        let epochs = P::epochs(shards.map(|shard| &shard.node), self.rounds);
        let [byz_flips, crashes] = faults.count(self.rounds);
        let faults = FaultCounters {
            crashes,
            dropped: links.dropped,
            duplicated: links.duplicated,
            byz_flips,
        };
        self.finish(scheduler, epochs, links, faults)
    }

    /// Finalizes the book into the [`RunReport`] and the commit log, with
    /// what only the host knows: the policy's kind, the protocol's
    /// `(epochs, longest epoch)`, what the links sent, and the run's fault
    /// counters.
    pub fn finish(
        self,
        scheduler: SchedulerKind,
        (epochs, max_epoch_len): (u64, u64),
        links: SendTally,
        faults: FaultCounters,
    ) -> (RunReport, Vec<(Round, TxnId)>) {
        let verdict = StabilityDetector::default().classify(&self.queue_series);
        let decided = [self.committed, self.aborted];
        let metrics = self.detail.map(|detail| detail.finish(decided));
        let report = RunReport {
            scheduler,
            rounds: self.rounds,
            generated: self.generated,
            committed: self.committed,
            aborted: self.aborted,
            pending_at_end: self.pending,
            avg_queue_per_shard: self.queue_series.mean(),
            max_total_pending: self.total_pending_max,
            avg_latency: self.latency_mean,
            max_latency: self.max_latency,
            epochs,
            max_epoch_len,
            messages: links.sent,
            max_message_bytes: links.max_bytes,
            faults,
            verdict,
            queue_series: self.queue_series,
            metrics,
        };
        (report, self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bds::{BdsConfig, BdsNode, BdsProtocol};
    use crate::fds::{FdsConfig, FdsProtocol};
    use crate::node::{Lent, Node, Seam};
    use crate::scheduler::Scheduler;
    use cluster::{LineMetric, ShardMetric, UniformMetric};
    use sharding_core::{AccountMap, ShardId, SystemConfig, Transaction};
    use simnet::{FaultPlan, LocalChain};

    #[test]
    fn scheduler_kind_parses_case_insensitively() {
        assert_eq!("bds".parse::<SchedulerKind>().unwrap(), SchedulerKind::Bds);
        assert_eq!("FDS".parse::<SchedulerKind>().unwrap(), SchedulerKind::Fds);
        assert_eq!(
            "Fcfs".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Fcfs
        );
        assert!("pbft".parse::<SchedulerKind>().is_err());
    }

    #[test]
    fn every_registered_kind_round_trips_through_its_name() {
        for k in SchedulerKind::ALL {
            assert_eq!(k.name().parse::<SchedulerKind>().unwrap(), k);
            assert_eq!(
                k.name()
                    .to_ascii_uppercase()
                    .parse::<SchedulerKind>()
                    .unwrap(),
                k
            );
        }
    }

    #[test]
    fn zoo_long_names_parse() {
        assert_eq!(
            "fixed-priority".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::FixedPriority
        );
        assert_eq!(
            "work-steal".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::WorkSteal
        );
        assert_eq!(
            "speculative".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Speculative
        );
    }

    #[test]
    fn unknown_scheduler_error_lists_kinds_and_suggests() {
        // Near-miss: suggestion names the closest registered kind.
        let err = "bsd".parse::<SchedulerKind>().unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
        assert!(err.contains("bds, fds, fcfs, edf, fp, ws, spec"), "{err}");
        assert!(err.contains("did you mean `bds`?"), "{err}");
        let err = "edff".parse::<SchedulerKind>().unwrap_err();
        assert!(err.contains("did you mean `edf`?"), "{err}");
        // Far miss: no suggestion, but the registry is still listed.
        let err = "roundrobin".parse::<SchedulerKind>().unwrap_err();
        assert!(err.contains("unknown scheduler"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn only_fcfs_lacks_net_support() {
        for k in SchedulerKind::ALL {
            assert_eq!(k.supports_net(), k != SchedulerKind::Fcfs, "{k}");
        }
    }

    /// A shard's part: per round, the decisions it emits and its sample.
    type Part = Vec<(Vec<CommitEvent>, [u64; 4])>;

    /// A node that plays its shard's script: its step at round `r` emits
    /// `script[r]`'s decisions, and it samples `script[at]`, `at` being
    /// the round the test last handed it — so a crashed shard, which never
    /// steps, still counts what it holds. Its rows are folded by the BDS
    /// node it carries.
    struct Scripted {
        script: Part,
        at: usize,
        bds: BdsNode,
    }

    impl Node for Scripted {
        type Msg = ();

        fn msg_bytes(_: &()) -> usize {
            0
        }

        fn inject(&mut self, _: Transaction) {}

        fn step<S: Seam<()>>(
            &mut self,
            round: u64,
            _: impl Iterator<Item = (ShardId, ())>,
            _: Lent<'_>,
            seam: &mut S,
        ) {
            let decisions = &self.script[round as usize].0;
            decisions.iter().for_each(|&event| seam.emit(event));
        }

        fn sample(&self) -> [u64; 4] {
            self.script[self.at].1
        }
    }

    /// Every shard's script, in shard order, played under BDS's policy
    /// and folded into BDS's rows; the run spans one epoch of two rounds.
    struct Play(Vec<Part>, BdsProtocol);

    impl Protocol for Play {
        type Node = Scripted;

        fn initial_balance(&self) -> u64 {
            100
        }

        fn node(&self, id: ShardId, metric: &dyn ShardMetric) -> Scripted {
            let script = self.0[id.index()].clone();
            let bds = self.1.node(id, metric);
            Scripted { script, at: 0, bds }
        }

        fn policy(&self, sys: &SystemConfig) -> Box<dyn Scheduler> {
            self.1.policy(sys)
        }

        fn round_row(
            node: &Scripted,
            round: u64,
            samples: impl Iterator<Item = [u64; 4]>,
            faulty: bool,
        ) -> RoundRow {
            BdsProtocol::round_row(&node.bds, round, samples, faulty)
        }

        fn epochs<'a>(_: impl Iterator<Item = &'a Scripted>, _: u64) -> (u64, u64) {
            (1, 2)
        }
    }

    /// The booking oracle: three shards' scripted decisions over two
    /// rounds, each shard stepped by the hosts' own [`Shard::step`] under
    /// a crash and a Byzantine quota and booked as both hosts book — a
    /// round's decisions in `(shard, emission index)` order, then the
    /// round closed over every shard by `close_shards` — against what the
    /// log and the report must say.
    #[test]
    fn collector_aggregates() {
        let sys = SystemConfig {
            shards: 3,
            accounts: 3,
            k_max: 2,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let (map, metric) = (AccountMap::round_robin(&sys), UniformMetric::new(3));
        // Shard 2 crashes at round 1; a live shard flips one vote a round.
        let plan = FaultPlan {
            crashes: vec![(ShardId(2), Round(1))],
            byz_votes: 1,
            ..FaultPlan::default()
        };

        let decision = |txn, generated, commit_round, home, committed| CommitEvent {
            generated: Round(generated),
            commit_round: Round(commit_round),
            txn: TxnId(txn),
            home: ShardId(home),
            committed,
        };
        // Per shard, per round: the decisions it emits and its sample.
        let bds = BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds);
        let play = Play(
            vec![
                vec![
                    (
                        vec![decision(10, 0, 1, 0, true), decision(11, 0, 1, 0, false)],
                        [4, 0, 3, 0],
                    ),
                    (vec![decision(13, 1, 5, 0, true)], [3, 1, 3, 0]),
                ],
                vec![
                    (vec![], [2, 0, 3, 0]),
                    (
                        vec![
                            decision(14, 1, 11, 1, true),
                            decision(15, 0, 2, 1, false),
                            decision(16, 1, 3, 1, true),
                        ],
                        [0, 1, 3, 0],
                    ),
                ],
                vec![
                    (vec![decision(12, 0, 3, 2, true)], [1, 0, 3, 0]),
                    (vec![decision(17, 1, 2, 2, true)], [5, 1, 3, 0]),
                ],
            ],
            bds,
        );
        let (mut shards, faults) = Shard::all(&play, &sys, &map, &metric, &plan);
        let mut chains: Vec<_> = (0..3).map(ShardId).map(LocalChain::new).collect();
        let mut policy = play.policy(&sys);
        let mut book = MetricsCollector::new(3);
        book.enable_metrics();
        for round in 0..2 {
            book.book_generated(4);
            for (shard, chain) in shards.iter_mut().zip(&mut chains) {
                shard.node.at = round as usize;
                let send = |_, ()| unreachable!("the script sends nothing");
                let seam = (send, |event| book.book(event));
                let (inbox, policy) = (std::iter::empty(), policy.as_mut());
                shard.step(round, &faults, inbox, chain, policy, seam);
            }
            book.close_shards::<Play>(shards.iter(), &faults);
        }
        let links = SendTally {
            sent: 40,
            bytes: 1_000,
            max_bytes: 96,
            dropped: 3,
            duplicated: 2,
        };
        let (r, log) =
            book.finish_shards::<Play>(SchedulerKind::Bds, shards.iter(), links, &faults);

        // Shard 2's round-1 commit of txn 17 is never made: it is down.
        let commits = [(1, 10), (3, 12), (5, 13), (11, 14), (3, 16)];
        assert_eq!(log, commits.map(|(round, txn)| (Round(round), TxnId(txn))));
        // Welford's update, left to right. Booking each round's shards in
        // reverse would feed it 3, 1, 10, 2, 4 and change the last bit.
        let welford = |lats: [u64; 5]| {
            let steps = lats.into_iter().zip(1u32..);
            steps.fold(0.0, |mean: f64, (x, n)| {
                mean + (x as f64 - mean) / f64::from(n)
            })
        };
        assert_eq!(r.avg_latency.to_bits(), welford([1, 3, 4, 10, 2]).to_bits());
        assert_ne!(r.avg_latency.to_bits(), welford([3, 1, 10, 2, 4]).to_bits());
        assert_eq!((r.committed, r.aborted, r.max_latency), (5, 2, 10));
        assert_eq!((r.rounds, r.generated, r.pending_at_end), (2, 8, 8));
        assert_eq!(r.queue_series.samples(), [7.0 / 3.0, 8.0 / 3.0]);
        assert_eq!(r.max_total_pending, 8);
        let shape = (r.epochs, r.max_epoch_len, r.messages, r.max_message_bytes);
        assert_eq!(shape, (1, 2, 40, 96));
        // Three flips in round 0, two in round 1 (shard 2 is down).
        let counters = FaultCounters {
            crashes: 1,
            dropped: 3,
            duplicated: 2,
            byz_flips: 5,
        };
        assert_eq!(r.faults, counters);
        let timeline = r.metrics.as_ref().expect("metrics on").timeline.clone();
        let crashed: Vec<u64> = timeline.iter().map(|row| row.crashed_shards_max).collect();
        assert_eq!(crashed, [0, 1], "one row per epoch");
        assert_eq!(timeline.iter().map(|row| row.byz_flips).sum::<u64>(), 5);
        assert!((r.resolution_rate() - 7.0 / 8.0).abs() < 1e-12);
        assert!(r.summary().contains("BDS"));
    }

    /// `close_shards` hands the protocol the index of the round it
    /// closes. FDS files round `r` under layer-0 epoch `r / E_0`, as
    /// `FdsProtocol::epochs` counts, so every timeline row must start at
    /// a round of its own epoch.
    #[test]
    fn a_round_closes_under_its_own_index() {
        let sys = SystemConfig {
            shards: 4,
            accounts: 4,
            k_max: 2,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let (map, metric) = (AccountMap::round_robin(&sys), LineMetric::new(4));
        let proto = FdsProtocol::new(FdsConfig::default(), &metric);
        let (shards, faults) = Shard::all(&proto, &sys, &map, &metric, &FaultPlan::default());
        let mut book = MetricsCollector::new(4);
        book.enable_metrics();
        for _ in 0..100 {
            book.close_shards::<FdsProtocol>(shards.iter(), &faults);
        }
        let links = SendTally::default();
        let (r, _) = book.finish(SchedulerKind::Fds, (0, 0), links, FaultCounters::default());
        let timeline = r.metrics.expect("metrics on").timeline;
        assert!(timeline.len() > 1, "100 rounds span several epochs");
        let node = &shards[0].node;
        let epoch_of = |round| FdsProtocol::epochs(std::iter::once(node), round).0;
        for row in timeline {
            assert_eq!(row.epoch, epoch_of(row.start_round), "{row:?}");
        }
    }

    #[test]
    fn resolution_rate_empty_run() {
        let c = MetricsCollector::new(1);
        let kind = SchedulerKind::Fcfs;
        let (r, _) = c.finish(kind, (0, 0), SendTally::default(), FaultCounters::default());
        assert_eq!(r.resolution_rate(), 1.0);
    }
}
