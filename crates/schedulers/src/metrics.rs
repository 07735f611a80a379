//! Per-run measurement report shared by every scheduler.

use ::metrics::{MetricsReport, MetricsSink};
use serde::{Deserialize, Serialize};
use sharding_core::stats::{RunningStats, StabilityDetector, StabilityVerdict, TimeSeries};
use sharding_core::{Round, ShardId};
use simnet::FaultCounters;

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
    /// Faults injected during the run (all zeros for fault-free runs).
    /// Set post-`finish` by the host, from the fault plane's counters.
    pub faults: FaultCounters,
    /// Stability verdict from the queue-length series.
    pub verdict: StabilityVerdict,
    /// Per-round total pending series (for plotting / later analysis).
    #[serde(skip)]
    pub queue_series: TimeSeries,
    /// Detailed metrics-plane output (log-scale latency quantiles,
    /// per-shard utilization, epoch timeline) when the sink was enabled;
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

/// What a host knows about a finished run that the collector never saw:
/// the argument of [`MetricsCollector::finish`], field for field the
/// [`RunReport`] fields of the same names.
#[derive(Debug, Clone, Copy)]
pub struct RunTotals {
    /// Which scheduler ran.
    pub scheduler: SchedulerKind,
    /// Rounds executed.
    pub rounds: u64,
    /// Transactions the source generated.
    pub generated: u64,
    /// Transactions still pending when the run ended.
    pub pending_at_end: u64,
    /// Epochs driven.
    pub epochs: u64,
    /// Longest epoch in rounds.
    pub max_epoch_len: u64,
    /// Total messages sent between shards.
    pub messages: u64,
    /// Largest single message payload in (estimated) bytes.
    pub max_message_bytes: u64,
}

/// Incremental collector the scheduler loops feed each round.
#[derive(Debug)]
pub struct MetricsCollector {
    shards: usize,
    queue_series: TimeSeries,
    total_pending_max: u64,
    latency: RunningStats,
    max_latency: u64,
    committed: u64,
    aborted: u64,
    /// The metrics-plane seam. Off by default (every hook a no-op); the
    /// scenario executor enables it for `metrics = summary|full` jobs.
    /// Both engines record through this collector — the networked engine
    /// replays commits in the simulator's global order — so anything the
    /// sink sees is automatically thread- and engine-byte-deterministic.
    pub sink: MetricsSink,
}

impl MetricsCollector {
    /// New collector for `shards` home shards.
    pub fn new(shards: usize) -> Self {
        MetricsCollector {
            shards,
            queue_series: TimeSeries::new(),
            total_pending_max: 0,
            latency: RunningStats::new(),
            max_latency: 0,
            committed: 0,
            aborted: 0,
            sink: MetricsSink::Off,
        }
    }

    /// Turns the metrics plane on for this run.
    pub fn enable_metrics(&mut self) {
        self.sink = MetricsSink::enabled(self.shards);
    }

    /// Samples the total number of pending transactions for this round;
    /// the queue series records the per-home-shard average (the Figure 2
    /// left-panel quantity).
    pub fn sample_pending(&mut self, total_pending: u64) {
        self.queue_series
            .push(total_pending as f64 / self.shards as f64);
        self.total_pending_max = self.total_pending_max.max(total_pending);
    }

    /// Samples with an explicit queue-series value, for schedulers whose
    /// figure quantity is not the per-home-shard average (Figure 3's left
    /// panel plots the average *cluster-leader* schedule-queue size).
    pub fn sample_queue_value(&mut self, series_value: f64, total_pending: u64) {
        self.queue_series.push(series_value);
        self.total_pending_max = self.total_pending_max.max(total_pending);
    }

    /// Records a commit of a transaction homed at `home` with the given
    /// generation and commit rounds.
    pub fn record_commit(&mut self, generated: Round, committed: Round, home: ShardId) {
        let lat = committed.since(generated);
        self.latency.push(lat as f64);
        self.max_latency = self.max_latency.max(lat);
        self.committed += 1;
        self.sink.on_commit(home.index(), lat);
    }

    /// Records an abort decision.
    pub fn record_abort(&mut self) {
        self.aborted += 1;
        self.sink.on_abort();
    }

    /// Commits so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Aborts so far.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Finalizes into a [`RunReport`].
    pub fn finish(self, totals: RunTotals) -> RunReport {
        let RunTotals {
            scheduler,
            rounds,
            generated,
            pending_at_end,
            epochs,
            max_epoch_len,
            messages,
            max_message_bytes,
        } = totals;
        let verdict = StabilityDetector::default().classify(&self.queue_series);
        let metrics = self.sink.finish();
        RunReport {
            scheduler,
            rounds,
            generated,
            committed: self.committed,
            aborted: self.aborted,
            pending_at_end,
            avg_queue_per_shard: self.queue_series.mean(),
            max_total_pending: self.total_pending_max,
            avg_latency: self.latency.mean(),
            max_latency: self.max_latency,
            epochs,
            max_epoch_len,
            messages,
            max_message_bytes,
            faults: FaultCounters::default(),
            verdict,
            queue_series: self.queue_series,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn totals(scheduler: SchedulerKind) -> RunTotals {
        RunTotals {
            scheduler,
            rounds: 0,
            generated: 0,
            pending_at_end: 0,
            epochs: 0,
            max_epoch_len: 0,
            messages: 0,
            max_message_bytes: 0,
        }
    }

    #[test]
    fn collector_aggregates() {
        let mut c = MetricsCollector::new(4);
        c.sample_pending(8);
        c.sample_pending(4);
        c.record_commit(Round(10), Round(25), ShardId(0));
        c.record_commit(Round(0), Round(5), ShardId(1));
        c.record_abort();
        let r = c.finish(RunTotals {
            rounds: 2,
            generated: 3,
            epochs: 1,
            max_epoch_len: 2,
            messages: 10,
            max_message_bytes: 128,
            ..totals(SchedulerKind::Bds)
        });
        assert_eq!(r.committed, 2);
        assert_eq!(r.aborted, 1);
        assert_eq!(r.max_total_pending, 8);
        assert!((r.avg_queue_per_shard - 1.5).abs() < 1e-12);
        assert!((r.avg_latency - 10.0).abs() < 1e-12);
        assert_eq!(r.max_latency, 15);
        assert!((r.resolution_rate() - 1.0).abs() < 1e-12);
        assert!(r.summary().contains("BDS"));
    }

    #[test]
    fn resolution_rate_empty_run() {
        let c = MetricsCollector::new(1);
        let r = c.finish(totals(SchedulerKind::Fcfs));
        assert_eq!(r.resolution_rate(), 1.0);
    }
}
