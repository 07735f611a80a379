//! The recording seam and the finished per-run metrics report.

use crate::hist::LatencyHist;

/// How much of the metrics plane a job turns on (the `metrics =` scenario
/// key). `Off` is the default and leaves every legacy golden byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No recording at all; every sink hook is a no-op.
    #[default]
    Off,
    /// Histogram + per-shard utilization + epoch timeline recorded;
    /// percentile columns appear in the report row.
    Summary,
    /// Everything `Summary` records, plus the per-epoch timeline is
    /// emitted as a JSONL file next to the report.
    Full,
}

impl MetricsMode {
    /// The canonical scenario-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            MetricsMode::Off => "off",
            MetricsMode::Summary => "summary",
            MetricsMode::Full => "full",
        }
    }

    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        self != MetricsMode::Off
    }
}

impl std::fmt::Display for MetricsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MetricsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(MetricsMode::Off),
            "summary" => Ok(MetricsMode::Summary),
            "full" => Ok(MetricsMode::Full),
            other => Err(format!(
                "unknown metrics mode `{other}` (expected off, summary, or full)"
            )),
        }
    }
}

/// One closed epoch of the timeline: raw integer sums and maxima only, so
/// the bytes cannot depend on merge order or float accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochRow {
    /// Epoch number (BDS epoch, FDS layer-0 epoch, 0 for FCFS).
    pub epoch: u64,
    /// First round (0-based) attributed to this epoch.
    pub start_round: u64,
    /// Rounds attributed to this epoch.
    pub rounds: u64,
    /// Commits decided during this epoch.
    pub commits: u64,
    /// Aborts decided during this epoch.
    pub aborts: u64,
    /// Maximum total pending observed in this epoch.
    pub pending_max: u64,
    /// Sum of per-round total pending (divide by `rounds` offline for the
    /// mean; kept as an integer here on purpose).
    pub pending_sum: u64,
    /// Byzantine vote flips injected during this epoch.
    pub byz_flips: u64,
    /// Maximum number of simultaneously crashed shards observed.
    pub crashed_shards_max: u64,
    /// Shards actively owning placement during this epoch (maximum
    /// observed; constant except across a live reshard boundary). For
    /// runs without a reshard schedule this is simply the shard count.
    pub active_shards: u64,
}

/// Live recording state behind an enabled sink.
#[derive(Debug)]
pub struct MetricsRecorder {
    shards: usize,
    hist: LatencyHist,
    per_shard_commits: Vec<u64>,
    timeline: Vec<EpochRow>,
    cur: EpochRow,
    have_row: bool,
    /// Rounds observed so far (`on_round` calls).
    round: u64,
    /// Commits/aborts recorded since the last `on_round`, attributed to
    /// the row that round turns out to belong to (an epoch rollover at
    /// round `r` must not credit round `r`'s commits to the old epoch).
    round_commits: u64,
    round_aborts: u64,
    byz_prev: u64,
}

impl MetricsRecorder {
    fn new(shards: usize) -> Self {
        MetricsRecorder {
            shards,
            hist: LatencyHist::new(),
            per_shard_commits: vec![0; shards],
            timeline: Vec::new(),
            cur: EpochRow::default(),
            have_row: false,
            round: 0,
            round_commits: 0,
            round_aborts: 0,
            byz_prev: 0,
        }
    }

    fn on_commit(&mut self, home: usize, latency: u64) {
        self.hist.record(latency);
        if home < self.per_shard_commits.len() {
            self.per_shard_commits[home] += 1;
        }
        self.round_commits += 1;
    }

    fn on_round(
        &mut self,
        epoch: u64,
        pending: u64,
        byz_cum: u64,
        crashed_shards: u64,
        active_shards: u64,
    ) {
        if self.have_row && epoch != self.cur.epoch {
            self.timeline.push(self.cur);
            self.have_row = false;
        }
        if !self.have_row {
            self.cur = EpochRow {
                epoch,
                start_round: self.round,
                ..EpochRow::default()
            };
            self.have_row = true;
        }
        self.cur.rounds += 1;
        self.cur.commits += self.round_commits;
        self.cur.aborts += self.round_aborts;
        self.round_commits = 0;
        self.round_aborts = 0;
        self.cur.pending_sum += pending;
        self.cur.pending_max = self.cur.pending_max.max(pending);
        self.cur.byz_flips += byz_cum - self.byz_prev;
        self.byz_prev = byz_cum;
        self.cur.crashed_shards_max = self.cur.crashed_shards_max.max(crashed_shards);
        self.cur.active_shards = self.cur.active_shards.max(active_shards);
        self.round += 1;
    }

    fn finish(mut self) -> MetricsReport {
        // Trailing commits/aborts with no following round sample (e.g. a
        // scheduler that decides after its last sample) still count.
        self.cur.commits += self.round_commits;
        self.cur.aborts += self.round_aborts;
        if self.have_row {
            self.timeline.push(self.cur);
        }
        MetricsReport {
            shards: self.shards,
            hist: self.hist,
            per_shard_commits: self.per_shard_commits,
            timeline: self.timeline,
        }
    }
}

/// The recording seam. Engines hold one of these (inside their
/// `MetricsCollector`) and call the hooks unconditionally; when the sink
/// is [`MetricsSink::Off`] every hook is an empty match arm, so the
/// metrics plane costs nothing and changes no bytes.
#[derive(Debug, Default)]
pub enum MetricsSink {
    /// Disabled: all hooks are no-ops.
    #[default]
    Off,
    /// Enabled: hooks feed the boxed recorder.
    On(Box<MetricsRecorder>),
}

impl MetricsSink {
    /// An enabled sink for `shards` home shards.
    pub fn enabled(shards: usize) -> Self {
        MetricsSink::On(Box::new(MetricsRecorder::new(shards)))
    }

    /// Records a commit decided for home shard `home` with the given
    /// latency in rounds.
    #[inline]
    pub fn on_commit(&mut self, home: usize, latency: u64) {
        if let MetricsSink::On(r) = self {
            r.on_commit(home, latency);
        }
    }

    /// Records an abort decision.
    #[inline]
    pub fn on_abort(&mut self) {
        if let MetricsSink::On(r) = self {
            r.round_aborts += 1;
        }
    }

    /// End-of-round sample: the epoch the engine is in, total pending,
    /// cumulative Byzantine flips so far, how many shards are currently
    /// crashed, and how many shards actively own placement (the shard
    /// count, unless a reshard schedule is live). Must be called exactly
    /// once per round, after the round's commits/aborts were recorded.
    #[inline]
    pub fn on_round(
        &mut self,
        epoch: u64,
        pending: u64,
        byz_cum: u64,
        crashed_shards: u64,
        active_shards: u64,
    ) {
        if let MetricsSink::On(r) = self {
            r.on_round(epoch, pending, byz_cum, crashed_shards, active_shards);
        }
    }

    /// Consumes the sink into a report (`None` when the sink was off).
    pub fn finish(self) -> Option<MetricsReport> {
        match self {
            MetricsSink::Off => None,
            MetricsSink::On(r) => Some(r.finish()),
        }
    }
}

/// Finished per-run metrics: everything needed for the percentile report
/// columns and the `metrics = full` timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Home-shard count the run used.
    pub shards: usize,
    /// Commit-latency histogram (rounds).
    pub hist: LatencyHist,
    /// Commits per home shard (utilization numerator).
    pub per_shard_commits: Vec<u64>,
    /// Closed per-epoch rows in epoch order.
    pub timeline: Vec<EpochRow>,
}

impl MetricsReport {
    /// Median commit latency in rounds.
    pub fn lat_p50(&self) -> u64 {
        self.hist.p50()
    }

    /// 99th-percentile commit latency in rounds.
    pub fn lat_p99(&self) -> u64 {
        self.hist.p99()
    }

    /// 99.9th-percentile commit latency in rounds.
    pub fn lat_p999(&self) -> u64 {
        self.hist.p999()
    }

    /// Total commits across shards.
    pub fn commits_total(&self) -> u64 {
        self.per_shard_commits.iter().sum()
    }

    /// Minimum per-shard share of commits, normalized so a perfectly even
    /// spread reads 1.0 (`min_shard_commits * shards / total_commits`).
    /// The only float in the crate; derived from integers and formatted
    /// once at the report edge, so it is still byte-deterministic.
    pub fn util_min_shard(&self) -> f64 {
        let total = self.commits_total();
        if total == 0 || self.shards == 0 {
            return 0.0;
        }
        let min = self.per_shard_commits.iter().copied().min().unwrap_or(0);
        (min * self.shards as u64) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_round_trips() {
        for m in [MetricsMode::Off, MetricsMode::Summary, MetricsMode::Full] {
            assert_eq!(m.name().parse::<MetricsMode>().unwrap(), m);
        }
        assert_eq!("FULL".parse::<MetricsMode>().unwrap(), MetricsMode::Full);
        assert!("verbose".parse::<MetricsMode>().is_err());
        assert!(!MetricsMode::Off.enabled());
        assert!(MetricsMode::Summary.enabled());
    }

    #[test]
    fn off_sink_records_nothing() {
        let mut s = MetricsSink::Off;
        s.on_commit(0, 10);
        s.on_abort();
        s.on_round(0, 5, 0, 0, 2);
        assert!(s.finish().is_none());
    }

    #[test]
    fn rollover_round_commits_belong_to_the_new_epoch() {
        let mut s = MetricsSink::enabled(2);
        // Round 0, epoch 0: one commit.
        s.on_commit(0, 3);
        s.on_round(0, 4, 0, 0, 2);
        // Round 1 rolls into epoch 1; its commit must land in epoch 1.
        s.on_commit(1, 5);
        s.on_round(1, 2, 1, 1, 4);
        let r = s.finish().unwrap();
        assert_eq!(r.timeline.len(), 2);
        assert_eq!(r.timeline[0].commits, 1);
        assert_eq!(r.timeline[0].byz_flips, 0);
        assert_eq!(r.timeline[0].active_shards, 2);
        assert_eq!(r.timeline[1].commits, 1);
        assert_eq!(r.timeline[1].start_round, 1);
        assert_eq!(r.timeline[1].byz_flips, 1);
        assert_eq!(r.timeline[1].crashed_shards_max, 1);
        assert_eq!(r.timeline[1].active_shards, 4, "reshard bumps the column");
        assert_eq!(r.per_shard_commits, vec![1, 1]);
        assert_eq!(r.commits_total(), 2);
        assert!((r.util_min_shard() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_commits_are_not_lost() {
        let mut s = MetricsSink::enabled(1);
        s.on_round(0, 0, 0, 0, 1);
        s.on_commit(0, 7);
        let r = s.finish().unwrap();
        assert_eq!(r.timeline.len(), 1);
        assert_eq!(r.timeline[0].commits, 1);
    }

    #[test]
    fn util_min_shard_handles_empty_and_skew() {
        let r = MetricsReport {
            shards: 4,
            hist: LatencyHist::new(),
            per_shard_commits: vec![0; 4],
            timeline: Vec::new(),
        };
        assert_eq!(r.util_min_shard(), 0.0);
        let r = MetricsReport {
            shards: 4,
            hist: LatencyHist::new(),
            per_shard_commits: vec![1, 1, 1, 5],
            timeline: Vec::new(),
        };
        assert!((r.util_min_shard() - 0.5).abs() < 1e-12);
    }
}
