//! The metrics plane's recorder and the finished per-run metrics report.

use crate::hist::LatencyHist;

/// How much of the metrics plane a job turns on (the `metrics =` scenario
/// key). `Off` is the default and leaves every legacy golden byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// No recording at all: the run book holds no recorder.
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
/// the bytes cannot depend on float accumulation.
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

/// One closed round, as a protocol folds its shards' samples
/// (`schedulers::node::Protocol::round_row`): the run book takes the
/// queue series' value and the pending count, the open timeline row the
/// rest.
#[derive(Debug, Clone, Copy)]
pub struct RoundRow {
    /// The queue series' value (the figures' left-panel quantity).
    pub queue: f64,
    /// Transactions pending (the quantity Theorems 2–3 bound).
    pub pending: u64,
    /// The round's epoch on the timeline.
    pub epoch: u64,
    /// Shards owning placement.
    pub active: u64,
}

/// What the metrics plane records beyond the run book: the latency
/// histogram, commits per home shard and the epoch timeline. The book
/// (`schedulers::metrics::MetricsCollector`) counts the run's rounds and
/// decisions; a row's commits, aborts and flips are differences of its
/// totals.
#[derive(Debug)]
pub struct MetricsRecorder {
    hist: LatencyHist,
    per_shard_commits: Vec<u64>,
    timeline: Vec<EpochRow>,
    /// The open row (`rounds == 0` until the first close).
    cur: EpochRow,
    /// The book's `[commits, aborts, byz_flips]` at the last close.
    booked: [u64; 3],
}

impl MetricsRecorder {
    /// A recorder for `shards` home shards.
    pub fn new(shards: usize) -> Self {
        MetricsRecorder {
            hist: LatencyHist::new(),
            per_shard_commits: vec![0; shards],
            timeline: Vec::new(),
            cur: EpochRow::default(),
            booked: [0; 3],
        }
    }

    /// Records a commit for home shard `home` with its latency in rounds.
    pub fn on_commit(&mut self, home: usize, latency: u64) {
        self.hist.record(latency);
        if let Some(commits) = self.per_shard_commits.get_mut(home) {
            *commits += 1;
        }
    }

    /// Closes round `round` (0-based) as `row`, with `crashed` shards
    /// down. `totals` is the book's `[commits, aborts, byz_flips]` so far;
    /// what it gained since the last close belongs to this round's row,
    /// so a rollover round's decisions land in the new epoch.
    pub fn close_round(&mut self, round: u64, row: &RoundRow, crashed: u64, totals: [u64; 3]) {
        if self.cur.rounds > 0 && row.epoch != self.cur.epoch {
            self.timeline.push(std::mem::take(&mut self.cur));
            self.cur.start_round = round;
        }
        self.credit(totals);
        let cur = &mut self.cur;
        cur.epoch = row.epoch;
        cur.rounds += 1;
        cur.pending_sum += row.pending;
        cur.pending_max = cur.pending_max.max(row.pending);
        cur.crashed_shards_max = cur.crashed_shards_max.max(crashed);
        cur.active_shards = cur.active_shards.max(row.active);
    }

    /// Credits the open row with what `totals` gained since the last close.
    fn credit(&mut self, totals: [u64; 3]) {
        let [commits, aborts, flips] = std::array::from_fn(|i| totals[i] - self.booked[i]);
        self.cur.commits += commits;
        self.cur.aborts += aborts;
        self.cur.byz_flips += flips;
        self.booked = totals;
    }

    /// The report, given the book's final `[commits, aborts]`: decisions
    /// booked after the last close (a host that decides after its last
    /// sample) still count, in the last row.
    pub fn finish(mut self, [commits, aborts]: [u64; 2]) -> MetricsReport {
        self.credit([commits, aborts, self.booked[2]]);
        if self.cur.rounds > 0 {
            self.timeline.push(self.cur);
        }
        MetricsReport {
            shards: self.per_shard_commits.len(),
            hist: self.hist,
            per_shard_commits: self.per_shard_commits,
            timeline: self.timeline,
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
    pub(crate) fn commits_total(&self) -> u64 {
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

    fn row(pending: u64, epoch: u64, active: u64) -> RoundRow {
        RoundRow {
            queue: 0.0,
            pending,
            epoch,
            active,
        }
    }

    #[test]
    fn rollover_round_commits_belong_to_the_new_epoch() {
        let mut r = MetricsRecorder::new(2);
        // Round 0, epoch 0: one commit.
        r.on_commit(0, 3);
        r.close_round(0, &row(4, 0, 2), 0, [1, 0, 0]);
        // Round 1 rolls into epoch 1; its commit must land in epoch 1.
        r.on_commit(1, 5);
        r.close_round(1, &row(2, 1, 4), 1, [2, 0, 1]);
        let r = r.finish([2, 0]);
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
        let mut r = MetricsRecorder::new(1);
        r.close_round(0, &row(0, 0, 1), 0, [0, 0, 0]);
        r.on_commit(0, 7);
        let r = r.finish([1, 0]);
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
