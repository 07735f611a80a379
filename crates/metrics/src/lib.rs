//! Deterministic observability plane for the blockshard engines.
//!
//! Everything in this crate is integer-only on the record path so that
//! metrics output is byte-identical across worker-thread counts and
//! across the `sim`/`net` engines: histograms count `u64` latencies into
//! fixed log-scale buckets, quantiles resolve to exact bucket upper
//! bounds, and the per-epoch timeline carries raw sums/maxima rather than
//! averages. The only floats appear at the very edge, when a report
//! formats `util_min_shard` for humans.
//!
//! A run book (`schedulers::metrics::MetricsCollector`) holds a
//! [`MetricsRecorder`] only when a job turns the plane on: it hands the
//! recorder each commit and, as it closes a round, the round's
//! [`RoundRow`] and its own decision totals. Off, there is no recorder,
//! so nothing is computed, allocated, or formatted and existing goldens
//! stay byte-identical.

mod hist;
mod sink;

pub use hist::LatencyHist;
pub use sink::{EpochRow, MetricsMode, MetricsRecorder, MetricsReport, RoundRow};
