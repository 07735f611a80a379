//! Measurement utilities: the per-round time series and the queue-growth
//! stability detector used to classify runs.
//!
//! The paper's evaluation reports *average pending-queue size* and *average
//! transaction latency* (Figures 2–3) and its theory distinguishes *stable*
//! (bounded queues) from *unstable* executions. This module provides the
//! queue side of that machinery, deliberately free of any scheduler
//! knowledge; the run book keeps the latency mean itself.

use serde::{Deserialize, Serialize};

/// A per-round sampled series, e.g. total pending queue length each round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<f64>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// All samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Least-squares slope of the series against its index (units per
    /// sample). Positive slope on queue-length series indicates growth.
    pub(crate) fn slope(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let nf = n as f64;
        let mean_x = (nf - 1.0) / 2.0;
        let mean_y = self.mean();
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in self.samples.iter().enumerate() {
            let dx = i as f64 - mean_x;
            sxy += dx * (y - mean_y);
            sxx += dx * dx;
        }
        if sxx == 0.0 {
            0.0
        } else {
            sxy / sxx
        }
    }
}

/// Verdict of the stability detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityVerdict {
    /// Queues are bounded: the tail of the run does not trend upward.
    Stable,
    /// Queues grow without bound over the run.
    Unstable,
    /// Not enough data to decide.
    Inconclusive,
}

/// Classifies a queue-length time series as stable or unstable.
///
/// Heuristic matching how the AQT literature (and the paper's Section 7
/// plots) distinguish the regimes: compare the mean of the last quarter of
/// the run against the mean of the second quarter (skipping warm-up /
/// injected burst), and require a clearly positive trend for `Unstable`.
#[derive(Debug, Clone, Copy)]
pub struct StabilityDetector {
    /// Ratio of tail-mean to reference-mean above which the run is
    /// declared unstable (default 2.0).
    pub growth_ratio: f64,
    /// Minimum samples needed for a verdict (default 64).
    pub min_samples: usize,
}

impl Default for StabilityDetector {
    fn default() -> Self {
        StabilityDetector {
            growth_ratio: 2.0,
            min_samples: 64,
        }
    }
}

impl StabilityDetector {
    /// Classifies `series` (one sample per round, queue length).
    pub fn classify(&self, series: &TimeSeries) -> StabilityVerdict {
        let s = series.samples();
        if s.len() < self.min_samples {
            return StabilityVerdict::Inconclusive;
        }
        let q = s.len() / 4;
        let reference: f64 = s[q..2 * q].iter().sum::<f64>() / q as f64;
        let tail: f64 = s[3 * q..].iter().sum::<f64>() / (s.len() - 3 * q) as f64;
        // Slope in units per round over the latter half.
        let mut half = TimeSeries::new();
        for &v in &s[s.len() / 2..] {
            half.push(v);
        }
        let trending_up = half.slope() > 1e-6;
        let small_queues = tail < 1.0;
        if small_queues {
            return StabilityVerdict::Stable;
        }
        if tail > self.growth_ratio * reference.max(1.0) && trending_up {
            StabilityVerdict::Unstable
        } else {
            StabilityVerdict::Stable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_linear_series() {
        let mut t = TimeSeries::new();
        for i in 0..100 {
            t.push(3.0 * i as f64 + 7.0);
        }
        assert!((t.slope() - 3.0).abs() < 1e-9);
        let mut flat = TimeSeries::new();
        for _ in 0..100 {
            flat.push(5.0);
        }
        assert!(flat.slope().abs() < 1e-12);
    }

    #[test]
    fn detector_flags_linear_growth() {
        let mut t = TimeSeries::new();
        for i in 0..1000 {
            t.push(i as f64 * 0.5);
        }
        assert_eq!(
            StabilityDetector::default().classify(&t),
            StabilityVerdict::Unstable
        );
    }

    #[test]
    fn detector_accepts_bounded_queue() {
        let mut t = TimeSeries::new();
        for i in 0..1000 {
            // Oscillating but bounded.
            t.push(10.0 + (i as f64 * 0.7).sin() * 5.0);
        }
        assert_eq!(
            StabilityDetector::default().classify(&t),
            StabilityVerdict::Stable
        );
    }

    #[test]
    fn detector_accepts_burst_that_drains() {
        let mut t = TimeSeries::new();
        for i in 0..1000 {
            // A big initial burst that drains to zero: stable.
            t.push((500.0 - i as f64).max(0.0));
        }
        assert_eq!(
            StabilityDetector::default().classify(&t),
            StabilityVerdict::Stable
        );
    }

    #[test]
    fn detector_inconclusive_when_short() {
        let mut t = TimeSeries::new();
        t.push(1.0);
        assert_eq!(
            StabilityDetector::default().classify(&t),
            StabilityVerdict::Inconclusive
        );
    }
}
