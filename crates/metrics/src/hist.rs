//! Fixed-bucket log-scale latency histogram.
//!
//! Bucket layout (HDR-style, integer-only):
//!
//! * values `0..64` each get their own bucket (exact low end — small-run
//!   quantiles match a sorted-array oracle exactly);
//! * every power-of-two octave `[2^e, 2^{e+1})` for `e in 6..=63` is split
//!   into 8 linear sub-buckets of width `2^{e-3}` (relative quantile error
//!   bounded by 12.5%).
//!
//! That is `64 + 58 * 8 = 528` buckets covering all of `u64`. The layout
//! is a frozen part of the golden-file contract: changing it shifts every
//! checked-in percentile column, so the boundary tests in this crate pin
//! it bucket by bucket.

/// Values below this are their own bucket.
const LINEAR_MAX: u64 = 64;
/// Sub-buckets per octave (`1 << SUB_BITS`).
const SUB_BITS: u32 = 3;
/// First octave exponent above the linear range.
const FIRST_OCTAVE: u32 = 6;
/// Total bucket count: 64 linear + 58 octaves * 8 sub-buckets.
pub const NUM_BUCKETS: usize = 528;

/// Bucket index for a latency value. Total order preserving: `a <= b`
/// implies `bucket_index(a) <= bucket_index(b)`.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // 2^e <= v < 2^{e+1}, e >= 6
        let sub = ((v - (1u64 << e)) >> (e - SUB_BITS)) as usize;
        LINEAR_MAX as usize + ((e - FIRST_OCTAVE) as usize) * (1 << SUB_BITS) + sub
    }
}

/// Largest value that maps into bucket `idx`; this is what quantiles
/// report, so equal histograms always yield equal percentile bytes.
pub(crate) fn bucket_upper(idx: usize) -> u64 {
    debug_assert!(idx < NUM_BUCKETS);
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_MAX as usize;
        let e = (rel / (1 << SUB_BITS)) as u32 + FIRST_OCTAVE;
        let sub = (rel % (1 << SUB_BITS)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        // low + width - 1; for the topmost bucket this is exactly u64::MAX.
        (1u64 << e) + sub * width + (width - 1)
    }
}

/// Log-scale latency histogram with `u64` counts.
///
/// Recording is integer addition into a fixed bucket and involves no
/// floats, so the same observations give byte-identical quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// The bucket a value falls into (exposed for boundary-pinning tests
    /// and bucket-exactness oracles).
    pub fn bucket_of(v: u64) -> usize {
        bucket_index(v)
    }

    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
        }
    }

    /// Records one latency observation (in rounds).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations at once, so tests can reach
    /// near-`u64::MAX` totals without `u64::MAX` loop iterations.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        self.counts[bucket_index(v)] += n;
        self.total = self
            .total
            .checked_add(n)
            .expect("latency histogram total overflowed u64");
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Quantile in parts-per-million (`500_000` = p50, `999_000` = p99.9),
    /// reported as the upper bound of the bucket holding the target rank
    /// `ceil(total * ppm / 1_000_000)`. Integer arithmetic throughout
    /// (`u128` intermediate, no overflow for any `u64` total).
    ///
    /// Edges are pinned, not accidental: an empty histogram and `ppm = 0`
    /// both return 0 (the 0th quantile of any distribution is the empty
    /// infimum, never a recorded value), `ppm >= 1_000_000` saturates at
    /// the maximum recorded bucket, and a single observation answers
    /// every `ppm >= 1` with its own bucket.
    pub fn quantile_ppm(&self, ppm: u32) -> u64 {
        if self.total == 0 || ppm == 0 {
            return 0;
        }
        // ppm >= 1 makes the ceiling at least 1; the min() saturates
        // ppm > 1_000_000 at the max recorded value.
        let target = (self.total as u128 * ppm as u128)
            .div_ceil(1_000_000)
            .min(self.total as u128);
        let mut cum: u128 = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c as u128;
            if cum >= target {
                return bucket_upper(idx);
            }
        }
        unreachable!("cumulative count reaches total")
    }

    /// Median latency (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile_ppm(500_000)
    }

    /// 99th-percentile latency (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile_ppm(990_000)
    }

    /// 99.9th-percentile latency (bucket upper bound).
    pub fn p999(&self) -> u64 {
        self.quantile_ppm(999_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_over_boundaries() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            71,
            72,
            127,
            128,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below value at {v}");
            prev = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn top_bucket_covers_u64_max() {
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    /// Exact sorted-array oracle: rank `ceil(total * ppm / 1e6)` into
    /// the sorted observations, then the bucket upper bound of that
    /// element. Values below LINEAR_MAX have exact buckets, so oracle
    /// and histogram must agree to the byte.
    fn oracle(values: &mut [u64], ppm: u32) -> u64 {
        if values.is_empty() || ppm == 0 {
            return 0;
        }
        values.sort_unstable();
        let rank = ((values.len() as u128 * ppm as u128).div_ceil(1_000_000))
            .min(values.len() as u128)
            .max(1) as usize;
        bucket_upper(bucket_index(values[rank - 1]))
    }

    #[test]
    fn quantiles_match_sorted_oracle_exactly() {
        let mut h = LatencyHist::new();
        let mut values: Vec<u64> = (0..50).map(|i| (i * 7 + 3) % 60).collect();
        for &v in &values {
            h.record(v);
        }
        for ppm in [0, 1, 10_000, 250_000, 500_000, 990_000, 999_000, 1_000_000] {
            assert_eq!(h.quantile_ppm(ppm), oracle(&mut values, ppm), "ppm = {ppm}");
        }
    }

    #[test]
    fn ppm_zero_is_zero_even_with_data() {
        let mut h = LatencyHist::new();
        h.record(40);
        h.record(50);
        assert_eq!(h.quantile_ppm(0), 0, "0th quantile is never a sample");
        assert_eq!(LatencyHist::new().quantile_ppm(0), 0);
    }

    #[test]
    fn single_observation_answers_every_quantile() {
        let mut h = LatencyHist::new();
        h.record(37);
        // total = 1: rank ceil(1 * ppm / 1e6) = 1 for every ppm >= 1,
        // so the lone sample IS p50, p99, and p99.9.
        for ppm in [1, 500_000, 990_000, 999_000, 1_000_000] {
            assert_eq!(h.quantile_ppm(ppm), 37, "ppm = {ppm}");
        }
        assert_eq!(h.p999(), 37);
    }

    #[test]
    fn u128_intermediate_survives_u64_max_total() {
        // total * ppm at the overflow boundary: u64::MAX observations
        // times 1e6 overflows u64 by far but must not overflow the
        // u128 intermediate or misrank.
        let mut h = LatencyHist::new();
        h.record_n(10, u64::MAX - 1);
        h.record_n(63, 1);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile_ppm(500_000), 10);
        assert_eq!(
            h.quantile_ppm(1_000_000),
            63,
            "the top rank lands on the single max sample"
        );
        assert_eq!(
            h.quantile_ppm(999_999),
            10,
            "one sample is < 1 ppm of total"
        );
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = LatencyHist::new();
        let mut loops = LatencyHist::new();
        bulk.record_n(100, 5);
        bulk.record_n(3, 2);
        for _ in 0..5 {
            loops.record(100);
        }
        for _ in 0..2 {
            loops.record(3);
        }
        assert_eq!(bulk, loops);
    }
}
