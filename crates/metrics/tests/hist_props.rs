//! Property + pinning tests for [`metrics::LatencyHist`] — the invariants
//! the golden percentile columns rest on:
//!
//! 1. **Quantiles agree with a sorted-array oracle**: exactly for values
//!    in the linear range, and bucket-exactly everywhere (the reported
//!    upper bound lives in the same bucket as the oracle's rank value).
//! 2. **Bucket boundaries are pinned**: the layout is part of the golden
//!    contract; shifting a boundary shifts every checked-in percentile.

use metrics::LatencyHist;
use proptest::prelude::*;

fn hist_of(vals: &[u64]) -> LatencyHist {
    let mut h = LatencyHist::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// Rank-based oracle: the ceil(n * ppm / 1e6)-th smallest value (1-based),
/// clamped to at least rank 1 — the definition the histogram approximates.
fn oracle(vals: &[u64], ppm: u32) -> u64 {
    let mut sorted = vals.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u128;
    let rank = (n * ppm as u128).div_ceil(1_000_000).clamp(1, n) as usize;
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// In the linear range (values < 64) every value has its own bucket,
    /// so the histogram quantile IS the oracle quantile, exactly.
    #[test]
    fn small_value_quantiles_match_the_oracle_exactly(
        vals in proptest::collection::vec(0u64..64, 1..80),
        ppm in 1u32..=1_000_000,
    ) {
        let h = hist_of(&vals);
        prop_assert_eq!(h.quantile_ppm(ppm), oracle(&vals, ppm));
    }

    /// Everywhere else the reported value is the upper bound of the
    /// bucket that holds the oracle's rank value — never a different
    /// bucket, never below the oracle.
    #[test]
    fn quantiles_are_bucket_exact(
        vals in proptest::collection::vec(proptest::any::<u64>(), 1..80),
        ppm in 1u32..=1_000_000,
    ) {
        let h = hist_of(&vals);
        let got = h.quantile_ppm(ppm);
        let want = oracle(&vals, ppm);
        prop_assert!(got >= want, "quantile {got} below oracle {want}");
        prop_assert_eq!(
            metrics::LatencyHist::bucket_of(got),
            metrics::LatencyHist::bucket_of(want),
            "quantile {} not in the oracle value {}'s bucket", got, want
        );
    }
}

/// The frozen bucket layout, boundary by boundary. If any of these move,
/// every checked-in campaign golden's percentile columns shift — treat a
/// failure here as "regenerate goldens and explain why", never as "fix
/// the test".
#[test]
fn bucket_boundaries_are_pinned() {
    // Linear range: identity.
    for v in [0u64, 1, 13, 63] {
        assert_eq!(LatencyHist::bucket_of(v), v as usize);
    }
    // First octave [64, 128): 8 sub-buckets of width 8.
    assert_eq!(LatencyHist::bucket_of(64), 64);
    assert_eq!(LatencyHist::bucket_of(71), 64);
    assert_eq!(LatencyHist::bucket_of(72), 65);
    assert_eq!(LatencyHist::bucket_of(127), 71);
    // Second octave [128, 256): width 16.
    assert_eq!(LatencyHist::bucket_of(128), 72);
    assert_eq!(LatencyHist::bucket_of(143), 72);
    assert_eq!(LatencyHist::bucket_of(144), 73);
    // Top of the space.
    assert_eq!(LatencyHist::bucket_of(u64::MAX), 527);
}

/// Quantiles of a known distribution, pinned to exact bytes.
#[test]
fn known_distribution_quantiles_are_pinned() {
    let h = hist_of(&(1..=100).collect::<Vec<u64>>());
    assert_eq!(h.p50(), 50); // linear range: exact
    assert_eq!(h.p99(), 103); // 99 lives in bucket [96, 104), upper 103
    assert_eq!(h.p999(), 103); // rank 100 -> value 100, same bucket
    assert_eq!(h.quantile_ppm(1), 1);
    assert_eq!(h.quantile_ppm(1_000_000), 103);
    assert_eq!(LatencyHist::new().quantile_ppm(500_000), 0);
}
