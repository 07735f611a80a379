//! Closed-form calculators for every bound proved in the paper.
//!
//! The experiment harness compares measured queue sizes, latencies, and
//! epoch lengths against these expressions, so each theorem lives here as
//! executable code:
//!
//! * [`theorem1_threshold`] — the absolute stability upper bound
//!   `max{2/(k+1), 2/⌊√(2s)⌋}` (Theorem 1).
//! * [`bds_rate_bound`], [`bds_epoch_bound`], [`bds_queue_bound`],
//!   [`bds_latency_bound`] — Algorithm 1 guarantees (Lemma 1, Theorem 2).
//! * [`fds_rate_bound`], [`fds_queue_bound`], [`fds_latency_bound`] —
//!   Algorithm 2 guarantees (Lemmas 2–3, Theorem 3).

/// `⌈√x⌉` computed exactly in integer arithmetic.
pub fn ceil_sqrt(x: usize) -> usize {
    if x == 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as usize;
    // Float sqrt can be off by one in either direction near perfect squares;
    // correct exactly.
    while r * r > x {
        r -= 1;
    }
    while r * r < x {
        r += 1;
    }
    r
}

/// `⌊√x⌋` computed exactly in integer arithmetic.
pub fn floor_sqrt(x: usize) -> usize {
    let c = ceil_sqrt(x);
    if c * c == x || c == 0 {
        c
    } else {
        c - 1
    }
}

/// The largest `p ≥ 0` with `p(p+1)/2 ≤ s` (Case 2 of Theorem 1).
pub fn max_triangular_p(s: usize) -> usize {
    // p = floor((-1 + sqrt(1+8s)) / 2); compute exactly by search from the
    // float estimate.
    let mut p = (((1.0 + 8.0 * s as f64).sqrt() - 1.0) / 2.0) as usize;
    while (p + 1) * (p + 2) / 2 <= s {
        p += 1;
    }
    while p > 0 && p * (p + 1) / 2 > s {
        p -= 1;
    }
    p
}

/// Theorem 1: no scheduler can be stable when
/// `ρ > max{ 2/(k+1), 2/⌊√(2s)⌋ }`.
///
/// Returns that threshold. `k ≥ 1`, `s ≥ 1`.
pub fn theorem1_threshold(k: usize, s: usize) -> f64 {
    let a = 2.0 / (k as f64 + 1.0);
    let root = floor_sqrt(2 * s);
    let b = if root == 0 {
        f64::INFINITY
    } else {
        2.0 / root as f64
    };
    a.max(b).min(1.0)
}

/// Lemma 1 / Theorem 2 admissible generation rate for Algorithm 1 (BDS):
/// `ρ ≤ max{ 1/(18k), 1/(18⌈√s⌉) }`.
pub fn bds_rate_bound(k: usize, s: usize) -> f64 {
    let a = 1.0 / (18.0 * k as f64);
    let b = 1.0 / (18.0 * ceil_sqrt(s) as f64);
    a.max(b)
}

/// Lemma 1 (i): maximum epoch length `τ = 18·b·min{k, ⌈√s⌉}` rounds.
pub fn bds_epoch_bound(b: u64, k: usize, s: usize) -> u64 {
    18 * b * k.min(ceil_sqrt(s)) as u64
}

/// Theorem 2: pending transactions at any round are at most `4bs`.
pub fn bds_queue_bound(b: u64, s: usize) -> u64 {
    4 * b * s as u64
}

/// Theorem 2: transaction latency is at most `36·b·min{k, ⌈√s⌉}` rounds.
pub fn bds_latency_bound(b: u64, k: usize, s: usize) -> u64 {
    36 * b * k.min(ceil_sqrt(s)) as u64
}

/// `log₂(s)` as used by the FDS hierarchy; at least 1 to avoid degenerate
/// zero-length epochs for `s = 1, 2`.
pub(crate) fn log2_shards(s: usize) -> f64 {
    (s.max(2) as f64).log2().max(1.0)
}

/// Theorem 3 admissible generation rate for Algorithm 2 (FDS):
/// `ρ ≤ 1/(c₁·d·log²s) · max{1/k, 1/√s}`.
///
/// `d` is the worst distance from any transaction's home shard to the
/// shards it accesses; `c1` is the constant of the theorem.
pub fn fds_rate_bound(c1: f64, d: u64, k: usize, s: usize) -> f64 {
    let lg = log2_shards(s);
    let frac = (1.0 / k as f64).max(1.0 / (s as f64).sqrt());
    frac / (c1 * d.max(1) as f64 * lg * lg)
}

/// Theorem 3: pending transactions at any round are at most `4bs`.
pub fn fds_queue_bound(b: u64, s: usize) -> u64 {
    4 * b * s as u64
}

/// Theorem 3: transaction latency is at most
/// `2·c₁·b·d·log²s·min{k, ⌈√s⌉}` rounds.
pub fn fds_latency_bound(c1: f64, b: u64, d: u64, k: usize, s: usize) -> f64 {
    let lg = log2_shards(s);
    2.0 * c1 * b as f64 * d.max(1) as f64 * lg * lg * k.min(ceil_sqrt(s)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_exact() {
        assert_eq!(ceil_sqrt(0), 0);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(3), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(63), 8);
        assert_eq!(ceil_sqrt(64), 8);
        assert_eq!(ceil_sqrt(65), 9);
        // Near a large perfect square where f64 could wobble.
        let big = 1usize << 52;
        assert_eq!(ceil_sqrt(big), 1 << 26);
        assert_eq!(ceil_sqrt(big + 1), (1 << 26) + 1);
    }

    #[test]
    fn floor_sqrt_exact() {
        assert_eq!(floor_sqrt(0), 0);
        assert_eq!(floor_sqrt(1), 1);
        assert_eq!(floor_sqrt(2), 1);
        assert_eq!(floor_sqrt(3), 1);
        assert_eq!(floor_sqrt(4), 2);
        assert_eq!(floor_sqrt(128), 11); // sqrt(128)=11.31
        assert_eq!(floor_sqrt(121), 11);
    }

    #[test]
    fn triangular_p() {
        // p(p+1)/2 <= s
        assert_eq!(max_triangular_p(1), 1); // 1*2/2 = 1 <= 1
        assert_eq!(max_triangular_p(2), 1);
        assert_eq!(max_triangular_p(3), 2); // 2*3/2 = 3
        assert_eq!(max_triangular_p(10), 4); // 4*5/2 = 10
        assert_eq!(max_triangular_p(64), 10); // 10*11/2 = 55, 11*12/2=66 > 64
    }

    #[test]
    fn theorem1_paper_parameters() {
        // s = 64, k = 8: 2/(k+1) = 2/9 ≈ 0.2222; floor(sqrt(128)) = 11,
        // 2/11 ≈ 0.1818 → threshold = 2/9.
        let t = theorem1_threshold(8, 64);
        assert!((t - 2.0 / 9.0).abs() < 1e-12, "got {t}");
    }

    #[test]
    fn theorem1_sqrt_branch_dominates_for_large_k() {
        // k = 63, s = 64: 2/64 = 0.03125 vs 2/11 ≈ 0.1818 → sqrt branch.
        let t = theorem1_threshold(63, 64);
        assert!((t - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn theorem1_capped_at_one() {
        // k = 1: 2/(1+1) = 1. Never exceeds the physical rate 1.
        assert_eq!(theorem1_threshold(1, 1), 1.0);
    }

    #[test]
    fn bds_bounds_paper_parameters() {
        // s = 64, k = 8: max{1/144, 1/144} = 1/144.
        let r = bds_rate_bound(8, 64);
        assert!((r - 1.0 / 144.0).abs() < 1e-12);
        assert_eq!(bds_epoch_bound(1, 8, 64), 144);
        assert_eq!(bds_queue_bound(2, 64), 512);
        assert_eq!(bds_latency_bound(1, 8, 64), 288);
    }

    #[test]
    fn bds_rate_uses_best_branch() {
        // k large: sqrt branch wins. k = 64, s = 16 → max{1/1152, 1/72}.
        let r = bds_rate_bound(64, 16);
        assert!((r - 1.0 / 72.0).abs() < 1e-12);
    }

    #[test]
    fn fds_bounds_monotone_in_d() {
        let r1 = fds_rate_bound(1.0, 1, 8, 64);
        let r2 = fds_rate_bound(1.0, 8, 8, 64);
        assert!(r1 > r2, "larger distance tightens the admissible rate");
        let l1 = fds_latency_bound(1.0, 1, 1, 8, 64);
        let l2 = fds_latency_bound(1.0, 1, 8, 8, 64);
        assert!(l2 > l1, "latency bound grows with distance");
    }

    #[test]
    fn fds_rate_paper_shape() {
        // s = 64 → log2 s = 6; k = 8 → max{1/8, 1/8} = 1/8.
        let r = fds_rate_bound(1.0, 1, 8, 64);
        assert!((r - (1.0 / 8.0) / 36.0).abs() < 1e-12);
    }

    #[test]
    fn queue_bounds_match_both_algorithms() {
        assert_eq!(bds_queue_bound(3, 64), fds_queue_bound(3, 64));
    }
}
