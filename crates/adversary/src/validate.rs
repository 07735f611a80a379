//! Trace validation: checks a recorded injection trace against the
//! `(ρ, b)` constraint over **every** contiguous window.
//!
//! Used in tests to prove the generator conforming, and available to users
//! who bring their own traces (e.g. replayed production workloads) and want
//! to know the tightest `(ρ, b)` that admits them.
//!
//! The check is `O(T·s)` rather than `O(T²·s)`: for a per-round congestion
//! sequence `a_0 … a_{T-1}` on one shard, the constraint
//! `Σ_{r=i..j} a_r ≤ ρ(j−i+1) + b` for all `i ≤ j` is equivalent to
//! `max_j (B_j − min_{i ≤ j} B_{i−1}) ≤ b` where `B_j = Σ_{r≤j} a_r − ρ(j+1)`
//! — a single pass with a running minimum.

use sharding_core::{Error, Result, ShardId, Transaction};

/// Accumulates per-round, per-shard congestion from generated batches.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    shards: usize,
    /// `rounds[r][s]` = congestion added to shard `s` during round `r`.
    rounds: Vec<Vec<u32>>,
}

impl TraceRecorder {
    /// New recorder for `shards` shards.
    pub fn new(shards: usize) -> Self {
        TraceRecorder {
            shards,
            rounds: Vec::new(),
        }
    }

    /// Records the batch injected during the next round.
    pub fn record_round<'a>(&mut self, batch: impl Iterator<Item = &'a Transaction>) {
        let mut row = vec![0u32; self.shards];
        for t in batch {
            for s in t.shards() {
                row[s.index()] += 1;
            }
        }
        self.rounds.push(row);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total congestion added to `shard` over the whole trace.
    pub fn total(&self, shard: ShardId) -> u64 {
        self.rounds.iter().map(|r| r[shard.index()] as u64).sum()
    }
}

/// Validates `trace` against `(rho, b)`; returns the first violation found.
pub fn validate_trace(trace: &TraceRecorder, rho: f64, b: u64) -> Result<()> {
    for s in 0..trace.shards {
        // Running B_j and its minimum over prefixes (B_{-1} = 0).
        let mut min_prev = 0.0f64;
        let mut sum = 0.0f64;
        for (j, row) in trace.rounds.iter().enumerate() {
            sum += row[s] as f64;
            let bj = sum - rho * (j as f64 + 1.0);
            let slack = bj - min_prev;
            if slack > b as f64 + 1e-9 {
                return Err(Error::AdmissionViolation {
                    shard: ShardId(s as u32),
                    window: j as u64 + 1,
                    observed: sum,
                    budget: rho * (j as f64 + 1.0) + b as f64,
                });
            }
            min_prev = min_prev.min(bj);
        }
    }
    Ok(())
}

/// Computes, for a fixed `rho`, the smallest burstiness `b*` that admits the
/// trace (the trace's empirical burstiness at that rate).
pub fn tightest_burstiness(trace: &TraceRecorder, rho: f64) -> f64 {
    let mut worst: f64 = 0.0;
    for s in 0..trace.shards {
        let mut min_prev = 0.0f64;
        let mut sum = 0.0f64;
        for (j, row) in trace.rounds.iter().enumerate() {
            sum += row[s] as f64;
            let bj = sum - rho * (j as f64 + 1.0);
            worst = worst.max(bj - min_prev);
            min_prev = min_prev.min(bj);
        }
    }
    worst.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_from_rows(shards: usize, rows: &[&[u32]]) -> TraceRecorder {
        let mut t = TraceRecorder::new(shards);
        for r in rows {
            assert_eq!(r.len(), shards);
            t.rounds.push(r.to_vec());
        }
        t
    }

    #[test]
    fn accepts_conforming_trace() {
        // rho = 0.5, b = 1: alternating 1,0,1,0 conforms.
        let t = trace_from_rows(1, &[&[1], &[0], &[1], &[0], &[1]]);
        validate_trace(&t, 0.5, 1).unwrap();
    }

    #[test]
    fn rejects_sustained_overload() {
        // rho = 0.5, b = 1: constant 1/round violates at t = 3
        // (3 > 0.5*3 + 1 = 2.5).
        let t = trace_from_rows(1, &[&[1], &[1], &[1], &[1]]);
        let err = validate_trace(&t, 0.5, 1).unwrap_err();
        assert!(matches!(err, Error::AdmissionViolation { .. }));
    }

    #[test]
    fn burst_within_budget_ok() {
        // b = 5 allows a one-round burst of 5 at rho = 0.1.
        let t = trace_from_rows(1, &[&[5], &[0], &[0]]);
        validate_trace(&t, 0.1, 5).unwrap();
        // But 6 violates.
        let t = trace_from_rows(1, &[&[6]]);
        assert!(validate_trace(&t, 0.1, 5).is_err());
    }

    #[test]
    fn violation_detected_mid_trace_after_quiet_period() {
        // Quiet start must not launder a later burst: windows are checked
        // from every start point.
        let mut rows: Vec<&[u32]> = vec![&[0]; 50];
        rows.push(&[4]);
        rows.push(&[4]);
        let t = trace_from_rows(1, &rows);
        // Window [50,51]: 8 > 0.5*2 + 5 = 6.
        assert!(validate_trace(&t, 0.5, 5).is_err());
    }

    #[test]
    fn per_shard_independence() {
        // Shard 1 violates, shard 0 clean.
        let t = trace_from_rows(2, &[&[0, 3], &[0, 3], &[0, 3]]);
        let err = validate_trace(&t, 0.5, 2).unwrap_err();
        match err {
            Error::AdmissionViolation { shard, .. } => assert_eq!(shard, ShardId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tightest_burstiness_matches_validation_boundary() {
        let t = trace_from_rows(1, &[&[3], &[0], &[2], &[0], &[0]]);
        let rho = 0.4;
        let b_star = tightest_burstiness(&t, rho);
        // Validation passes at ceil(b*) and fails just below.
        validate_trace(&t, rho, b_star.ceil() as u64).unwrap();
        assert!(validate_trace(&t, rho, (b_star - 1.0).max(0.0) as u64).is_err());
    }

    #[test]
    fn empty_trace_conforms() {
        let t = TraceRecorder::new(4);
        validate_trace(&t, 0.1, 1).unwrap();
        assert_eq!(tightest_burstiness(&t, 0.1), 0.0);
    }
}
