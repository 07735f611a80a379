//! Per-shard leaky-bucket admission control.
//!
//! A token bucket with rate `ρ` and depth `b` per shard realizes exactly
//! the paper's arrival curve: the congestion a conforming source can add to
//! a shard over any contiguous window of `t` rounds is at most `ρt + b`.
//!
//! Protocol per round: first [`ShardBudgets::tick`] (the bucket level is
//! capped at `b`, then `ρ` tokens accrue), then admissions subtract one
//! token from every shard a transaction accesses. The cap-then-accrue
//! order makes the single-round maximum `b + ρ`, matching the curve at
//! `t = 1`.

use sharding_core::ShardId;

/// Token buckets for all `s` shards.
#[derive(Debug, Clone)]
pub struct ShardBudgets {
    rho: f64,
    burst: f64,
    level: Vec<f64>,
}

impl ShardBudgets {
    /// Creates buckets for `shards` shards with rate `rho` and depth `b`.
    /// Buckets start full (level `b`), so the adversary can burst
    /// immediately at round zero — the adversary's strongest position.
    pub fn new(shards: usize, rho: f64, b: u64) -> Self {
        assert!(rho > 0.0 && rho <= 1.0, "paper restricts 0 < rho <= 1");
        assert!(b >= 1, "paper restricts b >= 1");
        ShardBudgets {
            rho,
            burst: b as f64,
            level: vec![b as f64; shards],
        }
    }

    /// Advances one round: cap at `b`, then accrue `ρ`.
    pub fn tick(&mut self) {
        for l in &mut self.level {
            *l = l.min(self.burst) + self.rho;
        }
    }

    /// Current level of `shard`'s bucket.
    pub fn level(&self, shard: ShardId) -> f64 {
        self.level[shard.index()]
    }

    /// Injection rate `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Burstiness `b`.
    pub fn burstiness(&self) -> u64 {
        self.burst as u64
    }

    /// True when one unit of congestion can be charged to every shard in
    /// `shards` (a candidate transaction's access set).
    pub(crate) fn can_admit(&self, shards: impl IntoIterator<Item = ShardId>) -> bool {
        shards.into_iter().all(|s| self.level[s.index()] >= 1.0)
    }

    /// Charges one unit to every shard in `shards`. Call only once every
    /// shard of the set has a unit to give ([`Self::try_charge`] checks
    /// first).
    pub fn charge(&mut self, shards: impl IntoIterator<Item = ShardId>) {
        for s in shards {
            let l = &mut self.level[s.index()];
            debug_assert!(*l >= 1.0, "charge without admission check");
            *l -= 1.0;
        }
    }

    /// Tries to admit-and-charge atomically; returns whether it succeeded.
    pub fn try_charge(&mut self, shards: impl IntoIterator<Item = ShardId> + Clone) -> bool {
        if self.can_admit(shards.clone()) {
            self.charge(shards);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: u32) -> ShardId {
        ShardId(i)
    }

    #[test]
    fn starts_full_and_admits_burst() {
        let mut b = ShardBudgets::new(2, 0.1, 5);
        b.tick();
        // Round 0 budget: rho*1 + b = 5.1 → 5 admissions of shard 0.
        for _ in 0..5 {
            assert!(b.try_charge([sid(0)]));
        }
        assert!(!b.try_charge([sid(0)]), "sixth admission must fail");
        // Shard 1 untouched.
        assert!(b.try_charge([sid(1)]));
    }

    #[test]
    fn refills_at_rho() {
        let mut b = ShardBudgets::new(1, 0.5, 1);
        b.tick();
        assert!(b.try_charge([sid(0)])); // level 1.5 -> 0.5
        assert!(!b.try_charge([sid(0)]));
        b.tick(); // 0.5 + 0.5 = 1.0
        assert!(b.try_charge([sid(0)]));
        assert!(!b.try_charge([sid(0)]));
    }

    #[test]
    fn level_caps_at_b_plus_rho() {
        let mut b = ShardBudgets::new(1, 0.25, 3);
        for _ in 0..100 {
            b.tick();
        }
        assert!(b.level(sid(0)) <= 3.25 + 1e-9);
        // Long idle then burst: can admit exactly b + floor(rho) = 3 in one round.
        assert_eq!(b.level(sid(0)).floor(), 3.0);
    }

    #[test]
    fn multi_shard_charge_requires_all() {
        let mut b = ShardBudgets::new(2, 0.1, 1);
        b.tick();
        assert!(b.try_charge([sid(0), sid(1)]));
        // Both buckets now at 0.1: a txn touching either fails.
        assert!(!b.try_charge([sid(0)]));
        assert!(!b.try_charge([sid(0), sid(1)]));
    }

    #[test]
    fn window_constraint_never_violated() {
        // Adversarial greedy draining for many rounds must satisfy
        // congestion(window) <= rho * t + b for every window.
        let rho = 0.3;
        let bb = 4u64;
        let mut bucket = ShardBudgets::new(1, rho, bb);
        let mut per_round = Vec::new();
        for _ in 0..500 {
            bucket.tick();
            let mut n = 0u64;
            while bucket.try_charge([sid(0)]) {
                n += 1;
            }
            per_round.push(n);
        }
        // Check all windows.
        let mut prefix = vec![0u64];
        for &n in &per_round {
            prefix.push(prefix.last().unwrap() + n);
        }
        for i in 0..per_round.len() {
            for j in i..per_round.len() {
                let t = (j - i + 1) as f64;
                let cong = (prefix[j + 1] - prefix[i]) as f64;
                assert!(
                    cong <= rho * t + bb as f64 + 1e-9,
                    "window [{i},{j}]: {cong} > {}",
                    rho * t + bb as f64
                );
            }
        }
        // And the long-run rate approaches rho (not wasting budget).
        let total: u64 = per_round.iter().sum();
        assert!(
            total as f64 >= rho * 500.0 - 2.0,
            "greedy drain achieves the rate"
        );
    }
}
