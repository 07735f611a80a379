//! Intra-shard consensus.
//!
//! The paper assumes (Section 3) that each shard runs PBFT internally,
//! one consensus per round, with `n_i > 3 f_i`. The timing is abstracted
//! (everything resolves within the round), but the quorum arithmetic is
//! executed for real, so tests can inject Byzantine behaviour and watch
//! decisions survive (or watch construction be rejected when `n ≤ 3f`).
//! This is the model, not a run path: since a quota clamped to `f` never
//! changes a decision, the hosts only count it (`byz_flips`).
//! (Reliable inter-shard transmission — the cluster-sending protocol the
//! paper cites — is assumed, not modelled: the fault plane drops and
//! duplicates whole shard-to-shard messages instead.)

use sharding_core::{Error, Result, ShardId};

/// A node's vote in a PBFT phase: the digest it endorses, or silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Endorses a proposal digest.
    For(u64),
    /// Faulty/silent node: no vote.
    Silent,
}

/// Outcome of one intra-shard consensus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusOutcome {
    /// The shard agreed on the digest within the round.
    Decided(u64),
    /// No quorum (possible only if the fault bound is violated at runtime).
    NoQuorum,
}

/// A shard's PBFT membership: `n` nodes of which at most `f` are Byzantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbftShard {
    nodes: usize,
    faulty: usize,
}

impl PbftShard {
    /// Creates the membership; rejects `n ≤ 3f`.
    pub fn new(shard: ShardId, nodes: usize, faulty: usize) -> Result<Self> {
        if nodes <= 3 * faulty {
            return Err(Error::InsufficientQuorum {
                shard,
                nodes,
                faulty,
            });
        }
        Ok(PbftShard { nodes, faulty })
    }

    /// The PBFT quorum size `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.faulty + 1
    }

    /// Runs one consensus instance on `proposal` given each node's vote
    /// behaviour. `votes[i]` is node `i`'s (prepare-phase) vote; honest
    /// nodes vote `For(proposal)`. Decides iff at least `2f+1` nodes
    /// endorse the same digest (the prepare+commit certificates collapse
    /// into one counted phase because timing is sub-round here).
    pub fn decide(&self, proposal: u64, votes: &[Vote]) -> ConsensusOutcome {
        assert_eq!(votes.len(), self.nodes, "one vote slot per node");
        let mut counts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for v in votes {
            if let Vote::For(d) = v {
                *counts.entry(*d).or_default() += 1;
            }
        }
        // Deterministic: highest count wins, ties toward smaller digest.
        let winner = counts
            .iter()
            .max_by_key(|(digest, count)| (**count, std::cmp::Reverse(**digest)))
            .map(|(d, c)| (*d, *c));
        match winner {
            Some((digest, count)) if count >= self.quorum() => {
                debug_assert!(
                    digest == proposal || count > self.nodes - self.quorum(),
                    "only an equivocating majority can displace the proposal"
                );
                ConsensusOutcome::Decided(digest)
            }
            _ => ConsensusOutcome::NoQuorum,
        }
    }

    /// Consensus with `flips` Byzantine voters equivocating for the
    /// bit-flipped digest and everyone else honest. `flips` is clamped to
    /// the declared bound `f` — the membership was constructed under
    /// `n > 3f`, so a clamped flip count can never block or hijack the
    /// decision. That is why the hosts' fault plane counts the
    /// `byzantine-votes` quota against `f` rather than running an
    /// instance per shard-round.
    pub fn decide_with_byzantine(&self, proposal: u64, flips: usize) -> ConsensusOutcome {
        let mut votes = vec![Vote::For(proposal); self.nodes];
        votes[..flips.min(self.faulty)].fill(Vote::For(!proposal));
        self.decide(proposal, &votes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_insufficient_quorum() {
        assert!(PbftShard::new(ShardId(0), 3, 1).is_err());
        assert!(PbftShard::new(ShardId(0), 4, 1).is_ok());
        assert!(PbftShard::new(ShardId(0), 6, 2).is_err());
        assert!(PbftShard::new(ShardId(0), 7, 2).is_ok());
    }

    #[test]
    fn decides_with_silent_faults() {
        let p = PbftShard::new(ShardId(0), 4, 1).unwrap();
        let votes = [Vote::Silent, Vote::For(42), Vote::For(42), Vote::For(42)];
        assert_eq!(p.decide(42, &votes), ConsensusOutcome::Decided(42));
    }

    #[test]
    fn no_quorum_when_too_many_actual_faults() {
        // Declared f=1 (n=4) but 2 nodes actually silent: quorum 3 of the
        // remaining 2 honest votes is unreachable.
        let p = PbftShard::new(ShardId(0), 4, 1).unwrap();
        let votes = vec![Vote::Silent, Vote::Silent, Vote::For(5), Vote::For(5)];
        assert_eq!(p.decide(5, &votes), ConsensusOutcome::NoQuorum);
    }

    #[test]
    fn faulty_minority_cannot_hijack() {
        let p = PbftShard::new(ShardId(0), 10, 3).unwrap();
        // 3 faulty all vote for a different digest; 7 honest for proposal.
        let mut votes = vec![Vote::For(1); 10];
        for v in votes.iter_mut().take(3) {
            *v = Vote::For(666);
        }
        assert_eq!(p.decide(1, &votes), ConsensusOutcome::Decided(1));
    }

    /// The fault-injection guarantee the scenario engine's `byzantine-
    /// votes` key rides on: with the full declared `f` voters flipped,
    /// every viable `(n, f)` membership still decides the proposal.
    #[test]
    fn full_byzantine_quota_never_blocks_viable_memberships() {
        for (n, f) in [(4, 1), (5, 1), (7, 2), (10, 3), (13, 4), (16, 5)] {
            let p = PbftShard::new(ShardId(0), n, f).unwrap();
            for flips in 0..=f {
                assert_eq!(
                    p.decide_with_byzantine(0xD1CE, flips),
                    ConsensusOutcome::Decided(0xD1CE),
                    "n={n} f={f} flips={flips}"
                );
            }
        }
    }

    #[test]
    fn byzantine_flips_clamp_to_declared_bound() {
        let p = PbftShard::new(ShardId(0), 4, 1).unwrap();
        // Requesting more flips than f must not break the decision: the
        // membership only ever contains f Byzantine nodes.
        assert_eq!(
            p.decide_with_byzantine(7, 100),
            ConsensusOutcome::Decided(7)
        );
    }

    /// `n = 3f` is exactly the boundary the model rejects; every such
    /// membership must fail construction (the scenario engine surfaces
    /// this as a plan-time error).
    #[test]
    fn n_equals_3f_is_rejected_for_all_small_f() {
        for f in 1..=8 {
            assert!(
                PbftShard::new(ShardId(0), 3 * f, f).is_err(),
                "n=3f={} must be rejected",
                3 * f
            );
            assert!(PbftShard::new(ShardId(0), 3 * f + 1, f).is_ok());
        }
    }
}
