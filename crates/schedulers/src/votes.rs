//! What a protocol node keeps per transaction in flight: one vote per
//! destination (its maps are `sharding_core::hash`'s). Both nodes use
//! it; neither host sees it.

/// One vote per destination of a transaction, recorded by the
/// destination's position in `txn.subs`: a repeated vote (a fault-plane
/// duplicate) overwrites and never counts twice, so faults may strand a
/// transaction but never decide it early. Transactions touching at most
/// 64 shards — all but contrived ones — allocate nothing.
#[derive(Debug)]
pub(crate) struct VoteSet {
    /// `[voted, commit]` bits of subs `0..64`.
    head: [u64; 2],
    /// The same pair for each further 64 subs (`k_max` may reach `s`).
    tail: Vec<[u64; 2]>,
    missing: usize,
}

impl VoteSet {
    pub(crate) fn new(subs: usize) -> Self {
        VoteSet {
            head: [0; 2],
            tail: vec![[0; 2]; subs.saturating_sub(1) / 64],
            missing: subs,
        }
    }

    /// Records the vote of `txn.subs[pos]`'s shard; true once every
    /// destination has voted.
    pub(crate) fn record(&mut self, pos: usize, commit: bool) -> bool {
        let word = match pos / 64 {
            0 => &mut self.head,
            w => &mut self.tail[w - 1],
        };
        let bit = 1u64 << (pos % 64);
        self.missing -= usize::from(word[0] & bit == 0);
        word[0] |= bit;
        word[1] = (word[1] & !bit) | (u64::from(commit) << (pos % 64));
        self.missing == 0
    }

    /// Whether every recorded vote is a commit.
    pub(crate) fn all_commit(&self) -> bool {
        std::iter::once(&self.head)
            .chain(&self.tail)
            .all(|w| w[0] == w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_vote_overwrites_and_never_completes_the_set() {
        let mut votes = VoteSet::new(3);
        assert!(!votes.record(0, true));
        assert!(!votes.record(0, true), "a duplicate is not a second voter");
        assert!(!votes.record(2, false));
        assert!(votes.record(1, true));
        assert!(!votes.all_commit());
        votes.record(2, true);
        assert!(votes.all_commit(), "the last vote of a destination counts");
    }

    #[test]
    fn destinations_past_64_use_the_tail_words() {
        let mut votes = VoteSet::new(130);
        for pos in (0..130).rev() {
            assert_eq!(votes.record(pos, pos != 129), pos == 0);
        }
        assert!(!votes.all_commit());
        votes.record(129, true);
        assert!(votes.all_commit());
    }
}
