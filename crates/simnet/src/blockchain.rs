//! Per-shard local blockchains.
//!
//! Each destination shard appends the subtransactions it commits to a local
//! hash-linked chain; the global ledger is the union of local chains
//! (Section 3, following the lockless-sharding construction the paper
//! cites). The paper's algorithms assume one transaction per block but note
//! they "can be extended to accommodate multiple transactions per block" —
//! blocks here hold a batch: every subtransaction a shard commits within
//! one round forms one block ([`LocalChain::append_block`]);
//! [`LocalChain::append`] is the single-subtransaction convenience.
//!
//! Hashing is a deterministic non-cryptographic FNV-1a — the simulation
//! needs link *integrity checking*, not adversarial collision resistance
//! (and the std `DefaultHasher` is randomly keyed per process, which would
//! break run reproducibility).

use serde::{Deserialize, Serialize};
use sharding_core::txn::SubTransaction;
use sharding_core::{Round, ShardId, TxnId};

/// A streaming 64-bit FNV-1a state — deterministic across runs and
/// platforms, and fed field by field so hashing a block copies nothing.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// One block of a local chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Position in the chain (genesis is height 0 and holds no payload).
    pub height: u64,
    /// Hash of the previous block.
    pub parent: u64,
    /// Hash of this block (over height, parent, payload, round).
    pub hash: u64,
    /// The committed subtransactions (empty only for genesis).
    pub subs: Vec<SubTransaction>,
    /// Round at which the commit happened.
    pub round: Round,
}

impl Block {
    /// FNV-1a over the little-endian bytes of height, parent, round and
    /// then, per sub in order, its id, destination, conditions and
    /// actions.
    fn compute_hash(height: u64, parent: u64, subs: &[SubTransaction], round: Round) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&height.to_le_bytes());
        h.write(&parent.to_le_bytes());
        h.write(&round.raw().to_le_bytes());
        for s in subs {
            h.write(&s.txn.raw().to_le_bytes());
            h.write(&s.dest.raw().to_le_bytes());
            for c in &s.conditions {
                h.write(&c.account.raw().to_le_bytes());
                h.write(&c.min_balance.to_le_bytes());
            }
            for a in &s.actions {
                h.write(&a.account.raw().to_le_bytes());
                h.write(&a.delta.to_le_bytes());
            }
        }
        h.0
    }
}

/// A shard's local blockchain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalChain {
    shard: ShardId,
    blocks: Vec<Block>,
    subs: usize,
}

impl LocalChain {
    /// A fresh chain for `shard` containing only the genesis block.
    pub fn new(shard: ShardId) -> Self {
        let genesis_hash = Block::compute_hash(0, 0, &[], Round::ZERO);
        LocalChain {
            shard,
            blocks: vec![Block {
                height: 0,
                parent: 0,
                hash: genesis_hash,
                subs: Vec::new(),
                round: Round::ZERO,
            }],
            subs: 0,
        }
    }

    /// The owning shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Appends a block holding one committed subtransaction at `round`.
    pub fn append(&mut self, sub: SubTransaction, round: Round) -> &Block {
        self.append_block(vec![sub], round)
    }

    /// Appends one block holding all subtransactions the shard committed
    /// during `round`. Panics on misrouted subtransactions (a scheduler
    /// routing bug) or an empty batch.
    pub fn append_block(&mut self, subs: Vec<SubTransaction>, round: Round) -> &Block {
        assert!(
            !subs.is_empty(),
            "blocks must hold at least one subtransaction"
        );
        for s in &subs {
            assert_eq!(s.dest, self.shard, "subtransaction routed to wrong shard");
        }
        let parent = self.blocks.last().expect("genesis always present");
        let height = parent.height + 1;
        let parent_hash = parent.hash;
        let hash = Block::compute_hash(height, parent_hash, &subs, round);
        self.subs += subs.len();
        self.blocks.push(Block {
            height,
            parent: parent_hash,
            hash,
            subs,
            round,
        });
        self.blocks.last().unwrap()
    }

    /// Number of blocks (excluding genesis).
    pub fn len(&self) -> usize {
        self.blocks.len() - 1
    }

    /// Total committed subtransactions across all blocks.
    pub fn sub_count(&self) -> usize {
        self.subs
    }

    /// True when only genesis exists.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// All blocks including genesis.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Committed transaction ids in chain order (block order, then intra-
    /// block order).
    pub fn committed_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.subs.iter().map(|s| s.txn))
    }

    /// Verifies hash links and height continuity for the whole chain.
    pub fn verify(&self) -> bool {
        for (i, b) in self.blocks.iter().enumerate() {
            if b.height != i as u64 {
                return false;
            }
            if b.hash != Block::compute_hash(b.height, b.parent, &b.subs, b.round) {
                return false;
            }
            if i > 0 && b.parent != self.blocks[i - 1].hash {
                return false;
            }
            if i > 0 && b.subs.is_empty() {
                return false;
            }
        }
        true
    }
}

/// The elastic-resharding safety audit: `(lost, double_committed)`
/// across a whole run, computed from the engine's commit log and the
/// per-shard chains it sealed.
///
/// * **lost** — transactions the engine recorded as committed whose id
///   appears in *no* chain block: a migration dropped a commit on the
///   floor.
/// * **double_committed** — transaction ids appearing more than once in
///   the commit log, plus `(txn, shard)` pairs appended to a chain more
///   than once: a migration replayed a commit.
///
/// Both counts must be zero under any reshard schedule; the scenario
/// engine surfaces them as the `reshard_lost` / `reshard_dup` report
/// columns and CI asserts them on the scale-out golden. The audit is
/// placement-oblivious on purpose: it never consults a vnode table, so
/// a bug in the table plumbing cannot also hide the evidence.
pub fn reshard_audit(chains: &[LocalChain], committed: &[(Round, TxnId)]) -> (u64, u64) {
    use std::collections::BTreeSet;
    let mut dup = 0u64;
    let mut log_ids: BTreeSet<TxnId> = BTreeSet::new();
    for &(_, id) in committed {
        if !log_ids.insert(id) {
            dup += 1;
        }
    }
    let mut chain_ids: BTreeSet<TxnId> = BTreeSet::new();
    let mut seen: BTreeSet<(TxnId, ShardId)> = BTreeSet::new();
    for c in chains {
        for b in c.blocks() {
            for s in &b.subs {
                chain_ids.insert(s.txn);
                if !seen.insert((s.txn, c.shard())) {
                    dup += 1;
                }
            }
        }
    }
    let lost = log_ids.iter().filter(|id| !chain_ids.contains(id)).count() as u64;
    (lost, dup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::txn::{Action, SubTransaction};
    use sharding_core::AccountId;

    fn sub(txn: u64, dest: u32) -> SubTransaction {
        SubTransaction {
            txn: TxnId(txn),
            dest: ShardId(dest),
            conditions: vec![].into(),
            actions: vec![Action {
                account: AccountId(dest as u64),
                delta: 1,
            }]
            .into(),
        }
    }

    #[test]
    fn genesis_only_chain_verifies() {
        let c = LocalChain::new(ShardId(3));
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.sub_count(), 0);
        assert!(c.verify());
    }

    #[test]
    fn append_links_blocks() {
        let mut c = LocalChain::new(ShardId(0));
        c.append(sub(1, 0), Round(5));
        c.append(sub(2, 0), Round(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.sub_count(), 2);
        assert!(c.verify());
        let committed: Vec<TxnId> = c.committed_txns().collect();
        assert_eq!(committed, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn multi_txn_blocks() {
        let mut c = LocalChain::new(ShardId(0));
        c.append_block(vec![sub(1, 0), sub(2, 0), sub(3, 0)], Round(4));
        c.append_block(vec![sub(4, 0)], Round(8));
        assert_eq!(c.len(), 2, "two blocks");
        assert_eq!(c.sub_count(), 4, "four subtransactions");
        assert!(c.verify());
        let committed: Vec<TxnId> = c.committed_txns().collect();
        assert_eq!(committed, vec![TxnId(1), TxnId(2), TxnId(3), TxnId(4)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_block_rejected() {
        let mut c = LocalChain::new(ShardId(0));
        c.append_block(Vec::new(), Round(1));
    }

    #[test]
    fn tampering_breaks_verification() {
        let mut c = LocalChain::new(ShardId(0));
        c.append_block(vec![sub(1, 0), sub(2, 0)], Round(1));
        c.append(sub(3, 0), Round(2));
        // Tamper with the payload of block 1.
        let mut tampered = c.clone();
        tampered.blocks[1].subs[1].actions[0].delta = 999;
        assert!(!tampered.verify(), "payload change detected");
        // Tamper with a link.
        let mut cut = c.clone();
        cut.blocks[2].parent ^= 1;
        assert!(!cut.verify(), "broken link detected");
        assert!(c.verify(), "original intact");
    }

    #[test]
    #[should_panic(expected = "wrong shard")]
    fn misrouted_subtransaction_panics() {
        let mut c = LocalChain::new(ShardId(0));
        c.append(sub(1, 5), Round(1));
    }

    #[test]
    fn reshard_audit_is_zero_zero_on_a_clean_run() {
        let mut c0 = LocalChain::new(ShardId(0));
        let mut c1 = LocalChain::new(ShardId(1));
        c0.append(sub(1, 0), Round(4));
        c1.append_block(vec![sub(1, 1), sub(2, 1)], Round(6));
        let log = vec![(Round(4), TxnId(1)), (Round(6), TxnId(2))];
        assert_eq!(reshard_audit(&[c0, c1], &log), (0, 0));
    }

    #[test]
    fn reshard_audit_counts_lost_and_doubled() {
        let mut c0 = LocalChain::new(ShardId(0));
        // Txn 1 appended twice at the same shard: a double commit.
        c0.append(sub(1, 0), Round(2));
        c0.append(sub(1, 0), Round(3));
        // Txn 5 is in the log but on no chain: lost. Txn 7 is logged
        // twice: doubled.
        let log = vec![
            (Round(2), TxnId(1)),
            (Round(4), TxnId(5)),
            (Round(5), TxnId(7)),
            (Round(6), TxnId(7)),
        ];
        let (lost, dup) = reshard_audit(&[c0], &log);
        assert_eq!(lost, 2, "txn 5 and txn 7 never reached a chain");
        assert_eq!(dup, 2, "one chain replay + one log replay");
    }

    /// Three block hashes as the buffer-then-hash `compute_hash` of the
    /// commit before the streaming one produced them: the streamed bytes
    /// and their order are the same, so every chain ever sealed verifies.
    #[test]
    fn block_hashes_are_pinned() {
        use sharding_core::txn::Condition;
        let mut c = LocalChain::new(ShardId(2));
        assert_eq!(c.blocks()[0].hash, 0xaac3_17d7_003c_2305, "genesis");
        assert_eq!(c.append(sub(7, 2), Round(5)).hash, 0x314d_3509_f940_d8a8);
        let rich = |txn: u64, n: u64| SubTransaction {
            txn: TxnId(txn),
            dest: ShardId(2),
            conditions: (0..n)
                .map(|i| Condition {
                    account: AccountId(10 * txn + i),
                    min_balance: 100 + i,
                })
                .collect::<Vec<_>>()
                .into(),
            actions: (0..=n)
                .map(|i| Action {
                    account: AccountId(10 * txn + i),
                    delta: i as i64 - 1,
                })
                .collect::<Vec<_>>()
                .into(),
        };
        let multi = vec![rich(8, 0), rich(9, 1), rich(u64::MAX / 11, 3)];
        assert_eq!(
            c.append_block(multi, Round(1 << 40)).hash,
            0xa712_ee3e_d672_fb2c
        );
        assert!(c.verify());
    }

    #[test]
    fn hashes_are_deterministic() {
        let mut a = LocalChain::new(ShardId(0));
        let mut b = LocalChain::new(ShardId(0));
        a.append_block(vec![sub(1, 0), sub(2, 0)], Round(1));
        b.append_block(vec![sub(1, 0), sub(2, 0)], Round(1));
        assert_eq!(a, b);
        // Different batching yields different chains.
        let mut c = LocalChain::new(ShardId(0));
        c.append(sub(1, 0), Round(1));
        c.append(sub(2, 0), Round(1));
        assert_ne!(a, c);
    }
}
