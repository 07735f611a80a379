//! Per-shard local blockchains.
//!
//! Each destination shard appends the subtransactions it commits to a local
//! hash-linked chain; the global ledger is the union of local chains
//! (Section 3, following the lockless-sharding construction the paper
//! cites). The paper's algorithms assume one transaction per block but note
//! they "can be extended to accommodate multiple transactions per block" —
//! blocks here hold a batch: every subtransaction a shard commits within
//! one round forms one block ([`LocalChain::seal`] takes a node's round
//! buffer, [`LocalChain::append_block`] an owned batch);
//! [`LocalChain::append`] is the single-subtransaction convenience.
//!
//! A chain keeps every block for the whole run, so it pays for its blocks
//! and not for its growth. A block stores a 16-byte [`BlockHeader`] — its
//! hash, its round and where its payload ends — and no heap block of its
//! own: its height is its index and its parent is the previous block's
//! hash, both derived and both still fed into the hash. Blocks live in
//! pages of [`PAGE`] headers, and each page keeps its blocks' subs back to
//! back in one payload list, a block's subs running from the previous
//! block's end to its own. The payload holds each sub as a 32-byte
//! [`CommittedSub`], its id and parts: every sub a chain commits is
//! destined for the chain's own shard, so the destination is not stored
//! again, and the hash is fed the chain's shard in its place. The first
//! page's headers grow by doubling, so a short chain stays small, and
//! every later page's are allocated once at full size. A payload grows by
//! at most a quarter at a time, and never to more spare room than 16
//! bytes a block, one header's size; a closed page's payload is shrunk to
//! fit. [`LocalChain::blocks`] hands out [`BlockRef`] views.
//!
//! Hashing is a deterministic non-cryptographic FNV-1a — the simulation
//! needs link *integrity checking*, not adversarial collision resistance
//! (and the std `DefaultHasher` is randomly keyed per process, which would
//! break run reproducibility).

use serde::{Deserialize, Serialize};
use sharding_core::txn::{CommittedSub, SubTransaction};
use sharding_core::{Round, ShardId, TxnId};
use std::ops::Index;

/// Blocks per page of a [`LocalChain`] (16 KiB of headers).
pub const PAGE: usize = 1024;

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

/// FNV-1a over the little-endian bytes of height, parent, round and then,
/// per sub in order, its id, destination, conditions and actions. Every
/// sub of `shard`'s chain is destined for `shard`, so that is the
/// destination hashed.
fn compute_hash(
    height: u64,
    parent: u64,
    round: u64,
    shard: ShardId,
    subs: &[CommittedSub],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&height.to_le_bytes());
    h.write(&parent.to_le_bytes());
    h.write(&round.to_le_bytes());
    for s in subs {
        h.write(&s.txn.raw().to_le_bytes());
        h.write(&shard.raw().to_le_bytes());
        for c in s.conditions() {
            h.write(&c.account.raw().to_le_bytes());
            h.write(&c.min_balance.to_le_bytes());
        }
        for a in s.actions() {
            h.write(&a.account.raw().to_le_bytes());
            h.write(&a.delta.to_le_bytes());
        }
    }
    h.0
}

/// What a chain stores of one block. Its height is its index in the
/// chain, its parent the previous block's hash, and its subs run from the
/// previous block's `end` in its page (0 for a page's first block) to its
/// own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Hash of this block (over height, parent, round, payload).
    pub hash: u64,
    /// The round (a chain panics on one past `u32::MAX`).
    round: u32,
    /// One past the block's last sub in its page's payload.
    end: u32,
}

// `peak_live_mb` is held to the byte: a chain keeps every block header.
const _: () = assert!(std::mem::size_of::<BlockHeader>() <= 16);

/// One block as [`LocalChain::blocks`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef<'a> {
    /// Hash of this block (over height, parent, round, payload).
    pub hash: u64,
    /// Round at which the commit happened.
    pub round: Round,
    /// The committed subtransactions (empty only for genesis).
    pub subs: &'a [CommittedSub],
}

/// [`PAGE`] block headers and their blocks' subs, back to back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Page {
    headers: Vec<BlockHeader>,
    payload: Vec<CommittedSub>,
}

/// A shard's local blockchain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalChain {
    shard: ShardId,
    /// Every block, genesis first; each page but the last holds [`PAGE`].
    pages: Vec<Page>,
}

impl LocalChain {
    /// A fresh chain for `shard` containing only the genesis block.
    pub fn new(shard: ShardId) -> Self {
        let genesis = BlockHeader {
            hash: compute_hash(0, 0, 0, shard, &[]),
            round: 0,
            end: 0,
        };
        LocalChain {
            shard,
            pages: vec![Page {
                headers: vec![genesis],
                payload: Vec::new(),
            }],
        }
    }

    /// The owning shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Appends a block holding one committed subtransaction at `round`.
    /// Like every append, panics on a round past `u32::MAX` (a scenario
    /// cannot plan one).
    pub fn append(&mut self, sub: SubTransaction, round: Round) -> BlockRef<'_> {
        self.push([sub], round)
    }

    /// Appends one block holding all subtransactions the shard committed
    /// during `round`. Panics on misrouted subtransactions (a scheduler
    /// routing bug) or an empty batch.
    pub fn append_block(&mut self, subs: Vec<SubTransaction>, round: Round) -> BlockRef<'_> {
        self.push(subs, round)
    }

    /// Seals a node's round buffer into one block at `round`, moving its
    /// subs into the chain's open page; the buffer is left empty with its
    /// capacity, for the next round. Does nothing when the buffer is
    /// empty (the shard committed nothing this round).
    pub fn seal(&mut self, buf: &mut Vec<SubTransaction>, round: Round) {
        if !buf.is_empty() {
            self.push(buf.drain(..), round);
        }
    }

    fn push<I>(&mut self, subs: I, round: Round) -> BlockRef<'_>
    where
        I: IntoIterator<Item = SubTransaction>,
        I::IntoIter: ExactSizeIterator,
    {
        let round = u32::try_from(round.raw()).expect("a chain round fits in 32 bits");
        let subs = subs.into_iter();
        let n = subs.len();
        assert!(n > 0, "blocks must hold at least one subtransaction");
        let height = self.len() + 1;
        let parent = self.blocks().last().hash;
        if self.tail().headers.len() >= PAGE {
            self.tail_mut().payload.shrink_to_fit();
            self.pages.push(Page {
                headers: Vec::with_capacity(PAGE),
                payload: Vec::new(),
            });
        }
        let shard = self.shard;
        let page = self.tail_mut();
        let (start, need) = (page.payload.len(), page.payload.len() + n);
        if need > page.payload.capacity() {
            // Spare room is at most a quarter of the payload and at most
            // 16 bytes a block.
            let saved = 16 * (page.headers.len() + 1) / std::mem::size_of::<CommittedSub>();
            page.payload.reserve_exact(n + saved.min(need / 4));
        }
        for s in subs {
            assert_eq!(s.dest, shard, "subtransaction routed to wrong shard");
            page.payload.push(s.into_committed());
        }
        let payload = &page.payload[start..];
        let hash = compute_hash(height as u64, parent, round.into(), shard, payload);
        let end = u32::try_from(page.payload.len()).expect("a page holds under 2^32 subs");
        page.headers.push(BlockHeader { hash, round, end });
        self.blocks().last()
    }

    /// The page new blocks go to.
    fn tail(&self) -> &Page {
        self.pages.last().expect("genesis always present")
    }

    fn tail_mut(&mut self) -> &mut Page {
        self.pages.last_mut().expect("genesis always present")
    }

    /// Number of blocks (excluding genesis).
    pub fn len(&self) -> usize {
        (self.pages.len() - 1) * PAGE + self.tail().headers.len() - 1
    }

    /// Total committed subtransactions across all blocks.
    pub fn sub_count(&self) -> usize {
        self.pages.iter().map(|p| p.payload.len()).sum()
    }

    /// True when only genesis exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All blocks including genesis, by height.
    pub fn blocks(&self) -> Blocks<'_> {
        Blocks { chain: self }
    }

    /// Committed transaction ids in chain order (block order, then intra-
    /// block order).
    pub fn committed_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.pages
            .iter()
            .flat_map(|p| p.payload.iter().map(|s| s.txn))
    }

    /// Verifies every block's hash over its derived height, parent and
    /// payload (so a changed, dropped or reordered block, or a sub moved
    /// across a block boundary, breaks it), that only genesis is empty,
    /// and that every sub of a page belongs to one of its blocks.
    pub fn verify(&self) -> bool {
        let mut parent = 0;
        for (p, page) in self.pages.iter().enumerate() {
            let mut start = 0;
            for (i, h) in page.headers.iter().enumerate() {
                let height = p * PAGE + i;
                let end = h.end as usize;
                let nonempty = start < end || height == 0;
                let Some(subs) = page.payload.get(start..end).filter(|_| nonempty) else {
                    return false;
                };
                if h.hash != compute_hash(height as u64, parent, h.round.into(), self.shard, subs) {
                    return false;
                }
                (parent, start) = (h.hash, end);
            }
            if start != page.payload.len() {
                return false;
            }
        }
        true
    }
}

/// A chain's blocks, genesis first: [`get`](Blocks::get) by height,
/// iterated in order, or indexed by height for the stored header.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    chain: &'a LocalChain,
}

impl<'a> Blocks<'a> {
    /// The block at `height`. Panics past the newest block.
    pub fn get(&self, height: usize) -> BlockRef<'a> {
        let page = &self.chain.pages[height / PAGE];
        let i = height % PAGE;
        let h = &page.headers[i];
        let start = match i {
            0 => 0,
            _ => page.headers[i - 1].end as usize,
        };
        BlockRef {
            hash: h.hash,
            round: Round(h.round.into()),
            subs: &page.payload[start..h.end as usize],
        }
    }

    /// The newest block (genesis on a fresh chain).
    pub fn last(&self) -> BlockRef<'a> {
        self.get(self.chain.len())
    }
}

impl Index<usize> for Blocks<'_> {
    type Output = BlockHeader;

    fn index(&self, height: usize) -> &BlockHeader {
        &self.chain.pages[height / PAGE].headers[height % PAGE]
    }
}

impl<'a> IntoIterator for Blocks<'a> {
    type Item = BlockRef<'a>;
    type IntoIter = BlockIter<'a>;

    fn into_iter(self) -> BlockIter<'a> {
        BlockIter {
            blocks: self,
            next: 0,
        }
    }
}

/// The blocks of a chain in height order.
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    blocks: Blocks<'a>,
    next: usize,
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = BlockRef<'a>;

    fn next(&mut self) -> Option<BlockRef<'a>> {
        let b = (self.next <= self.blocks.chain.len()).then(|| self.blocks.get(self.next))?;
        self.next += 1;
        Some(b)
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
            for s in b.subs {
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
    use sharding_core::txn::{Action, Condition, SubTransaction, Transaction};
    use sharding_core::AccountId;
    use std::mem::size_of;

    fn sub(txn: u64, dest: u32) -> SubTransaction {
        let action = Action {
            account: AccountId(dest as u64),
            delta: 1,
        };
        SubTransaction::new(TxnId(txn), ShardId(dest), &[], &[action])
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

    /// One stored block: hash, round, payload.
    type Stored = (u64, Round, Vec<CommittedSub>);

    /// `c` with its blocks edited as one flat list of stored blocks and
    /// laid out in pages again, stored hashes kept as they are.
    fn relaid(c: &LocalChain, edit: impl FnOnce(&mut Vec<Stored>)) -> LocalChain {
        let mut blocks: Vec<Stored> = c
            .blocks()
            .into_iter()
            .map(|b| (b.hash, b.round, b.subs.to_vec()))
            .collect();
        edit(&mut blocks);
        let pages = blocks
            .chunks(PAGE)
            .map(|chunk| {
                let mut page = Page {
                    headers: Vec::new(),
                    payload: Vec::new(),
                };
                for (hash, round, subs) in chunk {
                    page.payload.extend(subs.iter().cloned());
                    page.headers.push(BlockHeader {
                        hash: *hash,
                        round: round.raw() as u32,
                        end: page.payload.len() as u32,
                    });
                }
                page
            })
            .collect();
        LocalChain {
            shard: c.shard,
            pages,
        }
    }

    #[test]
    fn tampering_breaks_verification() {
        let mut c = LocalChain::new(ShardId(0));
        c.append_block(vec![sub(1, 0), sub(2, 0)], Round(1));
        for t in 3..7 {
            c.append(sub(t, 0), Round(t));
        }
        assert_eq!(relaid(&c, |_| ()), c, "the layout is the stored blocks");
        let payload = relaid(&c, |b| {
            let s = &mut b[1].2[1];
            let tampered = Action {
                delta: 999,
                ..s.actions()[0]
            };
            *s = SubTransaction::new(s.txn, ShardId(0), s.conditions(), &[tampered])
                .into_committed();
        });
        assert!(!payload.verify(), "payload change detected");
        let round = relaid(&c, |b| b[3].1 = Round(b[3].1.raw() + 1));
        assert!(!round.verify(), "round change detected");
        let dropped = relaid(&c, |b| drop(b.remove(3)));
        assert!(!dropped.verify(), "dropped block detected");
        let swapped = relaid(&c, |b| b.swap(3, 4));
        assert!(!swapped.verify(), "reordered blocks detected");
        // Block 1 holds subs 1 and 2, block 2 sub 3: the same payload
        // with the end between them moved either way is another pair of
        // blocks.
        for shift in [-1i64, 1] {
            let mut moved = c.clone();
            let h = &mut moved.pages[0].headers[1];
            h.end = (h.end as i64 + shift) as u32;
            assert_eq!(moved.sub_count(), c.sub_count());
            assert!(!moved.verify(), "a sub moved across a block boundary");
        }
        let moved = relaid(&c, |b| {
            let s = b[1].2.pop().unwrap();
            b[2].2.insert(0, s);
        });
        assert!(!moved.verify(), "a sub moved into the next block");
        let empty = relaid(&c, |b| {
            let (height, parent) = (b.len() as u64, b.last().unwrap().0);
            let hash = compute_hash(height, parent, 9, ShardId(0), &[]);
            b.push((hash, Round(9), Vec::new()));
        });
        assert!(!empty.verify(), "an empty block past genesis");
        let mut orphan = c.clone();
        orphan.pages[0].payload.push(sub(9, 0).into_committed());
        assert!(!orphan.verify(), "a sub in no block");
        let mut last = c.clone();
        last.append(sub(7, 0), Round(u32::MAX.into()));
        assert_eq!(last.blocks().last().round, Round(u32::MAX.into()));
        assert!(last.verify(), "the last 32-bit round is an ordinary one");
        assert!(c.verify(), "original intact");
    }

    #[test]
    #[should_panic(expected = "fits in 32 bits")]
    fn a_round_past_32_bits_is_refused() {
        let mut c = LocalChain::new(ShardId(0));
        c.append(sub(1, 0), Round(1 << 40));
    }

    /// One block as the flat layout stored it: height, parent, hash,
    /// round, payload — whole subs, each with its own destination.
    type FlatBlock = (u64, u64, u64, Round, Vec<SubTransaction>);

    /// The hash as a chain computed it while it stored whole subs: FNV-1a
    /// over height, parent, round and, per sub, its id, its own
    /// destination, its conditions and its actions.
    fn stored_hash<'a>(
        height: u64,
        parent: u64,
        round: u64,
        subs: impl IntoIterator<Item = (TxnId, ShardId, &'a [Condition], &'a [Action])>,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&height.to_le_bytes());
        h.write(&parent.to_le_bytes());
        h.write(&round.to_le_bytes());
        for (txn, dest, conditions, actions) in subs {
            h.write(&txn.raw().to_le_bytes());
            h.write(&dest.raw().to_le_bytes());
            for c in conditions {
                h.write(&c.account.raw().to_le_bytes());
                h.write(&c.min_balance.to_le_bytes());
            }
            for a in actions {
                h.write(&a.account.raw().to_le_bytes());
                h.write(&a.delta.to_le_bytes());
            }
        }
        h.0
    }

    /// [`stored_hash`] of whole subs.
    fn flat_hash(height: u64, parent: u64, round: u64, subs: &[SubTransaction]) -> u64 {
        let whole = subs
            .iter()
            .map(|s| (s.txn, s.dest, s.conditions(), s.actions()));
        stored_hash(height, parent, round, whole)
    }

    /// True when `kept` is `flat` as `shard`'s chain keeps it: each sub's
    /// id and parts in order, and every sub destined for `shard`.
    fn kept_as(kept: &[CommittedSub], flat: &[SubTransaction], shard: ShardId) -> bool {
        kept.len() == flat.len()
            && kept.iter().zip(flat).all(|(k, f)| {
                (k.txn, shard) == (f.txn, f.dest)
                    && k.conditions() == f.conditions()
                    && k.actions() == f.actions()
            })
    }

    /// The flat layout's verification: stored heights count up from 0,
    /// stored parents are the previous hashes, and only genesis is empty.
    fn flat_verify(flat: &[FlatBlock]) -> bool {
        flat.iter()
            .enumerate()
            .all(|(i, (height, parent, hash, round, subs))| {
                *height == i as u64
                    && *hash == flat_hash(*height, *parent, round.raw(), subs)
                    && (i == 0 || (*parent == flat[i - 1].2 && !subs.is_empty()))
            })
    }

    /// The paged chain against the flat one it replaced — every height,
    /// parent and whole sub stored per block, one growing vector, hashed
    /// by the recipe of that layout — on seeded random blocks of one to
    /// five subs, at lengths on both sides of each header and payload
    /// page boundary and through all three ways in. A payload's spare
    /// room stays within a quarter of it and within 16 bytes a block, and
    /// each growth takes the whole of that room.
    #[test]
    fn paged_chain_matches_the_flat_recipe() {
        use rand::Rng as _;
        let mut rng = sharding_core::rngutil::seeded_rng(35);
        let mut next_txn = 0;
        let (shard, kept) = (ShardId(4), size_of::<CommittedSub>());
        let mut growths = 0;
        for blocks in [0, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE + 3] {
            let mut chain = LocalChain::new(shard);
            let genesis = flat_hash(0, 0, 0, &[]);
            let mut flat: Vec<FlatBlock> = vec![(0, 0, genesis, Round::ZERO, Vec::new())];
            let mut buf = Vec::new();
            let mut round = 0;
            for i in 0..blocks {
                round += rng.gen_range(1..4u64);
                let n = rng.gen_range(1..=5usize);
                let subs: Vec<SubTransaction> = (0..n)
                    .map(|_| {
                        next_txn += 1;
                        let account = |rng: &mut sharding_core::rngutil::Rng| {
                            AccountId(rng.gen_range(0..1_000u64))
                        };
                        let conditions: Vec<_> = (0..rng.gen_range(0..2usize))
                            .map(|_| Condition {
                                account: account(&mut rng),
                                min_balance: rng.gen_range(0..100u64),
                            })
                            .collect();
                        let actions: Vec<_> = (0..rng.gen_range(1..3usize))
                            .map(|_| Action {
                                account: account(&mut rng),
                                delta: rng.gen_range(-50..50i64),
                            })
                            .collect();
                        SubTransaction::new(TxnId(next_txn), shard, &conditions, &actions)
                    })
                    .collect();
                let (height, parent) = (flat.len() as u64, flat.last().unwrap().2);
                let hash = flat_hash(height, parent, round, &subs);
                flat.push((height, parent, hash, Round(round), subs.clone()));
                let before = (chain.pages.len(), chain.tail().payload.capacity());
                let tip = match (i % 3, n) {
                    (0, 1) => chain.append(subs[0].clone(), Round(round)).hash,
                    (0 | 1, _) => chain.append_block(subs, Round(round)).hash,
                    _ => {
                        buf.extend(subs);
                        chain.seal(&mut buf, Round(round));
                        assert!(buf.is_empty(), "seal takes the whole buffer");
                        chain.blocks().last().hash
                    }
                };
                assert_eq!(tip, hash, "block {height}");
                let open = chain.tail();
                let spare = open.payload.capacity() - open.payload.len();
                assert!(spare <= open.payload.len() / 4, "block {height}");
                assert!(spare * kept <= 16 * open.headers.len(), "block {height}");
                if before != (chain.pages.len(), open.payload.capacity()) {
                    let room = (16 * open.headers.len() / kept).min(open.payload.len() / 4);
                    assert_eq!(spare, room, "block {height} grew by all its room");
                    growths += 1;
                }
            }
            chain.seal(&mut buf, Round(round + 1));
            assert_eq!(chain.len(), blocks, "an empty buffer seals nothing");
            let subs: usize = flat.iter().map(|b| b.4.len()).sum();
            assert_eq!(chain.sub_count(), subs);
            assert_eq!(chain.is_empty(), blocks == 0);
            for (h, (_, _, hash, round, subs)) in flat.iter().enumerate() {
                let b = chain.blocks().get(h);
                assert_eq!((b.hash, b.round), (*hash, *round), "block {h}");
                assert!(kept_as(b.subs, subs, shard), "block {h}");
                assert_eq!(chain.blocks()[h].hash, *hash);
            }
            let order: Vec<BlockRef<'_>> = chain.blocks().into_iter().collect();
            assert_eq!(order.len(), flat.len(), "block count at length {blocks}");
            for (b, (_, _, hash, round, subs)) in order.iter().zip(&flat) {
                let same = (b.hash, b.round) == (*hash, *round) && kept_as(b.subs, subs, shard);
                assert!(same, "block order at length {blocks}");
            }
            let committed: Vec<TxnId> = chain.committed_txns().collect();
            let flat_committed: Vec<TxnId> =
                flat.iter().flat_map(|b| &b.4).map(|s| s.txn).collect();
            assert_eq!(committed, flat_committed);
            assert!(chain.verify() && flat_verify(&flat));
            let (tail, full) = chain.pages.split_last().unwrap();
            for p in full {
                assert!(p.headers.len() == PAGE && p.headers.capacity() == PAGE);
                let exact = p.payload.capacity() == p.payload.len();
                assert!(exact, "a closed page's payload is shrunk to fit");
            }
            assert!(
                !tail.headers.is_empty() && tail.headers.capacity() <= PAGE,
                "header slack under a page"
            );
        }
        assert!(growths > 100, "{growths} payload growths");
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
        let rich = |txn: u64, n: u64| {
            let conditions: Vec<_> = (0..n)
                .map(|i| Condition {
                    account: AccountId(10 * txn + i),
                    min_balance: 100 + i,
                })
                .collect();
            let actions: Vec<_> = (0..=n)
                .map(|i| Action {
                    account: AccountId(10 * txn + i),
                    delta: i as i64 - 1,
                })
                .collect();
            SubTransaction::new(TxnId(txn), ShardId(2), &conditions, &actions)
        };
        let multi =
            [rich(8, 0), rich(9, 1), rich(u64::MAX / 11, 3)].map(SubTransaction::into_committed);
        // A chain refuses a round past `u32::MAX`; the hash is defined there.
        assert_eq!(
            compute_hash(2, 0x314d_3509_f940_d8a8, 1 << 40, ShardId(2), &multi),
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

    /// A sub as two plain lists: the oracle the compact part list is
    /// held to.
    struct TwoVecs {
        txn: TxnId,
        dest: ShardId,
        conditions: Vec<Condition>,
        actions: Vec<Action>,
    }

    type Drafts = Vec<(Vec<(u64, u64)>, Vec<(u64, i64)>)>;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Subs filed by `Transaction::from_parts`, with 0–3 conditions
        /// and 0–3 actions on each of three shards, read, size, compare
        /// and hash exactly as two plain `Vec`s of the same parts do.
        #[test]
        fn part_lists_match_the_two_vec_oracle(
            drafts in proptest::collection::vec(
                (
                    proptest::collection::vec((0u64..40, 0u64..100), 0..=3),
                    proptest::collection::vec((0u64..40, -50i64..50), 0..=3),
                ),
                3,
            ),
            txn in 0u64..1_000,
            parent in proptest::any::<u64>(),
        ) {
            let drafts: Drafts = drafts;
            let txn = TxnId(txn);
            let oracle: Vec<TwoVecs> = drafts
                .iter()
                .enumerate()
                .filter(|(_, (cs, acts))| !cs.is_empty() || !acts.is_empty())
                .map(|(shard, (cs, acts))| TwoVecs {
                    txn,
                    dest: ShardId(shard as u32),
                    conditions: cs
                        .iter()
                        .map(|&(a, min_balance)| Condition { account: AccountId(a), min_balance })
                        .collect(),
                    actions: acts
                        .iter()
                        .map(|&(a, delta)| Action { account: AccountId(a), delta })
                        .collect(),
                })
                .collect();
            // File the parts across shards in turn, each shard's in order.
            let (mut conditions, mut actions) = (Vec::new(), Vec::new());
            for i in 0..3 {
                for o in &oracle {
                    if let Some(&c) = o.conditions.get(i) {
                        conditions.push((o.dest, c));
                    }
                    if let Some(&a) = o.actions.get(i) {
                        actions.push((o.dest, a));
                    }
                }
            }
            let built = Transaction::from_parts(txn, ShardId(0), Round(3), &conditions, &actions);
            if oracle.is_empty() {
                proptest::prop_assert!(built.is_err());
                return;
            }
            let t = built.unwrap();
            proptest::prop_assert_eq!(t.subs.len(), oracle.len());
            let mut bytes = 24;
            for (sub, o) in t.subs.iter().zip(&oracle) {
                proptest::prop_assert_eq!((sub.txn, sub.dest), (o.txn, o.dest));
                proptest::prop_assert_eq!(sub.conditions(), o.conditions.as_slice());
                proptest::prop_assert_eq!(sub.actions(), o.actions.as_slice());
                let parts = o.conditions.len() + o.actions.len();
                proptest::prop_assert_eq!(sub.approx_bytes(), 12 + 16 * parts);
                bytes += 12 + 16 * parts;
                let twin = SubTransaction::new(o.txn, o.dest, &o.conditions, &o.actions);
                proptest::prop_assert_eq!(sub, &twin);
                let other = SubTransaction::new(o.txn, ShardId(9), &o.conditions, &o.actions);
                proptest::prop_assert_ne!(sub, &other);
            }
            proptest::prop_assert_eq!(t.approx_bytes(), bytes);
            // Each sub as its destination's chain hashes a block of it,
            // against the whole-sub recipe fed from the oracle's lists.
            for (sub, o) in t.subs.iter().zip(&oracle) {
                let kept = [sub.clone().into_committed()];
                let whole = [(o.txn, o.dest, &o.conditions[..], &o.actions[..])];
                for height in [1, 1 << 33] {
                    proptest::prop_assert_eq!(
                        compute_hash(height, parent, 7, sub.dest, &kept),
                        stored_hash(height, parent, 7, whole)
                    );
                }
            }
        }
    }
}
