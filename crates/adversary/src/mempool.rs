//! The bounded, sharded mempool and the [`RoundSource`] ingestion
//! abstraction — the paper's "transactions simply arrive each round"
//! assumption made concrete as a producer/consumer plane.
//!
//! # Layout
//!
//! The pool holds [`Offer`]s, not transactions: heap-free drafts that
//! carry every draw a transaction needs. What it allocates per offer is
//! nothing; a transaction is built once, when it drains, in a
//! [`TxnScratch`] the pool owns. At saturation nearly every offer is
//! evicted, so nearly none is ever built.
//!
//! The pool keeps one *lane* per home shard. A lane is one slab of at
//! most `capacity` offer slots, threaded into 256 fee buckets: each
//! bucket is an intrusive list (`u32` `[prev, next]` links per slot,
//! `[front, back]` ends per fee) of the pending offers of that fee in
//! [`TxnId`] order, and a 4-word occupancy bitmap finds the
//! highest/lowest non-empty bucket in a handful of bit operations.
//! Priority order is **(fee descending, id ascending)** — higher fees
//! first, FIFO within a fee class (ids are assigned in generation
//! order) — so the lane's maximum is the front of its highest bucket and
//! its minimum the back of its lowest. Ids almost always arrive
//! ascending, which links an insert at its bucket's back; one that does
//! not walks back from there. A removed offer's slot joins a free list,
//! and the slab only grows (doubling, clamped to `capacity`) while the
//! lane has never been full, so a lane's memory is bounded by what it
//! can hold — not by how many fee classes its cutoff has passed — and a
//! warm lane allocates nothing. The lane header caches the minimum's
//! `(fee, id)`: a full lane turns a losing offer away — the common case
//! under saturation — without touching the slab.
//!
//! # Backpressure
//!
//! Each lane is bounded by `capacity`. An insert into a full lane
//! compares the newcomer against the lane's current minimum under the
//! priority order: whichever loses is discarded and counted in
//! [`MempoolStats::evicted`]. A full lane therefore always retains
//! exactly the top-`capacity` offers made to it.
//!
//! # Why drain order is interleaving-independent
//!
//! Both the retained set and the drain order are functions of the lane's
//! *contents as a multiset*, never of arrival order: `(fee, id)` is a
//! total order (ids are unique), a full lane keeps its top-`capacity`
//! elements under that order regardless of the sequence of inserts that
//! produced it, and each insert-while-full discards exactly one loser,
//! so the eviction count depends only on how many offers the lane saw.
//! Draining pops maxima of that order. Any producer interleaving of the
//! same offers therefore yields byte-identical drains and
//! stats — the property `tests/mempool_props.rs` pins with arbitrary
//! permutations, and the reason the ingestion plane preserves the
//! engine's thread-count and sim/net byte-equality guarantees.
//!
//! # Admission
//!
//! [`IngestPipeline`] composes a streaming producer
//! ([`StreamSource`](crate::stream::StreamSource)), the pool, and the
//! live `(ρ, b)` budgets ([`ShardBudgets`]): each round it ingests the
//! round's offers, ticks the buckets, and drains in priority order,
//! charging every candidate's access set against the buckets and
//! building only the candidates that pass. The first candidate a lane
//! cannot afford blocks the lane for the round
//! (head-of-line deferral, counted in [`MempoolStats::deferred`]) — so
//! the emission is `(ρ, b)`-conforming *by construction*, exactly like
//! the legacy [`Adversary`] path, but over transactions that survived
//! fee-priority backpressure instead of a fixed proposal order.

use crate::budget::ShardBudgets;
use crate::generator::{Adversary, Offer, TxnScratch};
use serde::{Deserialize, Serialize};
use sharding_core::{Round, ShardId, Transaction, TxnId};
use std::cmp::Reverse;

/// Number of fee classes (`u8` fees map 1:1 onto buckets).
const FEE_BUCKETS: usize = 256;

/// Aggregate ingestion counters surfaced as report columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MempoolStats {
    /// Maximum total pool depth observed (sampled each round after
    /// ingest, before the drain).
    pub depth_max: u64,
    /// Transactions drained into the schedulers after passing `(ρ, b)`
    /// admission.
    pub admitted: u64,
    /// Head-of-line deferral events: rounds × lanes where the next
    /// candidate's budget charge failed and the lane stalled.
    pub deferred: u64,
    /// Transactions discarded by full-lane backpressure (the loser of
    /// each insert into a full lane).
    pub evicted: u64,
}

/// A per-round supplier of injected transactions — the seam between the
/// execution engines and workload generation. The legacy [`Adversary`]
/// *is* a source (its `generate` pulled inline each round); the
/// [`IngestPipeline`] is the streaming one.
///
/// Engines must call [`next_round`](RoundSource::next_round) exactly once
/// per round, in round order — sources are stateful streams.
pub trait RoundSource {
    /// The batch injected during `round`.
    fn next_round(&mut self, round: Round) -> Vec<Transaction>;

    /// Ingestion counters, when this source has a mempool in front.
    fn stats(&self) -> Option<MempoolStats> {
        None
    }
}

impl RoundSource for Adversary {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        self.generate(round)
    }
}

/// An offer's place in the priority order: the larger rank wins.
type Rank = (u8, Reverse<TxnId>);

/// The link that ends a fee bucket's list (and the free list).
const NIL: u32 = u32::MAX;

// `peak_live_mb`: a slot is the offer itself — `None` takes the offer's
// niche, so a full lane is exactly `capacity` × 128 bytes of slab.
const _: () = assert!(std::mem::size_of::<Option<Offer>>() == 128);

/// One home shard's bounded priority lane: a slab of at most `capacity`
/// slots threaded into one intrusive list per fee.
#[derive(Debug, Clone)]
struct Lane {
    /// The resident offers; `None` marks a free slot. Grows on demand,
    /// never past `capacity`.
    slots: Vec<Option<Offer>>,
    /// `links[slot]` = `[prev, next]` within the slot's fee bucket, in
    /// ascending id order (FIFO within the fee class). A free slot's
    /// `next` is the next free slot.
    links: Vec<[u32; 2]>,
    /// `ends[fee]` = `[front, back]` of that fee's bucket: its lowest
    /// and highest id, `NIL` when empty.
    ends: [[u32; 2]; FEE_BUCKETS],
    /// Head of the free-slot list.
    free: u32,
    /// Bit `fee` set ⇔ bucket `fee` is non-empty.
    occupied: [u64; 4],
    len: usize,
    capacity: usize,
    /// Rank of the lane's minimum — lowest fee, largest id; `None` ⇔
    /// the lane is empty.
    min: Option<Rank>,
}

impl Lane {
    fn new(capacity: usize) -> Lane {
        Lane {
            slots: Vec::new(),
            links: Vec::new(),
            ends: [[NIL; 2]; FEE_BUCKETS],
            free: NIL,
            occupied: [0; 4],
            len: 0,
            capacity,
            min: None,
        }
    }

    /// Highest non-empty fee bucket.
    fn highest(&self) -> Option<usize> {
        for w in (0..4).rev() {
            if self.occupied[w] != 0 {
                return Some(w * 64 + 63 - self.occupied[w].leading_zeros() as usize);
            }
        }
        None
    }

    /// Lowest non-empty fee bucket.
    fn lowest(&self) -> Option<usize> {
        for w in 0..4 {
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        None
    }

    fn offer_at(&self, slot: u32) -> &Offer {
        self.slots[slot as usize].as_ref().expect("linked slot")
    }

    /// A slot for `offer`: the head of the free list, else a new one.
    /// The slab doubles, clamped to `capacity`, so it never reserves
    /// past it.
    fn alloc(&mut self, offer: Offer) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            self.free = self.links[slot as usize][1];
            self.slots[slot as usize] = Some(offer);
            return slot;
        }
        let len = self.slots.len();
        if len == self.slots.capacity() {
            let grow = len.max(4).min(self.capacity - len);
            self.slots.reserve_exact(grow);
            self.links.reserve_exact(grow);
        }
        self.slots.push(Some(offer));
        self.links.push([NIL; 2]);
        len as u32
    }

    fn put(&mut self, fee: u8, offer: Offer) {
        let id = offer.id;
        let rank = (fee, Reverse(id));
        self.min = Some(self.min.map_or(rank, |min| min.min(rank)));
        let slot = self.alloc(offer);
        // Ids almost always arrive ascending, so the walk back from the
        // bucket's back stops at once.
        let [front, back] = self.ends[fee as usize];
        let mut prev = back;
        while prev != NIL && self.offer_at(prev).id > id {
            prev = self.links[prev as usize][0];
        }
        let next = if prev == NIL {
            front
        } else {
            self.links[prev as usize][1]
        };
        self.links[slot as usize] = [prev, next];
        self.set_next(fee as usize, prev, slot);
        self.set_prev(fee as usize, next, slot);
        self.occupied[fee as usize / 64] |= 1 << (fee % 64);
        self.len += 1;
    }

    /// Points `at`'s `next` at `to` in bucket `fee`; a `NIL` `at` is the
    /// bucket's front end.
    fn set_next(&mut self, fee: usize, at: u32, to: u32) {
        match at {
            NIL => self.ends[fee][0] = to,
            at => self.links[at as usize][1] = to,
        }
    }

    /// Points `at`'s `prev` at `to` in bucket `fee`; a `NIL` `at` is the
    /// bucket's back end.
    fn set_prev(&mut self, fee: usize, at: u32, to: u32) {
        match at {
            NIL => self.ends[fee][1] = to,
            at => self.links[at as usize][0] = to,
        }
    }

    /// Takes `slot` out of bucket `fee` and onto the free list.
    fn unlink(&mut self, fee: usize, slot: u32) -> Offer {
        let [prev, next] = self.links[slot as usize];
        self.set_next(fee, prev, next);
        self.set_prev(fee, next, prev);
        if self.ends[fee][0] == NIL {
            self.occupied[fee / 64] &= !(1 << (fee % 64));
        }
        self.links[slot as usize][1] = self.free;
        self.free = slot;
        self.len -= 1;
        self.slots[slot as usize].take().expect("linked slot")
    }

    /// The lane's maximum under (fee desc, id asc), without removing it.
    fn peek_max(&self) -> Option<&Offer> {
        Some(self.offer_at(self.ends[self.highest()?][0]))
    }

    /// Removes the lane's maximum. The minimum only changes when the
    /// two coincide, which leaves the lane empty.
    fn pop_max(&mut self) -> Offer {
        let fee = self.highest().expect("non-empty lane");
        let offer = self.unlink(fee, self.ends[fee][0]);
        if self.len == 0 {
            self.min = None;
        }
        offer
    }

    /// Removes the lane's minimum and re-reads the cached rank from the
    /// buckets.
    fn pop_min(&mut self) -> Offer {
        let fee = self.lowest().expect("non-empty lane");
        let offer = self.unlink(fee, self.ends[fee][1]);
        self.min = self.lowest().map(|fee| {
            let last = self.offer_at(self.ends[fee][1]);
            (fee as u8, Reverse(last.id))
        });
        offer
    }
}

/// The bounded per-home-shard mempool. See the [module docs](self) for
/// layout, backpressure, and the interleaving-independence argument.
#[derive(Debug, Clone)]
pub struct Mempool {
    lanes: Vec<Lane>,
    stats: MempoolStats,
    /// Where `drain` builds each admitted offer.
    scratch: TxnScratch,
}

impl Mempool {
    /// A pool with one lane per home shard, each bounded by `capacity`.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, `capacity == 0`, or `capacity` does
    /// not fit a `u32` slot index.
    pub fn new(shards: usize, capacity: usize) -> Mempool {
        assert!(shards > 0, "mempool needs at least one lane");
        assert!(capacity > 0, "lane capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "lane capacity must fit a u32 slot index"
        );
        Mempool {
            lanes: (0..shards).map(|_| Lane::new(capacity)).collect(),
            stats: MempoolStats::default(),
            scratch: TxnScratch::default(),
        }
    }

    /// Offers `offer` at `fee` to its home-shard lane. A full lane keeps
    /// its top-`capacity` under (fee desc, id asc); the loser is counted
    /// as evicted.
    pub fn offer(&mut self, fee: u8, offer: Offer) {
        let lane = &mut self.lanes[offer.home().index()];
        if lane.len < lane.capacity {
            lane.put(fee, offer);
            return;
        }
        self.stats.evicted += 1;
        if Some((fee, Reverse(offer.id))) > lane.min {
            lane.pop_min();
            lane.put(fee, offer);
        }
    }

    /// `(fee, id)` of the lowest-priority offer resident in
    /// `home`'s lane — what an offer to that lane must beat once it is
    /// full.
    pub fn lane_min(&self, home: ShardId) -> Option<(u8, TxnId)> {
        self.lanes[home.index()]
            .min
            .map(|(fee, Reverse(id))| (fee, id))
    }

    /// Total offers resident across all lanes.
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(|l| l.len).sum()
    }

    /// Records the current depth into the high-water mark. Call once per
    /// round after ingesting the round's offers.
    pub fn note_depth(&mut self) {
        self.stats.depth_max = self.stats.depth_max.max(self.depth() as u64);
    }

    /// Drains this round's admitted batch: lanes are visited starting at
    /// `round % lanes` (rotating fairness), each popped in priority order
    /// while `budgets` affords the candidate's access set, and each
    /// admitted candidate is built into its transaction. The first
    /// unaffordable candidate stalls its lane for the round (head-of-line
    /// deferral).
    pub fn drain(&mut self, budgets: &mut ShardBudgets, round: Round) -> Vec<Transaction> {
        let n = self.lanes.len();
        let mut out = Vec::new();
        for i in 0..n {
            let lane = &mut self.lanes[(round.0 as usize + i) % n];
            while let Some(offer) = lane.peek_max() {
                if !budgets.try_charge(offer.shards()) {
                    self.stats.deferred += 1;
                    break;
                }
                out.push(offer.build(&mut self.scratch));
                lane.pop_max();
            }
        }
        self.stats.admitted += out.len() as u64;
        out
    }

    /// Ingestion counters so far.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }
}

/// The streaming ingestion plane: firehose producer → bounded mempool →
/// live `(ρ, b)` admission. Implements [`RoundSource`], so both the
/// simulator hosts and the networked executor can pull from it exactly
/// where they pulled from the legacy generator.
pub struct IngestPipeline {
    source: crate::stream::StreamSource,
    pool: Mempool,
    budgets: ShardBudgets,
}

impl IngestPipeline {
    /// Composes `source` with a pool of per-lane bound `capacity` and
    /// fresh `(ρ, b)` buckets matching the source's configuration.
    pub fn new(source: crate::stream::StreamSource, capacity: usize) -> IngestPipeline {
        let (shards, rho, b) = source.budget_params();
        IngestPipeline {
            pool: Mempool::new(shards, capacity),
            budgets: ShardBudgets::new(shards, rho, b),
            source,
        }
    }

    /// Distinct account ids streamed by the producer so far.
    pub fn distinct_accounts(&self) -> u64 {
        self.source.distinct_accounts()
    }
}

impl RoundSource for IngestPipeline {
    fn next_round(&mut self, round: Round) -> Vec<Transaction> {
        for (fee, offer) in self.source.offer_round(round) {
            self.pool.offer(fee, offer);
        }
        self.pool.note_depth();
        self.budgets.tick();
        self.pool.drain(&mut self.budgets, round)
    }

    fn stats(&self) -> Option<MempoolStats> {
        Some(self.pool.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadShape;
    use sharding_core::AccountId;

    /// A write-only offer homed on, and touching only, shard `home`.
    fn offer(id: u64, home: u32) -> Offer {
        let draws = [(ShardId(home), AccountId(u64::from(home)))];
        Offer::new(TxnId(id), Round::ZERO, WorkloadShape::WriteOnly, 0, &draws)
    }

    #[test]
    fn pops_by_fee_then_fifo_within_fee() {
        let mut pool = Mempool::new(4, 8);
        pool.offer(1, offer(0, 2));
        pool.offer(9, offer(1, 2));
        pool.offer(9, offer(2, 2));
        pool.offer(3, offer(3, 2));
        let mut budgets = ShardBudgets::new(4, 1.0, 100);
        budgets.tick();
        let drained = pool.drain(&mut budgets, Round::ZERO);
        let ids: Vec<u64> = drained.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 0]);
        assert_eq!(pool.stats().admitted, 4);
        assert_eq!(pool.depth(), 0);
    }

    #[test]
    fn full_lane_keeps_top_capacity_and_counts_evictions() {
        let mut pool = Mempool::new(4, 2);
        pool.offer(5, offer(0, 1));
        pool.offer(1, offer(1, 1));
        pool.offer(7, offer(2, 1)); // evicts fee-1 id 1
        pool.offer(0, offer(3, 1)); // loses outright
        assert_eq!(pool.depth(), 2);
        assert_eq!(pool.stats().evicted, 2);
        let mut budgets = ShardBudgets::new(4, 1.0, 100);
        budgets.tick();
        let ids: Vec<u64> = pool
            .drain(&mut budgets, Round::ZERO)
            .iter()
            .map(|t| t.id.0)
            .collect();
        assert_eq!(ids, vec![2, 0]);
    }

    #[test]
    fn budget_exhaustion_defers_head_of_line() {
        let mut pool = Mempool::new(4, 8);
        for i in 0..5 {
            pool.offer(4, offer(i, 0));
        }
        // b = 2, ρ small: exactly two charges fit in the first round.
        let mut budgets = ShardBudgets::new(4, 0.01, 2);
        budgets.tick();
        let drained = pool.drain(&mut budgets, Round::ZERO);
        assert_eq!(drained.len(), 2);
        assert_eq!(pool.stats().admitted, 2);
        assert_eq!(pool.stats().deferred, 1);
        assert_eq!(pool.depth(), 3);
    }

    #[test]
    fn depth_high_water_tracks_ingest() {
        let mut pool = Mempool::new(4, 8);
        pool.offer(1, offer(0, 0));
        pool.offer(1, offer(1, 3));
        pool.note_depth();
        assert_eq!(pool.stats().depth_max, 2);
        let mut budgets = ShardBudgets::new(4, 1.0, 100);
        budgets.tick();
        pool.drain(&mut budgets, Round::ZERO);
        pool.note_depth();
        assert_eq!(pool.stats().depth_max, 2, "high water survives the drain");
    }

    #[test]
    fn lane_memory_does_not_depend_on_history() {
        const CAP: usize = 32;
        let mut pool = Mempool::new(1, CAP);
        let mut budgets = ShardBudgets::new(1, 1.0, 4);
        // 120 × CAP offers whose fees creep upward, so the fee cutoff
        // rises through most of the 256 buckets. Ids arrive in blocks of
        // eight reversed, so every eighth offer walks a bucket back.
        for i in 0..120 * CAP as u64 {
            let id = i / 8 * 8 + 7 - i % 8;
            let fee = (i * 256 / (120 * CAP as u64)) as u8 ^ (i % 3) as u8;
            pool.offer(fee, offer(id, 0));
            if i % 97 == 0 {
                budgets.tick();
                pool.drain(&mut budgets, Round(i));
            }
            let lane = &pool.lanes[0];
            assert!(lane.slots.len() <= CAP && lane.slots.capacity() <= CAP);
            assert!(lane.links.capacity() <= CAP);
            assert_eq!(lane.len, lane.slots.iter().flatten().count());
        }
        assert!(
            pool.stats().evicted > 100 * CAP as u64,
            "the lane saturates"
        );
        assert_eq!(pool.lanes[0].slots.capacity(), CAP);
    }

    #[test]
    fn drain_rotates_lane_start_by_round() {
        let mut pool = Mempool::new(4, 8);
        pool.offer(5, offer(0, 0));
        pool.offer(5, offer(1, 1));
        let mut budgets = ShardBudgets::new(4, 1.0, 100);
        budgets.tick();
        let ids: Vec<u64> = pool
            .drain(&mut budgets, Round(1))
            .iter()
            .map(|t| t.id.0)
            .collect();
        assert_eq!(ids, vec![1, 0], "round 1 starts at lane 1");
    }
}
