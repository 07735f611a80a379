//! The ingestion path's allocation budget, counted with this binary's
//! own global allocator: drawing a round of offers allocates the vector
//! they are returned in and nothing else, an offer a full lane turns
//! away or keeps allocates nothing, and a transaction — one heap block,
//! its `subs` (a write-only sub keeps its one action in place) — is built
//! only when it drains.
//!
//! One `#[test]` in the binary, so no other test thread's allocations
//! are counted.

use adversary::{
    IngestPipeline, Mempool, Offer, RoundSource, StreamKind, StreamSource, WorkloadShape,
};
use sharding_core::{AccountId, AccountMap, Round, ShardId, SystemConfig, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Calls to `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping is one relaxed atomic and never touches the
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are those of `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (ALLOCS.load(Relaxed) - before, out)
}

const LANES: usize = 8;
const OFFERED: u64 = 200;
/// Allocations a round may make whatever it is offered: the offer
/// vector and the admitted batch growing from empty. A warm lane's slab
/// is full, and an offer it keeps takes the slot of the one it evicts.
const PER_ROUND: u64 = 3;

#[test]
fn ingestion_builds_one_block_per_admitted_transaction_and_allocates_nothing_per_offer() {
    let sys = SystemConfig {
        shards: LANES,
        accounts: 4_096,
        k_max: 4,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    let kind = StreamKind::Zipf { exponent: 0.6 };
    let shape = WorkloadShape::WriteOnly;
    let source = || StreamSource::new(&sys, &map, kind, shape, 0.5, 4, OFFERED, 20);

    // Offers no wider than eight hold their draws inline.
    let mut stream = source();
    for r in 0..3 {
        let (allocs, offers) = allocs_during(|| stream.offer_round(Round(r)));
        assert_eq!(offers.len() as u64, OFFERED);
        assert_eq!(allocs, 1, "a round of offers is the returned vector");
    }

    // 200 offers a round into 8 × 32 slots at about 1.6 admissions a
    // round: every lane is full long before the warm-up ends.
    let mut pipeline = IngestPipeline::new(source(), 32);
    for r in 0..100 {
        pipeline.next_round(Round(r));
    }
    let warm = pipeline.stats().expect("pipeline has a pool");
    let rounds = 100;
    let (allocs, admitted) = allocs_during(|| {
        (100..100 + rounds)
            .map(|r| pipeline.next_round(Round(r)).len() as u64)
            .sum::<u64>()
    });
    let stats = pipeline.stats().expect("pipeline has a pool");
    assert!(admitted > 0, "the drain is exercised");
    assert!(
        stats.evicted - warm.evicted >= rounds * OFFERED * 9 / 10,
        "saturated: nearly every offer meets a full lane"
    );
    let budget = admitted + PER_ROUND * rounds;
    assert!(
        allocs <= budget,
        "{allocs} allocations over {rounds} rounds admitting {admitted} (budget {budget})"
    );

    // An offer that loses to a full lane is decided on the lane header.
    let mut pool = Mempool::new(1, 2);
    let draws = [(ShardId(0), AccountId(0))];
    let offer = |id| Offer::new(TxnId(id), Round::ZERO, shape, 0, &draws);
    pool.offer(9, offer(0));
    pool.offer(9, offer(1));
    let loser = offer(2);
    let (allocs, ()) = allocs_during(|| pool.offer(0, loser));
    assert_eq!(allocs, 0, "a losing offer allocates nothing");
    assert_eq!((pool.depth(), pool.stats().evicted), (2, 1));

    // An offer that wins evicts the minimum and takes its slot, even in
    // a fee bucket the lane has never used.
    let winner = offer(3);
    let (allocs, ()) = allocs_during(|| pool.offer(200, winner));
    assert_eq!(allocs, 0, "a winning offer allocates nothing");
    assert_eq!((pool.depth(), pool.stats().evicted), (2, 2));
    assert_eq!(pool.lane_min(ShardId(0)), Some((9, TxnId(0))));
}
