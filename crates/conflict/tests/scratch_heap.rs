//! An interned coloring scratch's heap, measured with this binary's own
//! global allocator: past `DENSE_LIMIT` accounts the scratch holds the
//! slots of the largest batch it colored, not of every account it has
//! ever seen, so equal batches of fresh accounts leave it no larger.
//!
//! Only the test thread's own allocations count, so the harness's
//! threads cannot move the figures.

use conflict::coloring::DENSE_LIMIT;
use conflict::{greedy_by_accounts_with, ColoringScratch};
use sharding_core::txn::TxnBuilder;
use sharding_core::{AccountId, AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated less those it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: usize, sign: isize) {
    // A thread past its locals' teardown no longer counts.
    let _ = LIVE.try_with(|live| live.set(live.get() + sign * bytes as isize));
}

/// This thread's live bytes above `before`, an earlier reading of `LIVE`.
fn live_since(before: isize) -> usize {
    usize::try_from(LIVE.with(Cell::get) - before).expect("the thread freed what it held before")
}

struct Measuring;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping is a const-initialised thread-local counter,
// which allocates nothing, and never touches the allocated memory.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        // SAFETY: the caller's obligations are those of `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, 1);
        count(layout.size(), -1);
        // SAFETY: the caller's obligations are those of `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Measuring = Measuring;

/// Transactions in a batch; each touches three of the batch's `2·TXNS`
/// accounts.
const TXNS: u64 = 32;

/// Batch `b`: the same conflict shape every time, over accounts no
/// earlier batch touched. Transaction `i` writes accounts `i` and
/// `i + 1` of the batch's window and reads one of its last `TXNS`.
fn batch(b: u64, map: &AccountMap) -> Vec<Transaction> {
    let base = b * 2 * TXNS;
    (0..TXNS)
        .map(|i| {
            TxnBuilder::new(TxnId(b * TXNS + i), ShardId(0), Round(b), map)
                .update(AccountId(base + i), 1)
                .update(AccountId(base + (i + 1) % TXNS), 1)
                .check(AccountId(base + TXNS + i % 4), 0)
                .build()
                .expect("three accounts on at most three shards")
        })
        .collect()
}

#[test]
fn an_interned_scratch_holds_one_batch_not_every_account_it_saw() {
    let sys = SystemConfig {
        shards: 8,
        accounts: DENSE_LIMIT + 1,
        k_max: 8,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    let before = LIVE.with(Cell::get);
    let mut scratch = ColoringScratch::with_accounts(sys.accounts);
    let mut after_second = 0;
    for b in 0..200 {
        let txns = batch(b, &map);
        let coloring = greedy_by_accounts_with(&txns, &mut scratch);
        assert_eq!(
            coloring.num_colors(),
            2,
            "batch {b}: an even cycle of writers"
        );
        drop((coloring, txns));
        let held = live_since(before);
        if b == 1 {
            after_second = held;
            // A dense scratch over this universe would pre-size ~29 MB.
            assert!(held < 64 << 10, "{held} bytes: the scratch is not interned");
        }
        assert!(
            b < 2 || held <= after_second,
            "after batch {b} the scratch holds {held} bytes, {after_second} after the second"
        );
    }
    drop(scratch);
    assert_eq!(live_since(before), 0, "the scratch held every byte above");
}
