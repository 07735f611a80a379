//! A chain's heap, measured with this binary's own global allocator: a
//! closed page keeps its 16-byte headers and 32 bytes for each sub it
//! holds, the open page at most 16 bytes of spare payload for each of its
//! blocks, and nothing else of the chain is live but its page list.
//!
//! Only the test thread's own allocations count, so the harness's
//! threads cannot move the figures.

use sharding_core::txn::{Action, SubTransaction};
use sharding_core::{AccountId, Round, ShardId, TxnId};
use simnet::blockchain::PAGE;
use simnet::LocalChain;
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

/// Bytes a block header takes in its page.
const HEADER: usize = 16;
/// Bytes a committed sub takes in its page's payload.
const SUB: usize = 32;
/// The page list once a second page opens: four slots of two `Vec`s.
const PAGE_LIST: usize = 4 * 2 * std::mem::size_of::<Vec<u8>>();

/// One write-only sub of `txn` for shard 0; its one action sits in
/// place, so the sub owns no heap block of its own.
fn sub(txn: u64) -> SubTransaction {
    let action = Action {
        account: AccountId(txn),
        delta: 1,
    };
    SubTransaction::new(TxnId(txn), ShardId(0), &[], &[action])
}

#[test]
fn a_page_keeps_16_bytes_a_block_and_32_a_sub() {
    let before = LIVE.with(Cell::get);
    let mut chain = LocalChain::new(ShardId(0));
    // Subs and blocks of each page, genesis counted in the first; kept
    // in place, so the test's own bookkeeping allocates nothing.
    let (mut subs, mut blocks, mut page) = ([0usize; 4], [1, 0, 0, 0], 0);
    let closed = |subs: &[usize]| -> usize { subs.iter().map(|n| HEADER * PAGE + SUB * n).sum() };
    let mut txn = 0;
    // Three full pages and a partial fourth; every fifth block holds two
    // to four subs, and the rest one.
    for i in 1..3 * PAGE + PAGE / 2 {
        let n = if i % 5 == 0 { 2 + i % 3 } else { 1 };
        let batch: Vec<SubTransaction> = (txn..txn + n as u64).map(sub).collect();
        txn += n as u64;
        match n {
            1 => chain.append(batch.into_iter().next().unwrap(), Round(i as u64)),
            _ => chain.append_block(batch, Round(i as u64)),
        };
        if i % PAGE == 0 {
            // The block that opens a page closes the one before it, and
            // the new page's payload fits that block exactly (its spare
            // room is under one sub).
            let open = HEADER * PAGE + SUB * n + PAGE_LIST;
            let held = live_since(before) - closed(&subs[..page]) - open;
            assert_eq!(held, HEADER * PAGE + SUB * subs[page], "closed page {page}");
            page += 1;
        }
        subs[page] += n;
        blocks[page] += 1;
        if page > 0 {
            // A page past the first allocates its headers at full size.
            let kept = closed(&subs[..page]) + HEADER * PAGE + SUB * subs[page] + PAGE_LIST;
            let spare = live_since(before) - kept;
            assert!(spare.is_multiple_of(SUB), "block {i}: {spare} spare bytes");
            assert!(
                spare <= HEADER * blocks[page],
                "block {i}: {spare} spare bytes over {} blocks",
                blocks[page]
            );
        }
    }
    assert_eq!(page, 3, "three full pages and a partial one");
    assert_eq!(chain.sub_count(), subs.iter().sum::<usize>());
    assert_eq!(chain.len(), blocks.iter().sum::<usize>() - 1);
    assert!(chain.verify());
    drop(chain);
    assert_eq!(live_since(before), 0, "the chain held every byte above");
}
