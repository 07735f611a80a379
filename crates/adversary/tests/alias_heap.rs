//! The Zipf alias table's heap, measured with this binary's own global
//! allocator: a table over `n` accounts keeps its `8n` bytes of packed
//! columns plus the exact head, and its in-place build holds no more
//! than those and Vose's two `u32` stacks, `4n` bytes together.
//!
//! Only the test thread's own allocations count, so the harness's
//! threads cannot move the figures.

use adversary::AliasTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated less those it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the test last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: usize, sign: isize) {
    // A thread past its locals' teardown no longer counts.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + sign * bytes as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// `reading`'s bytes above `before`, an earlier reading of `LIVE`.
fn since(reading: isize, before: isize) -> usize {
    usize::try_from(reading - before).expect("the thread freed what it held before")
}

struct Measuring;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping is const-initialised thread-local counters,
// which allocate nothing, and never touches the allocated memory.
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

#[test]
fn a_zipf_table_keeps_8n_bytes_and_its_build_peaks_at_12n() {
    const N: usize = 1 << 20;
    // `n − 1` takes 20 bits, so F = 43 and the first 2^(52−43) columns
    // are kept exactly, 12 bytes each.
    const HEAD: usize = 12 << 9;
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let table = AliasTable::zipf(N, 0.6);
    let kept = since(LIVE.with(Cell::get), before);
    let peak = since(PEAK.with(Cell::get), before);
    assert_eq!(table.len(), N);
    assert_eq!(kept, 8 * N + HEAD, "the table keeps its columns and head");
    assert!(
        peak <= 12 * N + HEAD + (64 << 10),
        "the build peaked at {peak} bytes, above 12n + head + 64 KiB"
    );
}
