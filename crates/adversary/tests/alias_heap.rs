//! The Zipf alias table's heap, measured with this binary's own global
//! allocator: a table over `n` accounts keeps its `8n` bytes of packed
//! columns plus the exact head, and its in-place build holds no more
//! than those and Vose's two `u32` stacks, `4n` bytes together.
//!
//! One `#[test]` in the binary, so no other test thread's allocations
//! are counted.

use adversary::AliasTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the test last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

struct Measuring;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping is relaxed atomics and never touches the
// allocated memory.
unsafe impl GlobalAlloc for Measuring {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are those of `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
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
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let table = AliasTable::zipf(N, 0.6);
    let (kept, peak) = (LIVE.load(Relaxed) - before, PEAK.load(Relaxed) - before);
    assert_eq!(table.len(), N);
    assert_eq!(kept, 8 * N + HEAD, "the table keeps its columns and head");
    assert!(
        peak <= 12 * N + HEAD + (64 << 10),
        "the build peaked at {peak} bytes, above 12n + head + 64 KiB"
    );
}
