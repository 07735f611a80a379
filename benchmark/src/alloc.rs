//! The counting global allocator: exact allocation counts and the
//! high-water mark of live heap bytes, the two memory numbers that repeat
//! bit-for-bit on this single-threaded program.
//!
//! Counting is gated by a flag that is off during timed iterations, so a
//! timed allocation costs one relaxed load on top of `System`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`] and, while counting is on, tallies every call.
pub struct CountingAlloc;

// Relaxed everywhere: the counters are statistics and publish no data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Net bytes allocated since [`start`]; negative when memory from before
/// the window is freed inside it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping touches only the atomics above and never the
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are those of `System.alloc`.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: the caller's obligations are those of `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are those of `System.realloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Counters since the last [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// High-water mark of net live bytes.
    pub peak_live: u64,
}

/// Zeroes the counters and turns counting on.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// The counters right now (counting stays as it is).
pub fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Turns counting off and returns the counters.
pub fn stop() -> AllocStats {
    ON.store(false, Relaxed);
    snapshot()
}
