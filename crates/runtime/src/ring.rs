//! A bounded single-producer / single-consumer ring buffer with an
//! unbounded spill path. **No run executes it:** the message plane hands
//! rounds over through one mailbox per destination (`crate::hub`), and
//! this module is kept only for `benchmark/`'s
//! `runtime.ring_push_drain_ns_per_msg` probe.
//!
//! An [`spsc`] pair is one [`RingProducer`] and one [`RingConsumer`]
//! communicating through a power-of-two slot array guarded only by two
//! atomic cursors:
//!
//! ```text
//!            tail (producer writes, Release)
//!              │
//!   ┌───┬───┬──▼┬───┬───┬───┬───┬───┐
//!   │ f │ g │   │   │   │ c │ d │ e │   capacity = 8 (mask = 7)
//!   └───┴───┴───┴───┴───┴──▲┴───┴───┘
//!                          │
//!            head (consumer writes, Release)
//! ```
//!
//! * The producer owns slots `[tail, head + capacity)`: it writes a value
//!   into `slots[tail & mask]`, then publishes it with a `Release` store
//!   of `tail + 1`. It never touches `head` except to `Acquire`-load a
//!   fresh snapshot when its cached copy says the ring looks full.
//! * The consumer owns slots `[head, tail)`: an `Acquire` load of `tail`
//!   makes every published slot visible, the values are taken out, and a
//!   single `Release` store of the new `head` hands the slots back.
//!
//! Because each cursor has exactly one writer, no CAS loop or mutex is
//! needed on the hot path — one atomic store per push, two per drain.
//!
//! **Correctness never depends on sizing.** When the ring is full the
//! producer diverts into a mutex-protected spill queue, and the consumer
//! empties the spill after the slots on every drain. Ring items and spill
//! items may interleave differently than pure send order (a consumer
//! that re-buckets and sorts, as a message plane does, needs only that
//! every item *arrives*). Capacity-1 rings (every push after the first
//! spills) are exercised by `tests/ring_props.rs`.
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (see the crate-level `#![deny(unsafe_code)]`); the slot array is the
//! entire unsafe surface, and slots hold `Option<T>` so drop of a
//! half-full ring is ordinary `Option` drop glue — no manual destructor.

#![allow(unsafe_code)]

use crate::sync::CachePadded;
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// State shared by the two endpoints of one ring.
struct RingShared<T> {
    /// The slot array; `Option` so unclaimed values drop safely with the
    /// ring. A slot is `Some` exactly while its index is in `[head, tail)`.
    slots: Box<[UnsafeCell<Option<T>>]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// Next slot the consumer will take. Written only by the consumer.
    head: CachePadded<AtomicU64>,
    /// Next slot the producer will fill. Written only by the producer.
    tail: CachePadded<AtomicU64>,
    /// Overflow lane for pushes that find the ring full. `spill_len`
    /// mirrors the queue length and is only updated while the mutex is
    /// held, so the consumer's cheap pre-check can never observe a
    /// non-zero count for an empty queue.
    spill: Mutex<VecDeque<T>>,
    spill_len: AtomicUsize,
}

// SAFETY: the cursor protocol above makes every slot exclusively owned by
// one endpoint at any time — the producer only writes slots at indices in
// `[tail, head + capacity)` and the consumer only reads slots in
// `[head, tail)`, with Release/Acquire pairs on the cursors ordering the
// ownership transfer. `T: Send` is required because values move across
// the thread boundary.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

/// Creates one SPSC ring of at least `capacity` slots (rounded up to a
/// power of two, minimum 1) and returns its two endpoints.
pub fn spsc<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let shared = Arc::new(RingShared {
        slots: (0..cap).map(|_| UnsafeCell::new(None)).collect(),
        mask: cap as u64 - 1,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        spill: Mutex::new(VecDeque::new()),
        spill_len: AtomicUsize::new(0),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
            spilled: 0,
        },
        RingConsumer { shared, head: 0 },
    )
}

/// The sending endpoint of one ring. Exactly one exists per ring and it
/// is not `Clone` — exclusive ownership is what makes the lock-free
/// protocol sound.
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
    /// Local copy of the shared tail (this endpoint is its only writer).
    tail: u64,
    /// Stale-but-safe snapshot of the consumer's head; refreshed only
    /// when the ring looks full.
    head_cache: u64,
    spilled: u64,
}

impl<T> RingProducer<T> {
    /// Pushes a value, diverting to the spill queue when the ring is
    /// full. Never blocks on the consumer and never fails.
    pub fn push(&mut self, value: T) {
        let sh = &*self.shared;
        let cap = sh.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) >= cap {
            self.head_cache = sh.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) >= cap {
                let mut q = sh.spill.lock();
                q.push_back(value);
                sh.spill_len.store(q.len(), Ordering::Release);
                self.spilled += 1;
                return;
            }
        }
        let idx = (self.tail & sh.mask) as usize;
        // SAFETY: `tail - head_cache < cap` (checked above) and `head`
        // only grows, so this slot's index is outside every `[head, tail)`
        // window the consumer may be reading — the producer has exclusive
        // access until the Release store below publishes it.
        unsafe { *sh.slots[idx].get() = Some(value) };
        self.tail = self.tail.wrapping_add(1);
        sh.tail.0.store(self.tail, Ordering::Release);
    }

    /// Number of pushes that overflowed into the spill queue.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }
}

/// The receiving endpoint of one ring. Exactly one exists per ring.
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
    /// Local copy of the shared head (this endpoint is its only writer).
    head: u64,
}

impl<T> RingConsumer<T> {
    /// Takes every value currently published — ring slots first, then the
    /// spill queue — invoking `f` on each, and returns how many were
    /// taken. Values pushed concurrently with the drain may or may not be
    /// observed; they are never lost.
    pub fn drain_with(&mut self, mut f: impl FnMut(T)) -> usize {
        let sh = &*self.shared;
        let tail = sh.tail.0.load(Ordering::Acquire);
        let mut taken = 0usize;
        while self.head != tail {
            let idx = (self.head & sh.mask) as usize;
            // SAFETY: `head != tail` with the Acquire load above means
            // this slot was published by the producer's Release store and
            // will not be rewritten until we hand it back via `head`.
            let value = unsafe { (*sh.slots[idx].get()).take() };
            self.head = self.head.wrapping_add(1);
            f(value.expect("published SPSC slot holds a value"));
            taken += 1;
        }
        sh.head.0.store(self.head, Ordering::Release);
        if sh.spill_len.load(Ordering::Acquire) > 0 {
            let mut q = sh.spill.lock();
            while let Some(value) = q.pop_front() {
                f(value);
                taken += 1;
            }
            sh.spill_len.store(0, Ordering::Release);
        }
        taken
    }

    /// True when nothing is currently published (ring and spill both
    /// empty from this endpoint's perspective).
    pub fn is_empty(&self) -> bool {
        self.head == self.shared.tail.0.load(Ordering::Acquire)
            && self.shared.spill_len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_is_fifo() {
        let (mut p, mut c) = spsc::<u32>(8);
        for i in 0..5 {
            p.push(i);
        }
        let mut out = Vec::new();
        assert_eq!(c.drain_with(|v| out.push(v)), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(c.is_empty());
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut p, mut c) = spsc::<u64>(4);
        let mut expect = 0u64;
        for cycle in 0..100u64 {
            for k in 0..3 {
                p.push(cycle * 3 + k);
            }
            let mut out = Vec::new();
            c.drain_with(|v| out.push(v));
            for v in out {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
        assert_eq!(expect, 300);
        assert_eq!(p.spilled(), 0, "3 per cycle fits a 4-slot ring");
    }

    #[test]
    fn overflow_spills_and_drains() {
        let (mut p, mut c) = spsc::<u32>(2);
        for i in 0..10 {
            p.push(i);
        }
        assert_eq!(p.spilled(), 8);
        let mut out = Vec::new();
        assert_eq!(c.drain_with(|v| out.push(v)), 10);
        // Ring lane first (0, 1), then the spill lane in push order.
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_one_forces_spill() {
        let (mut p, mut c) = spsc::<u8>(1);
        p.push(1);
        p.push(2);
        p.push(3);
        assert_eq!(p.spilled(), 2);
        let mut out = Vec::new();
        c.drain_with(|v| out.push(v));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn unclaimed_values_drop_with_the_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut p, c) = spsc::<Counted>(2);
        for _ in 0..5 {
            p.push(Counted); // 2 in slots, 3 in spill
        }
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        let (mut p, mut c) = spsc::<u64>(8);
        let total = 10_000u64;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..total {
                    p.push(i);
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(move || {
                let mut all: Vec<u64> = Vec::new();
                while all.len() < total as usize {
                    c.drain_with(|v| all.push(v));
                    std::thread::yield_now();
                }
                // The two lanes may interleave, but nothing is lost or
                // duplicated.
                all.sort_unstable();
                assert_eq!(all, (0..total).collect::<Vec<_>>());
            });
        });
    }
}
