//! Round synchronization for the shard threads: a watermark gate that
//! replaces `std::sync::Barrier`.
//!
//! The drivers' ordering requirement is *"every send of round `r-1` is
//! visible before round `r` is drained"*. A classic barrier meets it with
//! a futex sleep + wake per thread per round, which profiling showed
//! dominates the net-engine round cost on small machines (the 16-thread
//! fixture spent ~75% of its time parking and unparking).
//!
//! [`RoundGate`] keeps the barrier's order without the sleep. Each shard
//! owns a cache-padded watermark `wm[i]` = "rounds shard `i` has
//! completed". To drain round `r` a thread waits until **all** watermarks
//! reach `r` (every peer finished `r-1`); after finishing its own round
//! `r` it stores `r+1` with `Release`. Two consequences:
//!
//! * **Order**: the last thread to finish round `r-1`
//!   releases every waiter at once, so no thread starts round `r` before
//!   every peer finished `r-1`. The executor
//!   ([`run_lockstep_closing`](crate::run_lockstep_closing)) completes
//!   worker 0's watermarks only after it has closed the round, so no
//!   shard steps `r+1` before round `r` is closed either.
//! * **Visibility**: the `Release` store on `wm[i]` happens after all of
//!   shard `i`'s round-`r-1` sends, each of which raised its mailbox's
//!   has-mail flag after its push; the drainer's `Acquire` load therefore
//!   observes those flags (the mailbox's own flag and lock transfer the
//!   payloads themselves).
//!
//! Waiters spin at most a caller-chosen budget, then `yield_now` — never
//! a futex sleep — so on a single core the scheduler rotates threads
//! instead of round-tripping through wake-ups, and on many cores the
//! spin window catches the common fast path. The budget is the caller's
//! because only the caller knows how many threads take part: a waiter
//! that spins while its peer has no core to run on delays the very store
//! it is polling for (measured at 3–8× the round cost on one core).
//!
//! A gate can be *poisoned* by a participant that will never complete
//! its rounds (the executor does so when a step panics); waiters then
//! give up instead of waiting forever.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pads and aligns a value to 128 bytes so that values written by
/// different threads never share a cache line (two lines on x86:
/// adjacent-line prefetch pulls pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// A fuzzy barrier over per-shard round watermarks; see the module docs
/// for the protocol and why it is sufficient for the message plane.
pub struct RoundGate {
    /// `wm[i]` = rounds completed by shard `i`. Each entry has exactly
    /// one writer (shard `i`'s thread); padding keeps the hot stores from
    /// invalidating neighbours' lines.
    wm: Vec<CachePadded<AtomicU64>>,
    /// Set once by a participant that gave up. It publishes no data, so
    /// `Relaxed` suffices: a waiter polls it in a loop.
    poisoned: AtomicBool,
}

impl RoundGate {
    /// A gate over `shards` watermarks.
    pub fn new(shards: usize) -> Self {
        RoundGate {
            wm: (0..shards)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until every shard outside `own` has completed rounds
    /// `0..round` — the caller vouches for the shards it runs itself —
    /// spinning at most `spin_budget` times on a lagging shard before
    /// yielding. Returns immediately for round 0, and `false` (without
    /// the visibility guarantee) once the gate is poisoned.
    pub fn wait(&self, round: u64, own: Range<usize>, spin_budget: u32) -> bool {
        // One shard at a time: while waiting on a slow peer there is no
        // point re-polling the fast ones.
        for i in (0..own.start).chain(own.end..self.wm.len()) {
            let mut spins = 0u32;
            while self.wm[i].0.load(Ordering::Acquire) < round {
                if self.poisoned.load(Ordering::Relaxed) {
                    return false;
                } else if spins < spin_budget {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        true
    }

    /// A guard that poisons the gate if it is dropped by a panic: every
    /// current and future [`wait`](Self::wait) on a lagging shard then
    /// returns `false`. A participant holds one while it runs rounds.
    pub fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Rounds completed by `shard` so far — equivalently, the next round
    /// it has yet to run.
    pub fn watermark(&self, shard: usize) -> u64 {
        self.wm[shard].0.load(Ordering::Acquire)
    }

    /// Records that `shard` has completed `round`. Must be called with
    /// strictly increasing rounds by the single thread owning `shard`.
    pub fn complete(&self, shard: usize, round: u64) {
        self.wm[shard].0.store(round + 1, Ordering::Release);
    }
}

/// See [`RoundGate::poison_on_unwind`].
pub struct PoisonOnUnwind<'a>(&'a RoundGate);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_zero_never_waits() {
        let gate = RoundGate::new(8);
        assert!(gate.wait(0, 0..0, 0)); // would hang if it waited on anyone
    }

    #[test]
    fn waits_for_the_slowest_shard() {
        let gate = RoundGate::new(2);
        gate.complete(0, 0);
        let released = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(gate.wait(1, 0..0, 0));
                released.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!released.load(Ordering::SeqCst), "shard 1 not done yet");
            gate.complete(1, 0);
        });
        assert!(released.load(Ordering::SeqCst));
    }

    #[test]
    fn a_waiter_vouches_for_its_own_range() {
        let gate = RoundGate::new(4);
        gate.complete(0, 0);
        gate.complete(3, 0);
        // Shards 1 and 2 lag, but they are the caller's own.
        assert!(gate.wait(1, 1..3, 0));
        assert!(gate.wait(1, 0..4, 0));
    }

    #[test]
    fn poison_releases_a_waiter_empty_handed() {
        let gate = RoundGate::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait(1, 0..1, 0));
            let quitter = s.spawn(|| {
                let _poison = gate.poison_on_unwind();
                panic!("shard 1 gives up (this test expects it)");
            });
            assert!(quitter.join().is_err());
            assert!(!waiter.join().expect("the waiter returns"));
        });
        // A round everybody reached is still granted.
        assert!(gate.wait(0, 0..0, 0));
    }

    #[test]
    fn lockstep_rounds_across_threads() {
        // Each thread bumps a shared per-round tally after the gate lets
        // it through; the gate guarantees it never observes a tally
        // missing a peer's previous round.
        const THREADS: usize = 4;
        const ROUNDS: u64 = 200;
        let gate = RoundGate::new(THREADS);
        let tally: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for shard in 0..THREADS {
                let gate = &gate;
                let tally = &tally;
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        assert!(gate.wait(r, 0..0, 0));
                        if r > 0 {
                            let prev = tally[(r - 1) as usize].load(Ordering::SeqCst);
                            assert_eq!(prev, THREADS as u64, "round {r} ran too early");
                        }
                        tally[r as usize].fetch_add(1, Ordering::SeqCst);
                        gate.complete(shard, r);
                    }
                });
            }
        });
    }
}
