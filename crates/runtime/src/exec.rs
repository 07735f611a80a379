//! Ownership lockstep executor: each worker thread *owns* a contiguous
//! range of shards for the whole run and steps them round by round.
//!
//! The thread-per-shard loop ("await my round, run it, complete it")
//! hard-wires one context switch per shard per round: no thread can pass
//! the gate until every peer has run, so a host with fewer cores than
//! shards rotates through **all** shard threads each round (~10µs per
//! 16-shard round on one core). [`run_lockstep`] keeps [`RoundGate`]'s
//! per-shard watermarks but runs them from a pool: worker `w` of
//! `W = min(workers, s)` owns the shards `[w·s/W, (w+1)·s/W)` — sizes
//! differ by at most one — locks their slots once, and per round waits
//! until every shard it does *not* own has finished the previous round,
//! then steps its own in shard order, completing each one's watermark.
//! A step costs the closure call and one `Release` store; a round, one
//! scan of the peers' watermarks per worker (none at all at `W = 1`).
//! With `W ≤ cores` a waiter spins briefly before yielding; beyond that
//! it yields at once and the scheduler rotates the workers once a round —
//! only tests ask for that, [`default_workers`] caps at the core count.
//!
//! What ownership gives up is work-helping inside a round: a worker that
//! finishes its range early waits for the laggard instead of taking one
//! of its shards. What it buys is that nothing is decided per step — no
//! readiness check, no lock attempt, no scan of shards a peer is running.
//!
//! Correctness is inherited, not re-proven: a shard's rounds execute
//! sequentially on its one owner, and a round's steps start only once
//! every watermark has reached it (the worker's own by program order,
//! the rest by the gate's `Acquire` loads), so the slack-1 drift bound
//! and the Release/Acquire visibility argument from [`RoundGate`] hold
//! verbatim. Reports are identical for any worker count because nothing
//! observable depends on *which thread* executes a round.
//!
//! A step that panics must end the run, yet its worker's shards never
//! reach the round the peers wait on: the unwinding worker poisons the
//! gate, waiting peers return, and `thread::scope` re-raises.

use crate::sync::RoundGate;
use parking_lot::Mutex;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The worker count the networked drivers use when the caller does not
/// choose one: a thread per shard up to the host's parallelism, never
/// more — workers beyond the core count only take turns on the cores
/// once a round. Results do not depend on the choice (any `workers >= 1`
/// yields the identical report).
pub fn default_workers(shards: usize) -> usize {
    shards.min(cores())
}

/// Drives `slots.len()` shards through `rounds` lockstep rounds on
/// `workers` threads (clamped to `1..=slots.len()`), each owning a
/// contiguous range of shards.
///
/// `step(ctx, shard, round)` is invoked exactly once per (shard, round)
/// pair, rounds strictly increasing per shard, always by the same
/// thread, and only once every shard has completed all earlier rounds —
/// the schedule a thread-per-shard driver produces, minus the forced
/// context switches. `gate` must be freshly constructed for
/// `slots.len()` shards. A panic in `step` ends the run and propagates.
pub fn run_lockstep<C, F>(
    gate: &RoundGate,
    slots: &[Mutex<C>],
    rounds: u64,
    workers: usize,
    step: F,
) where
    C: Send,
    F: Fn(&mut C, usize, u64) + Sync,
{
    let s = slots.len();
    if s == 0 || rounds == 0 {
        return;
    }
    let workers = workers.clamp(1, s);
    // Spin only if every worker has a core: otherwise a spinning waiter
    // occupies the core the peer it polls needs (3–8× the round cost on
    // one core).
    let spin_budget = if workers <= cores() { 64 } else { 0 };
    let step = &step;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                let (lo, hi) = (w * s / workers, (w + 1) * s / workers);
                let _poison = gate.poison_on_unwind();
                let mut mine: Vec<_> = slots[lo..hi].iter().map(Mutex::lock).collect();
                for round in 0..rounds {
                    if !gate.wait(round, lo..hi, spin_budget) {
                        return;
                    }
                    for (ctx, shard) in mine.iter_mut().zip(lo..) {
                        step(ctx, shard, round);
                        gate.complete(shard, round);
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The executor must produce the exact thread-per-shard schedule:
    /// every (shard, round) once, rounds in order, never ahead of the
    /// slowest peer by more than the slack the gate allows.
    #[test]
    fn runs_every_round_in_lockstep() {
        const SHARDS: usize = 8;
        const ROUNDS: u64 = 300;
        let gate = RoundGate::new(SHARDS);
        let tally: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
        let slots: Vec<Mutex<Vec<u64>>> = (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect();
        run_lockstep(&gate, &slots, ROUNDS, SHARDS, |seen, _shard, round| {
            if round > 0 {
                let prev = tally[(round - 1) as usize].load(Ordering::SeqCst);
                assert_eq!(prev, SHARDS as u64, "round {round} ran too early");
            }
            seen.push(round);
            tally[round as usize].fetch_add(1, Ordering::SeqCst);
        });
        for slot in &slots {
            let seen = slot.lock();
            assert_eq!(*seen, (0..ROUNDS).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_workers_than_shards_is_fine() {
        let gate = RoundGate::new(2);
        let slots: Vec<Mutex<u64>> = (0..2).map(|_| Mutex::new(0)).collect();
        run_lockstep(&gate, &slots, 50, 7, |count, _, _| *count += 1);
        assert!(slots.iter().all(|s| *s.lock() == 50));
    }

    #[test]
    fn default_workers_is_bounded_by_shards_and_cores() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(default_workers(1), 1);
        assert_eq!(default_workers(4096), cores.min(4096));
    }

    #[test]
    fn zero_rounds_returns_immediately() {
        let gate = RoundGate::new(3);
        let slots: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        run_lockstep(&gate, &slots, 0, 3, |_, _, _| {
            unreachable!("no rounds to run")
        });
    }
}
