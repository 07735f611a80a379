//! Ownership lockstep executor: worker `w` of `W = min(workers, s)` owns
//! the shards `[w·s/W, (w+1)·s/W)` for the whole run and steps them
//! round by round; after every round the calling thread closes it.
//! (DESIGN.md has why a pool of owners replaced a thread per shard and
//! shard claiming.)
//!
//! Worker 0 is the calling thread, so one worker spawns no thread. A peer
//! waits until every shard it does *not* own has finished the previous
//! round, steps its own in shard order, locking each slot for its step
//! only, and completes their watermarks. Worker 0 holds its own slots'
//! locks for the whole run: it steps them, waits for every peer to
//! complete the round, runs the round's `close` over all the slots, and
//! only then completes its own watermarks — so no shard starts round
//! `r + 1` before round `r` is closed. With `W ≤ cores` a waiter spins
//! briefly before yielding; beyond that it yields at once
//! ([`default_workers`] caps at the core count).
//!
//! Correctness is inherited, not re-proven: a shard's rounds execute
//! sequentially on its one owner, and a round's steps start only once
//! every watermark has reached it, so the Release/Acquire visibility
//! argument from [`RoundGate`] holds verbatim, and nothing observable
//! depends on *which thread* executes a round. A step or close that
//! panics poisons the gate as it unwinds, waiting workers return, and
//! `thread::scope` re-raises.

use crate::sync::RoundGate;
use parking_lot::{Mutex, MutexGuard};

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

/// [`run_lockstep_closing`] with nothing to do between rounds.
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
    run_lockstep_closing(gate, slots, rounds, workers, step, |_, _| {});
}

/// Drives `slots.len()` shards through `rounds` lockstep rounds on
/// `workers` threads (clamped to `1..=slots.len()`, the calling thread
/// being one of them), each owning a contiguous range of shards.
///
/// `step(ctx, shard, round)` is invoked exactly once per (shard, round)
/// pair, rounds strictly increasing per shard, always by the same
/// thread, and only once every shard has completed all earlier rounds
/// and each has been closed. `close(round, slots)` runs on the calling
/// thread once every shard has stepped `round`, over every slot in shard
/// order. `gate` must be freshly constructed for `slots.len()` shards. A
/// panic in `step` or `close` ends the run and propagates.
pub fn run_lockstep_closing<C, F, G>(
    gate: &RoundGate,
    slots: &[Mutex<C>],
    rounds: u64,
    workers: usize,
    step: F,
    mut close: G,
) where
    C: Send,
    F: Fn(&mut C, usize, u64) + Sync,
    G: FnMut(u64, &mut [MutexGuard<'_, C>]),
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
    let range = |w: usize| w * s / workers..(w + 1) * s / workers;
    let step = &step;
    std::thread::scope(|scope| {
        for own in (1..workers).map(range) {
            scope.spawn(move || {
                let _poison = gate.poison_on_unwind();
                for round in 0..rounds {
                    if !gate.wait(round, own.clone(), spin_budget) {
                        return;
                    }
                    for (slot, shard) in slots[own.clone()].iter().zip(own.clone()) {
                        step(&mut slot.lock(), shard, round);
                    }
                    own.clone().for_each(|shard| gate.complete(shard, round));
                }
            });
        }
        let own = range(0);
        let _poison = gate.poison_on_unwind();
        let mut held: Vec<_> = slots[own.clone()].iter().map(Mutex::lock).collect();
        for round in 0..rounds {
            // The previous round's wait below has seen every peer finish
            // `round - 1`.
            for (slot, shard) in held.iter_mut().zip(own.clone()) {
                step(slot, shard, round);
            }
            if !gate.wait(round + 1, own.clone(), spin_budget) {
                return;
            }
            held.extend(slots[own.end..].iter().map(Mutex::lock));
            close(round, &mut held);
            held.truncate(own.len());
            own.clone().for_each(|shard| gate.complete(shard, round));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The executor must produce the exact thread-per-shard schedule:
    /// every (shard, round) once, rounds in order, and no round before
    /// every shard has stepped the one before.
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

    /// The close of round `r` sees every shard's step of `r` and none of
    /// `r + 1`, at every worker count.
    #[test]
    fn each_round_closes_between_its_steps_and_the_next() {
        const SHARDS: usize = 6;
        const ROUNDS: u64 = 200;
        for workers in [1, 2, 4, SHARDS] {
            let gate = RoundGate::new(SHARDS);
            let slots: Vec<Mutex<u64>> = (0..SHARDS).map(|_| Mutex::new(0)).collect();
            let mut closed = 0;
            let close = |round, slots: &mut [MutexGuard<'_, u64>]| {
                assert!(slots.iter().all(|stepped| **stepped == round + 1));
                closed += 1;
            };
            run_lockstep_closing(&gate, &slots, ROUNDS, workers, |n, _, _| *n += 1, close);
            assert_eq!(closed, ROUNDS, "{workers} workers");
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
