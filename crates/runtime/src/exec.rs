//! Cooperative lockstep executor: worker threads *claim* runnable shard
//! rounds instead of blocking on their own shard.
//!
//! The thread-per-shard loop ("await my round, run it, complete it") is
//! the obvious driver shape, but it hard-wires one context switch per
//! shard per round: a thread can never advance past the gate until every
//! peer has run, so on a host with fewer cores than shards the scheduler
//! must rotate through **all** shard threads each round. Profiling on a
//! single-core host put that rotation at ~10µs per 16-shard round —
//! two-thirds of the whole round cost — with the gate already yield-based
//! and near the `sched_yield` floor.
//!
//! [`run_lockstep`] removes the rotation instead of cheapening it. Shard
//! state lives in per-shard mutexed slots; each worker sweeps the slots
//! and, for any shard whose next round is *runnable* (every watermark has
//! reached it — the same [`RoundGate`] condition the blocking driver
//! waited on), try-locks the slot and executes that one round. Running a
//! round makes the next shard runnable, so a single sweep executes one
//! full round of all shards without ever blocking:
//!
//! * **One core:** whichever worker holds the timeslice keeps claiming —
//!   all shards' rounds run back-to-back with *zero* per-round context
//!   switches. Peers only run at quantum expiry, amortized over hundreds
//!   of rounds.
//! * **Many cores:** each worker starts its sweep at its own index, so
//!   workers spread across shards and the schedule degenerates to
//!   thread-per-shard with work-helping — an idle worker picks up the
//!   laggard instead of spinning on it.
//!
//! Correctness is inherited, not re-proven: a shard's rounds still
//! execute sequentially (its slot mutex serializes them, watermarks only
//! advance under the lock), and the runnability check is the identical
//! all-watermarks-≥-r condition, so the slack-1 drift bound and the
//! Release/Acquire visibility argument from [`RoundGate`] hold verbatim.
//! Run reports are byte-identical to the blocking driver's because
//! nothing observable depends on *which thread* executes a round.

use crate::sync::RoundGate;
use parking_lot::Mutex;

/// The worker count the networked drivers use when the caller does not
/// choose one: a thread per shard up to the host's parallelism, never
/// more — workers beyond the core count only take turns sweeping the
/// same slots and yielding to one another. Results do not depend on the
/// choice (any `workers >= 1` yields the identical report).
pub fn default_workers(shards: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    shards.min(cores)
}

/// Drives `slots.len()` shards through `rounds` lockstep rounds using
/// `workers` cooperating threads (clamped to at least 1).
///
/// `step(ctx, shard, round)` is invoked exactly once per (shard, round)
/// pair, rounds strictly increasing per shard, and only once every
/// shard has completed all earlier rounds — the same schedule a
/// thread-per-shard driver produces, minus the forced context switches.
/// `gate` must be freshly constructed for `slots.len()` shards.
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
    let step = &step;
    std::thread::scope(|scope| {
        for w in 0..workers.max(1) {
            scope.spawn(move || {
                // Highest round already proven runnable. Watermarks only
                // grow, so runnable(r) stays true forever once observed;
                // caching it turns the per-claim readiness scan into a
                // comparison on the hot path.
                let mut known_ready = 0u64;
                loop {
                    let mut progressed = false;
                    let mut all_done = true;
                    for k in 0..s {
                        let i = (w + k) % s;
                        let r = gate.watermark(i);
                        if r >= rounds {
                            continue;
                        }
                        all_done = false;
                        if r >= known_ready {
                            if !gate.ready(r) {
                                continue;
                            }
                            known_ready = r + 1;
                        }
                        let Some(mut ctx) = slots[i].try_lock() else {
                            continue;
                        };
                        // Re-read under the lock: another worker may have
                        // run this shard between the scan and the lock.
                        let r = gate.watermark(i);
                        if r >= rounds || (r >= known_ready && !gate.ready(r)) {
                            continue;
                        }
                        step(&mut ctx, i, r);
                        gate.complete(i, r);
                        progressed = true;
                    }
                    if all_done {
                        break;
                    }
                    if !progressed {
                        // Every runnable shard is claimed by a peer that
                        // is actively executing it; get off the core so
                        // that peer can finish.
                        std::thread::yield_now();
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
