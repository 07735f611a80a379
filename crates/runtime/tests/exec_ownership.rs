//! What [`runtime::run_lockstep`] promises beyond the lockstep schedule
//! (`exec_edges.rs` and the executor's unit tests pin that): every shard
//! is stepped by one thread for the whole run, the threads' ranges are
//! contiguous and balanced, and a step or a round's close that panics
//! ends the run instead of leaving the other workers waiting on its
//! watermark.

use parking_lot::Mutex;
use parking_lot::MutexGuard;
use runtime::{run_lockstep, run_lockstep_closing, RoundGate};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::Duration;

/// The thread that ran each shard, after asserting it was the same one
/// in every round.
fn owners(shards: usize, workers: usize) -> Vec<ThreadId> {
    const ROUNDS: u64 = 40;
    let gate = RoundGate::new(shards);
    let slots: Vec<Mutex<Vec<ThreadId>>> = (0..shards).map(|_| Mutex::new(Vec::new())).collect();
    run_lockstep(&gate, &slots, ROUNDS, workers, |seen, _, _| {
        seen.push(std::thread::current().id());
    });
    let by_shard = slots.into_iter().map(|slot| {
        let seen = slot.into_inner();
        assert_eq!(seen.len() as u64, ROUNDS);
        assert!(
            seen.iter().all(|id| *id == seen[0]),
            "a shard changed hands"
        );
        seen[0]
    });
    by_shard.collect()
}

/// Sizes of the maximal runs of equal owners, after asserting no thread
/// owns two separate runs.
fn range_sizes(owners: &[ThreadId]) -> Vec<usize> {
    let ranges: Vec<&[ThreadId]> = owners.chunk_by(|a, b| a == b).collect();
    for (i, range) in ranges.iter().enumerate() {
        assert!(
            ranges[..i].iter().all(|earlier| earlier[0] != range[0]),
            "a worker's shards are not contiguous"
        );
    }
    ranges.iter().map(|range| range.len()).collect()
}

#[test]
fn each_worker_owns_one_contiguous_balanced_range() {
    for (shards, workers, threads) in [(5, 3, 3), (64, 1, 1), (4, 9, 4), (7, 7, 7), (64, 5, 5)] {
        let sizes = range_sizes(&owners(shards, workers));
        assert_eq!(sizes.len(), threads, "{shards} shards, {workers} workers");
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(
            max - min <= 1,
            "{shards} shards, {workers} workers: {sizes:?}"
        );
    }
}

/// Runs 4 shards for up to 1 000 rounds, `fail(shard, round)` deciding
/// where a step panics and `fail(4, round)` where the close of a round
/// does. The run gets a thread of its own and reports back over a
/// channel, so an executor that leaves the peers waiting fails this test
/// instead of hanging it. Returns the hits of the failure and the
/// furthest round any shard stepped.
fn panicking_run(
    workers: usize,
    fail: impl Fn(usize, u64) -> bool + Send + Sync + 'static,
) -> (u64, u64) {
    let (done, watchdog) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let gate = RoundGate::new(4);
        let slots: Vec<Mutex<()>> = (0..4).map(|_| Mutex::new(())).collect();
        let (hits, furthest) = (AtomicU64::new(0), AtomicU64::new(0));
        let fails = |at, round| {
            if fail(at, round) {
                hits.fetch_add(1, Ordering::SeqCst);
                panic!("{at} fails at round {round} (this test expects it)");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let step = |_: &mut (), shard, round| {
                furthest.fetch_max(round, Ordering::SeqCst);
                fails(shard, round);
            };
            let close = |round, slots: &mut [MutexGuard<'_, ()>]| {
                assert_eq!(slots.len(), 4, "the close sees every slot");
                fails(4, round);
            };
            run_lockstep_closing(&gate, &slots, 1_000, workers, step, close)
        }));
        let report = (outcome.is_err(), hits.into_inner(), furthest.into_inner());
        done.send(report).expect("the test is listening");
    });
    let (panicked, hits, furthest) = watchdog
        .recv_timeout(Duration::from_secs(30))
        .expect("the run hung: peers kept waiting on the panicked worker's watermark");
    run.join().expect("the runner catches the panic");
    assert!(panicked, "the panic must reach the caller");
    (hits, furthest)
}

/// A step that panics at (`shard`, round 3) runs once and ends the run
/// before any shard steps round 4.
fn panicking_step_ends_the_run(workers: usize, shard: usize) {
    let fail = move |at, round| at == shard && round == 3;
    let (hits, furthest) = panicking_run(workers, fail);
    assert_eq!(hits, 1, "the failing step ran (and reported) once");
    assert_eq!(
        furthest, 3,
        "no shard may pass the round that never finished"
    );
}

#[test]
fn a_panicking_step_ends_the_run_at_two_workers() {
    panicking_step_ends_the_run(2, 0);
}

#[test]
fn a_panicking_step_ends_the_run_at_three_workers() {
    panicking_step_ends_the_run(3, 0);
}

#[test]
fn a_panicking_peer_step_ends_the_run() {
    for workers in [2, 4] {
        panicking_step_ends_the_run(workers, 3);
    }
}

/// The close runs on the calling thread between two rounds: a close that
/// panics after round 3 leaves round 4 unstepped, at any worker count.
#[test]
fn a_panicking_close_ends_the_run() {
    for workers in [1, 2, 4] {
        let (hits, furthest) = panicking_run(workers, |at, round| at == 4 && round == 3);
        assert_eq!(hits, 1, "{workers} workers: the failing close ran once");
        assert_eq!(
            furthest, 3,
            "{workers} workers: a shard stepped past the close"
        );
    }
}
