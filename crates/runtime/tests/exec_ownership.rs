//! What [`runtime::run_lockstep`] promises beyond the lockstep schedule
//! (`exec_edges.rs` and the executor's unit tests pin that): every shard
//! is stepped by one thread for the whole run, the threads' ranges are
//! contiguous and balanced, and a step that panics ends the run instead
//! of leaving the other workers waiting on its watermark.

use parking_lot::Mutex;
use runtime::{run_lockstep, RoundGate};
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

/// Runs 4 shards whose step panics at (shard 0, round 3). The run gets
/// a thread of its own and reports back over a channel, so an executor
/// that leaves the peers waiting fails this test instead of hanging it.
fn panicking_step_ends_the_run(workers: usize) {
    let (done, watchdog) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let gate = RoundGate::new(4);
        let slots: Vec<Mutex<()>> = (0..4).map(|_| Mutex::new(())).collect();
        let (hits, furthest) = (AtomicU64::new(0), AtomicU64::new(0));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_lockstep(&gate, &slots, 1_000, workers, |_, shard, round| {
                furthest.fetch_max(round, Ordering::SeqCst);
                if shard == 0 && round == 3 {
                    hits.fetch_add(1, Ordering::SeqCst);
                    panic!("shard 0 fails at round 3 (this test expects it)");
                }
            })
        }));
        let report = (outcome.is_err(), hits.into_inner(), furthest.into_inner());
        done.send(report).expect("the test is listening");
    });
    let (panicked, hits, furthest) = watchdog
        .recv_timeout(Duration::from_secs(30))
        .expect("the run hung: peers kept waiting on the panicked worker's watermark");
    run.join().expect("the runner catches the panic");
    assert!(panicked, "the step's panic must reach the caller");
    assert_eq!(hits, 1, "the failing step ran (and reported) once");
    assert_eq!(
        furthest, 3,
        "no shard may pass the round that never finished"
    );
}

#[test]
fn a_panicking_step_ends_the_run_at_two_workers() {
    panicking_step_ends_the_run(2);
}

#[test]
fn a_panicking_step_ends_the_run_at_three_workers() {
    panicking_step_ends_the_run(3);
}
