//! Edge cases of the cooperative lockstep executor
//! ([`runtime::run_lockstep`]): degenerate shard counts, heavy worker
//! oversubscription, and rounds that commit nothing yet must still
//! advance every shard's watermark. The happy-path schedule is pinned by
//! the executor's unit tests; these are the shapes a refactor is most
//! likely to break silently.

use parking_lot::Mutex;
use runtime::{run_lockstep, RoundGate};
use schedulers::bds::{BdsConfig, BdsSim};
use sharding_core::{AccountMap, SystemConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard still runs every round exactly once and strictly in order,
/// no matter how many workers contend for its single slot.
#[test]
fn single_shard_runs_in_order_under_many_workers() {
    const ROUNDS: u64 = 500;
    let gate = RoundGate::new(1);
    let slots = [Mutex::new(Vec::new())];
    run_lockstep(
        &gate,
        &slots,
        ROUNDS,
        8,
        |seen: &mut Vec<u64>, shard, round| {
            assert_eq!(shard, 0);
            seen.push(round);
        },
    );
    let seen = slots[0].lock();
    assert_eq!(*seen, (0..ROUNDS).collect::<Vec<_>>());
    assert_eq!(gate.watermark(0), ROUNDS);
}

/// Workers far beyond `shards * 2` add contention, never duplicated or
/// skipped rounds: each (shard, round) pair executes exactly once and
/// round `r + 1` never starts before every shard finished `r`.
#[test]
fn oversubscribed_workers_preserve_the_lockstep_schedule() {
    const SHARDS: usize = 4;
    const ROUNDS: u64 = 300;
    let workers = SHARDS * 2 + 5;
    let gate = RoundGate::new(SHARDS);
    let tally: Vec<AtomicU64> = (0..ROUNDS).map(|_| AtomicU64::new(0)).collect();
    let slots: Vec<Mutex<Vec<u64>>> = (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect();
    run_lockstep(&gate, &slots, ROUNDS, workers, |seen, _shard, round| {
        if round > 0 {
            assert_eq!(
                tally[(round - 1) as usize].load(Ordering::SeqCst),
                SHARDS as u64,
                "round {round} started before round {} drained",
                round - 1
            );
        }
        seen.push(round);
        tally[round as usize].fetch_add(1, Ordering::SeqCst);
    });
    for (i, slot) in slots.iter().enumerate() {
        assert_eq!(
            *slot.lock(),
            (0..ROUNDS).collect::<Vec<_>>(),
            "shard {i} missed or reordered rounds"
        );
        assert_eq!(gate.watermark(i), ROUNDS);
    }
}

/// Rounds whose step commits nothing still advance the watermark — the
/// gate counts completions, not work.
#[test]
fn no_op_rounds_advance_every_watermark() {
    const SHARDS: usize = 3;
    const ROUNDS: u64 = 64;
    let gate = RoundGate::new(SHARDS);
    let slots: Vec<Mutex<()>> = (0..SHARDS).map(|_| Mutex::new(())).collect();
    run_lockstep(&gate, &slots, ROUNDS, SHARDS, |_, _, _| {});
    for i in 0..SHARDS {
        assert_eq!(gate.watermark(i), ROUNDS, "shard {i} watermark stalled");
    }
}

/// Commit-nothing epochs end to end: with no arrivals at all, every
/// epoch is empty, broadcasts no plan, and advances purely by the
/// two-gap timeout — the run still reaches the final round with an
/// untouched ledger. (The adversary's token bucket forbids a true
/// zero-rate config, so the epoch host is stepped directly.)
#[test]
fn commit_nothing_epochs_advance_to_the_final_round() {
    let sys = SystemConfig {
        shards: 4,
        accounts: 4,
        k_max: 2,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
    for _ in 0..200 {
        sim.step(Vec::new());
    }
    assert!(sim.committed_log().is_empty());
    let report = sim.finish();
    assert_eq!(report.rounds, 200, "run ended early");
    assert_eq!(report.generated, 0);
    assert_eq!(report.committed, 0);
    assert!(
        report.epochs >= 90,
        "empty epochs must advance by the two-gap timeout (got {})",
        report.epochs
    );
}
