//! The commit path's allocation budget, counted with this binary's own
//! global allocator: once the nodes' buffers are warm, a simulated round
//! allocates for what the run keeps — a transaction's copy (its `subs`,
//! the only heap block a transaction owns) at whoever schedules it, and
//! the chains' pages — and for the epoch's plan, and for nothing per
//! sealed block, per vote, per block hash or per delivery round.
//!
//! One `#[test]` in the binary, so no other test thread's allocations
//! are counted.

use adversary::{Adversary, AdversaryConfig, StrategyKind};
use cluster::LineMetric;
use schedulers::bds::{BdsConfig, BdsSim};
use schedulers::fds::{FdsConfig, FdsSim};
use schedulers::node::{Protocol, Sim};
use sharding_core::{AccountMap, Round, SystemConfig, Transaction};
use simnet::blockchain::PAGE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Calls to `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract, and returns what it
// returns; the bookkeeping is one relaxed atomic and never touches the
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are those of `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are those of `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 3_000;
const ROUNDS: u64 = 3_000;

/// Heap blocks of one transaction copy (`subs`): BDS's phase 1 clones
/// the home's batch for the leader, an FDS leader keeps a copy in
/// `sch_ldr` beside the one it colours.
const PER_COMMIT: u64 = 1;
/// Allocations of one chain page: its header list (one block; the first
/// page's doublings, eight more), its payload's growth steps — each by at
/// most a quarter, about 30 to fill a page of one-sub blocks — and the
/// shrink that closes it.
const PER_PAGE: u64 = 40;
/// Everything an epoch allocates whatever it commits, spread over its
/// rounds. BDS (2.3 a round here, epochs of ~16 rounds): the `TxnInfo`
/// vector of each home with something pending, the leader's buffer
/// growing from empty, the policy's plan, the per-home assignment
/// vectors. FDS (0.9): a colouring cluster's target batch and plan.
const BDS_PER_ROUND: u64 = 3;
const FDS_PER_ROUND: u64 = 2;

/// Commits so far, and the page each chain's newest block is on.
fn progress<P: Protocol>(sim: &Sim<P>) -> (u64, Vec<usize>) {
    let tips = sim.chains().iter().map(|c| c.len() / PAGE).collect();
    (sim.committed_log().len() as u64, tips)
}

/// Steps `sim` through `schedule` and holds the rounds after the warm-up
/// to `commits + PER_PAGE·pages + per_round·rounds` allocations, `pages`
/// the chain pages the rounds wrote to.
fn hold_to_budget<P: Protocol>(mut sim: Sim<P>, schedule: Vec<Vec<Transaction>>, per_round: u64) {
    let mut batches = schedule.into_iter();
    for batch in batches.by_ref().take(WARM_UP as usize) {
        sim.step(batch);
    }
    let warm = progress(&sim);
    let before = ALLOCS.load(Relaxed);
    for batch in batches {
        sim.step(batch);
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    let (commits, tips) = progress(&sim);
    let commits = commits - warm.0;
    let pages: usize = tips
        .iter()
        .zip(&warm.1)
        .map(|(end, start)| end - start + 1)
        .sum();
    let pages = pages as u64;
    assert!(commits > 1_000, "the commit path is exercised");
    let budget = PER_COMMIT * commits + PER_PAGE * pages + per_round * ROUNDS;
    assert!(
        allocs <= budget,
        "{allocs} allocations over {ROUNDS} rounds, {commits} commits and {pages} pages \
         (budget {budget})"
    );
}

#[test]
fn a_steady_round_allocates_what_it_keeps_and_its_plan() {
    // One account per shard, so every sub's action list is inline and a
    // transaction copy is exactly its one block.
    let sys = SystemConfig {
        shards: 16,
        accounts: 16,
        k_max: 4,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    let adv = AdversaryConfig {
        rho: 0.1,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed: 5,
        ..Default::default()
    };
    let mut source = Adversary::new(&sys, &map, adv);
    let schedule: Vec<Vec<Transaction>> = (0..WARM_UP + ROUNDS)
        .map(|r| source.generate(Round(r)))
        .collect();
    let bds = BdsSim::new(&sys, &map, BdsConfig::default());
    hold_to_budget(bds, schedule.clone(), BDS_PER_ROUND);
    let fds = FdsSim::new(
        &sys,
        &map,
        FdsConfig::default(),
        &LineMetric::new(sys.shards),
    );
    hold_to_budget(fds, schedule, FDS_PER_ROUND);
}
