//! A realistic payments workload over the sharded ledger: conditional
//! cross-shard transfers in the style of the paper's Example 1, including
//! transfers that must *abort* because their condition fails.
//!
//! Demonstrates the full condition/action subtransaction semantics: a
//! transfer "move X from a to b if a holds at least X" splits into a
//! debit subtransaction at a's shard and a credit subtransaction at b's
//! shard, commits atomically when every destination votes yes, and aborts
//! atomically otherwise. Conservation of total balance is checked at the
//! end.
//!
//! ```sh
//! cargo run --release --example payments
//! ```

use blockshard::core_types::{AccountId, Transaction, TxnId};
use blockshard::prelude::*;
use blockshard::schedulers::bds::{BdsConfig, BdsSim};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;

fn main() {
    let sys = SystemConfig {
        shards: 16,
        accounts: 64,
        k_max: 4,
        ..SystemConfig::paper_simulation()
    };
    let map = AccountMap::random(&sys, 3);
    let initial = 1_000u64;
    let bcfg = BdsConfig {
        initial_balance: initial,
        ..BdsConfig::default()
    };
    let mut sim = BdsSim::new(&sys, &map, bcfg);
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(99);

    // Issue 500 random transfers over 2000 rounds; roughly a third ask
    // for more money than the payer can ever hold, so they must abort.
    let mut next_id = 0u64;
    let total_txns = 500u64;
    for r in 0..2_000u64 {
        let mut batch = Vec::new();
        if r % 4 == 0 && next_id < total_txns {
            let from = AccountId(rng.gen_range(0..sys.accounts as u64));
            let mut to = AccountId(rng.gen_range(0..sys.accounts as u64));
            while to == from {
                to = AccountId(rng.gen_range(0..sys.accounts as u64));
            }
            let amount = if rng.gen_bool(0.3) {
                // Poison transfer: asks for more than the global supply a
                // single account could ever hold in this run.
                1_000_000
            } else {
                rng.gen_range(1..=50)
            };
            let home = ShardId(rng.gen_range(0..sys.shards as u32));
            let t = Transaction::transfer(TxnId(next_id), home, Round(r), &map, from, to, amount)
                .unwrap();
            next_id += 1;
            batch.push(t);
        }
        sim.step(batch);
    }
    // Drain.
    for _ in 0..2_000 {
        sim.step(Vec::new());
    }

    let total: u64 = sim.ledgers().map(|l| l.total()).sum();
    let expected = sys.accounts as u64 * initial;
    for c in sim.chains() {
        assert!(c.verify(), "chain of {} must verify", c.shard());
    }
    let r = sim.finish();
    println!(
        "Payments over {} shards, {} accounts:",
        sys.shards, sys.accounts
    );
    println!("  issued     : {}", next_id);
    println!("  committed  : {}", r.committed);
    println!("  aborted    : {} (insufficient funds)", r.aborted);
    println!("  avg latency: {:.1} rounds", r.avg_latency);
    println!("  total money: {total} (initial {expected})");
    assert_eq!(
        total, expected,
        "atomic cross-shard transfers conserve balance"
    );
    assert!(r.aborted > 0, "poison transfers must abort");
    println!("\nConservation holds: every transfer either fully committed or fully aborted.");
}
