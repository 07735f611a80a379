//! **Bound table T2** — Lemma 1 and Theorem 2 (BDS guarantees).
//!
//! For admissible rates `ρ ≤ max{1/(18k), 1/(18⌈√s⌉)}` and burstiness
//! `b ≥ 1` (per-shard congestion semantics), checks the measured run
//! against each proved bound:
//!
//! * epoch length ≤ `τ = 18·b·min{k, ⌈√s⌉}`  (Lemma 1 i)
//! * pending transactions ≤ `4bs`             (Theorem 2)
//! * latency ≤ `36·b·min{k, ⌈√s⌉}`            (Theorem 2)
//!
//! ```sh
//! cargo run --release -p bench --bin table_t2
//! ```

use adversary::{AdversaryConfig, StrategyKind};
use scenario::cli::BinArgs;
use schedulers::bds::run_bds;
use sharding_core::bounds;
use sharding_core::{AccountMap, Round, SystemConfig};

fn main() {
    let rounds = BinArgs::parse().rounds_or(6_000);
    println!(
        "{:<18} {:>5} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11} {:>6}",
        "(s, k, b)", "rho", "epoch", "τ bound", "pending", "4bs", "latency", "lat bound", "ok"
    );
    let mut all_ok = true;
    for (s, k, b) in [
        (4usize, 2usize, 1u64),
        (8, 2, 2),
        (8, 3, 3),
        (16, 4, 2),
        (16, 4, 4),
        (25, 5, 2),
        (36, 6, 2),
        (64, 8, 2),
    ] {
        let sys = SystemConfig {
            shards: s,
            accounts: s,
            k_max: k,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let rho = bounds::bds_rate_bound(k, s);
        let adv = AdversaryConfig {
            rho,
            burstiness: b,
            strategy: StrategyKind::SingleBurst {
                burst_round: rounds / 10,
            },
            seed: 7,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &adv, Round(rounds));
        let tau = bounds::bds_epoch_bound(b, k, s);
        let qb = bounds::bds_queue_bound(b, s);
        let lb = bounds::bds_latency_bound(b, k, s);
        let ok = r.max_epoch_len <= tau && r.max_total_pending <= qb && r.max_latency <= lb;
        all_ok &= ok;
        println!(
            "{:<18} {:>5.4} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11} {:>6}",
            format!("({s},{k},{b})"),
            rho,
            r.max_epoch_len,
            tau,
            r.max_total_pending,
            qb,
            r.max_latency,
            lb,
            if ok { "✓" } else { "✗" },
        );
    }
    println!(
        "\nAll theorem bounds {}.",
        if all_ok {
            "hold (as proved — they are worst-case, so measured values sit below them)"
        } else {
            "VIOLATED — investigate!"
        }
    );
    assert!(all_ok);
}
