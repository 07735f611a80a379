//! **Bound table T3** — Theorem 3 (FDS guarantees).
//!
//! For rates `ρ ≤ 1/(c₁·d·log²s)·max{1/k, 1/√s}` (per-shard congestion
//! semantics), checks the measured run against:
//!
//! * pending transactions ≤ `4bs`                          (Theorem 3)
//! * latency ≤ `2·c₁·b·d·log²s·min{k, ⌈√s⌉}`               (Theorem 3)
//!
//! `d` is measured per run (the worst home-to-destination distance of any
//! generated transaction); `c₁` is calibrated once as the implementation's
//! constant (see DESIGN.md — the theorem fixes it only up to a constant).
//!
//! ```sh
//! cargo run --release -p bench --bin table_t3
//! ```

use adversary::Adversary;
use adversary::{AdversaryConfig, StrategyKind};
use cluster::LineMetric;
use scenario::cli::BinArgs;
use schedulers::fds::{FdsConfig, FdsSim};
use sharding_core::bounds;
use sharding_core::{AccountMap, Round, SystemConfig};

/// The implementation's Theorem 3 constant (empirically calibrated; the
/// theorem proves existence of *some* positive constant).
const C1: f64 = 4.0;

fn main() {
    let rounds = BinArgs::parse().rounds_or(8_000);
    println!(
        "{:<14} {:>8} {:>4} {:>10} {:>10} {:>10} {:>12} {:>6}",
        "(s, k, b)", "rho", "d", "pending", "4bs", "latency", "lat bound", "ok"
    );
    let mut all_ok = true;
    for (s, k, b) in [
        (8usize, 2usize, 1u64),
        (16, 2, 2),
        (16, 4, 2),
        (32, 4, 2),
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
        let metric = LineMetric::new(s);
        // Worst possible d on a line is s-1; the admissible rate uses it.
        let rho = bounds::fds_rate_bound(C1, (s - 1) as u64, k, s).clamp(1e-4, 1.0);
        let adv = AdversaryConfig {
            rho,
            burstiness: b,
            strategy: StrategyKind::SingleBurst {
                burst_round: rounds / 10,
            },
            seed: 7,
            ..Default::default()
        };
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let mut adversary = Adversary::new(&sys, &map, adv);
        for r in 0..rounds {
            sim.step(adversary.generate(Round(r)));
        }
        let d = sim.max_access_distance().max(1);
        let report = sim.finish();
        let qb = bounds::fds_queue_bound(b, s);
        let lb = bounds::fds_latency_bound(C1, b, d, k, s);
        let ok = report.max_total_pending <= qb && (report.max_latency as f64) <= lb;
        all_ok &= ok;
        println!(
            "{:<14} {:>8.5} {:>4} {:>10} {:>10} {:>10} {:>12.0} {:>6}",
            format!("({s},{k},{b})"),
            rho,
            d,
            report.max_total_pending,
            qb,
            report.max_latency,
            lb,
            if ok { "✓" } else { "✗" },
        );
    }
    println!(
        "\nAll Theorem 3 bounds {} (c1 = {C1}).",
        if all_ok {
            "hold"
        } else {
            "VIOLATED — investigate!"
        }
    );
    assert!(all_ok);
}
