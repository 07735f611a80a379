//! Shared helpers for the scheduler conformance harness.
//!
//! The conformance suite lives in two integration-test crates —
//! `crates/schedulers/tests/conformance.rs` (simulator-side safety
//! invariants, FCFS-oracle equality, plan-level properties) and
//! `crates/runtime/tests/conformance_net.rs` (sim/net byte-equality,
//! worker-count determinism) — which cannot share test-private code.
//! This module is the common kit: build *any* registered
//! [`SchedulerKind`] as a round-driven simulation, fingerprint a
//! [`RunReport`] bit-exactly, and generate the standard workloads.
//!
//! It ships in the library (not behind `cfg(test)`) precisely so both
//! harnesses and downstream crates can conformance-test new schedulers;
//! nothing here is used by the schedulers themselves.

use crate::baseline::{FcfsConfig, FcfsSim};
use crate::bds::{BdsConfig, BdsProtocol, BdsSim};
use crate::fds::{FdsConfig, FdsSim};
use crate::metrics::{RunReport, SchedulerKind};
use crate::node::Sim;
use adversary::{Adversary, AdversaryConfig, StrategyKind};
use cluster::UniformMetric;
use sharding_core::txn::TxnBuilder;
use sharding_core::{AccountId, AccountMap, Round, SystemConfig, Transaction, TxnId};
use simnet::{FaultPlan, LocalChain};

/// Any registered scheduler as a round-driven simulation over the
/// uniform metric, built by [`make_sim`]. FDS runs with the strict
/// pipeline window (`W = 1`), the configuration under which its
/// cross-shard ordering is violation-free — conformance pins the safety
/// contract, not the `W > 1` throughput ablation. Variants are boxed:
/// the sims differ by up to ~1 KiB in size, and the harness moves
/// `AnySim` values around freely.
pub enum AnySim {
    /// The shared epoch host: BDS proper and every zoo policy.
    EpochHost(Box<BdsSim>),
    /// The hierarchical FDS pipeline.
    Fds(Box<FdsSim>),
    /// The centralized FCFS baseline (the zero-contention oracle).
    Fcfs(Box<FcfsSim>),
}

impl AnySim {
    /// Executes one round.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        match self {
            AnySim::EpochHost(s) => s.step(new_txns),
            AnySim::Fds(s) => s.step(new_txns),
            AnySim::Fcfs(s) => s.step(new_txns),
        }
    }

    /// Finalizes into a report.
    pub fn finish(self) -> RunReport {
        match self {
            AnySim::EpochHost(s) => s.finish(),
            AnySim::Fds(s) => s.finish(),
            AnySim::Fcfs(s) => s.finish(),
        }
    }

    /// Commit log: (commit round, txn id) in commit order.
    pub fn committed_log(&self) -> &[(Round, TxnId)] {
        match self {
            AnySim::EpochHost(s) => s.committed_log(),
            AnySim::Fds(s) => s.committed_log(),
            AnySim::Fcfs(s) => s.committed_log(),
        }
    }

    /// Per-shard blockchains, `None` for FCFS (it commits centrally and
    /// keeps no chains).
    pub fn chains(&self) -> Option<&[LocalChain]> {
        match self {
            AnySim::EpochHost(s) => Some(s.chains()),
            AnySim::Fds(s) => Some(s.chains()),
            AnySim::Fcfs(_) => None,
        }
    }
}

/// Builds `kind` as a simulation over the uniform metric with its
/// default configuration (FDS: strict `pipeline_window = 1`, see
/// [`AnySim`]). Panics on an invalid system config, never on a
/// registered kind — every kind without a dedicated simulator goes
/// through [`SchedulerKind::epoch_policy`], so a new variant without a
/// registration there fails the conformance suite's registry test.
pub fn make_sim(kind: SchedulerKind, sys: &SystemConfig, map: &AccountMap) -> AnySim {
    let metric = UniformMetric::new(sys.shards);
    match kind {
        SchedulerKind::Fds => {
            let fcfg = FdsConfig {
                pipeline_window: 1,
                ..FdsConfig::default()
            };
            AnySim::Fds(Box::new(FdsSim::new(sys, map, fcfg, &metric)))
        }
        SchedulerKind::Fcfs => AnySim::Fcfs(Box::new(FcfsSim::new(sys, FcfsConfig::default()))),
        hosted => {
            let proto = BdsProtocol::new(BdsConfig::default(), hosted);
            let sim = Sim::host(&proto, sys, map, &metric, &FaultPlan::default());
            AnySim::EpochHost(Box::new(sim))
        }
    }
}

/// Bit-exact fingerprint of a report: every scalar field, with the
/// floating-point means rendered as raw bits. Two runs are
/// "byte-identical" for the harness iff their fingerprints match (the
/// CSV layer serializes exactly these fields, so fingerprint equality
/// implies report-byte equality downstream).
pub fn report_fingerprint(r: &RunReport) -> String {
    format!(
        "{:?}|r{}|g{}|c{}|a{}|p{}|q{:016x}|mp{}|l{:016x}|ml{}|e{}|me{}|m{}|mb{}|f{:?}|v{:?}",
        r.scheduler,
        r.rounds,
        r.generated,
        r.committed,
        r.aborted,
        r.pending_at_end,
        r.avg_queue_per_shard.to_bits(),
        r.max_total_pending,
        r.avg_latency.to_bits(),
        r.max_latency,
        r.epochs,
        r.max_epoch_len,
        r.messages,
        r.max_message_bytes,
        r.faults,
        r.verdict,
    )
}

/// The harness's standard small system: 8 shards, one account each.
pub fn small_system() -> (SystemConfig, AccountMap) {
    let sys = SystemConfig {
        shards: 8,
        accounts: 8,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    (sys, map)
}

/// A wider system for the zero-contention oracle workload: enough
/// accounts that every transaction can write a private one.
pub fn wide_system(accounts: usize) -> (SystemConfig, AccountMap) {
    let sys = SystemConfig {
        shards: 8,
        accounts,
        k_max: 3,
        nodes_per_shard: 4,
        faulty_per_shard: 1,
    };
    let map = AccountMap::round_robin(&sys);
    (sys, map)
}

/// Pre-generates `rounds` batches from the seeded `(ρ, b)` adversary —
/// the same workload every scheduler replays in the conformance runs.
pub fn adversary_batches(
    sys: &SystemConfig,
    map: &AccountMap,
    rho: f64,
    burstiness: u64,
    seed: u64,
    rounds: u64,
) -> Vec<Vec<Transaction>> {
    let mut adv = Adversary::new(
        sys,
        map,
        AdversaryConfig {
            rho,
            burstiness,
            strategy: StrategyKind::UniformRandom,
            seed,
            ..Default::default()
        },
    );
    (0..rounds).map(|r| adv.generate(Round(r))).collect()
}

/// Pre-generates a *zero-contention* workload: one transaction per
/// round, each writing its own private account (account `i` for txn
/// `i`), so no two transactions ever conflict. Requires
/// `rounds <= sys.accounts`. Under this workload every safe scheduler
/// must commit exactly the FCFS oracle's commit set.
pub fn zero_contention_batches(
    sys: &SystemConfig,
    map: &AccountMap,
    rounds: u64,
) -> Vec<Vec<Transaction>> {
    assert!(
        rounds as usize <= sys.accounts,
        "need a private account per transaction"
    );
    (0..rounds)
        .map(|i| {
            let account = AccountId(i);
            let home = map.owner_unchecked(account);
            let txn = TxnBuilder::new(TxnId(i), home, Round(i), map)
                .update(account, 1)
                .build()
                .expect("single-account txn is valid");
            vec![txn]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_sim_covers_every_registered_kind() {
        let (sys, map) = small_system();
        for kind in SchedulerKind::ALL {
            let mut sim = make_sim(kind, &sys, &map);
            sim.step(Vec::new());
            let r = sim.finish();
            assert_eq!(r.scheduler, kind, "report carries the built kind");
        }
    }

    #[test]
    fn zero_contention_batches_never_conflict() {
        let (sys, map) = wide_system(64);
        let batches = zero_contention_batches(&sys, &map, 32);
        let all: Vec<&Transaction> = batches.iter().flatten().collect();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(!all[i].conflicts_with(all[j]));
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_float_bit_changes() {
        let (sys, map) = small_system();
        let mut sim = make_sim(SchedulerKind::Fcfs, &sys, &map);
        for b in zero_contention_batches(&sys, &map, 4) {
            sim.step(b);
        }
        let r = sim.finish();
        let mut r2 = r.clone();
        let fp = report_fingerprint(&r);
        assert_eq!(fp, report_fingerprint(&r2));
        r2.avg_latency += 1e-9;
        assert_ne!(fp, report_fingerprint(&r2));
    }
}
