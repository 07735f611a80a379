//! The shared round-driver contract.
//!
//! Every execution engine in the workspace — the single-threaded
//! simulators here, and the threaded networked engine in the `runtime`
//! crate — consumes the same inputs the same way: one batch of
//! adversary-generated transactions per round, and a [`RunReport`] at
//! the end. [`RoundDriver`] names that contract so harness code (the
//! scenario executor, the conformance and differential tests) can drive
//! any engine generically, and [`drive`] is the canonical loop every
//! `run_*` convenience function shares.

use crate::metrics::RunReport;
use adversary::{Adversary, AdversaryConfig, RoundSource};
use sharding_core::{AccountMap, Round, SystemConfig, Transaction};

/// A synchronous round-based scheduler execution: feed it one injection
/// batch per round, then finalize into a report.
pub trait RoundDriver {
    /// Executes one round given this round's newly generated transactions.
    fn step(&mut self, new_txns: Vec<Transaction>);

    /// Finalizes the run into a [`RunReport`].
    fn finish(self) -> RunReport;
}

/// Drives `driver` for `rounds` rounds against a fresh adversary — the
/// loop shared by every `run_*` convenience function.
pub fn drive<D: RoundDriver>(
    driver: D,
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    let mut adversary = Adversary::new(sys, map, *adv);
    drive_with(driver, &mut adversary, rounds)
}

/// Drives `driver` for `rounds` rounds, pulling each round's batch from
/// an arbitrary [`RoundSource`] — the legacy per-round adversary or the
/// streaming [`IngestPipeline`](adversary::IngestPipeline). [`drive`] is
/// this loop specialized to a fresh adversary.
pub fn drive_with<D: RoundDriver>(
    mut driver: D,
    source: &mut dyn RoundSource,
    rounds: Round,
) -> RunReport {
    for r in 0..rounds.raw() {
        driver.step(source.next_round(Round(r)));
    }
    driver.finish()
}

impl RoundDriver for crate::bds::BdsSim {
    fn step(&mut self, new_txns: Vec<Transaction>) {
        crate::bds::BdsSim::step(self, new_txns);
    }
    fn finish(self) -> RunReport {
        crate::bds::BdsSim::finish(self)
    }
}

impl RoundDriver for crate::fds::FdsSim {
    fn step(&mut self, new_txns: Vec<Transaction>) {
        crate::fds::FdsSim::step(self, new_txns);
    }
    fn finish(self) -> RunReport {
        crate::fds::FdsSim::finish(self)
    }
}

impl RoundDriver for crate::baseline::FcfsSim {
    fn step(&mut self, new_txns: Vec<Transaction>) {
        crate::baseline::FcfsSim::step(self, new_txns);
    }
    fn finish(self) -> RunReport {
        crate::baseline::FcfsSim::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bds::{run_bds, BdsConfig, BdsSim};
    use crate::fds::{run_fds_line, FdsConfig, FdsSim};
    use adversary::StrategyKind;
    use cluster::LineMetric;

    fn setup() -> (SystemConfig, AccountMap, AdversaryConfig) {
        let sys = SystemConfig {
            shards: 8,
            accounts: 8,
            k_max: 3,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 3,
            strategy: StrategyKind::UniformRandom,
            seed: 17,
            ..Default::default()
        };
        (sys, map, adv)
    }

    #[test]
    fn generic_drive_matches_run_bds() {
        let (sys, map, adv) = setup();
        let sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let generic = drive(sim, &sys, &map, &adv, Round(500));
        let direct = run_bds(&sys, &map, &adv, Round(500));
        assert_eq!(generic.summary(), direct.summary());
    }

    #[test]
    fn generic_drive_matches_run_fds() {
        let (sys, map, adv) = setup();
        let metric = LineMetric::new(sys.shards);
        let sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let generic = drive(sim, &sys, &map, &adv, Round(500));
        let direct = run_fds_line(&sys, &map, &adv, Round(500));
        assert_eq!(generic.summary(), direct.summary());
    }
}
