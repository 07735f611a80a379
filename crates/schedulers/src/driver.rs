//! The round-driver contract of the simulators.
//!
//! Both simulators in this crate — the generic protocol host
//! [`Sim`](crate::node::Sim) and the centralized
//! [`FcfsSim`](crate::baseline::FcfsSim) — consume their input the same
//! way: one batch of generated transactions per round, and a
//! [`RunReport`] at the end. [`RoundDriver`] names that contract, and
//! [`drive`] is the loop every `run_*` convenience function shares. (The
//! networked engine is not a round driver: `runtime::NetRun` pulls each
//! round from a [`RoundSource`](adversary::RoundSource) itself, once the
//! round before has closed, and runs to completion in one call.)

use crate::metrics::RunReport;
use adversary::{Adversary, AdversaryConfig};
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
    mut driver: D,
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    let mut adversary = Adversary::new(sys, map, *adv);
    for r in 0..rounds.raw() {
        driver.step(adversary.generate(Round(r)));
    }
    driver.finish()
}

impl<P: crate::node::Protocol> RoundDriver for crate::node::Sim<P> {
    fn step(&mut self, new_txns: Vec<Transaction>) {
        crate::node::Sim::step(self, new_txns);
    }
    fn finish(self) -> RunReport {
        crate::node::Sim::finish(self)
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
    fn generic_drive_matches_run_fds_line() {
        let (sys, map, adv) = setup();
        let metric = LineMetric::new(sys.shards);
        let sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let generic = drive(sim, &sys, &map, &adv, Round(500));
        let direct = run_fds_line(&sys, &map, &adv, Round(500));
        assert_eq!(generic.summary(), direct.summary());
    }
}
