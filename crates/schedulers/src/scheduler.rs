//! The common `Scheduler` contract behind the scheduler zoo.
//!
//! Every scheduler in the workspace shares one epoch lifecycle: observe
//! the arrivals that accumulated since the last epoch, build (some view
//! of) their conflict structure, partition them into *slots* that execute
//! as sequential parallel steps, dispatch each slot through the four-round
//! commit protocol, and report through [`RunReport`](crate::RunReport).
//! BDS instantiates the lifecycle with proper conflict-graph coloring;
//! the zoo competitors ([`crate::zoo`]) instantiate it with EDF,
//! fixed-priority, work-stealing, and speculative plans. The epoch
//! protocol around the plan ([`BdsNode`](crate::bds::BdsNode), hosted by
//! the simulator and by the networked engine) stays identical — only the
//! planning step behind [`Scheduler::plan_epoch`] differs, which is what
//! makes a new scheduler sweepable, benchable, and net-runnable with zero
//! per-scheduler glue.
//!
//! # Contract
//!
//! For a batch of `n` transactions, [`Scheduler::plan_epoch`] must return
//! an [`EpochPlan`] with exactly `n` slot assignments such that:
//!
//! 1. **Safety** — two conflicting transactions never share a slot
//!    (slots execute as parallel steps; this is the invariant the
//!    conformance harness enforces for every registered kind);
//! 2. **Bounds** — every slot index is `< num_slots`, and `num_slots`
//!    is `0` only for an empty batch;
//! 3. **Purity** — the plan is a deterministic function of
//!    `(epoch, batch)` alone. The simulator lends one instance to every
//!    node; in the networked engine every shard holds its own and only
//!    the rotating epoch leader's is consulted, so any cross-epoch
//!    hidden state would diverge under leader rotation and break the
//!    sim/net byte-identity guarantee.

use crate::metrics::SchedulerKind;
use conflict::{color_transactions_with, ColoringScratch, ColoringStrategy};
use sharding_core::Transaction;

/// One epoch's parallel execution plan: a slot per transaction
/// (index-aligned with the planned batch) plus the number of slots.
/// Slot `z` is dispatched at the epoch's `z`-th four-round group, so the
/// plan fixes the epoch length to `2 + 4·num_slots` phase-gaps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochPlan {
    /// Slot assignment of each transaction in the batch, index-aligned.
    pub slots: Vec<u32>,
    /// Number of distinct slots (`== 1 + max(slots)` for non-empty plans).
    pub num_slots: u32,
}

impl EpochPlan {
    /// Slot of the `v`-th transaction in the planned batch.
    #[inline]
    pub fn slot(&self, v: usize) -> u32 {
        self.slots[v]
    }

    /// True when every pair of conflicting transactions in `batch` is
    /// assigned to distinct slots and every slot index is in bounds —
    /// the [contract](self) the conformance harness checks.
    pub fn is_safe_for(&self, batch: &[Transaction]) -> bool {
        if self.slots.len() != batch.len() {
            return false;
        }
        if batch.is_empty() {
            return self.num_slots == 0;
        }
        if self.slots.iter().any(|&z| z >= self.num_slots) {
            return false;
        }
        let graph = conflict::ConflictGraph::build(batch);
        (0..batch.len()).all(|v| {
            graph
                .neighbors(v)
                .iter()
                .all(|&u| self.slots[u as usize] != self.slots[v])
        })
    }
}

/// An epoch-planning scheduler: the pluggable step of the epoch host.
///
/// See the [module docs](self) for the contract implementations must
/// uphold (safety, bounds, purity).
pub trait Scheduler: Send {
    /// Which registered kind this scheduler is (lands in reports).
    fn kind(&self) -> SchedulerKind;

    /// Partitions `batch` into conflict-free slots for epoch `epoch`.
    fn plan_epoch(&mut self, epoch: u64, batch: &[Transaction]) -> EpochPlan;
}

/// Proper conflict-graph coloring as an epoch policy — the planning step
/// of the paper's BDS (and of FDS's per-cluster coloring), factored out
/// so the simulators, the networked shard nodes, and the zoo all call
/// the identical code path (identical down to the scratch reuse, which
/// keeps pre-zoo reports byte-identical).
pub struct ColoringPolicy {
    kind: SchedulerKind,
    strategy: ColoringStrategy,
    scratch: ColoringScratch,
}

impl ColoringPolicy {
    /// A coloring policy reporting as `kind` (BDS and FDS share the
    /// code path but report under their own names).
    pub fn new(kind: SchedulerKind, strategy: ColoringStrategy, accounts: usize) -> Self {
        ColoringPolicy {
            kind,
            strategy,
            scratch: ColoringScratch::with_accounts(accounts),
        }
    }
}

impl Scheduler for ColoringPolicy {
    fn kind(&self) -> SchedulerKind {
        self.kind
    }

    fn plan_epoch(&mut self, _epoch: u64, batch: &[Transaction]) -> EpochPlan {
        if batch.is_empty() {
            return EpochPlan::default();
        }
        let coloring = color_transactions_with(self.strategy, batch, &mut self.scratch);
        EpochPlan {
            slots: coloring.colors().to_vec(),
            num_slots: coloring.num_colors(),
        }
    }
}

impl SchedulerKind {
    /// Builds the epoch policy driving this kind under the shared epoch
    /// host (the BDS simulator and the networked engine), or `None` for
    /// the kinds with their own execution discipline (FDS's hierarchical
    /// pipeline, FCFS's centralized loop). `coloring` configures the
    /// BDS leader's coloring algorithm; the zoo policies fix their own
    /// orderings. `accounts` sizes the reusable coloring scratch and
    /// `shards` the work-stealing worker pool.
    ///
    /// This factory is the zoo's registration point: the scenario
    /// executor and the networked engine route every kind without an
    /// explicit arm through it, so a policy listed here is sweepable,
    /// net-runnable, and conformance-tested with no further glue.
    pub fn epoch_policy(
        self,
        coloring: ColoringStrategy,
        accounts: usize,
        shards: usize,
    ) -> Option<Box<dyn Scheduler>> {
        match self {
            SchedulerKind::Bds => Some(Box::new(ColoringPolicy::new(self, coloring, accounts))),
            SchedulerKind::Fds | SchedulerKind::Fcfs => None,
            SchedulerKind::Edf => Some(Box::new(crate::zoo::EdfPolicy::new())),
            SchedulerKind::FixedPriority => Some(Box::new(crate::zoo::FixedPriorityPolicy::new())),
            SchedulerKind::WorkSteal => Some(Box::new(crate::zoo::WorkStealPolicy::new(shards))),
            SchedulerKind::Speculative => Some(Box::new(crate::zoo::SpeculativePolicy::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::{AccountMap, Round, ShardId, SystemConfig, TxnId};

    fn setup() -> (SystemConfig, AccountMap) {
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

    #[test]
    fn coloring_policy_matches_direct_coloring() {
        let (sys, map) = setup();
        let txns: Vec<Transaction> = (0..6)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId((i % 8) as u32),
                    Round::ZERO,
                    &map,
                    &[ShardId(2), ShardId((i % 4) as u32)],
                )
                .unwrap()
            })
            .collect();
        let mut policy =
            ColoringPolicy::new(SchedulerKind::Bds, ColoringStrategy::Greedy, sys.accounts);
        let plan = policy.plan_epoch(0, &txns);
        let direct = conflict::color_transactions(ColoringStrategy::Greedy, &txns);
        assert_eq!(plan.slots, direct.colors());
        assert_eq!(plan.num_slots, direct.num_colors());
        assert!(plan.is_safe_for(&txns));
    }

    #[test]
    fn empty_batch_plans_zero_slots() {
        let mut policy = ColoringPolicy::new(SchedulerKind::Bds, ColoringStrategy::Greedy, 8);
        let plan = policy.plan_epoch(3, &[]);
        assert_eq!(plan, EpochPlan::default());
        assert!(plan.is_safe_for(&[]));
    }

    #[test]
    fn factory_covers_every_registered_kind() {
        // Kinds with their own execution discipline return None; every
        // other registered kind must produce a policy of its own kind.
        for k in SchedulerKind::ALL {
            match k.epoch_policy(ColoringStrategy::Greedy, 8, 8) {
                Some(p) => assert_eq!(p.kind(), k),
                None => assert!(
                    matches!(k, SchedulerKind::Fds | SchedulerKind::Fcfs),
                    "{k} has no epoch policy and no dedicated engine arm"
                ),
            }
        }
    }
}
