//! The scheduler zoo: classical competitors behind the shared
//! [`Scheduler`] trait.
//!
//! The paper proves stability bounds for BDS/FDS but never runs them
//! against classical alternatives. These policies plug into the same
//! epoch host — sim and net — so the comparison costs one scenario line. None of them carries a stability proof; the conformance
//! harness guarantees only *safety* (no conflicting pair in one parallel
//! step) and *determinism*, which is exactly what makes the head-to-head
//! fair: every policy pays the same epoch-host coordination rounds and
//! differs only in how it partitions a batch into slots.
//!
//! All four are pure functions of the batch (see the purity clause of the
//! [`Scheduler`] contract): deadlines and priorities derive from the
//! transactions themselves (arrival round, within-batch account hotness),
//! never from retained cross-epoch state.

use crate::metrics::SchedulerKind;
use crate::scheduler::{EpochPlan, Scheduler};
use conflict::{greedy_by_order, ConflictGraph};
use sharding_core::{AccessKind, Transaction};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Earliest-deadline-first: the deadline of a transaction is its arrival
/// round, so the batch is colored first-fit in `(generated, id)` order —
/// the oldest transactions get the earliest slots their conflicts allow.
#[derive(Debug, Default)]
pub struct EdfPolicy;

impl EdfPolicy {
    /// New EDF policy.
    pub fn new() -> Self {
        EdfPolicy
    }
}

impl Scheduler for EdfPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Edf
    }

    fn plan_epoch(&mut self, _epoch: u64, batch: &[Transaction]) -> EpochPlan {
        if batch.is_empty() {
            return EpochPlan::default();
        }
        let graph = ConflictGraph::build(batch);
        let mut order: Vec<u32> = (0..batch.len() as u32).collect();
        order.sort_by_key(|&v| {
            let t = &batch[v as usize];
            (t.generated, t.id)
        });
        let coloring = greedy_by_order(&graph, &order);
        EpochPlan {
            slots: coloring.colors().to_vec(),
            num_slots: coloring.num_colors(),
        }
    }
}

/// Within-batch hotness of each account: how many transactions of the
/// batch touch it. The priority policies derive everything from this —
/// no cross-epoch popularity state (purity contract).
fn account_hotness(batch: &[Transaction]) -> BTreeMap<sharding_core::AccountId, u32> {
    let mut freq = BTreeMap::new();
    for t in batch {
        for a in t.accesses() {
            *freq.entry(a.account).or_insert(0u32) += 1;
        }
    }
    freq
}

/// Fixed-priority: a transaction's priority is the hotness of its hottest
/// account within the batch. Hot transactions are colored first (first-fit
/// in descending-priority order, ties broken by id), the rationale being
/// that contended transactions are the hardest to place so they should
/// claim the early slots before the independent bulk fills them.
#[derive(Debug, Default)]
pub struct FixedPriorityPolicy;

impl FixedPriorityPolicy {
    /// New fixed-priority policy.
    pub fn new() -> Self {
        FixedPriorityPolicy
    }
}

impl Scheduler for FixedPriorityPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::FixedPriority
    }

    fn plan_epoch(&mut self, _epoch: u64, batch: &[Transaction]) -> EpochPlan {
        if batch.is_empty() {
            return EpochPlan::default();
        }
        let freq = account_hotness(batch);
        let graph = ConflictGraph::build(batch);
        let priority: Vec<u32> = batch
            .iter()
            .map(|t| t.accounts().map(|a| freq[&a]).max().unwrap_or(0))
            .collect();
        let mut order: Vec<u32> = (0..batch.len() as u32).collect();
        order.sort_by_key(|&v| {
            (
                std::cmp::Reverse(priority[v as usize]),
                batch[v as usize].id,
            )
        });
        let coloring = greedy_by_order(&graph, &order);
        EpochPlan {
            slots: coloring.colors().to_vec(),
            num_slots: coloring.num_colors(),
        }
    }
}

/// Work-stealing greedy: each home shard keeps its arrivals in a FIFO
/// queue; slots are built as *waves*. In each wave every shard (ascending
/// id) takes the first transaction of its own queue that doesn't conflict
/// with the wave so far; shards that got nothing — empty queue or all
/// conflicting — then steal the first compatible transaction from the
/// longest remaining queue (ties to the lowest shard id). Each wave
/// places at least one transaction (the first non-empty queue's head is
/// always compatible with an empty wave), so planning terminates.
///
/// The shard count is fixed configuration (it sizes the pool of
/// stealing workers), not cross-epoch state — purity holds.
#[derive(Debug)]
pub struct WorkStealPolicy {
    shards: usize,
}

impl WorkStealPolicy {
    /// New work-stealing policy over `shards` worker shards.
    pub fn new(shards: usize) -> Self {
        WorkStealPolicy {
            shards: shards.max(1),
        }
    }
}

impl Scheduler for WorkStealPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::WorkSteal
    }

    fn plan_epoch(&mut self, _epoch: u64, batch: &[Transaction]) -> EpochPlan {
        if batch.is_empty() {
            return EpochPlan::default();
        }
        let graph = ConflictGraph::build(batch);
        // Per-home FIFO queues of vertex indices (batch order = id order).
        let mut queues: BTreeMap<u32, VecDeque<u32>> = BTreeMap::new();
        for (v, t) in batch.iter().enumerate() {
            queues.entry(t.home.raw()).or_default().push_back(v as u32);
        }
        let mut slots = vec![0u32; batch.len()];
        let mut wave = 0u32;
        let mut remaining = batch.len();
        while remaining > 0 {
            let mut chosen: Vec<u32> = Vec::new();
            let compatible = |q: &VecDeque<u32>, chosen: &[u32]| {
                q.iter().position(|&v| {
                    chosen
                        .iter()
                        .all(|&c| !graph.are_adjacent(c as usize, v as usize))
                })
            };
            // Own-queue pass over every worker shard, queue or not; the
            // ones that come up empty-handed steal below.
            let mut idle = 0usize;
            for h in 0..self.shards as u32 {
                match queues.get_mut(&h).and_then(|q| {
                    let i = compatible(q, &chosen)?;
                    q.remove(i)
                }) {
                    Some(v) => chosen.push(v),
                    None => idle += 1,
                }
            }
            // Steal pass: idle shards raid the longest remaining queue.
            for _ in 0..idle {
                let Some(victim) = queues
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .max_by_key(|(h, q)| (q.len(), std::cmp::Reverse(**h)))
                    .map(|(h, _)| *h)
                else {
                    break;
                };
                let q = queues.get_mut(&victim).expect("victim exists");
                if let Some(i) = compatible(q, &chosen) {
                    let v = q.remove(i).expect("index in bounds");
                    chosen.push(v);
                }
            }
            debug_assert!(!chosen.is_empty(), "a wave must place at least one txn");
            for v in &chosen {
                slots[*v as usize] = wave;
            }
            remaining -= chosen.len();
            queues.retain(|_, q| !q.is_empty());
            wave += 1;
        }
        EpochPlan {
            slots,
            num_slots: wave,
        }
    }
}

/// Speculative: colors against a *predicted* conflict graph (only the
/// accounts with at least [`HOT_WRITERS`](Self::HOT_WRITERS) writers in
/// the batch are assumed contended), then repairs the plan against the
/// true conflicts — a transaction whose predicted slot turns out unsafe
/// is evicted upward to the first slot where it fits. Mispredictions
/// (e.g. read/write conflicts on a single-writer account) cost extra
/// slots, never safety.
#[derive(Debug, Default)]
pub struct SpeculativePolicy;

impl SpeculativePolicy {
    /// Writers within the batch from which an account is predicted hot.
    pub const HOT_WRITERS: u32 = 2;

    /// New speculative policy.
    pub fn new() -> Self {
        SpeculativePolicy
    }
}

impl Scheduler for SpeculativePolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Speculative
    }

    fn plan_epoch(&mut self, _epoch: u64, batch: &[Transaction]) -> EpochPlan {
        if batch.is_empty() {
            return EpochPlan::default();
        }
        // Predicted hot set: accounts with >= HOT_WRITERS writers.
        let mut writers: BTreeMap<sharding_core::AccountId, u32> = BTreeMap::new();
        for t in batch {
            for a in t.accesses() {
                if a.kind == AccessKind::Write {
                    *writers.entry(a.account).or_insert(0) += 1;
                }
            }
        }
        let hot: std::collections::BTreeSet<sharding_core::AccountId> = writers
            .into_iter()
            .filter(|(_, w)| *w >= Self::HOT_WRITERS)
            .map(|(a, _)| a)
            .collect();
        // Predicted conflict graph: sharing any predicted-hot account.
        let mut by_hot: BTreeMap<sharding_core::AccountId, Vec<u32>> = BTreeMap::new();
        for (v, t) in batch.iter().enumerate() {
            for account in t.accounts() {
                if hot.contains(&account) {
                    let bucket = by_hot.entry(account).or_default();
                    if bucket.last() != Some(&(v as u32)) {
                        bucket.push(v as u32);
                    }
                }
            }
        }
        let mut edges = Vec::new();
        for bucket in by_hot.values() {
            for i in 0..bucket.len() {
                for j in (i + 1)..bucket.len() {
                    edges.push((bucket[i], bucket[j]));
                }
            }
        }
        let predicted = ConflictGraph::from_edges(batch.len(), &edges);
        let order: Vec<u32> = (0..batch.len() as u32).collect();
        let speculated = greedy_by_order(&predicted, &order);
        // Repair against the true conflicts: keep the predicted slot when
        // safe, otherwise first-fit upward from it. Checking each vertex
        // against everything already placed makes the result pairwise
        // conflict-free regardless of prediction quality.
        let truth = ConflictGraph::build(batch);
        let mut placed: Vec<Vec<u32>> = Vec::new();
        let mut slots = vec![0u32; batch.len()];
        for (v, slot) in slots.iter_mut().enumerate() {
            let mut z = speculated.color(v) as usize;
            loop {
                if placed.len() <= z {
                    placed.resize_with(z + 1, Vec::new);
                }
                if placed[z]
                    .iter()
                    .all(|&u| !truth.are_adjacent(u as usize, v))
                {
                    break;
                }
                z += 1;
            }
            placed[z].push(v as u32);
            *slot = z as u32;
        }
        EpochPlan {
            num_slots: placed.len() as u32,
            slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ColoringPolicy;
    use conflict::ColoringStrategy;
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

    /// All-conflicting batch: every transaction writes shard 2's account.
    fn contended(map: &AccountMap, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId((i % 8) as u32),
                    Round(i / 3),
                    map,
                    &[ShardId(2)],
                )
                .unwrap()
            })
            .collect()
    }

    /// Pairwise independent batch: one distinct single-shard write each.
    fn independent(map: &AccountMap, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId((i % 8) as u32),
                    Round::ZERO,
                    map,
                    &[ShardId((i % 8) as u32)],
                )
                .unwrap()
            })
            .collect()
    }

    fn zoo() -> Vec<Box<dyn Scheduler>> {
        vec![
            Box::new(EdfPolicy::new()),
            Box::new(FixedPriorityPolicy::new()),
            Box::new(WorkStealPolicy::new(8)),
            Box::new(SpeculativePolicy::new()),
        ]
    }

    #[test]
    fn every_policy_is_safe_on_contended_and_independent_batches() {
        let (_, map) = setup();
        for batch in [contended(&map, 7), independent(&map, 9)] {
            for mut p in zoo() {
                let plan = p.plan_epoch(0, &batch);
                assert!(
                    plan.is_safe_for(&batch),
                    "{} on {} txns",
                    p.kind(),
                    batch.len()
                );
            }
        }
    }

    #[test]
    fn independent_batches_run_in_one_slot() {
        let (_, map) = setup();
        let batch = independent(&map, 8);
        for mut p in zoo() {
            let plan = p.plan_epoch(0, &batch);
            assert_eq!(plan.num_slots, 1, "{}", p.kind());
        }
    }

    #[test]
    fn edf_serializes_conflicts_in_arrival_order() {
        let (_, map) = setup();
        // Reverse id-vs-arrival so EDF's order differs from id order:
        // txn 0 arrives last.
        let batch: Vec<Transaction> = (0..4)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId(i as u32),
                    Round(10 - i),
                    &map,
                    &[ShardId(2)],
                )
                .unwrap()
            })
            .collect();
        let plan = EdfPolicy::new().plan_epoch(0, &batch);
        // Mutual conflict ⇒ 4 slots; earliest arrival (txn 3) gets slot 0.
        assert_eq!(plan.num_slots, 4);
        assert_eq!(plan.slot(3), 0);
        assert_eq!(plan.slot(0), 3);
    }

    #[test]
    fn fixed_priority_places_the_hottest_txn_first() {
        let (_, map) = setup();
        // Txns 1..=3 contend on shard 2; txn 0 is independent but has the
        // lowest id — priority, not id, must decide slot 0's occupants.
        let mut batch = vec![Transaction::writing_shards(
            TxnId(0),
            ShardId(0),
            Round::ZERO,
            &map,
            &[ShardId(5)],
        )
        .unwrap()];
        batch.extend(contended(&map, 3).into_iter().map(|mut t| {
            t.id = TxnId(t.id.0 + 1);
            t
        }));
        let plan = FixedPriorityPolicy::new().plan_epoch(0, &batch);
        assert!(plan.is_safe_for(&batch));
        // The contended txn with the lowest id lands in slot 0 (it is
        // colored before the cold txn 0, which still fits slot 0 since
        // they don't conflict).
        assert_eq!(plan.slot(1), 0);
        assert_eq!(plan.slot(0), 0);
    }

    #[test]
    fn work_steal_drains_a_hot_queue_via_idle_shards() {
        let (_, map) = setup();
        // All six txns share home shard 0 and are pairwise independent:
        // shard 0 takes one per wave, the other (idle) shards steal the
        // rest, so everything fits in wave 0.
        let batch: Vec<Transaction> = (0..6)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId(0),
                    Round::ZERO,
                    &map,
                    &[ShardId((i % 8) as u32)],
                )
                .unwrap()
            })
            .collect();
        let plan = WorkStealPolicy::new(8).plan_epoch(0, &batch);
        assert!(plan.is_safe_for(&batch));
        assert_eq!(
            plan.num_slots, 1,
            "idle shards must steal: {:?}",
            plan.slots
        );
    }

    #[test]
    fn speculative_repair_catches_cold_conflicts() {
        let (_, map) = setup();
        // Every pair conflicts on shard 2's account, but each account has
        // exactly one *writer* when n is small... use single-writer plus
        // readers: builder-level control keeps one writer and n readers,
        // so the account never reaches the 2-writer prediction threshold
        // and all conflicts are mispredicted — repair alone must
        // serialize them.
        let shared = map.accounts_of(ShardId(2)).first().unwrap();
        let mut batch = vec![];
        let writer = sharding_core::txn::TxnBuilder::new(TxnId(0), ShardId(0), Round::ZERO, &map)
            .update(shared, 1)
            .build()
            .unwrap();
        batch.push(writer);
        for i in 1..4u64 {
            let reader =
                sharding_core::txn::TxnBuilder::new(TxnId(i), ShardId(1), Round::ZERO, &map)
                    .check(shared, 0)
                    .build()
                    .unwrap();
            batch.push(reader);
        }
        let plan = SpeculativePolicy::new().plan_epoch(0, &batch);
        assert!(plan.is_safe_for(&batch), "{:?}", plan);
        // The writer conflicts with all three readers; readers don't
        // conflict with each other, so 2 slots suffice and the repair
        // pass must find that rather than over-serialize.
        assert_eq!(plan.num_slots, 2, "{:?}", plan.slots);
    }

    #[test]
    fn policies_are_pure_functions_of_the_batch() {
        let (sys, map) = setup();
        let batch = contended(&map, 6);
        // The coloring policies too: an FDS leader replans its whole batch
        // at every rescheduling epoch, so a plan may depend on nothing else.
        let coloring = |kind, strategy| -> Box<dyn Scheduler> {
            Box::new(ColoringPolicy::new(kind, strategy, sys.accounts))
        };
        let colorings = [
            coloring(SchedulerKind::Bds, ColoringStrategy::Greedy),
            coloring(SchedulerKind::Fds, ColoringStrategy::Dsatur),
            coloring(
                SchedulerKind::Fds,
                ColoringStrategy::HeavyLight { threshold: 2 },
            ),
        ];
        for mut p in zoo().into_iter().chain(colorings) {
            let a = p.plan_epoch(0, &batch);
            let _noise = p.plan_epoch(1, &independent(&map, 5));
            let b = p.plan_epoch(2, &batch);
            assert_eq!(a, b, "{} retained cross-epoch state", p.kind());
        }
    }
}
