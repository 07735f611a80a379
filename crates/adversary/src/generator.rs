//! The adversary driver: strategy proposals → budget admission → concrete
//! transactions.

use crate::budget::ShardBudgets;
use crate::strategy::{Proposer, StrategyKind};
use rand::{Rng as _, RngCore};
use serde::{Deserialize, Serialize};
use sharding_core::rngutil::{seeded_rng, split_seed, Rng};
use sharding_core::{
    AccountId, AccountMap, Action, Condition, Round, ShardId, SystemConfig, Transaction, TxnId,
};

/// How an admitted shard access set becomes a concrete transaction.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WorkloadShape {
    /// Write one account on every accessed shard (+1 delta). The paper's
    /// simulation workload: maximal conflicts, never aborts.
    #[default]
    WriteOnly,
    /// Conditional transfer: debit an account on the first accessed shard
    /// (with a balance condition) and credit one account on each remaining
    /// shard. Aborts when the payer cannot cover the amount — exercises
    /// the vote/abort path end to end.
    Transfers {
        /// Maximum transferred amount (uniform in `1..=amount_max`).
        amount_max: u64,
    },
    /// Write the first accessed shard's account, only *read* (condition
    /// check) the others. Readers do not conflict with each other, so the
    /// conflict graph thins out — a contention ablation.
    ReadMostly,
}

impl std::fmt::Display for WorkloadShape {
    /// Renders the scenario-file spelling; round-trips through
    /// `WorkloadShape::from_str`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadShape::WriteOnly => write!(f, "write-only"),
            WorkloadShape::Transfers { amount_max } => write!(f, "transfers:{amount_max}"),
            WorkloadShape::ReadMostly => write!(f, "read-mostly"),
        }
    }
}

impl std::str::FromStr for WorkloadShape {
    type Err = String;

    /// Parses the scenario-file spelling: `write-only`, `transfers:MAX`,
    /// `read-mostly`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None => match s {
                "write-only" => Ok(WorkloadShape::WriteOnly),
                "read-mostly" => Ok(WorkloadShape::ReadMostly),
                other => Err(format!(
                    "unknown workload shape `{other}` (expected write-only, transfers:MAX, or \
                     read-mostly)"
                )),
            },
            Some(("transfers", max)) => {
                let amount_max: u64 = max
                    .parse()
                    .map_err(|_| format!("`{max}` is not an integer"))?;
                Ok(WorkloadShape::Transfers { amount_max })
            }
            Some((other, _)) => Err(format!("workload shape `{other}` takes no `:`-argument")),
        }
    }
}

impl WorkloadShape {
    /// The shape's one random draw, taken after the accounts: a
    /// `Transfers` amount, uniform in `1..=amount_max`. The other shapes
    /// consume no RNG word and return 0. The first half of shaping a
    /// transaction; [`TxnScratch::build`] is the second.
    pub(crate) fn draw_amount(self, rng: &mut impl RngCore) -> u64 {
        match self {
            WorkloadShape::Transfers { amount_max } => rng.gen_range(1..=amount_max.max(1)),
            WorkloadShape::WriteOnly | WorkloadShape::ReadMostly => 0,
        }
    }
}

/// A [`WorkloadShape`] without its parameter: all that building needs
/// once the shape's draw has been taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShapeTag {
    WriteOnly,
    Transfers,
    ReadMostly,
}

impl From<WorkloadShape> for ShapeTag {
    fn from(shape: WorkloadShape) -> ShapeTag {
        match shape {
            WorkloadShape::WriteOnly => ShapeTag::WriteOnly,
            WorkloadShape::Transfers { .. } => ShapeTag::Transfers,
            WorkloadShape::ReadMostly => ShapeTag::ReadMostly,
        }
    }
}

/// Parameters of the adversarial source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryConfig {
    /// Injection rate `0 < ρ ≤ 1` (per-shard congestion per round).
    pub rho: f64,
    /// Burstiness `b ≥ 1`.
    pub burstiness: u64,
    /// Which arrival process generates access sets.
    pub strategy: StrategyKind,
    /// How access sets become transactions.
    pub shape: WorkloadShape,
    /// Seed for the generation stream.
    pub seed: u64,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            rho: 0.1,
            burstiness: 1,
            strategy: StrategyKind::UniformRandom,
            shape: WorkloadShape::WriteOnly,
            seed: 0,
        }
    }
}

/// A stateful `(ρ, b)`-conforming transaction source.
///
/// Call [`Adversary::generate`] once per round, in round order. Every
/// returned transaction:
///
/// * was admitted by per-shard leaky buckets, so the whole emission is
///   `(ρ, b)`-conforming over **every** window by construction;
/// * writes one account on each shard of its access set (with one account
///   per shard — the paper's setup — "accesses a shard" and "writes its
///   account" coincide);
/// * has a uniformly random home shard and a globally unique, monotonically
///   increasing [`TxnId`].
pub struct Adversary {
    cfg: SystemConfig,
    map: AccountMap,
    acfg: AdversaryConfig,
    budgets: ShardBudgets,
    proposer: Proposer,
    rng: Rng,
    next_id: u64,
    generated: u64,
    scratch: TxnScratch,
}

impl Adversary {
    /// Creates the adversary. `cfg` must validate.
    pub fn new(cfg: &SystemConfig, map: &AccountMap, acfg: AdversaryConfig) -> Self {
        cfg.validate().expect("valid system config");
        Adversary {
            cfg: cfg.clone(),
            map: map.clone(),
            budgets: ShardBudgets::new(cfg.shards, acfg.rho, acfg.burstiness),
            proposer: Proposer::new(acfg.strategy),
            rng: seeded_rng(split_seed(acfg.seed, 0xADBE)),
            acfg,
            next_id: 0,
            generated: 0,
            scratch: TxnScratch::default(),
        }
    }

    /// The adversary's configuration.
    pub fn config(&self) -> &AdversaryConfig {
        &self.acfg
    }

    /// Total transactions generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Generates the transactions injected during `round`, in a vector of
    /// exactly their number.
    pub fn generate(&mut self, round: Round) -> Vec<Transaction> {
        self.budgets.tick();
        let proposals = self.proposer.propose(
            &self.cfg,
            self.acfg.rho,
            self.acfg.burstiness,
            round,
            &mut self.rng,
        );
        // One block sized from the proposals: the batch is queued until
        // it is scheduled, so a push-grown one would keep its slack.
        let mut out = Vec::with_capacity(proposals.len());
        for shards in proposals {
            if !self.budgets.try_charge(shards.iter().copied()) {
                continue; // Budget exhausted for some accessed shard: drop.
            }
            let id = TxnId(self.next_id);
            self.next_id += 1;
            let home = ShardId(self.rng.gen_range(0..self.cfg.shards as u32));
            // One random account per accessed shard.
            self.scratch.clear();
            for &s in &shards {
                let owned = self.map.accounts_of(s);
                assert!(!owned.is_empty(), "shard {s} owns no accounts");
                // `SliceRandom::choose`'s draw: one word, reduced modulo
                // the length.
                let pick = self.rng.next_u64() % owned.len() as u64;
                let account = owned.get(pick as usize).expect("pick below len");
                self.scratch.push(account, s);
            }
            let shape = self.acfg.shape;
            let amount = shape.draw_amount(&mut self.rng);
            out.push(self.scratch.build(shape.into(), amount, id, home, round));
        }
        self.generated += out.len() as u64;
        // Only a budget drop leaves slack; a full batch is not moved.
        out.shrink_to_fit();
        out
    }
}

/// The buffers a transaction is built in, reused from one transaction to
/// the next: the accounts it accesses, each with its owning shard, and
/// the tagged parts handed to [`Transaction::from_parts`] — so a build
/// allocates only the transaction's own two vectors. The legacy
/// [`Adversary`] owns one, and so does the [`Mempool`](crate::Mempool),
/// which builds an [`Offer`] only when it drains.
#[derive(Debug, Clone, Default)]
pub struct TxnScratch {
    accounts: Vec<(ShardId, AccountId)>,
    conditions: Vec<(ShardId, Condition)>,
    actions: Vec<(ShardId, Action)>,
}

impl TxnScratch {
    /// Forgets the previous transaction's accounts.
    pub(crate) fn clear(&mut self) {
        self.accounts.clear();
    }

    /// Adds `account`, owned by `shard`, to the next transaction.
    pub(crate) fn push(&mut self, account: AccountId, shard: ShardId) {
        self.accounts.push((shard, account));
    }

    /// Builds a transaction over the pushed accounts shaped per `shape`,
    /// `amount` being the shape's draw ([`WorkloadShape::draw_amount`]).
    /// The one build step, shared by the per-round [`Adversary`] and the
    /// mempool's drain, so both emit byte-identical transaction bodies
    /// for the same draws. Draws nothing: the caller took the amount
    /// after the accounts (this ordering is load-bearing: it keeps the
    /// ChaCha streams — and therefore every golden report — unchanged).
    pub(crate) fn build(
        &mut self,
        shape: ShapeTag,
        amount: u64,
        id: TxnId,
        home: ShardId,
        round: Round,
    ) -> Transaction {
        let TxnScratch {
            accounts,
            conditions,
            actions,
        } = self;
        conditions.clear();
        actions.clear();
        let update = |&(s, account): &(ShardId, AccountId), delta| (s, Action { account, delta });
        let check = |&(s, account): &(ShardId, AccountId), min_balance| {
            let condition = Condition {
                account,
                min_balance,
            };
            (s, condition)
        };
        match shape {
            ShapeTag::WriteOnly => actions.extend(accounts.iter().map(|a| update(a, 1))),
            ShapeTag::Transfers => {
                let (payer, payees) = accounts.split_first().expect("non-empty access set");
                if payees.is_empty() {
                    // Single-shard: a deposit.
                    actions.push(update(payer, amount as i64));
                } else {
                    let share = (amount / payees.len() as u64).max(1);
                    conditions.push(check(payer, amount));
                    actions.push(update(payer, -(amount as i64)));
                    actions.extend(payees.iter().map(|a| update(a, share as i64)));
                }
            }
            ShapeTag::ReadMostly => {
                let (writer, readers) = accounts.split_first().expect("non-empty access set");
                actions.push(update(writer, 1));
                conditions.extend(readers.iter().map(|a| check(a, 0)));
            }
        }
        Transaction::from_parts(id, home, round, conditions, actions)
            .expect("non-empty admitted access set")
    }
}

/// Draws an [`Offer`] holds in place; a wider one spills to one boxed
/// slice.
const INLINE_DRAWS: usize = 8;

/// A drawn transaction that is not built yet: what a streaming producer
/// offers and the [`Mempool`](crate::Mempool) ranks, holds and evicts.
/// It carries every random draw the transaction needs — its accounts in
/// draw order, each with its owning shard, and the shape's amount — so
/// [`Offer::build`] draws nothing and yields the transaction the
/// producer would have built on the spot. Up to eight draws it owns no
/// heap memory, so an offer the pool turns away costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// The transaction's id.
    pub id: TxnId,
    /// The round the offer was drawn in: the transaction's `generated`.
    pub generated: Round,
    /// The shape's draw ([`WorkloadShape::draw_amount`]).
    amount: u64,
    drawn: Drawn,
}

// `peak_live_mb`: a saturated pool holds `capacity` offers in every lane.
const _: () = assert!(std::mem::size_of::<Offer>() <= 128);

/// One drawn account and its owning shard, packed to 12 bytes so the
/// inline draws take 96.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C, packed(4))]
struct Draw {
    shard: ShardId,
    account: AccountId,
}

/// An offer's shape tag and its draws. The tag rides in both variants,
/// beside the discriminant, where it costs the offer no word of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Drawn {
    Inline {
        shape: ShapeTag,
        len: u8,
        draws: [Draw; INLINE_DRAWS],
    },
    Spilled {
        shape: ShapeTag,
        draws: Box<[Draw]>,
    },
}

impl Offer {
    /// An offer of `draws` — `(shard, account)` pairs in draw order, the
    /// first shard being the home — for a transaction of `shape` whose
    /// draw was `amount`.
    ///
    /// # Panics
    ///
    /// Panics when `draws` is empty.
    pub fn new(
        id: TxnId,
        generated: Round,
        shape: WorkloadShape,
        amount: u64,
        draws: &[(ShardId, AccountId)],
    ) -> Offer {
        assert!(!draws.is_empty(), "an offer draws at least one account");
        let shape = ShapeTag::from(shape);
        let pack = |&(shard, account): &(ShardId, AccountId)| Draw { shard, account };
        let drawn = if draws.len() <= INLINE_DRAWS {
            let mut inline = [Draw::default(); INLINE_DRAWS];
            for (slot, draw) in inline.iter_mut().zip(draws) {
                *slot = pack(draw);
            }
            let len = draws.len() as u8;
            Drawn::Inline {
                shape,
                len,
                draws: inline,
            }
        } else {
            let draws = draws.iter().map(pack).collect();
            Drawn::Spilled { shape, draws }
        };
        Offer {
            id,
            generated,
            amount,
            drawn,
        }
    }

    /// The shape tag and the draws, whichever representation holds them.
    fn view(&self) -> (ShapeTag, &[Draw]) {
        match &self.drawn {
            Drawn::Inline { shape, len, draws } => (*shape, &draws[..usize::from(*len)]),
            Drawn::Spilled { shape, draws } => (*shape, draws),
        }
    }

    /// The shards the transaction accesses, in draw order: what the
    /// drain charges against the `(ρ, b)` budgets.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> + Clone + '_ {
        self.view().1.iter().map(|d| d.shard)
    }

    /// The home shard, which is the first drawn.
    pub fn home(&self) -> ShardId {
        self.view().1[0].shard
    }

    /// Builds the transaction in `scratch`'s buffers.
    pub fn build(&self, scratch: &mut TxnScratch) -> Transaction {
        let (shape, draws) = self.view();
        scratch.clear();
        for d in draws {
            scratch.push(d.account, d.shard);
        }
        scratch.build(shape, self.amount, self.id, self.home(), self.generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_trace, TraceRecorder};

    fn run(acfg: AdversaryConfig, rounds: u64) -> (SystemConfig, Vec<Vec<Transaction>>) {
        let cfg = SystemConfig::paper_simulation();
        let map = AccountMap::round_robin(&cfg);
        let mut adv = Adversary::new(&cfg, &map, acfg);
        let trace: Vec<Vec<Transaction>> = (0..rounds).map(|r| adv.generate(Round(r))).collect();
        (cfg, trace)
    }

    #[test]
    fn shape_display_roundtrips_through_from_str() {
        for shape in [
            WorkloadShape::WriteOnly,
            WorkloadShape::Transfers { amount_max: 100 },
            WorkloadShape::ReadMostly,
        ] {
            let spelled = shape.to_string();
            assert_eq!(
                spelled.parse::<WorkloadShape>().unwrap(),
                shape,
                "{spelled}"
            );
        }
        for bad in ["", "writes", "transfers", "transfers:x", "read-mostly:1"] {
            assert!(bad.parse::<WorkloadShape>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let acfg = AdversaryConfig {
            rho: 0.2,
            burstiness: 10,
            seed: 9,
            ..Default::default()
        };
        let (_, t1) = run(acfg, 200);
        let (_, t2) = run(acfg, 200);
        assert_eq!(t1, t2);
        let (_, t3) = run(AdversaryConfig { seed: 10, ..acfg }, 200);
        assert_ne!(t1, t3);
    }

    #[test]
    fn ids_unique_and_monotone() {
        let (_, trace) = run(
            AdversaryConfig {
                rho: 0.3,
                burstiness: 5,
                seed: 1,
                ..Default::default()
            },
            300,
        );
        let ids: Vec<u64> = trace.iter().flatten().map(|t| t.id.raw()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn all_strategies_emit_conforming_traces() {
        for strategy in [
            StrategyKind::UniformRandom,
            StrategyKind::SingleBurst { burst_round: 50 },
            StrategyKind::PairwiseConflict,
            StrategyKind::HotShard,
            StrategyKind::BurstTrain { period: 100 },
            StrategyKind::CountBurst {
                burst_round: 50,
                count: 60,
            },
        ] {
            let acfg = AdversaryConfig {
                rho: 0.25,
                burstiness: 8,
                strategy,
                seed: 3,
                ..Default::default()
            };
            let (cfg, trace) = run(acfg, 400);
            let mut rec = TraceRecorder::new(cfg.shards);
            for batch in &trace {
                rec.record_round(batch.iter());
            }
            validate_trace(&rec, acfg.rho, acfg.burstiness)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        }
    }

    #[test]
    fn achieved_rate_close_to_rho() {
        // With paper-scale burstiness the buckets are deep and the paced
        // proposals are admitted nearly verbatim. (With tiny b and wide
        // transactions the AND-admission across k buckets rejects heavily;
        // that regime is exercised in `tiny_burstiness_still_conforms`.)
        let rho = 0.15;
        let acfg = AdversaryConfig {
            rho,
            burstiness: 50,
            seed: 4,
            ..Default::default()
        };
        let (cfg, trace) = run(acfg, 3000);
        let congestion: usize = trace.iter().flatten().map(|t| t.shard_count()).sum();
        let per_shard_rate = congestion as f64 / cfg.shards as f64 / 3000.0;
        assert!(
            per_shard_rate > 0.9 * rho && per_shard_rate <= rho + 50.0 / 3000.0 + 0.02,
            "rate {per_shard_rate} vs rho {rho}"
        );
    }

    #[test]
    fn tiny_burstiness_still_conforms() {
        let acfg = AdversaryConfig {
            rho: 0.15,
            burstiness: 2,
            seed: 4,
            ..Default::default()
        };
        let (cfg, trace) = run(acfg, 500);
        let mut rec = TraceRecorder::new(cfg.shards);
        for batch in &trace {
            rec.record_round(batch.iter());
        }
        validate_trace(&rec, acfg.rho, acfg.burstiness).unwrap();
        assert!(
            trace.iter().flatten().count() > 0,
            "still generates something"
        );
    }

    #[test]
    fn burst_round_injects_near_budget() {
        let b = 20u64;
        let acfg = AdversaryConfig {
            rho: 0.05,
            burstiness: b,
            strategy: StrategyKind::SingleBurst { burst_round: 100 },
            seed: 5,
            ..Default::default()
        };
        let (cfg, trace) = run(acfg, 150);
        let burst_congestion: usize = trace[100].iter().map(|t| t.shard_count()).sum();
        // Burst should reach close to the full budget s*(b+rho).
        let max = cfg.shards as f64 * (b as f64 + 1.0);
        assert!(
            burst_congestion as f64 > 0.8 * cfg.shards as f64 * b as f64,
            "burst congestion {burst_congestion} vs budget {max}"
        );
    }

    #[test]
    fn zipf_skews_congestion_toward_low_shards() {
        let acfg = AdversaryConfig {
            rho: 0.2,
            burstiness: 20,
            strategy: StrategyKind::Zipf { exponent: 1.2 },
            seed: 2,
            ..Default::default()
        };
        let (cfg, trace) = run(acfg, 2000);
        let mut per_shard = vec![0u64; cfg.shards];
        for t in trace.iter().flatten() {
            for s in t.shards() {
                per_shard[s.index()] += 1;
            }
        }
        let head: u64 = per_shard[..8].iter().sum();
        let tail: u64 = per_shard[cfg.shards - 8..].iter().sum();
        assert!(head > 3 * tail, "zipf head {head} vs tail {tail}");
        // Still conforming.
        let mut rec = TraceRecorder::new(cfg.shards);
        for batch in &trace {
            rec.record_round(batch.iter());
        }
        validate_trace(&rec, acfg.rho, acfg.burstiness).unwrap();
    }

    #[test]
    fn transfer_shape_has_conditions_and_conserving_deltas() {
        let acfg = AdversaryConfig {
            rho: 0.2,
            burstiness: 5,
            shape: WorkloadShape::Transfers { amount_max: 100 },
            seed: 3,
            ..Default::default()
        };
        let (_, trace) = run(acfg, 300);
        let mut saw_multi = false;
        for t in trace.iter().flatten() {
            if t.shard_count() > 1 {
                saw_multi = true;
                let conditions: usize = t.subs.iter().map(|s| s.conditions().len()).sum();
                assert!(conditions >= 1, "multi-shard transfer checks the payer");
                let debit: i64 = t
                    .subs
                    .iter()
                    .flat_map(|s| s.actions())
                    .map(|a| a.delta)
                    .filter(|d| *d < 0)
                    .sum();
                assert!(debit < 0);
            }
        }
        assert!(saw_multi);
    }

    /// Every shape draws its accounts from distinct shards, so each sub
    /// holds one part in place — but a transfer's payer, whose balance
    /// check and debit share one exact-fit block.
    #[test]
    fn every_checked_in_shape_files_inline_subs_but_the_payer() {
        for shape in [
            WorkloadShape::WriteOnly,
            WorkloadShape::ReadMostly,
            WorkloadShape::Transfers { amount_max: 100 },
        ] {
            let acfg = AdversaryConfig {
                rho: 0.3,
                burstiness: 10,
                shape,
                seed: 5,
                ..Default::default()
            };
            let (_, trace) = run(acfg, 200);
            let (mut inline, mut payers) = (0, 0);
            for sub in trace.iter().flatten().flat_map(|t| &t.subs) {
                let parts = (sub.conditions().len(), sub.actions().len());
                if parts == (1, 1) {
                    assert!(matches!(shape, WorkloadShape::Transfers { .. }), "{shape}");
                    assert_eq!(sub.conditions()[0].account, sub.actions()[0].account);
                    assert!(sub.actions()[0].delta < 0, "the payer's debit");
                    assert!(!sub.is_inline());
                    payers += 1;
                } else {
                    assert_eq!(parts.0 + parts.1, 1, "{shape}: {sub:?}");
                    assert!(sub.is_inline());
                    inline += 1;
                }
            }
            assert!(inline > 100, "{shape}: {inline} inline subs");
            let transfers = matches!(shape, WorkloadShape::Transfers { .. });
            assert_eq!(payers > 0, transfers, "{shape}: {payers} payers");
        }
    }

    /// A round's batch is handed over at its exact length, whether the
    /// budgets admitted every proposal or dropped some.
    #[test]
    fn batches_carry_no_spare_capacity() {
        let cfg = SystemConfig::paper_simulation();
        let map = AccountMap::round_robin(&cfg);
        let acfg = AdversaryConfig {
            rho: 0.5,
            burstiness: 3,
            seed: 8,
            ..Default::default()
        };
        let mut adv = Adversary::new(&cfg, &map, acfg);
        let mut sizes = std::collections::BTreeSet::new();
        for r in 0..300 {
            let batch = adv.generate(Round(r));
            assert_eq!(batch.capacity(), batch.len(), "round {r}");
            sizes.insert(batch.len());
        }
        assert!(sizes.len() > 2, "batch sizes vary: {sizes:?}");
    }

    #[test]
    fn read_mostly_shape_thins_conflicts() {
        let acfg_w = AdversaryConfig {
            rho: 0.3,
            burstiness: 30,
            seed: 4,
            ..Default::default()
        };
        let acfg_r = AdversaryConfig {
            shape: WorkloadShape::ReadMostly,
            ..acfg_w
        };
        let (_, tw) = run(acfg_w, 200);
        let (_, tr) = run(acfg_r, 200);
        let all_w: Vec<_> = tw.into_iter().flatten().collect();
        let all_r: Vec<_> = tr.into_iter().flatten().collect();
        let degree = |txns: &[Transaction]| {
            let mut edges = 0usize;
            for i in 0..txns.len() {
                for j in (i + 1)..txns.len() {
                    if txns[i].conflicts_with(&txns[j]) {
                        edges += 1;
                    }
                }
            }
            edges as f64 / txns.len().max(1) as f64
        };
        assert!(
            degree(&all_r) < degree(&all_w),
            "read-mostly must conflict less: {} vs {}",
            degree(&all_r),
            degree(&all_w)
        );
    }

    #[test]
    fn transactions_write_each_accessed_shard() {
        let (cfg, trace) = run(
            AdversaryConfig {
                rho: 0.2,
                burstiness: 3,
                seed: 6,
                ..Default::default()
            },
            100,
        );
        let map = AccountMap::round_robin(&cfg);
        for t in trace.iter().flatten() {
            t.validate(cfg.k_max).unwrap();
            for sub in &t.subs {
                assert!(!sub.actions().is_empty(), "every subtransaction writes");
                for a in sub.actions() {
                    assert_eq!(map.owner(a.account).unwrap(), sub.dest);
                }
            }
        }
    }
}
