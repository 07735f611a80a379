//! Adversarial workload strategies.
//!
//! A strategy proposes *candidate* transactions each round (as shard access
//! sets); the [`Adversary`](crate::Adversary) driver admits the prefix the
//! `(ρ, b)` budget allows and drops the rest. This split keeps strategies
//! free to be maximally aggressive — the budget layer guarantees
//! conformance regardless.
//!
//! The paper's own simulation (Section 7) uses what is here called
//! [`StrategyKind::SingleBurst`]: "Burstiness was introduced within only
//! one epoch throughout the total rounds … pessimistic scenarios where
//! queues start being already loaded and in the remaining time the system
//! tries to prevent their further growth under the regular arrival of
//! other transactions."

use rand::seq::SliceRandom;
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use sharding_core::rngutil::Rng;
use sharding_core::{Round, ShardId, SystemConfig};

/// Which adversarial strategy generates the workload.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Steady injection at rate `ρ`, each transaction accessing a uniformly
    /// random set of `1..=k` shards. No deliberate burst (the bucket still
    /// permits incidental ones).
    #[default]
    UniformRandom,
    /// The paper's Section 7 workload: steady rate plus one maximal burst
    /// that drains every bucket at `burst_round`.
    SingleBurst {
        /// Round at which the full burstiness budget is spent.
        burst_round: u64,
    },
    /// The Theorem 1 lower-bound construction: groups of `p+1` mutually
    /// conflicting transactions, every pair sharing a dedicated shard
    /// (`p = min(k−1, largest p with p(p+1)/2 ≤ s)`). Drives any scheduler
    /// to instability once `ρ` exceeds `2/(p+2)`.
    PairwiseConflict,
    /// Every transaction touches shard 0 (plus `k−1` random others):
    /// maximal single-shard pressure, the DoS shape from the introduction.
    HotShard,
    /// Bursts that recur every `period` rounds, draining the buckets each
    /// time — a sustained DoS attack.
    BurstTrain {
        /// Rounds between consecutive bursts.
        period: u64,
    },
    /// Steady rate plus a one-time burst of exactly `count` transactions
    /// (random access sets) at `burst_round`. This is the workload the
    /// paper's Section 7 figures use when they speak of "burstiness b":
    /// `b` total transactions injected in one epoch, spread over random
    /// shards — the per-shard congestion of the burst is roughly
    /// `count·k̄/s`, well inside a `(ρ, b)` envelope with bucket depth
    /// `b = count`.
    CountBurst {
        /// Round at which the burst is injected.
        burst_round: u64,
        /// Number of transactions in the burst.
        count: u64,
    },
    /// Steady rate with Zipf-skewed shard popularity: shard `i` is chosen
    /// with probability ∝ `1/(i+1)^exponent`. Models realistic hot-account
    /// skew (exchanges, popular contracts) between the uniform workload
    /// (`exponent = 0`) and the single-hot-shard attack (`exponent → ∞`).
    Zipf {
        /// Skew exponent; 0 = uniform, ~1 = web-like skew.
        exponent: f64,
    },
}

impl std::fmt::Display for StrategyKind {
    /// Renders the scenario-file spelling of the strategy; the output
    /// round-trips through `StrategyKind::from_str`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::UniformRandom => write!(f, "uniform"),
            StrategyKind::SingleBurst { burst_round } => write!(f, "single-burst:{burst_round}"),
            StrategyKind::PairwiseConflict => write!(f, "pairwise"),
            StrategyKind::HotShard => write!(f, "hot-shard"),
            StrategyKind::BurstTrain { period } => write!(f, "burst-train:{period}"),
            StrategyKind::CountBurst { burst_round, count } => {
                write!(f, "count-burst:{burst_round}:{count}")
            }
            StrategyKind::Zipf { exponent } => write!(f, "zipf:{exponent}"),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    /// Parses the scenario-file spelling: `uniform`, `single-burst:R`,
    /// `pairwise`, `hot-shard`, `burst-train:P`, `count-burst:R:C`,
    /// `zipf:E`. Context-dependent spellings (`count-burst:auto`) are
    /// resolved by the scenario layer, not here.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let arity = |n: usize| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "strategy `{head}` takes {n} `:`-argument(s), got {}",
                    args.len()
                ))
            }
        };
        let int = |a: &str| -> Result<u64, String> {
            a.parse().map_err(|_| format!("`{a}` is not an integer"))
        };
        match head {
            "uniform" | "uniform-random" => {
                arity(0)?;
                Ok(StrategyKind::UniformRandom)
            }
            "single-burst" => {
                arity(1)?;
                Ok(StrategyKind::SingleBurst {
                    burst_round: int(args[0])?,
                })
            }
            "pairwise" | "pairwise-conflict" => {
                arity(0)?;
                Ok(StrategyKind::PairwiseConflict)
            }
            "hot-shard" => {
                arity(0)?;
                Ok(StrategyKind::HotShard)
            }
            "burst-train" => {
                arity(1)?;
                Ok(StrategyKind::BurstTrain {
                    period: int(args[0])?,
                })
            }
            "count-burst" => {
                arity(2)?;
                Ok(StrategyKind::CountBurst {
                    burst_round: int(args[0])?,
                    count: int(args[1])?,
                })
            }
            "zipf" => {
                arity(1)?;
                let exponent: f64 = args[0]
                    .parse()
                    .map_err(|_| format!("`{}` is not a number", args[0]))?;
                Ok(StrategyKind::Zipf { exponent })
            }
            other => Err(format!(
                "unknown strategy `{other}` (expected uniform, single-burst:R, pairwise, \
                 hot-shard, burst-train:P, count-burst:R:C, or zipf:E)"
            )),
        }
    }
}

/// A candidate transaction proposal: the distinct shards it will write.
pub(crate) type Proposal = Vec<ShardId>;

/// Internal stateful proposer created from a [`StrategyKind`].
pub(crate) struct Proposer {
    kind: StrategyKind,
    /// Deterministic fractional carry for smooth rate pacing.
    carry: f64,
    /// Cached Zipf CDF over shards (built lazily).
    zipf_cdf: Vec<f64>,
}

impl Proposer {
    pub(crate) fn new(kind: StrategyKind) -> Self {
        Proposer {
            kind,
            carry: 0.0,
            zipf_cdf: Vec::new(),
        }
    }

    /// Proposes candidate access sets for `round`.
    ///
    /// `rho`/`burst` are the adversary parameters, used to pace steady-state
    /// proposals near the admissible rate; the budget layer enforces the
    /// hard constraint either way.
    pub(crate) fn propose(
        &mut self,
        cfg: &SystemConfig,
        rho: f64,
        burst: u64,
        round: Round,
        rng: &mut Rng,
    ) -> Vec<Proposal> {
        match self.kind {
            StrategyKind::UniformRandom => self.steady(cfg, rho, rng),
            StrategyKind::SingleBurst { burst_round } => {
                let mut out = self.steady(cfg, rho, rng);
                if round.raw() == burst_round {
                    out.extend(self.burst_batch(cfg, burst, rng));
                }
                out
            }
            StrategyKind::PairwiseConflict => self.pairwise(cfg, rho),
            StrategyKind::HotShard => {
                let mut out = self.steady(cfg, rho, rng);
                for p in &mut out {
                    if !p.contains(&ShardId(0)) {
                        p[0] = ShardId(0);
                        p.sort_unstable();
                        p.dedup();
                    }
                }
                out
            }
            StrategyKind::BurstTrain { period } => {
                let mut out = self.steady(cfg, rho, rng);
                if period > 0 && round.raw().is_multiple_of(period) {
                    out.extend(self.burst_batch(cfg, burst, rng));
                }
                out
            }
            StrategyKind::CountBurst { burst_round, count } => {
                let mut out = self.steady(cfg, rho, rng);
                if round.raw() == burst_round {
                    out.extend((0..count).map(|_| random_shard_set(cfg, rng)));
                }
                out
            }
            StrategyKind::Zipf { exponent } => {
                if self.zipf_cdf.is_empty() {
                    self.zipf_cdf = zipf_cdf(cfg.shards, exponent);
                }
                let avg_width = (1 + cfg.k_max) as f64 / 2.0;
                self.carry += rho * cfg.shards as f64 / avg_width;
                let n = self.carry.floor() as usize;
                self.carry -= n as f64;
                let cdf = &self.zipf_cdf;
                (0..n).map(|_| zipf_shard_set(cfg, cdf, rng)).collect()
            }
        }
    }

    /// Steady-state pacing: per-round transaction count `n` chosen so the
    /// expected per-shard congestion is `ρ` — with `s` shards and an average
    /// access width `w`, that is `n ≈ ρ·s/w`. A fractional carry keeps the
    /// long-run rate exact without randomness in the count.
    fn steady(&mut self, cfg: &SystemConfig, rho: f64, rng: &mut Rng) -> Vec<Proposal> {
        let avg_width = (1 + cfg.k_max) as f64 / 2.0;
        self.carry += rho * cfg.shards as f64 / avg_width;
        let n = self.carry.floor() as usize;
        self.carry -= n as f64;
        (0..n).map(|_| random_shard_set(cfg, rng)).collect()
    }

    /// A batch large enough to drain every bucket: about `(b+1)·s / 1`
    /// single-width candidates plus wide ones, shuffled. Overshooting is
    /// fine — the budget admits exactly what the constraint allows.
    fn burst_batch(&mut self, cfg: &SystemConfig, burst: u64, rng: &mut Rng) -> Vec<Proposal> {
        let mut out = Vec::new();
        for s in 0..cfg.shards as u32 {
            for _ in 0..=burst {
                out.push(vec![ShardId(s)]);
            }
        }
        out.shuffle(rng);
        out
    }

    /// Theorem 1 construction: with `p+1` transactions over `r = p(p+1)/2`
    /// shards, transaction `i` accesses, for every `j ≠ i`, the shard
    /// dedicated to the unordered pair `{i, j}`. Every pair of transactions
    /// then conflicts on its dedicated shard.
    fn pairwise(&mut self, cfg: &SystemConfig, rho: f64) -> Vec<Proposal> {
        let p = pairwise_p(cfg);
        let group = pairwise_group(p);
        // Pace at per-shard rate rho: each group contributes congestion 2 to
        // each of its shards, and spans p+1 transactions of width p.
        // Target: groups per round g with 2g <= rho  → g = rho/2 (carried).
        self.carry += rho / 2.0;
        let mut out = Vec::new();
        while self.carry >= 1.0 {
            self.carry -= 1.0;
            out.extend(group.iter().cloned());
        }
        out
    }
}

/// Largest usable `p` for the pairwise construction under `(k, s)`:
/// transactions have width `p ≤ k`, and `p(p+1)/2` dedicated shards must
/// exist.
pub(crate) fn pairwise_p(cfg: &SystemConfig) -> usize {
    let by_s = sharding_core::bounds::max_triangular_p(cfg.shards);
    by_s.min(cfg.k_max).max(1)
}

/// The access sets of one pairwise-conflict group for parameter `p`:
/// `p+1` transactions, each of width `p`, every pair sharing a unique shard.
pub(crate) fn pairwise_group(p: usize) -> Vec<Vec<ShardId>> {
    // Assign shard ids to unordered pairs {i,j}, 0 <= i < j <= p, in
    // lexicographic order.
    let mut shard_of_pair = std::collections::BTreeMap::new();
    let mut next = 0u32;
    for i in 0..=p {
        for j in (i + 1)..=p {
            shard_of_pair.insert((i, j), ShardId(next));
            next += 1;
        }
    }
    (0..=p)
        .map(|i| {
            let mut set: Vec<ShardId> = (0..=p)
                .filter(|&j| j != i)
                .map(|j| shard_of_pair[&(i.min(j), i.max(j))])
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// Cumulative distribution of the Zipf law `P(i) ∝ 1/(i+1)^a` over `s`
/// shards.
pub(crate) fn zipf_cdf(s: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(s);
    let mut total = 0.0;
    for i in 0..s {
        total += 1.0 / ((i + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

/// Samples a Zipf-distributed shard set of size `1..=k_max` (distinct
/// shards; rejection on duplicates, bounded by a scan fallback).
pub(crate) fn zipf_shard_set(cfg: &SystemConfig, cdf: &[f64], rng: &mut Rng) -> Proposal {
    let width = rng.gen_range(1..=cfg.k_max);
    let mut set: Vec<ShardId> = Vec::with_capacity(width);
    let mut attempts = 0;
    while set.len() < width {
        let u: f64 = rng.gen();
        let idx = cdf.partition_point(|&c| c < u).min(cfg.shards - 1);
        let cand = ShardId(idx as u32);
        if !set.contains(&cand) {
            set.push(cand);
        }
        attempts += 1;
        if attempts > 16 * width {
            // Heavily skewed tail: fill with the smallest unused ids.
            for i in 0..cfg.shards as u32 {
                if set.len() == width {
                    break;
                }
                if !set.contains(&ShardId(i)) {
                    set.push(ShardId(i));
                }
            }
        }
    }
    set.sort_unstable();
    set
}

/// An O(1)-per-draw sampler over arbitrary positive weights, built with
/// Vose's alias method — the crate-private `zipf_cdf` cached-CDF sampler generalized
/// from shard counts (dozens) to account universes (millions).
///
/// The CDF sampler pays `O(log n)` per draw and stays exact; the alias
/// table pays `O(n)` once at build time and then a single uniform from
/// the ChaCha stream per draw: the uniform is scaled by `n`, its integer
/// part picks a column, and its fractional part chooses between the
/// column's own index and its alias — both read from the one 8-byte
/// column, so a draw costs one cache miss.
///
/// A column is one `u64`. Let `b` be the bits that hold `n − 1` and
/// `F = min(63 − b, 52)`: a column keeps its alias in its low `b` bits
/// and `P = ⌈prob·2^F⌉` (at most `2^F`, so `F + 1` bits) above them, and
/// a pick keeps its column when `frac < P·2^−F`. That is the exact test
/// `frac < prob` for every uniform a column can see. A uniform is
/// `m·2^−53`, so `scaled = u·n` is a float in `[col, col + 1)` whose last
/// bit is worth at least `2^(⌊log₂ col⌋ − 52)`, and `frac = scaled − col`
/// is exact and a multiple of that bit: for `col ≥ 2^(52−F)` it is some
/// `j·2^−F`, and `j·2^−F < prob ⟺ j < ⌈prob·2^F⌉`. The first `2^(52−F)`
/// columns, whose fractions are finer, keep their exact `(f64, u32)` in
/// a small head as well: 1 024 columns at two million accounts, column 0
/// alone up to 2 048.
///
/// The build works in place over the one `u64` a column: a pending
/// column holds its scaled weight's `f64` bits and is aliased to itself,
/// and it is packed once its share is final — when Vose's method pops it
/// as small, or when it is left over with unit mass. Beside the columns
/// live only the head and Vose's two `u32` stacks, each sized exactly by
/// a counting pass (neither grows: a step pops a small column before it
/// pushes one), so [`AliasTable::zipf`] peaks at `12n` bytes plus the
/// head and keeps `8n` plus the head (`peak_live_mb` counts set-up).
/// Per-index probability masses are preserved up to float rounding and
/// the `2^−F` quantum — see [`AliasTable::masses`], which the property
/// tests reconcile against the CDF oracle.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// One packed column an index: `P << alias_bits | alias`.
    cols: Box<[u64]>,
    /// The first `2^(52−F)` columns, exactly as Vose's method leaves them.
    head: Box<[Column]>,
    /// `b`: the low bits of a column that hold its alias.
    alias_bits: u32,
    /// `2^F`: the units a packed threshold `P` counts in.
    units: f64,
}

/// One exact head column: what [`AliasTable::pick`] reads, side by side.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Column {
    /// Acceptance threshold for the column's own index.
    prob: f64,
    /// Fallback index receiving the column's residual mass.
    alias: u32,
}

// `peak_live_mb` is held to the byte: a head column is its 8 + 4 bytes,
// with no padding.
const _: () = assert!(std::mem::size_of::<Column>() == 12);

impl AliasTable {
    /// Builds the table from raw (unnormalized) positive weights.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is empty, longer than `u32::MAX`, or its sum
    /// is not strictly positive and finite.
    pub fn new(weights: &[f64]) -> AliasTable {
        AliasTable::from_weights(weights.iter().copied())
    }

    /// Builds the Zipf law `P(i) ∝ 1/(i+1)^exponent` over `n` indices,
    /// computing each weight straight into its column.
    pub fn zipf(n: usize, exponent: f64) -> AliasTable {
        AliasTable::from_weights((0..n).map(|i| 1.0 / ((i + 1) as f64).powf(exponent)))
    }

    /// Vose's method over `weights`, in place (see the type's docs).
    fn from_weights(weights: impl ExactSizeIterator<Item = f64>) -> AliasTable {
        let n = weights.len();
        assert!(n > 0, "alias table over an empty universe");
        assert!(n <= u32::MAX as usize, "universe exceeds u32");
        let cols: Box<[u64]> = weights.map(f64::to_bits).collect();
        let total: f64 = cols.iter().map(|&c| f64::from_bits(c)).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        let alias_bits = u64::BITS - (n as u64 - 1).leading_zeros();
        let frac_bits = (63 - alias_bits).min(52);
        let head = Column {
            prob: 0.0,
            alias: 0,
        };
        let mut table = AliasTable {
            cols,
            head: vec![head; n.min(1 << (52 - frac_bits))].into_boxed_slice(),
            alias_bits,
            units: (1u64 << frac_bits) as f64,
        };
        // Scale every weight to mean 1, then repeatedly pair an under-full
        // column with an over-full one so every column holds exactly unit
        // mass split between its own index and one alias.
        let scale = n as f64 / total;
        let mut smalls = 0;
        for c in table.cols.iter_mut() {
            let prob = f64::from_bits(*c) * scale;
            smalls += usize::from(prob < 1.0);
            *c = prob.to_bits();
        }
        let mut small: Vec<u32> = Vec::with_capacity(smalls);
        let mut large: Vec<u32> = Vec::with_capacity(n - smalls);
        for (i, &c) in (0..n as u32).zip(table.cols.iter()) {
            if f64::from_bits(c) < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let pending = |table: &AliasTable, i: u32| f64::from_bits(table.cols[i as usize]);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let prob = pending(&table, s);
            table.settle(s, prob, l);
            // The large column donates what the small one lacks.
            let left = pending(&table, l) - (1.0 - prob);
            table.cols[l as usize] = left.to_bits();
            if left < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Float rounding can strand residents of either stack; they hold
        // (numerically) unit mass, so they alias to themselves.
        for &i in small.iter().chain(&large) {
            table.settle(i, 1.0, i);
        }
        table
    }

    /// Packs column `i`, whose share is final, and keeps it exactly too
    /// when it lies in the head.
    fn settle(&mut self, i: u32, prob: f64, alias: u32) {
        // `⌈prob·2^F⌉` without a call to `ceil`: `prob·2^F ≤ 2^52` is
        // exact, and so is its integer part.
        let scaled = prob * self.units;
        let whole = scaled as i64;
        let threshold = (whole + i64::from(whole as f64 != scaled)) as u64;
        self.cols[i as usize] = threshold << self.alias_bits | u64::from(alias);
        if let Some(c) = self.head.get_mut(i as usize) {
            *c = Column { prob, alias };
        }
    }

    /// Column `col`'s acceptance threshold in units of `2^−F` and its
    /// alias: `prob·2^F` in the head, `P` beyond it. Scaling by a power
    /// of two is exact, so a pick may compare `frac·2^F` with it.
    #[inline]
    fn column(&self, col: usize) -> (f64, usize) {
        match self.head.get(col) {
            Some(c) => (c.prob * self.units, c.alias as usize),
            None => {
                let c = self.cols[col];
                let alias = c & ((1 << self.alias_bits) - 1);
                // `P ≤ 2^52` converts exactly through the signed type.
                ((c >> self.alias_bits) as i64 as f64, alias as usize)
            }
        }
    }

    /// Number of indices in the sampled universe.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the table is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Draws one index, consuming exactly one uniform from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.pick(rng.gen())
    }

    /// The index a uniform `u` in `[0, 1)` resolves to: what
    /// [`sample`](Self::sample) returns after drawing `u`. Reads one
    /// column, so a caller holding several uniforms can resolve them with
    /// their cache misses overlapped.
    #[inline]
    pub fn pick(&self, u: f64) -> usize {
        let n = self.cols.len();
        let scaled = u * n as f64;
        let col = (scaled as usize).min(n - 1);
        let (threshold, alias) = self.column(col);
        let frac = (scaled - col as f64) * self.units;
        // A select, not a branch: the outcome is a coin flip, and a
        // mispredict would discard the column loads queued behind it.
        std::hint::select_unpredictable(frac < threshold, col, alias)
    }

    /// Reconstructs the per-index probability mass the table realizes:
    /// column `i` contributes `prob[i]/n` to index `i` and `(1−prob[i])/n`
    /// to `alias[i]`, with `prob[i] = P·2^−F` beyond the head. Used by
    /// tests to reconcile the table against the pre-materialized CDF
    /// oracle.
    pub fn masses(&self) -> Vec<f64> {
        let n = self.cols.len();
        let mut mass = vec![0.0; n];
        for i in 0..n {
            let (threshold, a) = self.column(i);
            let p = threshold / self.units;
            mass[i] += p / n as f64;
            mass[a] += (1.0 - p) / n as f64;
        }
        mass
    }
}

/// Uniformly random non-empty shard set of size `1..=k_max`.
pub(crate) fn random_shard_set(cfg: &SystemConfig, rng: &mut Rng) -> Proposal {
    let width = rng.gen_range(1..=cfg.k_max);
    let mut all: Vec<u32> = (0..cfg.shards as u32).collect();
    let (chosen, _) = all.partial_shuffle(rng, width);
    let mut set: Vec<ShardId> = chosen.iter().map(|&i| ShardId(i)).collect();
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::rngutil::seeded_rng;

    #[test]
    fn strategy_display_roundtrips_through_from_str() {
        for kind in [
            StrategyKind::UniformRandom,
            StrategyKind::SingleBurst { burst_round: 7 },
            StrategyKind::PairwiseConflict,
            StrategyKind::HotShard,
            StrategyKind::BurstTrain { period: 100 },
            StrategyKind::CountBurst {
                burst_round: 250,
                count: 1000,
            },
            StrategyKind::Zipf { exponent: 1.2 },
        ] {
            let spelled = kind.to_string();
            assert_eq!(spelled.parse::<StrategyKind>().unwrap(), kind, "{spelled}");
        }
    }

    #[test]
    fn strategy_from_str_rejects_malformed() {
        for bad in [
            "",
            "wat",
            "single-burst",
            "count-burst:5",
            "zipf:fast",
            "uniform:1",
        ] {
            assert!(bad.parse::<StrategyKind>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn alias_table_masses_match_cdf_oracle() {
        // The alias table must realize exactly the distribution the
        // pre-materialized CDF sampler realizes: per-index mass equals
        // the successive CDF differences.
        for (n, a) in [(1usize, 1.0), (7, 0.0), (64, 0.8), (257, 1.4)] {
            let table = AliasTable::zipf(n, a);
            let cdf = zipf_cdf(n, a);
            let masses = table.masses();
            assert_eq!(masses.len(), n);
            let mut prev = 0.0;
            for (i, (&m, &c)) in masses.iter().zip(cdf.iter()).enumerate() {
                let oracle = c - prev;
                prev = c;
                assert!(
                    (m - oracle).abs() < 1e-9,
                    "index {i} of {n}: alias mass {m} vs CDF mass {oracle}"
                );
            }
        }
    }

    /// Vose's method as it was written over a separate weight vector and
    /// two parallel arrays: sum the weights in index order, then scale
    /// each into its column. Every column as `(prob bits, alias)`.
    fn weight_vector_oracle(weights: &[f64]) -> Vec<(u64, u32)> {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let scale = n as f64 / total;
        let mut mass: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut fallback: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|&i| mass[i as usize] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            fallback[s as usize] = l;
            mass[l as usize] -= 1.0 - mass[s as usize];
            if mass[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            mass[i as usize] = 1.0;
        }
        mass.iter().map(|p| p.to_bits()).zip(fallback).collect()
    }

    /// The head length and `F` of a table over `n` indices, as the type's
    /// docs define them.
    fn layout(n: usize) -> (usize, u32) {
        let bits = u64::BITS - (n as u64 - 1).leading_zeros();
        let frac_bits = (63 - bits).min(52);
        (n.min(1 << (52 - frac_bits)), frac_bits)
    }

    /// A table as its head's `(prob bits, alias)` and every later column's
    /// decoded `(P, alias)`.
    type Decoded = (Vec<(u64, u32)>, Vec<(u64, u32)>);

    fn decoded(table: &AliasTable) -> Decoded {
        let (head, frac_bits) = layout(table.len());
        assert_eq!(table.head.len(), head);
        assert_eq!(table.units, (1u64 << frac_bits) as f64);
        let mask = (1u64 << table.alias_bits) - 1;
        (
            table
                .head
                .iter()
                .map(|c| ({ c.prob }.to_bits(), c.alias))
                .collect(),
            table.cols[head..]
                .iter()
                .map(|&c| (c >> table.alias_bits, (c & mask) as u32))
                .collect(),
        )
    }

    /// What a table must decode to whose exact columns are `oracle`'s: the
    /// head verbatim, `P = ⌈prob·2^F⌉` beyond it.
    fn packed(oracle: &[(u64, u32)]) -> Decoded {
        let (head, frac_bits) = layout(oracle.len());
        let scale = (1u64 << frac_bits) as f64;
        let threshold = |p: u64| (f64::from_bits(p) * scale).ceil() as u64;
        (
            oracle[..head].to_vec(),
            oracle[head..]
                .iter()
                .map(|&(p, a)| (threshold(p), a))
                .collect(),
        )
    }

    #[test]
    fn the_in_place_zipf_build_is_bit_identical_to_the_weight_vector_build() {
        for (n, a) in [
            (1usize, 1.0),
            (7, 0.0),
            (64, 0.8),
            (257, 1.4),
            (100_000, 0.6),
        ] {
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(a)).collect();
            let table = decoded(&AliasTable::zipf(n, a));
            assert!(
                table == decoded(&AliasTable::new(&weights)),
                "n = {n}, a = {a}"
            );
            assert!(
                table == packed(&weight_vector_oracle(&weights)),
                "n = {n}, a = {a}"
            );
        }
        // Summed in reverse, these weights would total 1.25 + 2⁻⁵², not
        // 1.25, and column 0, a head column, would keep another `prob`.
        let tiny = f64::EPSILON / 2.0;
        let weights = [0.25, 1.0, tiny, tiny];
        assert_eq!(
            decoded(&AliasTable::new(&weights)),
            packed(&weight_vector_oracle(&weights))
        );
    }

    /// A packed pick is the exact pick wherever the exact test
    /// `frac < prob` can flip: for every head column and ten thousand
    /// sampled later ones, at the column's first uniform and on both
    /// sides of the first uniform the test rejects, found by bisection
    /// over the 53-bit uniforms `m·2^−53`; and at both ends of `[0, 1)`.
    #[test]
    fn packed_picks_equal_the_exact_picks_at_every_threshold() {
        const M: u64 = 1 << 53;
        let uniform = |m: u64| m as f64 / M as f64;
        /// The first `m` in `lo..hi` where `holds`, true up to it, fails.
        fn first_failing(mut lo: u64, mut hi: u64, holds: impl Fn(u64) -> bool) -> u64 {
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if holds(mid) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        }
        for n in [
            1usize,
            7,
            64,
            1024,
            1025,
            1_200_000,
            2_000_000,
            1 << 21,
            (1 << 21) + 1,
        ] {
            let (head, _) = layout(n);
            let mut rng = seeded_rng(n as u64);
            let cols: Vec<usize> = if n - head <= 10_000 {
                (0..n).collect()
            } else {
                (0..=head)
                    .chain([n - 1])
                    .chain((0..10_000).map(|_| rng.gen_range(head..n)))
                    .collect()
            };
            for a in [0.0, 0.6, 0.8, 1.5] {
                let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(a)).collect();
                let oracle = weight_vector_oracle(&weights);
                drop(weights);
                let table = AliasTable::zipf(n, a);
                let scaled = |m: u64| uniform(m) * n as f64;
                let col_of = |m: u64| (scaled(m) as usize).min(n - 1);
                let keeps = |m: u64| {
                    let col = col_of(m);
                    scaled(m) - (col as f64) < f64::from_bits(oracle[col].0)
                };
                let exact = |m: u64| {
                    let col = col_of(m);
                    if keeps(m) {
                        col
                    } else {
                        oracle[col].1 as usize
                    }
                };
                let check = |m: u64| {
                    assert_eq!(
                        table.pick(uniform(m)),
                        exact(m),
                        "n = {n}, a = {a}, m = {m}"
                    );
                };
                check(0);
                check(M - 1);
                for &c in &cols {
                    let start = first_failing(0, M, |m| col_of(m) < c);
                    let end = first_failing(start, M, |m| col_of(m) <= c);
                    let flip = first_failing(start, end, keeps);
                    check(start);
                    for m in [flip.saturating_sub(1), flip, flip + 1] {
                        if m < M {
                            check(m);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn alias_table_draws_are_seed_deterministic_and_in_bounds() {
        let table = AliasTable::zipf(1000, 0.9);
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for _ in 0..2000 {
            let x = table.sample(&mut a);
            assert_eq!(x, table.sample(&mut b), "same seed, same draw");
            assert!(x < 1000);
        }
        assert_eq!(table.len(), 1000);
        assert!(!table.is_empty());
    }

    #[test]
    fn pick_resolves_a_uniform_exactly_as_sample_draws_it() {
        let table = AliasTable::zipf(1000, 0.9);
        let (mut a, mut b) = (seeded_rng(17), seeded_rng(17));
        for _ in 0..5000 {
            assert_eq!(table.sample(&mut a), table.pick(b.gen()));
        }
        // Both ends of `[0, 1)` land in range.
        for u in [0.0, 1.0 - f64::EPSILON] {
            assert!(table.pick(u) < table.len(), "u = {u}");
        }
    }

    #[test]
    fn alias_table_skew_prefers_head_ranks() {
        let table = AliasTable::zipf(100, 1.2);
        let mut rng = seeded_rng(5);
        let mut head = 0u32;
        for _ in 0..4000 {
            if table.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Zipf(1.2) puts ~66% of its mass on the top 10 of 100 ranks.
        assert!(head > 2000, "head ranks drew only {head}/4000");
    }

    #[test]
    fn pairwise_group_every_pair_shares_unique_shard() {
        for p in 1..=6 {
            let group = pairwise_group(p);
            assert_eq!(group.len(), p + 1);
            for t in &group {
                assert_eq!(t.len(), p, "each txn accesses p shards");
            }
            // Every pair shares exactly one shard; that shard is unique to
            // the pair.
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let shared: Vec<_> = group[i].iter().filter(|s| group[j].contains(s)).collect();
                    assert_eq!(shared.len(), 1, "pair ({i},{j}) shares exactly one shard");
                    assert!(
                        seen.insert(*shared[0]),
                        "shared shard is unique to the pair"
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_p_respects_k_and_s() {
        let cfg = SystemConfig {
            shards: 64,
            k_max: 8,
            ..SystemConfig::paper_simulation()
        };
        assert_eq!(pairwise_p(&cfg), 8);
        let cfg = SystemConfig {
            shards: 6,
            k_max: 8,
            accounts: 6,
            ..SystemConfig::tiny()
        };
        // max p with p(p+1)/2 <= 6 is 3.
        assert_eq!(pairwise_p(&cfg), 3);
    }

    #[test]
    fn steady_rate_paces_to_rho() {
        let cfg = SystemConfig::paper_simulation();
        let mut prop = Proposer::new(StrategyKind::UniformRandom);
        let mut rng = seeded_rng(1);
        let rho = 0.1;
        let rounds = 2000;
        let mut total_congestion = 0usize;
        for r in 0..rounds {
            for p in prop.propose(&cfg, rho, 1, Round(r), &mut rng) {
                total_congestion += p.len();
            }
        }
        let per_shard = total_congestion as f64 / cfg.shards as f64 / rounds as f64;
        assert!(
            (per_shard - rho).abs() < 0.02,
            "expected per-shard congestion ≈ {rho}, got {per_shard}"
        );
    }

    #[test]
    fn shard_sets_are_sorted_unique_and_bounded() {
        let cfg = SystemConfig::paper_simulation();
        let mut rng = seeded_rng(2);
        for _ in 0..200 {
            let set = random_shard_set(&cfg, &mut rng);
            assert!(!set.is_empty() && set.len() <= cfg.k_max);
            assert!(set.windows(2).all(|w| w[0] < w[1]));
            assert!(set.iter().all(|s| s.index() < cfg.shards));
        }
    }

    #[test]
    fn hot_shard_always_touches_shard_zero() {
        let cfg = SystemConfig::paper_simulation();
        let mut prop = Proposer::new(StrategyKind::HotShard);
        let mut rng = seeded_rng(3);
        let mut any = false;
        for r in 0..100 {
            for p in prop.propose(&cfg, 0.2, 1, Round(r), &mut rng) {
                assert!(p.contains(&ShardId(0)));
                any = true;
            }
        }
        assert!(any, "some proposals generated");
    }

    #[test]
    fn single_burst_fires_once() {
        let cfg = SystemConfig {
            shards: 4,
            accounts: 4,
            k_max: 2,
            ..SystemConfig::tiny()
        };
        let mut prop = Proposer::new(StrategyKind::SingleBurst { burst_round: 5 });
        let mut rng = seeded_rng(4);
        let mut sizes = Vec::new();
        for r in 0..10 {
            sizes.push(prop.propose(&cfg, 0.05, 3, Round(r), &mut rng).len());
        }
        let burst = sizes[5];
        let max_other = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, &s)| s)
            .max()
            .unwrap();
        assert!(
            burst > max_other + 5,
            "burst round proposes much more: {sizes:?}"
        );
    }
}
