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
/// table pays `O(n)` once at build time (one packed 12-byte column per
/// entry) and then a single uniform from the ChaCha stream per draw: the
/// uniform is scaled by `n`, its integer part picks a column, and its
/// fractional part chooses between the column's own index and its alias
/// — both read from the one column, so a draw costs one cache miss.
/// The build works in place: each column starts as its raw weight
/// aliased to itself, so [`AliasTable::zipf`] holds no 8-byte weight
/// per index beside its columns (`peak_live_mb` counts set-up), and
/// only the two `u32` work stacks of Vose's method are transient.
/// Per-index probability masses are preserved exactly (up to float
/// rounding) — see [`AliasTable::masses`], which the property tests
/// reconcile against the CDF oracle.
#[derive(Debug, Clone)]
pub struct AliasTable {
    cols: Vec<Column>,
}

/// One alias-table column: what [`AliasTable::pick`] reads, side by side.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Column {
    /// Acceptance threshold for the column's own index.
    prob: f64,
    /// Fallback index receiving the column's residual mass.
    alias: u32,
}

// `peak_live_mb` is held to the byte: a column is its 8 + 4 bytes, with
// no padding.
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

    /// Vose's method over `weights`, in place: each column starts as its
    /// raw weight aliased to itself, so no weight vector is held beside
    /// the columns.
    fn from_weights(weights: impl ExactSizeIterator<Item = f64>) -> AliasTable {
        let n = weights.len();
        assert!(n > 0, "alias table over an empty universe");
        assert!(n <= u32::MAX as usize, "universe exceeds u32");
        let mut cols: Vec<Column> = (0..n as u32)
            .zip(weights)
            .map(|(i, w)| Column { prob: w, alias: i })
            .collect();
        let total: f64 = cols.iter().map(|c| c.prob).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        // Scale every weight to mean 1, then repeatedly pair an under-full
        // column with an over-full one so every column holds exactly unit
        // mass split between its own index and one alias.
        let scale = n as f64 / total;
        for c in &mut cols {
            c.prob *= scale;
        }
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, c) in cols.iter().enumerate() {
            if c.prob < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            cols[s as usize].alias = l;
            // The large column donates what the small one lacks.
            let lacks = 1.0 - cols[s as usize].prob;
            cols[l as usize].prob -= lacks;
            if cols[l as usize].prob < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Float rounding can strand residents of either stack; they hold
        // (numerically) unit mass, so they alias to themselves.
        for &i in small.iter().chain(large.iter()) {
            cols[i as usize].prob = 1.0;
        }
        AliasTable { cols }
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
        let c = self.cols[col];
        // A select, not a branch: the outcome is a coin flip, and a
        // mispredict would discard a batch's later column loads.
        std::hint::select_unpredictable(scaled - (col as f64) < c.prob, col, c.alias as usize)
    }

    /// Reconstructs the exact per-index probability mass the table
    /// realizes: column `i` contributes `prob[i]/n` to index `i` and
    /// `(1−prob[i])/n` to `alias[i]`. Used by tests to reconcile the
    /// table against the pre-materialized CDF oracle.
    pub fn masses(&self) -> Vec<f64> {
        let n = self.cols.len();
        let mut mass = vec![0.0; n];
        for (i, c) in self.cols.iter().enumerate() {
            let (p, a) = (c.prob, c.alias);
            mass[i] += p / n as f64;
            mass[a as usize] += (1.0 - p) / n as f64;
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

    /// Every column as `(prob bits, alias)`.
    fn columns(table: &AliasTable) -> Vec<(u64, u32)> {
        table
            .cols
            .iter()
            .map(|c| ({ c.prob }.to_bits(), c.alias))
            .collect()
    }

    /// Vose's method as it was written over a separate weight vector: sum
    /// the weights in index order, then scale each into its column.
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
            let table = columns(&AliasTable::zipf(n, a));
            assert!(
                table == columns(&AliasTable::new(&weights)),
                "n = {n}, a = {a}"
            );
            assert!(table == weight_vector_oracle(&weights), "n = {n}, a = {a}");
        }
        // Summed in reverse, these weights would total 1 + 2⁻⁵², not 1.
        let tiny = f64::EPSILON / 2.0;
        let weights = [1.0, tiny, tiny];
        assert_eq!(
            columns(&AliasTable::new(&weights)),
            weight_vector_oracle(&weights)
        );
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
