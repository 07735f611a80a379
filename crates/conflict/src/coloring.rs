//! Vertex colorings of the conflict graph.
//!
//! A *proper* coloring assigns conflicting transactions different colors;
//! each color class then commits concurrently in one 4-round group
//! (Algorithm 1, Phase 3). Three algorithms are provided:
//!
//! * [`greedy_by_order`] — first-fit in a caller-supplied order. This is the
//!   "simple greedy coloring" the paper's simulation uses and the one the
//!   Lemma 1/2 analysis assumes (≤ Δ+1 colors).
//! * [`dsatur`] — Brélaz's saturation-degree heuristic; usually fewer colors
//!   at slightly higher cost. Used by the ablation benches.
//! * [`heavy_light`] — the split coloring from Case 2 of Lemmas 1–2: heavy
//!   transactions (accessing more than `⌈√s⌉` shards) each get a unique
//!   color, light ones are greedily colored among themselves.

use crate::graph::ConflictGraph;
use sharding_core::hash::FastMap;
use sharding_core::txn::Transaction;
use sharding_core::AccountId;

/// Which coloring algorithm a scheduler should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringStrategy {
    /// First-fit greedy in transaction-id order (the paper's default).
    #[default]
    Greedy,
    /// DSATUR (saturation-degree) heuristic.
    Dsatur,
    /// Heavy/light split per the Lemma 1/2 Case-2 analysis; the payload is
    /// the heaviness threshold, normally `⌈√s⌉`.
    HeavyLight {
        /// Transactions accessing strictly more shards than this are heavy.
        threshold: usize,
    },
}

impl std::fmt::Display for ColoringStrategy {
    /// Renders the scenario-file spelling; round-trips through
    /// `ColoringStrategy::from_str`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColoringStrategy::Greedy => write!(f, "greedy"),
            ColoringStrategy::Dsatur => write!(f, "dsatur"),
            ColoringStrategy::HeavyLight { threshold } => write!(f, "heavy-light:{threshold}"),
        }
    }
}

impl std::str::FromStr for ColoringStrategy {
    type Err = String;

    /// Parses the scenario-file spelling: `greedy`, `dsatur`,
    /// `heavy-light:T`. The context-dependent `heavy-light` default
    /// (`T = ⌈√s⌉`) is resolved by the scenario layer.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None => match s {
                "greedy" => Ok(ColoringStrategy::Greedy),
                "dsatur" => Ok(ColoringStrategy::Dsatur),
                other => Err(format!(
                    "unknown coloring `{other}` (expected greedy, dsatur, or heavy-light:T)"
                )),
            },
            Some(("heavy-light", t)) => {
                let threshold: usize = t.parse().map_err(|_| format!("`{t}` is not an integer"))?;
                Ok(ColoringStrategy::HeavyLight { threshold })
            }
            Some((other, _)) => Err(format!("coloring `{other}` takes no `:`-argument")),
        }
    }
}

/// A coloring of a [`ConflictGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
    num_colors: u32,
}

impl Coloring {
    /// Color of vertex `v`.
    #[inline]
    pub fn color(&self, v: usize) -> u32 {
        self.colors[v]
    }

    /// All vertex colors, indexed by vertex.
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Number of distinct colors used.
    #[inline]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// Vertices grouped by color: entry `c` lists the vertices of color `c`.
    pub fn classes(&self) -> Vec<Vec<u32>> {
        let mut classes = vec![Vec::new(); self.num_colors as usize];
        for (v, &c) in self.colors.iter().enumerate() {
            classes[c as usize].push(v as u32);
        }
        classes
    }

    /// Verifies the coloring is proper for `graph`.
    pub fn is_proper(&self, graph: &ConflictGraph) -> bool {
        (0..graph.len()).all(|v| {
            graph
                .neighbors(v)
                .iter()
                .all(|&u| self.colors[u as usize] != self.colors[v])
        })
    }
}

/// Applies `strategy` to `graph` (with `txns` available for the heavy/light
/// split, which needs per-transaction shard counts).
pub fn color_with(
    strategy: ColoringStrategy,
    graph: &ConflictGraph,
    txns: &[Transaction],
) -> Coloring {
    match strategy {
        ColoringStrategy::Greedy => {
            let order: Vec<u32> = (0..graph.len() as u32).collect();
            greedy_by_order(graph, &order)
        }
        ColoringStrategy::Dsatur => dsatur(graph),
        ColoringStrategy::HeavyLight { threshold } => heavy_light(graph, txns, threshold),
    }
}

/// First-fit greedy coloring in the given vertex order. Uses at most
/// `Δ+1` colors for any order — the property Lemma 1 relies on.
pub fn greedy_by_order(graph: &ConflictGraph, order: &[u32]) -> Coloring {
    debug_assert_eq!(order.len(), graph.len());
    let n = graph.len();
    const UNSET: u32 = u32::MAX;
    let mut colors = vec![UNSET; n];
    // Scratch marker: forbidden[c] == v means color c is used by a neighbor
    // of the vertex currently being colored (epoch trick avoids clearing).
    let mut forbidden = vec![UNSET; n + 1];
    let mut num_colors = 0u32;
    for (stamp, &v) in order.iter().enumerate() {
        let v = v as usize;
        for &u in graph.neighbors(v) {
            let c = colors[u as usize];
            if c != UNSET {
                forbidden[c as usize] = stamp as u32;
            }
        }
        let mut c = 0u32;
        while forbidden[c as usize] == stamp as u32 {
            c += 1;
        }
        colors[v] = c;
        num_colors = num_colors.max(c + 1);
    }
    Coloring { colors, num_colors }
}

/// Grow-on-demand bitset over colors.
#[derive(Debug, Default, Clone)]
struct ColorSet {
    words: Vec<u64>,
}

impl ColorSet {
    fn insert(&mut self, c: u32) {
        let w = (c / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (c % 64);
    }

    fn or_into(&self, acc: &mut Vec<u64>) {
        if self.words.len() > acc.len() {
            acc.resize(self.words.len(), 0);
        }
        for (a, w) in acc.iter_mut().zip(&self.words) {
            *a |= w;
        }
    }
}

/// Reusable working memory for [`greedy_by_accounts_with`].
///
/// The per-account color sets are arrays indexed by a slot, with an
/// epoch stamp per slot so starting a new batch is O(1): a stale entry
/// is cleared lazily the first time the new batch touches that slot. Up
/// to [`DENSE_LIMIT`] accounts a slot is `AccountId::index()` (account
/// ids in this system are `0..accounts`); past it each batch numbers
/// the accounts it touches `0, 1, …` in first-touch order, so the
/// arrays hold as many slots as the largest batch touched, not every
/// account ever colored. Schedulers keep one scratch per simulation and
/// color every epoch through it; a warm scratch allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct ColoringScratch {
    /// Batch counter; entries whose stamp is older belong to a previous
    /// batch and read as empty.
    stamp: u64,
    /// Per-account stamp of the last batch that touched it.
    stamps: Vec<u64>,
    /// Per-account colors used by earlier writers (current batch).
    writers: Vec<ColorSet>,
    /// Per-account colors used by earlier readers (current batch).
    readers: Vec<ColorSet>,
    /// Forbidden-color accumulator for the transaction being colored.
    forbidden: Vec<u64>,
    /// The current batch's first-touch slots, engaged for universes past
    /// [`DENSE_LIMIT`] and emptied (capacity kept) when a batch starts.
    /// `None` means slots *are* account indices (the dense fast path).
    intern: Option<FastMap<AccountId, u32>>,
}

/// Account-universe size beyond which [`ColoringScratch::with_accounts`]
/// interns a batch's accounts instead of pre-sizing dense arrays. The
/// dense layout costs ~56 bytes per account *per scratch* — and the
/// networked engine holds one scratch per shard — so pre-sizing a
/// million-account firehose universe would cost gigabytes for accounts
/// a coloring batch never touches. Interned mode grows with the largest
/// batch; colorings are identical in both modes (slots are just renamed
/// account identities, and a batch only compares its own).
pub const DENSE_LIMIT: usize = 1 << 19;

impl ColoringScratch {
    /// Creates an empty scratch; it grows to fit the account space on
    /// first use. `with_accounts` pre-sizes it when the count is known.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for accounts `0..accounts` (dense),
    /// or interned batch by batch when the universe exceeds
    /// [`DENSE_LIMIT`] (see its comment for the space argument).
    pub fn with_accounts(accounts: usize) -> Self {
        if accounts > DENSE_LIMIT {
            return ColoringScratch {
                intern: Some(FastMap::default()),
                ..Self::default()
            };
        }
        ColoringScratch {
            stamp: 0,
            stamps: vec![0; accounts],
            writers: vec![ColorSet::default(); accounts],
            readers: vec![ColorSet::default(); accounts],
            forbidden: Vec::new(),
            intern: None,
        }
    }

    /// Grows the per-account arrays to cover index `idx`.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.stamps.len() {
            self.stamps.resize(idx + 1, 0);
            self.writers.resize(idx + 1, ColorSet::default());
            self.readers.resize(idx + 1, ColorSet::default());
        }
    }

    /// Slot of `account`: its index in dense mode, else its first-touch
    /// number in the current batch. A slot an earlier batch used keeps
    /// that batch's stamp, so its first touch now clears it.
    fn slot(&mut self, account: AccountId) -> usize {
        let Some(map) = &mut self.intern else {
            self.ensure(account.index());
            return account.index();
        };
        let next = map.len() as u32;
        let slot = *map.entry(account).or_insert(next) as usize;
        self.ensure(slot);
        slot
    }
}

/// First-fit greedy coloring computed directly from the transactions'
/// access sets, without materializing the conflict graph.
///
/// Produces *exactly* the same coloring as [`greedy_by_order`] on
/// [`ConflictGraph::build`]`(txns)` in index order (first-fit only needs
/// each vertex's forbidden-color set, which equals the union of colors
/// used by earlier writers of any touched account plus earlier readers of
/// any written account). Crucially it avoids the `O(m²)` edge blow-up of
/// per-account cliques, which matters for unstable runs where epoch
/// batches reach tens of thousands of mutually conflicting transactions.
pub fn greedy_by_accounts(txns: &[Transaction]) -> Coloring {
    greedy_by_accounts_with(txns, &mut ColoringScratch::new())
}

/// [`greedy_by_accounts`] against caller-owned working memory — the
/// scheduler hot path. The result is identical; only allocations differ.
pub fn greedy_by_accounts_with(txns: &[Transaction], scratch: &mut ColoringScratch) -> Coloring {
    use sharding_core::txn::AccessKind;

    scratch.stamp += 1;
    let stamp = scratch.stamp;
    if let Some(map) = &mut scratch.intern {
        map.clear();
    }
    let mut colors = Vec::with_capacity(txns.len());
    let mut num_colors = 0u32;
    for t in txns {
        scratch.forbidden.clear();
        let accesses = t.accesses();
        for a in accesses.iter() {
            let idx = scratch.slot(a.account);
            if scratch.stamps[idx] == stamp {
                // Anyone conflicts with earlier writers; a writer also
                // conflicts with earlier readers.
                scratch.writers[idx].or_into(&mut scratch.forbidden);
                if a.kind == AccessKind::Write {
                    scratch.readers[idx].or_into(&mut scratch.forbidden);
                }
            }
        }
        // Smallest color absent from `forbidden`.
        let mut c = 0u32;
        'search: for (w, &word) in scratch.forbidden.iter().enumerate() {
            if word != u64::MAX {
                c = w as u32 * 64 + (!word).trailing_zeros();
                break 'search;
            }
            c = (w as u32 + 1) * 64;
        }
        colors.push(c);
        num_colors = num_colors.max(c + 1);
        for a in accesses {
            let idx = scratch.slot(a.account);
            if scratch.stamps[idx] != stamp {
                scratch.stamps[idx] = stamp;
                scratch.writers[idx].words.clear();
                scratch.readers[idx].words.clear();
            }
            match a.kind {
                AccessKind::Write => scratch.writers[idx].insert(c),
                AccessKind::Read => scratch.readers[idx].insert(c),
            }
        }
    }
    Coloring { colors, num_colors }
}

/// Colors a transaction batch with `strategy`, choosing the edge-free
/// greedy path when possible (the scheduler hot path).
pub fn color_transactions(strategy: ColoringStrategy, txns: &[Transaction]) -> Coloring {
    color_transactions_with(strategy, txns, &mut ColoringScratch::new())
}

/// [`color_transactions`] against caller-owned working memory; the
/// greedy path reuses `scratch` across batches, the others ignore it
/// (they materialize the graph anyway).
pub fn color_transactions_with(
    strategy: ColoringStrategy,
    txns: &[Transaction],
    scratch: &mut ColoringScratch,
) -> Coloring {
    match strategy {
        ColoringStrategy::Greedy => greedy_by_accounts_with(txns, scratch),
        other => {
            let graph = crate::graph::ConflictGraph::build(txns);
            color_with(other, &graph, txns)
        }
    }
}

/// DSATUR: repeatedly color the uncolored vertex with the largest number of
/// distinct neighbor colors (ties broken by degree, then index).
pub fn dsatur(graph: &ConflictGraph) -> Coloring {
    let n = graph.len();
    if n == 0 {
        return Coloring {
            colors: Vec::new(),
            num_colors: 0,
        };
    }
    const UNSET: u32 = u32::MAX;
    let mut colors = vec![UNSET; n];
    // Saturation sets as bitsets over colors (colors ≤ Δ+1 ≤ n).
    let words = n / 64 + 1;
    let mut sat: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let mut sat_deg = vec![0u32; n];
    let mut num_colors = 0u32;

    for _ in 0..n {
        // Pick the uncolored vertex with max (saturation, degree, -index).
        let mut best: Option<usize> = None;
        for v in 0..n {
            if colors[v] != UNSET {
                continue;
            }
            best = Some(match best {
                None => v,
                Some(b) => {
                    let key_v = (sat_deg[v], graph.degree(v));
                    let key_b = (sat_deg[b], graph.degree(b));
                    if key_v > key_b {
                        v
                    } else {
                        b
                    }
                }
            });
        }
        let v = best.expect("an uncolored vertex exists");
        // Smallest color absent from v's saturation set.
        let mut c = 0u32;
        while sat[v][(c / 64) as usize] >> (c % 64) & 1 == 1 {
            c += 1;
        }
        colors[v] = c;
        num_colors = num_colors.max(c + 1);
        for &u in graph.neighbors(v) {
            let u = u as usize;
            if colors[u] != UNSET {
                continue;
            }
            let w = (c / 64) as usize;
            let bit = 1u64 << (c % 64);
            if sat[u][w] & bit == 0 {
                sat[u][w] |= bit;
                sat_deg[u] += 1;
            }
        }
    }
    Coloring { colors, num_colors }
}

/// The Case-2 split coloring of Lemmas 1–2: every *heavy* transaction
/// (strictly more than `threshold` destination shards) receives a unique
/// color; *light* transactions are greedily colored among themselves using
/// a disjoint color range. Total colors ≤ `#heavy + Δ_light + 1`, matching
/// the `ζ = ζ₁ + ζ₂` budget in the proofs.
pub fn heavy_light(graph: &ConflictGraph, txns: &[Transaction], threshold: usize) -> Coloring {
    assert_eq!(graph.len(), txns.len());
    let n = txns.len();
    const UNSET: u32 = u32::MAX;
    let mut colors = vec![UNSET; n];
    let mut next = 0u32;
    // Heavy transactions: unique colors 0..h.
    for (v, t) in txns.iter().enumerate() {
        if t.shard_count() > threshold {
            colors[v] = next;
            next += 1;
        }
    }
    // Light transactions: greedy first-fit over colors >= h, ignoring
    // heavy neighbors (their colors are unique, so a light txn can never
    // clash with them in the >= h range).
    let base = next;
    let light: Vec<u32> = (0..n as u32)
        .filter(|&v| colors[v as usize] == UNSET)
        .collect();
    let mut num_colors = base;
    let mut forbidden: Vec<u32> = vec![UNSET; n + 1];
    for (stamp, &v) in light.iter().enumerate() {
        let v = v as usize;
        for &u in graph.neighbors(v) {
            let c = colors[u as usize];
            if c != UNSET && c >= base {
                forbidden[(c - base) as usize] = stamp as u32;
            }
        }
        let mut c = 0u32;
        while forbidden[c as usize] == stamp as u32 {
            c += 1;
        }
        colors[v] = base + c;
        num_colors = num_colors.max(base + c + 1);
    }
    Coloring { colors, num_colors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sharding_core::config::{AccountMap, SystemConfig};
    use sharding_core::ids::{Round, ShardId, TxnId};
    use sharding_core::rngutil::seeded_rng;
    use sharding_core::txn::Transaction;

    #[test]
    fn interned_scratch_colors_identically_to_dense() {
        // The firehose path hands `with_accounts` universes past
        // DENSE_LIMIT. Batch after batch, the interned scratch must give
        // the dense scratch's colorings and a fresh scratch's, with reads
        // and writes mixed: on batches that share half their accounts
        // with the batch before (those accounts get new slots) and on
        // batches of fresh accounts (whose slots an earlier batch used,
        // and whose stale colors must not leak).
        use sharding_core::txn::TxnBuilder;
        use sharding_core::AccountId;
        let sys = SystemConfig {
            shards: 8,
            accounts: 4096,
            k_max: 8,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        let mut dense = ColoringScratch::with_accounts(sys.accounts);
        let mut interned = ColoringScratch::with_accounts(DENSE_LIMIT + 1);
        assert!(interned.intern.is_some() && dense.intern.is_none());
        let mut rng = seeded_rng(31);
        let mut base = 0u64;
        for batch_no in 0..40u64 {
            // Each batch draws from 24 ids: an odd batch's window
            // overlaps the previous one by 12, an even batch's is new.
            base += if batch_no % 2 == 1 { 12 } else { 48 };
            let txns: Vec<Transaction> = (0..20)
                .map(|i| {
                    let id = TxnId(batch_no * 100 + i);
                    let mut b = TxnBuilder::new(id, ShardId(0), Round(batch_no), &map);
                    for _ in 0..rng.gen_range(1..=4) {
                        let a = AccountId(base + rng.gen_range(0..24u64));
                        b = if rng.gen_bool(0.5) {
                            b.check(a, 0)
                        } else {
                            b.update(a, 1)
                        };
                    }
                    b.build().unwrap()
                })
                .collect();
            let d = greedy_by_accounts_with(&txns, &mut dense);
            let s = greedy_by_accounts_with(&txns, &mut interned);
            assert_eq!(s, d, "batch {batch_no}: interned against dense");
            assert_eq!(
                s,
                greedy_by_accounts(&txns),
                "batch {batch_no}: against fresh"
            );
        }
    }

    #[test]
    fn coloring_strategy_roundtrips_through_from_str() {
        for strategy in [
            ColoringStrategy::Greedy,
            ColoringStrategy::Dsatur,
            ColoringStrategy::HeavyLight { threshold: 8 },
        ] {
            let spelled = strategy.to_string();
            assert_eq!(
                spelled.parse::<ColoringStrategy>().unwrap(),
                strategy,
                "{spelled}"
            );
        }
        for bad in ["", "rainbow", "heavy-light", "heavy-light:x", "greedy:1"] {
            assert!(
                bad.parse::<ColoringStrategy>().is_err(),
                "{bad:?} should fail"
            );
        }
    }

    fn random_graph(n: usize, p: f64, seed: u64) -> ConflictGraph {
        let mut rng = seeded_rng(seed);
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((i, j));
                }
            }
        }
        ConflictGraph::from_edges(n, &edges)
    }

    #[test]
    fn greedy_is_proper_and_within_delta_plus_one() {
        for seed in 0..8 {
            let g = random_graph(60, 0.2, seed);
            let order: Vec<u32> = (0..g.len() as u32).collect();
            let c = greedy_by_order(&g, &order);
            assert!(c.is_proper(&g), "seed {seed}");
            assert!(
                c.num_colors() as usize <= g.max_degree() + 1,
                "seed {seed}: {} colors > Δ+1 = {}",
                c.num_colors(),
                g.max_degree() + 1
            );
        }
    }

    #[test]
    fn greedy_on_empty_graph() {
        let g = ConflictGraph::from_edges(0, &[]);
        let c = greedy_by_order(&g, &[]);
        assert_eq!(c.num_colors(), 0);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn greedy_on_independent_set_uses_one_color() {
        let g = ConflictGraph::from_edges(10, &[]);
        let order: Vec<u32> = (0..10).collect();
        let c = greedy_by_order(&g, &order);
        assert_eq!(c.num_colors(), 1);
    }

    #[test]
    fn greedy_on_clique_uses_n_colors() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = ConflictGraph::from_edges(6, &edges);
        let order: Vec<u32> = (0..6).collect();
        let c = greedy_by_order(&g, &order);
        assert_eq!(c.num_colors(), 6);
    }

    #[test]
    fn dsatur_proper_and_no_worse_than_greedy_on_crown() {
        // Crown graphs are the classic case where id-order greedy does badly
        // (n/2 colors) but DSATUR is optimal (2 colors).
        // Crown S_k^0: vertices u_i, w_i; u_i ~ w_j iff i != j. Order
        // u0,w0,u1,w1,... makes first-fit use k colors.
        let k = 6;
        let mut edges = Vec::new();
        for i in 0..k as u32 {
            for j in 0..k as u32 {
                if i != j {
                    edges.push((2 * i, 2 * j + 1));
                }
            }
        }
        let g = ConflictGraph::from_edges(2 * k, &edges);
        let c = dsatur(&g);
        assert!(c.is_proper(&g));
        assert_eq!(c.num_colors(), 2, "crown graph is bipartite");
        let order: Vec<u32> = (0..2 * k as u32).collect();
        let greedy = greedy_by_order(&g, &order);
        assert!(greedy.num_colors() > c.num_colors());
    }

    #[test]
    fn dsatur_proper_on_random_graphs() {
        for seed in 0..8 {
            let g = random_graph(50, 0.3, seed + 100);
            let c = dsatur(&g);
            assert!(c.is_proper(&g), "seed {seed}");
            assert!(c.num_colors() as usize <= g.max_degree() + 1);
        }
    }

    fn mixed_txns(seed: u64, n: usize, s: usize) -> (Vec<Transaction>, usize) {
        let cfg = SystemConfig {
            shards: s,
            accounts: s,
            k_max: s,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&cfg);
        let mut rng = seeded_rng(seed);
        let threshold = sharding_core::bounds::ceil_sqrt(s);
        let txns = (0..n as u64)
            .map(|i| {
                let width = if rng.gen_bool(0.3) {
                    rng.gen_range(threshold + 1..=s.min(2 * threshold + 1))
                } else {
                    rng.gen_range(1..=threshold)
                };
                let mut shards: Vec<ShardId> = Vec::new();
                while shards.len() < width {
                    let cand = ShardId(rng.gen_range(0..s as u32));
                    if !shards.contains(&cand) {
                        shards.push(cand);
                    }
                }
                Transaction::writing_shards(TxnId(i), ShardId(0), Round::ZERO, &map, &shards)
                    .unwrap()
            })
            .collect();
        (txns, threshold)
    }

    #[test]
    fn heavy_light_proper_and_heavies_unique() {
        for seed in 0..6 {
            let (txns, threshold) = mixed_txns(seed, 40, 16);
            let g = ConflictGraph::build(&txns);
            let c = heavy_light(&g, &txns, threshold);
            assert!(c.is_proper(&g), "seed {seed}");
            // Heavy txns must have pairwise distinct colors.
            let heavy_colors: Vec<u32> = txns
                .iter()
                .enumerate()
                .filter(|(_, t)| t.shard_count() > threshold)
                .map(|(v, _)| c.color(v))
                .collect();
            let mut sorted = heavy_colors.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), heavy_colors.len(), "heavy colors unique");
        }
    }

    #[test]
    fn classes_partition_vertices() {
        let g = random_graph(30, 0.25, 5);
        let c = dsatur(&g);
        let classes = c.classes();
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, g.len());
        for (color, class) in classes.iter().enumerate() {
            for &v in class {
                assert_eq!(c.color(v as usize), color as u32);
            }
        }
    }

    #[test]
    fn greedy_by_accounts_equals_graph_greedy() {
        for seed in 0..10 {
            let (txns, _) = mixed_txns(seed + 50, 60, 16);
            let g = ConflictGraph::build(&txns);
            let order: Vec<u32> = (0..txns.len() as u32).collect();
            let via_graph = greedy_by_order(&g, &order);
            let via_accounts = greedy_by_accounts(&txns);
            assert_eq!(via_graph.colors(), via_accounts.colors(), "seed {seed}");
        }
    }

    #[test]
    fn scratch_reuse_across_batches_matches_fresh_coloring() {
        // One scratch colored through many different batches must give
        // the same answer as a fresh scratch per batch: the stamp reset
        // may not leak colors between batches.
        let mut scratch = ColoringScratch::with_accounts(4);
        for seed in 0..8 {
            let (txns, _) = mixed_txns(seed + 200, 50, 16);
            let reused = greedy_by_accounts_with(&txns, &mut scratch);
            let fresh = greedy_by_accounts(&txns);
            assert_eq!(reused.colors(), fresh.colors(), "seed {seed}");
        }
    }

    #[test]
    fn greedy_by_accounts_handles_readers() {
        use sharding_core::txn::TxnBuilder;
        let cfg = SystemConfig {
            shards: 4,
            accounts: 4,
            k_max: 4,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&cfg);
        // Two readers of account 0 (plus distinct writes) and one writer.
        let txns = vec![
            TxnBuilder::new(TxnId(0), ShardId(0), Round::ZERO, &map)
                .check(sharding_core::AccountId(0), 0)
                .update(sharding_core::AccountId(1), 1)
                .build()
                .unwrap(),
            TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
                .check(sharding_core::AccountId(0), 0)
                .update(sharding_core::AccountId(2), 1)
                .build()
                .unwrap(),
            TxnBuilder::new(TxnId(2), ShardId(0), Round::ZERO, &map)
                .update(sharding_core::AccountId(0), 1)
                .build()
                .unwrap(),
        ];
        let c = greedy_by_accounts(&txns);
        // Readers share color 0; the writer must avoid both readers.
        assert_eq!(c.color(0), 0);
        assert_eq!(c.color(1), 0);
        assert_eq!(c.color(2), 1);
        let g = ConflictGraph::build(&txns);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn color_with_dispatches() {
        let (txns, threshold) = mixed_txns(3, 25, 16);
        let g = ConflictGraph::build(&txns);
        for strat in [
            ColoringStrategy::Greedy,
            ColoringStrategy::Dsatur,
            ColoringStrategy::HeavyLight { threshold },
        ] {
            let c = color_with(strat, &g, &txns);
            assert!(c.is_proper(&g), "{strat:?}");
        }
    }
}
