//! Conflict-graph construction.
//!
//! The leader shard in Algorithm 1 (and each cluster leader in Algorithm 2)
//! builds the conflict graph of the transactions it received. A naive
//! all-pairs `conflicts_with` scan is `O(m²·k)`; instead we sort accesses
//! by account and connect transactions sharing an account with at least
//! one writer, which costs one sort of the accesses plus the output size.

use sharding_core::txn::{AccessKind, Transaction};

/// An undirected conflict graph over a batch of transactions.
///
/// Vertices are indices `0..n` into the batch that built the graph (callers
/// keep the batch alongside). Adjacency lists are sorted and deduplicated,
/// so neighbor scans are cache-friendly and deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph of `txns`.
    ///
    /// Two transactions are adjacent iff they access a common account and at
    /// least one of the two writes it (Section 3 of the paper).
    ///
    /// Occurrences are grouped by sorting `(account, txn index, wrote?)`
    /// entries, so any account id works and no table is sized by the id
    /// space; within an account, entries stay in txn-index order.
    pub fn build(txns: &[Transaction]) -> Self {
        // Collapse each transaction's sorted access list into one
        // (account, txn index, wrote?) entry per touched account.
        let mut entries: Vec<(u64, u32, bool)> = Vec::new();
        for (i, t) in txns.iter().enumerate() {
            let accesses = t.accesses();
            let mut iter = accesses.iter().peekable();
            while let Some(first) = iter.next() {
                let acct = first.account;
                let mut wrote = first.kind == AccessKind::Write;
                while let Some(next) = iter.peek() {
                    if next.account != acct {
                        break;
                    }
                    wrote |= next.kind == AccessKind::Write;
                    iter.next();
                }
                entries.push((acct.raw(), i as u32, wrote));
            }
        }
        entries.sort_unstable();

        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); txns.len()];
        let mut writers: Vec<u32> = Vec::new();
        for occupants in entries.chunk_by(|x, y| x.0 == y.0) {
            // Writers conflict with everyone on the account; readers conflict
            // only with writers.
            writers.clear();
            writers.extend(occupants.iter().filter(|e| e.2).map(|e| e.1));
            if writers.is_empty() {
                continue;
            }
            for &(_, i, wrote) in occupants {
                if wrote {
                    for &(_, j, _) in occupants {
                        if j != i {
                            adj[i as usize].push(j);
                        }
                    }
                } else {
                    for &w in &writers {
                        if w != i {
                            adj[i as usize].push(w);
                        }
                    }
                }
            }
        }

        let mut edges = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            edges += list.len();
        }
        ConflictGraph {
            adj,
            edges: edges / 2,
        }
    }

    /// Builds a graph directly from an edge list (tests / synthetic graphs).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a != b, "no self loops");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut count = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            count += list.len();
        }
        ConflictGraph {
            adj,
            edges: count / 2,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted neighbor list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree `Δ` (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// True when `a` and `b` are adjacent.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::config::{AccountMap, SystemConfig};
    use sharding_core::ids::{Round, ShardId, TxnId};
    use sharding_core::txn::TxnBuilder;

    fn setup() -> AccountMap {
        let cfg = SystemConfig {
            shards: 8,
            accounts: 16,
            k_max: 8,
            ..SystemConfig::tiny()
        };
        AccountMap::round_robin(&cfg)
    }

    fn writer(map: &AccountMap, id: u64, accounts: &[u64]) -> Transaction {
        let mut b = TxnBuilder::new(TxnId(id), ShardId(0), Round::ZERO, map);
        for &a in accounts {
            b = b.update(sharding_core::AccountId(a), 1);
        }
        b.build().unwrap()
    }

    fn reader(map: &AccountMap, id: u64, accounts: &[u64], write: u64) -> Transaction {
        let mut b = TxnBuilder::new(TxnId(id), ShardId(0), Round::ZERO, map);
        for &a in accounts {
            b = b.check(sharding_core::AccountId(a), 0);
        }
        b.update(sharding_core::AccountId(write), 1)
            .build()
            .unwrap()
    }

    #[test]
    fn matches_pairwise_predicate() {
        let map = setup();
        let txns = vec![
            writer(&map, 0, &[0, 1]),
            writer(&map, 1, &[1, 2]),
            writer(&map, 2, &[3]),
            reader(&map, 3, &[0], 10),
            reader(&map, 4, &[0], 11),
        ];
        let g = ConflictGraph::build(&txns);
        for i in 0..txns.len() {
            for j in 0..txns.len() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    g.are_adjacent(i, j),
                    txns[i].conflicts_with(&txns[j]),
                    "mismatch at ({i},{j})"
                );
            }
        }
        // txn3/txn4 both *read* account 0: no edge between them.
        assert!(!g.are_adjacent(3, 4));
        // but each conflicts with writer txn0.
        assert!(g.are_adjacent(0, 3));
        assert!(g.are_adjacent(0, 4));
    }

    #[test]
    fn empty_and_singleton() {
        let g = ConflictGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        let map = setup();
        let g = ConflictGraph::build(&[writer(&map, 0, &[0])]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn clique_from_shared_account() {
        let map = setup();
        let txns: Vec<_> = (0..5).map(|i| writer(&map, i, &[7])).collect();
        let g = ConflictGraph::build(&txns);
        assert_eq!(g.edge_count(), 5 * 4 / 2);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn duplicate_account_pairs_counted_once() {
        let map = setup();
        // Two txns sharing *two* accounts still produce a single edge.
        let a = writer(&map, 0, &[0, 1]);
        let b = writer(&map, 1, &[0, 1]);
        let g = ConflictGraph::build(&[a, b]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn sparse_account_ids_match_the_pairwise_predicate() {
        // A huge account space with a handful of accesses: ids far apart
        // group like neighbouring ones.
        let cfg = SystemConfig {
            shards: 4,
            accounts: 1_000_000,
            k_max: 4,
            ..SystemConfig::tiny()
        };
        let map = AccountMap::round_robin(&cfg);
        let txns = vec![
            writer(&map, 0, &[0, 999_999]),
            writer(&map, 1, &[999_999]),
            writer(&map, 2, &[500_000]),
            reader(&map, 3, &[0], 500_000),
        ];
        let g = ConflictGraph::build(&txns);
        for i in 0..txns.len() {
            for j in 0..txns.len() {
                if i != j {
                    assert_eq!(g.are_adjacent(i, j), txns[i].conflicts_with(&txns[j]));
                }
            }
        }
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn from_edges_roundtrip() {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (0, 1)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(2, 1));
        assert!(!g.are_adjacent(0, 3));
        assert_eq!(g.degree(1), 2);
    }
}
