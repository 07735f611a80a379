//! Hierarchical sparse-cover decomposition of the shard graph
//! (Section 6.1 of the paper, after Gupta–Hajiaghayi–Räcke).
//!
//! The hierarchy consists of `H1 = ⌈log D⌉ + 1` *layers*; each layer is a
//! small collection of `H2` *sublayers*; each sublayer *partitions* the
//! shards into clusters of diameter `O(2^l)`. Every cluster designates a
//! *leader* shard (its center). A transaction `T` with home shard `S_i`
//! and maximum access distance `x` is assigned the lowest-level cluster
//! that contains the whole `x`-neighborhood of `S_i` — its *home cluster*.
//!
//! Construction: per sublayer we use greedy ball-carving with a rotated
//! starting offset (sublayer `j` of layer `l` starts carving at shard
//! `≈ j·2^l/H2`). On the line metric this reproduces exactly the paper's
//! simulation layout — contiguous blocks of `2, 4, 8, …` shards whose
//! sublayers are shifted by half the block size — and on arbitrary metrics
//! it yields clusters of strong diameter at most `2^{l+1}`. The top layer
//! is always a single cluster spanning all shards, so every neighborhood
//! query succeeds.

use crate::metric::ShardMetric;
use serde::{Deserialize, Serialize};
use sharding_core::ShardId;

/// Position of a cluster in the hierarchy: level `(layer, sublayer)` plus
/// the index of the cluster within that sublayer's partition.
///
/// `ClusterId`s order lexicographically by `(layer, sublayer, index)`,
/// which is exactly the "lowest-layer, lowest-sublayer first" priority the
/// paper's height tuples use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterId {
    /// Layer `i`, `0 ≤ i < H1`.
    pub layer: u32,
    /// Sublayer `j`, `0 ≤ j < H2`.
    pub sublayer: u32,
    /// Cluster index within the sublayer partition.
    pub index: u32,
}

/// One cluster: its member shards, designated leader, and strong diameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member shards, ascending.
    pub shards: Vec<ShardId>,
    /// The designated leader (member with minimum eccentricity inside the
    /// cluster; ties broken toward the smallest id).
    pub leader: ShardId,
    /// Maximum metric distance between two members.
    pub diameter: u64,
}

impl Cluster {
    /// True when `shard` belongs to this cluster.
    pub fn contains(&self, shard: ShardId) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// True when every shard of `set` belongs to this cluster.
    pub fn contains_all(&self, set: &[ShardId]) -> bool {
        set.iter().all(|&s| self.contains(s))
    }
}

/// One layer: `H2` sublayer partitions plus a per-sublayer membership
/// table (`shard index → cluster index`).
#[derive(Debug, Clone)]
struct Layer {
    sublayers: Vec<Vec<Cluster>>,
    membership: Vec<Vec<u32>>,
}

/// The full hierarchical decomposition.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    shards: usize,
    layers: Vec<Layer>,
    /// Dense distance matrix copied from the metric at build time, so that
    /// neighborhood queries need no metric reference afterwards.
    dist: Vec<u64>,
}

impl Hierarchy {
    /// Builds the hierarchy with the paper-simulation default of two
    /// sublayers per layer (partitions shifted by half the cluster size).
    pub fn build(metric: &dyn ShardMetric) -> Self {
        Self::build_with_sublayers(metric, 2)
    }

    /// Builds the hierarchy with `h2 ≥ 1` sublayers per layer.
    pub fn build_with_sublayers(metric: &dyn ShardMetric, h2: usize) -> Self {
        assert!(h2 >= 1);
        let s = metric.shards();
        let diameter = metric.diameter();
        // H1 = ceil(log2 D) + 1 layers; radius of layer l is 2^l.
        let h1 = (64 - diameter.leading_zeros() as usize).max(1) + 1;

        let mut dist = vec![0u64; s * s];
        for a in 0..s {
            for b in 0..s {
                dist[a * s + b] = metric.distance(ShardId(a as u32), ShardId(b as u32));
            }
        }

        let mut layers = Vec::with_capacity(h1);
        for l in 0..h1 {
            let radius = 1u64 << l;
            let top = l == h1 - 1;
            let mut sublayers = Vec::with_capacity(h2);
            let mut membership = Vec::with_capacity(h2);
            for j in 0..h2 {
                let offset = (j * radius as usize / h2) % s.max(1);
                let (clusters, member) = if top {
                    carve_single(s, &dist)
                } else {
                    carve(s, &dist, radius, offset)
                };
                sublayers.push(clusters);
                membership.push(member);
            }
            layers.push(Layer {
                sublayers,
                membership,
            });
        }
        Hierarchy {
            shards: s,
            layers,
            dist,
        }
    }

    /// Number of layers `H1`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of sublayers `H2` (same in every layer).
    pub fn num_sublayers(&self) -> usize {
        self.layers[0].sublayers.len()
    }

    /// Number of shards `s`.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// The clusters of sublayer `(layer, sublayer)`.
    pub fn clusters(&self, layer: u32, sublayer: u32) -> &[Cluster] {
        &self.layers[layer as usize].sublayers[sublayer as usize]
    }

    /// The cluster with the given id.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.layers[id.layer as usize].sublayers[id.sublayer as usize][id.index as usize]
    }

    /// The cluster of `shard` in partition `(layer, sublayer)`.
    pub(crate) fn cluster_of(&self, layer: u32, sublayer: u32, shard: ShardId) -> ClusterId {
        let index = self.layers[layer as usize].membership[sublayer as usize][shard.index()];
        ClusterId {
            layer,
            sublayer,
            index,
        }
    }

    /// Distance between two shards (copied from the build metric).
    pub fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        self.dist[a.index() * self.shards + b.index()]
    }

    /// The `q`-neighborhood of `center` (ascending, includes `center`).
    pub fn neighborhood(&self, center: ShardId, q: u64) -> Vec<ShardId> {
        (0..self.shards as u32)
            .map(ShardId)
            .filter(|x| self.distance(center, *x) <= q)
            .collect()
    }

    /// The *home cluster* of a transaction with home shard `home` whose
    /// farthest accessed shard is at distance `x`: the lowest-layer,
    /// lowest-sublayer cluster containing the entire `x`-neighborhood of
    /// `home`. Always succeeds because the top layer is one full cluster.
    pub fn home_cluster(&self, home: ShardId, x: u64) -> ClusterId {
        let hood = self.neighborhood(home, x);
        for layer in 0..self.layers.len() as u32 {
            for sublayer in 0..self.num_sublayers() as u32 {
                let id = self.cluster_of(layer, sublayer, home);
                if self.cluster(id).contains_all(&hood) {
                    return id;
                }
            }
        }
        unreachable!("top layer contains every shard");
    }

    /// Maximum cluster diameter at `layer` (`d_i` in the analysis; at least
    /// 1 so communication inside a cluster always costs a round).
    pub fn layer_diameter(&self, layer: u32) -> u64 {
        self.layers[layer as usize]
            .sublayers
            .iter()
            .flatten()
            .map(|c| c.diameter)
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

/// Greedy ball-carving partition with carve radius `radius`, starting at
/// shard index `offset`. Returns the clusters and the shard → cluster
/// membership table.
fn carve(s: usize, dist: &[u64], radius: u64, offset: usize) -> (Vec<Cluster>, Vec<u32>) {
    let mut member = vec![u32::MAX; s];
    let mut clusters = Vec::new();
    for step in 0..s {
        let seed = (offset + step) % s;
        if member[seed] != u32::MAX {
            continue;
        }
        let idx = clusters.len() as u32;
        let mut shards = Vec::new();
        for cand in 0..s {
            if member[cand] == u32::MAX && dist[seed * s + cand] <= radius {
                member[cand] = idx;
                shards.push(ShardId(cand as u32));
            }
        }
        clusters.push(finish_cluster(shards, s, dist));
    }
    (clusters, member)
}

/// The top layer: one cluster containing every shard.
fn carve_single(s: usize, dist: &[u64]) -> (Vec<Cluster>, Vec<u32>) {
    let shards: Vec<ShardId> = (0..s as u32).map(ShardId).collect();
    (vec![finish_cluster(shards, s, dist)], vec![0; s])
}

/// Computes leader (center) and strong diameter for a member set.
fn finish_cluster(shards: Vec<ShardId>, s: usize, dist: &[u64]) -> Cluster {
    debug_assert!(!shards.is_empty());
    let mut leader = shards[0];
    let mut best_ecc = u64::MAX;
    let mut diameter = 0;
    for &a in &shards {
        let ecc = shards
            .iter()
            .map(|&b| dist[a.index() * s + b.index()])
            .max()
            .unwrap_or(0);
        diameter = diameter.max(ecc);
        if ecc < best_ecc {
            best_ecc = ecc;
            leader = a;
        }
    }
    Cluster {
        shards,
        leader,
        diameter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{LineMetric, RingMetric, UniformMetric};

    #[test]
    fn sublayers_are_partitions() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        for l in 0..h.num_layers() as u32 {
            for j in 0..h.num_sublayers() as u32 {
                let mut seen = [false; 64];
                for c in h.clusters(l, j) {
                    for s in &c.shards {
                        assert!(!seen[s.index()], "shard {s} in two clusters at ({l},{j})");
                        seen[s.index()] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&x| x),
                    "partition covers all shards at ({l},{j})"
                );
            }
        }
    }

    #[test]
    fn membership_table_consistent() {
        let m = RingMetric::new(32);
        let h = Hierarchy::build_with_sublayers(&m, 3);
        for l in 0..h.num_layers() as u32 {
            for j in 0..h.num_sublayers() as u32 {
                for s in 0..32u32 {
                    let id = h.cluster_of(l, j, ShardId(s));
                    assert!(h.cluster(id).contains(ShardId(s)));
                }
            }
        }
    }

    #[test]
    fn diameters_grow_geometrically_and_bounded() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        for l in 0..h.num_layers() as u32 {
            let radius = 1u64 << l;
            // Carved balls have strong diameter at most 2 * radius on a
            // line (center ± radius).
            assert!(
                h.layer_diameter(l) <= 2 * radius,
                "layer {l} diameter {} > {}",
                h.layer_diameter(l),
                2 * radius
            );
        }
        // Top layer spans everything.
        let top = (h.num_layers() - 1) as u32;
        assert_eq!(h.clusters(top, 0).len(), 1);
        assert_eq!(h.clusters(top, 0)[0].shards.len(), 64);
    }

    #[test]
    fn home_cluster_contains_neighborhood() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        for s in [0u32, 7, 31, 63] {
            for x in [0u64, 1, 3, 10, 40] {
                let id = h.home_cluster(ShardId(s), x);
                let hood = h.neighborhood(ShardId(s), x);
                assert!(h.cluster(id).contains_all(&hood), "shard {s} x {x}");
            }
        }
    }

    #[test]
    fn home_cluster_is_lowest_possible() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        // x = 0: the 0-neighborhood is the shard itself; layer 0 clusters
        // have radius 1 and always contain their members.
        let id = h.home_cluster(ShardId(5), 0);
        assert_eq!(id.layer, 0);
        // Large x forces higher layers.
        let id_far = h.home_cluster(ShardId(5), 60);
        assert!(id_far.layer > id.layer);
    }

    #[test]
    fn home_cluster_layer_scales_with_distance() {
        // Quality check: the chosen layer's radius is within a constant
        // factor of x (locality — small-x transactions get small clusters).
        let m = LineMetric::new(128);
        let h = Hierarchy::build_with_sublayers(&m, 4);
        for s in 0..128u32 {
            for x in [1u64, 2, 4, 8, 16] {
                let id = h.home_cluster(ShardId(s), x);
                let diam = h.cluster(id).diameter;
                assert!(
                    diam <= 8 * x.max(1),
                    "shard {s}, x {x}: cluster diameter {diam} too large"
                );
            }
        }
    }

    #[test]
    fn leader_neighborhood_inside_cluster_on_line() {
        // The paper designates as leader a shard whose (2^l − 1)-
        // neighborhood lies inside the cluster. Our leader is the center;
        // check the property holds for full-size line clusters.
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        for l in 0..h.num_layers() as u32 {
            let r = (1u64 << l) - 1;
            for c in h.clusters(l, 0) {
                if c.shards.len() as u64 > 2 * r {
                    let hood = h.neighborhood(c.leader, r / 2);
                    assert!(
                        c.contains_all(&hood),
                        "layer {l}: leader {} half-neighborhood escapes cluster",
                        c.leader
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_metric_collapses_quickly() {
        let m = UniformMetric::new(16);
        let h = Hierarchy::build(&m);
        // D = 1 → H1 = 2 layers; layer 0 radius 1 covers everything from
        // one seed, so every shard's 1-neighborhood (= all shards) is in
        // the single cluster.
        assert_eq!(h.num_layers(), 2);
        let id = h.home_cluster(ShardId(3), 1);
        assert_eq!(h.cluster(id).shards.len(), 16);
    }

    #[test]
    fn line_layer0_clusters_are_small_blocks() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        // Radius 1 carving on a line yields contiguous blocks of ≤ 3.
        for c in h.clusters(0, 0) {
            assert!(c.shards.len() <= 3);
            let ids: Vec<u32> = c.shards.iter().map(|s| s.raw()).collect();
            assert!(
                ids.windows(2).all(|w| w[1] == w[0] + 1),
                "contiguous {ids:?}"
            );
        }
    }

    #[test]
    fn sublayer_offsets_differ() {
        let m = LineMetric::new(64);
        let h = Hierarchy::build(&m);
        // At a mid layer the two sublayers should produce different
        // partitions (that is their whole point).
        let l = 3u32;
        assert_ne!(h.clusters(l, 0), h.clusters(l, 1));
    }
}
