//! # cluster
//!
//! Shard metric spaces and the hierarchical cluster decomposition used by
//! the fully distributed scheduler (Section 6.1 of the paper).
//!
//! The inter-shard network is a weighted clique `G_s`: the weight of edge
//! `(S_i, S_j)` is the number of rounds a message needs between the two
//! shards. [`metric`] provides the standard shapes (uniform clique, line,
//! ring, and Manhattan grid); [`hierarchy`] builds the layered sparse
//! cover — layers of clusters of geometrically growing diameter, each
//! layer a small set of shifted partitions (sublayers), each cluster with
//! a designated leader shard — and answers the *home cluster* query: the
//! lowest-level cluster containing a transaction's whole `x`-neighborhood.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchy;
pub mod metric;

pub use hierarchy::{Cluster, ClusterId, Hierarchy};
pub use metric::{GridMetric, LineMetric, MetricKind, RingMetric, ShardMetric, UniformMetric};
