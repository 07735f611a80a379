//! # conflict
//!
//! Transaction conflict graphs and vertex colorings.
//!
//! Both schedulers in the paper serialize conflicting transactions by
//! coloring the *conflict graph* `G`: one vertex per pending transaction,
//! one edge per conflicting pair (shared account, at least one writer).
//! Transactions with equal colors are mutually conflict-free and commit in
//! the same round-group.
//!
//! * [`graph::ConflictGraph`] — adjacency built in near-linear time by
//!   sorting accesses by account, instead of the quadratic all-pairs
//!   check.
//! * [`coloring`] — the greedy coloring the paper's simulation uses
//!   (≤ Δ+1 colors), DSATUR as a higher-quality alternative, and the
//!   heavy/light split coloring that mirrors the Case-2 analysis of
//!   Lemmas 1–2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod graph;

pub use coloring::{
    color_transactions, color_transactions_with, color_with, dsatur, greedy_by_accounts,
    greedy_by_accounts_with, greedy_by_order, heavy_light, Coloring, ColoringScratch,
    ColoringStrategy,
};
pub use graph::ConflictGraph;
