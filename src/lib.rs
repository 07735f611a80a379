//! # blockshard
//!
//! A complete Rust implementation of *“Stable Blockchain Sharding under
//! Adversarial Transaction Generation”* (Adhikari, Busch, Kowalski —
//! SPAA 2024): adversarial `(ρ, b)` transaction generation, the BDS and FDS
//! stable schedulers, a synchronous sharded-blockchain simulator, a
//! hierarchical shard-clustering layer, and the experiment harness that
//! regenerates the paper's figures.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names, and ships the `blockshard` CLI binary that drives
//! declarative `.scenario` sweep files through the [`scenario`] engine
//! (`cargo run --bin blockshard -- run scenarios/fig2_quick.scenario`).
//! See [README.md] for the project overview and quickstart,
//! [DESIGN.md] for the architecture (crate graph, BDS epoch pipeline, FDS
//! hierarchy and heights ordering), and [EXPERIMENTS.md] for
//! paper-vs-measured results — all three live at the repo root and are
//! also embedded under [`doc`] so the links work in generated rustdoc.
//!
//! [README.md]: crate::doc::readme
//! [DESIGN.md]: crate::doc::design
//! [EXPERIMENTS.md]: crate::doc::experiments
//!
//! ## Quickstart
//!
//! ```
//! use blockshard::prelude::*;
//!
//! // The paper's Section 7 setup: 64 shards, one account each, k = 8.
//! let cfg = SystemConfig::paper_simulation();
//! let map = AccountMap::random(&cfg, 1);
//! let workload = AdversaryConfig {
//!     rho: 0.10,
//!     burstiness: 50,
//!     strategy: StrategyKind::UniformRandom,
//!     seed: 7,
//!     ..Default::default()
//! };
//! let report = run_bds(&cfg, &map, &workload, Round(2_000));
//! assert!(report.committed > 0);
//! ```

/// Rendered copies of the repo-root documentation files, so the crate-level
/// links above resolve inside `cargo doc` output as well as on a forge.
pub mod doc {
    /// Project overview and quickstart (repo-root `README.md`).
    #[doc = include_str!("../README.md")]
    pub mod readme {}

    /// Architecture: crate graph, BDS epoch pipeline, FDS hierarchy and
    /// heights ordering (repo-root `DESIGN.md`).
    #[doc = include_str!("../DESIGN.md")]
    pub mod design {}

    /// Paper-vs-measured results skeleton (repo-root `EXPERIMENTS.md`).
    #[doc = include_str!("../EXPERIMENTS.md")]
    pub mod experiments {}
}

pub use adversary;
pub use cluster;
pub use conflict;
pub use runtime;
pub use scenario;
pub use schedulers;
pub use sharding_core as core_types;
pub use simnet;

/// Convenience re-exports covering the common experiment workflow.
pub mod prelude {
    pub use adversary::{AdversaryConfig, StrategyKind, WorkloadShape};
    pub use cluster::{LineMetric, MetricKind, ShardMetric, UniformMetric};
    pub use scenario::{run_jobs, JobOutcome, JobSpec, Scenario};
    pub use schedulers::{run_bds, BdsConfig, FdsConfig, RunReport, SchedulerKind};
    pub use sharding_core::stats::{StabilityDetector, StabilityVerdict};
    pub use sharding_core::{bounds, AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
}
