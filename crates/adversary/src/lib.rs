//! # adversary
//!
//! Adversarial transaction generation under the `(ρ, b)` constraint of
//! classical adversarial queuing theory (Borodin et al.), as instantiated
//! for blockchain sharding in Section 3 of the paper:
//!
//! > *The adversary is restricted such that the congestion on each shard
//! > within a contiguous time interval of duration `t > 0` is limited to at
//! > most `ρt + b` transactions per shard.*
//!
//! Each injected transaction adds one unit of congestion to every shard it
//! accesses. The module structure:
//!
//! * [`budget`] — per-shard leaky buckets that *enforce* the constraint at
//!   generation time; no trace this crate emits can violate it.
//! * [`strategy`] — adversarial strategies: the uniform-random workload and
//!   the single-burst "pessimistic" workload of Section 7, the
//!   pairwise-conflict construction from the Theorem 1 lower bound,
//!   hot-shard pressure, and periodic burst trains.
//! * [`generator`] — the [`Adversary`] driver that turns strategy proposals
//!   into admitted [`Transaction`]s with globally unique ids, and the
//!   [`Offer`] draft a streaming producer offers in place of a built
//!   transaction.
//! * [`mempool`] — the streaming ingestion plane: a bounded per-home-shard
//!   priority mempool of offers, the [`RoundSource`] seam the execution
//!   engines pull batches through, and the [`IngestPipeline`] that puts
//!   the leaky buckets on the *live* admission path and builds only what
//!   they admit.
//! * [`stream`] — firehose producers that stream Zipf and
//!   shifting-hotspot account distributions lazily over millions of ids.
//! * [`reshard`] — the placement-following adapter that re-homes and
//!   regroups any source's output under a live reshard plan's versioned
//!   vnode tables.
//! * [`validate`] — an `O(T·s)` sliding-window validator that checks a
//!   recorded trace against `ρt + b` over *every* window, used by tests and
//!   by downstream consumers that want end-to-end assurance.
//!
//! [`Transaction`]: sharding_core::Transaction

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod generator;
pub mod mempool;
pub mod reshard;
pub mod strategy;
pub mod stream;
pub mod validate;

pub use budget::ShardBudgets;
pub use generator::{Adversary, AdversaryConfig, Offer, TxnScratch, WorkloadShape};
pub use mempool::{IngestPipeline, Mempool, MempoolStats, RoundSource};
pub use reshard::ReshardSource;
pub use strategy::{AliasTable, StrategyKind};
pub use stream::{saturation_offered, StreamKind, StreamSource};
pub use validate::{tightest_burstiness, validate_trace, TraceRecorder};
