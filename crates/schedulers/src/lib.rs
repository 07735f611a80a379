//! # schedulers
//!
//! The paper's two stable transaction schedulers, plus baselines:
//!
//! * [`node`] — the seam both protocols are written against: a per-shard
//!   [`Node`](node::Node) stepped once per round, reaching outside its
//!   shard only by sending a message or emitting a decision; the
//!   [`Protocol`](node::Protocol) description of what a host must know
//!   around a node; and [`Sim`](node::Sim), the generic simulator host
//!   that runs `s` nodes on one thread (`runtime::NetRun` is the
//!   threaded host of the same descriptions).
//! * [`bds`] — **Algorithm 1**, the Basic Distributed Scheduler for the
//!   uniform communication model: epoch-based, rotating leader, conflict-
//!   graph coloring, and a four-round vote/confirm/commit protocol per
//!   color class. Stable for `ρ ≤ max{1/(18k), 1/(18⌈√s⌉)}`.
//! * [`fds`] — **Algorithm 2**, the Fully Distributed Scheduler for the
//!   non-uniform model: hierarchical clustering, per-cluster leaders,
//!   lexicographic *heights* `(t_end, layer, sublayer, color)` ordering
//!   destination queues, and periodic rescheduling. Stable for
//!   `ρ ≤ 1/(c₁ d log²s) · max{1/k, 1/√s}`.
//! * [`baseline`] — an idealized greedy FCFS lock scheduler used for
//!   comparison in the experiment harness (it has no stability guarantee
//!   under adversarial conflict patterns but minimal protocol overhead).
//! * [`scheduler`] — the common [`Scheduler`] trait every epoch-planning
//!   policy implements (observe arrivals → partition into conflict-free
//!   slots → dispatch), with the safety/purity contract the conformance
//!   harness enforces.
//! * [`zoo`] — classical competitors behind that trait: EDF,
//!   fixed-priority, work-stealing greedy, and a speculative scheduler
//!   that colors a predicted conflict set and repairs mispredictions.
//!   None carries a stability proof; all are safe and deterministic.
//! * [`driver`] — the [`RoundDriver`] contract both simulators meet
//!   (one batch per round, a report at the end) and the [`drive`] loop
//!   behind the `run_*` convenience functions (`run_bds`, `run_fds_line`,
//!   `run_fcfs`). The scenario executor does not use it: it steps a
//!   simulator itself, from the job's own round source.
//! * [`history`] — the cross-shard order check (Section 3: conflicting
//!   transactions serialize alike in every shard they share) over the
//!   chains a run leaves behind.
//! * [`metrics`] — the per-run measurement report shared by all
//!   schedulers (queue-size series, latency distribution, commit counts,
//!   epoch statistics, the stability verdict) and the run book every host
//!   keeps, [`MetricsCollector`](metrics::MetricsCollector): it books the
//!   generated transactions and each decision, closes each round on the
//!   row its protocol folds the shards' samples into (and, with the
//!   metrics plane on, the round's timeline row), keeps the commit log,
//!   and builds the report.
//! * [`testkit`] — shared helpers for the conformance harness
//!   (`tests/conformance.rs` here, `tests/conformance_net.rs` in
//!   `runtime`): build any registered kind as a round-driven simulation,
//!   fingerprint reports bit-exactly, generate workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bds;
pub mod driver;
pub mod fds;
pub mod history;
pub mod metrics;
pub mod node;
pub mod scheduler;
pub mod testkit;
mod votes;
pub mod zoo;

pub use baseline::{run_fcfs, FcfsConfig, FcfsSim};
pub use bds::{run_bds, BdsConfig, BdsSim};
pub use driver::{drive, RoundDriver};
pub use fds::{FdsConfig, FdsSim};
pub use history::{check_cross_shard_order, OrderViolation};
pub use metrics::{RunReport, SchedulerKind};
pub use scheduler::{ColoringPolicy, EpochPlan, Scheduler};
