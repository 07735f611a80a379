//! # sharding-core
//!
//! Core domain types for the `blockshard` workspace, a reproduction of
//! *“Stable Blockchain Sharding under Adversarial Transaction Generation”*
//! (Adhikari, Busch, Kowalski — SPAA 2024).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ids`] — strongly-typed identifiers for shards, accounts, transactions,
//!   nodes, and rounds.
//! * [`config`] — the system configuration (`n` nodes, `s` shards, `k`
//!   max shards per transaction) and the account→shard placement map.
//! * [`txn`] — transactions, subtransactions, conditions/actions, and the
//!   conflict predicate of Section 3 of the paper.
//! * [`hash`] — the one hasher behind every map keyed by a small integer
//!   id.
//! * [`bounds`] — closed-form calculators for every bound proved in the
//!   paper (Theorems 1–3, Lemmas 1–3), used by the experiment harness to
//!   compare measured values against the paper's guarantees.
//! * [`stats`] — the per-round time series and the queue-growth
//!   stability detector used to classify runs as stable/unstable.
//! * [`rngutil`] — deterministic seeding helpers (ChaCha12), so that every
//!   simulation is a pure function of `(config, seed)`.
//!
//! The crate is `#![forbid(unsafe_code)]` and dependency-light by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rngutil;
pub mod stats;
pub mod txn;
pub mod vnode;

pub use config::{AccountMap, SystemConfig};
pub use error::{Error, Result};
pub use ids::{AccountId, Round, ShardId, TxnId};
pub use txn::{Access, AccessKind, Action, CommittedSub, Condition, SubTransaction, Transaction};
pub use vnode::{ReshardPlan, ReshardVersion, VnodeTable, VNODE_COUNT};
