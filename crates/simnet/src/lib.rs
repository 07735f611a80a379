//! # simnet
//!
//! The synchronous simulation substrate beneath both schedulers:
//!
//! * [`network`] — inter-shard message passing over a [`ShardMetric`]:
//!   a message sent at round `r` from `S_i` to `S_j` is delivered at round
//!   `r + distance(S_i, S_j)` (distance 1 everywhere in the uniform model).
//!   The rule itself is [`Outbound`], one sending endpoint per shard, and
//!   the waiting is a [`wheel`] — both shared with the threaded runtime,
//!   whose transport differs only in the hand-off.
//! * [`blockchain`] — per-shard local ledgers: hash-linked blocks of
//!   committed subtransactions, with verification. A block header is 16
//!   bytes (height, parent and where the payload starts are derived),
//!   headers live in fixed pages and each page keeps its blocks' subs in
//!   one list, so a chain pays for its blocks and not for its growth. The
//!   global blockchain is reconstructable as the union of local chains
//!   (Section 3).
//! * [`ledger`] — account balances per shard and commit application,
//!   including condition checking (the "condition + action" split of the
//!   paper's subtransactions).
//! * [`faults`] — the seeded fault plane of either engine: shard crashes
//!   pinned to rounds, per-link drop/duplication streams (consumed by
//!   [`Outbound::send`], which lives there), and a per-shard quota of
//!   Byzantine votes, counted against the shard's bound `f` — the paper
//!   assumes intra-shard PBFT completes within one round, and under
//!   `n > 3f` no such quota can change a decision (DESIGN.md
//!   "Restrictions"), so no run executes an instance. Every
//!   decision is deterministic in the plan's seed, independent of thread
//!   interleaving.
//!
//! The [`network`] layer's counters (messages sent, largest payload)
//! surface in every `RunReport` and therefore in the `messages` /
//! `max_message_bytes` columns of the scenario engine's CSV/JSONL
//! reports — message costs are measured at this layer, never estimated
//! by the schedulers themselves.
//!
//! [`ShardMetric`]: cluster::ShardMetric

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockchain;
pub mod faults;
pub mod ledger;
pub mod network;
pub mod wheel;

pub use blockchain::{reshard_audit, BlockRef, LocalChain};
pub use faults::{FaultCounters, FaultDecision, FaultPlan, LinkFaults, Outbound, SendTally};
pub use ledger::ShardLedger;
pub use network::{Envelope, Network};
pub use wheel::Wheel;
