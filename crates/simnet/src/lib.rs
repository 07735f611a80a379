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
//!   committed subtransactions, with verification. A block header is 32
//!   bytes (height and parent are derived) and headers live in fixed
//!   pages, so a chain pays for its blocks and not for its growth. The
//!   global blockchain is reconstructable as the union of local chains
//!   (Section 3).
//! * [`pbft`] — the intra-shard consensus model. The paper *assumes*
//!   PBFT completes within one round, and so do both engines: no run
//!   executes an instance. The module's quorum logic (pre-prepare/
//!   prepare/commit vote counting under `n > 3f`) is unit-tested on its
//!   own, and shows why a Byzantine quota clamped to `f` never changes a
//!   decision — which is why a run only counts one.
//! * [`ledger`] — account balances per shard and commit application,
//!   including condition checking (the "condition + action" split of the
//!   paper's subtransactions).
//! * [`faults`] — the seeded fault plane of either engine: shard crashes
//!   pinned to rounds, per-link drop/duplication streams (consumed by
//!   [`Outbound::send`], which lives there), and a per-shard quota of
//!   Byzantine votes, counted against the shard's bound `f`. Every
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
pub mod pbft;
pub mod wheel;

pub use blockchain::{reshard_audit, Block, LocalChain};
pub use faults::{FaultCounters, FaultDecision, FaultPlan, LinkFaults, Outbound, SendTally};
pub use ledger::ShardLedger;
pub use network::{Envelope, Network};
pub use pbft::{ConsensusOutcome, PbftShard, Vote};
pub use wheel::Wheel;
