//! # runtime
//!
//! The *networked* execution engine: a pool of worker threads
//! ([`default_workers`]: one per shard up to the host's core count)
//! cooperatively claiming shard rounds ([`exec::run_lockstep`]), real
//! concurrent message passing over lock-free per-link rings, one
//! watermark round gate — for both schedulers, over any
//! [`cluster::ShardMetric`].
//!
//! The simulators in `schedulers` drive all shards from one loop with an
//! omniscient view; this crate is the opposite discipline — each shard
//! owns only shard-local state, exchanging protocol
//! messages through the [`hub::NetHub`] delay queues. BDS epoch lengths
//! are learned from the leader's broadcast plan (the simulator sends the
//! identical broadcast), FDS schedules are pure functions of round
//! number and the shared hierarchy, and delivery order is pinned by
//! per-sender sequence numbers — so a fault-free networked run produces
//! a `RunReport` **byte-identical** to the simulator's for the same
//! inputs. `tests/differential.rs` enforces that equality field by
//! field, including the floating-point latency and queue means.
//!
//! On top of that mirror sits the [`simnet::FaultPlan`] fault plane:
//! seeded shard crashes, per-link message drop/duplication, and
//! Byzantine vote flipping inside the per-round PBFT instances — all
//! deterministic in the plan seed, independent of thread interleaving,
//! with injected-fault counters surfaced in `RunReport::faults`.
//!
//! The message plane is lock-free on the per-message path: each directed
//! link owns one SPSC [ring] (sender thread produces, receiver
//! thread consumes, two atomic cursors, an overflow spill so correctness
//! never depends on ring sizing), and rounds are separated by a
//! [watermark gate](sync::RoundGate) rather than a parking barrier.
//! Receivers drain a whole round batched through a [`hub::NetInbox`]:
//! pop the incoming rings whose sender raised its bit in the receiver's
//! dirty-sender bitmap (so a drain costs O(messages), not O(shards)),
//! park early arrivals in a ring-of-rounds wheel, sort the due bucket by
//! `(sender, seq)`.
//!
//! The original reproduction hint suggests tokio for this variant; the
//! approved offline dependency set does not include it, so the runtime
//! uses `std::thread::scope` + the lock-free hub instead, which
//! exercises the same code path (concurrent delivery, nondeterministic
//! arrival interleaving within a round, deterministic round gate).
//!
//! Scenario files select this engine with `engine = net` (see
//! [`EngineKind`]); `blockshard run` then routes jobs through
//! [`run_net_bds`] / [`run_net_sched`] / [`run_net_fds`] instead of
//! the simulators.
//!
//! `unsafe` is denied crate-wide with one audited exception: the slot
//! array of the SPSC ring in [`ring`], whose ownership protocol is
//! documented there and hammered by `tests/hub_stress.rs` plus the ring
//! property suite.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
pub mod hub;
pub mod netbds;
pub mod netfds;
pub mod ring;
pub mod sync;

pub use engine::EngineKind;
pub use exec::{default_workers, run_lockstep};
pub use hub::{HubError, NetEnvelope, NetHub, NetInbox, ShardPort};
pub use netbds::{
    run_net_bds, run_net_sched, run_net_sched_from, run_net_sched_reshard, NetOutcome,
};
pub use netfds::run_net_fds;
pub use sync::RoundGate;
