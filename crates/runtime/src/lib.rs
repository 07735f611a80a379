//! # runtime
//!
//! The *networked* execution engine: a pool of worker threads
//! ([`default_workers`]: one per shard up to the host's core count),
//! each owning a contiguous range of shards for the whole run
//! ([`exec::run_lockstep`]), real concurrent message passing through one
//! mailbox per shard, one watermark round gate — for both schedulers, over
//! any [`cluster::ShardMetric`].
//!
//! BDS and FDS each exist once, in `schedulers`, as a per-shard node
//! state machine (`BdsNode`, `FdsNode`) that talks to the outside only
//! by sending a message to a shard and emitting a decision, plus one
//! `Protocol` description of what a host must know around it. The
//! generic simulator `schedulers::node::Sim` hosts `s` such nodes on one
//! thread over a `simnet::Network`; this crate is the other host:
//! [`NetRun`] says where and how a run executes (system, placement,
//! metric, fault plan, worker count, metrics plane), and
//! [`NetRun::run`] takes any protocol description and any
//! [`adversary::RoundSource`]. One slot per shard holds the simulator's
//! `schedulers::node::Shard`, its chain and policy, its [`hub::NetHub`]
//! endpoints and this round's decisions; a worker steps the slots of its
//! range in shard order through the same `Shard::step` as the simulator,
//! and after each round the calling thread closes it as the simulator
//! does: it books the decisions in `(shard, emission index)` order, closes
//! the round over the shards, and pulls and injects the next round. What this
//! crate adds is what is genuinely about the transport — delivery pinned
//! by per-sender sequence numbers and the round gate — so a networked
//! run produces a `RunReport` **byte-identical** to the
//! simulator's for the same inputs and fault plan: both ran the same
//! code, in an order that differs only where it cannot be observed.
//! `tests/conformance_net.rs` checks that equality field by field,
//! including the floating-point latency and queue means, for every
//! protocol description the workspace has, with and without faults.
//!
//! The [`simnet::FaultPlan`] fault plane is the same on both engines:
//! shard crashes and Byzantine quotas in the run's
//! `schedulers::node::RunFaults`, per-link drops and duplicates in each
//! sender's [`simnet::Outbound`] — deterministic in the plan seed,
//! independent of thread interleaving.
//!
//! The message plane is one mailbox per destination shard — a mutexed
//! `Vec` and a has-mail flag the sender raises after its push — and
//! rounds are separated by a [watermark gate](sync::RoundGate) rather
//! than a parking barrier. Each shard drains its mailbox once a round
//! through a [`hub::NetInbox`]: skip it if the flag is clear (an idle
//! drain takes no lock), else swap the `Vec` out against a spare, park
//! early arrivals in a [`simnet::Wheel`], sort the due bucket by
//! `(sender, seq)`. What a send means — delay, sequence number, fault
//! stream, counters — is [`simnet::Outbound`], the sender the simulator's
//! `Network` uses too.
//!
//! The original reproduction hint suggests tokio for this variant; the
//! approved offline dependency set does not include it, so the runtime
//! uses `std::thread::scope` + the mailbox hub instead, which
//! exercises the same code path (concurrent delivery, nondeterministic
//! arrival interleaving within a round, deterministic round gate).
//!
//! Scenario files select this engine with `engine = net` (see
//! [`EngineKind`]); `scenario::run_job` then hands the job's protocol
//! description and source to [`NetRun::run`] instead of the simulator.
//! [`run_net_sched`], [`run_net_sched_from`] and [`run_net_fds`] are
//! positional spellings of the same call, kept for `benchmark/`.
//!
//! `unsafe` is denied crate-wide with one exception, on no path a run
//! takes: the slot array of the SPSC ring in [`ring`], a module no run
//! executes, kept only for `benchmark/`'s
//! `runtime.ring_push_drain_ns_per_msg` probe and property-tested by
//! `tests/ring_props.rs`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod exec;
mod host;
pub mod hub;
mod netbds;
pub mod ring;
pub mod sync;

pub use engine::EngineKind;
pub use exec::{default_workers, run_lockstep, run_lockstep_closing};
pub use host::{NetOutcome, NetRun};
pub use hub::{HubError, NetEnvelope, NetHub, NetInbox, ShardPort};
pub use netbds::{run_net_fds, run_net_sched, run_net_sched_from};
pub use sync::RoundGate;
