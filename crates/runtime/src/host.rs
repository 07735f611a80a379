//! The threaded host of a [`Protocol`]: what is genuinely about the
//! transport, once for every protocol.
//!
//! [`NetRun::run`] builds the [`Shard`]s `schedulers::node::Sim` builds,
//! with [`Shard::all`], and makes each one [`run_lockstep_closing`] slot
//! with its chain, policy, [`NetHub`] endpoints and the round's
//! decisions. A slot's round is [`Shard::step`] over its drained inbox (a
//! crashed shard still drains, so its mailbox stays bounded). Once every
//! shard has stepped a round, the calling thread closes it as `Sim::step`
//! does: it books the decisions in shard order into a [`MetricsCollector`],
//! closes the round over the shards, and pulls and injects the next
//! round. With the hub's `(sender, sequence)` hand-out a report is
//! byte-identical to the simulator's for any worker count. Nothing the
//! host keeps grows with the run.

use crate::exec::run_lockstep_closing;
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::RoundSource;
use cluster::ShardMetric;
use parking_lot::{Mutex, MutexGuard};
use schedulers::metrics::{MetricsCollector, RunReport};
use schedulers::node::{CommitEvent, Node, Protocol, Shard};
use schedulers::scheduler::Scheduler;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, TxnId};
use simnet::faults::FaultPlan;
use simnet::LocalChain;

/// The result of a networked run: the standard report plus the raw
/// commit log for round-for-round cross-validation.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// The standard per-run report (byte-identical to the simulator's
    /// under the same fault plan).
    pub report: RunReport,
    /// `(commit round, txn)` in global decision order.
    pub committed_log: Vec<(Round, TxnId)>,
    /// Whether every shard's local chain verified after the run.
    pub chains_verified: bool,
    /// The local blockchains, in shard order.
    pub chains: Vec<LocalChain>,
}

/// One shard of a networked run.
struct Slot<'h, N: Node> {
    shard: Shard<N>,
    chain: LocalChain,
    policy: Box<dyn Scheduler>,
    port: ShardPort<'h, N::Msg>,
    inbox: NetInbox<N::Msg>,
    /// The reusable drain buffer.
    buf: Vec<NetEnvelope<N::Msg>>,
    /// The decisions of the round being run, in emission order.
    events: Vec<CommitEvent>,
}

/// Pulls round `round` from `source` into `book` and injects it at the
/// home shards. Generated work accumulates even on a crashed shard (it
/// counts as pending, unserviced).
fn inject<N: Node>(
    source: &mut dyn RoundSource,
    round: u64,
    book: &mut MetricsCollector,
    slots: &mut [MutexGuard<'_, Slot<'_, N>>],
) {
    let batch = source.next_round(Round(round));
    book.book_generated(batch.len() as u64);
    for t in batch {
        slots[t.home.index()].shard.node.inject(t);
    }
}

/// Where and how a networked run executes: everything about it that is
/// not the protocol or the workload.
pub struct NetRun<'a> {
    /// The sharded system.
    pub sys: &'a SystemConfig,
    /// Account placement (the ledgers' initial owners).
    pub map: &'a AccountMap,
    /// Inter-shard distances: a message takes `max(1, distance)` rounds.
    pub metric: &'a dyn ShardMetric,
    /// The fault plane; [`FaultPlan::default`] is inert.
    pub faults: &'a FaultPlan,
    /// Worker threads of the lockstep executor
    /// ([`default_workers`](crate::default_workers) is the natural
    /// choice; the outcome is identical for any count `>= 1`).
    pub workers: usize,
    /// Turn the metrics plane on.
    pub metrics: bool,
}

impl NetRun<'_> {
    /// Runs one node of `proto` per shard for `rounds` rounds.
    ///
    /// The source is pulled one round at a time, round `r + 1` once round
    /// `r` has closed, as the simulator is driven, so both engines see the
    /// same batches. Every shard gets its own policy instance, consulted
    /// only where its node leads (plans are pure functions of `(epoch,
    /// batch)`).
    ///
    /// The report is byte-identical to a [`Sim`](schedulers::node::Sim)'s
    /// given the same inputs and plan. Under faults the run stays
    /// deterministic but the protocol may degrade: crashed shards freeze,
    /// dropped ballots strand transactions, and the counters surface in
    /// [`RunReport::faults`].
    pub fn run<P>(&self, proto: &P, source: &mut dyn RoundSource, rounds: Round) -> NetOutcome
    where
        P: Protocol,
        P::Node: Send,
        <P::Node as Node>::Msg: Send,
    {
        let (sys, metric, plan, total) = (self.sys, self.metric, self.faults, rounds.raw());
        let (shards, faults) = Shard::all(proto, sys, self.map, metric, plan);

        let mut book = MetricsCollector::new(sys.shards);
        if self.metrics {
            book.enable_metrics();
        }
        let hub = NetHub::new(metric, <P::Node as Node>::msg_bytes)
            .expect("validated: at least one shard");
        let gate = RoundGate::new(sys.shards);
        let slots: Vec<Mutex<Slot<'_, P::Node>>> = (0u32..)
            .map(ShardId)
            .zip(shards)
            .map(|(id, shard)| {
                Mutex::new(Slot {
                    shard,
                    chain: LocalChain::new(id),
                    policy: proto.policy(sys),
                    port: ShardPort::new(&hub, id, plan),
                    inbox: NetInbox::new(&hub, id),
                    buf: Vec::new(),
                    events: Vec::new(),
                })
            })
            .collect();
        if total > 0 {
            let mut all: Vec<_> = slots.iter().map(Mutex::lock).collect();
            inject(source, 0, &mut book, &mut all);
        }

        let step = |slot: &mut Slot<'_, P::Node>, _, round| {
            // The executor only runs this once every peer finished round-1
            // sends; the drain then sees all of them.
            slot.inbox.drain_into(round, &mut slot.buf);
            let inbox = slot.buf.drain(..).map(|env| (env.from, env.payload));
            let send = |to, msg| slot.port.send(to, round, msg);
            let emit = |event| slot.events.push(event);
            let (shard, chain, policy) = (&mut slot.shard, &mut slot.chain, slot.policy.as_mut());
            shard.step(round, &faults, inbox, chain, policy, (send, emit));
        };
        let close = |round, slots: &mut [MutexGuard<'_, Slot<'_, P::Node>>]| {
            let events = slots.iter_mut().flat_map(|slot| slot.events.drain(..));
            events.for_each(|event| book.book(event));
            book.close_shards::<P>(slots.iter().map(|slot| &slot.shard), &faults);
            if round + 1 < total {
                inject(source, round + 1, &mut book, slots);
            }
        };
        run_lockstep_closing(&gate, &slots, total, self.workers, step, close);

        // The report carries the policy's kind, as the simulator's does.
        let kind = slots[0].lock().policy.kind();
        // Consuming a slot drops its port, flushing the shard's local
        // message tallies into the hub before the counters are read, and
        // frees its message buffers before the report is built.
        let (shards, chains): (Vec<_>, Vec<_>) = slots
            .into_iter()
            .map(Mutex::into_inner)
            .map(|slot| (slot.shard, slot.chain))
            .unzip();
        let (links, shards) = (hub.tally(), shards.iter());
        let (report, committed_log) = book.finish_shards::<P>(kind, shards, links, &faults);
        NetOutcome {
            report,
            committed_log,
            chains_verified: chains.iter().all(LocalChain::verify),
            chains,
        }
    }
}
