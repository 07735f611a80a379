//! The threaded host of a protocol [`Node`]: what is genuinely about
//! the transport and the fault plane, once for both protocols.
//!
//! `schedulers::node::SimHost` steps `s` nodes in shard order on one
//! thread; [`run`] steps the same nodes concurrently. Each shard is one
//! [`run_lockstep`] slot holding its node, the ledger, chain and policy
//! it lends it, its [`NetHub`] endpoints and its column of the
//! pre-generated workload. On top of the node's step the host adds what
//! the simulator never has: crash rounds (a dead shard keeps draining so
//! ring memory stays bounded, but neither processes nor sends), one PBFT
//! instance per shard-round with the plan's Byzantine voters flipped in,
//! and the fault counters.
//!
//! Worker threads finish a round's shards in no particular order, so a
//! node's decisions and end-of-round samples are buffered per shard and
//! merged afterwards ([`HostRun::finish`]) in `(round, shard, emission
//! index)` order — the order the simulator books them in directly.
//! Together with the hub's `(sender, sequence)` hand-out that makes a
//! fault-free report byte-identical to the simulator's, floating-point
//! means included, for any worker count.

use crate::exec::run_lockstep;
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::RoundSource;
use cluster::ShardMetric;
use parking_lot::Mutex;
use schedulers::metrics::{MetricsCollector, RunReport, SchedulerKind};
use schedulers::node::{CommitEvent, Lent, Node, Seam};
use schedulers::scheduler::Scheduler;
use sharding_core::{Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::{FaultCounters, FaultPlan};
use simnet::pbft::{ConsensusOutcome, PbftShard};
use simnet::{LocalChain, ShardLedger};

/// The result of a networked run: the standard report plus the raw
/// commit log for round-for-round cross-validation.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// The standard per-run report (byte-identical to the simulator's on
    /// fault-free runs, fault counters filled in otherwise).
    pub report: RunReport,
    /// `(commit round, txn)` in global decision order.
    pub committed_log: Vec<(Round, TxnId)>,
    /// Whether every shard's local chain verified after the run.
    pub chains_verified: bool,
    /// `(lost, double_committed)` from the table-independent audit over
    /// the local chains and the commit log; `Some` exactly when the run
    /// executed a reshard plan, and both components must be 0.
    pub reshard_audit: Option<(u64, u64)>,
}

/// One shard of a finished run.
pub(crate) struct Hosted<N> {
    pub(crate) node: N,
    chain: LocalChain,
    /// `(round emitted, decision)`, in emission order.
    events: Vec<(u64, CommitEvent)>,
    /// Per round: the node's sample, then the shard's cumulative
    /// Byzantine flips and its crashed-now flag.
    samples: Vec<[u64; 6]>,
    counters: FaultCounters,
}

/// A finished run before the merge: the shards in shard order, plus the
/// hub's message-plane totals.
pub(crate) struct HostRun<N> {
    pub(crate) shards: Vec<Hosted<N>>,
    rounds: u64,
    generated: u64,
    sent: u64,
    max_message_bytes: u64,
    dropped: u64,
    duplicated: u64,
}

/// A node's [`Seam`] onto the hub: sends leave through the shard's port
/// (where the link's fault stream may drop or duplicate them), decisions
/// are buffered for the ordered replay.
struct NetSeam<'a, 'h, M> {
    port: &'a mut ShardPort<'h, M>,
    round: u64,
    events: &'a mut Vec<(u64, CommitEvent)>,
}

impl<M: Clone> Seam<M> for NetSeam<'_, '_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.port.send(to, self.round, msg);
    }
    fn emit(&mut self, event: CommitEvent) {
        self.events.push((self.round, event));
    }
}

/// Runs one node per shard for `rounds` rounds on `workers` threads.
///
/// The source is drained up front, round by round — exactly the order
/// the simulator drains it live, so a deterministic source yields the
/// same batches on both engines while generation stays off the executed
/// rounds — and partitioned per `(home shard, round)` so each slot owns
/// its column and moves every batch out. `shard` builds a shard's node
/// with the ledger and planning policy lent to it each round.
pub(crate) fn run<N>(
    sys: &SystemConfig,
    metric: &dyn ShardMetric,
    faults: &FaultPlan,
    source: &mut dyn RoundSource,
    rounds: Round,
    workers: usize,
    mut shard: impl FnMut(ShardId) -> (N, ShardLedger, Box<dyn Scheduler>),
) -> HostRun<N>
where
    N: Node + Send,
    N::Msg: Send,
{
    sys.validate().expect("valid system config");
    assert_eq!(metric.shards(), sys.shards);
    faults.validate(sys.shards).expect("valid fault plan");
    let total = rounds.raw();

    let mut inject = vec![vec![Vec::new(); total as usize]; sys.shards];
    let mut generated = 0u64;
    for r in 0..total {
        for t in source.next_round(Round(r)) {
            generated += 1;
            inject[t.home.index()][r as usize].push(t);
        }
    }

    struct Slot<'h, N: Node> {
        out: Hosted<N>,
        ledger: ShardLedger,
        policy: Box<dyn Scheduler>,
        pbft: PbftShard,
        port: ShardPort<'h, N::Msg>,
        inbox: NetInbox<N::Msg>,
        inject: Vec<Vec<Transaction>>,
        /// The reusable drain buffer.
        buf: Vec<NetEnvelope<N::Msg>>,
        crash_at: Option<u64>,
    }
    let hub = NetHub::new(metric, N::msg_bytes).expect("validated: at least one shard");
    let gate = RoundGate::new(sys.shards);
    let slots: Vec<Mutex<Slot<'_, N>>> = (0u32..)
        .map(ShardId)
        .zip(inject)
        .map(|(id, inject)| {
            let (node, ledger, policy) = shard(id);
            Mutex::new(Slot {
                out: Hosted {
                    node,
                    chain: LocalChain::new(id),
                    events: Vec::new(),
                    samples: Vec::with_capacity(total as usize),
                    counters: FaultCounters::default(),
                },
                ledger,
                policy,
                pbft: PbftShard::new(id, sys.nodes_per_shard, sys.faulty_per_shard)
                    .expect("validated config"),
                port: ShardPort::new(&hub, id, faults),
                inbox: NetInbox::new(&hub, id),
                inject,
                buf: Vec::new(),
                crash_at: faults.crash_round(id).map(|r| r.raw()),
            })
        })
        .collect();

    run_lockstep(&gate, &slots, total, workers, |slot, shard, round| {
        let out = &mut slot.out;
        if slot.crash_at == Some(round) {
            out.counters.crashes += 1;
        }
        let crashed = slot.crash_at.is_some_and(|c| round >= c);
        // Generated work accumulates even on a crashed shard (it counts
        // as pending, unserviced).
        for t in std::mem::take(&mut slot.inject[round as usize]) {
            out.node.inject(t);
        }
        // The executor only runs this once every peer finished round-1
        // sends; the drain then sees all of them.
        slot.inbox.drain_into(round, &mut slot.buf);
        if crashed {
            slot.buf.clear();
        } else {
            // Intra-shard consensus on this round's inbox digest — the
            // paper's round abstraction executed for real, with the
            // plan's Byzantine voters flipped in. Purely local: it never
            // touches the report, so fault-free byte-identity holds.
            let digest = round ^ ((slot.buf.len() as u64) << 32) ^ shard as u64;
            let flips = faults.byz_flips_for(slot.pbft.faulty());
            let outcome = slot.pbft.decide_with_byzantine(digest, flips);
            debug_assert_eq!(outcome, ConsensusOutcome::Decided(digest));
            out.counters.byz_flips += flips as u64;

            let inbox = slot.buf.drain(..).map(|env| (env.from, env.payload));
            let lent = Lent {
                ledger: &mut slot.ledger,
                chain: &mut out.chain,
                policy: slot.policy.as_mut(),
            };
            let mut seam = NetSeam {
                port: &mut slot.port,
                round,
                events: &mut out.events,
            };
            out.node.step(round, inbox, lent, &mut seam);
        }
        let [a, b, c, d] = out.node.sample();
        let byz = out.counters.byz_flips;
        out.samples.push([a, b, c, d, byz, u64::from(crashed)]);
    });

    // Consuming a slot drops its port, flushing the shard's local message
    // tallies into the hub before the counters are read below.
    let shards = slots.into_iter().map(|s| s.into_inner().out).collect();
    HostRun {
        shards,
        rounds: total,
        generated,
        sent: hub.sent_count(),
        max_message_bytes: hub.max_message_bytes(),
        dropped: hub.dropped_count(),
        duplicated: hub.duplicated_count(),
    }
}

impl<N> HostRun<N> {
    /// Merges the run into its outcome. Round by round, every shard's
    /// decisions are booked in shard order (latency statistics then
    /// accumulate in exactly the simulator's push order, so the
    /// floating-point mean is bit-equal), then `record` books the round:
    /// it gets the round, the nodes' samples in shard order, the summed
    /// Byzantine flips and the crashed-shard count, and returns the
    /// pending count, whose last value the report carries. `epochs` is
    /// the report's `(epochs, longest epoch)`; `audit` runs the reshard
    /// loss/duplication audit over the chains.
    pub(crate) fn finish(
        self,
        kind: SchedulerKind,
        metrics: bool,
        epochs: (u64, u64),
        audit: bool,
        mut record: impl FnMut(
            &mut MetricsCollector,
            u64,
            &mut dyn Iterator<Item = [u64; 4]>,
            u64,
            u64,
        ) -> u64,
    ) -> NetOutcome {
        let mut collector = MetricsCollector::new(self.shards.len());
        if metrics {
            collector.enable_metrics();
        }
        let mut log = Vec::new();
        let mut cursors = vec![0usize; self.shards.len()];
        let mut pending = 0;
        for round in 0..self.rounds {
            for (shard, cursor) in self.shards.iter().zip(&mut cursors) {
                while let Some((_, event)) = shard.events.get(*cursor).filter(|e| e.0 == round) {
                    event.record(&mut collector, &mut log);
                    *cursor += 1;
                }
            }
            let at = |h: &Hosted<N>| h.samples[round as usize];
            let byz = self.shards.iter().map(|h| at(h)[4]).sum();
            let crashed = self.shards.iter().map(|h| at(h)[5]).sum();
            let mut samples = self.shards.iter().map(|h| {
                let [a, b, c, d, ..] = at(h);
                [a, b, c, d]
            });
            pending = record(&mut collector, round, &mut samples, byz, crashed);
        }

        let mut report = collector.finish(
            kind,
            self.rounds,
            self.generated,
            pending,
            epochs.0,
            epochs.1,
            self.sent,
            self.max_message_bytes,
        );
        for shard in &self.shards {
            report.faults.merge(&shard.counters);
        }
        report.faults.dropped = self.dropped;
        report.faults.duplicated = self.duplicated;
        let chains: Vec<LocalChain> = self.shards.into_iter().map(|h| h.chain).collect();
        NetOutcome {
            report,
            chains_verified: chains.iter().all(LocalChain::verify),
            reshard_audit: audit.then(|| simnet::reshard_audit(&chains, &log)),
            committed_log: log,
        }
    }
}
