//! One protocol node per shard, one description per protocol, hosted by
//! either engine.
//!
//! The paper specifies BDS and FDS as what *one shard* does in a round.
//! [`BdsNode`](crate::bds::BdsNode) and [`FdsNode`](crate::fds::FdsNode)
//! are exactly that, once each: a [`Node`] owns its shard's protocol
//! state, is advanced by one `step` per round, and reaches the world
//! outside its shard through the two operations of a [`Seam`] — send a
//! message to a shard, emit a commit/abort decision. What else a round
//! needs (the shard's ledger and chain, the planning policy) the host
//! lends for the step ([`Lent`]).
//!
//! Everything that differs between the two protocols *outside* a node —
//! how to build one, what to lend it, what a round's samples say about
//! the round, what the report calls an epoch — is one [`Protocol`]
//! description, implemented by [`BdsProtocol`](crate::bds::BdsProtocol)
//! and [`FdsProtocol`](crate::fds::FdsProtocol). A host is generic over
//! it and contains no protocol logic.
//!
//! Two hosts exist. [`Sim`] is the simulator: `s` nodes, one
//! [`simnet::Network`] and the run book, stepped in shard order on the
//! caller's thread ([`BdsSim`](crate::bds::BdsSim) and
//! [`FdsSim`](crate::fds::FdsSim) are its two instances). `runtime::NetRun`
//! hosts the same nodes on worker threads over one mailbox per shard.
//! Both make the same per-shard step, [`step_shard`] — the shard's share
//! of a fault plan ([`ShardFaults`]) around the node's step, which runs
//! only with mail or at the node's [`Node::wake`] round — send through
//! the same `simnet::Outbound`, and keep the same book, a
//! [`MetricsCollector`]: it books each decision, closes each round on
//! the [`RoundRow`] [`Protocol::round_row`] folds the shards' samples
//! into, and builds the report. So reports
//! agree byte for byte, faulted or not, given two ordering facts: either
//! transport hands a round's inbox out sorted by `(sender, per-sender
//! sequence)`, and decisions are booked in `(round, deciding shard,
//! emission index)` order. That order is each host's job: here a decision
//! is booked the moment it is emitted, there it waits in its shard's slot
//! until the round closes, and the close books the shards in order.

use crate::metrics::{MetricsCollector, RunReport};
use crate::scheduler::Scheduler;
use ::metrics::RoundRow;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::{FaultCounters, FaultPlan, LocalChain, Network, SendTally, ShardLedger};

/// One commit/abort decision, as the deciding shard saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Round the transaction was generated.
    pub generated: Round,
    /// Round the destinations append (or would have appended) it.
    pub commit_round: Round,
    /// The decided transaction.
    pub txn: TxnId,
    /// Its home shard.
    pub home: ShardId,
    /// Commit (`true`) or abort.
    pub committed: bool,
}

/// Everything a node does to the world outside its shard. The host
/// knows the sender and the round; delivery is `max(1, distance)` rounds
/// later.
pub trait Seam<M> {
    /// Sends `msg` from the stepping shard to `to`.
    fn send(&mut self, to: ShardId, msg: M);
    /// Reports a commit/abort decision taken this round.
    fn emit(&mut self, event: CommitEvent);
}

/// What a host lends a node for one step.
pub struct Lent<'a> {
    /// The shard's account balances.
    pub ledger: &'a mut ShardLedger,
    /// The shard's local blockchain.
    pub chain: &'a mut LocalChain,
    /// The planning policy, consulted only where the node leads. Plans
    /// are pure in `(epoch, batch)`, so one shared instance (simulator)
    /// and one per shard (runtime) are interchangeable.
    pub policy: &'a mut dyn Scheduler,
}

/// A per-shard protocol state machine.
pub trait Node {
    /// The protocol's message type.
    type Msg: Clone;

    /// Estimated wire size of a message in bytes (the paper bounds the
    /// worst case by `O(bs)`; both transports account with this).
    fn msg_bytes(msg: &Self::Msg) -> usize;

    /// Accepts a transaction generated at this (home) shard. Never needs
    /// a step of its own: the node acts on it at a round it wakes for.
    fn inject(&mut self, txn: Transaction);

    /// Executes round `round`: handles `inbox` (this round's deliveries
    /// as `(sender, message)`, in delivery order) and runs the round's
    /// phases, sealing the round's commits into `lent.chain`.
    fn step<S: Seam<Self::Msg>>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (ShardId, Self::Msg)>,
        lent: Lent<'_>,
        seam: &mut S,
    );

    /// The first round at which a step with an empty inbox may do
    /// anything. A step at any earlier round with an empty inbox is a
    /// no-op — it sends nothing, emits nothing, and leaves the node as
    /// skipping it would — so a host steps a node only when it has mail
    /// or `round >= wake()`. The default, 0, asks for every round.
    fn wake(&self) -> u64 {
        0
    }

    /// End-of-round counters, folded over all shards by
    /// [`Protocol::round_row`].
    fn sample(&self) -> [u64; 4];
}

/// What a host needs to know about a protocol beyond stepping its nodes.
/// A host consults the description while it builds a run; the rest are
/// associated functions that read run-wide constants off a node, so the
/// simulator retains nothing of the description.
pub trait Protocol {
    /// The per-shard state machine.
    type Node: Node;

    /// Initial balance of every account.
    fn initial_balance(&self) -> u64;

    /// The node of shard `id` over `metric`.
    fn node(&self, id: ShardId, metric: &dyn ShardMetric) -> Self::Node;

    /// A planning policy to lend where a node leads; its
    /// [`kind`](Scheduler::kind) is the kind the report carries. Plans
    /// are pure, so a host may build one or one per shard.
    fn policy(&self, sys: &SystemConfig) -> Box<dyn Scheduler>;

    /// Whether a run of `node` (any node of it) is only defined without
    /// faults: both hosts refuse to arm a fault plan under it.
    fn fault_free_only(_node: &Self::Node) -> bool {
        false
    }

    /// Folds round `round`'s [`Node::sample`]s — every shard's, in shard
    /// order — into the row [`MetricsCollector::close_round`] closes the
    /// round on. `node` is any node of the run. `faulty` says a fault plan
    /// is armed; without one the protocol may assert what only faults can
    /// break.
    fn round_row(
        node: &Self::Node,
        round: u64,
        samples: impl Iterator<Item = [u64; 4]>,
        faulty: bool,
    ) -> RoundRow;

    /// The report's `(epochs, longest epoch)` after `rounds` rounds.
    fn epochs<'a>(nodes: impl Iterator<Item = &'a Self::Node>, rounds: u64) -> (u64, u64)
    where
        Self::Node: 'a;
}

/// One shard's share of a [`FaultPlan`] (the links' share is
/// `simnet::Outbound`'s): its crash round, its Byzantine quota — counted
/// against its bound `f`, not executed, since under `n > 3f` no quota
/// can change a PBFT decision (DESIGN.md "Restrictions") — and its
/// counters.
#[derive(Debug, Clone)]
pub struct ShardFaults {
    /// `u64::MAX` for a shard that never crashes.
    crash_at: u64,
    flips: u64,
    /// `crashes` and `byz_flips` so far.
    counters: FaultCounters,
}

impl ShardFaults {
    /// The share of `shard`, whose PBFT membership declares `faulty`
    /// Byzantine nodes.
    pub fn new(plan: &FaultPlan, shard: ShardId, faulty: usize) -> Self {
        ShardFaults {
            crash_at: plan.crash_round(shard).map_or(u64::MAX, Round::raw),
            flips: plan.byz_flips_for(faulty) as u64,
            counters: FaultCounters::default(),
        }
    }

    /// The shard's part of the `faults` a host closes round `round` with
    /// ([`MetricsCollector::close_round`]): `[cumulative Byzantine flips,
    /// crashed now]`.
    pub fn sample(&self, round: u64) -> [u64; 2] {
        [self.counters.byz_flips, u64::from(round >= self.crash_at)]
    }

    /// A run's counters: the shards', plus the links' drops and duplicates.
    pub fn total<'a>(shards: impl Iterator<Item = &'a Self>, links: SendTally) -> FaultCounters {
        let mut total = FaultCounters::default();
        shards.for_each(|s| total.merge(&s.counters));
        (total.dropped, total.duplicated) = (links.dropped, links.duplicated);
        total
    }
}

/// Shard-round `round` of `node`, as both hosts make it (`faults` is
/// `None` where no plan is armed). From its crash round on a shard drops
/// its inbox and neither steps nor sends; a live shard counts its quota
/// and steps `node` if it has mail or has reached [`Node::wake`].
pub fn step_shard<N: Node>(
    node: &mut N,
    faults: Option<&mut ShardFaults>,
    round: u64,
    inbox: impl ExactSizeIterator<Item = (ShardId, N::Msg)>,
    lent: Lent<'_>,
    seam: &mut impl Seam<N::Msg>,
) {
    if let Some(faults) = faults {
        if round >= faults.crash_at {
            inbox.for_each(drop);
            faults.counters.crashes += u64::from(round == faults.crash_at);
            return;
        }
        faults.counters.byz_flips += faults.flips;
    }
    if inbox.len() > 0 || round >= node.wake() {
        node.step(round, inbox, lent, seam);
    }
}

/// The simulator: `s` nodes of protocol `P`, one delay-queue network,
/// the ledgers, chains and policy it lends out, and the run book
/// decisions are booked into as they are emitted — everything driven
/// from the caller's thread, one [`Sim::step`] per round. Fault-free
/// unless [`Sim::set_faults`] arms a plan.
pub struct Sim<P: Protocol> {
    pub(crate) nodes: Box<[P::Node]>,
    net: Network<<P::Node as Node>::Msg>,
    ledgers: Vec<ShardLedger>,
    chains: Vec<LocalChain>,
    /// The run book; its round count is the simulator's clock.
    collector: MetricsCollector,
    /// Every node's [`Node::sample`] of the last round, taken right
    /// after its step while the node is still in cache.
    samples: Box<[[u64; 4]]>,
    /// One [`ShardFaults`] per shard once [`Sim::set_faults`] arms a plan;
    /// until then `Err(f)`, the bound a plan's quota will be counted
    /// against — so an inert run allocates nothing for faults.
    faults: Result<Box<[ShardFaults]>, usize>,
    /// The planning policy lent to whichever node leads.
    policy: Box<dyn Scheduler>,
}

/// A node's [`Seam`] onto the simulator: sends enter the shared network,
/// decisions are booked the moment they are emitted.
struct SimSeam<'a, M> {
    net: &'a mut Network<M>,
    from: ShardId,
    now: Round,
    collector: &'a mut MetricsCollector,
}

impl<M: Clone> Seam<M> for SimSeam<'_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.net.send(self.from, to, self.now, msg);
    }
    fn emit(&mut self, event: CommitEvent) {
        self.collector.book(event);
    }
}

impl<P: Protocol> Sim<P> {
    /// Hosts `proto` over `metric`: one node, ledger and chain per
    /// shard, one shared policy.
    pub fn host(proto: &P, sys: &SystemConfig, map: &AccountMap, metric: &dyn ShardMetric) -> Self {
        sys.validate().expect("valid system config");
        assert_eq!(metric.shards(), sys.shards);
        let ids = || (0..sys.shards as u32).map(ShardId);
        let mut net = Network::new(metric);
        net.set_sizer(<P::Node as Node>::msg_bytes);
        Sim {
            nodes: ids().map(|id| proto.node(id, metric)).collect(),
            net,
            ledgers: ids()
                .map(|id| ShardLedger::new(id, map, proto.initial_balance()))
                .collect(),
            chains: ids().map(LocalChain::new).collect(),
            collector: MetricsCollector::new(sys.shards),
            samples: vec![[0; 4]; sys.shards].into(),
            faults: Err(sys.faulty_per_shard),
            policy: proto.policy(sys),
        }
    }

    /// Current round.
    pub fn now(&self) -> Round {
        self.collector.now()
    }

    /// Pending transactions as of the last round, as the protocol counts
    /// them (BDS: the quantity Theorem 2 bounds by `4bs`).
    pub fn total_pending(&self) -> u64 {
        self.collector.pending()
    }

    /// The local blockchains (one per shard).
    pub fn chains(&self) -> &[LocalChain] {
        &self.chains
    }

    /// The shard ledgers.
    pub fn ledgers(&self) -> &[ShardLedger] {
        &self.ledgers
    }

    /// Commit log: (commit round, transaction id) in commit order.
    pub fn committed_log(&self) -> &[(Round, TxnId)] {
        self.collector.committed_log()
    }

    /// Turns the metrics plane on (percentile histogram, per-shard
    /// utilization, epoch timeline). Off by default; enabling it changes
    /// nothing about scheduling decisions or legacy report bytes.
    pub fn enable_metrics(&mut self) {
        self.collector.enable_metrics();
    }

    /// Arms `plan` once, before the first step, as `runtime::NetRun`
    /// does: the links' streams ([`Network::set_faults`]) and each shard's
    /// [`ShardFaults`]. An inert plan changes nothing. Panics if the plan
    /// does not fit the system or the protocol is only defined fault-free.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        plan.validate(self.nodes.len()).expect("valid fault plan");
        if plan.is_inert() {
            return;
        }
        assert!(
            !P::fault_free_only(&self.nodes[0]),
            "this protocol description requires a fault-free run"
        );
        let Err(faulty) = self.faults else {
            panic!("a fault plan is armed once")
        };
        self.net.set_faults(plan.clone());
        let ids = (0..self.nodes.len() as u32).map(ShardId);
        self.faults = Ok(ids.map(|id| ShardFaults::new(plan, id, faulty)).collect());
    }

    /// Executes one round: injects `new_txns` at their home shards, takes
    /// the due messages — already sorted by `(destination, sender,
    /// sequence)` — and, in shard order, hands each shard its run of them
    /// through [`step_shard`], which is the order the threaded host's
    /// close books in; then samples every node and closes the round.
    /// The drained delivery buffer goes back to the network for a later
    /// round's sends.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        self.collector.book_generated(new_txns.len() as u64);
        for t in new_txns {
            self.nodes[t.home.index()].inject(t);
        }
        let now = self.collector.now();
        let mut delivered = self.net.deliver_due(now);
        let mut due = delivered.drain(..);
        let mut faults = self.faults.as_deref_mut().unwrap_or_default().iter_mut();
        let lent = self.ledgers.iter_mut().zip(&mut self.chains);
        let shards = self.nodes.iter_mut().zip(lent).zip(&mut self.samples);
        for (from, ((node, (ledger, chain)), sample)) in (0u32..).map(ShardId).zip(shards) {
            let mine = due.as_slice().iter().take_while(|e| e.to == from).count();
            let inbox = due.by_ref().take(mine).map(|e| (e.from, e.payload));
            let lent = Lent {
                ledger,
                chain,
                policy: self.policy.as_mut(),
            };
            let mut seam = SimSeam {
                net: &mut self.net,
                from,
                now,
                collector: &mut self.collector,
            };
            step_shard(node, faults.next(), now.raw(), inbox, lent, &mut seam);
            *sample = node.sample();
        }
        drop(due);
        self.net.recycle(delivered);
        let faults = self.faults.as_deref().ok();
        let faults = faults.map(|shards| shards.iter().map(|s| s.sample(now.raw())));
        let samples = self.samples.iter().copied();
        self.collector
            .close_round::<P>(&self.nodes[0], samples, faults);
    }

    /// Finalizes the run into a [`RunReport`], reported under the
    /// policy's kind.
    pub fn finish(self) -> RunReport {
        let epochs = P::epochs(self.nodes.iter(), self.collector.now().raw());
        let faults = self.faults.as_deref().unwrap_or_default().iter();
        let (kind, links) = (self.policy.kind(), self.net.tally());
        self.collector.finish(kind, epochs, links, faults).0
    }
}

/// The [`Seam`] of the node-level unit tests: records what a node sends
/// and emits, with no transport behind it.
#[cfg(test)]
pub(crate) struct Script<M> {
    pub(crate) sent: Vec<(ShardId, M)>,
    pub(crate) events: Vec<CommitEvent>,
}

#[cfg(test)]
impl<M> Default for Script<M> {
    fn default() -> Self {
        Script {
            sent: Vec::new(),
            events: Vec::new(),
        }
    }
}

#[cfg(test)]
impl<M> Seam<M> for Script<M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.sent.push((to, msg));
    }
    fn emit(&mut self, event: CommitEvent) {
        self.events.push(event);
    }
}
