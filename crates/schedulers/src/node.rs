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
//! Two hosts exist: [`Sim`], the simulator, steps `s` shards in shard
//! order on the caller's thread over one [`simnet::Network`]
//! ([`BdsSim`](crate::bds::BdsSim) and [`FdsSim`](crate::fds::FdsSim) are
//! its two instances); `runtime::NetRun` steps them on worker threads over
//! one mailbox per shard. Both build their [`Shard`]s with [`Shard::all`],
//! run each shard-round through [`Shard::step`] (the crash, the node's
//! step if it has mail or has reached [`Node::wake`], the sample), send
//! through `simnet::Outbound` and book into one [`MetricsCollector`]. So
//! reports agree byte for byte, faulted or not, given two ordering facts:
//! either transport hands a round's inbox out sorted by `(sender,
//! per-sender sequence)`, and decisions are booked in `(round, deciding
//! shard, emission index)` order — the simulator books them as they are
//! emitted, the threaded host from each shard's slot, in shard order, when
//! the round closes.

use crate::metrics::{MetricsCollector, RunReport};
use crate::scheduler::Scheduler;
use ::metrics::RoundRow;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::{FaultPlan, LocalChain, Network, ShardLedger};

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
    /// faults: [`Shard::all`] refuses a live fault plan under it.
    fn fault_free_only(_node: &Self::Node) -> bool {
        false
    }

    /// Folds round `round`'s [`Node::sample`]s — every shard's, in shard
    /// order — into the row [`MetricsCollector::close_shards`] closes the
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

/// One shard of a run, as both hosts keep it: its node and ledger and the
/// node's last [`Node::sample`]. The host keeps the chain and lends it per
/// step, and the run's [`RunFaults`] once for every shard.
pub struct Shard<N> {
    /// The shard's protocol node.
    pub node: N,
    /// The shard's account balances.
    pub ledger: ShardLedger,
    /// The node's sample after its last step.
    pub(crate) sample: [u64; 4],
}

/// A node's [`Seam`] onto its host: the host's send and emit.
impl<M, S: FnMut(ShardId, M), E: FnMut(CommitEvent)> Seam<M> for (S, E) {
    fn send(&mut self, to: ShardId, msg: M) {
        (self.0)(to, msg);
    }
    fn emit(&mut self, event: CommitEvent) {
        (self.1)(event);
    }
}

/// A run's fault plan as its shards live it, kept once per run: each
/// shard's crash round (none kept for an inert plan) and the Byzantine
/// quota a live shard counts, not executes, each round (DESIGN.md
/// "Restrictions": under `n > 3f` no quota changes a PBFT decision).
pub struct RunFaults {
    crash_at: Box<[u64]>,
    flips: u64,
    /// Whether the plan is live at all.
    pub(crate) live: bool,
}

impl RunFaults {
    /// `[Byzantine votes counted, shards crashed]` in the run's first
    /// `rounds` rounds: a shard counts its quota once a live round, and its
    /// crash once its crash round has been run.
    pub(crate) fn count(&self, rounds: u64) -> [u64; 2] {
        self.crash_at.iter().fold([0, 0], |[f, c], &at| {
            [f + self.flips * rounds.min(at), c + u64::from(rounds > at)]
        })
    }
}

impl<N: Node> Shard<N> {
    /// Every shard of `proto` over `metric`, in shard order, and what
    /// `plan` does to them. Panics if the system, metric or plan do not
    /// fit, or if the plan is live and `proto` is only defined fault-free.
    pub fn all<P: Protocol<Node = N>>(
        proto: &P,
        sys: &SystemConfig,
        map: &AccountMap,
        metric: &dyn ShardMetric,
        plan: &FaultPlan,
    ) -> (Vec<Self>, RunFaults) {
        sys.validate().expect("valid system config");
        assert_eq!(metric.shards(), sys.shards);
        plan.validate(sys.shards).expect("valid fault plan");
        let shards: Vec<Self> = (0..sys.shards as u32)
            .map(ShardId)
            .map(|id| Shard {
                node: proto.node(id, metric),
                ledger: ShardLedger::new(id, map, proto.initial_balance()),
                sample: [0; 4],
            })
            .collect();
        let live = !plan.is_inert();
        assert!(
            !live || !P::fault_free_only(&shards[0].node),
            "this protocol description requires a fault-free run"
        );
        let crash = |id| plan.crash_round(id).map_or(u64::MAX, Round::raw);
        let faults = RunFaults {
            crash_at: match live {
                true => (0..sys.shards as u32).map(ShardId).map(crash).collect(),
                false => Box::default(),
            },
            flips: plan.byz_flips_for(sys.faulty_per_shard) as u64,
            live,
        };
        (shards, faults)
    }

    /// Shard-round `round`, as both hosts make it. From its crash round
    /// under `faults` on the shard drops its inbox and neither steps nor
    /// sends; a live shard steps its node — lent `chain` and `policy`,
    /// sending and reporting through the host's `(send, emit)` — if it has
    /// mail or has reached [`Node::wake`]. Either way the node is sampled.
    pub fn step(
        &mut self,
        round: u64,
        faults: &RunFaults,
        inbox: impl ExactSizeIterator<Item = (ShardId, N::Msg)>,
        chain: &mut LocalChain,
        policy: &mut dyn Scheduler,
        mut seam: (impl FnMut(ShardId, N::Msg), impl FnMut(CommitEvent)),
    ) {
        let crash_at = faults.crash_at.get(self.ledger.shard().index());
        if round >= *crash_at.unwrap_or(&u64::MAX) {
            inbox.for_each(drop);
        } else if inbox.len() > 0 || round >= self.node.wake() {
            let lent = Lent {
                ledger: &mut self.ledger,
                chain,
                policy,
            };
            self.node.step(round, inbox, lent, &mut seam);
        }
        self.sample = self.node.sample();
    }
}

/// The simulator: `s` [`Shard`]s of protocol `P` and their chains, one
/// delay-queue network, the policy it lends out, and the run book
/// decisions are booked into as they are emitted — everything driven
/// from the caller's thread, one [`Sim::step`] per round.
pub struct Sim<P: Protocol> {
    pub(crate) shards: Box<[Shard<P::Node>]>,
    faults: RunFaults,
    net: Network<<P::Node as Node>::Msg>,
    chains: Vec<LocalChain>,
    /// The run book; its round count is the simulator's clock.
    collector: MetricsCollector,
    /// The planning policy lent to whichever node leads.
    policy: Box<dyn Scheduler>,
}

impl<P: Protocol> Sim<P> {
    /// Hosts `proto` over `metric` under `plan` ([`FaultPlan::default`] is
    /// inert): one [`Shard`] and chain per shard, one shared policy.
    pub fn host(
        proto: &P,
        sys: &SystemConfig,
        map: &AccountMap,
        metric: &dyn ShardMetric,
        plan: &FaultPlan,
    ) -> Self {
        let (shards, faults) = Shard::all(proto, sys, map, metric, plan);
        let chains = (0..sys.shards as u32).map(ShardId).map(LocalChain::new);
        let mut net = Network::new(metric);
        net.set_sizer(<P::Node as Node>::msg_bytes);
        net.set_faults(plan.clone());
        Sim {
            shards: shards.into(),
            faults,
            net,
            chains: chains.collect(),
            collector: MetricsCollector::new(sys.shards),
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

    /// The shard ledgers, in shard order.
    pub fn ledgers(&self) -> impl Iterator<Item = &ShardLedger> {
        self.shards.iter().map(|shard| &shard.ledger)
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

    /// Executes one round: injects `new_txns` at their home shards, hands
    /// each shard, in shard order, its run of the due messages (sorted by
    /// `(destination, sender, sequence)`) through [`Shard::step`], booking
    /// each decision as it is emitted, and closes the round. The drained
    /// delivery buffer goes back to the network for later sends.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        self.collector.book_generated(new_txns.len() as u64);
        for t in new_txns {
            self.shards[t.home.index()].node.inject(t);
        }
        let now = self.collector.now();
        let mut delivered = self.net.deliver_due(now);
        let mut due = delivered.drain(..);
        let shards = self.shards.iter_mut().zip(&mut self.chains);
        for (from, (shard, chain)) in (0u32..).map(ShardId).zip(shards) {
            let mine = due.as_slice().iter().take_while(|e| e.to == from).count();
            let inbox = due.by_ref().take(mine).map(|e| (e.from, e.payload));
            let send = |to, msg| self.net.send(from, to, now, msg);
            let emit = |event| self.collector.book(event);
            let (faults, policy) = (&self.faults, self.policy.as_mut());
            shard.step(now.raw(), faults, inbox, chain, policy, (send, emit));
        }
        drop(due);
        self.net.recycle(delivered);
        self.collector
            .close_shards::<P>(self.shards.iter(), &self.faults);
    }

    /// Finalizes the run into a [`RunReport`], reported under the
    /// policy's kind.
    pub fn finish(self) -> RunReport {
        let (kind, links) = (self.policy.kind(), self.net.tally());
        let shards = self.shards.iter();
        self.collector
            .finish_shards::<P>(kind, shards, links, &self.faults)
            .0
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
