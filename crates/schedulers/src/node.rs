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
//! how to build one, what to lend it, how a round's samples become
//! report rows, what the report calls an epoch — is one [`Protocol`]
//! description, implemented by [`BdsProtocol`](crate::bds::BdsProtocol)
//! and [`FdsProtocol`](crate::fds::FdsProtocol). A host is generic over
//! it and contains no protocol logic.
//!
//! Two hosts exist. [`Sim`] is the simulator: `s` nodes, one
//! [`simnet::Network`] and the [`MetricsCollector`], stepped in shard
//! order on the caller's thread ([`BdsSim`](crate::bds::BdsSim) and
//! [`FdsSim`](crate::fds::FdsSim) are its two instances). `runtime::NetRun`
//! hosts the same nodes on worker threads over one mailbox per shard and
//! adds the fault plane. Both run the same code per shard, so fault-free
//! reports agree byte for byte given two ordering facts: either
//! transport hands a round's inbox out sorted by `(sender, per-sender
//! sequence)`, and decisions are booked in `(round, deciding shard,
//! emission index)` order — here by construction, there by the
//! runtime's replay.
//!
//! Most shard-rounds have nothing to do, so a node tells its host when
//! it next has work ([`Node::wake`]), and both hosts step a node in a
//! round only if its inbox is non-empty or the round has reached that
//! wake round. The contract makes skipping invisible: a step before the
//! wake round with an empty inbox would have been a no-op.

use crate::metrics::{MetricsCollector, RunReport, RunTotals};
use crate::scheduler::Scheduler;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::{LocalChain, Network, ShardLedger};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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

impl CommitEvent {
    /// Books the decision into `collector` and, for a commit, `log`.
    pub fn record(&self, collector: &mut MetricsCollector, log: &mut Vec<(Round, TxnId)>) {
        if self.committed {
            collector.record_commit(self.generated, self.commit_round, self.home);
            log.push((self.commit_round, self.txn));
        } else {
            collector.record_abort();
        }
    }
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
    /// [`Protocol::record_round`].
    fn sample(&self) -> [u64; 4];
}

/// What a host needs to know about a protocol beyond stepping its nodes.
/// A host consults the description while it builds a run; the two folds
/// are associated functions that read run-wide constants off a node, so
/// the simulator retains nothing of the description.
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

    /// Whether a run of this description is only defined without faults
    /// (the networked host refuses to arm a fault plan under it).
    fn fault_free_only(&self) -> bool {
        false
    }

    /// Books round `round`'s [`Node::sample`]s — every shard's, in shard
    /// order — into `collector` and returns the pending count. `node` is
    /// any node of the run. `faults` is the fault plane's `(cumulative
    /// Byzantine flips, shards crashed now)`, or `None` on a run with no
    /// fault plan armed — where the protocol may assert what only faults
    /// can break.
    fn record_round(
        node: &Self::Node,
        collector: &mut MetricsCollector,
        round: u64,
        samples: impl Iterator<Item = [u64; 4]>,
        faults: Option<(u64, u64)>,
    ) -> u64;

    /// The report's `(epochs, longest epoch)` after `rounds` rounds.
    fn epochs<'a>(nodes: impl Iterator<Item = &'a Self::Node>, rounds: u64) -> (u64, u64)
    where
        Self::Node: 'a;
}

/// Multiplicative hasher for the nodes' small-integer keys (`TxnId`,
/// `ShardId`). The default SipHash shows up in the per-round profiles;
/// these maps are internal (no untrusted keys), so a one-multiply
/// Fibonacci-style mix is plenty. Deterministic — but no map built on
/// it is ever iterated for its order anyway.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// One vote per destination of a transaction, recorded by the
/// destination's position in `txn.subs`: a repeated vote (a fault-plane
/// duplicate) overwrites and never counts twice, so faults may strand a
/// transaction but never decide it early. Transactions touching at most
/// 64 shards — all but contrived ones — allocate nothing.
#[derive(Debug)]
pub(crate) struct VoteSet {
    /// `[voted, commit]` bits of subs `0..64`.
    head: [u64; 2],
    /// The same pair for each further 64 subs (`k_max` may reach `s`).
    tail: Vec<[u64; 2]>,
    missing: usize,
}

impl VoteSet {
    pub(crate) fn new(subs: usize) -> Self {
        VoteSet {
            head: [0; 2],
            tail: vec![[0; 2]; subs.saturating_sub(1) / 64],
            missing: subs,
        }
    }

    /// Records the vote of `txn.subs[pos]`'s shard; true once every
    /// destination has voted.
    pub(crate) fn record(&mut self, pos: usize, commit: bool) -> bool {
        let word = match pos / 64 {
            0 => &mut self.head,
            w => &mut self.tail[w - 1],
        };
        let bit = 1u64 << (pos % 64);
        self.missing -= usize::from(word[0] & bit == 0);
        word[0] |= bit;
        word[1] = (word[1] & !bit) | (u64::from(commit) << (pos % 64));
        self.missing == 0
    }

    /// Whether every recorded vote is a commit.
    pub(crate) fn all_commit(&self) -> bool {
        std::iter::once(&self.head)
            .chain(&self.tail)
            .all(|w| w[0] == w[1])
    }
}

/// The simulator: `s` nodes of protocol `P`, one delay-queue network,
/// the ledgers, chains and policy it lends out, and the collector
/// decisions are booked into — everything driven from the caller's
/// thread, one [`Sim::step`] per round. Fault-free by construction.
pub struct Sim<P: Protocol> {
    pub(crate) nodes: Vec<P::Node>,
    net: Network<<P::Node as Node>::Msg>,
    ledgers: Vec<ShardLedger>,
    chains: Vec<LocalChain>,
    collector: MetricsCollector,
    committed_log: Vec<(Round, TxnId)>,
    /// Every node's [`Node::sample`] of the last round, taken right
    /// after its step while the node is still in cache.
    samples: Box<[[u64; 4]]>,
    now: Round,
    /// The planning policy lent to whichever node leads.
    policy: Box<dyn Scheduler>,
    generated: u64,
    /// What the last round's [`Protocol::record_round`] returned.
    pending: u64,
}

/// A node's [`Seam`] onto the simulator: sends enter the shared network,
/// decisions go straight into the collector.
struct SimSeam<'a, M> {
    net: &'a mut Network<M>,
    from: ShardId,
    now: Round,
    collector: &'a mut MetricsCollector,
    log: &'a mut Vec<(Round, TxnId)>,
}

impl<M: Clone> Seam<M> for SimSeam<'_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.net.send(self.from, to, self.now, msg);
    }
    fn emit(&mut self, event: CommitEvent) {
        event.record(self.collector, self.log);
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
            committed_log: Vec::new(),
            samples: vec![[0; 4]; sys.shards].into(),
            now: Round::ZERO,
            policy: proto.policy(sys),
            generated: 0,
            pending: 0,
        }
    }

    /// Current round.
    pub fn now(&self) -> Round {
        self.now
    }

    /// Pending transactions as of the last round, as the protocol counts
    /// them (BDS: the quantity Theorem 2 bounds by `4bs`).
    pub fn total_pending(&self) -> u64 {
        self.pending
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
        &self.committed_log
    }

    /// Turns the metrics plane on (percentile histogram, per-shard
    /// utilization, epoch timeline). Off by default; enabling it changes
    /// nothing about scheduling decisions or legacy report bytes.
    pub fn enable_metrics(&mut self) {
        self.collector.enable_metrics();
    }

    /// Executes one round: injects `new_txns` at their home shards, takes
    /// the due messages — already sorted by `(destination, sender,
    /// sequence)` — and, in shard order, steps each node that has a run
    /// of them or has reached its [`Node::wake`] round, which is the
    /// order the threaded host's replay reproduces; then samples every
    /// node and books the round. The drained delivery buffer goes back
    /// to the network for a later round's sends.
    pub fn step(&mut self, new_txns: Vec<Transaction>) {
        self.generated += new_txns.len() as u64;
        for t in new_txns {
            self.nodes[t.home.index()].inject(t);
        }
        let now = self.now;
        let mut delivered = self.net.deliver_due(now);
        let mut due = delivered.drain(..);
        let lent = self.ledgers.iter_mut().zip(&mut self.chains);
        let shards = self.nodes.iter_mut().zip(lent).zip(&mut self.samples);
        for (from, ((node, (ledger, chain)), sample)) in (0u32..).map(ShardId).zip(shards) {
            let mine = due.as_slice().iter().take_while(|e| e.to == from).count();
            if mine > 0 || now.raw() >= node.wake() {
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
                    log: &mut self.committed_log,
                };
                node.step(now.raw(), inbox, lent, &mut seam);
            }
            *sample = node.sample();
        }
        drop(due);
        self.net.recycle(delivered);
        self.now = now.next();
        let samples = self.samples.iter().copied();
        self.pending = P::record_round(
            &self.nodes[0],
            &mut self.collector,
            now.raw(),
            samples,
            None,
        );
    }

    /// Finalizes the run into a [`RunReport`], reported under the
    /// policy's kind.
    pub fn finish(self) -> RunReport {
        let (epochs, max_epoch_len) = P::epochs(self.nodes.iter(), self.now.raw());
        self.collector.finish(RunTotals {
            scheduler: self.policy.kind(),
            rounds: self.now.raw(),
            generated: self.generated,
            pending_at_end: self.pending,
            epochs,
            max_epoch_len,
            messages: self.net.sent_count(),
            max_message_bytes: self.net.max_message_bytes(),
        })
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
