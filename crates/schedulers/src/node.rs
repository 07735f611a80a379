//! One protocol node per shard, hosted by either engine.
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
//! Two hosts exist. `SimHost` (private; [`BdsSim`](crate::bds::BdsSim) and
//! [`FdsSim`](crate::fds::FdsSim) wrap it) is the simulator: `s` nodes, one
//! [`simnet::Network`] and the [`MetricsCollector`], stepped in shard
//! order on the caller's thread. The `runtime` crate hosts the same
//! nodes on worker threads over lock-free rings and adds the fault
//! plane. Both run the same code per shard, so fault-free reports agree
//! byte for byte given two ordering facts: either transport hands a
//! round's inbox out sorted by `(sender, per-sender sequence)`, and
//! decisions are booked in `(round, deciding shard, emission index)`
//! order — here by construction, there by the runtime's replay.

use crate::metrics::{MetricsCollector, RunReport, SchedulerKind};
use crate::scheduler::Scheduler;
use cluster::ShardMetric;
use sharding_core::{AccountMap, Round, ShardId, Transaction, TxnId};
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

    /// Accepts a transaction generated at this (home) shard.
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

    /// End-of-round counters, folded over all shards by the protocol's
    /// `record_round`.
    fn sample(&self) -> [u64; 4];
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

/// The simulator host: `s` nodes, one delay-queue network, the ledgers
/// and chains it lends out, and the collector decisions are booked into
/// — everything driven from the caller's thread.
pub(crate) struct SimHost<N: Node> {
    pub(crate) nodes: Vec<N>,
    net: Network<N::Msg>,
    pub(crate) ledgers: Vec<ShardLedger>,
    pub(crate) chains: Vec<LocalChain>,
    pub(crate) collector: MetricsCollector,
    pub(crate) committed_log: Vec<(Round, TxnId)>,
    /// Every node's [`Node::sample`] of the last round, taken right
    /// after its step while the node is still in cache.
    pub(crate) samples: Vec<[u64; 4]>,
    pub(crate) now: Round,
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

impl<N: Node> SimHost<N> {
    pub(crate) fn new(
        metric: &dyn ShardMetric,
        map: &AccountMap,
        initial_balance: u64,
        node: impl FnMut(ShardId) -> N,
    ) -> Self {
        let ids = || (0..metric.shards() as u32).map(ShardId);
        let mut net = Network::new(metric);
        net.set_sizer(N::msg_bytes);
        SimHost {
            nodes: ids().map(node).collect(),
            net,
            ledgers: ids()
                .map(|id| ShardLedger::new(id, map, initial_balance))
                .collect(),
            chains: ids().map(LocalChain::new).collect(),
            collector: MetricsCollector::new(metric.shards()),
            committed_log: Vec::new(),
            samples: vec![[0; 4]; metric.shards()],
            now: Round::ZERO,
        }
    }

    /// One round: takes the due messages — already sorted by
    /// `(destination, sender, sequence)` — and steps every node in shard
    /// order on its run of them, which is the order the threaded host's
    /// replay reproduces.
    pub(crate) fn round(&mut self, policy: &mut dyn Scheduler) {
        let now = self.now;
        let mut due = self.net.deliver_due(now).into_iter();
        let lent = self.ledgers.iter_mut().zip(&mut self.chains);
        let shards = self.nodes.iter_mut().zip(lent).zip(&mut self.samples);
        for (from, ((node, (ledger, chain)), sample)) in (0u32..).map(ShardId).zip(shards) {
            let mine = due.as_slice().iter().take_while(|e| e.to == from).count();
            let inbox = due.by_ref().take(mine).map(|e| (e.from, e.payload));
            let lent = Lent {
                ledger,
                chain,
                policy: &mut *policy,
            };
            let mut seam = SimSeam {
                net: &mut self.net,
                from,
                now,
                collector: &mut self.collector,
                log: &mut self.committed_log,
            };
            node.step(now.raw(), inbox, lent, &mut seam);
            *sample = node.sample();
        }
        self.now = now.next();
    }

    /// Finalizes the collector with the network's message counters.
    pub(crate) fn finish(
        self,
        kind: SchedulerKind,
        generated: u64,
        pending: u64,
        epochs: u64,
        max_epoch_len: u64,
    ) -> RunReport {
        self.collector.finish(
            kind,
            self.now.raw(),
            generated,
            pending,
            epochs,
            max_epoch_len,
            self.net.sent_count(),
            self.net.max_message_bytes(),
        )
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
