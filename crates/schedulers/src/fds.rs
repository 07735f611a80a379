//! **Algorithm 2 — Fully Distributed Scheduler (FDS)** for the non-uniform
//! communication model (Section 6 of the paper).
//!
//! No central authority: the shard graph is decomposed into the
//! hierarchical sparse cover of [`cluster::Hierarchy`] (layers `0..H1`,
//! sublayers `0..H2`, each cluster with a designated leader). Every
//! transaction `T` is assigned a *home cluster* — the lowest-level cluster
//! containing the whole `x`-neighborhood of its home shard, where `x` is
//! `T`'s worst access distance — and is scheduled by that cluster's leader.
//!
//! **Epochs and rescheduling periods.** Layer `i` has epoch length
//! `E_i = 2^i · E_0` with `E_0 = ⌈log₂ s⌉`; epochs of all layers are
//! aligned. Rescheduling periods `P_k = 2^k · E_0` likewise. Each epoch of
//! a cluster at layer `i` runs Algorithm 2a:
//!
//! 1. home shards send new transactions to the cluster leader (≤ `d_i`
//!    rounds);
//! 2. the leader colors — only the newly received transactions normally,
//!    or *everything still uncommitted* when the epoch end coincides with
//!    a rescheduling period `P_k, k > i`;
//! 3. subtransactions travel to the destination shards (≤ `d_i` rounds),
//!    which insert them into their schedule queues `sch_qd`, ordered
//!    lexicographically by *height* `(t_end, layer, sublayer, color, id)`.
//!
//! Algorithm 2b runs continuously at the destinations: each round a
//! destination votes for the smallest-height subtransaction it has not
//! yet voted for; the cluster leader collects one vote per destination
//! shard and broadcasts commit/abort confirmations, at which point the
//! destinations append to their local chains.
//!
//! **Implementation note (cross-cluster liveness).** The paper's Step 1
//! ("pick one subtransaction from the head") reads as strictly blocking:
//! a destination would wait for the confirmation of its current head
//! before voting again. With multiple independent cluster leaders, two
//! destinations can then wait on each other's transactions forever when
//! schedule messages race (A votes `T` before `T'` arrives, B votes `T'`
//! before `T` arrives, and each leader waits for the other destination).
//! We resolve this underspecification by *windowed pipelined voting*
//! ([`FdsConfig::pipeline_window`]): a destination keeps up to `W`
//! voted-but-unconfirmed subtransactions outstanding, issuing at most one
//! new vote per round (the one-subtransaction-per-shard-per-round
//! capacity), always for the smallest-height unvoted entry. `W = 1` is
//! the strict blocking reading — measurably throughput-infeasible at the
//! paper's scale (see EXPERIMENTS.md); the default `W = 16` matches the
//! stability range the paper's Figure 3 reports. Priority (height) order
//! still governs which transactions are voted first, so the analysis's
//! per-period accounting is preserved.
//!
//! The algorithm is written once, as what one shard does in a round:
//! [`FdsNode`]. What a host needs to know around it — the shared cluster
//! hierarchy every node is built over, the coloring policy, how a
//! round's samples are booked — is [`FdsProtocol`]; [`FdsSim`] is the
//! generic simulator hosting it (see [`crate::node`]), and the `runtime`
//! crate hosts the same description on worker threads.

use crate::metrics::{RunReport, SchedulerKind};
use crate::node::{CommitEvent, Lent, Node, Protocol, Seam, Sim};
use crate::scheduler::{ColoringPolicy, Scheduler};
use crate::votes::VoteSet;
use ::metrics::RoundRow;
use adversary::AdversaryConfig;
use cluster::{ClusterId, Hierarchy, LineMetric, ShardMetric};
use conflict::ColoringStrategy;
use sharding_core::hash::{FastMap, FastSet};
use sharding_core::txn::SubTransaction;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::{FaultPlan, ShardLedger};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// FDS tunables.
#[derive(Debug, Clone, Copy)]
pub struct FdsConfig {
    /// Sublayers `H2` of the hierarchy (paper simulation: 2).
    pub sublayers: usize,
    /// Enable rescheduling periods (paper: yes; off for the ablation).
    pub reschedule: bool,
    /// Vote pipeline window `W ≥ 1`: the maximum number of voted-but-
    /// unconfirmed subtransactions a destination keeps outstanding. Each
    /// round a destination issues at most one new vote (the capacity
    /// constraint), for its smallest-height unvoted subtransaction, and
    /// only while fewer than `W` votes are outstanding.
    ///
    /// `W = 1` is the strict literal reading of Algorithm 2b step 1
    /// ("pick one subtransaction from the head, wait for confirmation"):
    /// per-destination service is one transaction per `2d+1`-round
    /// round-trip. Unbounded `W` is full pipelining. The default `W = 16`
    /// reproduces the paper's Figure 3 regime — FDS stable up to a rate
    /// slightly above BDS's empirical threshold, then degrading much
    /// faster than BDS through the confirm round-trips. The ablation
    /// benches sweep `W`.
    pub pipeline_window: usize,
    /// Coloring algorithm used by cluster leaders.
    pub coloring: ColoringStrategy,
    /// Initial balance of every account.
    pub initial_balance: u64,
}

impl Default for FdsConfig {
    fn default() -> Self {
        FdsConfig {
            sublayers: 2,
            reschedule: true,
            pipeline_window: 16,
            coloring: ColoringStrategy::Greedy,
            initial_balance: 1_000_000,
        }
    }
}

/// The lexicographic priority of a scheduled transaction:
/// `(t_end, layer, sublayer, color, txn id)`. Lower sorts first and
/// commits first. The trailing id makes heights unique, giving every
/// destination shard the identical total order the paper requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Height {
    /// End round of the epoch in which the transaction was (re)colored.
    pub t_end: u64,
    /// Home-cluster layer.
    pub layer: u32,
    /// Home-cluster sublayer.
    pub sublayer: u32,
    /// Assigned color.
    pub color: u32,
    /// Transaction id tie-break.
    pub txn: TxnId,
}

/// Messages of the FDS protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Home shard → cluster leader: a new transaction to schedule. The
    /// leader shard can lead several clusters; it re-derives the home
    /// cluster on arrival (cheap, deterministic, memoized).
    ToLeader {
        /// The transaction.
        txn: Transaction,
    },
    /// Leader → destination: scheduled subtransaction with its height.
    Schedule {
        /// The destination's piece of the transaction.
        sub: SubTransaction,
        /// Its priority in the destination's schedule queue.
        height: Height,
        /// Where votes for it go.
        leader: ShardId,
    },
    /// Destination → leader: validity vote for one subtransaction.
    Vote {
        /// The voted transaction.
        txn: TxnId,
        /// Whether the destination's conditions hold.
        commit: bool,
    },
    /// Leader → destination: final commit/abort confirmation.
    Confirm {
        /// The confirmed transaction.
        txn: TxnId,
        /// Commit (`true`) or abort.
        commit: bool,
    },
}

/// Per-transaction state at its cluster leader (`sch_ldr` entry).
#[derive(Debug)]
struct LeaderEntry {
    txn: Transaction,
    votes: VoteSet,
}

/// Scheduling state of one cluster leader.
#[derive(Debug, Default)]
struct LeaderState {
    /// Transactions received from home shards, awaiting the next coloring.
    incoming: Vec<Transaction>,
    /// Scheduled but not yet confirmed transactions.
    sch_ldr: BTreeMap<TxnId, LeaderEntry>,
}

/// Schedule-queue state of one destination shard.
#[derive(Debug, Default)]
struct DestState {
    /// `sch_qd`: height-ordered scheduled subtransactions.
    sch_qd: BTreeMap<Height, SubTransaction>,
    /// Reverse index txn → current height (for updates and removals).
    /// Lookup-only (never iterated), so hashed — the schedule order
    /// lives exclusively in `sch_qd`.
    by_txn: FastMap<TxnId, Height>,
    /// Leader shard per queued txn (vote routing). Lookup-only: hashed.
    leader_of: FastMap<TxnId, ShardId>,
    /// Transactions this destination has voted for and not yet seen
    /// confirmed. Membership-only: hashed.
    voted: FastSet<TxnId>,
}

/// `E_0 = ⌈log₂ s⌉`, the layer-0 epoch length (the paper's constant
/// `c` is 1).
fn base_epoch(shards: usize) -> u64 {
    u64::from(usize::BITS - (shards.max(2) - 1).leading_zeros())
}

/// What one shard does in an FDS round: its home outbox, the leader
/// state of the clusters it leads, and its destination schedule queue.
/// Epoch starts, coloring moments and rescheduling alignments are pure
/// functions of the round number and the shared, immutable hierarchy, so
/// no shard ever needs knowledge that only a message could carry.
#[derive(Debug)]
pub struct FdsNode {
    id: ShardId,
    fcfg: FdsConfig,
    hierarchy: Arc<Hierarchy>,
    e0: u64,
    /// The next multiple of `e0` (a running counter, so no round divides
    /// unless the node slept past one).
    next_boundary: u64,
    /// The round this node next has work without mail ([`Node::wake`]),
    /// set at the end of every step and lowered by an injection.
    wake: u64,
    /// Transactions homed here, waiting for their layer's next epoch.
    outbox: Vec<(ClusterId, Transaction)>,
    /// Clusters this shard leads, created on first arrival.
    leaders: BTreeMap<ClusterId, LeaderState>,
    /// Home cluster of every transaction in some local `sch_ldr` — vote
    /// routing is one lookup instead of a scan over every cluster led
    /// here. Lookup-only: hashed.
    txn_cluster: FastMap<TxnId, ClusterId>,
    dest: DestState,
    /// Subtransactions confirmed this round, sealed into one block at
    /// the end of the round.
    append_buf: Vec<SubTransaction>,
    /// Cumulative injections (as home) and resolutions (as leader).
    injected: u64,
    resolved: u64,
    /// Memoized [`Hierarchy::home_cluster`] per `(home, x)`: computed at
    /// injection and again at leader arrival, and a pure function of the
    /// fixed hierarchy — outer index home shard, inner access distance.
    home_cluster_cache: Vec<Vec<Option<ClusterId>>>,
    /// Recycled phase-1 scratch: holds the not-yet-due outbox entries
    /// while the outbox is partitioned at an epoch boundary, then swaps
    /// back in — steady state allocates nothing per round.
    keep_buf: Vec<(ClusterId, Transaction)>,
    /// Recycled phase-2 scratch: the clusters at their coloring moment.
    due_buf: Vec<ClusterId>,
    /// Clusters led here with work pending (`incoming` or `sch_ldr`
    /// non-empty). `leaders` only ever grows, so phase 2 and the
    /// leader-queue sample walk this set instead. Maintained at the two
    /// transition points: a `ToLeader` arrival activates, the last
    /// confirm deactivates (coloring only moves work between the two
    /// queues). A `BTreeSet` so clusters color in `ClusterId` order.
    active: BTreeSet<ClusterId>,
}

impl FdsNode {
    /// The node of shard `id` over the shared `hierarchy`.
    pub fn new(id: ShardId, fcfg: FdsConfig, hierarchy: Arc<Hierarchy>) -> Self {
        FdsNode {
            id,
            fcfg,
            e0: base_epoch(hierarchy.num_shards()),
            home_cluster_cache: vec![Vec::new(); hierarchy.num_shards()],
            hierarchy,
            next_boundary: 0,
            wake: 0,
            outbox: Vec::new(),
            leaders: BTreeMap::new(),
            txn_cluster: FastMap::default(),
            dest: DestState::default(),
            append_buf: Vec::new(),
            injected: 0,
            resolved: 0,
            keep_buf: Vec::new(),
            due_buf: Vec::new(),
            active: BTreeSet::new(),
        }
    }

    /// The home cluster of `txn` through the per-`(home, x)` memo, `x`
    /// its worst access distance.
    fn home_cluster_of(&mut self, txn: &Transaction) -> ClusterId {
        let dist = |d| self.hierarchy.distance(txn.home, d);
        let x = txn.shards().map(dist).max().unwrap_or(0);
        let slot = &mut self.home_cluster_cache[txn.home.index()];
        if slot.len() <= x as usize {
            slot.resize(x as usize + 1, None);
        }
        *slot[x as usize].get_or_insert_with(|| self.hierarchy.home_cluster(txn.home, x))
    }

    /// Epoch length of layer `i`.
    fn epoch_len(&self, layer: u32) -> u64 {
        self.e0 << layer
    }

    /// Phase 1 of Algorithm 2a: forward the outbox entries whose layer's
    /// epoch starts now.
    fn phase1_forward<S: Seam<Msg>>(&mut self, now: u64, seam: &mut S) {
        // Every layer's epoch length is `e0 << layer`, so every epoch
        // boundary is a multiple of `e0`; on the other rounds the
        // partition below would only move every entry to `keep` and back.
        // Boundaries the node slept through found the outbox empty.
        if now > self.next_boundary {
            self.next_boundary = now.next_multiple_of(self.e0);
        }
        if now != self.next_boundary {
            return;
        }
        self.next_boundary += self.e0;
        // `pending` (the old outbox) drains into sends + `keep`, then the
        // two vectors swap roles so both capacities survive.
        let mut pending = std::mem::take(&mut self.outbox);
        let mut keep = std::mem::take(&mut self.keep_buf);
        for (cid, txn) in pending.drain(..) {
            if now.is_multiple_of(self.epoch_len(cid.layer)) {
                seam.send(self.hierarchy.cluster(cid).leader, Msg::ToLeader { txn });
            } else {
                keep.push((cid, txn));
            }
        }
        self.outbox = keep;
        self.keep_buf = pending;
    }

    /// Phase 2: color every cluster led here that is at its coloring
    /// moment.
    fn phase2_color_clusters<S: Seam<Msg>>(
        &mut self,
        now: u64,
        policy: &mut dyn Scheduler,
        seam: &mut S,
    ) {
        // Taken only so `color_cluster` can borrow the node; put back below.
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        due.extend(self.active.iter().copied().filter(|cid| {
            let d_c = self.hierarchy.cluster(*cid).diameter.max(1);
            now >= d_c && (now - d_c).is_multiple_of(self.epoch_len(cid.layer))
        }));
        for &cid in &due {
            self.color_cluster(now, cid, policy, seam);
        }
        self.due_buf = due;
    }

    /// Phase 2 for one cluster: color new (or all uncommitted, at
    /// rescheduling alignments) transactions and dispatch the scheduled
    /// subtransactions with their heights.
    fn color_cluster<S: Seam<Msg>>(
        &mut self,
        now: u64,
        cid: ClusterId,
        policy: &mut dyn Scheduler,
        seam: &mut S,
    ) {
        let e_i = self.epoch_len(cid.layer);
        let t_end = now - self.hierarchy.cluster(cid).diameter.max(1) + e_i;
        // The epoch end aligns with a rescheduling period P_k, k > i, iff
        // t_end is a multiple of 2^{i+1}·E_0.
        let reschedule = self.fcfg.reschedule && t_end.is_multiple_of(e_i * 2);

        let st = self.leaders.get_mut(&cid).expect("cluster state exists");
        // Targets: new transactions, plus every still-unconfirmed one when
        // rescheduling.
        let carried = if reschedule { st.sch_ldr.len() } else { 0 };
        let mut targets = Vec::with_capacity(carried + st.incoming.len());
        if reschedule {
            targets.extend(st.sch_ldr.values().map(|e| e.txn.clone()));
        }
        for t in st.incoming.drain(..) {
            if let std::collections::btree_map::Entry::Vacant(v) = st.sch_ldr.entry(t.id) {
                v.insert(LeaderEntry {
                    votes: VoteSet::new(t.shard_count()),
                    txn: t.clone(),
                });
                self.txn_cluster.insert(t.id, cid);
            }
            targets.push(t);
        }
        if targets.is_empty() {
            return;
        }
        targets.sort_by_key(|t| t.id);
        targets.dedup_by_key(|t| t.id);

        let plan = policy.plan_epoch(t_end, &targets);
        for (v, t) in targets.iter().enumerate() {
            let height = Height {
                t_end,
                layer: cid.layer,
                sublayer: cid.sublayer,
                color: plan.slot(v),
                txn: t.id,
            };
            for sub in &t.subs {
                let schedule = Msg::Schedule {
                    sub: sub.clone(),
                    height,
                    leader: self.id,
                };
                seam.send(sub.dest, schedule);
            }
        }
    }

    /// Algorithm 2b step 1: vote for the smallest-height entry of the
    /// schedule queue not voted yet — at most one new vote per round (the
    /// one-subtransaction-per-shard-per-round capacity), and only while
    /// fewer than `W` votes are outstanding.
    fn vote_head<S: Seam<Msg>>(&mut self, ledger: &ShardLedger, seam: &mut S) {
        if !self.can_vote() {
            return;
        }
        let dest = &mut self.dest;
        let unvoted = |s: &&SubTransaction| !dest.voted.contains(&s.txn);
        let Some(sub) = dest.sch_qd.values().find(unvoted) else {
            return;
        };
        let (txn, commit) = (sub.txn, ledger.check(sub));
        dest.voted.insert(txn);
        seam.send(dest.leader_of[&txn], Msg::Vote { txn, commit });
    }

    /// Whether the vote window has room and a queued entry is not voted
    /// yet. Votes are only cast for queued entries and are removed
    /// together with them on confirmation, so `voted` is a subset of
    /// `sch_qd`'s txns; equal sizes mean the whole queue (or none) is
    /// voted.
    fn can_vote(&self) -> bool {
        let voted = self.dest.voted.len();
        voted < self.fcfg.pipeline_window.max(1) && voted < self.dest.sch_qd.len()
    }

    /// The earliest round after `round` at which a step without mail does
    /// something: the next one while the vote window has room and a
    /// queued entry is not voted yet; otherwise the next epoch boundary
    /// while the outbox holds a transaction, or the next coloring moment
    /// `d_c + m·E_i` of a cluster with work, whichever comes first. Mail
    /// alone changes the queue, the votes and the active clusters, and an
    /// injection lowers the wake to the next boundary.
    fn next_wake(&self, round: u64) -> u64 {
        if self.can_vote() {
            return round + 1;
        }
        let mut wake = match self.outbox.is_empty() {
            true => u64::MAX,
            false => self.next_boundary,
        };
        for cid in &self.active {
            let d_c = self.hierarchy.cluster(*cid).diameter.max(1);
            let e_i = self.epoch_len(cid.layer);
            let next = match round.checked_sub(d_c) {
                Some(past) => d_c + (past / e_i + 1) * e_i,
                None => d_c,
            };
            wake = wake.min(next);
        }
        wake
    }

    fn handle<S: Seam<Msg>>(
        &mut self,
        now: u64,
        from: ShardId,
        msg: Msg,
        ledger: &mut ShardLedger,
        seam: &mut S,
    ) {
        match msg {
            Msg::ToLeader { txn } => {
                let cid = self.home_cluster_of(&txn);
                debug_assert_eq!(self.hierarchy.cluster(cid).leader, self.id);
                self.leaders.entry(cid).or_default().incoming.push(txn);
                self.active.insert(cid);
            }
            Msg::Schedule {
                sub,
                height,
                leader,
            } => {
                let dest = &mut self.dest;
                let txn = sub.txn;
                // Update: drop the old queue position if present.
                if let Some(old) = dest.by_txn.insert(txn, height) {
                    dest.sch_qd.remove(&old);
                }
                dest.leader_of.insert(txn, leader);
                dest.sch_qd.insert(height, sub);
            }
            Msg::Vote { txn, commit } => {
                // A transaction sits in exactly one cluster's `sch_ldr`
                // (its home cluster). A vote arriving after the
                // confirmation finds no entry and is a no-op.
                let Some(&cid) = self.txn_cluster.get(&txn) else {
                    return;
                };
                let st = self.leaders.get_mut(&cid).expect("indexed cluster exists");
                let entry = st.sch_ldr.get_mut(&txn).expect("indexed entry exists");
                let Ok(pos) = entry.txn.subs.binary_search_by_key(&from, |s| s.dest) else {
                    return;
                };
                if entry.votes.record(pos, commit) {
                    self.confirm(now, cid, txn, seam);
                }
            }
            Msg::Confirm { txn, commit } => {
                let dest = &mut self.dest;
                if let Some(sub) = dest
                    .by_txn
                    .remove(&txn)
                    .and_then(|h| dest.sch_qd.remove(&h))
                {
                    // In pipelined mode a vote can go stale between check
                    // and confirm; `try_apply` re-validates applicability
                    // (never fails on write-only workloads).
                    if commit && ledger.try_apply(&sub) {
                        self.append_buf.push(sub);
                    }
                }
                dest.leader_of.remove(&txn);
                dest.voted.remove(&txn);
            }
        }
    }

    /// Algorithm 2b steps 2–3: all votes collected — confirm commit or
    /// abort to every destination and retire the transaction.
    fn confirm<S: Seam<Msg>>(&mut self, now: u64, cid: ClusterId, txn: TxnId, seam: &mut S) {
        let st = self.leaders.get_mut(&cid).expect("cluster exists");
        let entry = st.sch_ldr.remove(&txn).expect("entry exists");
        if st.sch_ldr.is_empty() && st.incoming.is_empty() {
            self.active.remove(&cid);
        }
        self.txn_cluster.remove(&txn);
        let commit = entry.votes.all_commit();
        let mut worst = 1;
        for dest in entry.txn.shards() {
            worst = worst.max(self.hierarchy.distance(self.id, dest));
            seam.send(dest, Msg::Confirm { txn, commit });
        }
        self.resolved += 1;
        seam.emit(CommitEvent {
            generated: entry.txn.generated,
            commit_round: Round(now + worst),
            txn,
            home: entry.txn.home,
            committed: commit,
        });
    }
}

impl Node for FdsNode {
    type Msg = Msg;

    fn msg_bytes(m: &Msg) -> usize {
        match m {
            Msg::ToLeader { txn } => txn.approx_bytes(),
            Msg::Schedule { sub, .. } => 28 + sub.approx_bytes(),
            Msg::Vote { .. } | Msg::Confirm { .. } => 17,
        }
    }

    /// Assigns the home cluster and parks the transaction in the outbox.
    fn inject(&mut self, txn: Transaction) {
        debug_assert_eq!(txn.home, self.id);
        self.injected += 1;
        let cid = self.home_cluster_of(&txn);
        self.outbox.push((cid, txn));
        self.wake = self.wake.min(self.next_boundary);
    }

    fn step<S: Seam<Msg>>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (ShardId, Msg)>,
        lent: Lent<'_>,
        seam: &mut S,
    ) {
        self.phase1_forward(round, seam);
        for (from, msg) in inbox {
            self.handle(round, from, msg, lent.ledger, seam);
        }
        // Seal this round's commits (confirmations delivered above) into
        // one block; the chain allocates its payload at its exact length
        // and the push-grown buffer keeps its capacity here.
        lent.chain.seal(&mut self.append_buf, Round(round));
        if !self.active.is_empty() {
            self.phase2_color_clusters(round, lent.policy, seam);
        }
        self.vote_head(lent.ledger, seam);
        self.wake = self.next_wake(round);
    }

    fn wake(&self) -> u64 {
        self.wake
    }

    /// `[leader-queue total, active leaders, injected, resolved]`, the
    /// last two cumulative.
    fn sample(&self) -> [u64; 4] {
        let queued = |cid| {
            let st = &self.leaders[cid];
            (st.sch_ldr.len() + st.incoming.len()) as u64
        };
        [
            self.active.iter().map(queued).sum(),
            self.active.len() as u64,
            self.injected,
            self.resolved,
        ]
    }
}

/// FDS as a host sees it: [`FdsNode`]s over one shared, immutable
/// cluster hierarchy, planning with the coloring policy. Needs nothing
/// beyond the node to be networkable — epoch starts, coloring moments
/// and rescheduling alignments are pure functions of the round number
/// and the hierarchy.
#[derive(Debug, Clone)]
pub struct FdsProtocol {
    cfg: FdsConfig,
    hierarchy: Arc<Hierarchy>,
}

impl FdsProtocol {
    /// Builds the hierarchy of `metric` with `cfg.sublayers` sublayers.
    pub fn new(cfg: FdsConfig, metric: &dyn ShardMetric) -> Self {
        FdsProtocol {
            cfg,
            hierarchy: Arc::new(Hierarchy::build_with_sublayers(metric, cfg.sublayers)),
        }
    }
}

impl Protocol for FdsProtocol {
    type Node = FdsNode;

    fn initial_balance(&self) -> u64 {
        self.cfg.initial_balance
    }

    fn node(&self, id: ShardId, metric: &dyn ShardMetric) -> FdsNode {
        assert_eq!(metric.shards(), self.hierarchy.num_shards());
        FdsNode::new(id, self.cfg, self.hierarchy.clone())
    }

    /// The same [`ColoringPolicy`] code path BDS's leader uses, owning
    /// the reusable coloring scratch.
    fn policy(&self, sys: &SystemConfig) -> Box<dyn Scheduler> {
        Box::new(ColoringPolicy::new(
            SchedulerKind::Fds,
            self.cfg.coloring,
            sys.accounts,
        ))
    }

    /// Pending is the outstanding (generated but unresolved) count. The
    /// Figure 3 left panel plots the average pending *scheduled*
    /// transactions at cluster leader shards, so the queue series records
    /// the mean leader queue over active leaders. The timeline's epoch is
    /// the layer-0 epoch, `round / E_0`.
    fn round_row(
        node: &FdsNode,
        round: u64,
        samples: impl Iterator<Item = [u64; 4]>,
        _faulty: bool,
    ) -> RoundRow {
        let (mut shards, mut sum) = (0, [0u64; 4]);
        for s in samples {
            shards += 1;
            sum = std::array::from_fn(|i| sum[i] + s[i]);
        }
        RoundRow {
            queue: sum[0] as f64 / sum[1].max(1) as f64,
            pending: sum[2].saturating_sub(sum[3]),
            epoch: round / node.e0,
            active: shards,
        }
    }

    /// Layer-0 epochs elapsed, and the top layer's fixed epoch length.
    fn epochs<'a>(mut nodes: impl Iterator<Item = &'a FdsNode>, rounds: u64) -> (u64, u64) {
        let node = nodes.next().expect("at least one shard");
        let top_epoch = node.e0 << (node.hierarchy.num_layers() as u64 - 1);
        (rounds / node.e0, top_epoch)
    }
}

/// The FDS simulator: `s` [`FdsNode`]s hosted on the caller's thread.
/// Drive it with [`Sim::step`] once per round.
pub type FdsSim = Sim<FdsProtocol>;

impl FdsSim {
    /// Creates an FDS simulation over `metric`.
    pub fn new(
        sys: &SystemConfig,
        map: &AccountMap,
        fcfg: FdsConfig,
        metric: &dyn ShardMetric,
    ) -> Self {
        let proto = FdsProtocol::new(fcfg, metric);
        Sim::host(&proto, sys, map, metric, &FaultPlan::default())
    }

    /// The cluster hierarchy in use.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.shards[0].node.hierarchy
    }
}

/// Runs FDS on the paper's Figure 3 topology: shards on a line.
pub fn run_fds_line(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    let metric = LineMetric::new(sys.shards);
    let sim = FdsSim::new(sys, map, FdsConfig::default(), &metric);
    crate::driver::drive(sim, sys, map, adv, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::{Adversary, StrategyKind};
    use sharding_core::stats::StabilityVerdict;
    use simnet::LocalChain;

    fn small_sys() -> (SystemConfig, AccountMap) {
        let sys = SystemConfig {
            shards: 8,
            accounts: 8,
            k_max: 3,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        (sys, map)
    }

    type Script = crate::node::Script<Msg>;

    /// One [`FdsNode`] with what a host would lend it.
    struct Rig {
        node: FdsNode,
        ledger: ShardLedger,
        chain: LocalChain,
        policy: ColoringPolicy,
    }

    impl Rig {
        fn new(id: ShardId, map: &AccountMap, hierarchy: &Arc<Hierarchy>) -> Rig {
            Rig {
                node: FdsNode::new(id, FdsConfig::default(), hierarchy.clone()),
                ledger: ShardLedger::new(id, map, 1_000),
                chain: LocalChain::new(id),
                policy: ColoringPolicy::new(SchedulerKind::Fds, ColoringStrategy::Greedy, 8),
            }
        }

        fn step(&mut self, round: u64, inbox: Vec<(ShardId, Msg)>) -> Script {
            let mut out = Script::default();
            let lent = Lent {
                ledger: &mut self.ledger,
                chain: &mut self.chain,
                policy: &mut self.policy,
            };
            self.node.step(round, inbox.into_iter(), lent, &mut out);
            out
        }
    }

    /// The leader node of a transaction homed at shard 2 over shards 1
    /// and 3 of an 8-shard line, driven until it has scheduled it; also
    /// returns the next round.
    fn scheduled() -> (Rig, AccountMap, Arc<Hierarchy>, TxnId, u64) {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let hierarchy = Arc::new(Hierarchy::build_with_sublayers(&metric, 2));
        let dests = [ShardId(1), ShardId(3)];
        let txn = Transaction::writing_shards(TxnId(7), ShardId(2), Round::ZERO, &map, &dests);
        let leader = hierarchy
            .cluster(hierarchy.home_cluster(ShardId(2), 1))
            .leader;
        let mut rig = Rig::new(leader, &map, &hierarchy);
        let arrival = Msg::ToLeader { txn: txn.unwrap() };
        let mut out = rig.step(0, vec![(ShardId(2), arrival)]);
        let mut round = 1;
        while out.sent.is_empty() {
            assert!(round < 64, "the cluster never reached its coloring moment");
            out = rig.step(round, Vec::new());
            round += 1;
        }
        let to: Vec<ShardId> = out.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, dests);
        assert!(out
            .sent
            .iter()
            .all(|(_, m)| matches!(m, Msg::Schedule { leader: l, .. } if *l == leader)));
        (rig, map, hierarchy, TxnId(7), round)
    }

    #[test]
    fn duplicated_vote_never_confirms_early() {
        let (mut rig, _, _, txn, round) = scheduled();
        let vote = |from| (ShardId(from), Msg::Vote { txn, commit: true });
        let out = rig.step(round, vec![vote(1), vote(1)]);
        assert!(out.sent.is_empty() && out.events.is_empty());
        let out = rig.step(round + 1, vec![vote(3), vote(3), vote(1)]);
        let confirms: Vec<ShardId> = out.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(confirms, vec![ShardId(1), ShardId(3)], "confirmed once");
        assert!(out
            .sent
            .iter()
            .all(|(_, m)| matches!(m, Msg::Confirm { commit: true, .. })));
        assert_eq!(out.events.len(), 1);
        assert!(out.events[0].committed && out.events[0].home == ShardId(2));
        assert_eq!(rig.node.sample(), [0, 0, 0, 1], "resolved, cluster idle");
    }

    #[test]
    fn messages_for_unknown_or_retired_txns_are_noops() {
        let (mut rig, map, hierarchy, txn, round) = scheduled();
        let stray = |txn| {
            vec![
                (ShardId(1), Msg::Vote { txn, commit: true }),
                (ShardId(4), Msg::Confirm { txn, commit: true }),
            ]
        };
        let out = rig.step(round, stray(TxnId(99)));
        assert!(out.sent.is_empty() && out.events.is_empty());
        // A vote from a shard the transaction does not touch counts for
        // nothing either.
        let out = rig.step(
            round + 1,
            vec![(ShardId(5), Msg::Vote { txn, commit: true })],
        );
        assert!(out.sent.is_empty() && out.events.is_empty());
        let votes = [1, 3].map(|from| (ShardId(from), Msg::Vote { txn, commit: true }));
        assert_eq!(rig.step(round + 2, votes.to_vec()).events.len(), 1);
        let out = rig.step(round + 3, stray(txn));
        assert!(out.sent.is_empty() && out.events.is_empty());
        // A destination that never queued the transaction ignores its
        // confirmation.
        let mut dest = Rig::new(ShardId(6), &map, &hierarchy);
        let out = dest.step(0, stray(txn));
        assert!(out.sent.is_empty() && out.events.is_empty());
        assert!(rig.chain.is_empty() && dest.chain.is_empty());
    }

    #[test]
    fn sealed_block_holds_exactly_its_payload() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let hierarchy = Arc::new(Hierarchy::build_with_sublayers(&metric, 2));
        for n in [1, 5] {
            let mut rig = Rig::new(ShardId(3), &map, &hierarchy);
            let schedule = |txn| {
                let dests = [ShardId(3)];
                let t = Transaction::writing_shards(txn, ShardId(2), Round::ZERO, &map, &dests);
                let (sub, leader) = (t.unwrap().subs[0].clone(), ShardId(2));
                let height = Height {
                    t_end: 8,
                    layer: 0,
                    sublayer: 0,
                    color: 0,
                    txn,
                };
                let msg = Msg::Schedule {
                    sub,
                    height,
                    leader,
                };
                (leader, msg)
            };
            rig.step(0, (0..n).map(TxnId).map(schedule).collect());
            let confirm = |txn| (ShardId(2), Msg::Confirm { txn, commit: true });
            rig.step(1, (0..n).map(TxnId).map(confirm).collect());
            let block = rig.chain.blocks().last();
            let txns: Vec<TxnId> = block.subs.iter().map(|s| s.txn).collect();
            assert_eq!(txns, (0..n).map(TxnId).collect::<Vec<_>>(), "one block");
            assert_eq!((rig.chain.len(), block.round), (1, Round(1)));
            assert!(rig.chain.verify());
        }
    }

    /// The [`Node::wake`] contract on FDS: every node of an eight-shard
    /// line in two copies, one stepped every round and one only on mail
    /// or at `round >= wake()`, fed the same injections and the mail the
    /// every-round copies send, send, emit, seal and sample alike round
    /// for round — as home, cluster leader and destination, through a
    /// quiet stretch and a burst.
    #[test]
    fn sleeping_until_wake_is_invisible() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let hierarchy = Arc::new(Hierarchy::build_with_sublayers(&metric, 2));
        let adv = AdversaryConfig {
            rho: 0.04,
            burstiness: 16,
            strategy: StrategyKind::SingleBurst { burst_round: 900 },
            seed: 3,
            ..Default::default()
        };
        let mut adversary = Adversary::new(&sys, &map, adv);
        let ids = || (0..sys.shards as u32).map(ShardId);
        let rigs = || -> Vec<Rig> { ids().map(|id| Rig::new(id, &map, &hierarchy)).collect() };
        let (mut every, mut sleepers) = (rigs(), rigs());
        // Mail by delivery round and destination, in send order.
        let mut mail: BTreeMap<(u64, ShardId), Vec<(ShardId, Msg)>> = BTreeMap::new();
        let (mut slept, mut events) = (0, 0);
        for round in 0..3_000 {
            for t in adversary.generate(Round(round)) {
                every[t.home.index()].node.inject(t.clone());
                sleepers[t.home.index()].node.inject(t);
            }
            for id in ids() {
                let mut inbox = mail.remove(&(round, id)).unwrap_or_default();
                // Either host hands an inbox out by sender, each sender's
                // messages in send order.
                inbox.sort_by_key(|(from, _)| *from);
                let has_mail = !inbox.is_empty();
                let (want, sleeper) = (
                    every[id.index()].step(round, inbox.clone()),
                    &mut sleepers[id.index()],
                );
                let got = if has_mail || round >= sleeper.node.wake() {
                    sleeper.step(round, inbox)
                } else {
                    slept += 1;
                    Script::default()
                };
                let at = format!("shard {id:?}, round {round}");
                assert_eq!(
                    format!("{:?}", got.sent),
                    format!("{:?}", want.sent),
                    "{at}"
                );
                assert_eq!(got.events, want.events, "{at}");
                assert_eq!(
                    sleeper.node.sample(),
                    every[id.index()].node.sample(),
                    "{at}"
                );
                assert_eq!(sleeper.chain.len(), every[id.index()].chain.len(), "{at}");
                events += want.events.len();
                for (to, msg) in want.sent {
                    let due = round + metric.distance(id, to).max(1);
                    mail.entry((due, to)).or_default().push((id, msg));
                }
            }
        }
        for (a, b) in every.iter().zip(&sleepers) {
            assert!(a.chain == b.chain && a.ledger.total() == b.ledger.total());
        }
        // The run reached what it is there for.
        let shard_rounds = 3_000 * sys.shards;
        assert!(slept > shard_rounds / 2, "slept {slept} of {shard_rounds}");
        assert!(events > 200, "{events} decisions");
    }

    #[test]
    fn single_txn_commits() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let t = Transaction::writing_shards(
            TxnId(0),
            ShardId(2),
            Round::ZERO,
            &map,
            &[ShardId(1), ShardId(3)],
        )
        .unwrap();
        sim.step(vec![t]);
        for _ in 0..200 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.committed_log().len(), 1);
        assert_eq!(sim.total_pending(), 0);
        let with_blocks: Vec<u32> = sim
            .chains()
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.shard().raw())
            .collect();
        assert_eq!(with_blocks, vec![1, 3]);
        for c in sim.chains() {
            assert!(c.verify());
        }
    }

    #[test]
    fn local_txn_lands_in_low_layer_cluster() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        // A transaction touching only its home shard: x = 0 → layer 0.
        let cid = sim.hierarchy().home_cluster(ShardId(4), 0);
        assert_eq!(cid.layer, 0);
        // A transaction spanning the whole line → top layer.
        let cid = sim.hierarchy().home_cluster(ShardId(0), 7);
        assert_eq!(cid.layer as usize, sim.hierarchy().num_layers() - 1);
    }

    #[test]
    fn steady_low_rate_is_stable_and_commits_everything() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 5,
            ..Default::default()
        };
        let r = run_fds_line(&sys, &map, &adv, Round(6000));
        assert!(r.committed > 0, "{}", r.summary());
        assert!(r.resolution_rate() > 0.95, "{}", r.summary());
        assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
        assert_eq!(r.aborted, 0);
    }

    #[test]
    fn deterministic_runs() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 3,
            strategy: StrategyKind::SingleBurst { burst_round: 64 },
            seed: 9,
            ..Default::default()
        };
        let a = run_fds_line(&sys, &map, &adv, Round(1500));
        let b = run_fds_line(&sys, &map, &adv, Round(1500));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.max_latency, b.max_latency);
    }

    #[test]
    fn conflicting_commits_serialize_at_shared_destination() {
        let (sys, map) = small_sys();
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        // Three same-home transactions writing the same account.
        let txns: Vec<Transaction> = (0..3)
            .map(|i| {
                Transaction::writing_shards(TxnId(i), ShardId(4), Round::ZERO, &map, &[ShardId(4)])
                    .unwrap()
            })
            .collect();
        sim.step(txns);
        for _ in 0..400 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.committed_log().len(), 3);
        // They all landed in shard 4's chain, in height (id) order.
        let order: Vec<TxnId> = sim.chains()[4].committed_txns().collect();
        assert_eq!(order, vec![TxnId(0), TxnId(1), TxnId(2)]);
    }

    #[test]
    fn burst_drains_without_reschedule_disabled_comparison() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 8,
            strategy: StrategyKind::SingleBurst { burst_round: 32 },
            seed: 4,
            ..Default::default()
        };
        let metric = LineMetric::new(sys.shards);
        let run = |fcfg| {
            let sim = FdsSim::new(&sys, &map, fcfg, &metric);
            crate::driver::drive(sim, &sys, &map, &adv, Round(6000))
        };
        let on = run(FdsConfig::default());
        let off = run(FdsConfig {
            reschedule: false,
            ..FdsConfig::default()
        });
        // Both must make progress; rescheduling must not hurt resolution.
        assert!(on.resolution_rate() > 0.9, "{}", on.summary());
        assert!(off.resolution_rate() > 0.0);
        assert!(on.resolution_rate() >= off.resolution_rate() - 0.05);
    }

    #[test]
    fn fds_on_uniform_metric_also_works() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.03,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 2,
            ..Default::default()
        };
        let metric = cluster::UniformMetric::new(sys.shards);
        let sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let r = crate::driver::drive(sim, &sys, &map, &adv, Round(4000));
        assert!(r.resolution_rate() > 0.9, "{}", r.summary());
    }

    #[test]
    fn ledger_conservation_under_writes() {
        // Adversarial workload only adds +1 units; total balance increase
        // must equal the number of committed actions.
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.04,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 6,
            ..Default::default()
        };
        let metric = LineMetric::new(sys.shards);
        let mut sim = FdsSim::new(&sys, &map, FdsConfig::default(), &metric);
        let mut a = Adversary::new(&sys, &map, adv);
        for r in 0..3000u64 {
            sim.step(a.generate(Round(r)));
        }
        let total: u64 = sim.ledgers().map(|l| l.total()).sum();
        let baseline = sys.accounts as u64 * FdsConfig::default().initial_balance;
        let appended: usize = sim.chains().iter().map(|c| c.sub_count()).sum();
        assert_eq!(
            total - baseline,
            appended as u64,
            "each committed subtxn adds exactly 1"
        );
    }
}
