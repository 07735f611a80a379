//! **Algorithm 1 — Basic Distributed Scheduler (BDS)** for the uniform
//! communication model (Section 5 of the paper).
//!
//! Time is divided into epochs. Each epoch has a leader shard (rotating:
//! `S_(epoch mod s)`), and three phases:
//!
//! 1. **Knowledge sharing** — every home shard sends all transactions
//!    pending at the epoch start to the leader.
//! 2. **Graph coloring** — the leader builds the conflict graph `G` of the
//!    received transactions and colors it (greedy, ≤ Δ+1 colors), then
//!    broadcasts the epoch plan — per-shard color assignments plus the
//!    color count — to every shard, since without shared memory the
//!    epoch length must be learned from a message (epochs with nothing
//!    to schedule broadcast nothing; shards advance after the two
//!    coordination gaps).
//! 3. **Schedule and commit** — color class `z` runs a four-round protocol
//!    starting at its designated offset: home shards split transactions
//!    into subtransactions and send them to destination shards (round 1);
//!    destinations validate and vote (round 2); homes confirm commit/abort
//!    (round 3); destinations append to their local blockchains (round 4).
//!
//! The epoch ends after `2 + 4·C` phase-gaps (`C` = number of colors). In
//! the uniform model the phase gap is one round, exactly the paper's
//! timing; on a non-uniform metric the implementation stretches every
//! phase to the diameter `D`, preserving correctness (BDS is only
//! *analyzed* for the uniform model, but running it elsewhere is useful
//! for the ablation benches).
//!
//! The algorithm is written once, as what one shard does in a round:
//! [`BdsNode`]. What a host needs to know around it — how to build a
//! node, which policy plans the epochs, how a round's samples are booked
//! — is [`BdsProtocol`]; [`BdsSim`] is the generic simulator hosting it
//! (see [`crate::node`]), and the `runtime` crate hosts the same
//! description on worker threads. Every message travels through the
//! host's transport, so message counts and delivery timing are measured,
//! not assumed.

use crate::metrics::{RunReport, SchedulerKind};
use crate::node::{CommitEvent, Lent, Node, Protocol, Seam, Sim};
use crate::scheduler::Scheduler;
use crate::votes::VoteSet;
use ::metrics::RoundRow;
use adversary::AdversaryConfig;
use cluster::{ShardMetric, UniformMetric};
use conflict::ColoringStrategy;
use sharding_core::hash::FastMap;
use sharding_core::txn::SubTransaction;
use sharding_core::{
    AccountId, AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction, TxnId,
};
use simnet::{FaultPlan, ShardLedger};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunables of the BDS run (the algorithm itself has no free parameters;
/// these select implementation variants for ablations).
#[derive(Debug, Clone, Copy)]
pub struct BdsConfig {
    /// Coloring algorithm used by the leader (paper: greedy).
    pub coloring: ColoringStrategy,
    /// Rotate the leader every epoch (paper: yes). Off = fixed `S_0`,
    /// used by the leader-rotation ablation.
    pub rotate_leader: bool,
    /// Initial balance of every account.
    pub initial_balance: u64,
}

impl Default for BdsConfig {
    fn default() -> Self {
        BdsConfig {
            coloring: ColoringStrategy::Greedy,
            rotate_leader: true,
            initial_balance: 1_000_000,
        }
    }
}

/// Messages of the BDS protocol (sizes estimated by [`Node::msg_bytes`] for
/// the `O(bs)` accounting).
#[derive(Debug, Clone)]
pub enum Msg {
    /// Phase 1: home shard → leader, all pending transactions.
    TxnInfo(Vec<Transaction>),
    /// Phase 2: leader → **every** shard, that shard's color assignments
    /// (possibly empty) plus the epoch's color count. Broadcast because
    /// without shared memory every shard must learn the epoch length from
    /// a message. Empty epochs broadcast nothing; shards advance by the
    /// two-gap timeout instead.
    ColorAssign {
        /// `(txn, color)` for the receiving home shard.
        assignments: Vec<(TxnId, u32)>,
        /// Total colors in this epoch (fixes the epoch length).
        num_colors: u32,
    },
    /// Phase 3 round 1: home → destination, subtransaction to validate.
    SubTxn(SubTransaction),
    /// Phase 3 round 2: destination → home, commit/abort vote.
    Vote {
        /// The voted transaction.
        txn: TxnId,
        /// Whether the destination's conditions hold.
        commit: bool,
    },
    /// Phase 3 round 3: home → destination, final decision.
    Decision {
        /// The decided transaction.
        txn: TxnId,
        /// Commit (`true`) or abort.
        commit: bool,
    },
    /// Migration boundary: leader → **every** shard, announcing that the
    /// pre-agreed reshard plan's next table version is now live. The plan
    /// itself is configuration (like the fault plan), so only the version
    /// index travels; the broadcast is the measured activation signal.
    TableUpdate {
        /// Index into the reshard plan's version sequence.
        version: u32,
    },
    /// Migration boundary: old owner → new owner, the account balances
    /// whose vnodes changed hands under the new table.
    Handoff {
        /// `(account, balance)` pairs surrendered to the receiver.
        accounts: Vec<(AccountId, u64)>,
    },
}

/// Per-transaction state at its home shard during the epoch it is
/// scheduled in.
#[derive(Debug)]
struct EpochEntry {
    txn: Transaction,
    votes: VoteSet,
    decided: bool,
}

/// What one shard does in a BDS round, in its home, leader and
/// destination roles. Holds only shard-local state: the epoch length is
/// learned from the leader's broadcast plan, or from the two-gap timeout
/// when no plan arrives (an empty epoch, or a plan lost to a fault).
#[derive(Debug)]
pub struct BdsNode {
    // What every round reads, idle or not, comes first and together: a
    // host reads `wake` of all `s` nodes per round, and the simulator
    // samples them, so an idle round should touch a cache line or two of
    // each, not the whole node.
    /// The round this node next has work without mail ([`Node::wake`]),
    /// set at the end of every step.
    wake: u64,
    /// Phase gap: 1 in the uniform model, metric diameter otherwise.
    gap: u64,
    epoch: u64,
    epoch_start: u64,
    /// Known end of the current epoch: set when this shard colors as
    /// leader, or from the broadcast plan on arrival.
    next_epoch_at: Option<u64>,
    /// The next color group to dispatch and its round — a running
    /// `(z, epoch_start + gap·(2 + 4z))`, so no round divides.
    next_dispatch: (usize, u64),
    /// Undecided entries of `epoch_txns`, maintained incrementally (the
    /// pending count is sampled every round).
    undecided: u64,
    /// Entries that outlived their epoch undecided — impossible without
    /// faults, since `2 + 4·C` gaps cover every color's vote round-trip.
    stranded: usize,
    /// Pre-agreed reshard schedule (configuration, like the fault plan)
    /// and the version this node runs under. All nodes advance at the
    /// same absolute rollover rounds — reshard runs are fault-free — so
    /// no node ever needs another's table.
    reshard: Option<Arc<ReshardPlan>>,
    rv: usize,
    /// Newly generated transactions waiting for the next epoch (the
    /// paper's "pending transactions queue").
    injection: Vec<Transaction>,
    /// Transactions homed here and scheduled in the current epoch.
    /// Decided entries are retired at the epoch boundary, so the map
    /// holds one epoch's worth of transactions, not the whole run's.
    /// Lookup-only (dispatch order lives in `color_groups`), so hashed:
    /// a sorted map shifts these fat entries on every insert and retire.
    epoch_txns: FastMap<TxnId, EpochEntry>,
    /// Per color: the transactions to dispatch when that color's
    /// round-group starts. Filled on `ColorAssign` (ascending txn id:
    /// assignments arrive in generation order), drained by phase 3.
    color_groups: Vec<Vec<TxnId>>,
    /// Subtransactions parked here as destination, awaiting the
    /// decision. Lookup-only: hashed.
    parked: FastMap<TxnId, SubTransaction>,
    /// Subtransactions committed this round, sealed into one block at
    /// the end of the round (the paper's multiple-transactions-per-block
    /// extension).
    append_buf: Vec<SubTransaction>,
    /// Transactions received as leader, awaiting coloring.
    leader_buffer: Vec<Transaction>,
    /// My row of the distance matrix (commit-round accounting); its
    /// length is the shard count.
    dist_row: Vec<u64>,
    max_epoch_len: u64,
    id: ShardId,
    rotate_leader: bool,
}

// `peak_live_mb` is held to the byte and a run holds `s` nodes: the node
// may not grow (`wake` took the place of a shard count `dist_row` knows).
const _: () = assert!(std::mem::size_of::<BdsNode>() <= 296);

impl BdsNode {
    /// The node of shard `id` over `metric` (phases stretch to the
    /// metric diameter).
    pub fn new(id: ShardId, metric: &dyn ShardMetric, rotate_leader: bool) -> Self {
        let gap = metric.diameter().max(1);
        BdsNode {
            id,
            rotate_leader,
            wake: 0,
            gap,
            dist_row: (0..metric.shards() as u32)
                .map(|b| metric.distance(id, ShardId(b)))
                .collect(),
            injection: Vec::new(),
            epoch_txns: FastMap::default(),
            color_groups: Vec::new(),
            parked: FastMap::default(),
            append_buf: Vec::new(),
            leader_buffer: Vec::new(),
            epoch: 0,
            epoch_start: 0,
            next_dispatch: (0, 2 * gap),
            next_epoch_at: None,
            undecided: 0,
            stranded: 0,
            max_epoch_len: 0,
            reshard: None,
            rv: 0,
        }
    }

    /// Arms a live-migration schedule; must precede the first step.
    pub(crate) fn set_reshard(&mut self, plan: Arc<ReshardPlan>) {
        assert_eq!(plan.s_max, self.shards(), "provisioned for s_max");
        self.reshard = Some(plan);
    }

    /// Shards of the system (provisioned, under a reshard plan).
    fn shards(&self) -> usize {
        self.dist_row.len()
    }

    /// The leader shard of this node's current epoch.
    pub fn leader(&self) -> ShardId {
        if self.rotate_leader {
            ShardId((self.epoch % self.shards() as u64) as u32)
        } else {
            ShardId(0)
        }
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Transactions pending here as home shard: queued for injection
    /// plus in-epoch undecided.
    pub fn pending(&self) -> u64 {
        debug_assert_eq!(
            self.undecided as usize,
            self.epoch_txns.values().filter(|e| !e.decided).count(),
            "incremental pending counter drifted from the epoch set"
        );
        self.injection.len() as u64 + self.undecided
    }

    /// Entries that outlived their epoch undecided (0 without faults).
    pub fn stranded(&self) -> usize {
        self.stranded
    }

    /// Active (vnode-owning) shards under this node's current table.
    pub fn active_shards(&self) -> u64 {
        self.reshard
            .as_ref()
            .map_or(self.shards(), |p| p.versions[self.rv].active.len()) as u64
    }

    /// Steps the reshard plan through every version whose activation
    /// round has passed. Per version the epoch leader broadcasts the
    /// activation signal, then this node hands off its departing account
    /// balances, ascending destination.
    fn advance_reshard<S: Seam<Msg>>(
        &mut self,
        round: u64,
        ledger: &mut ShardLedger,
        seam: &mut S,
    ) {
        let Some(plan) = self.reshard.clone() else {
            return;
        };
        while self.rv + 1 < plan.versions.len() && plan.versions[self.rv + 1].at <= round {
            let old = self.rv;
            self.rv += 1;
            if self.id == self.leader() {
                let version = self.rv as u32;
                for h in 0..self.shards() as u32 {
                    seam.send(ShardId(h), Msg::TableUpdate { version });
                }
            }
            let mut batches: BTreeMap<ShardId, Vec<(AccountId, u64)>> = BTreeMap::new();
            for (account, from, to) in plan.moves(old) {
                if from == self.id {
                    let balance = ledger
                        .remove_account(account)
                        .expect("migrating account owned by its old shard");
                    batches.entry(to).or_default().push((account, balance));
                }
            }
            for (to, accounts) in batches {
                seam.send(to, Msg::Handoff { accounts });
            }
        }
    }

    /// Phase 1: drain the pending queue into the epoch set and forward
    /// it to the leader.
    fn phase1_send_pending<S: Seam<Msg>>(&mut self, seam: &mut S) {
        // Under a reshard plan, rebuild each transaction's shard grouping
        // against the *current* table: the source may have grouped under
        // an older version (its version switches at event rounds, the
        // node's at migration epoch boundaries). Homes stay as assigned —
        // accesses are account-based, so coloring is placement-independent.
        if let Some(plan) = &self.reshard {
            let map = &plan.versions[self.rv].map;
            for t in &mut self.injection {
                *t = t.regrouped(map);
            }
        }
        self.undecided += self.injection.len() as u64;
        seam.send(self.leader(), Msg::TxnInfo(self.injection.clone()));
        for txn in self.injection.drain(..) {
            let votes = VoteSet::new(txn.shard_count());
            let entry = EpochEntry {
                txn,
                votes,
                decided: false,
            };
            self.epoch_txns.insert(entry.txn.id, entry);
        }
    }

    /// Phase 2 (leader): plan the epoch via the policy (BDS proper: build
    /// the conflict graph and color it), broadcast the plan to every
    /// shard — one with nothing scheduled still needs the color count —
    /// and fix the epoch length: 2 gaps + 4 per color (paper: `2 + 4(Δ+1)`
    /// rounds in the uniform model).
    fn phase2_color<S: Seam<Msg>>(&mut self, policy: &mut dyn Scheduler, seam: &mut S) {
        // Given away: a shard leads one epoch in `s`, so a kept buffer
        // would hold a whole epoch's batch idle on every other shard.
        let txns = std::mem::take(&mut self.leader_buffer);
        let mut num_colors = 0;
        if !txns.is_empty() {
            let plan = policy.plan_epoch(self.epoch, &txns);
            debug_assert!(
                plan.is_safe_for(&txns),
                "{} violated the epoch-plan safety contract",
                policy.kind()
            );
            num_colors = plan.num_slots;
            // Each home's assignment list is sent and kept by its
            // receiver, so it is allocated once at its exact length.
            let mut counts = vec![0; self.shards()];
            for t in &txns {
                counts[t.home.index()] += 1;
            }
            let mut per_home: Vec<Vec<_>> = counts.into_iter().map(Vec::with_capacity).collect();
            for (v, t) in txns.iter().enumerate() {
                per_home[t.home.index()].push((t.id, plan.slot(v)));
            }
            for (h, assignments) in per_home.into_iter().enumerate() {
                let plan = Msg::ColorAssign {
                    assignments,
                    num_colors,
                };
                seam.send(ShardId(h as u32), plan);
            }
        }
        self.next_epoch_at = Some(self.epoch_start + self.gap * (2 + 4 * num_colors as u64));
    }

    /// Phase 3: at round `epoch_start + gap·(2 + 4z)` send the
    /// subtransactions of the color-`z` transactions homed here.
    ///
    /// A sleeping node was not stepped at the rounds of the groups it was
    /// woken after; those groups were empty (groups change only inside a
    /// step, and [`BdsNode::next_wake`] stops at the first non-empty
    /// one), so they are passed over here, as a step at each of their
    /// rounds would have.
    fn phase3_dispatch<S: Seam<Msg>>(&mut self, round: u64, seam: &mut S) {
        while self.next_dispatch.1 < round {
            self.next_dispatch.0 += 1;
            self.next_dispatch.1 += 4 * self.gap;
        }
        let (z, at) = self.next_dispatch;
        if at != round {
            return;
        }
        self.next_dispatch = (z + 1, at + 4 * self.gap);
        let Some(group) = self.color_groups.get_mut(z) else {
            return;
        };
        for txn in group.drain(..) {
            let Some(entry) = self.epoch_txns.get(&txn).filter(|e| !e.decided) else {
                continue;
            };
            for sub in &entry.txn.subs {
                seam.send(sub.dest, Msg::SubTxn(sub.clone()));
            }
        }
    }

    /// The earliest round at which a step without mail does something:
    /// the rollover (the known epoch end, else the two-gap timeout), the
    /// phase-2 round while this node leads an unplanned epoch, or the
    /// round of the first non-empty color group still to dispatch. An
    /// injection waits for the rollover's phase 1, so it needs no step.
    fn next_wake(&self) -> u64 {
        let mut wake = self
            .next_epoch_at
            .unwrap_or(self.epoch_start + 2 * self.gap);
        if self.next_epoch_at.is_none() && self.id == self.leader() {
            wake = wake.min(self.epoch_start + self.gap);
        }
        let (z, mut at) = self.next_dispatch;
        for group in self.color_groups.iter().skip(z) {
            if at >= wake || !group.is_empty() {
                return wake.min(at);
            }
            at += 4 * self.gap;
        }
        wake
    }

    fn handle<S: Seam<Msg>>(
        &mut self,
        round: u64,
        from: ShardId,
        msg: Msg,
        ledger: &mut ShardLedger,
        seam: &mut S,
    ) {
        match msg {
            Msg::TxnInfo(txns) => self.leader_buffer.extend(txns),
            Msg::ColorAssign {
                assignments,
                num_colors,
            } => {
                debug_assert!(num_colors > 0, "empty epochs broadcast no plan");
                self.next_epoch_at =
                    Some(self.epoch_start + self.gap * (2 + 4 * num_colors as u64));
                for (txn, color) in assignments {
                    if self.epoch_txns.contains_key(&txn) {
                        let z = color as usize;
                        if self.color_groups.len() <= z {
                            self.color_groups.resize_with(z + 1, Vec::new);
                        }
                        self.color_groups[z].push(txn);
                    }
                }
            }
            Msg::SubTxn(sub) => {
                let (txn, commit) = (sub.txn, ledger.check(&sub));
                self.parked.insert(txn, sub);
                // The vote goes back to the transaction's home shard.
                seam.send(from, Msg::Vote { txn, commit });
            }
            Msg::Vote { txn, commit } => {
                // Unknown or retired transaction, or a sender that is no
                // destination of it: nothing to count.
                let Some(e) = self.epoch_txns.get_mut(&txn) else {
                    return;
                };
                let Ok(pos) = e.txn.subs.binary_search_by_key(&from, |s| s.dest) else {
                    return;
                };
                if !e.votes.record(pos, commit) || e.decided {
                    return;
                }
                e.decided = true;
                self.undecided -= 1;
                let commit = e.votes.all_commit();
                for sub in &e.txn.subs {
                    seam.send(sub.dest, Msg::Decision { txn, commit });
                }
                // Destinations append one gap later.
                let first_dest = e.txn.subs[0].dest.index();
                seam.emit(CommitEvent {
                    generated: e.txn.generated,
                    commit_round: Round(round + self.dist_row[first_dest].max(1)),
                    txn,
                    home: self.id,
                    committed: commit,
                });
            }
            Msg::Decision { txn, commit } => {
                if let Some(sub) = self.parked.remove(&txn) {
                    if commit {
                        ledger.apply(&sub);
                        self.append_buf.push(sub);
                    }
                }
            }
            Msg::TableUpdate { version } => {
                // The plan is shared configuration and rollovers are
                // simultaneous absolute rounds, so the recipient already
                // switched when the signal arrives; cross-check only.
                debug_assert_eq!(
                    version as usize, self.rv,
                    "table-update version does not match the live table"
                );
            }
            Msg::Handoff { accounts } => {
                for (account, balance) in accounts {
                    ledger.absorb(account, balance);
                }
            }
        }
    }
}

impl Node for BdsNode {
    type Msg = Msg;

    fn msg_bytes(m: &Msg) -> usize {
        match m {
            Msg::TxnInfo(txns) => 16 + txns.iter().map(|t| t.approx_bytes()).sum::<usize>(),
            Msg::ColorAssign { assignments, .. } => 8 + 12 * assignments.len(),
            Msg::SubTxn(sub) => sub.approx_bytes(),
            Msg::Vote { .. } | Msg::Decision { .. } => 17,
            Msg::TableUpdate { .. } => 12,
            Msg::Handoff { accounts } => 8 + 16 * accounts.len(),
        }
    }

    fn inject(&mut self, txn: Transaction) {
        debug_assert_eq!(txn.home, self.id);
        self.injection.push(txn);
    }

    fn step<S: Seam<Msg>>(
        &mut self,
        round: u64,
        inbox: impl Iterator<Item = (ShardId, Msg)>,
        lent: Lent<'_>,
        seam: &mut S,
    ) {
        // 1. Delivery, *before* the epoch transition: what a shard knows
        //    about the rollover can only come from messages delivered by
        //    this round (a plan crossing the full diameter lands exactly
        //    at the earliest possible rollover).
        for (from, msg) in inbox {
            self.handle(round, from, msg, lent.ledger, seam);
        }
        // Seal this round's commits (decisions delivered above) into one
        // block; the chain allocates its payload at its exact length and
        // the push-grown buffer keeps its capacity here.
        lent.chain.seal(&mut self.append_buf, Round(round));

        // 2. Epoch rollover: the plan told us the end, or none came and
        //    the two coordination gaps have passed.
        let timeout = self.next_epoch_at.is_none() && round == self.epoch_start + 2 * self.gap;
        if self.next_epoch_at == Some(round) || timeout {
            self.max_epoch_len = self.max_epoch_len.max(round - self.epoch_start);
            self.epoch += 1;
            self.epoch_start = round;
            self.next_dispatch = (0, round + 2 * self.gap);
            self.next_epoch_at = None;
            self.epoch_txns.retain(|_, e| !e.decided);
            self.stranded = self.epoch_txns.len();
            for g in &mut self.color_groups {
                g.clear();
            }
            // Migration epoch boundary: switch tables before phase 1 so
            // the new epoch schedules under the new placement. Safe
            // timing: fault-free epochs end with the network quiescent
            // (the last color's decisions landed a gap before), so
            // ownership moves cannot race in-flight subtransactions.
            self.advance_reshard(round, lent.ledger, seam);
        }

        // 3–5. This round's phase triggers.
        if round == self.epoch_start && !self.injection.is_empty() {
            self.phase1_send_pending(seam);
        }
        if round == self.epoch_start + self.gap
            && self.next_epoch_at.is_none()
            && self.id == self.leader()
        {
            self.phase2_color(lent.policy, seam);
        }
        self.phase3_dispatch(round, seam);
        self.wake = self.next_wake();
    }

    fn wake(&self) -> u64 {
        self.wake
    }

    /// `[pending, epoch, active shards, stranded]`.
    fn sample(&self) -> [u64; 4] {
        let stranded = self.stranded as u64;
        [self.pending(), self.epoch, self.active_shards(), stranded]
    }
}

/// BDS as a host sees it: the epoch protocol of [`BdsNode`] around any
/// epoch-planning policy. BDS proper plans with the coloring policy;
/// every other [`SchedulerKind`] with an
/// [`epoch_policy`](SchedulerKind::epoch_policy) — the zoo's registration
/// point — reuses the whole machinery (leader rotation, plan broadcast,
/// per-color four-round commit) and reports under its own kind.
#[derive(Debug, Clone)]
pub struct BdsProtocol {
    /// Implementation variants.
    pub cfg: BdsConfig,
    /// Whose policy plans the epochs.
    pub kind: SchedulerKind,
    /// A live-migration schedule armed on every node. The system must be
    /// provisioned for the plan's `s_max`, the account map must be the
    /// plan's version-0 placement, and the run must be fault-free (a
    /// crashed shard losing a balance handoff is unrecoverable state
    /// loss).
    pub reshard: Option<Arc<ReshardPlan>>,
}

impl BdsProtocol {
    /// The static (no reshard plan) description of `kind` under `cfg`.
    pub fn new(cfg: BdsConfig, kind: SchedulerKind) -> Self {
        BdsProtocol {
            cfg,
            kind,
            reshard: None,
        }
    }
}

impl Protocol for BdsProtocol {
    type Node = BdsNode;

    fn initial_balance(&self) -> u64 {
        self.cfg.initial_balance
    }

    fn node(&self, id: ShardId, metric: &dyn ShardMetric) -> BdsNode {
        let mut node = BdsNode::new(id, metric, self.cfg.rotate_leader);
        if let Some(plan) = &self.reshard {
            node.set_reshard(plan.clone());
        }
        node
    }

    fn policy(&self, sys: &SystemConfig) -> Box<dyn Scheduler> {
        self.kind
            .epoch_policy(self.cfg.coloring, sys.accounts, sys.shards)
            .unwrap_or_else(|| panic!("{} has no epoch policy", self.kind))
    }

    fn fault_free_only(node: &BdsNode) -> bool {
        node.reshard.is_some()
    }

    /// Fault-free every shard observes the same epoch and table at the
    /// same absolute round, so `max` is that common value; under faults
    /// it is the furthest live view. Pending is the total — the quantity
    /// bounded by `4bs` in Theorem 2 — and the queue series records its
    /// per-shard average (the Figure 2 left-panel quantity).
    fn round_row(
        _: &BdsNode,
        _round: u64,
        samples: impl Iterator<Item = [u64; 4]>,
        faulty: bool,
    ) -> RoundRow {
        let (shards, pending, epoch, active, stranded) = samples
            .fold((0u64, 0, 0, 0, 0), |(n, p, e, a, x), s| {
                (n + 1, p + s[0], e.max(s[1]), a.max(s[2]), x + s[3])
            });
        debug_assert!(
            faulty || stranded == 0,
            "undecided entry survived its epoch without faults"
        );
        RoundRow {
            queue: pending as f64 / shards as f64,
            pending,
            epoch,
            active,
        }
    }

    /// The furthest view over the nodes (a crashed or desynced shard's
    /// counters freeze).
    fn epochs<'a>(nodes: impl Iterator<Item = &'a BdsNode>, _rounds: u64) -> (u64, u64) {
        nodes.fold((0, 0), |(e, l), n| (e.max(n.epoch), l.max(n.max_epoch_len)))
    }
}

/// The BDS simulator: `s` [`BdsNode`]s hosted on the caller's thread.
/// Drive it with [`Sim::step`] once per round.
pub type BdsSim = Sim<BdsProtocol>;

// Boxed by the benchmark, whose `peak_live_mb` is held to the byte; the
// ledgers and samples live in the shards, the fault plan in one `RunFaults`.
const _: () = assert!(std::mem::size_of::<BdsSim>() <= 304);

impl BdsSim {
    /// Creates a BDS simulation over the uniform metric.
    pub fn new(sys: &SystemConfig, map: &AccountMap, bcfg: BdsConfig) -> Self {
        Self::with_metric(sys, map, bcfg, &UniformMetric::new(sys.shards))
    }

    /// Creates a BDS simulation over an arbitrary metric (phases stretch
    /// to the metric diameter).
    pub fn with_metric(
        sys: &SystemConfig,
        map: &AccountMap,
        bcfg: BdsConfig,
        metric: &dyn ShardMetric,
    ) -> Self {
        let proto = BdsProtocol::new(bcfg, SchedulerKind::Bds);
        Sim::host(&proto, sys, map, metric, &FaultPlan::default())
    }
}

/// Runs BDS for `rounds` rounds against the given adversary on the uniform
/// metric (the paper's Figure 2 setting).
pub fn run_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
) -> RunReport {
    let sim = BdsSim::new(sys, map, BdsConfig::default());
    crate::driver::drive(sim, sys, map, adv, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ColoringPolicy;
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

    /// One [`BdsNode`] with what a host would lend it.
    struct Rig {
        node: BdsNode,
        ledger: ShardLedger,
        chain: LocalChain,
        policy: ColoringPolicy,
    }

    impl Rig {
        fn new(id: u32, sys: &SystemConfig, map: &AccountMap, metric: &dyn ShardMetric) -> Rig {
            let id = ShardId(id);
            Rig {
                node: BdsNode::new(id, metric, true),
                ledger: ShardLedger::new(id, map, 1_000),
                chain: LocalChain::new(id),
                policy: ColoringPolicy::new(
                    SchedulerKind::Bds,
                    ColoringStrategy::Greedy,
                    sys.accounts,
                ),
            }
        }

        /// Steps the node through `round` with `inbox` delivered.
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

    fn decisions(out: &Script) -> Vec<(ShardId, bool)> {
        let decision = |(to, m): &(ShardId, Msg)| match m {
            Msg::Decision { commit, .. } => Some((*to, *commit)),
            _ => None,
        };
        out.sent.iter().filter_map(decision).collect()
    }

    /// A node homing one transaction over `dests`, driven to the round
    /// its subtransactions went out (uniform metric: phase 1 at round 0,
    /// the plan arrives and color 0 dispatches at round 2).
    fn dispatched(sys: &SystemConfig, map: &AccountMap, dests: &[ShardId]) -> (Rig, TxnId) {
        let mut rig = Rig::new(1, sys, map, &UniformMetric::new(sys.shards));
        let txn = Transaction::writing_shards(TxnId(7), ShardId(1), Round::ZERO, map, dests);
        rig.node.inject(txn.unwrap());
        let out = rig.step(0, Vec::new());
        assert!(matches!(&out.sent[..], [(ShardId(0), Msg::TxnInfo(t))] if t.len() == 1));
        assert!(rig.step(1, Vec::new()).sent.is_empty());
        let plan = Msg::ColorAssign {
            assignments: vec![(TxnId(7), 0)],
            num_colors: 1,
        };
        let out = rig.step(2, vec![(ShardId(0), plan)]);
        let subs = out.sent.iter().map(|(to, m)| {
            assert!(matches!(m, Msg::SubTxn(_)));
            *to
        });
        assert_eq!(subs.collect::<Vec<_>>(), dests);
        (rig, TxnId(7))
    }

    #[test]
    fn duplicated_vote_never_decides_early() {
        let (sys, map) = small_sys();
        let (mut rig, txn) = dispatched(&sys, &map, &[ShardId(2), ShardId(3)]);
        let vote = |from, commit| (ShardId(from), Msg::Vote { txn, commit });
        // The same ballot twice (a fault-plane duplicate): still one voter.
        let out = rig.step(3, vec![vote(2, true), vote(2, true)]);
        assert!(out.sent.is_empty() && out.events.is_empty());
        assert_eq!(rig.node.pending(), 1);
        // The second voter decides, exactly once.
        let out = rig.step(4, vec![vote(3, true), vote(3, true), vote(2, true)]);
        assert_eq!(
            decisions(&out),
            vec![(ShardId(2), true), (ShardId(3), true)]
        );
        assert_eq!(out.events.len(), 1);
        let event = out.events[0];
        assert!(event.committed && event.txn == txn && event.home == ShardId(1));
        assert_eq!(event.commit_round, Round(5));
        assert_eq!(rig.node.pending(), 0);
    }

    #[test]
    fn later_vote_from_the_same_sender_overwrites() {
        let (sys, map) = small_sys();
        let (mut rig, txn) = dispatched(&sys, &map, &[ShardId(2), ShardId(3)]);
        let vote = |from, commit| (ShardId(from), Msg::Vote { txn, commit });
        let out = rig.step(3, vec![vote(2, false), vote(2, true), vote(3, false)]);
        assert_eq!(
            decisions(&out),
            vec![(ShardId(2), false), (ShardId(3), false)]
        );
        assert!(!out.events[0].committed, "shard 3's abort stands");
        let (mut rig, txn) = dispatched(&sys, &map, &[ShardId(2), ShardId(3)]);
        let vote = |from, commit| (ShardId(from), Msg::Vote { txn, commit });
        let out = rig.step(3, vec![vote(2, false), vote(2, true), vote(3, true)]);
        assert!(out.events[0].committed, "shard 2's abort was overwritten");
    }

    #[test]
    fn messages_for_unknown_or_retired_txns_are_noops() {
        let (sys, map) = small_sys();
        let (mut rig, txn) = dispatched(&sys, &map, &[ShardId(2), ShardId(3)]);
        let stray = |txn| {
            vec![
                (ShardId(2), Msg::Vote { txn, commit: true }),
                (ShardId(5), Msg::Decision { txn, commit: true }),
            ]
        };
        let out = rig.step(3, stray(TxnId(99)));
        assert!(out.sent.is_empty() && out.events.is_empty());
        // A vote from a shard the transaction does not touch counts for
        // nothing either.
        let out = rig.step(4, vec![(ShardId(6), Msg::Vote { txn, commit: true })]);
        assert!(out.sent.is_empty() && out.events.is_empty());
        let votes = [2, 3].map(|from| (ShardId(from), Msg::Vote { txn, commit: true }));
        assert_eq!(rig.step(5, votes.to_vec()).events.len(), 1);
        // Round 6 = 2 + 4·1 ends the epoch and retires the decided entry.
        rig.step(6, Vec::new());
        assert_eq!((rig.node.epoch(), rig.node.stranded()), (1, 0));
        let out = rig.step(7, stray(txn));
        assert!(out.sent.is_empty() && out.events.is_empty());
        assert!(rig.chain.is_empty(), "no stray decision appended anything");
    }

    #[test]
    fn sealed_block_holds_exactly_its_payload() {
        let (sys, map) = small_sys();
        for n in [1, 5] {
            let mut rig = Rig::new(2, &sys, &map, &UniformMetric::new(sys.shards));
            let sub = |id| {
                let dests = [ShardId(2)];
                let txn = Transaction::writing_shards(id, ShardId(1), Round::ZERO, &map, &dests);
                (ShardId(1), Msg::SubTxn(txn.unwrap().subs[0].clone()))
            };
            let out = rig.step(0, (0..n).map(TxnId).map(sub).collect());
            assert_eq!(out.sent.len(), n as usize, "one vote each");
            let commit = |txn| (ShardId(1), Msg::Decision { txn, commit: true });
            rig.step(1, (0..n).map(TxnId).map(commit).collect());
            let block = rig.chain.blocks().last();
            let txns: Vec<TxnId> = block.subs.iter().map(|s| s.txn).collect();
            assert_eq!(txns, (0..n).map(TxnId).collect::<Vec<_>>(), "one block");
            assert_eq!((rig.chain.len(), block.round), (1, Round(1)));
            assert!(rig.chain.verify());
        }
    }

    #[test]
    fn rollover_follows_the_plan_or_the_two_gap_timeout() {
        let sys = SystemConfig {
            shards: 4,
            ..small_sys().0
        };
        let map = AccountMap::round_robin(&sys);
        let metric = cluster::LineMetric::new(4);
        let gap = 3; // the line's diameter
                     // No plan: the epoch ends at epoch_start + 2·gap.
        let mut rig = Rig::new(2, &sys, &map, &metric);
        for round in 0..2 * gap {
            rig.step(round, Vec::new());
            assert_eq!(rig.node.epoch(), 0, "round {round}");
        }
        rig.step(2 * gap, Vec::new());
        assert_eq!(rig.node.epoch(), 1);
        // A plan with c colors: the epoch ends at epoch_start + gap·(2 + 4c),
        // here counted from the second epoch's start.
        let (start, c) = (2 * gap, 2);
        let plan = Msg::ColorAssign {
            assignments: Vec::new(),
            num_colors: c as u32,
        };
        rig.step(start + gap + 1, vec![(ShardId(1), plan)]);
        let end = start + gap * (2 + 4 * c);
        for round in start + gap + 2..end {
            rig.step(round, Vec::new());
            assert_eq!(rig.node.epoch(), 1, "round {round}");
        }
        rig.step(end, Vec::new());
        assert_eq!(rig.node.epoch(), 2);
        assert_eq!(rig.node.max_epoch_len, end - start);
    }

    /// A deterministic word stream for the scripted world (splitmix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The system around one scripted node: what reaches it each round,
    /// answered from what it sent — leaders that plan, destinations that
    /// vote, homes that decide — with plans dropped, duplicated and
    /// landing late, lost and doubled votes, foreign subtransactions and
    /// stray messages mixed in.
    struct World<'a> {
        me: ShardId,
        metric: &'a dyn ShardMetric,
        map: &'a AccountMap,
        gap: u64,
        rng: u64,
        mail: BTreeMap<u64, Vec<(ShardId, Msg)>>,
        next_txn: u64,
        /// The round of the last phase 1 a leader answered.
        answered: Option<u64>,
        /// Plans dropped, duplicated and landing late.
        faults: [u32; 3],
    }

    impl World<'_> {
        fn roll(&mut self, n: u64) -> u64 {
            splitmix(&mut self.rng) % n
        }

        fn shard(&mut self) -> ShardId {
            ShardId(self.roll(self.metric.shards() as u64) as u32)
        }

        fn post(&mut self, at: u64, from: ShardId, msg: Msg) {
            self.mail.entry(at).or_default().push((from, msg));
        }

        /// A fresh transaction homed at `home` writing one to three
        /// shards, `must` among them.
        fn txn(&mut self, home: ShardId, round: u64, must: Option<ShardId>) -> Transaction {
            let mut dests: Vec<ShardId> = (0..1 + self.roll(3)).map(|_| self.shard()).collect();
            dests.extend(must);
            dests.sort_unstable();
            dests.dedup();
            self.next_txn += 1;
            let id = TxnId(self.next_txn);
            Transaction::writing_shards(id, home, Round(round), self.map, &dests).unwrap()
        }

        /// What arrives unprompted at `round` of an epoch that started at
        /// `epoch_start`: foreign subtransactions, a leader's empty row of
        /// the plan, stray votes.
        fn unprompted(&mut self, round: u64, epoch_start: u64) {
            if self.roll(10) == 0 {
                let others = self.metric.shards() as u64 - 1;
                let home = ShardId(
                    ((u64::from(self.me.raw()) + 1 + self.roll(others)) % (others + 1)) as u32,
                );
                let txn = self.txn(home, round, Some(self.me));
                let sub = txn.subs.iter().find(|s| s.dest == self.me).unwrap().clone();
                self.post(round, home, Msg::SubTxn(sub));
            }
            let unplanned = self.answered != Some(epoch_start);
            if unplanned && round == epoch_start + self.gap + 1 && self.roll(4) == 0 {
                let num_colors = 1 + self.roll(3) as u32;
                let (assignments, from) = (Vec::new(), self.shard());
                self.post(
                    round,
                    from,
                    Msg::ColorAssign {
                        assignments,
                        num_colors,
                    },
                );
            }
            if self.roll(25) == 0 {
                let (txn, from) = (TxnId(self.roll(self.next_txn + 1)), self.shard());
                self.post(round, from, Msg::Vote { txn, commit: true });
            }
        }

        /// Answers what the node sent at `round`.
        fn answer(&mut self, round: u64, sent: &[(ShardId, Msg)]) {
            for (to, msg) in sent.iter().cloned() {
                if to == self.me {
                    self.post(round + 1, to, msg);
                    continue;
                }
                let d = self.metric.distance(self.me, to).max(1);
                match msg {
                    // `to` leads: it colors at the phase-2 round and sends
                    // this shard its row of the plan.
                    Msg::TxnInfo(txns) => {
                        self.answered = Some(round);
                        let num_colors = 1 + self.roll(3) as u32;
                        let assignments = txns
                            .iter()
                            .map(|t| (t.id, self.roll(u64::from(num_colors)) as u32))
                            .collect();
                        let plan = Msg::ColorAssign {
                            assignments,
                            num_colors,
                        };
                        let at = round + self.gap + d;
                        match self.roll(5) {
                            0 => self.faults[0] += 1,
                            1 => {
                                self.faults[1] += 1;
                                let again = at + 1 + self.roll(4 * self.gap + 2);
                                self.post(at, to, plan.clone());
                                self.post(again, to, plan);
                            }
                            2 => {
                                self.faults[2] += 1;
                                // After the first group's round: the
                                // epoch has timed out by then.
                                let late = round + 2 * self.gap + 1 + self.roll(4 * self.gap);
                                self.post(late, to, plan);
                            }
                            _ => self.post(at, to, plan),
                        }
                    }
                    // `to` votes as the subtransaction lands.
                    Msg::SubTxn(sub) => {
                        let commit = self.roll(8) != 0;
                        for _ in 0..[0, 1, 1, 1, 1, 1, 1, 1, 2, 2][self.roll(10) as usize] {
                            let vote = Msg::Vote {
                                txn: sub.txn,
                                commit,
                            };
                            self.post(round + 2 * d, to, vote);
                        }
                    }
                    // The home `to` decides as the vote lands.
                    Msg::Vote { txn, commit } if self.roll(10) != 0 => {
                        self.post(round + 2 * d, to, Msg::Decision { txn, commit });
                    }
                    _ => {}
                }
            }
        }
    }

    /// The [`Node::wake`] contract against its definition: two nodes fed
    /// the same scripted inboxes, one stepped every round and one only on
    /// mail or at `round >= wake()`, send, emit, seal and sample alike
    /// round for round — through dropped, duplicated and late plans, on
    /// a one-round and a three-round phase gap.
    #[test]
    fn sleeping_until_wake_is_invisible() {
        let sys = SystemConfig {
            shards: 6,
            accounts: 6,
            ..small_sys().0
        };
        let map = AccountMap::round_robin(&sys);
        let (uniform, line) = (UniformMetric::new(6), cluster::LineMetric::new(6));
        for (metric, seed) in [(&uniform as &dyn ShardMetric, 1), (&line, 2)]
            .into_iter()
            .flat_map(|(m, s)| [(m, s), (m, s + 10), (m, s + 20)])
        {
            let me = ShardId(1);
            let mut world = World {
                me,
                metric,
                map: &map,
                gap: metric.diameter().max(1),
                rng: seed,
                mail: BTreeMap::new(),
                next_txn: 0,
                answered: None,
                faults: [0; 3],
            };
            let mut every = Rig::new(me.raw(), &sys, &map, metric);
            let mut sleeper = Rig::new(me.raw(), &sys, &map, metric);
            let (mut slept, mut woke_to_dispatch, mut events) = (0, 0, 0);
            for round in 0..3_000 {
                if world.roll(6) == 0 {
                    let txn = world.txn(me, round, None);
                    every.node.inject(txn.clone());
                    sleeper.node.inject(txn);
                }
                world.unprompted(round, every.node.epoch_start);
                let inbox = world.mail.remove(&round).unwrap_or_default();
                let mail = !inbox.is_empty();
                let want = every.step(round, inbox.clone());
                let got = if mail || round >= sleeper.node.wake() {
                    sleeper.step(round, inbox)
                } else {
                    slept += 1;
                    Script::default()
                };
                let at = format!("seed {seed}, round {round}");
                assert_eq!(
                    format!("{:?}", got.sent),
                    format!("{:?}", want.sent),
                    "{at}"
                );
                assert_eq!(got.events, want.events, "{at}");
                assert_eq!(sleeper.node.sample(), every.node.sample(), "{at}");
                assert_eq!(sleeper.chain.len(), every.chain.len(), "{at}");
                let subs = |out: &Script| out.sent.iter().any(|m| matches!(m.1, Msg::SubTxn(_)));
                woke_to_dispatch += u32::from(!mail && subs(&got));
                events += want.events.len();
                world.answer(round, &want.sent);
            }
            assert!(sleeper.chain == every.chain && sleeper.ledger.total() == every.ledger.total());
            // The script reached what it is there for.
            assert!(slept > 1_000, "seed {seed}: slept {slept} of 3000 rounds");
            assert!(woke_to_dispatch > 10, "seed {seed}: {woke_to_dispatch}");
            assert!(
                events > 50 && every.chain.len() > 50,
                "seed {seed}: {events}"
            );
            assert!(
                world.faults.iter().all(|&n| n > 3),
                "seed {seed}: {:?}",
                world.faults
            );
        }
    }

    #[test]
    fn vote_set_spans_more_than_64_destinations() {
        let sys = SystemConfig {
            shards: 80,
            accounts: 80,
            k_max: 80,
            ..small_sys().0
        };
        let map = AccountMap::round_robin(&sys);
        let dests: Vec<ShardId> = (5..75).map(ShardId).collect();
        let (mut rig, txn) = dispatched(&sys, &map, &dests);
        let vote = |from: &ShardId| (*from, Msg::Vote { txn, commit: true });
        let (last, rest) = dests.split_last().unwrap();
        let out = rig.step(3, rest.iter().chain(rest).map(vote).collect());
        assert!(out.sent.is_empty(), "69 of 70 voters, each twice");
        let out = rig.step(4, vec![vote(last)]);
        assert_eq!(decisions(&out).len(), 70);
        assert!(out.events[0].committed);
    }

    #[test]
    fn empty_run_is_stable_and_cheap() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        for _ in 0..100 {
            sim.step(Vec::new());
        }
        let r = sim.finish();
        assert_eq!(r.committed, 0);
        assert_eq!(r.generated, 0);
        assert_eq!(r.pending_at_end, 0);
        // Empty epochs are 2 rounds each: ~50 epochs in 100 rounds.
        assert!(r.epochs >= 45, "epochs: {}", r.epochs);
    }

    #[test]
    fn single_txn_commits_with_correct_latency() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        // Inject one transaction at round 0.
        let t = Transaction::writing_shards(
            TxnId(0),
            ShardId(1),
            Round::ZERO,
            &map,
            &[ShardId(2), ShardId(3)],
        )
        .unwrap();
        sim.step(vec![t]);
        for _ in 0..12 {
            sim.step(Vec::new());
        }
        let chains_with_blocks: Vec<u32> = sim
            .chains()
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| c.shard().raw())
            .collect();
        assert_eq!(
            chains_with_blocks,
            vec![2, 3],
            "subtxns landed at both destinations"
        );
        let r = sim.finish();
        assert_eq!(r.committed, 1);
        // Injected during epoch 0's phase 1 round ⇒ scheduled in epoch 0:
        // phase 1 send round 0 (arrives 1), leader colors round 1
        // (assignments arrive 2), color-0 group: subtxns sent round 2,
        // votes round 3, decision round 4, destinations append round 5.
        // Latency = 5 − 0 = 5, matching the paper's 2 + 4·(Δ+1) epoch of
        // 6 rounds for Δ = 0.
        assert_eq!(r.max_latency, 5, "uniform-model single-txn latency");
    }

    #[test]
    fn conflicting_txns_commit_in_different_rounds() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        // Three transactions all writing shard 2's account: mutual
        // conflict forces three distinct colors.
        let txns: Vec<Transaction> = (0..3)
            .map(|i| {
                Transaction::writing_shards(
                    TxnId(i),
                    ShardId(i as u32),
                    Round::ZERO,
                    &map,
                    &[ShardId(2)],
                )
                .unwrap()
            })
            .collect();
        sim.step(txns);
        for _ in 0..30 {
            sim.step(Vec::new());
        }
        let log = sim.committed_log().to_vec();
        assert_eq!(log.len(), 3);
        let mut rounds: Vec<u64> = log.iter().map(|(r, _)| r.raw()).collect();
        rounds.sort_unstable();
        rounds.dedup();
        assert_eq!(rounds.len(), 3, "conflicting commits serialized: {log:?}");
        for c in sim.chains() {
            assert!(c.verify(), "chain of {} verifies", c.shard());
        }
        let landed: Vec<TxnId> = sim.chains()[2].committed_txns().collect();
        assert_eq!(
            landed.len(),
            3,
            "shard 2's chain holds all three: {landed:?}"
        );
        let r = sim.finish();
        assert_eq!(r.committed, 3);
    }

    #[test]
    fn chains_verify_and_ledger_consistent_after_run() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.05,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 11,
            ..Default::default()
        };
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let mut a = Adversary::new(&sys, &map, adv);
        for r in 0..2000u64 {
            sim.step(a.generate(Round(r)));
        }
        for c in sim.chains() {
            assert!(c.verify(), "chain of {} verifies", c.shard());
        }
        // Every committed transaction must appear in the chain of each of
        // its destination shards exactly once; total appended blocks equal
        // committed subtransactions.
        let blocks: usize = sim.chains().iter().map(|c| c.sub_count()).sum();
        let r = sim.finish();
        assert!(r.committed > 0);
        assert!(blocks > 0);
        assert_eq!(r.aborted, 0, "write-only workload never aborts");
    }

    #[test]
    fn stable_at_low_rate_unstable_well_above_threshold() {
        let (sys, map) = small_sys();
        // Low rate: stable.
        let low = AdversaryConfig {
            rho: 0.04,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 3,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &low, Round(4000));
        assert_eq!(r.verdict, StabilityVerdict::Stable, "{}", r.summary());
        assert!(r.resolution_rate() > 0.9);
        // Far above the Theorem 1 threshold 2/(k+1) = 0.5 for k = 3: the
        // physical capacity (1 subtxn/shard/round) cannot keep up when the
        // adversary saturates.
        let high = AdversaryConfig {
            rho: 0.9,
            burstiness: 8,
            strategy: StrategyKind::HotShard,
            seed: 3,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &high, Round(4000));
        assert_eq!(r.verdict, StabilityVerdict::Unstable, "{}", r.summary());
    }

    #[test]
    fn deterministic_runs() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.1,
            burstiness: 3,
            strategy: StrategyKind::SingleBurst { burst_round: 40 },
            seed: 21,
            ..Default::default()
        };
        let a = run_bds(&sys, &map, &adv, Round(600));
        let b = run_bds(&sys, &map, &adv, Round(600));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.max_latency, b.max_latency);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.queue_series.samples(), b.queue_series.samples());
    }

    #[test]
    fn leader_rotates_each_epoch() {
        let (sys, map) = small_sys();
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        assert_eq!(sim.shards[0].node.leader(), ShardId(0));
        // Drive a few empty epochs (2 rounds each).
        for _ in 0..6 {
            sim.step(Vec::new());
        }
        let epoch = sim.shards[0].node.epoch();
        assert!(epoch >= 2);
        assert_eq!(sim.shards[0].node.leader(), ShardId((epoch % 8) as u32));
        let fixed = BdsConfig {
            rotate_leader: false,
            ..BdsConfig::default()
        };
        let mut sim2 = BdsSim::new(&sys, &map, fixed);
        for _ in 0..6 {
            sim2.step(Vec::new());
        }
        assert_eq!(sim2.shards[0].node.leader(), ShardId(0));
    }

    #[test]
    fn epoch_length_respects_lemma1_bound() {
        let (sys, map) = small_sys();
        let b = 3u64;
        let rho = sharding_core::bounds::bds_rate_bound(sys.k_max, sys.shards);
        let adv = AdversaryConfig {
            rho,
            burstiness: b,
            strategy: StrategyKind::SingleBurst { burst_round: 10 },
            seed: 7,
            ..Default::default()
        };
        let r = run_bds(&sys, &map, &adv, Round(3000));
        let tau = sharding_core::bounds::bds_epoch_bound(b, sys.k_max, sys.shards);
        assert!(
            r.max_epoch_len <= tau,
            "max epoch {} exceeds Lemma 1 bound {tau}",
            r.max_epoch_len
        );
        // Queue bound of Theorem 2.
        let qb = sharding_core::bounds::bds_queue_bound(b, sys.shards);
        assert!(r.max_total_pending <= qb, "{} > {qb}", r.max_total_pending);
        // Latency bound of Theorem 2.
        let lb = sharding_core::bounds::bds_latency_bound(b, sys.k_max, sys.shards);
        assert!(r.max_latency <= lb, "{} > {lb}", r.max_latency);
    }

    #[test]
    fn commits_in_same_round_never_conflict() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.08,
            burstiness: 5,
            strategy: StrategyKind::UniformRandom,
            seed: 13,
            ..Default::default()
        };
        let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
        let mut a = Adversary::new(&sys, &map, adv);
        let mut all: BTreeMap<TxnId, Transaction> = BTreeMap::new();
        for r in 0..1500u64 {
            let batch = a.generate(Round(r));
            for t in &batch {
                all.insert(t.id, t.clone());
            }
            sim.step(batch);
        }
        // Group the commit log by round and check pairwise non-conflict.
        let mut by_round: BTreeMap<Round, Vec<TxnId>> = BTreeMap::new();
        for (r, t) in sim.committed_log() {
            by_round.entry(*r).or_default().push(*t);
        }
        for (round, txns) in by_round {
            for i in 0..txns.len() {
                for j in (i + 1)..txns.len() {
                    assert!(
                        !all[&txns[i]].conflicts_with(&all[&txns[j]]),
                        "{} and {} conflict but both committed at {round}",
                        txns[i],
                        txns[j]
                    );
                }
            }
        }
    }

    /// The source's (initial) system, the version-0 map, the plan, and a
    /// simulator provisioned for the plan's `s_max` with the plan armed,
    /// under `faults`.
    fn reshard_setup(
        initial: usize,
        events: &[(i64, u64)],
        faults: &FaultPlan,
    ) -> (SystemConfig, AccountMap, ReshardPlan, BdsSim) {
        let cfg = SystemConfig {
            shards: 1, // overwritten by the plan's s_max
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 3,
            accounts: 64,
        };
        let plan = ReshardPlan::build(initial, &cfg, events).unwrap();
        let sys = SystemConfig {
            shards: plan.s_max,
            ..cfg.clone()
        };
        let src_sys = SystemConfig {
            shards: initial,
            ..cfg
        };
        let map = plan.versions[0].map.clone();
        let proto = BdsProtocol {
            reshard: Some(Arc::new(plan.clone())),
            ..BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds)
        };
        let sim = Sim::host(&proto, &sys, &map, &UniformMetric::new(sys.shards), faults);
        (src_sys, map, plan, sim)
    }

    /// The simulator refuses a fault plan under a migration schedule, as
    /// the networked host does; an inert plan is no fault plan.
    #[test]
    #[should_panic(expected = "requires a fault-free run")]
    fn a_reshard_plan_refuses_a_fault_plan() {
        reshard_setup(4, &[(2, 60)], &FaultPlan::default());
        let crash = FaultPlan {
            crashes: vec![(ShardId(0), Round(50))],
            ..FaultPlan::default()
        };
        reshard_setup(4, &[(2, 60)], &crash);
    }

    #[test]
    fn live_scale_out_commits_without_loss() {
        use adversary::{ReshardSource, RoundSource};
        let (src_sys, map, plan, mut sim) = reshard_setup(4, &[(2, 60)], &FaultPlan::default());
        let adv = AdversaryConfig {
            rho: 0.10,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 17,
            ..Default::default()
        };
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan);
        for r in 0..400u64 {
            sim.step(src.next_round(Round(r)));
        }
        for c in sim.chains() {
            assert!(c.verify(), "chain of {} verifies", c.shard());
        }
        let audit = simnet::reshard_audit(sim.chains(), sim.committed_log());
        assert_eq!(audit, (0, 0), "no commit lost or doubled");
        assert_eq!(
            sim.shards[0].node.active_shards(),
            6,
            "the +2 event activated"
        );
        let joined: usize = sim.chains()[4..].iter().map(|c| c.sub_count()).sum();
        assert!(joined > 0, "joined shards commit after the migration");
        let r = sim.finish();
        assert!(r.committed > 0);
    }

    #[test]
    fn live_scale_in_commits_without_loss() {
        use adversary::{ReshardSource, RoundSource};
        let (src_sys, map, plan, mut sim) = reshard_setup(6, &[(-2, 60)], &FaultPlan::default());
        let adv = AdversaryConfig {
            rho: 0.10,
            burstiness: 4,
            strategy: StrategyKind::UniformRandom,
            seed: 23,
            ..Default::default()
        };
        let mut src = ReshardSource::new(Adversary::new(&src_sys, &map, adv), plan);
        for r in 0..400u64 {
            sim.step(src.next_round(Round(r)));
        }
        let audit = simnet::reshard_audit(sim.chains(), sim.committed_log());
        assert_eq!(audit, (0, 0));
        assert_eq!(
            sim.shards[0].node.active_shards(),
            4,
            "the -2 event activated"
        );
        // Departed shards surrendered every account they owned.
        assert_eq!(sim.ledgers().nth(4).map(ShardLedger::total), Some(0));
        assert_eq!(sim.ledgers().nth(5).map(ShardLedger::total), Some(0));
        let r = sim.finish();
        assert!(r.committed > 0);
    }

    #[test]
    fn handoffs_conserve_total_balance() {
        let (_, _, _, mut sim) = reshard_setup(4, &[(2, 5), (-3, 9)], &FaultPlan::default());
        for _ in 0..60 {
            sim.step(Vec::new());
        }
        assert_eq!(sim.shards[0].node.active_shards(), 3);
        let total: u64 = sim.ledgers().map(|l| l.total()).sum();
        assert_eq!(
            total,
            64 * BdsConfig::default().initial_balance,
            "every balance survived two migrations"
        );
    }

    #[test]
    fn works_on_nonuniform_metric_with_stretched_phases() {
        let (sys, map) = small_sys();
        let adv = AdversaryConfig {
            rho: 0.02,
            burstiness: 2,
            strategy: StrategyKind::UniformRandom,
            seed: 2,
            ..Default::default()
        };
        let metric = cluster::LineMetric::new(sys.shards);
        let sim = BdsSim::with_metric(&sys, &map, BdsConfig::default(), &metric);
        let r = crate::driver::drive(sim, &sys, &map, &adv, Round(3000));
        assert!(r.committed > 0);
        assert!(r.resolution_rate() > 0.8, "{}", r.summary());
    }
}
