//! Networked BDS over any [`ShardMetric`].
//!
//! Runs the *identical* protocol as `schedulers::bds::BdsSim` — same
//! messages, same byte estimates, same phase timing — but executed
//! concurrently by the cooperative claim executor ([`run_lockstep`],
//! [`default_workers`] threads unless the caller picks a count): shards
//! communicate only through the [`NetHub`]'s lock-free
//! link rings, and the [`RoundGate`] separates "all sends for round r
//! are enqueued" from "round r+1 drains". Each shard holds
//! only shard-local state; epoch lengths are learned from the leader's
//! broadcast plan, and epochs with nothing scheduled advance by the
//! two-gap timeout, exactly like the simulator since both sides observe
//! the same plan flow.
//!
//! The headline guarantee is differential: with an inert [`FaultPlan`],
//! [`run_net_bds`] returns a [`RunReport`] **byte-identical** to
//! `run_bds_with_metric` on the same inputs — commits, latencies, queue
//! series, message counts, verdict, everything (`runtime/tests/
//! differential.rs` enforces it). The merge step replays per-shard
//! commit events in the simulator's global order — `(round, home shard,
//! arrival index)` — so even the floating-point latency accumulation is
//! bit-equal.
//!
//! With a non-inert fault plan the run stays deterministic (fault
//! decisions are per-link ChaCha streams, independent of thread
//! interleaving) but the protocol is allowed to degrade: crashed shards
//! freeze, dropped ballots strand transactions as forever-pending, and
//! the injected-fault counters surface in [`RunReport::faults`].

use crate::exec::{default_workers, run_lockstep};
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::{Adversary, AdversaryConfig, RoundSource};
use cluster::ShardMetric;
use parking_lot::Mutex;
use schedulers::bds::BdsConfig;
use schedulers::metrics::{MetricsCollector, RunReport, SchedulerKind};
use schedulers::scheduler::Scheduler;
use sharding_core::txn::SubTransaction;
use sharding_core::{
    AccountId, AccountMap, ReshardPlan, Round, ShardId, SystemConfig, Transaction, TxnId,
};
use simnet::faults::{FaultCounters, FaultPlan};
use simnet::pbft::{ConsensusOutcome, PbftShard};
use simnet::{LocalChain, ShardLedger};
use std::collections::BTreeMap;

/// Messages of the networked BDS protocol — field-for-field the
/// simulator's `Msg`, and [`msg_bytes`] must stay in lockstep with
/// `schedulers::bds::msg_bytes` (the differential tests compare
/// `max_message_bytes`, so drift fails loudly).
#[derive(Debug, Clone)]
enum Msg {
    /// Phase 1: home shard → leader, all pending transactions.
    TxnInfo(Vec<Transaction>),
    /// Phase 2: leader → every shard, its assignments + the color count.
    ColorAssign {
        assignments: Vec<(TxnId, u32)>,
        num_colors: u32,
    },
    /// Phase 3 round 1: home → destination.
    SubTxn(SubTransaction),
    /// Phase 3 round 2: destination → home.
    Vote { txn: TxnId, commit: bool },
    /// Phase 3 round 3: home → destination.
    Decision { txn: TxnId, commit: bool },
    /// Migration boundary: leader → every shard, the reshard plan's
    /// now-live table version.
    TableUpdate { version: u32 },
    /// Migration boundary: old owner → new owner, migrated balances.
    Handoff { accounts: Vec<(AccountId, u64)> },
}

/// Estimated wire size; mirrors `schedulers::bds::msg_bytes` exactly.
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

/// One commit/abort decision, recorded shard-locally and replayed
/// globally in `(round, shard, index)` order by the merge step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommitEvent {
    pub round: u64,
    pub generated: Round,
    pub commit_round: Round,
    pub txn: TxnId,
    pub home: ShardId,
    pub committed: bool,
}

/// What one shard's slot hands back to the merge step (results are
/// collected in shard order, so no index needs carrying). Sample layout:
/// `[pending, epoch, cumulative byz flips, crashed-now flag]` for the
/// epoch-hosted engine; the FDS engine documents its own layout.
pub(crate) struct NodeResult {
    pub events: Vec<CommitEvent>,
    pub samples: Vec<[u64; 6]>,
    pub epoch: u64,
    pub max_epoch_len: u64,
    pub chain_ok: bool,
    /// The shard's local chain, retained for the post-run reshard audit
    /// (`None` for engines that don't run one).
    pub chain: Option<LocalChain>,
    pub counters: FaultCounters,
}

/// Replays per-shard commit events into `collector` in the simulator's
/// global order and returns the merged committed log. Latency statistics
/// accumulate in exactly the simulator's push order, so the floating-
/// point mean is bit-equal.
pub(crate) fn replay_events(
    collector: &mut MetricsCollector,
    results: &[NodeResult],
    round: u64,
    cursors: &mut [usize],
    log: &mut Vec<(Round, TxnId)>,
) {
    for (sh, res) in results.iter().enumerate() {
        let evs = &res.events;
        let mut i = cursors[sh];
        while i < evs.len() && evs[i].round == round {
            let e = evs[i];
            if e.committed {
                collector.record_commit(e.generated, e.commit_round, e.home);
                log.push((e.commit_round, e.txn));
            } else {
                collector.record_abort();
            }
            i += 1;
        }
        cursors[sh] = i;
    }
}

/// `schedule[home shard][round]` = the transactions injected at that
/// shard in that round. Shard-major so each shard's slot can own its
/// column and move each round's batch out instead of cloning it.
pub(crate) type InjectSchedule = Vec<Vec<Vec<Transaction>>>;

/// Evaluates the adversary up front (it is a pure function of its seed)
/// and partitions the workload per `(home shard, round)`; returns the
/// schedule plus the total generated count. Shared by both networked
/// drivers so the generation accounting cannot drift between them.
pub(crate) fn pregenerate_workload(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    total: u64,
) -> (InjectSchedule, u64) {
    let mut adversary = Adversary::new(sys, map, *adv);
    pregenerate_from(&mut adversary, sys.shards, total)
}

/// [`pregenerate_workload`] generalized over any [`RoundSource`]: drains
/// the source round by round up front — in exactly the order the
/// simulator drains it live, so a deterministic source yields the same
/// per-round batches on both engines — and partitions per
/// `(home shard, round)`.
pub(crate) fn pregenerate_from(
    source: &mut dyn RoundSource,
    shards: usize,
    total: u64,
) -> (InjectSchedule, u64) {
    let mut inject: InjectSchedule = vec![vec![Vec::new(); total as usize]; shards];
    let mut generated = 0u64;
    for r in 0..total {
        for t in source.next_round(Round(r)) {
            generated += 1;
            inject[t.home.index()][r as usize].push(t);
        }
    }
    (inject, generated)
}

/// Fills the report's fault counters from the per-shard tallies plus the
/// hub's message-plane totals and seals the [`NetOutcome`]. Shared by
/// both networked drivers so a new counter cannot be merged in one
/// engine and silently missed in the other.
pub(crate) fn seal_outcome<P>(
    mut report: RunReport,
    res: &[NodeResult],
    hub: &NetHub<P>,
    log: Vec<(Round, TxnId)>,
) -> NetOutcome {
    let mut counters = FaultCounters::default();
    for r in res {
        counters.merge(&r.counters);
    }
    counters.dropped = hub.dropped_count();
    counters.duplicated = hub.duplicated_count();
    report.faults = counters;
    NetOutcome {
        report,
        committed_log: log,
        chains_verified: res.iter().all(|r| r.chain_ok),
        reshard_audit: None,
    }
}

/// Per-transaction state at its home shard (simulator's `EpochEntry`).
struct EpochEntry {
    txn: Transaction,
    color: Option<u32>,
    /// Vote per destination shard. Keyed by sender (not a bare count) so
    /// a fault-plane duplicated `Vote` — or a re-vote triggered by a
    /// duplicated `SubTxn` — stays idempotent: faults may strand
    /// transactions, never decide them early.
    votes: BTreeMap<ShardId, bool>,
    decided: bool,
}

/// All state owned by one shard thread.
struct ShardNode<'a> {
    id: ShardId,
    s: usize,
    bcfg: BdsConfig,
    plan: &'a FaultPlan,
    fault_free: bool,
    /// My row of the distance matrix (for commit-round accounting).
    dist_row: Vec<u64>,
    ledger: ShardLedger,
    chain: LocalChain,
    pbft: PbftShard,
    injection: Vec<Transaction>,
    epoch_txns: BTreeMap<TxnId, EpochEntry>,
    color_groups: Vec<Vec<TxnId>>,
    parked: BTreeMap<TxnId, SubTransaction>,
    append_buf: Vec<SubTransaction>,
    leader_buffer: Vec<Transaction>,
    gap: u64,
    now: u64,
    epoch: u64,
    epoch_start: u64,
    /// Known end of the current epoch: set locally when this shard is
    /// the coloring leader, or from the broadcast plan on arrival. `None`
    /// until then; the two-gap timeout covers plan-free (empty) epochs.
    next_epoch_at: Option<u64>,
    undecided: u64,
    max_epoch_len: u64,
    /// The epoch-planning policy (consulted only in the rounds this
    /// shard is the rotating leader; purity of the [`Scheduler`]
    /// contract is what keeps every shard's copy interchangeable).
    policy: Box<dyn Scheduler>,
    assign_scratch: Vec<Vec<(TxnId, u32)>>,
    /// Shared reshard schedule (pre-agreed configuration, like the fault
    /// plan) plus this node's current version index. All nodes advance
    /// at the same absolute rollover rounds — reshard runs are fault-free
    /// by construction — so no node ever needs another's table.
    reshard: Option<&'a ReshardPlan>,
    rv: usize,
    events: Vec<CommitEvent>,
    samples: Vec<[u64; 6]>,
    counters: FaultCounters,
}

impl<'a> ShardNode<'a> {
    fn leader(&self) -> u32 {
        if self.bcfg.rotate_leader {
            (self.epoch % self.s as u64) as u32
        } else {
            0
        }
    }

    /// Active (vnode-owning) shards under the node's current table.
    fn active_count(&self) -> u64 {
        self.reshard
            .map_or(self.s as u64, |p| p.versions[self.rv].active.len() as u64)
    }

    /// Mirrors `BdsSim::advance_reshard`: steps through every version
    /// whose activation round has passed; the leader broadcasts the
    /// activation signal and this node hands off its departing account
    /// balances (ascending destination), matching the simulator's
    /// per-sender send order exactly.
    fn advance_reshard(&mut self, round: u64, port: &mut ShardPort<'_, Msg>) {
        let Some(plan) = self.reshard else { return };
        while self.rv + 1 < plan.versions.len() && plan.versions[self.rv + 1].at <= round {
            let old = self.rv;
            self.rv += 1;
            if self.id.raw() == self.leader() {
                for h in 0..self.s {
                    port.send(
                        ShardId(h as u32),
                        round,
                        Msg::TableUpdate {
                            version: self.rv as u32,
                        },
                    );
                }
            }
            let mut batches: BTreeMap<ShardId, Vec<(AccountId, u64)>> = BTreeMap::new();
            for (account, from, to) in plan.moves(old) {
                if from != self.id {
                    continue;
                }
                let balance = self
                    .ledger
                    .remove_account(account)
                    .expect("migrating account owned by its old shard");
                batches.entry(to).or_default().push((account, balance));
            }
            for (to, accounts) in batches {
                port.send(to, round, Msg::Handoff { accounts });
            }
        }
    }

    /// One full round, mirroring `BdsSim::step` (injection happens in the
    /// caller, before this). `inbox` is the driver's reusable drain
    /// buffer; this consumes its contents.
    fn run_round(&mut self, inbox: &mut Vec<NetEnvelope<Msg>>, port: &mut ShardPort<'_, Msg>) {
        let round = self.now;
        // 0. Intra-shard consensus on this round's inbox digest — the
        //    paper's round abstraction executed for real, with the fault
        //    plane's Byzantine voters flipped in. Purely local: it never
        //    touches the report, so fault-free byte-identity holds.
        let digest = round ^ ((inbox.len() as u64) << 32) ^ (self.id.raw() as u64);
        let flips = self.plan.byz_flips_for(self.pbft.faulty());
        let outcome = self.pbft.decide_with_byzantine(digest, flips);
        debug_assert_eq!(outcome, ConsensusOutcome::Decided(digest));
        let _ = outcome;
        self.counters.byz_flips += flips as u64;

        // 1. Delivery (the simulator delivers before the epoch
        //    transition for exactly this mirror).
        for env in inbox.drain(..) {
            self.handle(env.from, env.payload, port);
        }

        // 2. Epoch rollover: the plan told us the end, or the epoch was
        //    empty (no plan broadcast) and the two coordination gaps have
        //    passed.
        let rollover = self.next_epoch_at == Some(round)
            || (self.next_epoch_at.is_none() && round == self.epoch_start + 2 * self.gap);
        if rollover {
            self.max_epoch_len = self.max_epoch_len.max(round - self.epoch_start);
            self.epoch += 1;
            self.epoch_start = round;
            self.next_epoch_at = None;
            if self.fault_free {
                debug_assert!(
                    self.epoch_txns.values().all(|e| e.decided),
                    "undecided entry survived its epoch without faults"
                );
            }
            self.epoch_txns.retain(|_, e| !e.decided);
            for g in &mut self.color_groups {
                g.clear();
            }
            // Migration epoch boundary: switch tables before phase 1 so
            // the new epoch schedules under the new placement. Mirrors
            // the simulator's rollover ordering exactly.
            self.advance_reshard(round, port);
        }

        // 3. Phase 1: forward pending transactions to the epoch leader.
        if round == self.epoch_start && !self.injection.is_empty() {
            let mut drained = std::mem::take(&mut self.injection);
            // Under a reshard plan, rebuild each transaction's shard
            // grouping against the current table (the source may have
            // grouped under an older version) — as in `BdsSim`.
            if let Some(plan) = self.reshard {
                let map = &plan.versions[self.rv].map;
                for t in &mut drained {
                    *t = t.regrouped(map);
                }
            }
            self.undecided += drained.len() as u64;
            let leader = self.leader();
            port.send(ShardId(leader), round, Msg::TxnInfo(drained.clone()));
            for t in drained {
                self.epoch_txns.insert(
                    t.id,
                    EpochEntry {
                        txn: t,
                        color: None,
                        votes: BTreeMap::new(),
                        decided: false,
                    },
                );
            }
        }

        // 4. Phase 2 (leader only): color and broadcast the epoch plan.
        if round == self.epoch_start + self.gap
            && self.next_epoch_at.is_none()
            && self.id.raw() == self.leader()
        {
            self.phase2_color(port);
        }

        // 5. Phase 3: dispatch the color group designated for this round.
        self.phase3_dispatch(port);

        // 6. Seal this round's commits into one block.
        if !self.append_buf.is_empty() {
            let batch = std::mem::take(&mut self.append_buf);
            self.chain.append_block(batch, Round(round));
        }
    }

    fn phase2_color(&mut self, port: &mut ShardPort<'_, Msg>) {
        let txns = std::mem::take(&mut self.leader_buffer);
        let num_colors = if txns.is_empty() {
            0
        } else {
            let plan = self.policy.plan_epoch(self.epoch, &txns);
            debug_assert!(
                plan.is_safe_for(&txns),
                "{} violated the epoch-plan safety contract",
                self.policy.kind()
            );
            for (v, t) in txns.iter().enumerate() {
                self.assign_scratch[t.home.index()].push((t.id, plan.slot(v)));
            }
            plan.num_slots
        };
        if num_colors > 0 {
            for h in 0..self.s {
                let assignments = std::mem::take(&mut self.assign_scratch[h]);
                port.send(
                    ShardId(h as u32),
                    self.now,
                    Msg::ColorAssign {
                        assignments,
                        num_colors,
                    },
                );
            }
        }
        self.next_epoch_at = Some(self.epoch_start + self.gap * (2 + 4 * num_colors as u64));
    }

    fn phase3_dispatch(&mut self, port: &mut ShardPort<'_, Msg>) {
        let elapsed = self.now - self.epoch_start;
        if elapsed < 2 * self.gap {
            return;
        }
        let offset = elapsed - 2 * self.gap;
        if !offset.is_multiple_of(4 * self.gap) {
            return;
        }
        let z = (offset / (4 * self.gap)) as usize;
        let Some(group) = self.color_groups.get_mut(z) else {
            return;
        };
        let group = std::mem::take(group);
        for txn in group {
            let Some(entry) = self.epoch_txns.get(&txn) else {
                continue;
            };
            if entry.decided {
                continue;
            }
            for sub in &entry.txn.subs {
                port.send(sub.dest, self.now, Msg::SubTxn(sub.clone()));
            }
        }
    }

    fn handle(&mut self, from: ShardId, msg: Msg, port: &mut ShardPort<'_, Msg>) {
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
                    if let Some(e) = self.epoch_txns.get_mut(&txn) {
                        e.color = Some(color);
                        let z = color as usize;
                        if self.color_groups.len() <= z {
                            self.color_groups.resize_with(z + 1, Vec::new);
                        }
                        self.color_groups[z].push(txn);
                    }
                }
            }
            Msg::SubTxn(sub) => {
                let commit = self.ledger.check(&sub);
                let txn = sub.txn;
                self.parked.insert(txn, sub);
                port.send(from, self.now, Msg::Vote { txn, commit });
            }
            Msg::Vote { txn, commit } => {
                let Some(e) = self.epoch_txns.get_mut(&txn) else {
                    return;
                };
                e.votes.insert(from, commit);
                if e.votes.len() == e.txn.shard_count() && !e.decided {
                    e.decided = true;
                    self.undecided -= 1;
                    let commit_all = e.votes.values().all(|&v| v);
                    let generated = e.txn.generated;
                    let first_dest = e.txn.subs[0].dest;
                    let dests: Vec<ShardId> = e.txn.shards().collect();
                    for d in dests {
                        port.send(
                            d,
                            self.now,
                            Msg::Decision {
                                txn,
                                commit: commit_all,
                            },
                        );
                    }
                    // Destinations append one gap later.
                    let commit_round = self.now + self.dist_row[first_dest.index()].max(1);
                    self.events.push(CommitEvent {
                        round: self.now,
                        generated,
                        commit_round: Round(commit_round),
                        txn,
                        home: self.id,
                        committed: commit_all,
                    });
                }
            }
            Msg::Decision { txn, commit } => {
                if let Some(sub) = self.parked.remove(&txn) {
                    if commit {
                        self.ledger.apply(&sub);
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
                    self.ledger.absorb(account, balance);
                }
            }
        }
    }
}

/// Runs the networked BDS: the adversary is evaluated up front (it is a
/// pure function of its seed), partitioned per `(home shard, round)`, and
/// each shard reads only its own column. Equivalent to
/// [`run_net_sched`] with [`SchedulerKind::Bds`] and
/// [`default_workers`] threads.
#[allow(clippy::too_many_arguments)]
pub fn run_net_bds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
) -> NetOutcome {
    run_net_sched(
        sys,
        map,
        adv,
        rounds,
        metric,
        bcfg,
        faults,
        SchedulerKind::Bds,
        default_workers(sys.shards),
        false,
    )
}

/// Runs any epoch-hosted scheduler — BDS proper or a zoo policy — over
/// the networked engine. `kind` must have an epoch policy
/// ([`SchedulerKind::epoch_policy`] returns `Some`); FDS has its own
/// networked driver and FCFS no networked protocol at all. `workers`
/// sets the cooperative executor's thread count ([`default_workers`] is
/// the natural choice; the result is identical for any `workers >= 1` —
/// the conformance harness pins it).
///
/// Every shard constructs its own policy instance from the factory; only
/// the rotating leader's is consulted each epoch, which is sound because
/// the [`Scheduler`] contract requires plans to be pure functions of
/// `(epoch, batch)`.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
) -> NetOutcome {
    let mut adversary = Adversary::new(sys, map, *adv);
    run_net_sched_from(
        sys,
        map,
        &mut adversary,
        rounds,
        metric,
        bcfg,
        faults,
        kind,
        workers,
        metrics,
    )
}

/// [`run_net_sched`] generalized over any [`RoundSource`] — the seam the
/// streaming ingestion plane plugs into. The source is pre-drained round
/// by round (generation stays off the executed rounds), then the engine
/// runs exactly as with the legacy adversary.
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched_from(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
) -> NetOutcome {
    run_net_epoch_hosted(
        sys, map, source, rounds, metric, bcfg, faults, kind, workers, metrics, None,
    )
}

/// Runs an epoch-hosted scheduler under a live reshard schedule. The
/// system must be provisioned for the plan's `s_max` and `map` must be
/// the plan's version-0 placement; the fault plan must be inert (a
/// crashed shard losing a balance handoff is unrecoverable state loss,
/// so the scenario layer rejects the combination and this engine
/// asserts it). The outcome carries the zero-loss/zero-duplication
/// audit in [`NetOutcome::reshard_audit`].
#[allow(clippy::too_many_arguments)]
pub fn run_net_sched_reshard(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
    plan: &ReshardPlan,
) -> NetOutcome {
    assert_eq!(
        plan.s_max, sys.shards,
        "system must be provisioned for the plan's s_max"
    );
    assert!(faults.is_inert(), "resharding requires a fault-free run");
    run_net_epoch_hosted(
        sys,
        map,
        source,
        rounds,
        metric,
        bcfg,
        faults,
        kind,
        workers,
        metrics,
        Some(plan),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_net_epoch_hosted(
    sys: &SystemConfig,
    map: &AccountMap,
    source: &mut dyn RoundSource,
    rounds: Round,
    metric: &dyn ShardMetric,
    bcfg: BdsConfig,
    faults: &FaultPlan,
    kind: SchedulerKind,
    workers: usize,
    metrics: bool,
    reshard: Option<&ReshardPlan>,
) -> NetOutcome {
    sys.validate().expect("valid system config");
    assert_eq!(metric.shards(), sys.shards);
    faults.validate(sys.shards).expect("valid fault plan");
    let s = sys.shards;
    let total = rounds.raw();
    let gap = metric.diameter().max(1);

    let (inject, generated) = pregenerate_from(source, s, total);

    let hub: NetHub<Msg> = NetHub::new(metric, msg_bytes).expect("validated: at least one shard");
    let gate = RoundGate::new(s);

    // One slot per shard: node state, its hub endpoints, its column of
    // the injection schedule, and the reusable drain buffer, handed
    // between workers by the claim executor.
    struct Slot<'h, 'a> {
        node: ShardNode<'a>,
        port: ShardPort<'h, Msg>,
        inbox: NetInbox<Msg>,
        inject: Vec<Vec<Transaction>>,
        buf: Vec<NetEnvelope<Msg>>,
        crash_at: Option<u64>,
    }
    let slots: Vec<Mutex<Slot<'_, '_>>> = inject
        .into_iter()
        .enumerate()
        .map(|(shard, inject)| {
            let id = ShardId(shard as u32);
            let dist_row: Vec<u64> = (0..s)
                .map(|b| metric.distance(id, ShardId(b as u32)))
                .collect();
            Mutex::new(Slot {
                node: ShardNode {
                    id,
                    s,
                    bcfg,
                    plan: faults,
                    fault_free: faults.is_inert(),
                    dist_row,
                    ledger: ShardLedger::new(id, map, bcfg.initial_balance),
                    chain: LocalChain::new(id),
                    pbft: PbftShard::new(id, sys.nodes_per_shard, sys.faulty_per_shard)
                        .expect("validated config"),
                    injection: Vec::new(),
                    epoch_txns: BTreeMap::new(),
                    color_groups: Vec::new(),
                    parked: BTreeMap::new(),
                    append_buf: Vec::new(),
                    leader_buffer: Vec::new(),
                    gap,
                    now: 0,
                    epoch: 0,
                    epoch_start: 0,
                    next_epoch_at: None,
                    undecided: 0,
                    max_epoch_len: 0,
                    policy: kind
                        .epoch_policy(bcfg.coloring, sys.accounts, s)
                        .unwrap_or_else(|| {
                            panic!("{kind} has no epoch policy; use its dedicated networked driver")
                        }),
                    assign_scratch: vec![Vec::new(); s],
                    reshard,
                    rv: 0,
                    events: Vec::new(),
                    samples: Vec::with_capacity(total as usize),
                    counters: FaultCounters::default(),
                },
                port: ShardPort::new(&hub, id, faults),
                inbox: NetInbox::new(&hub, id),
                inject,
                buf: Vec::new(),
                crash_at: faults.crash_round(id).map(|r| r.raw()),
            })
        })
        .collect();

    run_lockstep(&gate, &slots, total, workers, |slot, _shard, round| {
        let node = &mut slot.node;
        node.now = round;
        if slot.crash_at == Some(round) {
            node.counters.crashes += 1;
        }
        let crashed = slot.crash_at.is_some_and(|c| round >= c);
        // Injection: generated work accumulates even on a crashed shard
        // (it counts as pending, unserviced).
        node.injection
            .extend(std::mem::take(&mut slot.inject[round as usize]));
        // The executor only runs this once every peer finished round-1
        // sends; the drain below then sees all of them.
        slot.inbox.drain_into(round, &mut slot.buf);
        if crashed {
            // A dead shard neither sends nor processes; the drain above
            // still ran, keeping ring memory bounded — its contents just
            // evaporate.
            slot.buf.clear();
        } else {
            node.run_round(&mut slot.buf, &mut slot.port);
        }
        node.samples.push([
            node.injection.len() as u64 + node.undecided,
            node.epoch,
            node.counters.byz_flips,
            u64::from(crashed),
            node.active_count(),
            0,
        ]);
    });

    // Consuming a slot drops its port, flushing the shard's local message
    // tallies into the hub before the counters are read below.
    let res: Vec<NodeResult> = slots
        .into_iter()
        .map(|slot| {
            let Slot { node, .. } = slot.into_inner();
            NodeResult {
                events: node.events,
                samples: node.samples,
                epoch: node.epoch,
                max_epoch_len: node.max_epoch_len,
                chain_ok: node.chain.verify(),
                chain: Some(node.chain),
                counters: node.counters,
            }
        })
        .collect();

    let mut collector = MetricsCollector::new(s);
    if metrics {
        collector.enable_metrics();
    }
    let mut log = Vec::new();
    let mut cursors = vec![0usize; s];
    let mut pending_at_end = 0u64;
    for round in 0..total {
        replay_events(&mut collector, &res, round, &mut cursors, &mut log);
        // Timeline sample, mirroring `BdsSim::step`'s: fault-free every
        // shard observes the same epoch (and active-shard count) at the
        // same absolute round — the rollover is an absolute round learned
        // from the broadcast plan — so `max` equals the simulator's
        // single counter; under faults it reports the furthest live view.
        let (mut total_pending, mut epoch, mut byz, mut crashed, mut active) = (0, 0, 0, 0, 0);
        for n in &res {
            let [p, e, b, x, a, _] = n.samples[round as usize];
            total_pending += p;
            epoch = epoch.max(e);
            byz += b;
            crashed += x;
            active = active.max(a);
        }
        collector.sample_pending(total_pending);
        collector
            .sink
            .on_round(epoch, total_pending, byz, crashed, active);
        pending_at_end = total_pending;
    }

    // Fault-free, every shard observes the same epoch sequence (the
    // differential tests pin res[0] == max). Under faults a crashed or
    // desynced shard's counters freeze, so report the furthest view of
    // the run rather than whatever shard 0 saw.
    let epochs = res.iter().map(|r| r.epoch).max().unwrap_or(0);
    let max_epoch_len = res.iter().map(|r| r.max_epoch_len).max().unwrap_or(0);
    let report = collector.finish(
        kind,
        total,
        generated,
        pending_at_end,
        epochs,
        max_epoch_len,
        hub.sent_count(),
        hub.max_message_bytes(),
    );
    let mut out = seal_outcome(report, &res, &hub, log);
    if reshard.is_some() {
        let chains: Vec<LocalChain> = res
            .into_iter()
            .map(|n| n.chain.expect("epoch-hosted nodes retain their chain"))
            .collect();
        out.reshard_audit = Some(simnet::reshard_audit(&chains, &out.committed_log));
    }
    out
}
