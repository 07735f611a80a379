//! Networked FDS over any [`ShardMetric`].
//!
//! The same mirror discipline as [`crate::netbds`]: every shard
//! runs exactly the per-shard slice of `schedulers::fds::FdsSim` — home
//! outbox, the leader state of the clusters it leads, its destination
//! schedule queue — over the [`NetHub`]'s lock-free link rings, one
//! watermark gate per run. FDS needs no protocol change to be
//! networkable: epoch starts,
//! coloring moments, and rescheduling alignments are pure functions of
//! the round number and the (shared, immutable) cluster hierarchy, so no
//! shard ever needs knowledge that only a message could carry and the
//! simulator already sends.
//!
//! With an inert [`FaultPlan`] the resulting
//! [`RunReport`](schedulers::metrics::RunReport) is byte-identical to
//! `run_fds` on the same inputs (differential-test enforced); with
//! faults, the run stays deterministic and the injected counters
//! surface in [`RunReport::faults`](schedulers::metrics::RunReport::faults).

use crate::exec::{default_workers, run_lockstep};
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::netbds::{
    pregenerate_workload, replay_events, seal_outcome, CommitEvent, NetOutcome, NodeResult,
};
use crate::sync::RoundGate;
use adversary::AdversaryConfig;
use cluster::{ClusterId, Hierarchy, ShardMetric};
use parking_lot::Mutex;
use schedulers::fds::{FdsConfig, Height};
use schedulers::metrics::{MetricsCollector, SchedulerKind};
use schedulers::scheduler::{ColoringPolicy, EpochPlan, Scheduler};
use sharding_core::txn::SubTransaction;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::{FaultCounters, FaultPlan};
use simnet::pbft::{ConsensusOutcome, PbftShard};
use simnet::{LocalChain, ShardLedger};
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the networked FDS protocol — field-for-field the
/// simulator's `Msg`; [`msg_bytes`] mirrors `schedulers::fds::msg_bytes`.
#[derive(Debug, Clone)]
enum Msg {
    /// Home shard → cluster leader: a new transaction to schedule.
    ToLeader { txn: Transaction },
    /// Leader → destination: scheduled subtransaction with its height.
    Schedule {
        sub: SubTransaction,
        height: Height,
        leader: ShardId,
    },
    /// Destination → leader: validity vote.
    Vote { txn: TxnId, commit: bool },
    /// Leader → destination: final confirmation.
    Confirm { txn: TxnId, commit: bool },
}

/// Estimated wire size; mirrors `schedulers::fds::msg_bytes` exactly.
fn msg_bytes(m: &Msg) -> usize {
    match m {
        Msg::ToLeader { txn } => txn.approx_bytes(),
        Msg::Schedule { sub, .. } => 28 + sub.approx_bytes(),
        Msg::Vote { .. } | Msg::Confirm { .. } => 17,
    }
}

/// Per-transaction state at its cluster leader (simulator's
/// `LeaderEntry`).
struct LeaderEntry {
    txn: Transaction,
    votes: BTreeMap<ShardId, bool>,
}

/// Scheduling state of one cluster this shard leads (simulator's
/// `LeaderState`).
#[derive(Default)]
struct LeaderState {
    incoming: Vec<Transaction>,
    sch_ldr: BTreeMap<TxnId, LeaderEntry>,
    last_ids: Vec<TxnId>,
    last_plan: Option<EpochPlan>,
}

/// Schedule-queue state of this shard as a destination (simulator's
/// `DestState`).
#[derive(Default)]
struct DestState {
    sch_qd: BTreeMap<Height, SubTransaction>,
    by_txn: BTreeMap<TxnId, Height>,
    leader_of: BTreeMap<TxnId, ShardId>,
    voted: BTreeSet<TxnId>,
}

/// All state owned by one shard thread.
struct ShardNode<'a> {
    id: ShardId,
    fcfg: FdsConfig,
    plan: &'a FaultPlan,
    fault_free: bool,
    hierarchy: &'a Hierarchy,
    dist_row: Vec<u64>,
    ledger: ShardLedger,
    chain: LocalChain,
    outbox: Vec<(ClusterId, Transaction)>,
    /// Clusters this shard leads, created lazily on first arrival.
    leaders: BTreeMap<ClusterId, LeaderState>,
    /// Home cluster of every transaction in some local `sch_ldr`.
    txn_cluster: BTreeMap<TxnId, ClusterId>,
    dest: DestState,
    append_buf: Vec<SubTransaction>,
    pbft: PbftShard,
    e0: u64,
    now: u64,
    /// Cumulative injected (at this home) / resolved (at this leader).
    injected: u64,
    resolved: u64,
    /// Memoized `Hierarchy::home_cluster` per `(home, x)`.
    home_cluster_cache: Vec<Vec<Option<ClusterId>>>,
    policy: ColoringPolicy,
    events: Vec<CommitEvent>,
    samples: Vec<[u64; 6]>,
    counters: FaultCounters,
}

impl<'a> ShardNode<'a> {
    fn epoch_len(&self, layer: u32) -> u64 {
        self.e0 << layer
    }

    fn home_cluster_cached(&mut self, home: ShardId, x: u64) -> ClusterId {
        let slot = &mut self.home_cluster_cache[home.index()];
        let xi = x as usize;
        if slot.len() <= xi {
            slot.resize(xi + 1, None);
        }
        if let Some(cid) = slot[xi] {
            return cid;
        }
        let cid = self.hierarchy.home_cluster(home, x);
        self.home_cluster_cache[home.index()][xi] = Some(cid);
        cid
    }

    /// One full round, mirroring `FdsSim::step` (injection happens in
    /// the caller, before this). `inbox` is the driver's reusable drain
    /// buffer; this consumes its contents.
    fn run_round(&mut self, inbox: &mut Vec<NetEnvelope<Msg>>, port: &mut ShardPort<'_, Msg>) {
        let round = self.now;
        // 0. Intra-shard consensus, with Byzantine voters flipped in.
        let digest = round ^ ((inbox.len() as u64) << 32) ^ (self.id.raw() as u64);
        let flips = self.plan.byz_flips_for(self.pbft.faulty());
        let outcome = self.pbft.decide_with_byzantine(digest, flips);
        debug_assert_eq!(outcome, ConsensusOutcome::Decided(digest));
        let _ = outcome;
        self.counters.byz_flips += flips as u64;

        // 1. Phase 1 of Algorithm 2a: forward outbox entries whose
        //    layer's epoch starts now.
        self.phase1_forward(port);

        // 2. Delivery.
        for env in inbox.drain(..) {
            self.handle(env.from, env.payload, port);
        }

        // 3. Phase 2: clusters this shard leads at their coloring moment.
        self.phase2_color_clusters(port);

        // 4. Algorithm 2b step 1: vote for the smallest-height unvoted
        //    entry of my schedule queue.
        self.vote_head(port);

        // 5. Seal this round's commits into one block.
        if !self.append_buf.is_empty() {
            let batch = std::mem::take(&mut self.append_buf);
            self.chain.append_block(batch, Round(round));
        }
    }

    fn phase1_forward(&mut self, port: &mut ShardPort<'_, Msg>) {
        if self.outbox.is_empty() {
            return;
        }
        let now = self.now;
        let mut keep = Vec::new();
        for (cid, txn) in std::mem::take(&mut self.outbox) {
            if now.is_multiple_of(self.epoch_len(cid.layer)) {
                let leader = self.hierarchy.cluster(cid).leader;
                port.send(leader, now, Msg::ToLeader { txn });
            } else {
                keep.push((cid, txn));
            }
        }
        self.outbox = keep;
    }

    fn phase2_color_clusters(&mut self, port: &mut ShardPort<'_, Msg>) {
        let now = self.now;
        let due: Vec<ClusterId> = self
            .leaders
            .iter()
            .filter(|(cid, st)| {
                let d_c = self.hierarchy.cluster(**cid).diameter.max(1);
                let e_i = self.epoch_len(cid.layer);
                now >= d_c
                    && (now - d_c).is_multiple_of(e_i)
                    && (!st.incoming.is_empty() || !st.sch_ldr.is_empty())
            })
            .map(|(cid, _)| *cid)
            .collect();
        for cid in due {
            self.color_cluster(cid, port);
        }
    }

    fn color_cluster(&mut self, cid: ClusterId, port: &mut ShardPort<'_, Msg>) {
        let d_c = self.hierarchy.cluster(cid).diameter.max(1);
        let leader_shard = self.hierarchy.cluster(cid).leader;
        let e_i = self.epoch_len(cid.layer);
        let r0 = self.now - d_c;
        let t_end = r0 + e_i;
        let reschedule = self.fcfg.reschedule && t_end.is_multiple_of(e_i * 2);

        let st = self.leaders.get_mut(&cid).expect("cluster state exists");
        let incoming = std::mem::take(&mut st.incoming);
        let mut targets: Vec<Transaction> = Vec::new();
        if reschedule {
            targets.extend(st.sch_ldr.values().map(|e| e.txn.clone()));
        }
        for t in incoming {
            if let std::collections::btree_map::Entry::Vacant(v) = st.sch_ldr.entry(t.id) {
                v.insert(LeaderEntry {
                    txn: t.clone(),
                    votes: BTreeMap::new(),
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

        let unchanged = st.last_plan.is_some()
            && st.last_ids.len() == targets.len()
            && st.last_ids.iter().zip(&targets).all(|(id, t)| *id == t.id);
        let plan = if unchanged {
            st.last_plan.clone().expect("checked above")
        } else {
            let p = self.policy.plan_epoch(t_end, &targets);
            st.last_ids.clear();
            st.last_ids.extend(targets.iter().map(|t| t.id));
            st.last_plan = Some(p.clone());
            p
        };
        let now = self.now;
        for (v, t) in targets.iter().enumerate() {
            let height = Height {
                t_end,
                layer: cid.layer,
                sublayer: cid.sublayer,
                color: plan.slot(v),
                txn: t.id,
            };
            for sub in &t.subs {
                port.send(
                    sub.dest,
                    now,
                    Msg::Schedule {
                        sub: sub.clone(),
                        height,
                        leader: leader_shard,
                    },
                );
            }
        }
    }

    fn vote_head(&mut self, port: &mut ShardPort<'_, Msg>) {
        let window = self.fcfg.pipeline_window.max(1);
        if self.dest.voted.len() >= window {
            return;
        }
        let picked = {
            let dest = &self.dest;
            dest.sch_qd
                .iter()
                .find(|(_, s)| !dest.voted.contains(&s.txn))
                .map(|(_, sub)| (sub.txn, self.ledger.check(sub)))
        };
        let Some((txn, commit)) = picked else {
            return;
        };
        let leader = self.dest.leader_of[&txn];
        self.dest.voted.insert(txn);
        port.send(leader, self.now, Msg::Vote { txn, commit });
    }

    fn handle(&mut self, from: ShardId, msg: Msg, port: &mut ShardPort<'_, Msg>) {
        match msg {
            Msg::ToLeader { txn } => {
                let x = txn
                    .shards()
                    .map(|s| self.hierarchy.distance(txn.home, s))
                    .max()
                    .unwrap_or(0);
                let cid = self.home_cluster_cached(txn.home, x);
                if self.fault_free {
                    debug_assert_eq!(self.hierarchy.cluster(cid).leader, self.id);
                }
                self.leaders.entry(cid).or_default().incoming.push(txn);
            }
            Msg::Schedule {
                sub,
                height,
                leader,
            } => {
                let dest = &mut self.dest;
                let txn = sub.txn;
                if let Some(old) = dest.by_txn.remove(&txn) {
                    dest.sch_qd.remove(&old);
                }
                dest.by_txn.insert(txn, height);
                dest.leader_of.insert(txn, leader);
                dest.sch_qd.insert(height, sub);
            }
            Msg::Vote { txn, commit } => {
                let Some(&cid) = self.txn_cluster.get(&txn) else {
                    return;
                };
                if self.fault_free {
                    debug_assert_eq!(self.hierarchy.cluster(cid).leader, self.id);
                }
                let mut decided: Option<bool> = None;
                if let Some(st) = self.leaders.get_mut(&cid) {
                    if let Some(entry) = st.sch_ldr.get_mut(&txn) {
                        entry.votes.insert(from, commit);
                        if entry.votes.len() == entry.txn.shard_count() {
                            decided = Some(entry.votes.values().all(|&v| v));
                        }
                    }
                }
                if let Some(all_commit) = decided {
                    self.confirm(cid, txn, all_commit, port);
                }
            }
            Msg::Confirm { txn, commit } => {
                let dest = &mut self.dest;
                if let Some(h) = dest.by_txn.remove(&txn) {
                    if let Some(sub) = dest.sch_qd.remove(&h) {
                        if commit && self.ledger.try_apply(&sub) {
                            self.append_buf.push(sub);
                        }
                    }
                }
                dest.leader_of.remove(&txn);
                dest.voted.remove(&txn);
            }
        }
    }

    /// Algorithm 2b steps 2–3 at the cluster leader.
    fn confirm(&mut self, cid: ClusterId, txn: TxnId, commit: bool, port: &mut ShardPort<'_, Msg>) {
        let st = self.leaders.get_mut(&cid).expect("cluster exists");
        let entry = st.sch_ldr.remove(&txn).expect("entry exists");
        self.txn_cluster.remove(&txn);
        let now = self.now;
        let mut worst = 1;
        for dest in entry.txn.shards() {
            worst = worst.max(self.dist_row[dest.index()].max(1));
            port.send(dest, now, Msg::Confirm { txn, commit });
        }
        self.resolved += 1;
        self.events.push(CommitEvent {
            round: now,
            generated: entry.txn.generated,
            commit_round: Round(now + worst),
            txn,
            home: entry.txn.home,
            committed: commit,
        });
    }

    /// End-of-round sample: `[my leader-queue total, my active-leader
    /// count, my cumulative injections, my cumulative resolutions, my
    /// cumulative Byzantine flips, crashed-now flag (set by the caller)]`.
    fn sample(&self) -> [u64; 6] {
        let (total, active) = self
            .leaders
            .values()
            .filter(|st| !st.sch_ldr.is_empty() || !st.incoming.is_empty())
            .fold((0u64, 0u64), |(t, n), st| {
                (t + (st.sch_ldr.len() + st.incoming.len()) as u64, n + 1)
            });
        [
            total,
            active,
            self.injected,
            self.resolved,
            self.counters.byz_flips,
            0,
        ]
    }
}

/// Runs the networked FDS; see the module docs for the mirror contract.
#[allow(clippy::too_many_arguments)]
pub fn run_net_fds(
    sys: &SystemConfig,
    map: &AccountMap,
    adv: &AdversaryConfig,
    rounds: Round,
    metric: &dyn ShardMetric,
    fcfg: FdsConfig,
    faults: &FaultPlan,
    metrics: bool,
) -> NetOutcome {
    sys.validate().expect("valid system config");
    assert_eq!(metric.shards(), sys.shards);
    faults.validate(sys.shards).expect("valid fault plan");
    let s = sys.shards;
    let total = rounds.raw();
    let lg = (usize::BITS - (s.max(2) - 1).leading_zeros()) as u64; // ceil(log2 s)
    let e0 = (fcfg.epoch_scale * lg).max(1);
    let hierarchy = Hierarchy::build_with_sublayers(metric, fcfg.sublayers);

    let (inject, generated) = pregenerate_workload(sys, map, adv, total);

    let hub: NetHub<Msg> = NetHub::new(metric, msg_bytes).expect("validated: at least one shard");
    let gate = RoundGate::new(s);

    // One slot per shard, handed between workers by the claim executor.
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
                    fcfg,
                    plan: faults,
                    fault_free: faults.is_inert(),
                    hierarchy: &hierarchy,
                    dist_row,
                    ledger: ShardLedger::new(id, map, fcfg.initial_balance),
                    chain: LocalChain::new(id),
                    outbox: Vec::new(),
                    leaders: BTreeMap::new(),
                    txn_cluster: BTreeMap::new(),
                    dest: DestState::default(),
                    append_buf: Vec::new(),
                    pbft: PbftShard::new(id, sys.nodes_per_shard, sys.faulty_per_shard)
                        .expect("validated config"),
                    e0,
                    now: 0,
                    injected: 0,
                    resolved: 0,
                    home_cluster_cache: vec![Vec::new(); s],
                    policy: ColoringPolicy::new(SchedulerKind::Fds, fcfg.coloring, sys.accounts),
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

    let workers = default_workers(s);
    run_lockstep(&gate, &slots, total, workers, |slot, _shard, round| {
        let node = &mut slot.node;
        node.now = round;
        if slot.crash_at == Some(round) {
            node.counters.crashes += 1;
        }
        let crashed = slot.crash_at.is_some_and(|c| round >= c);
        // Injection: assign home clusters, park in the outbox (generated
        // work accumulates even on a crashed shard — it counts as
        // outstanding, unserviced).
        for t in std::mem::take(&mut slot.inject[round as usize]) {
            node.injected += 1;
            let x = t
                .shards()
                .map(|d| node.hierarchy.distance(t.home, d))
                .max()
                .unwrap_or(0);
            let cid = node.home_cluster_cached(t.home, x);
            node.outbox.push((cid, t));
        }
        // The executor only runs this once every peer finished round-1
        // sends; the drain below then sees all of them.
        slot.inbox.drain_into(round, &mut slot.buf);
        if crashed {
            // Drained to keep ring memory bounded; a dead shard just
            // discards its inbox.
            slot.buf.clear();
        } else {
            node.run_round(&mut slot.buf, &mut slot.port);
        }
        let mut sample = node.sample();
        sample[5] = u64::from(crashed);
        node.samples.push(sample);
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
                epoch: 0,
                max_epoch_len: 0,
                chain_ok: node.chain.verify(),
                chain: None,
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
    let mut outstanding_at_end = 0u64;
    for round in 0..total {
        replay_events(&mut collector, &res, round, &mut cursors, &mut log);
        let mut lead_total = 0u64;
        let mut lead_active = 0u64;
        let mut injected = 0u64;
        let mut resolved = 0u64;
        let mut byz = 0u64;
        let mut crashed = 0u64;
        for r in &res {
            let [t, a, i, c, b, x] = r.samples[round as usize];
            lead_total += t;
            lead_active += a;
            injected += i;
            resolved += c;
            byz += b;
            crashed += x;
        }
        let leader_avg = lead_total as f64 / lead_active.max(1) as f64;
        let outstanding = injected.saturating_sub(resolved);
        collector.sample_queue_value(leader_avg, outstanding);
        // Timeline epoch = layer-0 epoch, exactly `FdsSim::step`'s
        // derivation, so fault-free timelines mirror the simulator.
        collector
            .sink
            .on_round(round / e0, outstanding, byz, crashed, sys.shards as u64);
        outstanding_at_end = outstanding;
    }

    let epochs = total / e0;
    let top_epoch = e0 << (hierarchy.num_layers() as u64 - 1);
    let report = collector.finish(
        SchedulerKind::Fds,
        total,
        generated,
        outstanding_at_end,
        epochs,
        top_epoch,
        hub.sent_count(),
        hub.max_message_bytes(),
    );
    seal_outcome(report, &res, &hub, log)
}
