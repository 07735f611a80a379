//! What tests the networked *host* rather than the protocols it hosts:
//! determinism with and without faults, the fault plane's counters and
//! their effect on a run (crash, drop, Byzantine votes, on BDS and FDS),
//! and the mailbox message plane against the previous generation's
//! semantics as an executable oracle. That a fault-free networked run
//! equals the simulator's byte for byte is `conformance_net.rs`'s table.

use adversary::{Adversary, AdversaryConfig, StrategyKind};
use cluster::{GridMetric, LineMetric, RingMetric, ShardMetric, UniformMetric};
use runtime::{default_workers, NetOutcome, NetRun};
use schedulers::bds::{BdsConfig, BdsProtocol};
use schedulers::fds::{FdsConfig, FdsProtocol};
use schedulers::node::{Node, Protocol};
use schedulers::testkit::small_system;
use schedulers::SchedulerKind;
use sharding_core::{Round, ShardId};
use simnet::FaultPlan;

fn adversary(seed: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho: 0.06,
        burstiness: 4,
        strategy: StrategyKind::UniformRandom,
        seed,
        ..Default::default()
    }
}

/// `rounds` rounds of `proto` on the networked engine over the kit's
/// 8-shard system under `faults`.
fn net<P>(
    proto: &P,
    metric: &dyn ShardMetric,
    seed: u64,
    rounds: u64,
    faults: &FaultPlan,
) -> NetOutcome
where
    P: Protocol,
    P::Node: Send,
    <P::Node as Node>::Msg: Send,
{
    let (sys, map) = small_system();
    let run = NetRun {
        sys: &sys,
        map: &map,
        metric,
        faults,
        workers: default_workers(8),
        metrics: false,
    };
    let mut source = Adversary::new(&sys, &map, adversary(seed));
    run.run(proto, &mut source, Round(rounds))
}

/// BDS over the uniform metric.
fn net_bds(seed: u64, rounds: u64, faults: &FaultPlan) -> NetOutcome {
    let proto = BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds);
    net(&proto, &UniformMetric::new(8), seed, rounds, faults)
}

/// FDS over a line.
fn net_fds(seed: u64, rounds: u64, faults: &FaultPlan) -> NetOutcome {
    let metric = LineMetric::new(8);
    let proto = FdsProtocol::new(FdsConfig::default(), &metric);
    net(&proto, &metric, seed, rounds, faults)
}

#[test]
fn networked_runs_are_deterministic_with_and_without_faults() {
    let faulty = FaultPlan {
        seed: 9,
        drop_prob: 0.02,
        dup_prob: 0.01,
        crashes: vec![(ShardId(3), Round(200))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    for plan in [FaultPlan::default(), faulty] {
        let a = net_bds(41, 700, &plan);
        let b = net_bds(41, 700, &plan);
        assert_eq!(a.report.summary(), b.report.summary());
        assert_eq!(a.committed_log, b.committed_log);
        assert_eq!(a.report.faults, b.report.faults);
    }
}

#[test]
fn crash_fault_stalls_progress_and_is_counted() {
    let healthy = net_bds(43, 800, &FaultPlan::default());
    let crash = FaultPlan {
        crashes: vec![(ShardId(0), Round(100))],
        ..FaultPlan::default()
    };
    let crashed = net_bds(43, 800, &crash);
    assert_eq!(crashed.report.faults.crashes, 1);
    assert!(
        crashed.report.committed < healthy.report.committed,
        "a crashed shard must cost commits: {} vs {}",
        crashed.report.committed,
        healthy.report.committed
    );
    assert!(
        crashed.report.pending_at_end > healthy.report.pending_at_end,
        "work strands as pending"
    );
}

#[test]
fn message_drops_strand_transactions_not_the_run() {
    let drops = FaultPlan {
        seed: 3,
        drop_prob: 0.05,
        ..FaultPlan::default()
    };
    let lossy = net_bds(47, 900, &drops);
    assert!(lossy.report.faults.dropped > 0, "{:?}", lossy.report.faults);
    // The run completes and stays internally consistent; some
    // transactions may be stranded by lost ballots.
    assert!(lossy.chains_verified);
    assert_eq!(
        lossy.report.generated,
        lossy.report.committed + lossy.report.aborted + lossy.report.pending_at_end
    );
}

#[test]
fn byzantine_votes_are_flipped_but_harmless() {
    let clean = net_bds(53, 600, &FaultPlan::default());
    let quota = FaultPlan {
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let byz = net_bds(53, 600, &quota);
    // n > 3f: a full Byzantine quota changes nothing but the counter.
    assert_eq!(byz.report.faults.byz_flips, 8 * 600);
    assert_eq!(byz.report.summary(), clean.report.summary());
    assert_eq!(byz.committed_log, clean.committed_log);
}

#[test]
fn fds_faults_are_deterministic_and_counted() {
    let plan = FaultPlan {
        seed: 5,
        drop_prob: 0.03,
        dup_prob: 0.02,
        crashes: vec![(ShardId(2), Round(400))],
        byz_votes: 1,
        ..FaultPlan::default()
    };
    let a = net_fds(59, 1200, &plan);
    let b = net_fds(59, 1200, &plan);
    assert_eq!(a.report.summary(), b.report.summary());
    assert_eq!(a.report.faults, b.report.faults);
    assert_eq!(a.report.faults.crashes, 1);
    assert!(a.report.faults.dropped > 0);
    assert!(a.report.faults.byz_flips > 0);
    assert!(a.chains_verified);
}

/// A live migration hands balances off exactly once, so a description
/// that arms one is only defined fault-free — and the host refuses the
/// combination rather than losing state quietly.
#[test]
#[should_panic(expected = "requires a fault-free run")]
fn a_reshard_plan_under_a_fault_plan_is_refused() {
    let (sys, _) = small_system();
    let plan = sharding_core::ReshardPlan::build(6, &sys, &[(2, 50)]).unwrap();
    let proto = BdsProtocol {
        reshard: Some(std::sync::Arc::new(plan)),
        ..BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds)
    };
    let drops = FaultPlan {
        drop_prob: 0.01,
        ..FaultPlan::default()
    };
    net(&proto, &UniformMetric::new(8), 61, 100, &drops);
}

// ---------------------------------------------------------------------
// Fault-plane differential: the mailbox hub against the previous
// generation's semantics — a mutexed global delay queue — reimplemented
// here as an executable oracle. Same fixed seeds in, the surviving
// message set and the injected-fault counters must come out identical,
// on every metric shape. This is what licenses swapping the message
// plane out from under the fault plane without re-validating the
// drivers: the plane changed, the semantics did not.

use rand::Rng as _;
use runtime::{NetHub, NetInbox, ShardPort};
use sharding_core::rngutil::{seeded_rng, split_seed};
use simnet::faults::FaultDecision;
use std::collections::BTreeMap;

/// The old locked message plane, distilled: per-sender sequence numbers,
/// per-directed-link fault streams, one `BTreeMap` delay queue keyed by
/// `(deliver_at, to)`, hand-out sorted by `(from, seq)`. Everything the
/// mutex used to serialize, done single-threaded.
/// One queued message, `(from, seq, payload)` — sorting the tuple is
/// exactly the `(from, seq)` hand-out order (payloads are unique).
type Queued = (u32, u64, u64);

struct LockedOracle {
    shards: usize,
    dist: Vec<u64>,
    seqs: Vec<u64>,
    links: BTreeMap<(u32, u32), simnet::faults::LinkFaults>,
    queue: BTreeMap<(u64, u32), Vec<Queued>>,
    dropped: u64,
    duplicated: u64,
}

impl LockedOracle {
    fn new(metric: &dyn ShardMetric, plan: &FaultPlan) -> Self {
        let s = metric.shards();
        let mut links = BTreeMap::new();
        for from in 0..s as u32 {
            for to in 0..s as u32 {
                links.insert((from, to), plan.link(ShardId(from), ShardId(to)));
            }
        }
        LockedOracle {
            shards: s,
            dist: (0..s)
                .flat_map(|a| {
                    (0..s).map(move |b| (a, b)) // row-major
                })
                .map(|(a, b)| metric.distance(ShardId(a as u32), ShardId(b as u32)))
                .collect(),
            seqs: vec![0; s],
            links,
            queue: BTreeMap::new(),
            dropped: 0,
            duplicated: 0,
        }
    }

    fn send(&mut self, from: ShardId, to: ShardId, now: u64, payload: u64) {
        let seq = &mut self.seqs[from.index()];
        let link = self.links.get_mut(&(from.raw(), to.raw())).unwrap();
        let deliver_at = now + self.dist[from.index() * self.shards + to.index()].max(1);
        match link.decide() {
            FaultDecision::Drop => {
                *seq += 1;
                self.dropped += 1;
            }
            FaultDecision::Duplicate => {
                self.duplicated += 1;
                let bucket = self.queue.entry((deliver_at, to.raw())).or_default();
                bucket.push((from.raw(), *seq, payload));
                bucket.push((from.raw(), *seq + 1, payload));
                *seq += 2;
            }
            FaultDecision::Deliver => {
                self.queue.entry((deliver_at, to.raw())).or_default().push((
                    from.raw(),
                    *seq,
                    payload,
                ));
                *seq += 1;
            }
        }
    }

    fn drain(&mut self, round: u64, to: ShardId) -> Vec<Queued> {
        let mut due = self.queue.remove(&(round, to.raw())).unwrap_or_default();
        due.sort_unstable();
        due
    }
}

#[test]
fn fault_plane_matches_locked_oracle_across_metric_shapes() {
    let shapes: Vec<(&str, Box<dyn ShardMetric>)> = vec![
        ("line", Box::new(LineMetric::new(8))),
        ("ring", Box::new(RingMetric::new(8))),
        ("grid4x2", Box::new(GridMetric::new(4, 2))),
    ];
    let plan = FaultPlan {
        seed: 0xFA_0175,
        drop_prob: 0.15,
        dup_prob: 0.10,
        ..FaultPlan::default()
    };
    for (name, metric) in &shapes {
        let s = metric.shards();
        let rounds = 150u64;
        let max_delay = (0..s as u32)
            .flat_map(|a| (0..s as u32).map(move |b| (a, b)))
            .map(|(a, b)| metric.distance(ShardId(a), ShardId(b)))
            .max()
            .unwrap()
            .max(1);

        let hub: NetHub<u64> = NetHub::new(metric.as_ref(), |_| 8).unwrap();
        let mut ports: Vec<ShardPort<u64>> = (0..s)
            .map(|i| ShardPort::new(&hub, ShardId(i as u32), &plan))
            .collect();
        let mut inboxes: Vec<NetInbox<u64>> = (0..s)
            .map(|i| NetInbox::new(&hub, ShardId(i as u32)))
            .collect();
        let mut oracle = LockedOracle::new(metric.as_ref(), &plan);

        // Identical scripted traffic into both planes, drained in
        // lockstep so the hub side follows its intended usage pattern.
        let mut rng = seeded_rng(split_seed(0xD1FF, rounds));
        let mut payload = 0u64;
        let mut buf = Vec::new();
        for round in 0..rounds + max_delay {
            for (to_idx, inbox) in inboxes.iter_mut().enumerate() {
                inbox.drain_into(round, &mut buf);
                let hub_due: Vec<Queued> = buf
                    .drain(..)
                    .map(|e| (e.from.raw(), e.seq, e.payload))
                    .collect();
                let oracle_due = oracle.drain(round, ShardId(to_idx as u32));
                assert_eq!(
                    hub_due, oracle_due,
                    "{name}: surviving set diverged at (round {round}, shard {to_idx})"
                );
            }
            if round < rounds {
                for (from, port) in ports.iter_mut().enumerate() {
                    for _ in 0..rng.gen_range(0usize..=2) {
                        let to = ShardId(rng.gen_range(0..s as u32));
                        payload += 1;
                        port.send(to, round, payload);
                        oracle.send(ShardId(from as u32), to, round, payload);
                    }
                }
            }
        }
        assert!(oracle.queue.is_empty(), "{name}: oracle fully drained");
        drop(ports);
        let tally = hub.tally();
        assert_eq!(tally.dropped, oracle.dropped, "{name}: dropped");
        assert_eq!(tally.duplicated, oracle.duplicated, "{name}: duplicated");
        assert!(
            oracle.dropped > 0 && oracle.duplicated > 0,
            "{name}: the plan must actually fire to prove anything"
        );
    }
}

#[test]
fn drop_budget_is_honored_per_directed_link_end_to_end() {
    // One hot link, a tight budget: the hub must stop dropping exactly
    // where the per-link stream's budget runs out, like the oracle.
    let metric = UniformMetric::new(2);
    let plan = FaultPlan {
        seed: 21,
        drop_prob: 0.9,
        drop_budget: 3,
        ..FaultPlan::default()
    };
    let hub: NetHub<u64> = NetHub::new(&metric, |_| 8).unwrap();
    let mut port = ShardPort::new(&hub, ShardId(0), &plan);
    let mut inbox = NetInbox::new(&hub, ShardId(1));
    let mut oracle = LockedOracle::new(&metric, &plan);
    for i in 0..200u64 {
        port.send(ShardId(1), i, i);
        oracle.send(ShardId(0), ShardId(1), i, i);
    }
    let mut delivered = 0u64;
    for round in 1..=201 {
        let due = inbox.drain(round);
        let oracle_due = oracle.drain(round, ShardId(1));
        assert_eq!(due.len(), oracle_due.len(), "round {round}");
        delivered += due.len() as u64;
    }
    drop(port);
    let tally = hub.tally();
    assert_eq!(tally.dropped, 3, "budget caps the drops");
    assert_eq!(delivered, 200 - 3 + tally.duplicated);
}
