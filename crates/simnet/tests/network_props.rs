//! Property tests for [`simnet::Network`] and the fault plane — the
//! invariants the networked runtime's determinism guarantee rests on:
//!
//! 1. **Metric delays are exact**: every delivered envelope satisfies
//!    `deliver_at = sent + max(1, d(from, to))`, for arbitrary send
//!    schedules over an arbitrary metric shape.
//! 2. **Hand-out order is interleaving-independent**: per-sender
//!    sequence numbers pin the within-round delivery order, so any
//!    cross-sender interleaving of the same per-sender send streams
//!    yields byte-identical deliveries — the property that lets one OS
//!    thread per shard reproduce the single-threaded simulator exactly.
//! 3. **Fault-plane drops are budgeted**: no directed link ever drops
//!    more than `drop_budget` messages, however many are sent.
//! 4. **The delay wheel is the delay tree**: under mixed distances,
//!    fault-plane duplicates, skipped rounds and sends behind the front,
//!    every query answers as the `BTreeMap<Round, Vec<_>>` + stable sort
//!    it replaced ([`TreeNet`], kept here as the oracle).

use cluster::{GridMetric, LineMetric, RingMetric, ShardMetric, UniformMetric};
use proptest::prelude::*;
use sharding_core::{Round, ShardId};
use simnet::{Envelope, FaultDecision, FaultPlan, LinkFaults, Network};
use std::collections::BTreeMap;

/// One abstract send instruction: `(from, to, send round)`, all reduced
/// modulo the system size so arbitrary `u32`/`u64` inputs stay valid.
type Send = (u32, u32, u64);

/// Builds one of the four metric shapes over exactly `shards` shards.
fn build_metric(choice: u8, shards: usize) -> Box<dyn ShardMetric> {
    match choice % 4 {
        0 => Box::new(UniformMetric::new(shards)),
        1 => Box::new(LineMetric::new(shards)),
        2 => Box::new(RingMetric::new(shards)),
        // Grid needs a factorization; w=2 always divides the even shard
        // counts this harness generates for choice 3.
        _ => Box::new(GridMetric::new(2, shards / 2)),
    }
}

/// Applies `sends` and drains the network round by round until idle,
/// returning every delivered envelope in hand-out order.
fn drain(net: &mut Network<u64>, sends: &[(ShardId, ShardId, Round)]) -> Vec<Envelope<u64>> {
    for (i, &(from, to, now)) in sends.iter().enumerate() {
        net.send(from, to, now, i as u64);
    }
    let mut delivered = Vec::new();
    while let Some(round) = net.next_delivery() {
        delivered.extend(net.deliver_due(round));
    }
    delivered
}

/// The network as it was before the delay wheel: a tree of delivery
/// rounds, each slot stable-sorted on delivery, its own sequence counters
/// and its own per-link fault streams — nothing of `simnet::Outbound`.
struct TreeNet {
    in_flight: BTreeMap<Round, Vec<Envelope<u64>>>,
    seq: Vec<u64>,
    plan: FaultPlan,
    links: BTreeMap<(ShardId, ShardId), LinkFaults>,
}

impl TreeNet {
    fn new(shards: usize, plan: &FaultPlan) -> Self {
        TreeNet {
            in_flight: BTreeMap::new(),
            seq: vec![0; shards],
            plan: plan.clone(),
            links: BTreeMap::new(),
        }
    }

    fn send(&mut self, metric: &dyn ShardMetric, from: ShardId, to: ShardId, now: Round, p: u64) {
        let link = self.links.entry((from, to));
        let copies = match link.or_insert_with(|| self.plan.link(from, to)).decide() {
            FaultDecision::Drop => 0,
            FaultDecision::Deliver => 1,
            FaultDecision::Duplicate => 2,
        };
        let deliver_at = now.plus(metric.distance(from, to).max(1));
        let seq = &mut self.seq[from.index()];
        for _ in 0..copies {
            self.in_flight
                .entry(deliver_at)
                .or_default()
                .push(Envelope {
                    from,
                    to,
                    sent: now,
                    deliver_at,
                    seq: *seq,
                    payload: p,
                });
            *seq += 1;
        }
        // A dropped message still consumes its sequence number.
        *seq += u64::from(copies == 0);
    }

    fn deliver_due(&mut self, now: Round) -> Vec<Envelope<u64>> {
        let mut due = self.in_flight.remove(&now).unwrap_or_default();
        due.sort_by_key(|e| (e.to, e.from, e.seq));
        due
    }

    fn pending(&self) -> usize {
        self.in_flight.values().map(Vec::len).sum()
    }

    fn next_delivery(&self) -> Option<Round> {
        self.in_flight.keys().next().copied()
    }
}

fn resolve(sends: Vec<Send>, shards: usize) -> Vec<(ShardId, ShardId, Round)> {
    sends
        .into_iter()
        .map(|(f, t, r)| {
            (
                ShardId(f % shards as u32),
                ShardId(t % shards as u32),
                Round(r % 1_000),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: `deliver_at = sent + max(1, distance)` for every
    /// envelope, on every metric shape, and nothing is lost or created
    /// without a fault plane.
    #[test]
    fn delivery_respects_metric_distance(
        metric_choice in proptest::any::<u8>(),
        shards in 1usize..=8,
        sends in proptest::collection::vec((proptest::any::<u32>(), proptest::any::<u32>(), proptest::any::<u64>()), 0..80),
    ) {
        let shards = shards * 2; // even, so grid:2xH always factors
        let metric = build_metric(metric_choice, shards);
        let mut net: Network<u64> = Network::new(metric.as_ref());
        let sends = resolve(sends, shards);
        let delivered = drain(&mut net, &sends);

        prop_assert_eq!(delivered.len(), sends.len(), "fault-free networks lose nothing");
        prop_assert_eq!(net.pending(), 0);
        for env in &delivered {
            let d = metric.distance(env.from, env.to).max(1);
            prop_assert_eq!(
                env.deliver_at,
                env.sent.plus(d),
                "{} -> {} sent at {} (distance {})",
                env.from, env.to, env.sent, d
            );
        }
    }

    /// Invariant 2: reordering sends **across** senders (while keeping
    /// each sender's own stream in order, which is what concurrent shard
    /// threads guarantee) changes nothing about what is delivered, when,
    /// or in which order.
    #[test]
    fn handout_order_is_independent_of_cross_sender_interleaving(
        metric_choice in proptest::any::<u8>(),
        shards in 1usize..=8,
        sends in proptest::collection::vec((proptest::any::<u32>(), proptest::any::<u32>(), Just(0u64)), 0..80),
    ) {
        let shards = shards * 2;
        let metric = build_metric(metric_choice, shards);
        let sends = resolve(sends, shards);

        // The adversarial interleaving: stable-sort by sender, which
        // maximally clusters each sender's stream while preserving its
        // internal order — exactly the reordering freedom real threads
        // have relative to the simulator's program order.
        let mut reordered = sends.clone();
        reordered.sort_by_key(|(from, _, _)| *from);

        let schedule = |order: &[(ShardId, ShardId, Round)]| -> Vec<(Round, ShardId, ShardId, u64)> {
            let mut net: Network<u64> = Network::new(metric.as_ref());
            for &(from, to, now) in order {
                net.send(from, to, now, 0);
            }
            let mut out = Vec::new();
            while let Some(round) = net.next_delivery() {
                for env in net.deliver_due(round) {
                    out.push((env.deliver_at, env.to, env.from, env.seq));
                }
            }
            out
        };
        prop_assert_eq!(schedule(&sends), schedule(&reordered),
            "delivery schedule must depend only on per-sender streams");
    }

    /// Invariant 3: a directed link never drops more than its budget,
    /// for arbitrary probabilities, budgets, and traffic volumes.
    #[test]
    fn drops_never_exceed_the_configured_budget(
        seed in proptest::any::<u64>(),
        drop_prob in 0.0f64..0.95,
        budget in 0u64..6,
        messages in 1usize..400,
    ) {
        let plan = FaultPlan {
            seed,
            drop_prob,
            drop_budget: budget,
            ..FaultPlan::default()
        };
        // Per-link stream, checked directly.
        let mut link = plan.link(ShardId(0), ShardId(1));
        for _ in 0..messages {
            link.decide();
        }
        prop_assert!(link.dropped() <= budget, "{} > {budget}", link.dropped());

        // And end to end through a single-link network: the global drop
        // counter equals the link's and respects the same bound.
        let metric = UniformMetric::new(2);
        let mut net: Network<u64> = Network::new(&metric);
        net.set_faults(plan);
        for i in 0..messages {
            net.send(ShardId(0), ShardId(1), Round(i as u64), i as u64);
        }
        prop_assert!(net.tally().dropped <= budget);
        let mut delivered = 0u64;
        while let Some(round) = net.next_delivery() {
            delivered += net.deliver_due(round).len() as u64;
        }
        prop_assert_eq!(
            delivered,
            net.tally().sent - net.tally().dropped + net.tally().duplicated
        );
    }

    /// Invariant 4: a random script of sends (any round, so also behind
    /// the wheel's front), exact-round deliveries (so most rounds are
    /// skipped and stay pending) and `next_delivery` jumps, under drops
    /// and duplicates, on every metric shape.
    #[test]
    fn wheel_answers_as_the_tree_it_replaced(
        metric_choice in proptest::any::<u8>(),
        shards in 1usize..=6,
        seed in proptest::any::<u64>(),
        dup_prob in 0.0f64..0.5,
        script in proptest::collection::vec(
            (0u8..8, proptest::any::<u32>(), proptest::any::<u32>(), 0u64..40),
            0..120,
        ),
    ) {
        let shards = shards * 2;
        let metric = build_metric(metric_choice, shards);
        let plan = FaultPlan { seed, dup_prob, drop_prob: 0.1, ..FaultPlan::default() };
        let mut net: Network<u64> = Network::new(metric.as_ref());
        net.set_faults(plan.clone());
        let mut tree = TreeNet::new(shards, &plan);
        for (i, (op, a, b, round)) in script.into_iter().enumerate() {
            match op {
                // Deliver exactly `round`, whatever else is pending.
                0 | 1 => {
                    let got = net.deliver_due(Round(round));
                    prop_assert_eq!(&got, &tree.deliver_due(Round(round)));
                    net.recycle(got);
                }
                // Deliver the earliest pending round.
                2 => {
                    if let Some(next) = net.next_delivery() {
                        prop_assert_eq!(net.deliver_due(next), tree.deliver_due(next));
                    }
                }
                _ => {
                    let (from, to) = (ShardId(a % shards as u32), ShardId(b % shards as u32));
                    net.send(from, to, Round(round), i as u64);
                    tree.send(metric.as_ref(), from, to, Round(round), i as u64);
                }
            }
            prop_assert_eq!(net.pending(), tree.pending());
            prop_assert_eq!(net.next_delivery(), tree.next_delivery());
        }
        while let Some(next) = tree.next_delivery() {
            prop_assert_eq!(net.next_delivery(), Some(next));
            prop_assert_eq!(net.deliver_due(next), tree.deliver_due(next));
        }
        prop_assert_eq!(net.pending(), 0);
        prop_assert_eq!(net.next_delivery(), None);
    }
}

/// The wheel's corner cases, spelled out: a skipped round's messages stay
/// pending and a later exact call returns them; `next_delivery` names the
/// earliest of them; a send may land behind the current front.
#[test]
fn skipped_rounds_stay_pending_and_the_front_can_move_back() {
    let metric = LineMetric::new(8);
    let mut net: Network<u64> = Network::new(&metric);
    let payloads = |due: Vec<Envelope<u64>>| due.into_iter().map(|e| e.payload).collect::<Vec<_>>();
    net.send(ShardId(0), ShardId(2), Round(10), 1); // due 12
    net.send(ShardId(0), ShardId(5), Round(10), 2); // due 15
    assert_eq!(net.next_delivery(), Some(Round(12)));
    // Round 12 is skipped: asking for 15 returns 15's only.
    assert_eq!(payloads(net.deliver_due(Round(15))), vec![2]);
    assert_eq!((net.pending(), net.next_delivery()), (1, Some(Round(12))));
    assert!(net.deliver_due(Round(11)).is_empty() && net.deliver_due(Round(13)).is_empty());
    // A send into a round before the front (due 3 < 12).
    net.send(ShardId(4), ShardId(3), Round(2), 3);
    assert_eq!((net.pending(), net.next_delivery()), (2, Some(Round(3))));
    assert_eq!(payloads(net.deliver_due(Round(12))), vec![1]);
    assert_eq!(net.next_delivery(), Some(Round(3)));
    assert_eq!(payloads(net.deliver_due(Round(3))), vec![3]);
    assert_eq!((net.pending(), net.next_delivery()), (0, None));
    // An emptied network restarts at whatever round comes next.
    net.send(ShardId(1), ShardId(1), Round(1_000_000), 4);
    assert_eq!(net.next_delivery(), Some(Round(1_000_001)));
    assert_eq!(payloads(net.deliver_due(Round(1_000_001))), vec![4]);
}
