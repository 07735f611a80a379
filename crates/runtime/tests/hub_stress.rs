//! Seeded concurrency stress harness for the message plane.
//!
//! Every test here runs the same experiment twice: once through a real
//! multi-threaded [`NetHub`] — one OS thread per shard, blocking on the
//! [`RoundGate`], with seeded random `yield_now` jitter injected between
//! sends to shake out interleavings — and once through the
//! single-threaded [`simnet::Network`] oracle, which defines the
//! semantics the hub must reproduce. The comparison is total: the full
//! per-destination delivery stream `(round, sender, seq, payload)` in
//! hand-out order, plus the sent/dropped/duplicated counters.
//!
//! Shapes cover several (metric, shards, rounds) points: fan-in on 12
//! threads, the mailbox's worst-case contention (every sender posts to
//! one destination every round); faulted ring, line and grid metrics,
//! and one hot link under a drop budget; and 65- and 130-shard hubs with
//! sparse traffic, where most mailboxes are empty in most drains and line
//! delays park messages up to 64 rounds deep in the inbox wheel. A last
//! test races one sender's flag-raising against its receiver's
//! flag-clearing directly.
//!
//! Seeding: the schedule/jitter seed defaults to a fixed constant and can
//! be overridden with `BLOCKSHARD_STRESS_SEED=<u64>`, which is how CI's
//! stress job runs the suite under more than one seed. Any failure
//! message therefore identifies the exact reproducing universe.

use cluster::{GridMetric, LineMetric, RingMetric, ShardMetric, UniformMetric};
use rand::Rng as _;
use runtime::{NetHub, NetInbox, RoundGate, ShardPort};
use sharding_core::rngutil::{self, seeded_rng, split_seed};
use sharding_core::{Round, ShardId};
use simnet::{FaultPlan, Network};

/// One delivered message as observed by a destination, in hand-out order.
type Delivery = (u64, u32, u64, u64); // (round, from, seq, payload)

/// `schedule[round][from]` = list of `(to, payload)` sends for that
/// shard's round, generated up front so both executions replay the exact
/// same per-sender streams.
type Schedule = Vec<Vec<Vec<(ShardId, u64)>>>;

fn stress_seed() -> u64 {
    std::env::var("BLOCKSHARD_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xB10C_5EED)
}

/// Builds a pseudorandom schedule from stream `label` of `seed`: each
/// shard sends `count(rng)` messages per round to random peers, payloads
/// globally unique so a lost, duplicated, or reordered message is
/// attributable.
fn schedule_with(
    seed: u64,
    label: u64,
    shards: usize,
    rounds: u64,
    count: impl Fn(&mut rngutil::Rng) -> usize,
) -> Schedule {
    let mut rng = seeded_rng(split_seed(seed, label));
    let mut payload = 0u64;
    (0..rounds)
        .map(|_| {
            (0..shards)
                .map(|_| {
                    let n = count(&mut rng);
                    (0..n)
                        .map(|_| {
                            payload += 1;
                            (ShardId(rng.gen_range(0..shards as u32)), payload)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// All-to-all traffic: each shard sends 0..=3 messages per round.
fn random_schedule(seed: u64, shards: usize, rounds: u64) -> Schedule {
    schedule_with(seed, 0x5c4e, shards, rounds, |rng| {
        rng.gen_range(0usize..=3)
    })
}

/// Sparse traffic for wide hubs: each shard sends in about one round out
/// of four, one or two messages — so in any round most mailboxes are
/// empty and their drains must skip them on the has-mail flag alone.
fn sparse_schedule(seed: u64, shards: usize, rounds: u64) -> Schedule {
    schedule_with(seed, 0x5ba5, shards, rounds, |rng| {
        if rng.gen_range(0u32..4) == 0 {
            rng.gen_range(1usize..=2)
        } else {
            0
        }
    })
}

/// Everybody floods shard 0 every round — maximum fan-in on one consumer.
fn fan_in_schedule(shards: usize, rounds: u64) -> Schedule {
    let mut payload = 0u64;
    (0..rounds)
        .map(|_| {
            (0..shards)
                .map(|_| {
                    payload += 1;
                    vec![(ShardId(0), payload)]
                })
                .collect()
        })
        .collect()
}

/// Runs `schedule` through a threaded hub: one thread per shard, round
/// lockstep via [`RoundGate::wait`] on every shard, jittered with seeded
/// random yields. Returns each destination's delivery stream plus the
/// hub's counters `(sent, dropped, duplicated)`.
fn threaded_run(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
    jitter_seed: u64,
) -> (Vec<Vec<Delivery>>, [u64; 3]) {
    let s = metric.shards();
    let rounds = schedule.len() as u64;
    let max_delay = (0..s)
        .flat_map(|a| (0..s).map(move |b| (a, b)))
        .map(|(a, b)| metric.distance(ShardId(a as u32), ShardId(b as u32)))
        .max()
        .unwrap_or(1)
        .max(1);
    // Extra fault-plane duplicates never extend the delay, so running
    // `max_delay` silent rounds past the last send flushes everything.
    let total = rounds + max_delay;
    let hub: NetHub<u64> = NetHub::new(metric, |_| 8).expect("metrics here always have shards");
    let gate = RoundGate::new(s);
    let streams: Vec<parking_lot::Mutex<Vec<Delivery>>> = (0..s)
        .map(|_| parking_lot::Mutex::new(Vec::new()))
        .collect();

    std::thread::scope(|scope| {
        for shard in 0..s {
            let hub = &hub;
            let gate = &gate;
            let streams = &streams;
            scope.spawn(move || {
                let id = ShardId(shard as u32);
                let mut port = ShardPort::new(hub, id, plan);
                let mut inbox = NetInbox::new(hub, id);
                let mut jitter = seeded_rng(split_seed(jitter_seed, shard as u64));
                let mut seen: Vec<Delivery> = Vec::new();
                let mut buf = Vec::new();
                for round in 0..total {
                    assert!(gate.wait(round, 0..0, 0));
                    inbox.drain_into(round, &mut buf);
                    for env in buf.drain(..) {
                        seen.push((round, env.from.raw(), env.seq, env.payload));
                    }
                    if let Some(per_shard) = schedule.get(round as usize) {
                        for &(to, payload) in &per_shard[shard] {
                            if jitter.gen_range(0u32..8) == 0 {
                                std::thread::yield_now();
                            }
                            port.send(to, round, payload);
                        }
                    }
                    gate.complete(shard, round);
                }
                *streams[shard].lock() = seen;
            });
        }
    });

    let tally = hub.tally();
    let counters = [tally.sent, tally.dropped, tally.duplicated];
    (
        streams.into_iter().map(|m| m.into_inner()).collect(),
        counters,
    )
}

/// Replays `schedule` through the single-threaded oracle and returns the
/// same observables: per-destination delivery streams and
/// `(sent, dropped, duplicated)`.
fn oracle_run(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
) -> (Vec<Vec<Delivery>>, [u64; 3]) {
    let s = metric.shards();
    let mut net: Network<u64> = Network::new(metric);
    if !plan.is_inert() {
        net.set_faults(plan.clone());
    }
    for (round, per_shard) in schedule.iter().enumerate() {
        for (from, sends) in per_shard.iter().enumerate() {
            for &(to, payload) in sends {
                net.send(ShardId(from as u32), to, Round(round as u64), payload);
            }
        }
    }
    let mut streams: Vec<Vec<Delivery>> = vec![Vec::new(); s];
    while let Some(round) = net.next_delivery() {
        for env in net.deliver_due(round) {
            streams[env.to.index()].push((round.raw(), env.from.raw(), env.seq, env.payload));
        }
    }
    let tally = net.tally();
    (streams, [tally.sent, tally.dropped, tally.duplicated])
}

/// The full differential: threaded hub vs oracle on every destination's
/// stream and every counter, for one (metric, plan) shape.
fn assert_hub_matches_oracle(
    metric: &dyn ShardMetric,
    plan: &FaultPlan,
    schedule: &Schedule,
    label: &str,
) -> [u64; 3] {
    let seed = stress_seed();
    let (hub_streams, hub_counters) = threaded_run(metric, plan, schedule, split_seed(seed, 1));
    let (oracle_streams, oracle_counters) = oracle_run(metric, plan, schedule);
    for (shard, (h, o)) in hub_streams.iter().zip(&oracle_streams).enumerate() {
        assert_eq!(
            h, o,
            "{label} (seed {seed}): destination {shard} delivery stream diverged"
        );
    }
    assert_eq!(
        hub_counters, oracle_counters,
        "{label}: (sent, dropped, duplicated)"
    );

    // Interleaving-independence: a different jitter universe must
    // observe the byte-identical streams.
    let (again, _) = threaded_run(metric, plan, schedule, split_seed(seed, 2));
    assert_eq!(
        again, hub_streams,
        "{label} (seed {seed}): delivery depends on thread interleaving"
    );
    hub_counters
}

#[test]
fn uniform_all_to_all_matches_oracle() {
    let metric = UniformMetric::new(8);
    let schedule = random_schedule(stress_seed(), 8, 300);
    assert_hub_matches_oracle(&metric, &FaultPlan::default(), &schedule, "uniform/8x300");
}

/// Line delays from 1 to 5 rounds: early arrivals park at five depths.
#[test]
fn line_metric_six_shards_matches_oracle() {
    let metric = LineMetric::new(6);
    let schedule = random_schedule(split_seed(stress_seed(), 7), 6, 200);
    assert_hub_matches_oracle(&metric, &FaultPlan::default(), &schedule, "line/6x200");
}

/// Twelve senders post to one mailbox every round: its lock's worst case.
#[test]
fn fan_in_hammers_one_consumer() {
    let metric = UniformMetric::new(12);
    let schedule = fan_in_schedule(12, 250);
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        "uniform/12x250/fan-in",
    );
    assert_eq!(counters[0], 12 * 250, "every scheduled send counted");
}

#[test]
fn fault_plane_counters_survive_concurrency() {
    let metric = RingMetric::new(4);
    let plan = FaultPlan {
        seed: split_seed(stress_seed(), 11),
        drop_prob: 0.08,
        dup_prob: 0.05,
        ..FaultPlan::default()
    };
    let schedule = random_schedule(split_seed(stress_seed(), 13), 4, 400);
    let counters = assert_hub_matches_oracle(&metric, &plan, &schedule, "ring/4x400/faulty");
    assert!(
        counters[1] > 0 && counters[2] > 0,
        "plan must actually fire: dropped {} duplicated {}",
        counters[1],
        counters[2]
    );
}

/// Heavy drops and duplicates where delays differ per link: a line's 1
/// to 7 rounds and a grid's Manhattan distances.
#[test]
fn faulted_line_and_grid_match_oracle() {
    let plan = FaultPlan {
        seed: split_seed(stress_seed(), 29),
        drop_prob: 0.15,
        dup_prob: 0.10,
        ..FaultPlan::default()
    };
    let shapes: [(&str, &dyn ShardMetric); 2] = [
        ("line/8x150/faulty", &LineMetric::new(8)),
        ("grid4x2/8x150/faulty", &GridMetric::new(4, 2)),
    ];
    for (label, metric) in shapes {
        let schedule = random_schedule(split_seed(stress_seed(), 31), 8, 150);
        let counters = assert_hub_matches_oracle(metric, &plan, &schedule, label);
        assert!(counters[1] > 0 && counters[2] > 0, "{label}: {counters:?}");
    }
}

/// One hot link and a budget of three drops: the link delivers
/// everything after its third drop, on both planes.
#[test]
fn drop_budget_caps_one_hot_link() {
    let plan = FaultPlan {
        seed: 21,
        drop_prob: 0.9,
        drop_budget: 3,
        ..FaultPlan::default()
    };
    let schedule: Schedule = (0..200)
        .map(|r| vec![vec![(ShardId(1), r)], Vec::new()])
        .collect();
    let counters = assert_hub_matches_oracle(
        &UniformMetric::new(2),
        &plan,
        &schedule,
        "uniform/2x200/budget",
    );
    assert_eq!(counters[..2], [200, 3], "(sent, dropped)");
}

#[test]
fn two_shard_long_run_stays_exact() {
    let metric = UniformMetric::new(2);
    let schedule = random_schedule(split_seed(stress_seed(), 17), 2, 1500);
    assert_hub_matches_oracle(&metric, &FaultPlan::default(), &schedule, "uniform/2x1500");
}

/// Line delays up to 64 rounds: a message may sit 64 slots deep in the
/// inbox wheel, taken from the mailbox long before it is due.
#[test]
fn sparse_65_shards_deep_wheel_matches_oracle() {
    let metric = LineMetric::new(65);
    let schedule = sparse_schedule(split_seed(stress_seed(), 19), 65, 120);
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        "line/65x120/sparse",
    );
    assert!(counters[0] > 0, "the sparse schedule still sends");
}

/// 130 threads, most of whose mailboxes are empty in most drains.
#[test]
fn sparse_130_shards_match_oracle() {
    let metric = UniformMetric::new(130);
    let schedule = sparse_schedule(split_seed(stress_seed(), 23), 130, 60);
    let counters = assert_hub_matches_oracle(
        &metric,
        &FaultPlan::default(),
        &schedule,
        "uniform/130x60/sparse",
    );
    assert!(counters[0] > 0, "the sparse schedule still sends");
}

/// One link, two threads, the has-mail flag protocol under direct fire:
/// the sender posts a burst per round while the receiver, instead of
/// draining once, keeps draining the *same* round until the sender has
/// finished it — so every push-then-raise of the round races a
/// `swap(false)`-then-take. Whatever the interleaving, each message must
/// be handed out at exactly its delivery round (send round + 1), in
/// sequence order. A sender that raises the flag *before* its push can
/// have both the flag cleared and the mailbox emptied in between, leaving
/// its message behind a clear flag: the next round's first drain skips
/// the mailbox, and the message surfaces in a repeat drain (once a later
/// send raises the flag), a round late, or never.
#[test]
fn racing_drains_never_miss_a_delivery_round() {
    const ROUNDS: u64 = 100_000;
    const BURST: u64 = 2;
    /// Opens the gate for good when its thread exits, so a failed
    /// assertion on one side fails the test instead of leaving the other
    /// side waiting on a watermark that will never move.
    struct OpenGateOnExit<'a>(&'a RoundGate, usize);
    impl Drop for OpenGateOnExit<'_> {
        fn drop(&mut self) {
            self.0.complete(self.1, u64::MAX - 1);
        }
    }
    let metric = UniformMetric::new(2);
    let hub: NetHub<u64> = NetHub::new(&metric, |_| 8).unwrap();
    let gate = RoundGate::new(2);
    let inert = FaultPlan::default();
    std::thread::scope(|scope| {
        let (hub, gate) = (&hub, &gate);
        scope.spawn(move || {
            let _open = OpenGateOnExit(gate, 0);
            let mut port = ShardPort::new(hub, ShardId(0), &inert);
            for round in 0..ROUNDS {
                assert!(gate.wait(round, 0..0, 0));
                for i in 0..BURST {
                    port.send(ShardId(1), round, round * BURST + i);
                }
                gate.complete(0, round);
            }
        });
        scope.spawn(move || {
            let _open = OpenGateOnExit(gate, 1);
            let mut inbox = NetInbox::new(hub, ShardId(1));
            let mut buf = Vec::new();
            let mut next = 0u64;
            // One silent round past the last send delivers its burst.
            for round in 0..=ROUNDS {
                assert!(gate.wait(round, 0..0, 0));
                inbox.drain_into(round, &mut buf);
                for env in buf.drain(..) {
                    assert_eq!(env.payload / BURST + 1, round, "wrong delivery round");
                    assert_eq!(env.payload, next, "lost or reordered");
                    assert_eq!(env.seq, next);
                    next += 1;
                }
                // Keep draining this round for as long as the sender is
                // still in it; everything due now was handed out above.
                while round < ROUNDS && gate.watermark(0) <= round {
                    inbox.drain_into(round, &mut buf);
                    assert!(
                        buf.is_empty(),
                        "round {round}: a repeat drain handed out mail the first one missed"
                    );
                }
                gate.complete(1, round);
            }
            assert_eq!(next, ROUNDS * BURST, "every message delivered");
        });
    });
}
