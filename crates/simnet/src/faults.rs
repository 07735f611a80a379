//! Deterministic fault injection, for either engine.
//!
//! A [`FaultPlan`] describes every fault a run will suffer *before* the
//! run starts, from one seed: shard crashes pinned to rounds, per-link
//! message drop/duplication probabilities drawn from a ChaCha stream, and
//! a per-round quota of Byzantine voters per shard. All
//! decisions are pure functions of `(plan, link, per-link message index)`
//! or `(plan, shard, round)` — never of wall-clock or thread interleaving
//! — so a faulty run is exactly as reproducible as a fault-free one, even
//! when the execution engine runs shards concurrently.
//!
//! Drop decisions are budgeted **per directed link**: once a link has
//! dropped [`FaultPlan::drop_budget`] messages it delivers everything
//! else faithfully. A per-link budget (rather than a global one) is what
//! keeps the drop pattern independent of cross-thread send interleaving.
//!
//! The link streams are consumed by [`Outbound`], the one sending
//! endpoint both transports are built on.

use cluster::ShardMetric;
use rand::Rng as _;
use serde::{Deserialize, Serialize};
use sharding_core::rngutil::{seeded_rng, split_seed, Rng};
use sharding_core::{Round, ShardId};

/// Counters of the faults actually injected during one run.
///
/// Surfaces in `RunReport` and in the scenario engine's CSV/JSONL
/// columns; all zeros for fault-free runs, on either engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Shard crashes executed (a shard crashing counts once).
    pub crashes: u64,
    /// Messages dropped by the fault plane.
    pub dropped: u64,
    /// Messages duplicated by the fault plane.
    pub duplicated: u64,
    /// Byzantine votes counted against the shards' fault bounds, one
    /// quota per live shard-round.
    pub byz_flips: u64,
}

/// The full, seeded fault schedule of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every ChaCha fault stream (independent of the workload
    /// seed, so faults can vary while the workload stays fixed).
    pub seed: u64,
    /// Per-link probability that a message is silently dropped.
    pub drop_prob: f64,
    /// Per-link probability that a message is delivered twice.
    pub dup_prob: f64,
    /// Maximum messages each directed link may drop (`u64::MAX` =
    /// unlimited). Budgeted per link so the drop pattern stays
    /// deterministic under concurrent senders.
    pub drop_budget: u64,
    /// Shards that crash, with the round they crash at. From that round
    /// on the shard sends nothing and processes nothing.
    pub crashes: Vec<(ShardId, Round)>,
    /// Byzantine voters per intra-shard consensus instance (clamped to
    /// the shard's declared fault bound `f`, which `n > 3f` makes
    /// harmless to safety — the point of the regression tests).
    pub byz_votes: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            drop_prob: 0.0,
            dup_prob: 0.0,
            drop_budget: u64::MAX,
            crashes: Vec::new(),
            byz_votes: 0,
        }
    }
}

impl FaultPlan {
    /// True when the plan injects nothing — the mode in which a
    /// networked run must be byte-identical to the simulator.
    pub fn is_inert(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.crashes.is_empty()
            && self.byz_votes == 0
    }

    /// Validates probability ranges and crash targets against a shard
    /// count; returns a human-readable message on failure.
    pub fn validate(&self, shards: usize) -> Result<(), String> {
        let prob_ok = |p: f64| (0.0..1.0).contains(&p);
        if !prob_ok(self.drop_prob) {
            return Err(format!(
                "drop-prob must satisfy 0 <= p < 1, got {}",
                self.drop_prob
            ));
        }
        if !prob_ok(self.dup_prob) {
            return Err(format!(
                "dup-prob must satisfy 0 <= p < 1, got {}",
                self.dup_prob
            ));
        }
        if self.drop_prob + self.dup_prob >= 1.0 {
            return Err(format!(
                "drop-prob + dup-prob must stay below 1, got {}",
                self.drop_prob + self.dup_prob
            ));
        }
        for (shard, _) in &self.crashes {
            if shard.index() >= shards {
                return Err(format!("crash targets {shard}, system has {shards} shards"));
            }
        }
        Ok(())
    }

    /// The round `shard` crashes at, if any (earliest wins when listed
    /// twice).
    pub fn crash_round(&self, shard: ShardId) -> Option<Round> {
        self.crashes
            .iter()
            .filter(|(s, _)| *s == shard)
            .map(|(_, r)| *r)
            .min()
    }

    /// Byzantine voters to inject into one consensus instance of a shard
    /// declaring `faulty` Byzantine nodes.
    pub fn byz_flips_for(&self, faulty: usize) -> usize {
        self.byz_votes.min(faulty)
    }

    /// The deterministic fault stream of the directed link `from → to`.
    pub fn link(&self, from: ShardId, to: ShardId) -> LinkFaults {
        let label = ((from.raw() as u64) << 32) | to.raw() as u64;
        LinkFaults {
            rng: seeded_rng(split_seed(self.seed, label)),
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
            budget: self.drop_budget,
            dropped: 0,
        }
    }
}

/// What the fault plane does to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver twice.
    Duplicate,
}

/// Per-directed-link fault state: one ChaCha stream consumed one draw per
/// message, plus the link's remaining drop budget. Owned by the sender
/// (each sender thread holds its own outgoing links), so decisions never
/// race.
#[derive(Debug)]
pub struct LinkFaults {
    rng: Rng,
    drop_prob: f64,
    dup_prob: f64,
    budget: u64,
    dropped: u64,
}

impl LinkFaults {
    /// Decides the fate of the link's next message.
    pub fn decide(&mut self) -> FaultDecision {
        if self.drop_prob == 0.0 && self.dup_prob == 0.0 {
            return FaultDecision::Deliver;
        }
        let roll: f64 = self.rng.gen();
        if roll < self.drop_prob {
            if self.dropped < self.budget {
                self.dropped += 1;
                return FaultDecision::Drop;
            }
            return FaultDecision::Deliver;
        }
        if roll < self.drop_prob + self.dup_prob {
            return FaultDecision::Duplicate;
        }
        FaultDecision::Deliver
    }

    /// Messages this link has dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// What one sender has put on the wire, as both transports report it:
/// `sent` counts the protocol's `send` calls — dropped messages included,
/// fault-plane duplicates not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendTally {
    /// Protocol sends attempted.
    pub sent: u64,
    /// Payload bytes across those sends.
    pub bytes: u64,
    /// Largest single payload.
    pub max_bytes: u64,
    /// Sends the fault plane dropped.
    pub dropped: u64,
    /// Sends the fault plane delivered twice.
    pub duplicated: u64,
}

impl SendTally {
    /// Folds another sender's tally into this one.
    pub fn absorb(&mut self, other: SendTally) {
        self.sent += other.sent;
        self.bytes += other.bytes;
        self.max_bytes = self.max_bytes.max(other.max_bytes);
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
    }
}

/// The sending endpoint of one shard, and the whole of the paper's
/// communication rule: a message sent at round `r` over distance `d`
/// arrives at `r + max(1, d)` under the sender's next sequence number,
/// unless the link's fault stream drops it (one number consumed, nothing
/// emitted) or duplicates it (two consecutive numbers, same round).
/// `simnet::Network` holds one per shard and the runtime's `ShardPort`
/// exactly its own, so the two transports differ only in where an
/// emitted message is put — and fault decisions never race, because each
/// stream belongs to one sender.
#[derive(Debug)]
pub struct Outbound {
    from: ShardId,
    seq: u64,
    /// `max(1, d(from, to))` per destination — as `u32`, because the `s`
    /// rows are the bulk of a transport's fixed memory.
    delay: Vec<u32>,
    /// `None` while the fault plane is inert — the fault-free fast path.
    plan: Option<FaultPlan>,
    /// Per-destination streams, each built on its link's first message
    /// (empty while inert).
    links: Vec<Option<LinkFaults>>,
    tally: SendTally,
}

impl Outbound {
    /// The fault-free endpoint of `from` over `metric`.
    pub fn new(metric: &dyn ShardMetric, from: ShardId) -> Self {
        Outbound {
            from,
            seq: 0,
            delay: (0..metric.shards() as u32)
                .map(|to| metric.distance(from, ShardId(to)).max(1))
                .map(|d| u32::try_from(d).expect("a delay in rounds fits u32"))
                .collect(),
            plan: None,
            links: Vec::new(),
            tally: SendTally::default(),
        }
    }

    /// Arms the fault plane: later sends consult `plan`'s per-link
    /// streams, from their start. An inert plan leaves it off.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        if !plan.is_inert() {
            self.links = self.delay.iter().map(|_| None).collect();
            self.plan = Some(plan.clone());
        }
    }

    /// Sends `payload`, of `bytes` bytes, to `to` at round `now`: calls
    /// `emit(deliver_at, seq, payload)` once, or not at all for a drop,
    /// or twice for a duplicate (the extra copy is the only clone).
    pub fn send<P: Clone>(
        &mut self,
        to: ShardId,
        now: u64,
        bytes: u64,
        payload: P,
        mut emit: impl FnMut(u64, u64, P),
    ) {
        self.tally.sent += 1;
        self.tally.bytes += bytes;
        self.tally.max_bytes = self.tally.max_bytes.max(bytes);
        let decision = match &self.plan {
            None => FaultDecision::Deliver,
            Some(plan) => self.links[to.index()]
                .get_or_insert_with(|| plan.link(self.from, to))
                .decide(),
        };
        let deliver_at = now + u64::from(self.delay[to.index()]);
        match decision {
            // The sender paid for the message, so its number is spent.
            FaultDecision::Drop => self.tally.dropped += 1,
            FaultDecision::Duplicate => {
                self.tally.duplicated += 1;
                emit(deliver_at, self.seq, payload.clone());
                self.seq += 1;
                emit(deliver_at, self.seq, payload);
            }
            FaultDecision::Deliver => emit(deliver_at, self.seq, payload),
        }
        self.seq += 1;
    }

    /// The sending shard.
    pub fn shard(&self) -> ShardId {
        self.from
    }

    /// What this endpoint has sent since the last [`Outbound::take_tally`].
    pub fn tally(&self) -> SendTally {
        self.tally
    }

    /// Returns the tally and zeroes it (a port flushing into its hub).
    pub fn take_tally(&mut self) -> SendTally {
        std::mem::take(&mut self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_inert());
        p.validate(4).unwrap();
        assert_eq!(
            p.link(ShardId(0), ShardId(1)).decide(),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn link_streams_are_deterministic_and_independent() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.2,
            ..FaultPlan::default()
        };
        let decisions = |from: u32, to: u32| -> Vec<FaultDecision> {
            let mut link = plan.link(ShardId(from), ShardId(to));
            (0..64).map(|_| link.decide()).collect()
        };
        assert_eq!(decisions(0, 1), decisions(0, 1), "same link, same stream");
        assert_ne!(decisions(0, 1), decisions(1, 0), "directed links differ");
        let d = decisions(0, 1);
        assert!(d.contains(&FaultDecision::Drop));
        assert!(d.contains(&FaultDecision::Duplicate));
        assert!(d.contains(&FaultDecision::Deliver));
    }

    #[test]
    fn drop_budget_caps_per_link_drops() {
        let plan = FaultPlan {
            drop_prob: 0.9,
            drop_budget: 3,
            ..FaultPlan::default()
        };
        let mut link = plan.link(ShardId(2), ShardId(3));
        for _ in 0..1000 {
            link.decide();
        }
        assert_eq!(link.dropped(), 3);
    }

    #[test]
    fn crash_schedule_queries() {
        let plan = FaultPlan {
            crashes: vec![(ShardId(1), Round(50)), (ShardId(1), Round(20))],
            ..FaultPlan::default()
        };
        assert!(!plan.is_inert());
        assert_eq!(plan.crash_round(ShardId(1)), Some(Round(20)));
        assert_eq!(plan.crash_round(ShardId(0)), None);
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad_prob = FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad_prob.validate(4).is_err());
        let bad_sum = FaultPlan {
            drop_prob: 0.6,
            dup_prob: 0.5,
            ..FaultPlan::default()
        };
        assert!(bad_sum.validate(4).is_err());
        let bad_crash = FaultPlan {
            crashes: vec![(ShardId(9), Round(1))],
            ..FaultPlan::default()
        };
        assert!(bad_crash.validate(4).is_err());
        assert!(bad_crash.validate(10).is_ok());
    }

    #[test]
    fn byz_flips_clamp_to_declared_faults() {
        let plan = FaultPlan {
            byz_votes: 5,
            ..FaultPlan::default()
        };
        assert_eq!(plan.byz_flips_for(1), 1);
        assert_eq!(plan.byz_flips_for(8), 5);
    }

    /// Sends `n` 8-byte messages from shard 1 over a 4-shard line, the
    /// `i`-th at round `i` to shard `2 + i % 2`, and returns what was
    /// emitted as `(to, deliver_at, seq, payload)`.
    fn emitted(out: &mut Outbound, n: u64) -> Vec<(u32, u64, u64, u64)> {
        let mut seen = Vec::new();
        for i in 0..n {
            let to = 2 + (i % 2) as u32;
            out.send(ShardId(to), i, 8, i, |at, seq, p| {
                seen.push((to, at, seq, p))
            });
        }
        seen
    }

    #[test]
    fn inert_outbound_numbers_and_delays_without_a_stream() {
        let metric = cluster::LineMetric::new(4);
        let mut out = Outbound::new(&metric, ShardId(1));
        out.set_faults(&FaultPlan::default());
        assert!(out.plan.is_none() && out.links.is_empty(), "nothing built");
        // Distance 1 to shard 2, 2 to shard 3; a self-send takes a round.
        assert_eq!(
            emitted(&mut out, 3),
            vec![(2, 1, 0, 0), (3, 3, 1, 1), (2, 3, 2, 2)]
        );
        out.send(ShardId(1), 7, 0, 9, |at, seq, _| {
            assert_eq!((at, seq), (8, 3))
        });
        assert!(out.links.is_empty(), "an inert plan never builds a stream");
        assert_eq!(out.shard(), ShardId(1));
    }

    #[test]
    fn outbound_follows_its_link_streams() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.2,
            ..FaultPlan::default()
        };
        let metric = cluster::LineMetric::new(4);
        let mut out = Outbound::new(&metric, ShardId(1));
        out.set_faults(&plan);
        let seen = emitted(&mut out, 128);
        // Replay the two links' raw streams: a drop spends one number
        // and emits nothing, a duplicate spends two on one round.
        let mut raw = [
            plan.link(ShardId(1), ShardId(2)),
            plan.link(ShardId(1), ShardId(3)),
        ];
        let (mut expect, mut seq, mut tally) = (Vec::new(), 0, SendTally::default());
        for i in 0..128u64 {
            let to = 2 + (i % 2) as u32;
            let at = i + 1 + i % 2;
            tally.absorb(SendTally {
                sent: 1,
                bytes: 8,
                max_bytes: 8,
                ..SendTally::default()
            });
            match raw[(i % 2) as usize].decide() {
                FaultDecision::Drop => tally.dropped += 1,
                FaultDecision::Deliver => expect.push((to, at, seq, i)),
                FaultDecision::Duplicate => {
                    tally.duplicated += 1;
                    expect.extend([(to, at, seq, i), (to, at, seq + 1, i)]);
                    seq += 1;
                }
            }
            seq += 1;
        }
        assert_eq!(seen, expect);
        assert!(tally.dropped > 0 && tally.duplicated > 0);
        assert_eq!(tally.sent, 128, "drops count as sent, duplicates do not");
        assert_eq!(out.tally(), tally);
        assert_eq!(out.take_tally(), tally);
        assert_eq!(out.tally(), SendTally::default(), "taking zeroes it");
        assert!(out.links[0].is_none(), "unused links build no stream");
    }

    #[test]
    fn outbound_drop_budget_is_per_directed_link() {
        let plan = FaultPlan {
            drop_prob: 0.9,
            drop_budget: 3,
            ..FaultPlan::default()
        };
        let mut out = Outbound::new(&cluster::UniformMetric::new(4), ShardId(1));
        out.set_faults(&plan);
        let seen = emitted(&mut out, 400);
        assert_eq!(out.tally().dropped, 6, "three on each of the two links");
        assert_eq!(seen.len(), 400 - 6);
        for to in [2, 3] {
            assert_eq!(seen.iter().filter(|e| e.0 == to).count(), 200 - 3);
        }
    }
}
