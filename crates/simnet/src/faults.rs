//! Deterministic fault injection for networked executions.
//!
//! A [`FaultPlan`] describes every fault a run will suffer *before* the
//! run starts, from one seed: shard crashes pinned to rounds, per-link
//! message drop/duplication probabilities drawn from a ChaCha stream, and
//! Byzantine vote flipping inside the per-round PBFT instances. All
//! decisions are pure functions of `(plan, link, per-link message index)`
//! or `(plan, shard, round)` — never of wall-clock or thread interleaving
//! — so a faulty run is exactly as reproducible as a fault-free one, even
//! when the execution engine runs shards concurrently.
//!
//! Drop decisions are budgeted **per directed link**: once a link has
//! dropped [`FaultPlan::drop_budget`] messages it delivers everything
//! else faithfully. A per-link budget (rather than a global one) is what
//! keeps the drop pattern independent of cross-thread send interleaving.

use rand::Rng as _;
use serde::{Deserialize, Serialize};
use sharding_core::rngutil::{seeded_rng, split_seed, Rng};
use sharding_core::{Round, ShardId};

/// Counters of the faults actually injected during one run.
///
/// Surfaces in `RunReport` and in the scenario engine's CSV/JSONL
/// columns; all zeros for fault-free runs (and for the shared-memory
/// simulator, which never injects faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Shard crashes executed (a shard crashing counts once).
    pub crashes: u64,
    /// Messages dropped by the fault plane.
    pub dropped: u64,
    /// Messages duplicated by the fault plane.
    pub duplicated: u64,
    /// Byzantine votes injected into intra-shard consensus instances.
    pub byz_flips: u64,
}

impl FaultCounters {
    /// Accumulates another counter set (used when merging per-shard
    /// tallies of a threaded run).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.crashes += other.crashes;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.byz_flips += other.byz_flips;
    }
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

    /// Whether `shard` is crashed at round `now`.
    pub fn crashed(&self, shard: ShardId, now: Round) -> bool {
        self.crash_round(shard).is_some_and(|r| now >= r)
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

/// The outgoing fault streams of one sender: a [`LinkFaults`] per
/// destination, created lazily on first use of each link — the shared
/// plumbing between `simnet::Network` (which holds one bank per sender)
/// and the runtime's `ShardPort` (where each shard thread owns exactly
/// its own bank, so fault decisions never race).
///
/// An inert plan collapses to a no-op: `decide` short-circuits to
/// [`FaultDecision::Deliver`] without allocating any stream.
#[derive(Debug)]
pub struct LinkBank {
    /// `None` when the plan is inert — the fault-free fast path.
    plan: Option<FaultPlan>,
    from: ShardId,
    /// Lazily created per-destination streams (empty when inert).
    links: Vec<Option<LinkFaults>>,
}

impl LinkBank {
    /// The bank of `from`'s outgoing links in a system of `shards`
    /// shards. Inert plans disable the fault path entirely.
    pub fn new(plan: &FaultPlan, from: ShardId, shards: usize) -> Self {
        let plan = (!plan.is_inert()).then(|| plan.clone());
        LinkBank {
            links: if plan.is_some() {
                (0..shards).map(|_| None).collect()
            } else {
                Vec::new()
            },
            plan,
            from,
        }
    }

    /// Decides the fate of the next message on the link `from → to`,
    /// consuming one draw from that link's stream (none when inert).
    pub fn decide(&mut self, to: ShardId) -> FaultDecision {
        match &self.plan {
            None => FaultDecision::Deliver,
            Some(plan) => self.links[to.index()]
                .get_or_insert_with(|| plan.link(self.from, to))
                .decide(),
        }
    }

    /// True when the bank was built from an inert plan and will never
    /// drop or duplicate anything.
    pub fn is_inert(&self) -> bool {
        self.plan.is_none()
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
        assert!(!plan.crashed(ShardId(1), Round(19)));
        assert!(plan.crashed(ShardId(1), Round(20)));
        assert!(!plan.crashed(ShardId(0), Round(99)));
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

    #[test]
    fn link_bank_matches_raw_link_streams() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.2,
            ..FaultPlan::default()
        };
        let mut bank = LinkBank::new(&plan, ShardId(1), 4);
        assert!(!bank.is_inert());
        // Interleave two destinations through the bank; each must see
        // exactly the stream a standalone LinkFaults would produce.
        let mut raw2 = plan.link(ShardId(1), ShardId(2));
        let mut raw3 = plan.link(ShardId(1), ShardId(3));
        for _ in 0..64 {
            assert_eq!(bank.decide(ShardId(2)), raw2.decide());
            assert_eq!(bank.decide(ShardId(3)), raw3.decide());
        }
        let inert = LinkBank::new(&FaultPlan::default(), ShardId(0), 4);
        assert!(inert.is_inert());
        assert!(inert.links.is_empty(), "inert banks allocate nothing");
    }

    #[test]
    fn counters_merge() {
        let mut a = FaultCounters {
            crashes: 1,
            dropped: 2,
            duplicated: 3,
            byz_flips: 4,
        };
        a.merge(&FaultCounters {
            crashes: 10,
            dropped: 20,
            duplicated: 30,
            byz_flips: 40,
        });
        assert_eq!(
            a,
            FaultCounters {
                crashes: 11,
                dropped: 22,
                duplicated: 33,
                byz_flips: 44,
            }
        );
    }
}
