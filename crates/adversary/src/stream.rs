//! Streaming firehose workload producers.
//!
//! Where the classic strategies ([`crate::strategy`]) propose *shard*
//! access sets over a handful of shards, these producers stream *account*
//! draws over universes of millions of ids, lazily from the ChaCha
//! stream. The Zipf producer draws from an [`AliasTable`] (O(n) build
//! once, one uniform per draw); the shifting-hotspot producer needs no
//! table at all: a hot window sweeps the universe and each draw is a
//! bounded uniform.
//!
//! What a producer holds per account is the alias table (12 bytes an id,
//! Zipf only) and one bit an id for the distinct-accounts count; the
//! placement map is the caller's, shared by reference count. What it
//! allocates per offer is the transaction itself — two heap blocks — and
//! per round the vector the offers are returned in: the account, shard
//! and part buffers live in the producer and are reused.
//!
//! A producer offers a fixed number of transactions per round, each
//! tagged with a `u8` fee; the [`IngestPipeline`](crate::IngestPipeline)
//! in front applies backpressure and `(ρ, b)` admission. Offers are a
//! pure function of `(seed, round sequence)`, which is what lets the
//! networked executor pre-drain the same stream the simulator drains
//! round by round and stay byte-identical.

use crate::generator::{TxnScratch, WorkloadShape};
use crate::strategy::AliasTable;
use rand::Rng as _;
use sharding_core::rngutil::{seeded_rng, split_seed, Rng};
use sharding_core::{AccountId, AccountMap, Round, SystemConfig, Transaction, TxnId};

/// Domain-separation tag for the firehose ChaCha stream (distinct from
/// the legacy generator's `0xADBE`).
const STREAM_TAG: u64 = 0xF12E;

/// Which account distribution a [`StreamSource`] streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Zipf law `P(i) ∝ 1/(i+1)^exponent` over the account universe,
    /// drawn through an alias table.
    Zipf {
        /// Skew exponent (`0` degenerates to uniform).
        exponent: f64,
    },
    /// A hot window (1/64th of the universe) holding 90% of the draws,
    /// advancing by its own width every `period` rounds so the hotspot
    /// sweeps the whole universe; the remaining 10% are uniform
    /// background over all accounts.
    Shift {
        /// Rounds between hotspot moves.
        period: u64,
    },
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamKind::Zipf { exponent } => write!(f, "zipf:{exponent}"),
            StreamKind::Shift { period } => write!(f, "shift:{period}"),
        }
    }
}

impl std::str::FromStr for StreamKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(arg) = s.strip_prefix("zipf:") {
            let exponent: f64 = arg
                .parse()
                .map_err(|_| format!("bad zipf exponent {arg:?}"))?;
            if !exponent.is_finite() || exponent < 0.0 {
                return Err(format!("zipf exponent must be finite and >= 0, got {arg}"));
            }
            return Ok(StreamKind::Zipf { exponent });
        }
        if let Some(arg) = s.strip_prefix("shift:") {
            let period: u64 = arg
                .parse()
                .map_err(|_| format!("bad shift period {arg:?}"))?;
            if period == 0 {
                return Err("shift period must be >= 1".to_string());
            }
            return Ok(StreamKind::Shift { period });
        }
        Err(format!(
            "unknown stream {s:?} (expected zipf:<exponent> or shift:<period>)"
        ))
    }
}

/// Default offered-per-round rate that saturates admission: 4× the
/// `(ρ, b)`-sustainable rate `ρ·s / w̄` with mean width `w̄ = (1+k)/2`.
pub fn saturation_offered(rho: f64, shards: usize, k_max: usize) -> u64 {
    let sustainable = rho * shards as f64 * 2.0 / (1.0 + k_max as f64);
    (4.0 * sustainable).ceil().max(1.0) as u64
}

/// A streaming workload producer over a (possibly huge) account
/// universe. See the [module docs](self).
pub struct StreamSource {
    cfg: SystemConfig,
    map: AccountMap,
    kind: StreamKind,
    shape: WorkloadShape,
    rho: f64,
    burstiness: u64,
    /// Transactions offered per round.
    offered: u64,
    rng: Rng,
    /// Lazily built for [`StreamKind::Zipf`].
    alias: Option<AliasTable>,
    next_id: u64,
    /// One bit per account id: set once the id has been streamed.
    seen: Vec<u64>,
    distinct: u64,
    scratch: TxnScratch,
}

impl StreamSource {
    /// Creates a producer over `cfg.accounts` ids. `rho`/`burstiness`
    /// parameterize the admission buckets the downstream pipeline builds;
    /// `seed` domain-separates the firehose ChaCha stream from the legacy
    /// generator's.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` does not validate or `offered == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &SystemConfig,
        map: &AccountMap,
        kind: StreamKind,
        shape: WorkloadShape,
        rho: f64,
        burstiness: u64,
        offered: u64,
        seed: u64,
    ) -> StreamSource {
        cfg.validate().expect("valid system config");
        assert!(offered > 0, "offered rate must be positive");
        let alias = match kind {
            StreamKind::Zipf { exponent } => Some(AliasTable::zipf(cfg.accounts, exponent)),
            StreamKind::Shift { .. } => None,
        };
        StreamSource {
            cfg: cfg.clone(),
            map: map.clone(),
            kind,
            shape,
            rho,
            burstiness,
            offered,
            rng: seeded_rng(split_seed(seed, STREAM_TAG)),
            alias,
            next_id: 0,
            seen: vec![0u64; cfg.accounts.div_ceil(64)],
            distinct: 0,
            scratch: TxnScratch::default(),
        }
    }

    /// `(shards, ρ, b)` for the admission buckets in front of this
    /// stream.
    pub fn budget_params(&self) -> (usize, f64, u64) {
        (self.cfg.shards, self.rho, self.burstiness)
    }

    /// Distinct account ids drawn so far.
    pub fn distinct_accounts(&self) -> u64 {
        self.distinct
    }

    /// Draws one account id from the configured distribution and marks
    /// it streamed.
    fn draw_account(&mut self, round: Round) -> AccountId {
        let n = self.cfg.accounts as u64;
        let idx = match self.kind {
            StreamKind::Zipf { .. } => self
                .alias
                .as_ref()
                .expect("zipf table")
                .sample(&mut self.rng) as u64,
            StreamKind::Shift { period } => {
                let window = (n / 64).max(1);
                let start = (round.0 / period).wrapping_mul(window) % n;
                if self.rng.gen_bool(0.9) {
                    (start + self.rng.gen_range(0..window)) % n
                } else {
                    self.rng.gen_range(0..n)
                }
            }
        };
        let (w, b) = ((idx / 64) as usize, idx % 64);
        if self.seen[w] & (1 << b) == 0 {
            self.seen[w] |= 1 << b;
            self.distinct += 1;
        }
        AccountId(idx)
    }

    /// Streams this round's offers: `offered` transactions, each over
    /// `1..=k` accounts on distinct shards (duplicate-shard draws are
    /// rejected, bounded by `8×width` attempts), homed on its first
    /// accessed shard, fee drawn uniformly over the 256 classes.
    pub fn offer_round(&mut self, round: Round) -> Vec<(u8, Transaction)> {
        let mut out = Vec::with_capacity(self.offered as usize);
        for _ in 0..self.offered {
            let width = self.rng.gen_range(1..=self.cfg.k_max);
            self.scratch.clear();
            let mut attempts = 0;
            while self.scratch.len() < width && attempts < 8 * width {
                let a = self.draw_account(round);
                let s = self.map.owner_unchecked(a);
                if !self.scratch.shards().any(|seen| seen == s) {
                    self.scratch.push(a, s);
                }
                attempts += 1;
            }
            let fee = self.rng.gen_range(0..256u32) as u8;
            let id = TxnId(self.next_id);
            self.next_id += 1;
            let home = self.scratch.shards().next().expect("width >= 1");
            let txn = self
                .scratch
                .shape(self.shape, &mut self.rng, id, home, round);
            out.push((fee, txn));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (SystemConfig, AccountMap) {
        let sys = SystemConfig {
            shards: 8,
            accounts: 512,
            k_max: 4,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
        };
        let map = AccountMap::round_robin(&sys);
        (sys, map)
    }

    fn source(kind: StreamKind) -> StreamSource {
        let (sys, map) = small();
        StreamSource::new(&sys, &map, kind, WorkloadShape::WriteOnly, 0.5, 4, 20, 42)
    }

    #[test]
    fn stream_kind_spellings_roundtrip() {
        for kind in [
            StreamKind::Zipf { exponent: 0.8 },
            StreamKind::Shift { period: 16 },
        ] {
            assert_eq!(kind.to_string().parse::<StreamKind>().unwrap(), kind);
        }
        for bad in ["", "zipf", "zipf:x", "zipf:-1", "shift:0", "shift:x", "hot"] {
            assert!(bad.parse::<StreamKind>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn offers_are_seed_deterministic() {
        for kind in [
            StreamKind::Zipf { exponent: 0.9 },
            StreamKind::Shift { period: 2 },
        ] {
            let (mut a, mut b) = (source(kind), source(kind));
            for r in 0..20 {
                let (oa, ob) = (a.offer_round(Round(r)), b.offer_round(Round(r)));
                assert_eq!(oa.len(), ob.len());
                for ((fa, ta), (fb, tb)) in oa.iter().zip(ob.iter()) {
                    assert_eq!(fa, fb);
                    assert_eq!(ta, tb);
                }
            }
            assert_eq!(a.distinct_accounts(), b.distinct_accounts());
        }
    }

    #[test]
    fn offers_access_distinct_shards_and_match_home() {
        let mut s = source(StreamKind::Zipf { exponent: 0.7 });
        for r in 0..10 {
            for (_, t) in s.offer_round(Round(r)) {
                let shards: Vec<_> = t.shards().collect();
                let mut dedup = shards.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(shards.len(), dedup.len(), "distinct shards");
                assert!(t.validate(4).is_ok());
            }
        }
    }

    #[test]
    fn shift_hotspot_sweeps_distinct_accounts() {
        let mut s = source(StreamKind::Shift { period: 1 });
        for r in 0..200 {
            s.offer_round(Round(r));
        }
        // 200 rounds × 20 offers × ~2.5 accounts over a 512-id universe:
        // the sweeping window plus uniform background must cover nearly
        // everything.
        assert!(
            s.distinct_accounts() > 500,
            "streamed only {} distinct ids",
            s.distinct_accounts()
        );
    }

    #[test]
    fn saturation_offered_scales_with_budget() {
        assert_eq!(saturation_offered(0.5, 64, 8), 29);
        assert!(saturation_offered(0.001, 1, 8) >= 1);
    }
}
