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
//! What a producer holds per account is the alias table (one 8-byte
//! column an id, Zipf only) and one bit an id for the
//! distinct-accounts count; the placement map is the caller's, shared by
//! reference count. What it allocates per offer is nothing; a transaction
//! is built once, when it drains. An [`Offer`] is a heap-free draft of
//! every draw the transaction needs (up to eight accounts inline), and
//! the pool builds only what its `(ρ, b)` budgets admit — at saturation
//! a few percent of what is offered. Per round the producer allocates
//! the vector the offers are returned in: the word window and the
//! draft's account list live in the producer and are reused.
//!
//! At millions of accounts a Zipf draw misses the cache on its alias
//! column. A producer reads its ChaCha stream through a look-ahead
//! window of whole `u64` words, and once a transaction's width is read
//! it knows that the next `width` words are draws: it resolves them
//! through the table in one pass, whose column loads overlap, before
//! the duplicate-shard rejection runs over them in order (a draw past
//! them, after a rejection, resolves its own word). Every other read —
//! the width, the fee, the amount, a shift stream's coin and offsets —
//! takes the window's words themselves, in stream order, so a
//! transaction consumes exactly the words the one-at-a-time loop does,
//! and the offers are the same bytes. Only words known to be draws are
//! resolved: widths and fees are about half of a Zipf stream's words,
//! and a column load for each of them costs more than the wider overlap
//! saves.
//!
//! A producer offers a fixed number of transactions per round, each
//! tagged with a `u8` fee; the [`IngestPipeline`](crate::IngestPipeline)
//! in front applies backpressure and `(ρ, b)` admission. Offers are a
//! pure function of `(seed, round sequence)`, so both engines, each
//! pulling one round at a time, see the same stream and stay
//! byte-identical.

use crate::generator::{Offer, WorkloadShape};
use crate::strategy::AliasTable;
use rand::{Rng as _, RngCore};
use sharding_core::rngutil::{seeded_rng, split_seed, Rng};
use sharding_core::{AccountId, AccountMap, Round, ShardId, SystemConfig, TxnId};

/// Domain-separation tag for the firehose ChaCha stream (distinct from
/// the legacy generator's `0xADBE`).
const STREAM_TAG: u64 = 0xF12E;

/// Words the look-ahead window holds: about seven transactions' worth
/// at `k = 8`, and at least one transaction's draws up to `k = 64`.
const WINDOW: usize = 64;

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
    words: Window,
    next_id: u64,
    /// One bit per account id: set once the id has been streamed.
    seen: Vec<u64>,
    distinct: u64,
    /// The offer being drawn: its accepted `(shard, account)` pairs.
    picked: Vec<(ShardId, AccountId)>,
}

/// The ChaCha stream, handed out a word at a time from a look-ahead
/// window (see the [module docs](self)): [`Window::draw`] for a Zipf
/// draw, [`RngCore::next_u64`] — and so every `rand::Rng` method — for
/// anything else. Each word is handed out once, in stream order;
/// [`Window::resolve`] only looks ahead.
struct Window {
    rng: Rng,
    /// The Zipf table ([`StreamKind::Zipf`] only).
    table: Option<AliasTable>,
    words: [u64; WINDOW],
    /// `picks[i]`: the index `words[i]` resolves to through the table,
    /// for `next ≤ i < resolved`.
    picks: [u32; WINDOW],
    /// The next word to hand out.
    next: usize,
    /// The end of the resolved words; never below `next`.
    resolved: usize,
}

impl Window {
    /// Makes sure the next `count ≤ WINDOW` words are in the window: when
    /// they are not, slides the unread words to its front and fills the
    /// rest off the stream.
    fn hold(&mut self, count: usize) {
        if self.next + count > WINDOW {
            let kept = WINDOW - self.next;
            self.words.copy_within(self.next.., 0);
            self.picks.copy_within(self.next.., 0);
            let rng = &mut self.rng;
            self.words[kept..].fill_with(|| rng.next_u64());
            self.resolved -= self.next;
            self.next = 0;
        }
    }

    /// Resolves the next `count` words through the table in one pass,
    /// whose column loads overlap: the caller will draw them all.
    fn resolve(&mut self, count: usize) {
        let count = count.min(WINDOW);
        self.hold(count);
        let table = self.table.as_ref().expect("a zipf stream");
        let end = self.next + count;
        for slot in self.resolved..end {
            self.picks[slot] = table.pick(uniform(self.words[slot])) as u32;
        }
        self.resolved = self.resolved.max(end);
    }

    /// A Zipf draw: the account the next word resolves to.
    fn draw(&mut self) -> AccountId {
        if self.resolved == self.next {
            self.resolve(1);
        }
        self.next += 1;
        AccountId(u64::from(self.picks[self.next - 1]))
    }
}

impl RngCore for Window {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the firehose stream is read in whole words")
    }

    fn next_u64(&mut self) -> u64 {
        self.hold(1);
        self.next += 1;
        self.resolved = self.resolved.max(self.next);
        self.words[self.next - 1]
    }
}

/// The uniform in `[0, 1)` that `Rng::gen::<f64>` makes of a word: its
/// top 53 bits.
fn uniform(word: u64) -> f64 {
    (word >> 11) as i64 as f64 * (1.0 / (1u64 << 53) as f64)
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
        let table = match kind {
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
            words: Window {
                rng: seeded_rng(split_seed(seed, STREAM_TAG)),
                table,
                words: [0; WINDOW],
                picks: [0; WINDOW],
                next: WINDOW,
                resolved: WINDOW,
            },
            next_id: 0,
            seen: vec![0u64; cfg.accounts.div_ceil(64)],
            distinct: 0,
            picked: Vec::with_capacity(cfg.k_max),
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

    /// Draws one account, marks it streamed and returns it with its
    /// owner.
    fn draw(&mut self, round: Round) -> (AccountId, ShardId) {
        let account = match self.kind {
            StreamKind::Zipf { .. } => self.words.draw(),
            StreamKind::Shift { period } => {
                let n = self.cfg.accounts as u64;
                let hot = (n / 64).max(1);
                let start = (round.0 / period).wrapping_mul(hot) % n;
                AccountId(if self.words.gen_bool(0.9) {
                    (start + self.words.gen_range(0..hot)) % n
                } else {
                    self.words.gen_range(0..n)
                })
            }
        };
        let (w, bit) = ((account.0 / 64) as usize, 1u64 << (account.0 % 64));
        self.distinct += u64::from(self.seen[w] & bit == 0);
        self.seen[w] |= bit;
        (account, self.map.owner_unchecked(account))
    }

    /// Streams this round's offers: `offered` transactions, each over
    /// `1..=k` accounts on distinct shards (duplicate-shard draws are
    /// rejected, bounded by `8×width` attempts), homed on its first
    /// accessed shard, fee drawn uniformly over the 256 classes, then
    /// the shape's amount.
    pub fn offer_round(&mut self, round: Round) -> Vec<(u8, Offer)> {
        let mut out = Vec::with_capacity(self.offered as usize);
        for _ in 0..self.offered {
            let width = self.words.gen_range(1..=self.cfg.k_max);
            if self.words.table.is_some() {
                // A transaction draws at least `width` accounts.
                self.words.resolve(width);
            }
            self.picked.clear();
            for _ in 0..8 * width {
                let (a, s) = self.draw(round);
                if !self.picked.iter().any(|&(seen, _)| seen == s) {
                    self.picked.push((s, a));
                    if self.picked.len() == width {
                        break;
                    }
                }
            }
            let fee = self.words.gen_range(0..256u32) as u8;
            let amount = self.shape.draw_amount(&mut self.words);
            let id = TxnId(self.next_id);
            self.next_id += 1;
            out.push((fee, Offer::new(id, round, self.shape, amount, &self.picked)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TxnScratch;
    use sharding_core::Transaction;

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
        let mut scratch = TxnScratch::default();
        for r in 0..10 {
            for (_, offer) in s.offer_round(Round(r)) {
                let shards: Vec<_> = offer.shards().collect();
                let mut dedup = shards.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(shards.len(), dedup.len(), "distinct shards");
                let t = offer.build(&mut scratch);
                assert_eq!(t.home, offer.home());
                assert!(t.validate(4).is_ok());
            }
        }
    }

    /// The one-draw-at-a-time `offer_round` that the look-ahead window
    /// replaced, kept as the oracle it must match word for word: it reads
    /// `src`'s ChaCha stream directly, never through the window, and
    /// builds every transaction the moment it is drawn. Counts into
    /// `capped` the transactions that ran out of attempts.
    fn offer_round_one_at_a_time(
        src: &mut StreamSource,
        round: Round,
        capped: &mut u32,
    ) -> Vec<(u8, Transaction)> {
        let n = src.cfg.accounts as u64;
        let rng = &mut src.words.rng;
        let mut out = Vec::new();
        let mut scratch = TxnScratch::default();
        for _ in 0..src.offered {
            let width = rng.gen_range(1..=src.cfg.k_max);
            let mut picked: Vec<(ShardId, AccountId)> = Vec::new();
            let mut attempts = 0;
            while picked.len() < width && attempts < 8 * width {
                let idx = match src.kind {
                    StreamKind::Zipf { .. } => src.words.table.as_ref().unwrap().sample(rng) as u64,
                    StreamKind::Shift { period } => {
                        let window = (n / 64).max(1);
                        let start = (round.0 / period).wrapping_mul(window) % n;
                        if rng.gen_bool(0.9) {
                            (start + rng.gen_range(0..window)) % n
                        } else {
                            rng.gen_range(0..n)
                        }
                    }
                };
                let (w, b) = ((idx / 64) as usize, idx % 64);
                if src.seen[w] & (1 << b) == 0 {
                    src.seen[w] |= 1 << b;
                    src.distinct += 1;
                }
                let a = AccountId(idx);
                let s = src.map.owner_unchecked(a);
                if !picked.iter().any(|&(seen, _)| seen == s) {
                    picked.push((s, a));
                }
                attempts += 1;
            }
            *capped += u32::from(picked.len() < width);
            let fee = rng.gen_range(0..256u32) as u8;
            let amount = src.shape.draw_amount(rng);
            let id = TxnId(src.next_id);
            src.next_id += 1;
            scratch.clear();
            for &(s, a) in &picked {
                scratch.push(a, s);
            }
            let home = picked[0].0;
            let txn = scratch.build(src.shape.into(), amount, id, home, round);
            out.push((fee, txn));
        }
        out
    }

    #[test]
    fn batched_draws_match_the_one_at_a_time_oracle() {
        // (shards, accounts, k_max, shape): two shards make every second
        // draw of a width-2 transaction a likely duplicate; eight shards
        // over sixteen skewed accounts make width-8 transactions run out
        // of attempts; widths up to 12 resolve up to twelve draws ahead;
        // the last is `small()` with the one shape that draws after the
        // accounts.
        let systems = [
            (2, 64, 2, WorkloadShape::WriteOnly),
            (8, 16, 8, WorkloadShape::WriteOnly),
            (16, 48, 12, WorkloadShape::WriteOnly),
            (8, 512, 4, WorkloadShape::Transfers { amount_max: 9 }),
        ];
        let kinds = [
            StreamKind::Zipf { exponent: 0.6 },
            StreamKind::Zipf { exponent: 1.5 },
            StreamKind::Shift { period: 3 },
        ];
        for (shards, accounts, k_max, shape) in systems {
            let sys = SystemConfig {
                shards,
                accounts,
                k_max,
                nodes_per_shard: 4,
                faulty_per_shard: 1,
            };
            let map = AccountMap::round_robin(&sys);
            for kind in kinds {
                let mut capped = 0;
                for seed in 0..4 {
                    let new = || StreamSource::new(&sys, &map, kind, shape, 0.5, 4, 25, seed);
                    let (mut windowed, mut oracle) = (new(), new());
                    let mut scratch = TxnScratch::default();
                    for r in 0..30 {
                        let want = offer_round_one_at_a_time(&mut oracle, Round(r), &mut capped);
                        let got: Vec<_> = windowed
                            .offer_round(Round(r))
                            .into_iter()
                            .map(|(fee, offer)| (fee, offer.build(&mut scratch)))
                            .collect();
                        assert_eq!(
                            got, want,
                            "{shards}x{accounts} k={k_max} {kind} seed {seed}"
                        );
                    }
                    assert_eq!(windowed.distinct_accounts(), oracle.distinct_accounts());
                    // The next word the window hands out is the stream's.
                    assert_eq!(windowed.words.next_u64(), oracle.words.rng.next_u64());
                }
                if (shards, k_max) == (8, 8) {
                    assert!(capped > 0, "{kind}: the 8·width cap never bound");
                }
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
