//! System configuration and account placement.
//!
//! Mirrors the model of Section 3 of the paper: `n` nodes partitioned into
//! `s` disjoint shards `S_1 … S_s`, a set of shared accounts `O` partitioned
//! into `O_1 … O_s` (one subset per shard), and a cap `k` on the number of
//! distinct shards any single transaction may access.

use crate::error::{Error, Result};
use crate::ids::{AccountId, ShardId};
use crate::rngutil::seeded_rng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Static description of a sharded blockchain system.
///
/// A `SystemConfig` is immutable for the lifetime of a run; every simulator,
/// scheduler, and adversary takes a shared reference to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of shards `s >= 1`.
    pub shards: usize,
    /// Number of nodes per shard (`n_i`). The paper allows heterogeneous
    /// sizes; we keep one size for the common case and expose per-shard
    /// faulty counts separately.
    pub nodes_per_shard: usize,
    /// Declared number of Byzantine nodes per shard (`f_i`). Must satisfy
    /// `nodes_per_shard > 3 * faulty_per_shard`.
    pub faulty_per_shard: usize,
    /// Maximum number of distinct shards a transaction may access (`k`).
    pub k_max: usize,
    /// Total number of shared accounts in the system.
    pub accounts: usize,
}

impl SystemConfig {
    /// The configuration used throughout Section 7 of the paper:
    /// 64 shards, 64 accounts (one per shard), `k = 8`, and 4 nodes per
    /// shard with one tolerated fault (the smallest PBFT-viable shard).
    pub fn paper_simulation() -> Self {
        SystemConfig {
            shards: 64,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 8,
            accounts: 64,
        }
    }

    /// A tiny configuration convenient for unit tests.
    pub fn tiny() -> Self {
        SystemConfig {
            shards: 4,
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 2,
            accounts: 8,
        }
    }

    /// Validates all model preconditions.
    ///
    /// * `s >= 1`, `accounts >= 1`, `1 <= k <= s`;
    /// * BFT viability `n_i > 3 f_i` in every shard;
    /// * at least one account per shard is possible (`accounts >= shards`
    ///   is *not* required — shards may own zero accounts — but we require
    ///   `accounts >= 1` so transactions exist).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidConfig {
                reason: "shards must be >= 1".into(),
            });
        }
        if self.shards > u32::MAX as usize {
            return Err(Error::InvalidConfig {
                reason: "shards must fit in u32".into(),
            });
        }
        if self.accounts == 0 {
            return Err(Error::InvalidConfig {
                reason: "accounts must be >= 1".into(),
            });
        }
        if self.k_max == 0 || self.k_max > self.shards {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "k must satisfy 1 <= k <= s, got k={} s={}",
                    self.k_max, self.shards
                ),
            });
        }
        if self.nodes_per_shard <= 3 * self.faulty_per_shard {
            return Err(Error::InsufficientQuorum {
                shard: ShardId(0),
                nodes: self.nodes_per_shard,
                faulty: self.faulty_per_shard,
            });
        }
        Ok(())
    }

    /// Iterator over all shard ids `S_0 … S_{s-1}`.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        (0..self.shards as u32).map(ShardId)
    }
}

/// The account → shard placement map (`O = O_1 ∪ … ∪ O_s`).
///
/// Placement is fixed for a run: in this model objects never migrate between
/// shards (this is the key difference from distributed transactional memory
/// that the paper calls out in Section 2). Nothing mutates a built map, so
/// its placement sits behind one `Arc`: a clone is a reference-count bump,
/// and the map is one pointer wide. Round-robin placement is arithmetic
/// and stores nothing per account; only `random` and `from_owners` build
/// tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccountMap {
    placement: Arc<Placement>,
}

// `peak_live_mb` is held to the byte and every ledger holds a map.
const _: () = assert!(std::mem::size_of::<AccountMap>() == std::mem::size_of::<usize>());

#[derive(Debug, PartialEq, Eq)]
enum Placement {
    /// Account `a` lives on shard `a mod shards`.
    RoundRobin { shards: u64, accounts: u64 },
    /// An explicit owner per account.
    Tables {
        owner: Vec<ShardId>,
        /// Accounts owned by each shard, in ascending account order.
        per_shard: Vec<Vec<AccountId>>,
    },
}

impl AccountMap {
    /// Round-robin placement: account `a` lives on shard `a mod s`.
    /// With `accounts == shards` this is exactly the paper's simulation
    /// setup of one account per shard.
    pub fn round_robin(cfg: &SystemConfig) -> Self {
        AccountMap {
            placement: Arc::new(Placement::RoundRobin {
                shards: cfg.shards as u64,
                accounts: cfg.accounts as u64,
            }),
        }
    }

    /// Random placement (used by the paper's simulation: "generated random,
    /// unique accounts and assigned them randomly to different shards").
    /// Deterministic in `seed`. Every shard is guaranteed at least one
    /// account when `accounts >= shards` (placement is a random permutation
    /// of a balanced assignment).
    pub fn random(cfg: &SystemConfig, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        // Balanced multiset of shard slots, shuffled: uniform but covers
        // every shard when accounts >= shards.
        let mut slots: Vec<ShardId> = (0..cfg.accounts)
            .map(|i| ShardId((i % cfg.shards) as u32))
            .collect();
        slots.shuffle(&mut rng);
        AccountMap::from_owners(slots, cfg.shards)
    }

    /// Builds a map from an explicit per-account owner vector over
    /// `shards` shards (the vnode placement path: owners come from a
    /// hash table, not a modulus). Panics if any owner is out of range.
    pub fn from_owners(owner: Vec<ShardId>, shards: usize) -> Self {
        let mut per_shard = vec![Vec::new(); shards];
        for (a, &s) in owner.iter().enumerate() {
            per_shard[s.index()].push(AccountId(a as u64));
        }
        // The lists were grown by pushing and now live as long as the
        // last handle does: give the doubling slack back.
        for accounts in &mut per_shard {
            accounts.shrink_to_fit();
        }
        AccountMap {
            placement: Arc::new(Placement::Tables { owner, per_shard }),
        }
    }

    /// Shard that owns `account`.
    pub fn owner(&self, account: AccountId) -> Result<ShardId> {
        match *self.placement {
            Placement::RoundRobin { shards, accounts } if account.0 < accounts => {
                Ok(ShardId((account.0 % shards) as u32))
            }
            Placement::RoundRobin { .. } => Err(Error::UnknownAccount(account)),
            Placement::Tables { ref owner, .. } => owner
                .get(account.index())
                .copied()
                .ok_or(Error::UnknownAccount(account)),
        }
    }

    /// Shard that owns `account`, panicking on unknown ids (hot path).
    #[inline]
    pub fn owner_unchecked(&self, account: AccountId) -> ShardId {
        match *self.placement {
            Placement::RoundRobin { shards, accounts } => {
                assert!(account.0 < accounts, "unknown account {account}");
                ShardId((account.0 % shards) as u32)
            }
            Placement::Tables { ref owner, .. } => owner[account.index()],
        }
    }

    /// Accounts owned by `shard` (ascending order).
    pub fn accounts_of(&self, shard: ShardId) -> Accounts<'_> {
        let s = u64::from(shard.0);
        Accounts(match *self.placement {
            Placement::RoundRobin { shards, accounts } => Owned::Stride {
                first: s,
                step: shards,
                len: if s < shards && s < accounts {
                    (accounts - s).div_ceil(shards) as usize
                } else {
                    0
                },
            },
            Placement::Tables { ref per_shard, .. } => {
                Owned::Listed(per_shard.get(shard.index()).map_or(&[], Vec::as_slice))
            }
        })
    }

    /// Total number of accounts.
    #[inline]
    pub fn len(&self) -> usize {
        match *self.placement {
            Placement::RoundRobin { accounts, .. } => accounts as usize,
            Placement::Tables { ref owner, .. } => owner.len(),
        }
    }

    /// True when the map holds no accounts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The accounts one shard owns, in ascending order: a stride of the id
/// space under round-robin placement, a borrowed list otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Accounts<'a>(Owned<'a>);

#[derive(Debug, Clone, Copy)]
enum Owned<'a> {
    Stride { first: u64, step: u64, len: usize },
    Listed(&'a [AccountId]),
}

impl<'a> Accounts<'a> {
    /// Number of accounts.
    #[inline]
    pub fn len(&self) -> usize {
        match self.0 {
            Owned::Stride { len, .. } => len,
            Owned::Listed(list) => list.len(),
        }
    }

    /// True when the shard owns no account.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th account in ascending order.
    #[inline]
    pub fn get(&self, i: usize) -> Option<AccountId> {
        match self.0 {
            Owned::Stride { first, step, len } => {
                (i < len).then(|| AccountId(first + i as u64 * step))
            }
            Owned::Listed(list) => list.get(i).copied(),
        }
    }

    /// The lowest account, if any.
    #[inline]
    pub fn first(&self) -> Option<AccountId> {
        self.get(0)
    }

    /// The accounts in ascending order.
    pub fn iter(self) -> impl Iterator<Item = AccountId> + 'a {
        (0..self.len()).map(move |i| self.get(i).expect("index below len"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        SystemConfig::paper_simulation().validate().unwrap();
    }

    #[test]
    fn rejects_zero_shards() {
        let cfg = SystemConfig {
            shards: 0,
            ..SystemConfig::tiny()
        };
        assert!(matches!(cfg.validate(), Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn rejects_k_out_of_range() {
        let cfg = SystemConfig {
            k_max: 5,
            shards: 4,
            ..SystemConfig::tiny()
        };
        assert!(cfg.validate().is_err());
        let cfg = SystemConfig {
            k_max: 0,
            ..SystemConfig::tiny()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bft_violation() {
        let cfg = SystemConfig {
            nodes_per_shard: 3,
            faulty_per_shard: 1,
            ..SystemConfig::tiny()
        };
        assert!(matches!(
            cfg.validate(),
            Err(Error::InsufficientQuorum { .. })
        ));
    }

    #[test]
    fn round_robin_covers_all_shards() {
        let cfg = SystemConfig::paper_simulation();
        let map = AccountMap::round_robin(&cfg);
        assert_eq!(map.len(), 64);
        for a in 0..64u64 {
            assert_eq!(map.owner(AccountId(a)).unwrap(), ShardId((a % 64) as u32));
        }
    }

    #[test]
    fn random_map_is_deterministic_and_balanced() {
        let cfg = SystemConfig::paper_simulation();
        let m1 = AccountMap::random(&cfg, 42);
        let m2 = AccountMap::random(&cfg, 42);
        assert_eq!(m1, m2);
        let m3 = AccountMap::random(&cfg, 43);
        assert_ne!(m1, m3, "different seeds should (overwhelmingly) differ");
        // 64 accounts over 64 shards balanced => exactly one account each.
        for sid in cfg.shard_ids() {
            assert_eq!(m1.accounts_of(sid).len(), 1);
        }
    }

    #[test]
    fn unknown_account_is_error() {
        let cfg = SystemConfig::tiny();
        let map = AccountMap::round_robin(&cfg);
        assert_eq!(
            map.owner(AccountId(999)),
            Err(Error::UnknownAccount(AccountId(999)))
        );
    }

    #[test]
    fn per_shard_listing_matches_owner() {
        let cfg = SystemConfig::tiny();
        let map = AccountMap::random(&cfg, 7);
        for sid in cfg.shard_ids() {
            for a in map.accounts_of(sid).iter() {
                assert_eq!(map.owner(a).unwrap(), sid);
            }
        }
        let total: usize = cfg.shard_ids().map(|s| map.accounts_of(s).len()).sum();
        assert_eq!(total, cfg.accounts);
    }

    #[test]
    fn round_robin_is_the_modulus_table_without_the_table() {
        // Fewer accounts than shards, uneven strides, the paper's shape.
        for (shards, accounts) in [(1, 1), (4, 8), (5, 2), (3, 11), (7, 100), (64, 64)] {
            let cfg = SystemConfig {
                shards,
                accounts,
                ..SystemConfig::tiny()
            };
            let arithmetic = AccountMap::round_robin(&cfg);
            let owners = (0..accounts).map(|a| ShardId((a % shards) as u32));
            let table = AccountMap::from_owners(owners.collect(), shards);
            assert_eq!(arithmetic.len(), table.len());
            for a in (0..accounts as u64 + 2).map(AccountId) {
                assert_eq!(arithmetic.owner(a), table.owner(a), "{a}");
            }
            for a in (0..accounts as u64).map(AccountId) {
                assert_eq!(arithmetic.owner_unchecked(a), table.owner_unchecked(a));
            }
            for s in (0..shards as u32 + 1).map(ShardId) {
                let (got, want) = (arithmetic.accounts_of(s), table.accounts_of(s));
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{shards} shards, {accounts} accounts, {s}"
                );
                assert!(got.iter().eq(want.iter()));
                for i in 0..=want.len() {
                    assert_eq!(got.get(i), want.get(i));
                }
            }
        }
    }
}
