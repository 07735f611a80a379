//! Consistent-hash account placement over virtual nodes, plus the
//! precomputed migration schedule that powers elastic resharding.
//!
//! Accounts hash onto a fixed ring of [`VNODE_COUNT`] *virtual nodes*;
//! each vnode is owned by exactly one shard. Growing or shrinking the
//! active shard set only reassigns vnodes — an account moves if and
//! only if its vnode's owner changes, so a `±N`-shard rebalance moves
//! the minimal `~N/active` fraction of accounts instead of rehashing
//! the world the way `account mod shards` does.
//!
//! The elastic model is *provisioned capacity*: a run is configured
//! with `s_max` shards (the initial actives plus every shard any
//! `+N@R` event will ever add), all of which participate in the
//! protocol from round 0. Resharding migrates **ownership** (vnodes
//! and the account balances under them), never node membership —
//! inactive or departed shards simply own no vnodes. This keeps
//! quorum membership, leader rotation, and message topology static
//! while the data plane rebalances live.
//!
//! [`ReshardPlan::build`] turns a schedule of `(±count, round)` events
//! into the full sequence of [`ReshardVersion`]s ahead of time: every
//! version carries its vnode table, its derived [`AccountMap`], and
//! its active-shard count. Engines advance through the versions at
//! migration epoch boundaries; because the sequence is precomputed and
//! deterministic, the simulator and the networked runtime agree on
//! every table without exchanging any authoritative state.

use crate::config::{AccountMap, SystemConfig};
use crate::ids::{AccountId, ShardId};

/// Number of virtual nodes on the hash ring. 1024 vnodes over at most
/// a few hundred shards keeps per-shard ownership within ±1 vnode of
/// fair while keeping the table a single cache-friendly array.
pub const VNODE_COUNT: usize = 1024;

/// The vnode an account hashes to. SplitMix64 finalizer: cheap,
/// stateless, and avalanche-complete, so consecutive account ids
/// scatter uniformly over the ring.
pub(crate) fn vnode_of(account: AccountId) -> usize {
    let mut x = account.0;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % VNODE_COUNT as u64) as usize
}

/// A vnode → shard ownership table.
///
/// Owners are always drawn from the *active* shard set; the table is
/// oblivious to how many shards are provisioned beyond that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnodeTable {
    owner: Vec<ShardId>,
}

impl VnodeTable {
    /// Balanced initial table over the active shards `0..active`:
    /// vnode `v` is owned by shard `v mod active`. Deterministic and
    /// within ±1 vnode of perfectly fair.
    pub fn balanced(active: usize) -> VnodeTable {
        assert!(active >= 1, "vnode table needs at least one shard");
        let owner = (0..VNODE_COUNT)
            .map(|v| ShardId((v % active) as u32))
            .collect();
        VnodeTable { owner }
    }

    /// The shard owning `account` under this table.
    #[inline]
    pub(crate) fn shard_of(&self, account: AccountId) -> ShardId {
        self.owner[vnode_of(account)]
    }

    /// Number of vnodes owned per shard, indexed by shard id (sized to
    /// the largest owner present plus one).
    pub fn load(&self) -> Vec<usize> {
        let max = self.owner.iter().map(|s| s.index()).max().unwrap_or(0);
        let mut load = vec![0usize; max + 1];
        for s in &self.owner {
            load[s.index()] += 1;
        }
        load
    }

    /// Minimal-movement rebalance onto a new active set. Only vnodes
    /// whose current owner left the active set, plus the fewest vnodes
    /// needed to bring every underfull shard up to its fair share,
    /// change hands; everything else stays put (the consistent-hash
    /// property). Deterministic: vnodes are scanned in ring order and
    /// receivers are filled in ascending shard-id order.
    pub(crate) fn rebalanced(&self, active: &[ShardId]) -> VnodeTable {
        assert!(!active.is_empty(), "rebalance needs at least one shard");
        let fair = VNODE_COUNT / active.len();
        let extra = VNODE_COUNT % active.len();
        // Fair share per active shard: the first `extra` (in ascending
        // id order) get one more, so shares always sum to VNODE_COUNT.
        let mut share: Vec<(ShardId, usize)> = active
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, fair + usize::from(i < extra)))
            .collect();
        share.sort_by_key(|&(s, _)| s);
        let quota = |s: ShardId| -> usize {
            share
                .iter()
                .find(|&&(id, _)| id == s)
                .map(|&(_, q)| q)
                .unwrap_or(0)
        };
        let mut owner = self.owner.clone();
        let mut load = vec![0usize; share.iter().map(|&(s, _)| s.index()).max().unwrap() + 1];
        // Pass 1: keep every vnode whose owner is still active and
        // still under quota; everything else goes back on the ring.
        let mut orphaned: Vec<usize> = Vec::new();
        for (v, s) in owner.iter().enumerate() {
            let q = quota(*s);
            if q > 0 && load[s.index()] < q {
                load[s.index()] += 1;
            } else {
                orphaned.push(v);
            }
        }
        // Pass 2: hand orphaned vnodes (ring order) to underfull
        // shards (ascending id order).
        let mut orphans = orphaned.into_iter();
        for &(s, q) in &share {
            while load[s.index()] < q {
                let v = orphans.next().expect("shares sum to VNODE_COUNT");
                owner[v] = s;
                load[s.index()] += 1;
            }
        }
        debug_assert!(orphans.next().is_none(), "every vnode is owned");
        VnodeTable { owner }
    }

    /// Derives the per-account placement map this table induces over
    /// `cfg.accounts` accounts. The map spans all `cfg.shards`
    /// *provisioned* shards — inactive shards simply own nothing.
    pub fn account_map(&self, cfg: &SystemConfig) -> AccountMap {
        let owner: Vec<ShardId> = (0..cfg.accounts as u64)
            .map(|a| self.shard_of(AccountId(a)))
            .collect();
        AccountMap::from_owners(owner, cfg.shards)
    }
}

/// One version of the placement, active from round [`at`](Self::at)
/// (engines switch at the first migration epoch boundary at or after
/// it).
#[derive(Debug, Clone)]
pub struct ReshardVersion {
    /// First round this version is eligible to activate.
    pub at: u64,
    /// The vnode ownership table.
    pub table: VnodeTable,
    /// Account placement derived from `table` (over the provisioned
    /// shard count).
    pub map: AccountMap,
    /// The active shard set, ascending.
    pub active: Vec<ShardId>,
}

/// A precomputed reshard schedule: version 0 is the initial placement,
/// each later version applies one `±N@R` event.
#[derive(Debug, Clone)]
pub struct ReshardPlan {
    /// All versions in activation order (`versions[0].at == 0`).
    pub versions: Vec<ReshardVersion>,
    /// Provisioned shard count: every shard id any version ever
    /// activates fits in `0..s_max`. Engines run with this many
    /// protocol participants from round 0.
    pub s_max: usize,
}

impl ReshardPlan {
    /// Builds the full version sequence for `initial` active shards,
    /// `accounts` accounts, and a schedule of `(count, round)` events —
    /// `+N` activates the `N` lowest-id inactive shards, `-N` retires
    /// the `N` highest-id active shards. Events must be sorted by
    /// strictly increasing round, rounds must be `>= 1`, counts
    /// nonzero, and the active set must never empty.
    ///
    /// `cfg` describes everything *except* the shard count, which this
    /// function owns (the returned plan's maps span `s_max` shards).
    pub fn build(
        initial: usize,
        cfg: &SystemConfig,
        events: &[(i64, u64)],
    ) -> std::result::Result<ReshardPlan, String> {
        if initial == 0 {
            return Err("reshard: initial shard count must be >= 1".into());
        }
        // Walk the schedule once to find s_max, validating as we go.
        let mut active_n = initial;
        let mut s_max = initial;
        let mut prev_round = 0u64;
        for &(count, round) in events {
            if count == 0 {
                return Err(format!("reshard: event at round {round} has count 0"));
            }
            if round == 0 {
                return Err("reshard: events must be scheduled at round >= 1".into());
            }
            if round <= prev_round {
                return Err(format!(
                    "reshard: event rounds must strictly increase (round {round} after {prev_round})"
                ));
            }
            prev_round = round;
            if count > 0 {
                active_n += count as usize;
                s_max = s_max.max(active_n);
            } else {
                let drop = (-count) as usize;
                if drop >= active_n {
                    return Err(format!(
                        "reshard: -{drop}@{round} would leave {} active shard(s)",
                        active_n.saturating_sub(drop)
                    ));
                }
                active_n -= drop;
            }
        }
        let cfg_max = SystemConfig {
            shards: s_max,
            ..cfg.clone()
        };
        cfg_max.validate().map_err(|e| e.to_string())?;

        let mut active: Vec<ShardId> = (0..initial as u32).map(ShardId).collect();
        let table = VnodeTable::balanced(initial);
        let mut versions = vec![ReshardVersion {
            at: 0,
            map: table.account_map(&cfg_max),
            table,
            active: active.clone(),
        }];
        for &(count, round) in events {
            if count > 0 {
                // Activate the lowest inactive ids.
                let mut id = 0u32;
                for _ in 0..count {
                    while active.contains(&ShardId(id)) {
                        id += 1;
                    }
                    active.push(ShardId(id));
                }
            } else {
                // Retire the highest active ids.
                active.sort();
                for _ in 0..-count {
                    active.pop();
                }
            }
            active.sort();
            let table = versions.last().unwrap().table.rebalanced(&active);
            versions.push(ReshardVersion {
                at: round,
                map: table.account_map(&cfg_max),
                table,
                active: active.clone(),
            });
        }
        Ok(ReshardPlan { versions, s_max })
    }

    /// Index of the version eligible at `round` (ignoring epoch
    /// alignment — engines only switch at migration boundaries).
    pub fn version_at(&self, round: u64) -> usize {
        self.versions
            .iter()
            .rposition(|v| v.at <= round)
            .unwrap_or(0)
    }

    /// Account balances that must move from their old owner to a new
    /// one when stepping from version `from` to `from + 1`, as
    /// `(account, old_owner, new_owner)` triples in ascending account
    /// order.
    pub fn moves(&self, from: usize) -> Vec<(AccountId, ShardId, ShardId)> {
        let old = &self.versions[from].map;
        let new = &self.versions[from + 1].map;
        (0..old.len() as u64)
            .filter_map(|a| {
                let acct = AccountId(a);
                let o = old.owner_unchecked(acct);
                let n = new.owner_unchecked(acct);
                (o != n).then_some((acct, o, n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(accounts: usize) -> SystemConfig {
        SystemConfig {
            shards: 1, // overwritten by ReshardPlan::build
            nodes_per_shard: 4,
            faulty_per_shard: 1,
            k_max: 1,
            accounts,
        }
    }

    #[test]
    fn hash_is_total_and_stable() {
        for a in 0..10_000u64 {
            let v = vnode_of(AccountId(a));
            assert!(v < VNODE_COUNT);
            assert_eq!(v, vnode_of(AccountId(a)), "stateless and deterministic");
        }
    }

    #[test]
    fn balanced_table_is_fair() {
        for active in [1usize, 3, 7, 64] {
            let t = VnodeTable::balanced(active);
            let load = t.load();
            let (lo, hi) = (VNODE_COUNT / active, VNODE_COUNT.div_ceil(active));
            for (s, &n) in load.iter().enumerate().take(active) {
                assert!((lo..=hi).contains(&n), "shard {s}: {n}");
            }
        }
    }

    #[test]
    fn rebalance_moves_the_minimum() {
        let t = VnodeTable::balanced(4);
        let active: Vec<ShardId> = (0..6).map(ShardId).collect();
        let grown = t.rebalanced(&active);
        let moved = (0..VNODE_COUNT)
            .filter(|&v| t.owner[v] != grown.owner[v])
            .count();
        // Exactly the two new shards' fair share moves, nothing else.
        let expected: usize = grown.load()[4] + grown.load()[5];
        assert_eq!(moved, expected);
        // And the result is fair.
        let load = grown.load();
        for (s, &n) in load.iter().enumerate().take(6) {
            assert!((170..=171).contains(&n), "shard {s}: {n}");
        }
    }

    #[test]
    fn scale_in_only_moves_departing_vnodes() {
        let t = VnodeTable::balanced(6);
        let active: Vec<ShardId> = (0..4).map(ShardId).collect();
        let shrunk = t.rebalanced(&active);
        for v in 0..VNODE_COUNT {
            let old = t.owner[v];
            if old.index() < 4 {
                assert_eq!(shrunk.owner[v], old, "surviving owner kept vnode {v}");
            } else {
                assert!(shrunk.owner[v].index() < 4, "vnode {v} rehomed");
            }
        }
    }

    #[test]
    fn plan_walks_the_schedule() {
        let plan = ReshardPlan::build(4, &cfg(64), &[(2, 100), (-3, 400)]).unwrap();
        assert_eq!(plan.s_max, 6);
        assert_eq!(plan.versions.len(), 3);
        assert_eq!(plan.versions[0].active.len(), 4);
        assert_eq!(plan.versions[1].active.len(), 6);
        assert_eq!(plan.versions[2].active.len(), 3);
        assert_eq!(plan.version_at(0), 0);
        assert_eq!(plan.version_at(99), 0);
        assert_eq!(plan.version_at(100), 1);
        assert_eq!(plan.version_at(5000), 2);
        // Every version's map spans all provisioned shards.
        for v in &plan.versions {
            assert_eq!(v.map.len(), 64);
            for a in 0..64u64 {
                let owner = v.map.owner_unchecked(AccountId(a));
                assert!(v.active.contains(&owner), "owners are active shards");
            }
        }
    }

    #[test]
    fn scale_out_reuses_retired_ids() {
        let plan = ReshardPlan::build(4, &cfg(16), &[(-2, 10), (2, 20)]).unwrap();
        assert_eq!(plan.s_max, 4, "re-adding after a retire reuses ids");
        assert_eq!(plan.versions[2].active, plan.versions[0].active);
    }

    #[test]
    fn plan_rejects_malformed_schedules() {
        let c = cfg(16);
        assert!(ReshardPlan::build(0, &c, &[]).is_err());
        assert!(ReshardPlan::build(4, &c, &[(0, 10)]).is_err());
        assert!(ReshardPlan::build(4, &c, &[(1, 0)]).is_err());
        assert!(ReshardPlan::build(4, &c, &[(1, 10), (1, 10)]).is_err());
        assert!(ReshardPlan::build(4, &c, &[(1, 20), (1, 10)]).is_err());
        assert!(ReshardPlan::build(4, &c, &[(-4, 10)]).is_err());
        assert!(ReshardPlan::build(2, &c, &[(-1, 10), (-1, 20)]).is_err());
    }

    #[test]
    fn moves_are_exactly_the_ownership_deltas() {
        let plan = ReshardPlan::build(4, &cfg(128), &[(2, 100)]).unwrap();
        let moves = plan.moves(0);
        assert!(!moves.is_empty(), "a +2 rebalance moves accounts");
        for (a, old, new) in &moves {
            assert_eq!(plan.versions[0].map.owner_unchecked(*a), *old);
            assert_eq!(plan.versions[1].map.owner_unchecked(*a), *new);
            assert_ne!(old, new);
        }
        // Accounts not listed did not move.
        let listed: std::collections::BTreeSet<u64> = moves.iter().map(|(a, _, _)| a.0).collect();
        for a in 0..128u64 {
            if !listed.contains(&a) {
                assert_eq!(
                    plan.versions[0].map.owner_unchecked(AccountId(a)),
                    plan.versions[1].map.owner_unchecked(AccountId(a)),
                );
            }
        }
    }
}
