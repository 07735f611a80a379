//! Per-shard account state: balances, condition checks, and action
//! application.
//!
//! Each subtransaction has a condition part ("Check Rex has 5000") and an
//! action part ("Remove 1000 from Rex account"). The destination shard
//! votes *commit* iff all conditions hold **and** the actions are valid
//! (no balance underflow) — the paper's "valid and condition is satisfied".
//!
//! A ledger is a delta over the placement: every account the placement
//! puts on the shard starts at the initial balance, so the ledger stores
//! only the accounts whose balance or ownership has moved since — a run
//! over millions of accounts pays for the ones it writes, not for the
//! universe.

use sharding_core::hash::FastMap;
use sharding_core::txn::SubTransaction;
use sharding_core::{AccountId, AccountMap, ShardId};
use std::collections::hash_map::Entry;

/// Account balances held by one shard.
#[derive(Debug, Clone)]
pub struct ShardLedger {
    shard: ShardId,
    initial: u64,
    /// Where every account starts: an account absent from `moved` holds
    /// `initial` if and only if the placement puts it on this shard.
    map: AccountMap,
    /// Accounts whose balance or ownership moved: `Some(balance)` for one
    /// this shard owns, `None` for one it surrendered in a handoff.
    moved: FastMap<AccountId, Option<u64>>,
}

// `peak_live_mb` is held to the byte and a run holds `s` ledgers.
const _: () = assert!(std::mem::size_of::<ShardLedger>() <= 56);

impl ShardLedger {
    /// Creates the ledger for `shard`: every account the shard owns (per
    /// `map`) holds `initial_balance`.
    pub fn new(shard: ShardId, map: &AccountMap, initial_balance: u64) -> Self {
        ShardLedger {
            shard,
            initial: initial_balance,
            map: map.clone(),
            moved: FastMap::default(),
        }
    }

    /// The owning shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Whether the placement puts `account` on this shard.
    fn placed(&self, account: AccountId) -> bool {
        self.map.owner(account) == Ok(self.shard)
    }

    /// Balance of `account` (None when this shard does not own it).
    pub fn balance(&self, account: AccountId) -> Option<u64> {
        match self.moved.get(&account) {
            Some(&moved) => moved,
            None => self.placed(account).then_some(self.initial),
        }
    }

    /// Sum of all balances on this shard.
    pub fn total(&self) -> u64 {
        let mut untouched = self.map.accounts_of(self.shard).len() as u64;
        let mut moved = 0;
        for (&account, &balance) in &self.moved {
            untouched -= u64::from(self.placed(account));
            moved += balance.unwrap_or(0);
        }
        self.initial * untouched + moved
    }

    /// Surrenders ownership of `account`, returning its balance for a
    /// migration handoff (None when this shard never owned it). After
    /// this call the shard votes false on any sub touching the account,
    /// which is exactly the fail-safe a stale destination deserves.
    pub fn remove_account(&mut self, account: AccountId) -> Option<u64> {
        let balance = self.balance(account)?;
        self.moved.insert(account, None);
        Some(balance)
    }

    /// Absorbs ownership of `account` at `balance` — the receiving end
    /// of a migration handoff. Panics if the account is already owned:
    /// double absorption means the migration protocol double-sent.
    pub fn absorb(&mut self, account: AccountId, balance: u64) {
        assert!(
            self.balance(account).is_none(),
            "handoff double-delivered account {account} to shard {}",
            self.shard
        );
        self.moved.insert(account, Some(balance));
    }

    /// Vote for `sub`: true iff every condition holds and every action is
    /// applicable without underflow when executed in order.
    pub fn check(&self, sub: &SubTransaction) -> bool {
        debug_assert_eq!(sub.dest, self.shard);
        for c in sub.conditions() {
            match self.balance(c.account) {
                Some(b) if b >= c.min_balance => {}
                _ => return false,
            }
        }
        self.actions_valid(sub)
    }

    /// True iff the action part alone is applicable (no underflow, all
    /// accounts owned) when executed in order.
    ///
    /// Runs once per vote, so it keeps no scratch map: the running total
    /// of an account after action `i` is its balance plus the deltas of
    /// the actions on it up to `i`, re-summed from the list itself. That
    /// is quadratic in the actions of one sub — a list that is inline
    /// and almost always a single entry.
    pub(crate) fn actions_valid(&self, sub: &SubTransaction) -> bool {
        let actions = sub.actions();
        actions.iter().enumerate().all(|(i, a)| {
            let Some(base) = self.balance(a.account) else {
                return false;
            };
            let applied = actions[..=i].iter().filter(|p| p.account == a.account);
            base as i128 + applied.map(|p| p.delta as i128).sum::<i128>() >= 0
        })
    }

    /// Attempts to apply the actions of `sub`; returns false (leaving the
    /// ledger untouched) if any action would underflow or hit an unknown
    /// account. Used by optimistic/pipelined commit paths where the vote
    /// may have gone stale between check and commit — conditions are *not*
    /// re-checked (the vote already certified them), only applicability.
    pub fn try_apply(&mut self, sub: &SubTransaction) -> bool {
        if !self.actions_valid(sub) {
            return false;
        }
        self.apply(sub);
        true
    }

    /// Applies the actions of `sub`. Call only after [`Self::check`]
    /// passed (the commit protocol guarantees this); panics on underflow
    /// to surface scheduler bugs immediately.
    pub fn apply(&mut self, sub: &SubTransaction) {
        debug_assert_eq!(sub.dest, self.shard);
        let shard = self.shard;
        for a in sub.actions() {
            let b = self
                .balance_mut(a.account)
                .unwrap_or_else(|| panic!("account {} not on shard {shard}", a.account));
            let next = *b as i128 + a.delta as i128;
            assert!(next >= 0, "underflow applying {:?} to {shard}", a);
            *b = next as u64;
        }
    }

    /// The balance of an owned `account`, entered into `moved` on its
    /// first write.
    fn balance_mut(&mut self, account: AccountId) -> Option<&mut u64> {
        match self.moved.entry(account) {
            Entry::Occupied(e) => e.into_mut().as_mut(),
            Entry::Vacant(e) if self.map.owner(account) == Ok(self.shard) => {
                e.insert(Some(self.initial)).as_mut()
            }
            Entry::Vacant(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharding_core::config::SystemConfig;
    use sharding_core::txn::{Action, Condition};
    use sharding_core::TxnId;
    use std::collections::BTreeMap;

    fn setup() -> (AccountMap, ShardLedger) {
        let cfg = SystemConfig {
            shards: 4,
            accounts: 8,
            ..SystemConfig::tiny()
        };
        let map = AccountMap::round_robin(&cfg);
        let ledger = ShardLedger::new(ShardId(0), &map, 1000);
        (map, ledger)
    }

    fn sub_with(conditions: Vec<Condition>, actions: Vec<Action>) -> SubTransaction {
        SubTransaction::new(TxnId(1), ShardId(0), &conditions, &actions)
    }

    #[test]
    fn seeds_owned_accounts() {
        let (map, ledger) = setup();
        // Shard 0 owns accounts 0 and 4 under round-robin over 4 shards.
        let owned: Vec<_> = map.accounts_of(ShardId(0)).iter().collect();
        assert_eq!(owned, [AccountId(0), AccountId(4)]);
        assert_eq!(ledger.balance(AccountId(0)), Some(1000));
        assert_eq!(ledger.balance(AccountId(4)), Some(1000));
        assert_eq!(ledger.balance(AccountId(1)), None, "not owned");
        assert_eq!(ledger.total(), 2000);
    }

    #[test]
    fn condition_check() {
        let (_, ledger) = setup();
        let ok = sub_with(
            vec![Condition {
                account: AccountId(0),
                min_balance: 1000,
            }],
            vec![],
        );
        assert!(ledger.check(&ok));
        let too_high = sub_with(
            vec![Condition {
                account: AccountId(0),
                min_balance: 1001,
            }],
            vec![],
        );
        assert!(!ledger.check(&too_high));
        let unknown = sub_with(
            vec![Condition {
                account: AccountId(1),
                min_balance: 0,
            }],
            vec![],
        );
        assert!(!ledger.check(&unknown), "foreign account fails the vote");
    }

    #[test]
    fn action_validity_guards_underflow() {
        let (_, ledger) = setup();
        let ok = sub_with(
            vec![],
            vec![Action {
                account: AccountId(0),
                delta: -1000,
            }],
        );
        assert!(ledger.check(&ok));
        let under = sub_with(
            vec![],
            vec![Action {
                account: AccountId(0),
                delta: -1001,
            }],
        );
        assert!(!ledger.check(&under));
        // Order matters: +500 then −1500 is fine; −1500 then +500 is not.
        let fine = sub_with(
            vec![],
            vec![
                Action {
                    account: AccountId(0),
                    delta: 500,
                },
                Action {
                    account: AccountId(0),
                    delta: -1500,
                },
            ],
        );
        assert!(ledger.check(&fine));
        let bad = sub_with(
            vec![],
            vec![
                Action {
                    account: AccountId(0),
                    delta: -1500,
                },
                Action {
                    account: AccountId(0),
                    delta: 500,
                },
            ],
        );
        assert!(!ledger.check(&bad));
    }

    /// `actions_valid` as it was while it kept a scratch map per call —
    /// the reference the map-free walk is held to.
    fn actions_valid_oracle(
        balance: impl Fn(AccountId) -> Option<u64>,
        sub: &SubTransaction,
    ) -> bool {
        let mut scratch: BTreeMap<AccountId, i128> = BTreeMap::new();
        for a in sub.actions() {
            let Some(base) = balance(a.account) else {
                return false;
            };
            let entry = scratch.entry(a.account).or_insert(base as i128);
            *entry += a.delta as i128;
            if *entry < 0 {
                return false;
            }
        }
        true
    }

    fn acts(list: &[(u64, i64)]) -> SubTransaction {
        let action = |&(account, delta)| Action {
            account: AccountId(account),
            delta,
        };
        sub_with(vec![], list.iter().map(action).collect())
    }

    #[test]
    fn actions_valid_agrees_with_the_map_oracle_on_the_corner_cases() {
        let (_, ledger) = setup();
        // Shard 0 owns accounts 0 and 4 at 1000 each; 1 is foreign.
        let cases: [(&[(u64, i64)], bool); 9] = [
            (&[], true),
            (&[(0, -1000), (4, -1000)], true),
            (&[(0, -600), (4, -900), (0, -400)], true),
            (&[(0, -600), (4, -900), (0, -401)], false),
            // Dips below zero, then recovers: the dip already fails.
            (&[(0, -1001), (0, 500)], false),
            (&[(0, 1), (0, -1001), (0, 1000)], true),
            (&[(1, 5), (0, 1), (4, 1)], false),
            (&[(0, 1), (1, 5), (4, 1)], false),
            (&[(0, 1), (4, 1), (1, 5)], false),
        ];
        for (list, expect) in cases {
            let sub = acts(list);
            assert_eq!(ledger.actions_valid(&sub), expect, "{list:?}");
            assert_eq!(
                actions_valid_oracle(|a| ledger.balance(a), &sub),
                expect,
                "{list:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Few accounts (so they repeat), one of them foreign, deltas of
        /// the order of the balance (so totals cross zero both ways).
        #[test]
        fn actions_valid_agrees_with_the_map_oracle(
            list in proptest::collection::vec((0usize..6, -1500i64..1500), 0..9),
        ) {
            let (_, ledger) = setup();
            // 0 and 4 are owned; 1, drawn one time in six, is not.
            let account = [0, 4, 0, 4, 0, 1];
            let list: Vec<(u64, i64)> = list.into_iter().map(|(a, d)| (account[a], d)).collect();
            let sub = acts(&list);
            proptest::prop_assert_eq!(
                ledger.actions_valid(&sub),
                actions_valid_oracle(|a| ledger.balance(a), &sub),
                "{:?}", list
            );
        }
    }

    #[test]
    fn apply_updates_balances() {
        let (_, mut ledger) = setup();
        let s = sub_with(
            vec![],
            vec![
                Action {
                    account: AccountId(0),
                    delta: -300,
                },
                Action {
                    account: AccountId(4),
                    delta: 300,
                },
            ],
        );
        assert!(ledger.check(&s));
        ledger.apply(&s);
        assert_eq!(ledger.balance(AccountId(0)), Some(700));
        assert_eq!(ledger.balance(AccountId(4)), Some(1300));
        assert_eq!(ledger.total(), 2000, "intra-shard transfer conserves");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn apply_without_check_panics_on_underflow() {
        let (_, mut ledger) = setup();
        let s = sub_with(
            vec![],
            vec![Action {
                account: AccountId(0),
                delta: -5000,
            }],
        );
        ledger.apply(&s);
    }

    /// The ledger as it was while it seeded one tree entry per owned
    /// account — the reference the delta over the placement is held to.
    struct TreeLedger(BTreeMap<AccountId, u64>);

    impl TreeLedger {
        fn new(shard: ShardId, map: &AccountMap, initial: u64) -> Self {
            TreeLedger(
                map.accounts_of(shard)
                    .iter()
                    .map(|a| (a, initial))
                    .collect(),
            )
        }

        fn balance(&self, account: AccountId) -> Option<u64> {
            self.0.get(&account).copied()
        }

        fn check(&self, sub: &SubTransaction) -> bool {
            let holds = |c: &Condition| self.balance(c.account).is_some_and(|b| b >= c.min_balance);
            sub.conditions().iter().all(holds) && actions_valid_oracle(|a| self.balance(a), sub)
        }

        fn apply(&mut self, sub: &SubTransaction) {
            for a in sub.actions() {
                let b = self.0.get_mut(&a.account).expect("applied only when valid");
                *b = (*b as i128 + a.delta as i128) as u64;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random sequences of every ledger operation on the delta ledger
        /// and on the tree oracle agree answer by answer and balance by
        /// balance — over a round-robin and a random map of 11 accounts
        /// on 3 shards (so shard 0 owns one more than shard 2), with id 11
        /// outside the universe.
        #[test]
        fn the_delta_ledger_agrees_with_the_tree_oracle(
            random in proptest::any::<bool>(),
            shard in 0u32..3,
            ops in proptest::collection::vec(
                (0u8..7, 0u64..12, 0u64..12, -1500i64..1500, 0u64..2000),
                0..40,
            ),
        ) {
            let cfg = SystemConfig {
                shards: 3,
                accounts: 11,
                ..SystemConfig::tiny()
            };
            let map = if random {
                AccountMap::random(&cfg, 5)
            } else {
                AccountMap::round_robin(&cfg)
            };
            let shard = ShardId(shard);
            let mut ledger = ShardLedger::new(shard, &map, 1000);
            let mut oracle = TreeLedger::new(shard, &map, 1000);
            for (op, a, b, delta, amount) in ops {
                let (a, b) = (AccountId(a), AccountId(b));
                let sub = SubTransaction::new(
                    TxnId(1),
                    shard,
                    &[Condition { account: a, min_balance: amount }],
                    &[
                        Action { account: a, delta },
                        Action { account: b, delta: -delta / 2 },
                    ],
                );
                match op {
                    0 => proptest::prop_assert_eq!(ledger.check(&sub), oracle.check(&sub)),
                    1 => {
                        if oracle.check(&sub) {
                            ledger.apply(&sub);
                            oracle.apply(&sub);
                        }
                    }
                    2 => {
                        let valid = actions_valid_oracle(|a| oracle.balance(a), &sub);
                        proptest::prop_assert_eq!(ledger.try_apply(&sub), valid);
                        if valid {
                            oracle.apply(&sub);
                        }
                    }
                    3 => proptest::prop_assert_eq!(ledger.remove_account(a), oracle.0.remove(&a)),
                    4 => {
                        if oracle.balance(a).is_none() {
                            ledger.absorb(a, amount);
                            oracle.0.insert(a, amount);
                        }
                    }
                    5 => proptest::prop_assert_eq!(ledger.balance(a), oracle.balance(a)),
                    _ => proptest::prop_assert_eq!(ledger.total(), oracle.0.values().sum::<u64>()),
                }
            }
            for id in 0..12 {
                let a = AccountId(id);
                proptest::prop_assert_eq!(ledger.balance(a), oracle.balance(a), "{}", a);
            }
            proptest::prop_assert_eq!(ledger.total(), oracle.0.values().sum::<u64>());
        }
    }
}
