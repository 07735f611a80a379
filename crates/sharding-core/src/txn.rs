//! Transactions, subtransactions, and the conflict predicate.
//!
//! Section 3 of the paper: a transaction `T_i` is a collection of
//! subtransactions `T_{i,a1} … T_{i,aj}`, one per destination shard. Each
//! subtransaction has a *condition check* part (reads) and a *main action*
//! part (writes). Two transactions conflict when they access a common
//! object and at least one of them writes it; conflicting transactions must
//! serialize in the same order at every shard.

use crate::config::AccountMap;
use crate::error::{Error, Result};
use crate::ids::{AccountId, Round, ShardId, TxnId};
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes (updates) the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Condition check only; multiple readers do not conflict.
    Read,
    /// Main action; any overlap with a writer conflicts.
    Write,
}

/// A single (account, kind) access, the unit of the conflict relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Account touched.
    pub account: AccountId,
    /// Read or write.
    pub kind: AccessKind,
}

/// Condition check: "account holds at least `min_balance`".
///
/// This is the paper's Example 1 shape ("Check Rex has 5000"). A condition
/// is a *read* of the account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Condition {
    /// Account read by the check.
    pub account: AccountId,
    /// Minimum balance required for the check to pass.
    pub min_balance: u64,
}

/// Main action: apply a signed delta to an account balance.
///
/// An action is a *write* of the account. Negative deltas additionally
/// require the balance to cover the amount at commit time (validity in the
/// paper's sense: "Rex has indeed 1000 in the account to be removed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Action {
    /// Account written.
    pub account: AccountId,
    /// Signed balance change.
    pub delta: i64,
}

/// The portion of a transaction destined for a single shard.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubTransaction {
    /// Parent transaction id.
    pub txn: TxnId,
    /// Destination shard that owns every account referenced below.
    pub dest: ShardId,
    parts: Parts,
}

/// A sub as its destination's chain keeps it: the id and the parts. The
/// destination is the chain's own shard, so it is not stored again.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommittedSub {
    /// Parent transaction id.
    pub txn: TxnId,
    parts: Parts,
}

// `peak_live_mb` is held to the byte: none of these may grow. A chain
// keeps every sub it commits, as a `CommittedSub`, for the rest of the
// run; a `Transaction` and its subs live as long as its schedule does.
const _: () = assert!(std::mem::size_of::<SubTransaction>() <= 40);
const _: () = assert!(std::mem::size_of::<CommittedSub>() <= 32);
const _: () = assert!(std::mem::size_of::<Transaction>() <= 48);

/// A sub's condition checks and main actions, each kind in filing order.
/// A lone part of either kind sits in place and one of each is one heap
/// block; anything more boxes the two lists together, which no
/// checked-in shape files before regrouping. Equal when both lists are:
/// which form holds the parts is never observable.
#[derive(Clone, Default)]
enum Parts {
    #[default]
    Empty,
    Condition(Condition),
    Action(Action),
    /// One of each: a transfer's payer (a balance check and a debit).
    Pair(Box<(Condition, Action)>),
    /// Two or more parts, not one of each.
    Lists(Box<Lists>),
}

/// Both kinds' lists; an empty one takes no block.
type Lists = (Box<[Condition]>, Box<[Action]>);

/// `list` followed by `last`, in one exact-fit block.
fn appended<T: Copy>(list: &[T], last: T) -> Box<[T]> {
    list.iter().copied().chain([last]).collect()
}

impl Parts {
    #[inline]
    fn conditions(&self) -> &[Condition] {
        match self {
            Parts::Condition(c) => std::slice::from_ref(c),
            Parts::Pair(pair) => std::slice::from_ref(&pair.0),
            Parts::Lists(lists) => &lists.0,
            Parts::Empty | Parts::Action(_) => &[],
        }
    }

    #[inline]
    fn actions(&self) -> &[Action] {
        match self {
            Parts::Action(a) => std::slice::from_ref(a),
            Parts::Pair(pair) => std::slice::from_ref(&pair.1),
            Parts::Lists(lists) => &lists.1,
            Parts::Empty | Parts::Condition(_) => &[],
        }
    }
}

impl PartialEq for Parts {
    fn eq(&self, other: &Self) -> bool {
        self.conditions() == other.conditions() && self.actions() == other.actions()
    }
}

impl Eq for Parts {}

impl SubTransaction {
    /// A sub of `txn` for `dest` holding `conditions` and `actions`, each
    /// in the given order.
    pub fn new(txn: TxnId, dest: ShardId, conditions: &[Condition], actions: &[Action]) -> Self {
        let mut sub = SubTransaction {
            txn,
            dest,
            parts: Parts::Empty,
        };
        conditions.iter().for_each(|&c| sub.push_condition(c));
        actions.iter().for_each(|&a| sub.push_action(a));
        sub
    }

    /// Condition checks (reads) executed on the destination shard.
    #[inline]
    pub fn conditions(&self) -> &[Condition] {
        self.parts.conditions()
    }

    /// Main actions (writes) executed on the destination shard.
    #[inline]
    pub fn actions(&self) -> &[Action] {
        self.parts.actions()
    }

    /// The sub as `dest`'s chain keeps it: the id and the parts, moved.
    pub fn into_committed(self) -> CommittedSub {
        CommittedSub {
            txn: self.txn,
            parts: self.parts,
        }
    }

    /// Appends a condition check after the ones already filed.
    fn push_condition(&mut self, c: Condition) {
        self.parts = match std::mem::take(&mut self.parts) {
            Parts::Empty => Parts::Condition(c),
            Parts::Action(a) => Parts::Pair(Box::new((c, a))),
            Parts::Condition(first) => Parts::Lists(Box::new((Box::new([first, c]), Box::new([])))),
            Parts::Pair(pair) => {
                Parts::Lists(Box::new((Box::new([pair.0, c]), Box::new([pair.1]))))
            }
            Parts::Lists(mut lists) => {
                lists.0 = appended(&lists.0, c);
                Parts::Lists(lists)
            }
        }
    }

    /// Appends a main action after the ones already filed.
    fn push_action(&mut self, a: Action) {
        self.parts = match std::mem::take(&mut self.parts) {
            Parts::Empty => Parts::Action(a),
            Parts::Condition(c) => Parts::Pair(Box::new((c, a))),
            Parts::Action(first) => Parts::Lists(Box::new((Box::new([]), Box::new([first, a])))),
            Parts::Pair(pair) => {
                Parts::Lists(Box::new((Box::new([pair.0]), Box::new([pair.1, a]))))
            }
            Parts::Lists(mut lists) => {
                lists.1 = appended(&lists.1, a);
                Parts::Lists(lists)
            }
        }
    }

    /// True when the parts take no heap block of their own.
    pub fn is_inline(&self) -> bool {
        matches!(
            self.parts,
            Parts::Empty | Parts::Condition(_) | Parts::Action(_)
        )
    }

    /// Approximate wire size in bytes (id + shard + 16 per condition or
    /// action), used by the message-size accounting that checks the
    /// paper's `O(bs)` message bound.
    pub fn approx_bytes(&self) -> usize {
        12 + 16 * (self.conditions().len() + self.actions().len())
    }
}

impl std::fmt::Debug for SubTransaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubTransaction")
            .field("txn", &self.txn)
            .field("dest", &self.dest)
            .field("conditions", &self.conditions())
            .field("actions", &self.actions())
            .finish()
    }
}

impl CommittedSub {
    /// Condition checks (reads) the chain's shard executed.
    #[inline]
    pub fn conditions(&self) -> &[Condition] {
        self.parts.conditions()
    }

    /// Main actions (writes) the chain's shard executed.
    #[inline]
    pub fn actions(&self) -> &[Action] {
        self.parts.actions()
    }
}

impl std::fmt::Debug for CommittedSub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommittedSub")
            .field("txn", &self.txn)
            .field("conditions", &self.conditions())
            .field("actions", &self.actions())
            .finish()
    }
}

/// A complete transaction: home shard, generation time, and per-shard parts.
///
/// Invariants (enforced by [`TxnBuilder`] and checked by `validate`):
/// * at least one access overall;
/// * subtransactions target distinct shards, sorted by shard id.
///
/// A transaction stores its subs and nothing they imply: its access list
/// is derived on demand ([`Transaction::accesses`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Globally unique id; ids increase in generation order.
    pub id: TxnId,
    /// Shard at which the transaction was injected.
    pub home: ShardId,
    /// Round at which the adversary generated the transaction.
    pub generated: Round,
    /// Per-destination-shard pieces, sorted by destination shard id.
    pub subs: Vec<SubTransaction>,
}

/// Parts up to which [`Transaction::accesses`] builds its list without a
/// heap block — more than any checked-in shape has.
pub const INLINE_ACCESSES: usize = 16;

/// A transaction's accesses, sorted by `(account, kind)` and
/// deduplicated; read as a slice. Up to [`INLINE_ACCESSES`] parts it is
/// built in place, on the caller's stack.
#[derive(Clone)]
pub struct Accesses {
    /// The entries in place, when `spilled` is empty: the first `len`.
    inline: [Access; INLINE_ACCESSES],
    len: usize,
    /// Every entry, when there were more parts than `inline` holds.
    spilled: Vec<Access>,
}

impl Accesses {
    /// Sorts and deduplicates `parts`, one access per part.
    fn of(parts: usize, each: impl Iterator<Item = Access>) -> Accesses {
        let mut list = Accesses {
            inline: [Access {
                account: AccountId(0),
                kind: AccessKind::Read,
            }; INLINE_ACCESSES],
            len: 0,
            spilled: Vec::new(),
        };
        let all = if parts <= INLINE_ACCESSES {
            list.inline
                .iter_mut()
                .zip(each)
                .for_each(|(slot, a)| *slot = a);
            &mut list.inline[..parts]
        } else {
            list.spilled.extend(each);
            &mut list.spilled[..]
        };
        all.sort_unstable();
        let mut kept = 0;
        for i in 0..all.len() {
            if kept == 0 || all[i] != all[kept - 1] {
                all[kept] = all[i];
                kept += 1;
            }
        }
        list.len = kept;
        list.spilled.truncate(kept);
        list
    }
}

impl std::ops::Deref for Accesses {
    type Target = [Access];

    fn deref(&self) -> &[Access] {
        match self.spilled.is_empty() {
            true => &self.inline[..self.len],
            false => &self.spilled,
        }
    }
}

impl std::fmt::Debug for Accesses {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Accesses {
    type Item = Access;
    type IntoIter = AccessIter;

    fn into_iter(self) -> AccessIter {
        AccessIter {
            list: self,
            next: 0,
        }
    }
}

/// An [`Accesses`] list by value, in order.
#[derive(Debug, Clone)]
pub struct AccessIter {
    list: Accesses,
    next: usize,
}

impl Iterator for AccessIter {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let a = *self.list.get(self.next)?;
        self.next += 1;
        Some(a)
    }
}

impl Transaction {
    /// Number of distinct shards the transaction accesses (the paper's
    /// per-transaction `k`).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.subs.len()
    }

    /// Destination shards, ascending.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> + Clone + '_ {
        self.subs.iter().map(|s| s.dest)
    }

    /// The access list the conflict relation reads: one `(account,
    /// kind)` per part — a condition reads, an action writes — sorted and
    /// deduplicated. Derived from the subs on every call, without a heap
    /// block up to [`INLINE_ACCESSES`] parts.
    pub fn accesses(&self) -> Accesses {
        let parts = self
            .subs
            .iter()
            .map(|s| s.conditions().len() + s.actions().len());
        let each = self.subs.iter().flat_map(|s| {
            let read = |c: &Condition| Access {
                account: c.account,
                kind: AccessKind::Read,
            };
            let write = |a: &Action| Access {
                account: a.account,
                kind: AccessKind::Write,
            };
            s.conditions()
                .iter()
                .map(read)
                .chain(s.actions().iter().map(write))
        });
        Accesses::of(parts.sum(), each)
    }

    /// The account of every part, sub by sub, repeats kept.
    pub fn accounts(&self) -> impl Iterator<Item = AccountId> + '_ {
        self.subs.iter().flat_map(|s| {
            let reads = s.conditions().iter().map(|c| c.account);
            reads.chain(s.actions().iter().map(|a| a.account))
        })
    }

    /// Approximate wire size in bytes (header plus all subtransactions).
    pub fn approx_bytes(&self) -> usize {
        24 + self
            .subs
            .iter()
            .map(SubTransaction::approx_bytes)
            .sum::<usize>()
    }

    /// True when the transaction writes `account`.
    pub fn writes(&self, account: AccountId) -> bool {
        let mut actions = self.subs.iter().flat_map(SubTransaction::actions);
        actions.any(|a| a.account == account)
    }

    /// True when the transaction reads or writes `account`.
    pub fn touches(&self, account: AccountId) -> bool {
        self.accounts().any(|a| a == account)
    }

    /// The conflict predicate of Section 3: `self` and `other` conflict iff
    /// they access a common account and at least one of the two accesses is
    /// a write. Linear-time merge over the two sorted access lists.
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        let (a, b) = (&self.accesses(), &other.accesses());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].account.cmp(&b[j].account) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let acct = a[i].account;
                    // Scan the run of accesses to `acct` on both sides.
                    let mut wa = false;
                    while i < a.len() && a[i].account == acct {
                        wa |= a[i].kind == AccessKind::Write;
                        i += 1;
                    }
                    let mut wb = false;
                    while j < b.len() && b[j].account == acct {
                        wb |= b[j].kind == AccessKind::Write;
                        j += 1;
                    }
                    if wa || wb {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Rebuilds the per-shard split under a different placement map —
    /// the live-migration path: a transaction built (or last grouped)
    /// under an older vnode table is regrouped so every condition and
    /// action lands on its *current* owner. Id, home, generation round,
    /// and the access list are preserved; only the sub boundaries move.
    /// Regrouping under the map that produced the split is the
    /// identity, and the result always satisfies the same `k_max` the
    /// original did (distinct destinations never exceed distinct
    /// accounts).
    pub fn regrouped(&self, map: &AccountMap) -> Transaction {
        let tag = |account| map.owner_unchecked(account);
        let conditions: Vec<_> = self
            .subs
            .iter()
            .flat_map(SubTransaction::conditions)
            .map(|c| (tag(c.account), *c))
            .collect();
        let actions: Vec<_> = self
            .subs
            .iter()
            .flat_map(SubTransaction::actions)
            .map(|a| (tag(a.account), *a))
            .collect();
        Transaction::from_parts(self.id, self.home, self.generated, &conditions, &actions)
            .expect("a transaction has at least one part")
    }

    /// The one grouping routine: splits `conditions` and `actions`, each
    /// tagged with the shard that owns its account, into per-shard
    /// subtransactions exactly as the home shard does in the paper.
    /// Conditions are filed first, then actions, each in the given
    /// order, so a sub's lists keep the caller's order.
    ///
    /// Costs one allocation — `subs` at its exact length — while every
    /// sub holds one part, as under each checked-in shape (its accounts
    /// sit on distinct shards), transfers aside: a payer's check and debit
    /// take one more. Any other sub of two or more parts boxes its two
    /// lists, and each further part re-files its kind's list in a new
    /// exact-fit block.
    pub fn from_parts(
        id: TxnId,
        home: ShardId,
        generated: Round,
        conditions: &[(ShardId, Condition)],
        actions: &[(ShardId, Action)],
    ) -> Result<Transaction> {
        if conditions.is_empty() && actions.is_empty() {
            return Err(Error::EmptyTransaction(id));
        }
        let dests = || {
            let conditions = conditions.iter().map(|p| p.0);
            conditions.chain(actions.iter().map(|p| p.0))
        };
        // A destination counts where it first appears (k is small).
        let distinct = dests()
            .enumerate()
            .filter(|&(i, d)| !dests().take(i).any(|e| e == d))
            .count();
        let mut subs: Vec<SubTransaction> = Vec::with_capacity(distinct);
        for &(dest, c) in conditions {
            sub_for(&mut subs, id, dest).push_condition(c);
        }
        for &(dest, a) in actions {
            sub_for(&mut subs, id, dest).push_action(a);
        }
        Ok(Transaction {
            id,
            home,
            generated,
            subs,
        })
    }

    /// Checks the structural invariants; used by tests and debug assertions.
    pub fn validate(&self, k_max: usize) -> Result<()> {
        if self.accounts().next().is_none() {
            return Err(Error::EmptyTransaction(self.id));
        }
        if self.subs.len() > k_max {
            return Err(Error::TooManyShards {
                txn: self.id,
                touched: self.subs.len(),
                k_max,
            });
        }
        if !self.subs.windows(2).all(|w| w[0].dest < w[1].dest) {
            return Err(Error::InvariantViolation {
                reason: format!("{}: subtransactions not sorted/distinct by shard", self.id),
            });
        }
        Ok(())
    }
}

/// The sub of `txn` destined for `dest`, opened in place if this is its
/// first part; `subs` stays sorted by destination.
fn sub_for(subs: &mut Vec<SubTransaction>, txn: TxnId, dest: ShardId) -> &mut SubTransaction {
    let at = subs
        .iter()
        .position(|s| s.dest >= dest)
        .unwrap_or(subs.len());
    if subs.get(at).is_none_or(|s| s.dest != dest) {
        subs.insert(at, SubTransaction::new(txn, dest, &[], &[]));
    }
    &mut subs[at]
}

/// Builder that groups reads/writes by owning shard into subtransactions.
#[derive(Debug)]
pub struct TxnBuilder<'m> {
    id: TxnId,
    home: ShardId,
    generated: Round,
    map: &'m AccountMap,
    /// Parts in call order; `build` fills in each owner.
    conditions: Vec<(ShardId, Condition)>,
    actions: Vec<(ShardId, Action)>,
}

impl<'m> TxnBuilder<'m> {
    /// Starts a transaction injected at `home` during `generated`.
    pub fn new(id: TxnId, home: ShardId, generated: Round, map: &'m AccountMap) -> Self {
        TxnBuilder {
            id,
            home,
            generated,
            map,
            conditions: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Adds a condition check (a read).
    pub fn check(mut self, account: AccountId, min_balance: u64) -> Self {
        let condition = Condition {
            account,
            min_balance,
        };
        self.conditions.push((ShardId(0), condition));
        self
    }

    /// Adds a main action (a write).
    pub fn update(mut self, account: AccountId, delta: i64) -> Self {
        self.actions.push((ShardId(0), Action { account, delta }));
        self
    }

    /// Finalizes the transaction, splitting into per-shard subtransactions
    /// exactly as the home shard does in the paper.
    pub fn build(mut self) -> Result<Transaction> {
        for (dest, c) in &mut self.conditions {
            *dest = self.map.owner(c.account)?;
        }
        for (dest, a) in &mut self.actions {
            *dest = self.map.owner(a.account)?;
        }
        Transaction::from_parts(
            self.id,
            self.home,
            self.generated,
            &self.conditions,
            &self.actions,
        )
    }
}

impl Transaction {
    /// Convenience constructor: the paper's Example 1 — transfer `amount`
    /// from `from` to `to`, with a witness condition on `witness`.
    pub fn transfer(
        id: TxnId,
        home: ShardId,
        generated: Round,
        map: &AccountMap,
        from: AccountId,
        to: AccountId,
        amount: u64,
    ) -> Result<Transaction> {
        TxnBuilder::new(id, home, generated, map)
            .check(from, amount)
            .update(from, -(amount as i64))
            .update(to, amount as i64)
            .build()
    }

    /// Synthetic constructor used by the simulation workloads: write one
    /// designated account on each of the given shards (the paper's setup
    /// has one account per shard, so "accessing a shard" and "writing its
    /// account" coincide). `shard_accounts` picks the account to write on
    /// each shard — the first account owned by the shard.
    pub fn writing_shards(
        id: TxnId,
        home: ShardId,
        generated: Round,
        map: &AccountMap,
        shards: &[ShardId],
    ) -> Result<Transaction> {
        let mut b = TxnBuilder::new(id, home, generated, map);
        for &s in shards {
            let acct = map.accounts_of(s).first().ok_or(Error::UnknownShard(s))?;
            b = b.update(acct, 1);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccountMap, SystemConfig};
    use crate::rngutil::seeded_rng;
    use rand::Rng as _;
    use std::collections::BTreeMap;

    fn setup() -> (SystemConfig, AccountMap) {
        let cfg = SystemConfig {
            shards: 4,
            accounts: 8,
            ..SystemConfig::tiny()
        };
        let map = AccountMap::round_robin(&cfg);
        (cfg, map)
    }

    #[test]
    fn builder_groups_by_shard() {
        let (_, map) = setup();
        // accounts 0..8 round robin over 4 shards: 0->S0, 1->S1, 4->S0, 5->S1
        let t = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
            .check(AccountId(0), 100)
            .update(AccountId(4), -5)
            .update(AccountId(1), 5)
            .build()
            .unwrap();
        assert_eq!(t.shard_count(), 2);
        let shards: Vec<_> = t.shards().collect();
        assert_eq!(shards, vec![ShardId(0), ShardId(1)]);
        let s0 = &t.subs[0];
        assert_eq!(s0.conditions().len(), 1);
        assert_eq!(s0.actions().len(), 1);
        t.validate(4).unwrap();
    }

    #[test]
    fn example1_transfer_shape() {
        let (_, map) = setup();
        let t = Transaction::transfer(
            TxnId(7),
            ShardId(2),
            Round(5),
            &map,
            AccountId(0),
            AccountId(1),
            1000,
        )
        .unwrap();
        assert_eq!(t.home, ShardId(2));
        assert_eq!(t.generated, Round(5));
        assert!(t.writes(AccountId(0)));
        assert!(t.writes(AccountId(1)));
        assert!(t.touches(AccountId(0)));
        assert!(!t.touches(AccountId(3)));
    }

    #[test]
    fn write_write_conflict() {
        let (_, map) = setup();
        let a = Transaction::writing_shards(
            TxnId(1),
            ShardId(0),
            Round::ZERO,
            &map,
            &[ShardId(0), ShardId(1)],
        )
        .unwrap();
        let b = Transaction::writing_shards(
            TxnId(2),
            ShardId(1),
            Round::ZERO,
            &map,
            &[ShardId(1), ShardId(2)],
        )
        .unwrap();
        let c = Transaction::writing_shards(
            TxnId(3),
            ShardId(2),
            Round::ZERO,
            &map,
            &[ShardId(2), ShardId(3)],
        )
        .unwrap();
        assert!(a.conflicts_with(&b), "share S1's account");
        assert!(b.conflicts_with(&a), "symmetric");
        assert!(!a.conflicts_with(&c), "disjoint shards");
    }

    #[test]
    fn read_read_does_not_conflict() {
        let (_, map) = setup();
        let a = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
            .check(AccountId(0), 1)
            .update(AccountId(1), 1)
            .build()
            .unwrap();
        let b = TxnBuilder::new(TxnId(2), ShardId(0), Round::ZERO, &map)
            .check(AccountId(0), 2)
            .update(AccountId(2), 1)
            .build()
            .unwrap();
        assert!(!a.conflicts_with(&b), "both only read account 0");
    }

    #[test]
    fn read_write_conflicts() {
        let (_, map) = setup();
        let reader = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
            .check(AccountId(0), 1)
            .update(AccountId(5), 1)
            .build()
            .unwrap();
        let writer = TxnBuilder::new(TxnId(2), ShardId(0), Round::ZERO, &map)
            .update(AccountId(0), 3)
            .build()
            .unwrap();
        assert!(reader.conflicts_with(&writer));
        assert!(writer.conflicts_with(&reader));
    }

    #[test]
    fn empty_txn_rejected() {
        let (_, map) = setup();
        let r = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map).build();
        assert!(matches!(r, Err(Error::EmptyTransaction(_))));
    }

    #[test]
    fn k_violation_detected_by_validate() {
        let (_, map) = setup();
        let t = Transaction::writing_shards(
            TxnId(1),
            ShardId(0),
            Round::ZERO,
            &map,
            &[ShardId(0), ShardId(1), ShardId(2)],
        )
        .unwrap();
        assert!(t.validate(3).is_ok());
        assert!(matches!(t.validate(2), Err(Error::TooManyShards { .. })));
    }

    #[test]
    fn self_conflict_when_writing() {
        let (_, map) = setup();
        let t = Transaction::writing_shards(TxnId(1), ShardId(0), Round::ZERO, &map, &[ShardId(0)])
            .unwrap();
        assert!(
            t.conflicts_with(&t),
            "a writer conflicts with itself (used as sanity)"
        );
    }

    #[test]
    fn regroup_under_same_map_is_identity() {
        let (_, map) = setup();
        let t = TxnBuilder::new(TxnId(9), ShardId(3), Round(2), &map)
            .check(AccountId(0), 10)
            .update(AccountId(4), -5)
            .update(AccountId(1), 5)
            .build()
            .unwrap();
        assert_eq!(t.regrouped(&map), t);
    }

    #[test]
    fn regroup_follows_ownership_moves() {
        let (cfg, map) = setup();
        let t = TxnBuilder::new(TxnId(9), ShardId(0), Round(2), &map)
            .check(AccountId(0), 10)
            .update(AccountId(0), -5)
            .update(AccountId(1), 5)
            .build()
            .unwrap();
        assert_eq!(t.shard_count(), 2, "accounts 0,1 on shards 0,1");
        // Move every account onto shard 2 and regroup: one sub, all
        // parts intact, metadata untouched.
        let owner = vec![ShardId(2); cfg.accounts];
        let moved = AccountMap::from_owners(owner, cfg.shards);
        let r = t.regrouped(&moved);
        assert_eq!(r.id, t.id);
        assert_eq!(r.home, t.home);
        assert_eq!(r.generated, t.generated);
        assert_eq!(r.accesses()[..], t.accesses()[..]);
        assert_eq!(r.shard_count(), 1);
        assert_eq!(r.subs[0].dest, ShardId(2));
        assert_eq!(r.subs[0].conditions().len(), 1);
        assert_eq!(r.subs[0].actions().len(), 2);
        r.validate(2).unwrap();
    }

    #[test]
    fn duplicate_accesses_deduped() {
        let (_, map) = setup();
        let t = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
            .update(AccountId(0), 1)
            .update(AccountId(0), 2)
            .build()
            .unwrap();
        assert_eq!(t.accesses().len(), 1);
        // Both actions are still applied even though accesses deduped.
        assert_eq!(t.subs[0].actions().len(), 2);
    }

    /// The grouping `from_parts` replaced, kept as the oracle: a tree map
    /// keyed by destination, conditions filed before actions.
    type Grouped = BTreeMap<ShardId, (Vec<Condition>, Vec<Action>)>;

    fn oracle(
        map: &AccountMap,
        checks: &[Condition],
        updates: &[Action],
    ) -> (Grouped, Vec<Access>) {
        let mut per_shard = Grouped::new();
        let mut accesses = Vec::new();
        for c in checks {
            let dest = map.owner(c.account).unwrap();
            per_shard.entry(dest).or_default().0.push(*c);
            accesses.push(Access {
                account: c.account,
                kind: AccessKind::Read,
            });
        }
        for a in updates {
            let dest = map.owner(a.account).unwrap();
            per_shard.entry(dest).or_default().1.push(*a);
            accesses.push(Access {
                account: a.account,
                kind: AccessKind::Write,
            });
        }
        accesses.sort_unstable();
        accesses.dedup();
        (per_shard, accesses)
    }

    #[test]
    fn build_matches_the_tree_map_oracle_and_allocates_subs_exactly() {
        let cfg = SystemConfig {
            shards: 5,
            accounts: 12,
            ..SystemConfig::tiny()
        };
        let map = AccountMap::random(&cfg, 3);
        let mut rng = seeded_rng(20);
        for case in 0..500u64 {
            // Twelve accounts over five shards and up to six parts of
            // each kind: owners and accounts both repeat.
            let checks: Vec<Condition> = (0..rng.gen_range(0..=6))
                .map(|_| Condition {
                    account: AccountId(rng.gen_range(0..12)),
                    min_balance: rng.gen_range(0..3),
                })
                .collect();
            let updates: Vec<Action> = (0..rng.gen_range(0..=6))
                .map(|_| Action {
                    account: AccountId(rng.gen_range(0..12)),
                    delta: rng.gen_range(-2..3),
                })
                .collect();
            let mut b = TxnBuilder::new(TxnId(case), ShardId(1), Round(case), &map);
            // Interleave the calls: only the order within a kind matters.
            let (mut c, mut u) = (checks.iter(), updates.iter());
            loop {
                match (c.next(), u.next()) {
                    (None, None) => break,
                    (check, update) => {
                        if let Some(a) = update {
                            b = b.update(a.account, a.delta);
                        }
                        if let Some(c) = check {
                            b = b.check(c.account, c.min_balance);
                        }
                    }
                }
            }
            let built = b.build();
            if checks.is_empty() && updates.is_empty() {
                assert!(matches!(built, Err(Error::EmptyTransaction(_))));
                continue;
            }
            let t = built.unwrap();
            let (per_shard, accesses) = oracle(&map, &checks, &updates);
            assert_eq!(&t.accesses()[..], accesses.as_slice());
            assert_eq!(t.subs.len(), per_shard.len());
            for (sub, (dest, (conditions, actions))) in t.subs.iter().zip(&per_shard) {
                assert_eq!((sub.txn, sub.dest), (t.id, *dest));
                assert_eq!(sub.conditions(), conditions.as_slice());
                assert_eq!(sub.actions(), actions.as_slice());
            }
            assert_eq!(t.subs.capacity(), t.subs.len(), "no spare capacity");
            t.validate(5).unwrap();
            let again = t.regrouped(&map);
            assert_eq!(again, t, "regrouping under the producing map");
            assert_eq!(again.subs.capacity(), again.subs.len());
        }
    }

    /// Drives a sub and two `Vec`s with the same interleaved pushes
    /// across every form's boundary; every observable agrees at each
    /// step, and which form holds the parts is never observable.
    #[test]
    fn parts_agree_with_two_vecs_under_any_interleaving() {
        let mut rng = seeded_rng(20);
        for case in 0..300u64 {
            let (txn, dest) = (TxnId(case), ShardId(rng.gen_range(0..4)));
            let mut sub = SubTransaction::new(txn, dest, &[], &[]);
            let (mut conditions, mut actions) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(0..=6) {
                let account = AccountId(rng.gen_range(0..4));
                if rng.gen_bool(0.5) {
                    let c = Condition {
                        account,
                        min_balance: rng.gen_range(0..9),
                    };
                    sub.push_condition(c);
                    conditions.push(c);
                } else {
                    let a = Action {
                        account,
                        delta: rng.gen_range(-9..9),
                    };
                    sub.push_action(a);
                    actions.push(a);
                }
                assert_eq!(sub.conditions(), conditions.as_slice());
                assert_eq!(sub.actions(), actions.as_slice());
                let parts = conditions.len() + actions.len();
                assert_eq!(sub.approx_bytes(), 12 + 16 * parts);
                assert_eq!(sub.is_inline(), parts <= 1);
                assert_eq!(sub.clone(), sub);
                // Conditions first, then actions: another push order,
                // the same lists.
                let filed = SubTransaction::new(txn, dest, &conditions, &actions);
                assert_eq!(filed, sub);
                let shown = format!(
                    "SubTransaction {{ txn: {txn:?}, dest: {dest:?}, \
                     conditions: {conditions:?}, actions: {actions:?} }}"
                );
                assert_eq!(format!("{sub:?}"), shown);
                assert_eq!(format!("{filed:?}"), shown);
                // A chain keeps the id and both lists, and no destination.
                let kept = sub.clone().into_committed();
                assert_eq!(kept.txn, txn);
                assert_eq!(kept.conditions(), conditions.as_slice());
                assert_eq!(kept.actions(), actions.as_slice());
                assert_eq!(kept, filed.clone().into_committed());
                assert_eq!(
                    format!("{kept:?}"),
                    format!(
                        "CommittedSub {{ txn: {txn:?}, conditions: {conditions:?}, \
                         actions: {actions:?} }}"
                    )
                );
                let mut longer = sub.clone();
                longer.push_action(Action { account, delta: 0 });
                assert_ne!(longer, sub);
                assert_ne!(
                    SubTransaction::new(TxnId(case + 1), dest, &conditions, &actions),
                    sub
                );
            }
        }
    }

    /// The access list a transaction stored before it was derived: one
    /// entry per part, sorted and deduplicated when the transaction was
    /// built.
    fn stored_recipe(checks: &[Condition], updates: &[Action]) -> Vec<Access> {
        let reads = checks.iter().map(|c| Access {
            account: c.account,
            kind: AccessKind::Read,
        });
        let writes = updates.iter().map(|a| Access {
            account: a.account,
            kind: AccessKind::Write,
        });
        let mut stored: Vec<Access> = reads.chain(writes).collect();
        stored.sort_unstable();
        stored.dedup();
        stored
    }

    /// `accesses()`, `writes()`, `touches()` and `conflicts_with()`
    /// against the stored recipe, on transactions of 1–24 parts over six
    /// accounts — so one transaction reads and writes an account, parts
    /// repeat, and the list both fits in place and spills to the heap —
    /// as built and regrouped under another placement.
    #[test]
    fn derived_accesses_match_the_stored_recipe() {
        let cfg = SystemConfig {
            shards: 4,
            accounts: 6,
            ..SystemConfig::tiny()
        };
        let (map, moved) = (AccountMap::random(&cfg, 1), AccountMap::random(&cfg, 2));
        let mut rng = seeded_rng(39);
        let (mut spilled, mut read_and_written) = (0, 0);
        let mut previous: Option<(Transaction, Vec<Access>)> = None;
        for case in 0..400u64 {
            let mut b = TxnBuilder::new(TxnId(case), ShardId(0), Round(case), &map);
            let (mut checks, mut updates) = (Vec::new(), Vec::new());
            let parts = rng.gen_range(1..=24usize);
            for _ in 0..parts {
                let account = AccountId(rng.gen_range(0..6));
                if rng.gen_bool(0.4) {
                    checks.push(Condition {
                        account,
                        min_balance: 1,
                    });
                    b = b.check(account, 1);
                } else {
                    updates.push(Action { account, delta: 1 });
                    b = b.update(account, 1);
                }
            }
            let built = b.build().unwrap();
            let stored = stored_recipe(&checks, &updates);
            spilled += usize::from(parts > INLINE_ACCESSES);
            read_and_written +=
                usize::from(stored.windows(2).any(|w| w[0].account == w[1].account));
            for t in [built.regrouped(&moved), built] {
                assert_eq!(&t.accesses()[..], stored.as_slice(), "case {case}");
                let by_value: Vec<Access> = t.accesses().into_iter().collect();
                assert_eq!(by_value, stored, "case {case}");
                for account in (0..6).map(AccountId) {
                    let write = Access {
                        account,
                        kind: AccessKind::Write,
                    };
                    let touched = stored.iter().any(|a| a.account == account);
                    assert_eq!(t.writes(account), stored.binary_search(&write).is_ok());
                    assert_eq!(t.touches(account), touched);
                }
                if let Some((other, theirs)) = &previous {
                    let conflict = stored.iter().any(|a| {
                        theirs.iter().any(|b| {
                            a.account == b.account
                                && (a.kind == AccessKind::Write || b.kind == AccessKind::Write)
                        })
                    });
                    assert_eq!(t.conflicts_with(other), conflict, "case {case}");
                    assert_eq!(other.conflicts_with(&t), conflict, "case {case}");
                }
                previous = Some((t, stored.clone()));
            }
        }
        assert!(
            spilled > 50 && read_and_written > 100,
            "{spilled} {read_and_written}"
        );
    }

    #[test]
    fn unknown_account_is_reported_conditions_first() {
        let (_, map) = setup();
        let r = TxnBuilder::new(TxnId(1), ShardId(0), Round::ZERO, &map)
            .update(AccountId(70), 1)
            .check(AccountId(80), 1)
            .build();
        assert_eq!(r, Err(Error::UnknownAccount(AccountId(80))));
    }
}
