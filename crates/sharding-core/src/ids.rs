//! Strongly-typed identifiers.
//!
//! Every entity in the system gets a newtype wrapper so that a shard index
//! can never be confused with an account index or a round number. All ids
//! are cheap `Copy` types with stable `Ord` so they can key `BTreeMap`s and
//! be sorted deterministically (the paper's schedulers rely on
//! deterministic, identical orderings at every shard).

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw inner value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Returns the value as a `usize` index (for table lookups).
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<$name> for $inner {
            #[inline]
            fn from(v: $name) -> $inner {
                v.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifier of a shard, `S_1 … S_s` in the paper. Zero-based here.
    ShardId,
    u32,
    "S"
);

id_newtype!(
    /// Identifier of a shared account/object, an element of `O` in the paper.
    AccountId,
    u64,
    "a"
);

id_newtype!(
    /// Identifier of a transaction. Globally unique within a run; ids are
    /// assigned in generation order so sorting by id is FIFO order.
    TxnId,
    u64,
    "T"
);

/// A discrete round of the synchronous execution.
///
/// The paper defines a round as the time to run intra-shard PBFT consensus
/// once, which is also the time to deliver a message across a unit-distance
/// edge. Rounds are totally ordered and support saturating arithmetic so
/// schedulers can compute deadlines without overflow panics in release mode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Round(pub u64);

impl Round {
    /// Round zero, the start of every execution.
    pub const ZERO: Round = Round(0);

    /// Returns the raw round number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The round `n` steps later.
    #[inline]
    pub const fn plus(self, n: u64) -> Round {
        Round(self.0.saturating_add(n))
    }

    /// The next round.
    #[inline]
    pub const fn next(self) -> Round {
        self.plus(1)
    }

    /// Number of rounds elapsed since `earlier` (saturating at zero).
    #[inline]
    pub const fn since(self, earlier: Round) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl From<u64> for Round {
    #[inline]
    fn from(v: u64) -> Self {
        Round(v)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::ops::Add<u64> for Round {
    type Output = Round;
    #[inline]
    fn add(self, rhs: u64) -> Round {
        self.plus(rhs)
    }
}

impl std::ops::Sub<Round> for Round {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Round) -> u64 {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_id_roundtrip() {
        let s = ShardId::from(7u32);
        assert_eq!(s.raw(), 7);
        assert_eq!(s.index(), 7);
        assert_eq!(u32::from(s), 7);
        assert_eq!(format!("{s}"), "S7");
        assert_eq!(format!("{s:?}"), "S7");
    }

    #[test]
    fn txn_id_ordering_is_fifo() {
        let a = TxnId(1);
        let b = TxnId(2);
        assert!(a < b);
        let mut v = vec![b, a];
        v.sort();
        assert_eq!(v, vec![a, b]);
    }

    #[test]
    fn round_arithmetic() {
        let r = Round::ZERO;
        assert_eq!(r.next(), Round(1));
        assert_eq!(r.plus(10), Round(10));
        assert_eq!(Round(10).since(Round(3)), 7);
        assert_eq!(Round(3).since(Round(10)), 0, "saturating");
        assert_eq!(Round(5) + 2, Round(7));
        assert_eq!(Round(9) - Round(4), 5);
    }

    #[test]
    fn round_saturates_at_max() {
        let r = Round(u64::MAX);
        assert_eq!(r.next(), Round(u64::MAX));
    }

    #[test]
    fn ids_key_maps_deterministically() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(ShardId(2), "b");
        m.insert(ShardId(1), "a");
        let keys: Vec<_> = m.keys().copied().collect();
        assert_eq!(keys, vec![ShardId(1), ShardId(2)]);
    }

    #[test]
    fn serde_markers_and_display() {
        // The vendored serde stub exposes marker traits only (there is no
        // offline serde_json to roundtrip through), so assert at compile
        // time that every id type derives both markers — a real backend can
        // then be dropped in without touching this crate.
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<ShardId>();
        assert_serde::<AccountId>();
        assert_serde::<TxnId>();
        assert_serde::<Round>();
        // The human-readable forms are part of the de-facto trace format.
        assert_eq!(Round(42).to_string(), "r42");
        assert_eq!(TxnId(9).to_string(), "T9");
        assert_eq!(ShardId(3).to_string(), "S3");
    }
}
