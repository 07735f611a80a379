//! Hash maps keyed by small integers (`TxnId`, `ShardId`, `AccountId`):
//! the protocol nodes' per-transaction state and a shard ledger's moved
//! balances share this one hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for small-integer keys. The default SipHash
/// shows up in the per-round profiles; these maps are internal (no
/// untrusted keys), so a one-multiply Fibonacci-style mix is plenty.
/// Deterministic — but no map built on it is ever iterated for its order
/// anyway.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

/// A `HashMap` over [`IntHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
/// A `HashSet` over [`IntHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
