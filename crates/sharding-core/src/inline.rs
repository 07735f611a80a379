//! An inline-first sequence: zero or one element stored in place, a
//! heap `Vec` beyond.
//!
//! Every checked-in workload puts at most one condition and at most one
//! action on a shard, so the per-subtransaction lists of
//! [`SubTransaction`](crate::txn::SubTransaction) almost never need a
//! heap block of their own. [`InlineVec`] is the size of a `Vec` (the
//! discriminant lives in `Vec`'s capacity niche), reads as a slice, and
//! compares and prints *through* the slice — which representation holds
//! the elements is never observable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A sequence that allocates only from its second element on.
#[derive(Clone)]
pub struct InlineVec<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Empty,
    /// Stored in place.
    One(T),
    /// On the heap; any length.
    Many(Vec<T>),
}

impl<T> InlineVec<T> {
    /// The empty sequence.
    pub const fn new() -> Self {
        InlineVec(Repr::Empty)
    }

    /// Appends `value`. The second push moves both elements to the heap.
    pub fn push(&mut self, value: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Empty) {
            Repr::Empty => Repr::One(value),
            Repr::One(first) => Repr::Many(vec![first, value]),
            Repr::Many(mut v) => {
                v.push(value);
                Repr::Many(v)
            }
        }
    }
}

impl<T> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T> Deref for InlineVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(x) => std::slice::from_ref(x),
            Repr::Many(v) => v,
        }
    }
}

impl<T> DerefMut for InlineVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::One(x) => std::slice::from_mut(x),
            Repr::Many(v) => v,
        }
    }
}

impl<T> From<Vec<T>> for InlineVec<T> {
    /// Keeps a vector of two or more as it is; shorter ones move inline
    /// and the vector's block is freed.
    fn from(mut v: Vec<T>) -> Self {
        InlineVec(match v.len() {
            0 => Repr::Empty,
            1 => Repr::One(v.pop().expect("one element")),
            _ => Repr::Many(v),
        })
    }
}

impl<'a, T> IntoIterator for &'a InlineVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for InlineVec<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for InlineVec<T> {}

impl<T: fmt::Debug> fmt::Debug for InlineVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// The vendored `serde_derive` stub refuses generic types.
impl<T: Serialize> Serialize for InlineVec<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for InlineVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngutil::seeded_rng;
    use rand::Rng as _;

    /// Drives an `InlineVec` and a `Vec` with the same pushes across the
    /// inline → heap boundary; every observable must agree at each step.
    #[test]
    fn agrees_with_vec_under_the_same_pushes() {
        let mut rng = seeded_rng(20);
        for _ in 0..200 {
            let len = rng.gen_range(0..=5usize);
            let (mut inline, mut vec) = (InlineVec::new(), Vec::new());
            for step in 0..=len {
                assert_eq!(&*inline, vec.as_slice());
                assert_eq!(inline.len(), step);
                assert_eq!(inline.is_empty(), vec.is_empty());
                assert_eq!(format!("{inline:?}"), format!("{vec:?}"));
                assert_eq!(format!("{inline:#?}"), format!("{vec:#?}"));
                assert_eq!(inline.clone(), inline);
                assert_eq!(InlineVec::from(vec.clone()), inline);
                assert_eq!(
                    (&inline).into_iter().collect::<Vec<_>>(),
                    vec.iter().collect::<Vec<_>>()
                );
                if step < len {
                    let x: u32 = rng.gen_range(0..4);
                    inline.push(x);
                    vec.push(x);
                }
            }
            if len > 0 {
                let at = rng.gen_range(0..len);
                inline[at] = 99;
                vec[at] = 99;
                assert_eq!(&*inline, vec.as_slice(), "IndexMut through the slice");
            }
        }
    }

    #[test]
    fn representations_are_not_observable() {
        let (one, many) = (InlineVec(Repr::One(7)), InlineVec(Repr::Many(vec![7])));
        assert_eq!(one, many);
        assert_eq!(format!("{one:?}"), format!("{many:?}"));
        assert_eq!(InlineVec::<u8>::new(), InlineVec(Repr::Many(Vec::new())));
        assert_ne!(one, InlineVec(Repr::Many(vec![7, 7])));
        assert!(matches!(InlineVec::from(vec![7]).0, Repr::One(7)));
        assert!(matches!(InlineVec::<u8>::from(vec![]).0, Repr::Empty));
    }

    #[test]
    fn heap_block_is_exact_at_two_and_on_clone() {
        let mut v = InlineVec::new();
        v.push(1u64);
        v.push(2);
        let Repr::Many(heap) = &v.0 else {
            panic!("two elements live on the heap");
        };
        assert_eq!(heap.capacity(), 2);
        v.push(3);
        let Repr::Many(heap) = v.clone().0 else {
            panic!("three elements live on the heap");
        };
        assert_eq!(heap.capacity(), 3, "a clone carries no spare capacity");
    }
}
