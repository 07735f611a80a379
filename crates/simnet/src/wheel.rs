//! The delay wheel: where a message waits between its send and its
//! delivery round, under both transports — [`crate::Network`] files every
//! message in one, and each of the threaded runtime's inboxes parks what
//! it took from its mailbox ahead of time in its own.

use std::collections::VecDeque;

/// A ring of per-round buffers, so filing an item is an index and a
/// round's delivery takes one buffer — no tree node allocated and freed
/// per round. The ring is as long as the span of rounds with something
/// waiting: the metric's diameter under a host that delivers every round.
/// A round nobody takes keeps its items until it is asked for.
pub struct Wheel<T> {
    /// `slots[i]` holds what is due at round `base + i`. Empty, or the
    /// front slot is non-empty — so `base` is the earliest round due.
    slots: VecDeque<Vec<T>>,
    base: u64,
    /// Emptied buffers handed back, reused by the next slot that
    /// receives its first item.
    spare: Vec<Vec<T>>,
}

impl<T> Default for Wheel<T> {
    fn default() -> Self {
        Wheel {
            slots: VecDeque::new(),
            base: 0,
            spare: Vec::new(),
        }
    }
}

impl<T> Wheel<T> {
    /// Spare buffers kept. A host hands one back a round and a slot
    /// takes one only with its first item, so a longer list would only
    /// ever hold memory.
    const SPARES: usize = 4;

    /// The slot of `round`, for the caller to push into: the ring
    /// extends to reach it, backwards when `round` precedes the front.
    pub fn slot_mut(&mut self, round: u64) -> &mut Vec<T> {
        if self.slots.is_empty() {
            self.base = round;
        }
        while round < self.base {
            self.slots.push_front(Vec::new());
            self.base -= 1;
        }
        let i = (round - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Vec::new);
        }
        let slot = &mut self.slots[i];
        if slot.capacity() == 0 {
            *slot = self.spare.pop().unwrap_or_default();
        }
        slot
    }

    /// Removes and returns the contents of `round`'s slot, then drops
    /// the slots that leaves empty at the front.
    pub fn take(&mut self, round: u64) -> Vec<T> {
        let slot = round.checked_sub(self.base);
        let Some(slot) = slot.and_then(|i| self.slots.get_mut(i as usize)) else {
            return Vec::new();
        };
        let taken = std::mem::take(slot);
        while self.slots.front().is_some_and(Vec::is_empty) {
            self.slots.pop_front();
            self.base += 1;
        }
        taken
    }

    /// Hands a buffer [`Wheel::take`] returned back, emptied, so a later
    /// slot reuses its allocation.
    pub fn recycle(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() > 0 && self.spare.len() < Self::SPARES {
            self.spare.push(buf);
        }
    }

    /// Items waiting, over all rounds.
    pub fn pending(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// The earliest round with something waiting (`None` when empty).
    pub fn earliest(&self) -> Option<u64> {
        (!self.slots.is_empty()).then_some(self.base)
    }
}
