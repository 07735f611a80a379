//! Inter-shard message passing with metric delays.
//!
//! Shards communicate over the weighted clique `G_s`. A message from `S_i`
//! to `S_j` sent at round `r` arrives at round `r + d(S_i, S_j)`; in the
//! uniform model every distance is 1, matching "any shard can send or
//! receive information within one round". Delivery within a round is
//! deterministic: messages are handed out sorted by (destination, sender,
//! sequence), so simulations are bit-reproducible. Sequence numbers are
//! **per sender** — the tie-break depends only on each sender's own send
//! order, never on how sends from different shards interleave, which is
//! what lets the concurrent networked runtime reproduce the simulator's
//! delivery order exactly.
//!
//! An optional [`FaultPlan`] makes the network lossy: each directed link
//! consumes one deterministic ChaCha draw per message to decide
//! deliver/drop/duplicate (see [`crate::faults`]).

use crate::faults::{FaultDecision, FaultPlan, LinkBank};
use cluster::ShardMetric;
use sharding_core::{Round, ShardId};
use std::collections::VecDeque;

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<P> {
    /// Sending shard.
    pub from: ShardId,
    /// Destination shard.
    pub to: ShardId,
    /// Round at which the message was sent.
    pub sent: Round,
    /// Round at which the message is delivered.
    pub deliver_at: Round,
    /// Monotone per-*sender* sequence number (tie-break for determinism;
    /// unique per `(from, seq)` pair).
    pub seq: u64,
    /// Scheduler-defined payload.
    pub payload: P,
}

/// The delay wheel under [`Network`]: a ring of per-round buffers, so
/// filing a message is an index and a round's delivery takes one buffer
/// — no tree node allocated and freed per round. The ring is as long as
/// the span of rounds with something in flight: the metric's diameter
/// under a simulator, which delivers every round.
struct Wheel<T> {
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
    fn slot_mut(&mut self, round: u64) -> &mut Vec<T> {
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
    fn take(&mut self, round: u64) -> Vec<T> {
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

    fn recycle(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() > 0 && self.spare.len() < Self::SPARES {
            self.spare.push(buf);
        }
    }
}

/// The simulated inter-shard network.
///
/// Generic over the payload type so each scheduler defines its own message
/// enum. Not tied to wall-clock: the driving loop calls
/// [`Network::deliver_due`] once per round.
pub struct Network<P> {
    /// Messages by delivery round.
    in_flight: Wheel<Envelope<P>>,
    /// Distance matrix snapshot.
    dist: Vec<u64>,
    shards: usize,
    /// Per-sender sequence counters.
    seq: Vec<u64>,
    sent_count: u64,
    /// Optional payload sizer for byte accounting (the paper bounds the
    /// worst-case message size by `O(bs)`).
    sizer: Option<fn(&P) -> usize>,
    bytes_sent: u64,
    max_message_bytes: u64,
    /// Optional fault plane: one [`LinkBank`] of outgoing streams per
    /// sender (empty when fault-free) — the same per-sender plumbing the
    /// threaded runtime gives each `ShardPort`, so both engines draw the
    /// identical decisions from the identical streams.
    banks: Vec<LinkBank>,
    dropped_count: u64,
    duplicated_count: u64,
}

impl<P> Network<P> {
    /// Builds a network over `metric`.
    pub fn new(metric: &dyn ShardMetric) -> Self {
        let s = metric.shards();
        let mut dist = vec![0u64; s * s];
        for a in 0..s {
            for b in 0..s {
                dist[a * s + b] = metric.distance(ShardId(a as u32), ShardId(b as u32));
            }
        }
        Network {
            in_flight: Wheel::default(),
            dist,
            shards: s,
            seq: vec![0; s],
            sent_count: 0,
            sizer: None,
            bytes_sent: 0,
            max_message_bytes: 0,
            banks: Vec::new(),
            dropped_count: 0,
            duplicated_count: 0,
        }
    }

    /// Enables byte accounting with an estimator for payload sizes.
    pub fn set_sizer(&mut self, sizer: fn(&P) -> usize) {
        self.sizer = Some(sizer);
    }

    /// Enables the fault plane: subsequent sends consult the plan's
    /// per-link streams. Inert plans are ignored.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        if !plan.is_inert() {
            self.banks = (0..self.shards)
                .map(|from| LinkBank::new(&plan, ShardId(from as u32), self.shards))
                .collect();
        }
    }

    /// Messages dropped by the fault plane so far.
    pub fn dropped_count(&self) -> u64 {
        self.dropped_count
    }

    /// Messages duplicated by the fault plane so far.
    pub fn duplicated_count(&self) -> u64 {
        self.duplicated_count
    }

    /// Total payload bytes sent (0 when no sizer is set).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Largest single message payload observed (0 when no sizer is set).
    pub fn max_message_bytes(&self) -> u64 {
        self.max_message_bytes
    }

    /// Distance (in rounds) between two shards.
    #[inline]
    pub fn distance(&self, a: ShardId, b: ShardId) -> u64 {
        self.dist[a.index() * self.shards + b.index()]
    }

    /// Sends `payload` from `from` to `to` at round `now`.
    ///
    /// A message to self is delivered next round (the shard still needs a
    /// consensus round to agree on it); a message across distance `d`
    /// arrives at `now + d`.
    pub fn send(&mut self, from: ShardId, to: ShardId, now: Round, payload: P)
    where
        P: Clone,
    {
        if let Some(sizer) = self.sizer {
            let bytes = sizer(&payload) as u64;
            self.bytes_sent += bytes;
            self.max_message_bytes = self.max_message_bytes.max(bytes);
        }
        self.sent_count += 1;
        let decision = match self.banks.get_mut(from.index()) {
            None => FaultDecision::Deliver,
            Some(bank) => bank.decide(to),
        };
        if decision == FaultDecision::Drop {
            // The sender paid for the message (it counts as sent) but it
            // never enters the delay queue. Its seq is still consumed so
            // the surviving stream matches what the sender emitted.
            self.seq[from.index()] += 1;
            self.dropped_count += 1;
            return;
        }
        let copies = if decision == FaultDecision::Duplicate {
            self.duplicated_count += 1;
            2
        } else {
            1
        };
        let d = self.distance(from, to).max(1);
        let deliver_at = now.plus(d);
        let slot = self.in_flight.slot_mut(deliver_at.raw());
        // Clone only the extra fault-plane duplicates; the common
        // single-copy payload is moved.
        for _ in 1..copies {
            slot.push(Envelope {
                from,
                to,
                sent: now,
                deliver_at,
                seq: self.seq[from.index()],
                payload: payload.clone(),
            });
            self.seq[from.index()] += 1;
        }
        slot.push(Envelope {
            from,
            to,
            sent: now,
            deliver_at,
            seq: self.seq[from.index()],
            payload,
        });
        self.seq[from.index()] += 1;
    }

    /// Broadcasts `payload` from `from` to every shard in `dests`.
    pub fn send_many<I: IntoIterator<Item = ShardId>>(
        &mut self,
        from: ShardId,
        dests: I,
        now: Round,
        payload: P,
    ) where
        P: Clone,
    {
        for to in dests {
            self.send(from, to, now, payload.clone());
        }
    }

    /// Removes and returns all messages due at round `now`, sorted by
    /// (destination, sender, sequence). Exactly that round's: messages
    /// of a round never asked for stay in flight.
    pub fn deliver_due(&mut self, now: Round) -> Vec<Envelope<P>> {
        let mut due = self.in_flight.take(now.raw());
        // `(from, seq)` is unique per envelope, fault-plane duplicates
        // included, so no two keys tie and the unstable sort — in place,
        // where the stable one allocates a scratch half — yields the
        // same order.
        due.sort_unstable_by_key(|e| (e.to, e.from, e.seq));
        due
    }

    /// Hands a drained [`Network::deliver_due`] buffer back so a later
    /// round's slot reuses its allocation.
    pub fn recycle(&mut self, buf: Vec<Envelope<P>>) {
        self.in_flight.recycle(buf);
    }

    /// Number of messages still in flight.
    pub fn pending(&self) -> usize {
        self.in_flight.slots.iter().map(Vec::len).sum()
    }

    /// Total messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.sent_count
    }

    /// The earliest round at which a message is due (None when idle).
    pub fn next_delivery(&self) -> Option<Round> {
        let wheel = &self.in_flight;
        (!wheel.slots.is_empty()).then_some(Round(wheel.base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{LineMetric, UniformMetric};

    #[test]
    fn uniform_delivers_next_round() {
        let m = UniformMetric::new(4);
        let mut n: Network<&'static str> = Network::new(&m);
        n.send(ShardId(0), ShardId(3), Round(5), "hello");
        assert!(n.deliver_due(Round(5)).is_empty());
        let due = n.deliver_due(Round(6));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload, "hello");
        assert_eq!(due[0].sent, Round(5));
        assert_eq!(n.pending(), 0);
    }

    #[test]
    fn line_distance_delays() {
        let m = LineMetric::new(10);
        let mut n: Network<u32> = Network::new(&m);
        n.send(ShardId(0), ShardId(7), Round(0), 1);
        n.send(ShardId(0), ShardId(1), Round(0), 2);
        assert_eq!(n.deliver_due(Round(1)).len(), 1);
        assert!(n.deliver_due(Round(3)).is_empty());
        assert_eq!(n.deliver_due(Round(7)).len(), 1);
    }

    #[test]
    fn self_send_takes_one_round() {
        let m = UniformMetric::new(2);
        let mut n: Network<()> = Network::new(&m);
        n.send(ShardId(1), ShardId(1), Round(10), ());
        assert_eq!(n.deliver_due(Round(11)).len(), 1);
    }

    #[test]
    fn delivery_order_is_deterministic() {
        let m = UniformMetric::new(4);
        let mut n: Network<u32> = Network::new(&m);
        n.send(ShardId(3), ShardId(1), Round(0), 30);
        n.send(ShardId(2), ShardId(0), Round(0), 20);
        n.send(ShardId(0), ShardId(1), Round(0), 10);
        let due = n.deliver_due(Round(1));
        let order: Vec<(u32, u32)> = due.iter().map(|e| (e.to.raw(), e.from.raw())).collect();
        assert_eq!(order, vec![(0, 2), (1, 0), (1, 3)]);
    }

    #[test]
    fn send_many_broadcasts() {
        let m = UniformMetric::new(5);
        let mut n: Network<&'static str> = Network::new(&m);
        n.send_many(ShardId(0), (1..5).map(ShardId), Round(0), "b");
        assert_eq!(n.deliver_due(Round(1)).len(), 4);
        assert_eq!(n.sent_count(), 4);
    }

    #[test]
    fn byte_accounting_tracks_max_and_total() {
        let m = UniformMetric::new(3);
        let mut n: Network<Vec<u8>> = Network::new(&m);
        assert_eq!(n.bytes_sent(), 0);
        n.send(ShardId(0), ShardId(1), Round(0), vec![0; 10]);
        assert_eq!(n.bytes_sent(), 0, "no sizer set yet");
        n.set_sizer(|p| p.len());
        n.send(ShardId(0), ShardId(1), Round(0), vec![0; 10]);
        n.send(ShardId(0), ShardId(2), Round(0), vec![0; 300]);
        n.send(ShardId(1), ShardId(2), Round(0), vec![0; 5]);
        assert_eq!(n.bytes_sent(), 315);
        assert_eq!(n.max_message_bytes(), 300);
    }

    #[test]
    fn fault_plane_drops_and_duplicates_deterministically() {
        use crate::faults::FaultPlan;
        let run = || {
            let m = UniformMetric::new(3);
            let mut n: Network<u32> = Network::new(&m);
            n.set_faults(FaultPlan {
                drop_prob: 0.3,
                dup_prob: 0.2,
                ..FaultPlan::default()
            });
            for i in 0..200 {
                n.send(ShardId(0), ShardId(1), Round(i), i as u32);
            }
            let delivered: Vec<u32> = (1..=201)
                .flat_map(|r| n.deliver_due(Round(r)))
                .map(|e| e.payload)
                .collect();
            (
                delivered,
                n.sent_count(),
                n.dropped_count(),
                n.duplicated_count(),
            )
        };
        let (delivered, sent, dropped, duplicated) = run();
        assert_eq!(sent, 200, "sent counts attempts, not survivors");
        assert!(dropped > 0 && duplicated > 0, "{dropped} / {duplicated}");
        assert_eq!(delivered.len() as u64, sent - dropped + duplicated);
        assert_eq!(run().0, delivered, "fault pattern is deterministic");
    }

    #[test]
    fn inert_fault_plan_is_ignored() {
        let m = UniformMetric::new(2);
        let mut n: Network<()> = Network::new(&m);
        n.set_faults(crate::faults::FaultPlan::default());
        n.send(ShardId(0), ShardId(1), Round(0), ());
        assert_eq!(n.deliver_due(Round(1)).len(), 1);
        assert_eq!(n.dropped_count(), 0);
    }

    #[test]
    fn seq_is_per_sender() {
        let m = UniformMetric::new(3);
        let mut n: Network<u32> = Network::new(&m);
        n.send(ShardId(0), ShardId(2), Round(0), 1);
        n.send(ShardId(1), ShardId(2), Round(0), 2);
        n.send(ShardId(0), ShardId(2), Round(0), 3);
        let due = n.deliver_due(Round(1));
        let key: Vec<(u32, u64, u32)> = due
            .iter()
            .map(|e| (e.from.raw(), e.seq, e.payload))
            .collect();
        assert_eq!(key, vec![(0, 0, 1), (0, 1, 3), (1, 0, 2)]);
    }

    #[test]
    fn next_delivery_tracks_earliest() {
        let m = LineMetric::new(10);
        let mut n: Network<()> = Network::new(&m);
        assert_eq!(n.next_delivery(), None);
        n.send(ShardId(0), ShardId(9), Round(0), ());
        n.send(ShardId(0), ShardId(2), Round(0), ());
        assert_eq!(n.next_delivery(), Some(Round(2)));
    }
}
