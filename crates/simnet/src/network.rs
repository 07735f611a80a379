//! Inter-shard message passing with metric delays.
//!
//! Shards communicate over the weighted clique `G_s`. A message from `S_i`
//! to `S_j` sent at round `r` arrives at round `r + max(1, d(S_i, S_j))`;
//! in the uniform model every distance is 1, matching "any shard can send
//! or receive information within one round". That rule — the delay, the
//! **per-sender** sequence number, the link's fault stream, the counters
//! — is [`Outbound::send`], shared with the threaded runtime; what is
//! this transport's own is the hand-off: every emitted message is filed
//! in one [`Wheel`] and handed out sorted by (destination, sender,
//! sequence), so simulations are bit-reproducible. The tie-break depends
//! only on each sender's own send order, never on how sends from
//! different shards interleave, which is what lets the concurrent
//! runtime reproduce the simulator's delivery order exactly.

use crate::faults::{FaultPlan, Outbound, SendTally};
use crate::wheel::Wheel;
use cluster::ShardMetric;
use sharding_core::{Round, ShardId};

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

/// The simulated inter-shard network.
///
/// Generic over the payload type so each scheduler defines its own message
/// enum. Not tied to wall-clock: the driving loop calls
/// [`Network::deliver_due`] once per round.
pub struct Network<P> {
    /// Messages by delivery round.
    in_flight: Wheel<Envelope<P>>,
    /// One sending endpoint per shard (boxed: the count never changes,
    /// and every host embedding a network pays for its size).
    senders: Box<[Outbound]>,
    /// Optional payload sizer for byte accounting (the paper bounds the
    /// worst-case message size by `O(bs)`).
    sizer: Option<fn(&P) -> usize>,
}

impl<P> Network<P> {
    /// Builds a network over `metric`.
    pub fn new(metric: &dyn ShardMetric) -> Self {
        Network {
            in_flight: Wheel::default(),
            senders: (0..metric.shards() as u32)
                .map(|from| Outbound::new(metric, ShardId(from)))
                .collect(),
            sizer: None,
        }
    }

    /// Enables byte accounting with an estimator for payload sizes.
    pub fn set_sizer(&mut self, sizer: fn(&P) -> usize) {
        self.sizer = Some(sizer);
    }

    /// Enables the fault plane: subsequent sends consult the plan's
    /// per-link streams. Inert plans are ignored.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        for sender in &mut self.senders {
            sender.set_faults(&plan);
        }
    }

    /// The senders' tallies, summed (bytes are 0 when no sizer is set).
    pub fn tally(&self) -> SendTally {
        let mut total = SendTally::default();
        for sender in &self.senders {
            total.absorb(sender.tally());
        }
        total
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
        let bytes = self.sizer.map_or(0, |sizer| sizer(&payload) as u64);
        let wheel = &mut self.in_flight;
        self.senders[from.index()].send(to, now.raw(), bytes, payload, |at, seq, payload| {
            wheel.slot_mut(at).push(Envelope {
                from,
                to,
                sent: now,
                deliver_at: Round(at),
                seq,
                payload,
            });
        });
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
        self.in_flight.pending()
    }

    /// The earliest round at which a message is due (None when idle).
    pub fn next_delivery(&self) -> Option<Round> {
        self.in_flight.earliest().map(Round)
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
        assert_eq!(n.tally().sent, 4);
    }

    #[test]
    fn byte_accounting_tracks_max_and_total() {
        let m = UniformMetric::new(3);
        let mut n: Network<Vec<u8>> = Network::new(&m);
        assert_eq!(n.tally().bytes, 0);
        n.send(ShardId(0), ShardId(1), Round(0), vec![0; 10]);
        assert_eq!(n.tally().bytes, 0, "no sizer set yet");
        n.set_sizer(|p| p.len());
        n.send(ShardId(0), ShardId(1), Round(0), vec![0; 10]);
        n.send(ShardId(0), ShardId(2), Round(0), vec![0; 300]);
        n.send(ShardId(1), ShardId(2), Round(0), vec![0; 5]);
        assert_eq!(n.tally().bytes, 315);
        assert_eq!(n.tally().max_bytes, 300);
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
            (delivered, n.tally())
        };
        let (
            delivered,
            SendTally {
                sent,
                dropped,
                duplicated,
                ..
            },
        ) = run();
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
        assert_eq!(n.tally().dropped, 0);
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
