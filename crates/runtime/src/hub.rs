//! The threaded message plane: `simnet::Network` semantics for shards
//! executed concurrently by a pool of worker threads, rebuilt lock-free.
//!
//! A [`NetHub`] is the concurrent analogue of the simulator's delay-queue
//! network, and shares with it everything but the hand-off. What a send
//! *means* — delivery at round `r + max(1, d)`, the per-sender sequence
//! number, the link's fault stream, the counters — is the one
//! [`simnet::Outbound`] inside each [`ShardPort`]; where an early arrival
//! waits is the one [`simnet::Wheel`] inside each [`NetInbox`], so a round
//! that is never drained keeps its messages until it is asked for, under
//! either transport. Each shard's per-round inbox is handed out sorted by
//! `(sender, sender-sequence)` — the exact order the simulator uses (its
//! global sort key is `(to, from, seq)`, and a drain is per-destination
//! already). Because sequence numbers are per sender and fault decisions
//! are per directed link, nothing about delivery depends on how the shard
//! threads interleave; the round gate in the drivers only has to
//! guarantee that round `r - 1`'s sends are enqueued before round `r` is
//! drained.
//!
//! What this file owns is the concurrent part: one lock-free SPSC [ring]
//! per **directed link** and the dirty-sender bitmaps below. The sender's
//! [`ShardPort`] owns the `s` producer endpoints of its row, the
//! receiver's [`NetInbox`] owns the `s` consumer endpoints of its column,
//! and a whole round is handed off batched — the inbox pops the incoming
//! rings that were written to since its last drain, parks early arrivals
//! in its wheel, and sorts the due bucket by `(sender, seq)`. No mutex is
//! on the per-message path; the only locks left are the rings' spill
//! queues (touched when a ring overflows, never required for
//! correctness), the one-time endpoint hand-out and the tally flush.
//!
//! Counter accounting is sender-local for the same reason: each port's
//! `Outbound` tallies in plain integers and the port flushes them into
//! the hub's one [`SendTally`] on drop (or an explicit
//! [`ShardPort::flush`]), so counting adds no shared read-modify-write
//! to the hot path. Hub-level counts are therefore complete once the
//! shard threads have finished — exactly when the drivers read them.
//!
//! # Dirty-sender bitmaps: a drain costs O(messages), not O(shards)
//!
//! Polling all `s` rings of a column every round costs `s²` ring probes
//! per round across the hub to collect a few dozen messages — measured
//! at about two-thirds of the whole networked round at 64 and 256
//! shards. The hub therefore owns one flat array of `AtomicU64` bitmap
//! words, `ceil(s / 64)` per destination: bit `from` of destination `to`
//! lives in word `to * words + from / 64`. [`ShardPort::send`] raises the
//! sender's bit with one `fetch_or(Release)` **after** the ring push;
//! [`NetInbox::drain_into`] takes each non-zero word of its own row with
//! `swap(0, Acquire)` and drains exactly the rings whose bit was set.
//! The visit order (ascending sender) is irrelevant to the hand-out,
//! which is fixed by the final `(sender, seq)` sort.
//!
//! Why no message is ever left behind in a ring whose bit is clear:
//!
//! * Every push is followed, in program order, by a read-modify-write on
//!   the bit's word, and an RMW always reads the latest value in the
//!   word's modification order. So if a drain's `swap` cleared the bit
//!   *before* the sender's `fetch_or` (the drain raced ahead of the
//!   push), the `fetch_or` re-raises it and the ring is visited by the
//!   next drain. If the `swap` comes *after* the `fetch_or`, it reads
//!   from it (or from a later RMW of the same release sequence), and
//!   Release/Acquire makes the push visible to the ring drain that
//!   follows.
//! * "The next drain" is never too late: a message sent at round `r` has
//!   `deliver_at >= r + 1`, and the round gate orders every round-`r`
//!   send — push *and* bit — before any round-`r + 1` drain, so that
//!   drain's `swap` (or its relaxed non-zero pre-check, by coherence)
//!   observes the bit.
//!
//! Two tempting shortcuts are **unsound** and must not be added:
//!
//! * *Check-then-set* ("skip the RMW when the bit already looks set"):
//!   the load may be satisfied before the push's store drains from the
//!   store buffer (store→load reordering), so the sender can see a stale
//!   set bit *after* the drain's `swap` cleared it and emptied the ring —
//!   leaving the new message in a ring nobody will visit.
//! * *A per-round sender-local "already raised" cache*: a peer still
//!   draining that same round on another worker may `swap` between two
//!   sends of the round, so the second send lands in a ring whose bit is
//!   clear and is never re-raised.
//!
//! A spuriously set bit (the drain popped a message before its sender
//! raised the bit) only costs one visit to an empty ring next round.

use crate::ring::{self, RingConsumer, RingProducer};
use cluster::ShardMetric;
use parking_lot::Mutex;
use sharding_core::ShardId;
use simnet::faults::{FaultPlan, Outbound, SendTally};
use simnet::Wheel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A delivered message: sender plus the sender-local sequence number used
/// as the deterministic tie-break.
#[derive(Debug)]
pub struct NetEnvelope<P> {
    /// Sending shard.
    pub from: ShardId,
    /// Sender-local sequence number.
    pub seq: u64,
    /// Protocol payload.
    pub payload: P,
}

/// What travels through a link ring: the envelope plus its delivery
/// round, which the inbox consumes when parking it in the wheel.
struct Queued<P> {
    deliver_at: u64,
    env: NetEnvelope<P>,
}

/// Why a [`NetHub`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubError {
    /// The metric declares zero shards — there is no one to deliver to,
    /// and every later index computation would be out of bounds.
    NoShards,
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::NoShards => write!(f, "cannot build a message hub over zero shards"),
        }
    }
}

impl std::error::Error for HubError {}

/// The sender side of one shard's outgoing links, handed out once to
/// its [`ShardPort`].
struct PortHalf<P> {
    /// The shard's endpoint, its delay row built from the hub's metric.
    out: Outbound,
    /// Producer of the `(from, to)` ring, indexed by `to`.
    rings: Vec<RingProducer<Queued<P>>>,
}

/// The receiver side of one shard's incoming links, handed out once to
/// its [`NetInbox`]: the consumer of the `(from, to)` ring, by `from`.
type InboxHalf<P> = Vec<RingConsumer<Queued<P>>>;

/// The shared delivery plane. One instance per run, referenced by every
/// shard thread; see the module docs for the ring layout.
pub struct NetHub<P> {
    sizer: fn(&P) -> usize,
    /// Un-taken sender halves, indexed by shard; `ShardPort::new` takes
    /// each exactly once (the SPSC contract, enforced at runtime).
    ports: Vec<Mutex<Option<PortHalf<P>>>>,
    /// Un-taken receiver halves, ditto for `NetInbox::new`.
    inboxes: Vec<Mutex<Option<InboxHalf<P>>>>,
    /// Dirty-sender bitmaps, `dirty_words` per destination: bit `from` of
    /// destination `to` is bit `from % 64` of word
    /// `to * dirty_words + from / 64` (see the module docs). Shared with
    /// the inboxes, which do not borrow the hub.
    dirty: Arc<[AtomicU64]>,
    dirty_words: usize,
    /// What the ports have flushed so far.
    tally: Mutex<SendTally>,
    spilled: AtomicU64,
}

/// Default per-link ring capacity: scaled down as the link count grows
/// quadratically, so the slot arrays stay small next to the rings' fixed
/// cost — each of the `s²` rings carries two 128-byte-aligned cursors,
/// which at 256 shards (65 536 rings) is tens of megabytes whatever the
/// capacity. Overflow is handled by the spill path, so this is purely a
/// throughput knob.
fn default_capacity(shards: usize) -> usize {
    (2048 / shards.max(1)).clamp(4, 128)
}

impl<P> NetHub<P> {
    /// Builds the hub over `metric` with a payload sizer (the same
    /// estimator the simulator uses, so `max_message_bytes` agrees) and
    /// the default per-link ring capacity.
    pub fn new(metric: &dyn ShardMetric, sizer: fn(&P) -> usize) -> Result<Self, HubError> {
        Self::with_capacity(metric, sizer, default_capacity(metric.shards()))
    }

    /// Like [`NetHub::new`] with an explicit per-link ring capacity
    /// (rounded up to a power of two, minimum 1). Tiny capacities force
    /// the spill path and are exercised by the stress tests; correctness
    /// is capacity-independent.
    pub fn with_capacity(
        metric: &dyn ShardMetric,
        sizer: fn(&P) -> usize,
        capacity: usize,
    ) -> Result<Self, HubError> {
        let s = metric.shards();
        if s == 0 {
            return Err(HubError::NoShards);
        }
        let mut ports: Vec<PortHalf<P>> = (0..s as u32)
            .map(|from| PortHalf {
                out: Outbound::new(metric, ShardId(from)),
                rings: Vec::with_capacity(s),
            })
            .collect();
        let mut inboxes: Vec<InboxHalf<P>> = (0..s).map(|_| Vec::with_capacity(s)).collect();
        for port in &mut ports {
            for inbox in &mut inboxes {
                let (producer, consumer) = ring::spsc(capacity);
                port.rings.push(producer);
                inbox.push(consumer);
            }
        }
        let dirty_words = s.div_ceil(64);
        Ok(NetHub {
            dirty: (0..s * dirty_words).map(|_| AtomicU64::new(0)).collect(),
            dirty_words,
            sizer,
            ports: ports.into_iter().map(|h| Mutex::new(Some(h))).collect(),
            inboxes: inboxes.into_iter().map(|h| Mutex::new(Some(h))).collect(),
            tally: Mutex::new(SendTally::default()),
            spilled: AtomicU64::new(0),
        })
    }

    /// What the ports have sent, as far as they have flushed it: ports
    /// tally locally and flush on drop, so this is complete once the
    /// sending threads have finished (or called [`ShardPort::flush`]).
    pub fn tally(&self) -> SendTally {
        *self.tally.lock()
    }

    /// Total protocol sends attempted (dropped messages included,
    /// fault-plane duplicates excluded — the simulator's `sent_count`).
    pub fn sent_count(&self) -> u64 {
        self.tally().sent
    }

    /// Messages dropped by the fault plane.
    pub fn dropped_count(&self) -> u64 {
        self.tally().dropped
    }

    /// Messages duplicated by the fault plane.
    pub fn duplicated_count(&self) -> u64 {
        self.tally().duplicated
    }

    /// Messages that overflowed a link ring into its spill queue —
    /// a sizing diagnostic, not a correctness signal.
    pub fn spilled_count(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }
}

/// One shard thread's sending endpoint: its [`Outbound`] (sequence
/// counter, delay row, fault streams, local tallies) and the producer
/// side of its outgoing rings.
pub struct ShardPort<'h, P> {
    hub: &'h NetHub<P>,
    out: Outbound,
    rings: Vec<RingProducer<Queued<P>>>,
    /// Spilled pushes already flushed into the hub (flush is idempotent;
    /// drop flushes again).
    spilled_reported: u64,
}

impl<'h, P> ShardPort<'h, P> {
    /// Takes the sender half of `from`'s links. An inert plan disables
    /// the fault path entirely.
    ///
    /// # Panics
    ///
    /// If the port for `from` was already taken — each shard's producer
    /// endpoints exist exactly once (the SPSC soundness contract).
    pub fn new(hub: &'h NetHub<P>, from: ShardId, plan: &FaultPlan) -> Self {
        let PortHalf { mut out, rings } = hub.ports[from.index()]
            .lock()
            .take()
            .expect("ShardPort::new called twice for one shard");
        out.set_faults(plan);
        ShardPort {
            hub,
            out,
            rings,
            spilled_reported: 0,
        }
    }

    /// Adds this port's local tallies into the hub's and zeroes them.
    /// Called automatically on drop; safe to call any number of times.
    pub fn flush(&mut self) {
        self.hub.tally.lock().absorb(self.out.take_tally());
        let spilled: u64 = self.rings.iter().map(RingProducer::spilled).sum();
        self.hub
            .spilled
            .fetch_add(spilled - self.spilled_reported, Ordering::Relaxed);
        self.spilled_reported = spilled;
    }
}

impl<'h, P: Clone> ShardPort<'h, P> {
    /// Sends `payload` to `to` at round `now`: whatever the shard's
    /// [`Outbound`] emits goes into the link's ring.
    pub fn send(&mut self, to: ShardId, now: u64, payload: P) {
        let bytes = (self.hub.sizer)(&payload) as u64;
        let from = self.out.shard();
        let ring = &mut self.rings[to.index()];
        let dirty = &self.hub.dirty[to.index() * self.hub.dirty_words + from.index() / 64];
        let emit = |deliver_at, seq, payload| {
            let env = NetEnvelope { from, seq, payload };
            ring.push(Queued { deliver_at, env });
            // Unconditional RMW, after the push: pairs with the
            // `swap(Acquire)` in `drain_into`. Neither a check-then-set
            // nor a per-round cache may replace it (module docs).
            dirty.fetch_or(1 << (from.index() % 64), Ordering::Release);
        };
        self.out.send(to, now, bytes, payload, emit);
    }
}

impl<P> Drop for ShardPort<'_, P> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One shard thread's receiving endpoint: the consumer side of its
/// incoming rings plus the wheel that parks early arrivals until their
/// delivery round.
pub struct NetInbox<P> {
    to: ShardId,
    rings: Vec<RingConsumer<Queued<P>>>,
    /// The hub's dirty-sender bitmaps and this inbox's row in them.
    dirty: Arc<[AtomicU64]>,
    dirty_row: std::ops::Range<usize>,
    /// Rings visited by `drain_into` so far (a diagnostic).
    rings_polled: u64,
    /// Arrivals popped before their delivery round.
    parked: Wheel<NetEnvelope<P>>,
}

impl<P> NetInbox<P> {
    /// Takes the receiver half of `to`'s links. The inbox holds its own
    /// ends of the rings, so it does not borrow the hub.
    ///
    /// # Panics
    ///
    /// If the inbox for `to` was already taken — each shard's consumer
    /// endpoints exist exactly once (the SPSC soundness contract).
    pub fn new(hub: &NetHub<P>, to: ShardId) -> Self {
        let rings = hub.inboxes[to.index()]
            .lock()
            .take()
            .expect("NetInbox::new called twice for one shard");
        NetInbox {
            to,
            rings,
            dirty: Arc::clone(&hub.dirty),
            dirty_row: to.index() * hub.dirty_words..(to.index() + 1) * hub.dirty_words,
            rings_polled: 0,
            parked: Wheel::default(),
        }
    }

    /// Total rings visited by all drains so far: with the dirty-sender
    /// bitmaps, the number of (drain, sender) pairs where the sender had
    /// pushed since the previous drain — not `drains × shards`.
    pub fn rings_polled(&self) -> u64 {
        self.rings_polled
    }

    /// Collects into `out` (cleared first) every message due for `round`,
    /// sorted by `(sender, sender-sequence)`.
    ///
    /// One pass pops everything currently published on the incoming
    /// rings whose dirty bit is set (module docs): messages due now go
    /// straight to `out`, earlier-than-needed arrivals are parked in the
    /// wheel for the drain of their own round, however much later that
    /// is. For the hand-out to be complete the caller must ensure all
    /// sends of rounds `< round` happened before this call — the
    /// drivers' round gate provides exactly that.
    ///
    /// # Panics
    ///
    /// If a popped message was due at an earlier round — a ring was
    /// skipped when it should not have been, or the caller drained ahead
    /// of the gate. Always on: in a release build the late message would
    /// otherwise be parked under a past key and silently lost.
    pub fn drain_into(&mut self, round: u64, out: &mut Vec<NetEnvelope<P>>) {
        out.clear();
        let NetInbox {
            to,
            rings,
            dirty,
            dirty_row,
            rings_polled,
            parked,
        } = self;
        for (w, word) in dirty[dirty_row.clone()].iter().enumerate() {
            // Relaxed pre-check: the gate orders every earlier-round
            // `fetch_or` before this load, so by coherence a bit raised
            // for a message due now is seen (only this inbox clears it).
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bits = word.swap(0, Ordering::Acquire);
            *rings_polled += u64::from(bits.count_ones());
            while bits != 0 {
                let from = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                rings[from].drain_with(|q: Queued<P>| {
                    assert!(
                        q.deliver_at >= round,
                        "link {from} -> {}: message due at round {} popped at round {round}",
                        to.index(),
                        q.deliver_at,
                    );
                    if q.deliver_at == round {
                        out.push(q.env);
                    } else {
                        parked.slot_mut(q.deliver_at).push(q.env);
                    }
                });
            }
        }
        let mut due = parked.take(round);
        out.append(&mut due);
        parked.recycle(due);
        out.sort_unstable_by_key(|e| (e.from, e.seq));
    }

    /// Convenience wrapper over [`NetInbox::drain_into`] returning a
    /// fresh vector (tests; the drivers reuse a buffer).
    pub fn drain(&mut self, round: u64) -> Vec<NetEnvelope<P>> {
        let mut out = Vec::new();
        self.drain_into(round, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{LineMetric, UniformMetric};

    fn sizer(_: &u32) -> usize {
        4
    }

    #[test]
    fn delivers_with_metric_delay_in_sender_order() {
        let m = LineMetric::new(4);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let mut inbox = NetInbox::new(&hub, ShardId(3));
        let mut p0 = ShardPort::new(&hub, ShardId(0), &inert);
        let mut p1 = ShardPort::new(&hub, ShardId(1), &inert);
        p1.send(ShardId(3), 0, 30); // distance 2 → round 2
        p0.send(ShardId(3), 0, 10); // distance 3 → round 3
        p0.send(ShardId(3), 1, 11); // distance 3 → round 4
        p1.send(ShardId(3), 1, 31); // distance 2 → round 3
        assert!(inbox.drain(1).is_empty());
        assert_eq!(
            inbox.drain(2).iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![30]
        );
        // Round 3: shard 0's first message sorts before shard 1's second.
        let due = inbox.drain(3);
        let key: Vec<(u32, u64, u32)> = due
            .iter()
            .map(|e| (e.from.raw(), e.seq, e.payload))
            .collect();
        assert_eq!(key, vec![(0, 0, 10), (1, 1, 31)]);
        assert_eq!(inbox.drain(4).len(), 1);
        drop(p0);
        drop(p1);
        assert_eq!(hub.sent_count(), 4);
        assert_eq!(hub.tally().max_bytes, 4);
    }

    #[test]
    fn self_send_takes_one_round() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(1), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        p.send(ShardId(1), 5, 9);
        assert_eq!(inbox.drain(6).len(), 1);
    }

    #[test]
    fn zero_shard_metric_is_a_typed_error() {
        // The standard metrics refuse to build empty, so model the
        // degenerate shape directly — exactly what a buggy custom
        // ShardMetric impl could hand us.
        struct Empty;
        impl cluster::ShardMetric for Empty {
            fn shards(&self) -> usize {
                0
            }
            fn distance(&self, _: ShardId, _: ShardId) -> u64 {
                0
            }
        }
        let err = match NetHub::<u32>::new(&Empty, sizer) {
            Ok(_) => panic!("zero-shard hub must not build"),
            Err(e) => e,
        };
        assert_eq!(err, HubError::NoShards);
        assert!(err.to_string().contains("zero shards"));
    }

    #[test]
    #[should_panic(expected = "ShardPort::new called twice")]
    fn second_port_for_one_shard_panics() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let _first = ShardPort::new(&hub, ShardId(0), &inert);
        let _second = ShardPort::new(&hub, ShardId(0), &inert);
    }

    #[test]
    fn flush_is_idempotent_with_drop() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        p.send(ShardId(1), 0, 7);
        p.flush();
        assert_eq!(hub.sent_count(), 1);
        assert_eq!(hub.tally().bytes, 4);
        drop(p); // must not double-count the flushed tallies
        assert_eq!(hub.sent_count(), 1);
        assert_eq!(hub.tally().bytes, 4);
        assert_eq!(hub.tally().max_bytes, 4);
    }

    #[test]
    fn tiny_rings_spill_without_losing_messages() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::with_capacity(&m, sizer, 1).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        for i in 0..50 {
            p.send(ShardId(1), 0, i);
        }
        let due = inbox.drain(1);
        assert_eq!(due.len(), 50);
        // Sorted by seq regardless of which lane carried each message.
        let seqs: Vec<u64> = due.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>());
        drop(p);
        assert_eq!(hub.spilled_count(), 49, "capacity-1 ring spills the rest");
    }

    #[test]
    fn drain_polls_only_rings_that_were_written() {
        // 70 shards: shard 69's bit lives in the second word of the row.
        let m = UniformMetric::new(70);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let inert = FaultPlan::default();
        let mut inbox = NetInbox::new(&hub, ShardId(5));
        assert!(inbox.drain(0).is_empty());
        assert_eq!(inbox.rings_polled(), 0, "nothing sent, nothing polled");
        // m = 7 messages from j = 3 distinct senders.
        for (from, count) in [(2u32, 4u32), (63, 1), (69, 2)] {
            let mut port = ShardPort::new(&hub, ShardId(from), &inert);
            for i in 0..count {
                port.send(ShardId(5), 0, from * 10 + i);
            }
            // A send to someone else must not dirty shard 5's row.
            port.send(ShardId(6), 0, 0);
        }
        let due = inbox.drain(1);
        let key: Vec<(u32, u64)> = due.iter().map(|e| (e.from.raw(), e.seq)).collect();
        assert_eq!(
            key,
            vec![(2, 0), (2, 1), (2, 2), (2, 3), (63, 0), (69, 0), (69, 1)]
        );
        assert_eq!(inbox.rings_polled(), 3, "one poll per distinct sender");
        assert!(inbox.drain(2).is_empty());
        assert_eq!(inbox.rings_polled(), 3, "bits are cleared by the drain");
    }

    #[test]
    #[should_panic(expected = "link 0 -> 1: message due at round 1 popped at round 2")]
    fn late_message_panics_in_every_build() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        p.send(ShardId(1), 0, 7);
        inbox.drain(2); // skipped round 1, where the message was due
    }

    #[test]
    fn undrained_round_keeps_its_message_on_both_transports() {
        // One script, two transports: a message sent at round 0 is due at
        // round 1; round 1 is skipped, later rounds hand out nothing, and
        // the message is still there when round 1 is finally asked for.
        use sharding_core::Round;
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut port = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        port.send(ShardId(1), 0, 7);
        let mut net: simnet::Network<u32> = simnet::Network::new(&m);
        net.send(ShardId(0), ShardId(1), Round(0), 7);
        type Drain<'a> = Box<dyn FnMut(u64) -> Vec<u32> + 'a>;
        let transports: [(&str, Drain); 2] = [
            (
                "NetInbox",
                Box::new(|r| inbox.drain(r).iter().map(|e| e.payload).collect()),
            ),
            (
                "Network",
                Box::new(|r| {
                    net.deliver_due(Round(r))
                        .iter()
                        .map(|e| e.payload)
                        .collect()
                }),
            ),
        ];
        for (name, mut drain) in transports {
            // Round 0 pops the inbox's ring and parks the early arrival.
            for round in (0..1).chain(2..10) {
                assert_eq!(drain(round), Vec::<u32>::new(), "{name}: round {round}");
            }
            assert_eq!(drain(1), vec![7], "{name}: round 1, asked for late");
            assert_eq!(drain(1), Vec::<u32>::new(), "{name}: handed out once");
        }
    }

    #[test]
    fn fault_streams_match_simnet_network() {
        // The same plan applied to the same per-link traffic must drop
        // and duplicate the same message indices as simnet::Network —
        // both sides consume one draw per message from the same stream.
        let plan = FaultPlan {
            drop_prob: 0.25,
            dup_prob: 0.25,
            ..FaultPlan::default()
        };
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut port = ShardPort::new(&hub, ShardId(0), &plan);
        let mut inbox = NetInbox::new(&hub, ShardId(1));
        let mut net: simnet::Network<u32> = simnet::Network::new(&m);
        net.set_faults(plan);
        for i in 0..100 {
            port.send(ShardId(1), i, i as u32);
            net.send(ShardId(0), ShardId(1), sharding_core::Round(i), i as u32);
        }
        // Sends ran 100 rounds ahead of the first drain: the inbox parks
        // a hundred rounds' worth on its first pass.
        let hub_seen: Vec<u32> = (1..=101)
            .flat_map(|r| inbox.drain(r))
            .map(|e| e.payload)
            .collect();
        let net_seen: Vec<u32> = (1..=101)
            .flat_map(|r| net.deliver_due(sharding_core::Round(r)))
            .map(|e| e.payload)
            .collect();
        assert_eq!(hub_seen, net_seen);
        drop(port);
        assert_eq!(hub.dropped_count(), net.dropped_count());
        assert_eq!(hub.duplicated_count(), net.duplicated_count());
        assert!(hub.dropped_count() > 0 && hub.duplicated_count() > 0);
    }
}
