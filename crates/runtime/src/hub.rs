//! The threaded message plane: `simnet::Network` semantics for shards
//! executed concurrently by a pool of worker threads.
//!
//! A [`NetHub`] shares with the simulator's network everything but the
//! hand-off. What a send *means* — delivery at round `r + max(1, d)`, the
//! per-sender sequence number, the link's fault stream, the counters — is
//! the [`simnet::Outbound`] inside each [`ShardPort`]; an early arrival
//! waits in the [`simnet::Wheel`] inside each [`NetInbox`], so an undrained
//! round keeps its messages until it is asked for, under either transport.
//! A shard's per-round inbox is handed out sorted by `(sender,
//! sender-sequence)`, the simulator's order; since sequence numbers are per
//! sender and fault decisions per link, delivery does not depend on how the
//! threads interleave.
//!
//! The hand-off is one **mailbox per destination shard**: a mutexed `Vec`
//! plus a has-mail flag. A send locks the destination's mailbox, pushes,
//! unlocks, then raises the flag (`Release`). The destination's
//! [`NetInbox`], its one drainer, skips the mailbox on a relaxed load of a
//! clear flag (an idle drain takes no lock), else clears it with
//! `swap(false, Acquire)` and swaps the `Vec` out against its spare buffer
//! (a steady round allocates nothing), parks early arrivals in its wheel
//! and sorts the due bucket. The wheel is asked only when something is
//! parked for the round or earlier.
//!
//! Why no message is left behind a clear flag: **the flag is raised after
//! the push, and the gate orders round `r - 1` before round `r`.** A
//! drain whose `swap` precedes a sender's store leaves the flag raised for
//! the next drain; one whose `swap` reads it locks after the push's unlock
//! and takes the message. A message sent at round `r` is due at `r + 1` or
//! later, and the gate orders every round-`r` push and flag before any
//! round-`r + 1` drain, whose relaxed pre-check therefore sees the flag
//! (only the drainer clears it). A flag left raised by a drain that took
//! the message anyway costs one lock of an empty mailbox. Raising the flag
//! *before* the push is unsound — a drain can clear it and empty the
//! mailbox between the two — and `tests/hub_stress.rs` races exactly that.
//!
//! Counting is sender-local: each port's `Outbound` tallies in plain
//! integers and flushes into the hub's one [`SendTally`] on drop (or
//! [`ShardPort::flush`]), so hub-level counts are complete once the shard
//! threads have finished — exactly when the drivers read them.

use cluster::ShardMetric;
use parking_lot::Mutex;
use sharding_core::ShardId;
use simnet::faults::{FaultPlan, Outbound, SendTally};
use simnet::Wheel;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// What travels through a mailbox: the envelope plus its delivery round,
/// which the inbox consumes when parking it in the wheel.
struct Queued<P> {
    deliver_at: u64,
    env: NetEnvelope<P>,
}

/// One destination's incoming messages, posted by any sender and taken
/// by the destination's inbox alone (module docs).
struct Mailbox<P> {
    queue: Mutex<Vec<Queued<P>>>,
    has_mail: AtomicBool,
}

impl<P> Mailbox<P> {
    fn post(&self, q: Queued<P>) {
        self.queue.lock().push(q);
        // After the push's unlock: pairs with the `swap(Acquire)` in
        // `take_into`. Raising it first strands messages (module docs).
        self.has_mail.store(true, Ordering::Release);
    }

    /// Swaps everything posted so far into `spare` (empty on entry), or
    /// returns `false` without locking while the flag is clear.
    fn take_into(&self, spare: &mut Vec<Queued<P>>) -> bool {
        let flagged =
            self.has_mail.load(Ordering::Relaxed) && self.has_mail.swap(false, Ordering::Acquire);
        if flagged {
            std::mem::swap(&mut *self.queue.lock(), spare);
        }
        flagged
    }
}

/// Why a [`NetHub`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubError {
    /// The metric declares zero shards: there is no one to deliver to.
    NoShards,
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cannot build a message hub over zero shards")
    }
}

impl std::error::Error for HubError {}

/// The shared delivery plane. One instance per run, referenced by every
/// shard thread; see the module docs for the mailbox protocol.
pub struct NetHub<P> {
    sizer: fn(&P) -> usize,
    /// Un-taken sending endpoints, each with its delay row built from the
    /// hub's metric; `ShardPort::new` takes each exactly once.
    ports: Vec<Mutex<Option<Outbound>>>,
    /// One mailbox per destination, shared with the inboxes.
    mail: Arc<[Mailbox<P>]>,
    /// Set once a shard's `NetInbox` exists: a mailbox has one drainer.
    opened: Vec<AtomicBool>,
    /// What the ports have flushed so far.
    tally: Mutex<SendTally>,
}

impl<P> NetHub<P> {
    /// Builds the hub over `metric` with a payload sizer (the same
    /// estimator the simulator uses, so `max_message_bytes` agrees).
    pub fn new(metric: &dyn ShardMetric, sizer: fn(&P) -> usize) -> Result<Self, HubError> {
        let s = metric.shards();
        if s == 0 {
            return Err(HubError::NoShards);
        }
        Ok(NetHub {
            sizer,
            ports: (0..s as u32)
                .map(|from| Mutex::new(Some(Outbound::new(metric, ShardId(from)))))
                .collect(),
            mail: (0..s)
                .map(|_| Mailbox {
                    queue: Mutex::new(Vec::new()),
                    has_mail: AtomicBool::new(false),
                })
                .collect(),
            opened: (0..s).map(|_| AtomicBool::new(false)).collect(),
            tally: Mutex::new(SendTally::default()),
        })
    }

    /// What the ports have flushed ([`ShardPort::flush`], or on drop):
    /// complete once the sending threads have finished.
    pub fn tally(&self) -> SendTally {
        *self.tally.lock()
    }
}

/// One shard thread's sending endpoint: its [`Outbound`] (sequence
/// counter, delay row, fault streams, local tallies) and the mailboxes.
pub struct ShardPort<'h, P> {
    hub: &'h NetHub<P>,
    out: Outbound,
}

impl<'h, P> ShardPort<'h, P> {
    /// Takes the sending endpoint of `from`. An inert plan disables the
    /// fault path entirely.
    ///
    /// # Panics
    ///
    /// If the port for `from` was already taken — each shard's sequence
    /// counter and fault streams exist exactly once.
    pub fn new(hub: &'h NetHub<P>, from: ShardId, plan: &FaultPlan) -> Self {
        let mut out = hub.ports[from.index()]
            .lock()
            .take()
            .expect("ShardPort::new called twice for one shard");
        out.set_faults(plan);
        ShardPort { hub, out }
    }

    /// Adds this port's local tallies into the hub's and zeroes them.
    /// Called automatically on drop; safe to call any number of times.
    pub fn flush(&mut self) {
        self.hub.tally.lock().absorb(self.out.take_tally());
    }
}

impl<'h, P: Clone> ShardPort<'h, P> {
    /// Sends `payload` to `to` at round `now`: whatever the shard's
    /// [`Outbound`] emits is posted to `to`'s mailbox.
    pub fn send(&mut self, to: ShardId, now: u64, payload: P) {
        let bytes = (self.hub.sizer)(&payload) as u64;
        let from = self.out.shard();
        let mailbox = &self.hub.mail[to.index()];
        let post = |deliver_at, seq, payload| {
            let env = NetEnvelope { from, seq, payload };
            mailbox.post(Queued { deliver_at, env });
        };
        self.out.send(to, now, bytes, payload, post);
    }
}

impl<P> Drop for ShardPort<'_, P> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One shard thread's receiving endpoint: its mailbox, the spare buffer
/// swapped against it, and the wheel that parks early arrivals.
pub struct NetInbox<P> {
    to: ShardId,
    mail: Arc<[Mailbox<P>]>,
    /// Empty between drains; its capacity cycles with the mailbox's.
    spare: Vec<Queued<P>>,
    /// Arrivals taken before their delivery round.
    parked: Wheel<NetEnvelope<P>>,
}

impl<P> NetInbox<P> {
    /// Opens `to`'s mailbox for draining; the inbox does not borrow the hub.
    ///
    /// # Panics
    ///
    /// If the inbox for `to` was already opened — a second drainer would
    /// park half of the shard's messages in a wheel nobody asks.
    pub fn new(hub: &NetHub<P>, to: ShardId) -> Self {
        assert!(
            !hub.opened[to.index()].swap(true, Ordering::Relaxed),
            "NetInbox::new called twice for one shard"
        );
        NetInbox {
            to,
            mail: Arc::clone(&hub.mail),
            spare: Vec::new(),
            parked: Wheel::default(),
        }
    }

    /// Collects into `out` (cleared first) every message due for `round`,
    /// sorted by `(sender, sender-sequence)`.
    ///
    /// Takes everything posted to the mailbox so far (module docs):
    /// messages due now go to `out`, early ones to the wheel until their
    /// own round's drain. The hand-out is complete if every send of rounds
    /// `< round` happened before this call — what the round gate ensures.
    ///
    /// # Panics
    ///
    /// If a taken message was due at an earlier round — the mailbox was
    /// skipped when it should not have been, or the caller drained ahead
    /// of the gate. Always on: a late message would otherwise be lost.
    pub fn drain_into(&mut self, round: u64, out: &mut Vec<NetEnvelope<P>>) {
        out.clear();
        if self.mail[self.to.index()].take_into(&mut self.spare) {
            for q in self.spare.drain(..) {
                assert!(
                    q.deliver_at >= round,
                    "link {} -> {}: message due at round {} popped at round {round}",
                    q.env.from.index(),
                    self.to.index(),
                    q.deliver_at,
                );
                if q.deliver_at == round {
                    out.push(q.env);
                } else {
                    self.parked.slot_mut(q.deliver_at).push(q.env);
                }
            }
        }
        if self.parked.earliest().is_some_and(|at| at <= round) {
            let mut due = self.parked.take(round);
            out.append(&mut due);
            self.parked.recycle(due);
        }
        out.sort_unstable_by_key(|e| (e.from, e.seq));
    }

    /// [`NetInbox::drain_into`] a fresh vector (tests; drivers reuse one).
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
        assert_eq!(hub.tally().sent, 4);
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
    #[should_panic(expected = "NetInbox::new called twice")]
    fn second_inbox_for_one_shard_panics() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let _first = NetInbox::new(&hub, ShardId(1));
        let _second = NetInbox::new(&hub, ShardId(1));
    }

    #[test]
    fn flush_is_idempotent_with_drop() {
        let m = UniformMetric::new(2);
        let hub: NetHub<u32> = NetHub::new(&m, sizer).unwrap();
        let mut p = ShardPort::new(&hub, ShardId(0), &FaultPlan::default());
        p.send(ShardId(1), 0, 7);
        p.flush();
        assert_eq!(hub.tally().sent, 1);
        assert_eq!(hub.tally().bytes, 4);
        drop(p); // must not double-count the flushed tallies
        assert_eq!(hub.tally().sent, 1);
        assert_eq!(hub.tally().bytes, 4);
        assert_eq!(hub.tally().max_bytes, 4);
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
            // Round 0 takes the inbox's mail and parks the early arrival.
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
        let tally = hub.tally();
        assert_eq!(tally.dropped, net.tally().dropped);
        assert_eq!(tally.duplicated, net.tally().duplicated);
        assert!(tally.dropped > 0 && tally.duplicated > 0);
    }
}
