//! The threaded host of a [`Protocol`]: what is genuinely about the
//! transport, once for every protocol.
//!
//! `schedulers::node::Sim` steps `s` nodes in shard order on one thread;
//! [`NetRun::run`] steps the same nodes concurrently, each shard one
//! [`run_lockstep`] slot: its node, what it lends it, its share of the
//! fault plan, its [`NetHub`] endpoints and its queue of the pre-drained
//! workload. A slot's round is the simulator's [`step_shard`] over its
//! drained inbox (a crashed shard still drains, so its mailbox stays
//! bounded).
//!
//! Workers finish a round's shards in no particular order, so decisions
//! and samples are buffered per shard and replayed afterwards (`merge`)
//! in `(round, shard, emission index)` order — the order the simulator
//! books them in live — into the same run book, a [`MetricsCollector`],
//! which closes each round and builds the report. With the hub's
//! `(sender, sequence)` hand-out that makes a report byte-identical to
//! the simulator's under the same fault plan, floating-point means
//! included, for any worker count. Nothing is sized
//! `shards × rounds`: the workload is a `(round, txn)` queue per home
//! shard, and a shard's samples a run-length log, taken only in a round
//! that can change them (round 0, an injection, or what [`step_shard`]
//! reports) and carried forward by the merge.

use crate::exec::run_lockstep;
use crate::hub::{NetEnvelope, NetHub, NetInbox, ShardPort};
use crate::sync::RoundGate;
use adversary::RoundSource;
use cluster::ShardMetric;
use parking_lot::Mutex;
use schedulers::metrics::{MetricsCollector, RunReport};
use schedulers::node::{step_shard, CommitEvent, Lent, Node, Protocol, Seam, ShardFaults};
use schedulers::scheduler::Scheduler;
use sharding_core::{AccountMap, Round, ShardId, SystemConfig, Transaction, TxnId};
use simnet::faults::FaultPlan;
use simnet::{LocalChain, ShardLedger};

/// The result of a networked run: the standard report plus the raw
/// commit log for round-for-round cross-validation.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// The standard per-run report (byte-identical to the simulator's
    /// under the same fault plan).
    pub report: RunReport,
    /// `(commit round, txn)` in global decision order.
    pub committed_log: Vec<(Round, TxnId)>,
    /// Whether every shard's local chain verified after the run.
    pub chains_verified: bool,
    /// The local blockchains, in shard order.
    pub chains: Vec<LocalChain>,
}

/// One shard of a finished run.
struct Hosted<N> {
    node: N,
    chain: LocalChain,
    /// `(round emitted, decision)`, in emission order.
    events: Vec<(u64, CommitEvent)>,
    samples: SampleLog,
    faults: ShardFaults,
}

/// A shard's end-of-round samples, run-length encoded: `(round, sample)`
/// for round 0 and every round whose sample differs from the round
/// before. A sample is the node's own, then the shard's
/// [`ShardFaults::sample`].
type SampleLog = Vec<(u64, [u64; 6])>;

/// Appends `sample` unless it repeats the last entry. Compared by folding
/// the words' differences: an array `==` here is a `memcmp` call.
fn log_sample(log: &mut SampleLog, round: u64, sample: [u64; 6]) {
    let repeats = log.last().is_some_and(|(_, last)| {
        last.iter()
            .zip(&sample)
            .fold(0, |diff, (a, b)| diff | (a ^ b))
            == 0
    });
    if !repeats {
        log.push((round, sample));
    }
}

/// A node's [`Seam`] onto the hub: sends leave through the shard's port
/// (where the link's fault stream may drop or duplicate them), decisions
/// are buffered for the ordered replay.
struct NetSeam<'a, 'h, M> {
    port: &'a mut ShardPort<'h, M>,
    round: u64,
    events: &'a mut Vec<(u64, CommitEvent)>,
}

impl<M: Clone> Seam<M> for NetSeam<'_, '_, M> {
    fn send(&mut self, to: ShardId, msg: M) {
        self.port.send(to, self.round, msg);
    }
    fn emit(&mut self, event: CommitEvent) {
        self.events.push((self.round, event));
    }
}

/// Where and how a networked run executes: everything about it that is
/// not the protocol or the workload.
pub struct NetRun<'a> {
    /// The sharded system.
    pub sys: &'a SystemConfig,
    /// Account placement (the ledgers' initial owners).
    pub map: &'a AccountMap,
    /// Inter-shard distances: a message takes `max(1, distance)` rounds.
    pub metric: &'a dyn ShardMetric,
    /// The fault plane; [`FaultPlan::default`] is inert.
    pub faults: &'a FaultPlan,
    /// Worker threads of the lockstep executor
    /// ([`default_workers`](crate::default_workers) is the natural
    /// choice; the outcome is identical for any count `>= 1`).
    pub workers: usize,
    /// Turn the metrics plane on.
    pub metrics: bool,
}

impl NetRun<'_> {
    /// Runs one node of `proto` per shard for `rounds` rounds.
    ///
    /// The source is drained up front in the order the simulator drains
    /// it live, so both engines see the same batches, and queued per home
    /// shard as `(round, txn)`. Every shard gets its own policy instance,
    /// consulted only where its node leads (plans are pure functions of
    /// `(epoch, batch)`).
    ///
    /// The report is byte-identical to a [`Sim`](schedulers::node::Sim)'s
    /// given the same inputs and plan. Under faults the run stays
    /// deterministic but the protocol may degrade: crashed shards freeze,
    /// dropped ballots strand transactions, and the counters surface in
    /// [`RunReport::faults`].
    pub fn run<P>(&self, proto: &P, source: &mut dyn RoundSource, rounds: Round) -> NetOutcome
    where
        P: Protocol,
        P::Node: Send,
        <P::Node as Node>::Msg: Send,
    {
        let NetRun {
            sys,
            map,
            metric,
            faults,
            ..
        } = *self;
        sys.validate().expect("valid system config");
        assert_eq!(metric.shards(), sys.shards);
        faults.validate(sys.shards).expect("valid fault plan");
        let total = rounds.raw();

        let mut book = MetricsCollector::new(sys.shards);
        if self.metrics {
            book.enable_metrics();
        }
        let mut inject = vec![Vec::new(); sys.shards];
        for r in 0..total {
            let batch = source.next_round(Round(r));
            book.book_generated(batch.len() as u64);
            for t in batch {
                inject[t.home.index()].push((r, t));
            }
        }

        struct Slot<'h, N: Node> {
            out: Hosted<N>,
            ledger: ShardLedger,
            policy: Box<dyn Scheduler>,
            port: ShardPort<'h, N::Msg>,
            inbox: NetInbox<N::Msg>,
            inject: std::iter::Peekable<std::vec::IntoIter<(u64, Transaction)>>,
            /// The reusable drain buffer.
            buf: Vec<NetEnvelope<N::Msg>>,
        }
        let hub = NetHub::new(metric, <P::Node as Node>::msg_bytes)
            .expect("validated: at least one shard");
        let gate = RoundGate::new(sys.shards);
        let slots: Vec<Mutex<Slot<'_, P::Node>>> = (0u32..)
            .map(ShardId)
            .zip(inject)
            .map(|(id, inject)| {
                Mutex::new(Slot {
                    out: Hosted {
                        node: proto.node(id, metric),
                        chain: LocalChain::new(id),
                        events: Vec::new(),
                        samples: Vec::new(),
                        faults: ShardFaults::new(faults, id, sys.faulty_per_shard),
                    },
                    ledger: ShardLedger::new(id, map, proto.initial_balance()),
                    policy: proto.policy(sys),
                    port: ShardPort::new(&hub, id, faults),
                    inbox: NetInbox::new(&hub, id),
                    inject: inject.into_iter().peekable(),
                    buf: Vec::new(),
                })
            })
            .collect();
        assert!(
            faults.is_inert() || !P::fault_free_only(&slots[0].lock().out.node),
            "this protocol description requires a fault-free run"
        );

        run_lockstep(&gate, &slots, total, self.workers, |slot, _, round| {
            let out = &mut slot.out;
            // Generated work accumulates even on a crashed shard (it counts
            // as pending, unserviced).
            let mut injected = false;
            while let Some((_, t)) = slot.inject.next_if(|(due, _)| *due <= round) {
                out.node.inject(t);
                injected = true;
            }
            // The executor only runs this once every peer finished round-1
            // sends; the drain then sees all of them.
            slot.inbox.drain_into(round, &mut slot.buf);
            let inbox = slot.buf.drain(..).map(|env| (env.from, env.payload));
            let lent = Lent {
                ledger: &mut slot.ledger,
                chain: &mut out.chain,
                policy: slot.policy.as_mut(),
            };
            let mut seam = NetSeam {
                port: &mut slot.port,
                round,
                events: &mut out.events,
            };
            let shard_faults = Some(&mut out.faults);
            let stepped = step_shard(&mut out.node, shard_faults, round, inbox, lent, &mut seam);
            // A round that changes none of these leaves the sample as the
            // last one logged.
            if round == 0 || injected || stepped {
                let [a, b, c, d] = out.node.sample();
                let [flips, crashed] = out.faults.sample(round);
                log_sample(&mut out.samples, round, [a, b, c, d, flips, crashed]);
            }
        });

        // The report carries the policy's kind, as the simulator's does.
        let kind = slots[0].lock().policy.kind();
        // Consuming a slot drops its port, flushing the shard's local
        // message tallies into the hub before the counters are read below.
        let shards: Vec<_> = slots.into_iter().map(|s| s.into_inner().out).collect();
        merge::<P>(&shards, !faults.is_inert(), total, &mut book);
        let epochs = P::epochs(shards.iter().map(|h| &h.node), total);
        let shard_faults = shards.iter().map(|h| &h.faults);
        let (report, committed_log) = book.finish(kind, epochs, hub.tally(), shard_faults);
        let chains: Vec<LocalChain> = shards.into_iter().map(|h| h.chain).collect();
        NetOutcome {
            report,
            committed_log,
            chains_verified: chains.iter().all(LocalChain::verify),
            chains,
        }
    }
}

/// Replays `rounds` rounds of the finished `shards` into `book`. Round
/// by round, every shard's decisions are booked in shard order (the
/// simulator's booking order, so the floating-point means are bit-equal)
/// and its sample log advanced, then the round is closed over the
/// shards' current samples, with their fault samples if `faulty` (a
/// fault plan was armed).
fn merge<P: Protocol>(
    shards: &[Hosted<P::Node>],
    faulty: bool,
    rounds: u64,
    book: &mut MetricsCollector,
) {
    // Per shard: the next event, the next sample entry, the sample in force.
    let mut cursors = vec![(0usize, 0usize, [0u64; 6]); shards.len()];
    for round in 0..rounds {
        for (shard, (event_at, sample_at, now)) in shards.iter().zip(&mut cursors) {
            while let Some(&(_, event)) = shard.events.get(*event_at).filter(|e| e.0 == round) {
                book.book(event);
                *event_at += 1;
            }
            if let Some((_, sample)) = shard.samples.get(*sample_at).filter(|e| e.0 == round) {
                *now = *sample;
                *sample_at += 1;
            }
        }
        let faults = faulty.then(|| cursors.iter().map(|c| [c.2[4], c.2[5]]));
        let samples = cursors.iter().map(|&(_, _, [a, b, c, d, ..])| [a, b, c, d]);
        book.close_round::<P>(&shards[0].node, samples, faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::UniformMetric;
    use schedulers::bds::{BdsConfig, BdsNode, BdsProtocol};
    use schedulers::metrics::SchedulerKind;
    use schedulers::testkit::report_fingerprint;
    use simnet::faults::SendTally;

    const ROUNDS: u64 = 12;

    /// What three shards report round by round: one whose sample never
    /// changes, one whose sample changes every round (a Byzantine quota
    /// makes the cumulative flip count do that), one that crashes at
    /// round 5 and freezes.
    fn dense() -> Vec<Vec<[u64; 6]>> {
        let shard = |f: fn(u64) -> [u64; 6]| (0..ROUNDS).map(f).collect();
        vec![
            shard(|_| [2, 0, 3, 0, 0, 0]),
            shard(|r| [r % 3, r / 4, 3, 0, r + 1, 0]),
            shard(|r| [r.min(5), r.min(4) / 4, 3, 0, 0, u64::from(r >= 5)]),
        ]
    }

    /// The shards of a finished run of fresh nodes whose sample logs are
    /// `encode`d from the dense matrix.
    fn finished(encode: fn(&[[u64; 6]]) -> SampleLog) -> Vec<Hosted<BdsNode>> {
        let metric = UniformMetric::new(3);
        let proto = BdsProtocol::new(BdsConfig::default(), SchedulerKind::Bds);
        let shards = dense()
            .into_iter()
            .zip((0u32..).map(ShardId))
            .map(|(rows, id)| Hosted {
                node: proto.node(id, &metric),
                chain: LocalChain::new(id),
                events: Vec::new(),
                samples: encode(&rows),
                faults: ShardFaults::new(&FaultPlan::default(), id, 1),
            });
        shards.collect()
    }

    /// The report of `shards` merged as a faulty run.
    fn merged(shards: &[Hosted<BdsNode>]) -> RunReport {
        let mut book = MetricsCollector::new(3);
        book.enable_metrics();
        merge::<BdsProtocol>(shards, true, ROUNDS, &mut book);
        let faults = shards.iter().map(|h| &h.faults);
        let kind = SchedulerKind::Bds;
        book.finish(kind, (0, 0), SendTally::default(), faults).0
    }

    #[test]
    fn merge_carries_run_length_samples_forward_like_the_dense_matrix() {
        let run_length = finished(|rows| {
            let mut log = Vec::new();
            for (round, &sample) in (0..).zip(rows) {
                log_sample(&mut log, round, sample);
            }
            log
        });
        let lens: Vec<usize> = run_length.iter().map(|h| h.samples.len()).collect();
        assert_eq!(lens, [1, ROUNDS as usize, 6], "entries per shard");
        let every_round = finished(|rows| (0..).zip(rows.iter().copied()).collect());

        let (got, want) = (merged(&run_length), merged(&every_round));
        assert_eq!(report_fingerprint(&got), report_fingerprint(&want));
        assert_eq!(got.metrics, want.metrics, "per-epoch timeline");

        let pending = |r: usize| dense().iter().map(|rows| rows[r][0]).sum::<u64>();
        let series: Vec<f64> = (0..ROUNDS as usize)
            .map(|r| pending(r) as f64 / 3.0)
            .collect();
        assert_eq!(got.queue_series.samples(), series);
        assert_eq!(got.pending_at_end, pending(ROUNDS as usize - 1));
        let timeline = got.metrics.expect("metrics on").timeline;
        assert_eq!(
            timeline.iter().map(|row| row.byz_flips).sum::<u64>(),
            ROUNDS
        );
        assert_eq!(
            timeline.iter().map(|row| row.crashed_shards_max).max(),
            Some(1)
        );
        assert_eq!(timeline.first().map(|row| row.crashed_shards_max), Some(0));
    }
}
