//! The traced run: per-layer metrics.
//!
//! Each workload runs once more after its own warm-up with spans recorded
//! around every call the harness makes into a layer. What is opaque from
//! outside (conflict, simnet and runtime internals) is measured by replay
//! probes: the layer's public functions driven directly on inputs cut
//! from the workloads' own schedules. End-to-end metrics are never taken
//! from this run.
//!
//! Each metric's doc line in the README says which end-to-end metric it
//! should move and on which workload.

use crate::alloc;
use crate::checks::{check_iteration, Checks};
use crate::clock::process_cpu_ns;
use crate::spec;
use crate::stats::{fastest_sum, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    adversary_config, firehose_size, run_iteration, system, Iteration, Scale, Workload, BURST,
    SHARDS, STEP_CHUNK,
};
use adversary::{AdversaryConfig, StrategyKind};
use cluster::{Hierarchy, LineMetric, UniformMetric};
use conflict::{color_transactions_with, ColoringScratch, ColoringStrategy, ConflictGraph};
use metrics::LatencyHist;
use runtime::{run_lockstep, run_net_fds, run_net_sched, NetHub, NetInbox, RoundGate, ShardPort};
use scenario::report::{csv_row, json_line};
use scenario::{run_job, Scenario};
use schedulers::testkit::report_fingerprint;
use schedulers::{run_bds, BdsConfig, BdsSim, FdsConfig, SchedulerKind};
use sharding_core::{AccountMap, Round, ShardId, SubTransaction, Transaction, TxnId};
use simnet::{FaultPlan, LocalChain, Network, ShardLedger};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Untraced/traced iteration pairs per workload; the two sides' fastest
/// readings give `harness.trace_overhead_pct`.
const TRACED_REPEATS: usize = 2;

/// Epoch-sized batches a replay probe runs over: the head of the schedule,
/// far enough to include the burst epoch.
const PROBE_BATCHES: usize = 64;

/// A probe repeats its body until it has timed at least this long: on
/// this class of host nothing shorter than ~25 ms repeats.
const MIN_TIMED_NS: f64 = 25e6;

/// The traced run's results.
pub struct TraceRun {
    /// Every per-layer metric, in [`spec::per_layer`] order.
    pub metrics: Vec<(String, f64)>,
    pub checks: Checks,
    pub tracer: Tracer,
}

impl TraceRun {
    /// Span table per workload, then every metric with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in Workload::ALL {
            out += &format!(
                "spans of {} over {TRACED_REPEATS} traced iterations (self = total minus child cover)\n",
                w.name()
            );
            for (name, count, total, own) in self.tracer.summary(w.name()) {
                out += &format!(
                    "  {name:<34} x{count:<6} total {:>10.3} ms   self {:>10.3} ms\n",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        for ((name, value), m) in self.metrics.iter().zip(spec::per_layer()) {
            out += &format!("  {name:<48} {value:>16.4} {}\n", m.unit);
        }
        for failure in &self.checks.failures {
            out += &format!("  CHECK FAILED: {failure}\n");
        }
        out
    }

    /// Writes `trace-<workload>.jsonl` under `dir`.
    pub fn write_spans(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for w in Workload::ALL {
            let path = dir.join(format!("trace-{}.jsonl", w.name()));
            let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
            self.tracer.write_jsonl(w.name(), &mut file)?;
            std::io::Write::flush(&mut file)?;
        }
        Ok(())
    }
}

/// Named values collected in any order, emitted in declared order.
#[derive(Default)]
struct Collected(Vec<(String, f64)>);

impl Collected {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The values in [`spec::per_layer`] order.
    ///
    /// # Panics
    ///
    /// If a declared metric was not measured or one was measured twice.
    fn in_declared_order(mut self) -> Vec<(String, f64)> {
        let ordered: Vec<(String, f64)> = spec::per_layer()
            .into_iter()
            .map(|m| {
                let at = self
                    .0
                    .iter()
                    .position(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("{} was not measured", m.name));
                self.0.swap_remove(at)
            })
            .collect();
        assert!(
            self.0.is_empty(),
            "undeclared metrics measured: {:?}",
            self.0
        );
        ordered
    }
}

/// Rounds of a fixed-size probe run: `full` when measuring, a twentieth
/// of it in the crate's own (unoptimised) tests.
fn probe_rounds(scale: Scale, full: u64) -> u64 {
    match scale {
        Scale::Full => full,
        Scale::Mini => full / 20,
    }
}

/// Wall nanoseconds of one call of `f`.
fn time_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// Mean wall nanoseconds per call of `body`, repeated until
/// [`MIN_TIMED_NS`] have been timed. `body` returns how many operations
/// the call performed; the result is per operation.
fn per_op_ns(mut body: impl FnMut() -> u64) -> f64 {
    per_op_ns_with(|| (), |()| body())
}

/// [`per_op_ns`] with an untimed `setup` before each timed call.
fn per_op_ns_with<S>(mut setup: impl FnMut() -> S, mut body: impl FnMut(S) -> u64) -> f64 {
    let (mut total_ns, mut ops) = (0.0, 0u64);
    while total_ns < MIN_TIMED_NS {
        let state = setup();
        let start = Instant::now();
        ops += body(state);
        total_ns += start.elapsed().as_nanos() as f64;
    }
    total_ns / ops as f64
}

/// The head of the schedule cut into consecutive windows of
/// `rounds_per_epoch` rounds, each flattened into the batch an epoch
/// leader would colour.
fn epoch_batches(schedule: &[Vec<Transaction>], rounds_per_epoch: f64) -> Vec<Vec<Transaction>> {
    schedule
        .chunks((rounds_per_epoch.round() as usize).max(1))
        .map(|window| window.iter().flatten().cloned().collect::<Vec<_>>())
        .filter(|batch| !batch.is_empty())
        .take(PROBE_BATCHES)
        .collect()
}

/// What the traced iterations of one workload leave for the probes.
struct Captured {
    schedule: Vec<Vec<Transaction>>,
    warm: Iteration,
    /// Untraced timed region at its fastest, CPU nanoseconds.
    plain_cpu_ns: f64,
}

/// Warm-up (allocation-counted and checked), then alternating untraced and
/// traced iterations of `w`.
fn trace_workload(
    w: Workload,
    scale: Scale,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Collected,
    checks: &mut Checks,
) -> Captured {
    tracer.set_workload(w.name());
    // Allocation counts are exact cold or warm, so the warm-up iteration
    // carries them and the timed ones run with counting off.
    alloc::start();
    let warm = run_iteration(w, scale, seed, &mut Tracer::off(), true);
    alloc::stop();
    let rounds = w.rounds(scale) as f64;
    m.put(
        format!("harness.allocs_per_round.{}", w.name()),
        warm.region_allocs.allocs as f64 / rounds,
    );
    m.put(
        format!("harness.alloc_kb_per_round.{}", w.name()),
        warm.region_allocs.bytes as f64 / 1024.0 / rounds,
    );
    let schedule = check_iteration(w, scale, seed, &warm, checks);
    let reference = report_fingerprint(&warm.report);

    // Per side, the timed region's segments of every iteration: the two
    // sides are compared the way the end-to-end metrics are estimated.
    let (mut plain_wall, mut traced_wall, mut plain_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut same = true;
    for pair in 0..TRACED_REPEATS {
        // Alternate which side goes first, so that whatever the previous
        // iteration leaves behind (heap state, caches) favours neither.
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let it = if traced {
                tracer.span("iteration", |t| run_iteration(w, scale, seed, t, false))
            } else {
                run_iteration(w, scale, seed, &mut Tracer::off(), false)
            };
            same &= report_fingerprint(&it.report) == reference;
            if traced {
                traced_wall.push(it.run.wall_ns);
            } else {
                plain_wall.push(it.run.wall_ns);
                plain_cpu.push(it.run.cpu_ns);
            }
        }
    }
    checks.check(same, "report_fingerprint equals the warm-up's");
    m.put(
        format!("harness.trace_overhead_pct.{}", w.name()),
        (fastest_sum(&traced_wall) / fastest_sum(&plain_wall) - 1.0) * 100.0,
    );
    Captured {
        schedule,
        warm,
        plain_cpu_ns: fastest_sum(&plain_cpu),
    }
}

/// Per-layer metrics read straight off the workloads' spans and reports.
fn span_metrics(t: &Tracer, scale: Scale, cap: &[Captured; 4], m: &mut Collected) {
    let [bds, fds, _, fire] = Workload::ALL;
    let reps = TRACED_REPEATS as f64;
    let per_round =
        |w: Workload, name: &str| t.total_ns(w.name(), name) / reps / w.rounds(scale) as f64;
    let mean_ms = |w: Workload, name: &str| t.total_ns(w.name(), name) / reps / 1e6;

    m.put(
        "sharding-core.account_map_build_ms",
        mean_ms(fire, "sharding-core.account_map"),
    );
    m.put(
        "adversary.generate_us_per_round",
        per_round(bds, "adversary.generate") / 1e3,
    );
    m.put(
        "adversary.stream_new_ms",
        mean_ms(fire, "adversary.stream_new"),
    );
    m.put(
        "schedulers.sim_new_ms.firehose",
        mean_ms(fire, "schedulers.sim_new"),
    );

    let offered = firehose_size(scale).1 as f64;
    let ingest = [
        "adversary.stream_offer",
        "adversary.mempool_offer",
        "adversary.mempool_drain",
    ];
    m.put(
        "adversary.stream_offer_us_per_round",
        per_round(fire, ingest[0]) / 1e3,
    );
    m.put(
        "adversary.mempool_offer_ns_per_txn",
        per_round(fire, ingest[1]) / offered,
    );
    m.put(
        "adversary.mempool_drain_us_per_round",
        per_round(fire, ingest[2]) / 1e3,
    );
    let ingest_ns: f64 = ingest
        .iter()
        .map(|name| t.total_ns(fire.name(), name))
        .sum();
    m.put(
        "adversary.ingest_share",
        ingest_ns / t.total_ns(fire.name(), "run"),
    );

    let fire_cap = &cap[3];
    let ev = fire_cap
        .warm
        .evidence
        .as_ref()
        .expect("warm-up keeps evidence");
    let (stats, distinct) = ev.ingest.expect("the firehose reports ingestion counters");
    let fire_rounds = fire.rounds(scale) as f64;
    m.put(
        "adversary.admit_ratio",
        stats.admitted as f64 / (offered * fire_rounds),
    );
    m.put(
        "adversary.evicted_share",
        stats.evicted as f64 / (offered * fire_rounds),
    );
    m.put(
        "adversary.deferred_per_round",
        stats.deferred as f64 / fire_rounds,
    );
    m.put("adversary.distinct_accounts", distinct as f64);

    for (w, tag, chunk) in [
        (bds, "bds", STEP_CHUNK),
        (fds, "fds", STEP_CHUNK),
        (fire, "firehose", 1),
    ] {
        m.put(
            format!("schedulers.{tag}_step_us_per_round"),
            per_round(w, "schedulers.step") / 1e3,
        );
        if w != fire {
            let per_chunk: Vec<f64> = t
                .durations(w.name(), "schedulers.step")
                .iter()
                .map(|ns| ns / chunk as f64 / 1e3)
                .collect();
            m.put(
                format!("schedulers.{tag}_step_p99_us"),
                percentile(&per_chunk, 99.0),
            );
        }
    }

    let bds_report = &cap[0].warm.report;
    m.put(
        "schedulers.rounds_per_epoch.bds",
        bds_report.rounds as f64 / bds_report.epochs as f64,
    );
    m.put(
        "schedulers.max_epoch_len.bds",
        bds_report.max_epoch_len as f64,
    );
    for (i, tag) in [(0, "bds"), (1, "fds")] {
        let r = &cap[i].warm.report;
        m.put(
            format!("simnet.msgs_per_commit.{tag}"),
            r.messages as f64 / r.committed as f64,
        );
    }

    // The same rounds through the simulator, for the net engine's cost
    // relative to it.
    let net_cap = &cap[2];
    let sys = system(SHARDS);
    let map = AccountMap::random(&sys, 1);
    let sim_cpu_ns = (0..TRACED_REPEATS)
        .map(|_| {
            let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
            let schedule = net_cap.schedule.clone();
            let start = process_cpu_ns();
            for batch in schedule {
                sim.step(batch);
            }
            black_box(sim.finish());
            (process_cpu_ns() - start) as f64
        })
        .fold(f64::MAX, f64::min);
    m.put(
        "runtime.net_over_sim_ratio",
        net_cap.plain_cpu_ns / sim_cpu_ns,
    );
}

/// `conflict` and `schedulers::plan_epoch` replayed on epoch-sized batches.
fn conflict_probes(scale: Scale, cap: &[Captured; 4], m: &mut Collected, checks: &mut Checks) {
    let per_epoch = |c: &Captured| c.warm.report.rounds as f64 / c.warm.report.epochs.max(1) as f64;
    let dense = epoch_batches(&cap[0].schedule, per_epoch(&cap[0]));
    let zipf = epoch_batches(&cap[3].schedule, per_epoch(&cap[3]));
    let txns = |batches: &[Vec<Transaction>]| batches.iter().map(Vec::len).sum::<usize>() as f64;

    let mut edges = 0usize;
    let build_ns = per_op_ns(|| {
        for batch in &dense {
            edges = edges.wrapping_add(black_box(ConflictGraph::build(batch)).edge_count());
        }
        dense.len() as u64
    });
    m.put("conflict.graph_build_us_per_batch.dense64", build_ns / 1e3);
    let dense_edges: usize = dense
        .iter()
        .map(|b| ConflictGraph::build(b).edge_count())
        .sum();
    m.put(
        "conflict.edges_per_txn.dense64",
        dense_edges as f64 / txns(&dense),
    );

    let universe = firehose_size(scale).0;
    for (tag, batches, accounts) in [("dense64", &dense, SHARDS), ("zipf2m", &zipf, universe)] {
        let mut scratch = ColoringScratch::with_accounts(accounts);
        let mut colors = 0u64;
        let mut proper = true;
        for batch in batches.iter() {
            let coloring = color_transactions_with(ColoringStrategy::Greedy, batch, &mut scratch);
            colors += u64::from(coloring.num_colors());
            proper &= coloring.is_proper(&ConflictGraph::build(batch));
        }
        checks.check(proper, "greedy colouring of replayed batches is proper");
        m.put(
            format!("conflict.colors_per_batch.{tag}"),
            colors as f64 / batches.len() as f64,
        );
        let ns = per_op_ns(|| {
            for batch in batches.iter() {
                black_box(color_transactions_with(
                    ColoringStrategy::Greedy,
                    batch,
                    &mut scratch,
                ));
            }
            batches.len() as u64
        });
        m.put(format!("conflict.color_us_per_batch.{tag}"), ns / 1e3);
    }

    for kind in [
        SchedulerKind::Bds,
        SchedulerKind::Edf,
        SchedulerKind::FixedPriority,
        SchedulerKind::WorkSteal,
        SchedulerKind::Speculative,
    ] {
        let mut policy = kind
            .epoch_policy(ColoringStrategy::Greedy, SHARDS, SHARDS)
            .expect("epoch-hosted kinds have a policy");
        let safe = dense
            .iter()
            .enumerate()
            .all(|(e, batch)| policy.plan_epoch(e as u64, batch).is_safe_for(batch));
        checks.check(safe, "plan_epoch of replayed batches is conflict-free");
        let ns = per_op_ns(|| {
            for (e, batch) in dense.iter().enumerate() {
                black_box(policy.plan_epoch(e as u64, batch));
            }
            txns(&dense) as u64
        });
        m.put(
            format!("schedulers.plan_epoch_us_per_txn.{}", kind.name()),
            ns / 1e3,
        );
    }
}

/// `cluster`, `sharding-core`, `simnet` and `metrics` micro-probes.
fn substrate_probes(scale: Scale, cap: &[Captured; 4], m: &mut Collected, checks: &mut Checks) {
    for (tag, shards) in [("line64", 64usize), ("line256", 256)] {
        let metric = LineMetric::new(shards);
        let ns = per_op_ns(|| {
            black_box(Hierarchy::build_with_sublayers(
                &metric,
                FdsConfig::default().sublayers,
            ));
            1
        });
        m.put(format!("cluster.hierarchy_build_ms.{tag}"), ns / 1e6);
    }
    let metric = LineMetric::new(SHARDS);
    let hierarchy = Hierarchy::build_with_sublayers(&metric, FdsConfig::default().sublayers);
    let ns = per_op_ns(|| {
        for home in 0..SHARDS as u32 {
            for x in 0..SHARDS as u64 {
                black_box(hierarchy.home_cluster(ShardId(home), x));
            }
        }
        (SHARDS * SHARDS) as u64
    });
    m.put("cluster.home_cluster_ns", ns);

    let sys = system(SHARDS);
    let map = AccountMap::random(&sys, 1);
    let touched: Vec<ShardId> = (0..4).map(|i| ShardId(i * 16 + 3)).collect();
    let ns = per_op_ns(|| {
        for id in 0..1_000u64 {
            black_box(
                Transaction::writing_shards(TxnId(id), touched[0], Round(id), &map, &touched)
                    .expect("shards own accounts"),
            );
        }
        1_000
    });
    m.put("sharding-core.txn_build_ns", ns);

    let uniform = UniformMetric::new(SHARDS);
    let ns = per_op_ns_with(
        || Network::<u64>::new(&uniform),
        |mut net| {
            for round in 0..8u64 {
                for from in sys.shard_ids() {
                    net.send_many(from, sys.shard_ids(), Round(round), round);
                }
                black_box(net.deliver_due(Round(round + 1)));
            }
            8 * (SHARDS * SHARDS) as u64
        },
    );
    m.put("simnet.network_send_deliver_ns_per_msg", ns);

    // Ledger and chain on the subtransactions of the schedule's head,
    // grouped per round and destination as the simulators commit them.
    let head = &cap[0].schedule[..probe_rounds(scale, 4_000) as usize];
    let mut rounds_subs: Vec<Vec<Vec<SubTransaction>>> = Vec::with_capacity(head.len());
    for batch in head {
        let mut per_dest = vec![Vec::new(); SHARDS];
        for sub in batch.iter().flat_map(|t| &t.subs) {
            per_dest[sub.dest.index()].push(sub.clone());
        }
        rounds_subs.push(per_dest);
    }
    let subs: u64 = rounds_subs.iter().flatten().map(|s| s.len() as u64).sum();
    let ns = per_op_ns_with(
        || -> Vec<ShardLedger> {
            sys.shard_ids()
                .map(|s| ShardLedger::new(s, &map, BdsConfig::default().initial_balance))
                .collect()
        },
        |mut ledgers| {
            for sub in rounds_subs.iter().flatten().flatten() {
                let ledger = &mut ledgers[sub.dest.index()];
                if black_box(ledger.check(sub)) {
                    ledger.apply(sub);
                }
            }
            subs
        },
    );
    m.put("simnet.ledger_apply_ns_per_sub", ns);
    let mut verified = true;
    let ns = per_op_ns_with(
        || rounds_subs.clone(),
        |blocks| {
            let mut chains: Vec<LocalChain> = sys.shard_ids().map(LocalChain::new).collect();
            for (round, per_dest) in blocks.into_iter().enumerate() {
                for (dest, subs) in per_dest.into_iter().enumerate() {
                    if !subs.is_empty() {
                        chains[dest].append_block(subs, Round(round as u64));
                    }
                }
            }
            verified &= chains.iter().all(LocalChain::verify);
            subs
        },
    );
    checks.check(verified, "chains appended by the probe verify");
    m.put("simnet.chain_append_ns_per_sub", ns);

    let mut hist = LatencyHist::new();
    let ns = per_op_ns(|| {
        for v in 0..100_000u64 {
            hist.record(black_box(v.wrapping_mul(0x9E37_79B9) % 5_000));
        }
        100_000
    });
    black_box(hist.count());
    m.put("metrics.hist_record_ns", ns);

    // The metrics sink on against off, on the schedule's first rounds.
    let head = &cap[0].schedule[..probe_rounds(scale, 20_000) as usize];
    let mut best = [f64::MAX; 2];
    for _ in 0..TRACED_REPEATS {
        for (on, slot) in best.iter_mut().enumerate() {
            let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
            if on == 1 {
                sim.enable_metrics();
            }
            let schedule = head.to_vec();
            *slot = slot.min(time_ns(|| {
                for batch in schedule {
                    sim.step(batch);
                }
                sim.finish()
            }));
        }
    }
    m.put(
        "metrics.sink_on_overhead_pct",
        (best[1] / best[0] - 1.0) * 100.0,
    );
}

fn no_size(_: &u64) -> usize {
    8
}

/// Wall seconds of a networked BDS run of `rounds` rounds on `shards`
/// shards with `workers` workers, steady uniform load.
fn net_bds_wall_s(shards: usize, rounds: u64, workers: usize, seed: u64) -> f64 {
    let sys = sharding_core::SystemConfig {
        shards,
        accounts: shards,
        ..system(shards)
    };
    let map = AccountMap::random(&sys, 1);
    let acfg = AdversaryConfig {
        strategy: StrategyKind::UniformRandom,
        ..adversary_config(Workload::SimBdsUniform, Scale::Full, seed)
    };
    let metric = UniformMetric::new(shards);
    time_ns(|| {
        run_net_sched(
            &sys,
            &map,
            &acfg,
            Round(rounds),
            &metric,
            BdsConfig::default(),
            &FaultPlan::default(),
            SchedulerKind::Bds,
            workers,
            false,
        )
    }) / 1e9
}

/// `runtime` internals and scaling. The only place the benchmark runs
/// more than one thread; these numbers are informational and noisy.
fn runtime_probes(scale: Scale, seed: u64, m: &mut Collected) {
    let ns = per_op_ns(|| {
        let (mut tx, mut rx) = runtime::ring::spsc::<u64>(128);
        let mut sum = 0u64;
        for lap in 0..1_000u64 {
            for i in 0..64 {
                tx.push(lap + i);
            }
            rx.drain_with(|v| sum = sum.wrapping_add(v));
        }
        black_box(sum);
        64_000
    });
    m.put("runtime.ring_push_drain_ns_per_msg", ns);

    let inert = FaultPlan::default();
    let uniform = UniformMetric::new(SHARDS);
    let hub: NetHub<u64> = NetHub::new(&uniform, no_size).expect("64 shards");
    let ids: Vec<ShardId> = (0..SHARDS as u32).map(ShardId).collect();
    let mut ports: Vec<ShardPort<'_, u64>> = ids
        .iter()
        .map(|&s| ShardPort::new(&hub, s, &inert))
        .collect();
    let mut inboxes: Vec<NetInbox<u64>> = ids.iter().map(|&s| NetInbox::new(&hub, s)).collect();
    let mut buf = Vec::new();
    let mut round = 0u64;
    let ns = per_op_ns(|| {
        for _ in 0..16 {
            for port in &mut ports {
                for &to in &ids {
                    port.send(to, round, round);
                }
                port.flush();
            }
            round += 1;
            for inbox in &mut inboxes {
                inbox.drain_into(round, &mut buf);
                black_box(buf.len());
            }
        }
        16 * (SHARDS * SHARDS) as u64
    });
    drop(ports);
    m.put("runtime.hub_send_drain_ns_per_msg", ns);

    for (tag, shards, rounds) in [("s64", 64usize, 400u64), ("s256", 256, 40)] {
        let metric = UniformMetric::new(shards);
        let hub: NetHub<u64> = NetHub::new(&metric, no_size).expect("at least one shard");
        let mut inboxes: Vec<NetInbox<u64>> = (0..shards as u32)
            .map(|s| NetInbox::new(&hub, ShardId(s)))
            .collect();
        let mut buf = Vec::new();
        let mut round = 0u64;
        let ns = per_op_ns(|| {
            for _ in 0..rounds {
                for inbox in &mut inboxes {
                    inbox.drain_into(round, &mut buf);
                }
                round += 1;
            }
            rounds
        });
        m.put(format!("runtime.idle_drain_us_per_round.{tag}"), ns / 1e3);
    }

    let ns = per_op_ns(|| {
        let gate = RoundGate::new(SHARDS);
        let slots: Vec<parking_lot::Mutex<u64>> =
            (0..SHARDS).map(|_| parking_lot::Mutex::new(0)).collect();
        run_lockstep(&gate, &slots, 2_000, 1, |count, _, _| *count += 1);
        2_000 * SHARDS as u64
    });
    m.put("runtime.lockstep_noop_ns_per_step.s64", ns);

    // Fastest wall microseconds per round of a networked BDS run.
    let net_us_per_round = |shards, full_rounds, workers| {
        let rounds = probe_rounds(scale, full_rounds);
        (0..TRACED_REPEATS)
            .map(|_| net_bds_wall_s(shards, rounds, workers, seed))
            .fold(f64::MAX, f64::min)
            * 1e6
            / rounds as f64
    };
    m.put(
        "runtime.net_bds_us_per_round.s16_w1",
        net_us_per_round(16, 4_000, 1),
    );
    m.put(
        "runtime.w2_speedup.s64",
        net_us_per_round(64, 2_000, 1) / net_us_per_round(64, 2_000, 2),
    );
    let s256_w1 = net_us_per_round(256, 160, 1);
    m.put("runtime.net_bds_us_per_round.s256_w1", s256_w1);
    m.put(
        "runtime.w2_speedup.s256",
        s256_w1 / net_us_per_round(256, 160, 2),
    );

    // Thread-per-shard is hard-wired in `run_net_fds`, which is why net
    // FDS is not an end-to-end workload.
    let sys = sharding_core::SystemConfig {
        shards: 16,
        accounts: 16,
        ..system(16)
    };
    let map = AccountMap::random(&sys, 1);
    let acfg = AdversaryConfig {
        strategy: StrategyKind::UniformRandom,
        ..adversary_config(Workload::SimFdsLine, Scale::Full, seed)
    };
    let line = LineMetric::new(16);
    let fds_rounds = probe_rounds(scale, 2_000);
    let wall_ns = (0..TRACED_REPEATS)
        .map(|_| {
            time_ns(|| {
                run_net_fds(
                    &sys,
                    &map,
                    &acfg,
                    Round(fds_rounds),
                    &line,
                    FdsConfig::default(),
                    &inert,
                    false,
                )
            })
        })
        .fold(f64::MAX, f64::min);
    m.put(
        "runtime.net_fds_us_per_round.s16",
        wall_ns / 1e3 / fds_rounds as f64,
    );
}

/// What `blockshard run` adds on top of the direct call.
fn scenario_probes(scale: Scale, seed: u64, m: &mut Collected, checks: &mut Checks) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios/zoo_quick.scenario");
    let ns = per_op_ns(|| {
        let scenario = Scenario::load(&path).expect("scenarios/zoo_quick.scenario loads");
        black_box(scenario.jobs().expect("zoo_quick plans"));
        1
    });
    m.put("scenario.load_plan_us", ns / 1e3);

    // One job equal to `sim_bds_uniform` at 20 000 rounds.
    let rounds = probe_rounds(scale, 20_000);
    let text = format!(
        "name = bench-probe\nscheduler = bds\nmetric = uniform\nshards = {SHARDS}\nk = 8\n\
         placement = random:1\nrounds = {rounds}\nrho = 0.15\nb = {BURST}\n\
         strategy = count-burst:auto\nseed = {seed}\n"
    );
    let jobs = Scenario::parse_str(&text, "benchmark probe")
        .and_then(|s| s.jobs())
        .expect("the probe scenario is valid");
    let sys = system(SHARDS);
    let map = AccountMap::random(&sys, 1);
    let acfg = AdversaryConfig {
        strategy: StrategyKind::CountBurst {
            burst_round: rounds / 10,
            count: BURST,
        },
        ..adversary_config(Workload::SimBdsUniform, Scale::Full, seed)
    };
    let (mut via_job, mut direct) = (f64::MAX, f64::MAX);
    let mut outcome = None;
    let mut same = true;
    for _ in 0..TRACED_REPEATS {
        let start = Instant::now();
        let report = black_box(run_bds(&sys, &map, &acfg, Round(rounds)));
        direct = direct.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        let o = run_job(&jobs[0]);
        via_job = via_job.min(start.elapsed().as_nanos() as f64);
        same &= report_fingerprint(&o.report) == report_fingerprint(&report);
        outcome = Some(o);
    }
    checks.check(same, "run_job's report equals the direct run_bds call's");
    m.put(
        "scenario.run_job_overhead_pct",
        (via_job / direct - 1.0) * 100.0,
    );

    let outcome = outcome.expect("TRACED_REPEATS > 0");
    let ns = per_op_ns(|| {
        for _ in 0..100 {
            black_box(csv_row(&outcome));
            black_box(json_line(&outcome));
        }
        100
    });
    m.put("scenario.report_row_us", ns / 1e3);
}

/// The whole traced run.
pub fn run_trace(seed: u64, scale: Scale) -> TraceRun {
    let mut m = Collected::default();
    let mut checks = Checks::default();
    // Spans per traced iteration: a handful of set-up spans plus one per
    // step chunk, or four per firehose round.
    let spans_per_iteration: usize = Workload::ALL
        .iter()
        .map(|w| {
            16 + 4 * w.rounds(scale) as usize
                / if *w == Workload::FirehoseZipf {
                    1
                } else {
                    STEP_CHUNK
                }
        })
        .sum();
    let mut tracer = Tracer::on(TRACED_REPEATS * spans_per_iteration);
    let captured =
        Workload::ALL.map(|w| trace_workload(w, scale, seed, &mut tracer, &mut m, &mut checks));
    span_metrics(&tracer, scale, &captured, &mut m);
    conflict_probes(scale, &captured, &mut m, &mut checks);
    substrate_probes(scale, &captured, &mut m, &mut checks);
    runtime_probes(scale, seed, &mut m);
    scenario_probes(scale, seed, &mut m, &mut checks);
    TraceRun {
        metrics: m.in_declared_order(),
        checks,
        tracer,
    }
}
