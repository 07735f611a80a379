//! The benchmark's declared metrics: name, unit, which way is better and,
//! for end-to-end metrics, the bound. `BENCHMARK.json` at the repository
//! root states the same table for the pipeline; `tests/spec.rs` holds the
//! two together.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric's value arises, which decides how two runs compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured on the host's clocks; noisy, estimated from the fast end.
    HostTime,
    /// A function of the seed (a simulated-time statistic or an exact
    /// allocation count): same seed, same code, same value.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    /// For an [`Kind::Exact`] metric this only has to cover how far the
    /// value moves from seed to seed, because the pipeline takes its
    /// spread over ten seeds; `compare` holds same-seed runs to equality.
    pub bound: f64,
    pub kind: Kind,
}

/// How long one pipeline run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "commits_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::HostTime,
    },
    EndToEnd {
        name: "cpu_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::HostTime,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::HostTime,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_avg_latency_rounds",
        unit: "rounds",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_avg_queue_per_shard",
        unit: "txns",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_max_pending",
        unit: "txns",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "commit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        kind: Kind::Exact,
    },
];

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Per-layer metrics measured once; the prefix is the crate measured.
const PER_LAYER: [(&str, &str, Better); 55] = {
    use Better::{Higher, Lower};
    [
        ("sharding-core.account_map_build_ms", "ms", Lower),
        ("sharding-core.txn_build_ns", "ns", Lower),
        ("adversary.generate_us_per_round", "us", Lower),
        ("adversary.stream_new_ms", "ms", Lower),
        ("adversary.stream_offer_us_per_round", "us", Lower),
        ("adversary.mempool_offer_ns_per_txn", "ns", Lower),
        ("adversary.mempool_drain_us_per_round", "us", Lower),
        ("adversary.ingest_share", "ratio", Lower),
        ("adversary.admit_ratio", "ratio", Higher),
        ("adversary.evicted_share", "ratio", Lower),
        ("adversary.deferred_per_round", "count", Lower),
        ("adversary.distinct_accounts", "count", Higher),
        ("conflict.graph_build_us_per_batch.dense64", "us", Lower),
        ("conflict.color_us_per_batch.dense64", "us", Lower),
        ("conflict.color_us_per_batch.zipf2m", "us", Lower),
        ("conflict.colors_per_batch.dense64", "count", Lower),
        ("conflict.colors_per_batch.zipf2m", "count", Lower),
        ("conflict.edges_per_txn.dense64", "count", Lower),
        ("cluster.hierarchy_build_ms.line64", "ms", Lower),
        ("cluster.hierarchy_build_ms.line256", "ms", Lower),
        ("cluster.home_cluster_ns", "ns", Lower),
        ("schedulers.bds_step_us_per_round", "us", Lower),
        ("schedulers.bds_step_p99_us", "us", Lower),
        ("schedulers.fds_step_us_per_round", "us", Lower),
        ("schedulers.fds_step_p99_us", "us", Lower),
        ("schedulers.firehose_step_us_per_round", "us", Lower),
        ("schedulers.plan_epoch_us_per_txn.bds", "us", Lower),
        ("schedulers.plan_epoch_us_per_txn.edf", "us", Lower),
        ("schedulers.plan_epoch_us_per_txn.fp", "us", Lower),
        ("schedulers.plan_epoch_us_per_txn.ws", "us", Lower),
        ("schedulers.plan_epoch_us_per_txn.spec", "us", Lower),
        ("schedulers.sim_new_ms.firehose", "ms", Lower),
        ("schedulers.rounds_per_epoch.bds", "rounds", Lower),
        ("schedulers.max_epoch_len.bds", "rounds", Lower),
        ("simnet.network_send_deliver_ns_per_msg", "ns", Lower),
        ("simnet.ledger_apply_ns_per_sub", "ns", Lower),
        ("simnet.chain_append_ns_per_sub", "ns", Lower),
        ("simnet.msgs_per_commit.bds", "count", Lower),
        ("simnet.msgs_per_commit.fds", "count", Lower),
        ("runtime.ring_push_drain_ns_per_msg", "ns", Lower),
        ("runtime.hub_send_drain_ns_per_msg", "ns", Lower),
        ("runtime.idle_drain_us_per_round.s64", "us", Lower),
        ("runtime.idle_drain_us_per_round.s256", "us", Lower),
        ("runtime.lockstep_noop_ns_per_step.s64", "ns", Lower),
        ("runtime.net_over_sim_ratio", "ratio", Lower),
        ("runtime.net_bds_us_per_round.s16_w1", "us", Lower),
        ("runtime.net_bds_us_per_round.s256_w1", "us", Lower),
        ("runtime.w2_speedup.s64", "ratio", Higher),
        ("runtime.w2_speedup.s256", "ratio", Higher),
        ("runtime.net_fds_us_per_round.s16", "us", Lower),
        ("metrics.hist_record_ns", "ns", Lower),
        ("metrics.sink_on_overhead_pct", "%", Lower),
        ("scenario.load_plan_us", "us", Lower),
        ("scenario.run_job_overhead_pct", "%", Lower),
        ("scenario.report_row_us", "us", Lower),
    ]
};

/// Per-layer metrics measured once per workload: `<name>.<workload>`.
const PER_WORKLOAD: [(&str, &str); 3] = [
    ("harness.allocs_per_round", "count"),
    ("harness.alloc_kb_per_round", "KiB"),
    ("harness.trace_overhead_pct", "%"),
];

/// Every per-layer metric the traced run reports, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let once = PER_LAYER.iter().map(|&(name, unit, better)| PerLayer {
        name: name.to_string(),
        unit,
        better,
    });
    let per_workload = PER_WORKLOAD.iter().flat_map(|&(name, unit)| {
        Workload::ALL.into_iter().map(move |w| PerLayer {
            name: format!("{name}.{}", w.name()),
            unit,
            better: Better::Lower,
        })
    });
    once.chain(per_workload).collect()
}
