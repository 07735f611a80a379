//! Correctness checks on one iteration's outputs, counted against
//! attempts. Every check re-derives the inputs it needs from the seed, so
//! the measured iteration keeps nothing alive for the checks' sake.

use crate::trace::Tracer;
use crate::workloads::{
    adversary_config, firehose_size, firehose_stream, generate, ingest_round, system, Evidence,
    Iteration, Laps, Scale, Workload, FIREHOSE_B, FIREHOSE_LANE, FIREHOSE_RHO, SHARDS,
};
use adversary::{
    validate_trace, IngestPipeline, Mempool, RoundSource, ShardBudgets, TraceRecorder,
};
use schedulers::testkit::report_fingerprint;
use schedulers::{check_cross_shard_order, BdsConfig, BdsSim};
use sharding_core::{AccountMap, Round, Transaction, TxnId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Tally of checks attempted and failed, with one line per failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checks of one kind, `failed` of which failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }
}

/// The schedule `w` injects for `seed`: the adversary's batches, or for
/// the firehose the batches its ingestion admits. For the firehose this
/// also checks that the harness's decomposed ingestion loop is
/// `IngestPipeline` (same batches, same counters as the measured run).
fn injected(
    w: Workload,
    scale: Scale,
    seed: u64,
    ev: &Evidence,
    checks: &mut Checks,
) -> Vec<Vec<Transaction>> {
    let rounds = w.rounds(scale);
    if w != Workload::FirehoseZipf {
        let sys = system(SHARDS);
        let map = AccountMap::random(&sys, 1);
        return generate(
            &sys,
            &map,
            adversary_config(w, scale, seed),
            rounds,
            &mut Laps::start(0),
        );
    }
    let sys = system(firehose_size(scale).0);
    let map = AccountMap::round_robin(&sys);
    let mut stream = firehose_stream(&sys, &map, scale, seed);
    let mut pool = Mempool::new(SHARDS, FIREHOSE_LANE);
    let mut budgets = ShardBudgets::new(SHARDS, FIREHOSE_RHO, FIREHOSE_B);
    let (mut off, mut laps) = (Tracer::off(), Laps::start(0));
    let ours: Vec<Vec<Transaction>> = (0..rounds)
        .map(|r| {
            ingest_round(
                &mut stream,
                &mut pool,
                &mut budgets,
                Round(r),
                &mut off,
                &mut laps,
            )
        })
        .collect();
    let mut pipeline = IngestPipeline::new(firehose_stream(&sys, &map, scale, seed), FIREHOSE_LANE);
    let theirs: Vec<Vec<Transaction>> =
        (0..rounds).map(|r| pipeline.next_round(Round(r))).collect();
    checks.check(
        ours == theirs,
        "decomposed ingestion admits IngestPipeline's batches",
    );
    let reference = (
        pipeline.stats().expect("pipelines carry stats"),
        pipeline.distinct_accounts(),
    );
    checks.check(
        (pool.stats(), stream.distinct_accounts()) == reference && ev.ingest == Some(reference),
        "decomposed ingestion counters equal IngestPipeline's",
    );
    ours
}

/// Counts, over the committed transactions, those that share their commit
/// round with a conflicting one (same account, at least one writer).
fn conflicting_commits(schedule: &[Vec<Transaction>], log: &[(Round, TxnId)]) -> (u64, u64) {
    let commit_round: HashMap<TxnId, Round> = log.iter().map(|&(r, id)| (id, r)).collect();
    // (account, commit round, writes, txn) for every access of a committed txn.
    let mut touches = Vec::new();
    for txn in schedule.iter().flatten() {
        if let Some(&round) = commit_round.get(&txn.id) {
            for a in txn.accesses() {
                touches.push((a.account, round, txn.writes(a.account), txn.id));
            }
        }
    }
    touches.sort_unstable();
    touches.dedup();
    let mut offenders = BTreeSet::new();
    for group in touches.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let txns = group.iter().map(|g| g.3).collect::<BTreeSet<_>>();
        if txns.len() > 1 && group.iter().any(|g| g.2) {
            offenders.extend(txns);
        }
    }
    (commit_round.len() as u64, offenders.len() as u64)
}

/// Runs every per-iteration check of `w` on `it` and returns the schedule
/// it re-derived (the traced run replays it through the layer probes).
///
/// # Panics
///
/// If `it` was run without evidence.
pub fn check_iteration(
    w: Workload,
    scale: Scale,
    seed: u64,
    it: &Iteration,
    checks: &mut Checks,
) -> Vec<Vec<Transaction>> {
    let ev = it
        .evidence
        .as_ref()
        .expect("checked iterations keep evidence");
    let schedule = injected(w, scale, seed, ev, checks);

    match ev.net_chains_verified {
        Some(ok) => checks.check(ok, "NetOutcome::chains_verified"),
        None => {
            let bad = ev.chains.iter().filter(|c| !c.verify()).count();
            checks.count(ev.chains.len() as u64, bad as u64, "LocalChain::verify");
        }
    }

    let generated: u64 = schedule.iter().map(|b| b.len() as u64).sum();
    checks.check(
        generated == it.report.generated && ev.committed_log.len() as u64 == it.report.committed,
        "report counts match the schedule and the commit log",
    );

    // The invariant is the epoch host's (one colour class per commit
    // group). FDS cluster leaders confirm independently, and at its
    // default vote window W = 16 almost half of its commits share their
    // round with a conflicting one, by design (`schedulers::history`).
    if w != Workload::SimFdsLine {
        let (committed, offenders) = conflicting_commits(&schedule, &ev.committed_log);
        checks.count(
            committed,
            offenders,
            "conflicting transactions share a commit round",
        );
    }

    let mut trace = TraceRecorder::new(SHARDS);
    for batch in &schedule {
        trace.record_round(batch.iter());
    }
    let (rho, b) = w.envelope();
    checks.check(
        validate_trace(&trace, rho, b).is_ok(),
        "validate_trace accepts the injected stream",
    );

    match w {
        Workload::NetBdsUniform => {
            let sys = system(SHARDS);
            let map = AccountMap::random(&sys, 1);
            let mut sim = BdsSim::new(&sys, &map, BdsConfig::default());
            for batch in schedule.iter().cloned() {
                sim.step(batch);
            }
            let same_log = sim.committed_log() == ev.committed_log.as_slice();
            let same_report = report_fingerprint(&sim.finish()) == report_fingerprint(&it.report);
            checks.check(
                same_log && same_report,
                "net run equals BdsSim on the same schedule",
            );
        }
        Workload::FirehoseZipf => {
            // Quadratic per account, so only where accounts are many.
            let txns: BTreeMap<TxnId, Transaction> = schedule
                .iter()
                .flatten()
                .map(|t| (t.id, t.clone()))
                .collect();
            let violations = check_cross_shard_order(&ev.chains, &txns);
            checks.check(violations.is_empty(), "check_cross_shard_order");
        }
        _ => {}
    }
    schedule
}
