//! The engine's central guarantee: a scenario's report is a pure function
//! of the file plus its seeds — the worker-thread count must not change a
//! single byte. This is the acceptance gate for the parallel executor.

use scenario::{report, run_jobs, Scenario};
use std::path::Path;

fn checked_in(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    Scenario::load(&path).unwrap()
}

#[test]
fn same_bytes_across_thread_counts() {
    // The real checked-in CI smoke scenario, shortened: 3 jobs covering
    // all three schedulers.
    let scenario = checked_in("smoke.scenario");
    let jobs = scenario
        .jobs_with(&[("rounds".to_string(), "250".to_string())])
        .unwrap();
    assert!(jobs.len() >= 2, "needs a plan wide enough to parallelize");

    let single = run_jobs(&jobs, 1, false);
    let csv1 = report::csv_string(&single);
    let jsonl1 = report::jsonl_string(&single);

    for threads in [2, 4] {
        let multi = run_jobs(&jobs, threads, false);
        assert_eq!(
            csv1,
            report::csv_string(&multi),
            "CSV bytes changed at {threads} threads"
        );
        assert_eq!(
            jsonl1,
            report::jsonl_string(&multi),
            "JSONL bytes changed at {threads} threads"
        );
    }
}

#[test]
fn net_faults_same_bytes_across_thread_counts() {
    // The networked engine spawns one OS thread per shard *inside* each
    // job, and the fault plane injects crashes, drops, duplication, and
    // Byzantine votes — none of which may leak scheduling
    // nondeterminism into the report. This is the acceptance gate for
    // `blockshard run scenarios/net_faults.scenario --threads N`.
    let scenario = checked_in("net_faults.scenario");
    let jobs = scenario
        .jobs_with(&[("rounds".to_string(), "450".to_string())])
        .unwrap();
    assert!(jobs.len() >= 4, "the fault grid must stay wide");

    let single = run_jobs(&jobs, 1, false);
    assert!(
        single.iter().any(|o| o.report.faults.crashes > 0),
        "the crash schedule must fire inside the shortened run"
    );
    assert!(
        single.iter().all(|o| o.report.faults.byz_flips > 0),
        "every job flips its Byzantine quota"
    );
    let csv1 = report::csv_string(&single);
    let jsonl1 = report::jsonl_string(&single);

    for threads in [2, 4] {
        let multi = run_jobs(&jobs, threads, false);
        assert_eq!(
            csv1,
            report::csv_string(&multi),
            "faulty net CSV bytes changed at {threads} worker threads"
        );
        assert_eq!(
            jsonl1,
            report::jsonl_string(&multi),
            "faulty net JSONL bytes changed at {threads} worker threads"
        );
    }
}

#[test]
fn rerun_is_reproducible() {
    let scenario = checked_in("dos_burst.scenario");
    let jobs = scenario
        .jobs_with(&[("rounds".to_string(), "200".to_string())])
        .unwrap();
    let a = run_jobs(&jobs, 2, false);
    let b = run_jobs(&jobs, 3, false);
    assert_eq!(report::csv_string(&a), report::csv_string(&b));
}

#[test]
fn firehose_same_bytes_across_thread_counts() {
    // The ingestion plane adds two stateful stages in front of the
    // scheduler — the streaming producer and the mempool — and both run
    // *inside* a worker's job, so the mempool columns must be as
    // thread-count-invariant as every other field. The grid also spans
    // sim and net engines over the same stream, so this doubles as a
    // cheap cross-engine drain check at a round count the goldens don't
    // cover.
    let scenario = checked_in("firehose_shift.scenario");
    let jobs = scenario
        .jobs_with(&[("rounds".to_string(), "60".to_string())])
        .unwrap();
    assert_eq!(jobs.len(), 2, "sim + net over the identical stream");

    let single = run_jobs(&jobs, 1, false);
    assert!(
        single.iter().all(|o| o.mempool.is_some()),
        "every firehose job must surface ingestion counters"
    );
    let csv1 = report::csv_string(&single);
    let jsonl1 = report::jsonl_string(&single);
    assert!(
        jsonl1.contains("\"mempool_depth_max\""),
        "ingestion counters must reach the JSONL report"
    );

    for threads in [2, 4] {
        let multi = run_jobs(&jobs, threads, false);
        assert_eq!(
            csv1,
            report::csv_string(&multi),
            "firehose CSV bytes changed at {threads} worker threads"
        );
        assert_eq!(
            jsonl1,
            report::jsonl_string(&multi),
            "firehose JSONL bytes changed at {threads} worker threads"
        );
    }
}

#[test]
fn campaign_same_bytes_across_thread_counts() {
    // The campaign members are the widest determinism surface in the
    // repo: metrics histograms, per-epoch timelines, the fault plane,
    // and (combined_stress) the ingestion plane, all at once. Every
    // report document — CSV, JSONL, and the metrics timeline — must be
    // byte-identical at 1, 2, and 8 worker threads; this is the
    // acceptance gate for `blockshard campaign quick --threads N`.
    for name in scenario::campaign::CAMPAIGN_SCENARIOS {
        let scenario = checked_in(&format!("{name}.scenario"));
        let jobs = scenario.jobs().unwrap();

        let single = run_jobs(&jobs, 1, false);
        assert!(
            single.iter().all(|o| o.report.metrics.is_some()),
            "{name}: every campaign job runs with the metrics plane on"
        );
        let csv1 = report::csv_string(&single);
        let jsonl1 = report::jsonl_string(&single);
        let timeline1 = report::metrics_jsonl_string(&single);

        for threads in [2, 8] {
            let multi = run_jobs(&jobs, threads, false);
            assert_eq!(
                csv1,
                report::csv_string(&multi),
                "{name}: campaign CSV bytes changed at {threads} threads"
            );
            assert_eq!(
                jsonl1,
                report::jsonl_string(&multi),
                "{name}: campaign JSONL bytes changed at {threads} threads"
            );
            assert_eq!(
                timeline1,
                report::metrics_jsonl_string(&multi),
                "{name}: metrics timeline bytes changed at {threads} threads"
            );
        }
    }
}

/// CSV rows with the job-index column cut out.
fn rows_without_job_index(csv: &str) -> Vec<String> {
    let strip = |row: &str| {
        let cells: Vec<&str> = row.splitn(3, ',').collect();
        format!("{},{}", cells[0], cells[2])
    };
    csv.lines().skip(1).map(strip).collect()
}

#[test]
fn fds_behind_a_mempool_agrees_across_engines() {
    // Legal since both hosts take any protocol and any source: the
    // streaming producer and the mempool in front of FDS. Both engines
    // drain the pipeline a round at a time; the CSV has no engine
    // column, so the two rows must be the same bytes, ingestion
    // counters included.
    let text = "name = fds-firehose\nscheduler = fds\nmetric = line\nshards = 8\n\
                accounts = 4096\nk = 3\nplacement = round-robin\nrounds = 400\nrho = 0.1\n\
                b = 4\nmempool = 8\nstream = zipf:0.6\noffered = 6\n[grid]\nengine = sim, net\n";
    let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
    let outcomes = run_jobs(&jobs, 2, false);
    for o in &outcomes {
        let pool = o.mempool.expect("firehose jobs surface ingestion counters");
        assert!(pool.admitted > 0 && pool.deferred > 0, "{pool:?}");
        assert!(o.report.committed > 0, "{}", o.report.summary());
    }
    let rows = rows_without_job_index(&report::csv_string(&outcomes));
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], rows[1], "sim and net rows differ");
}

#[test]
fn check_order_runs_on_every_chain_keeping_scheduler_and_both_engines() {
    // The order check reads the chains and the recorded transactions
    // after the run, so it no longer cares which protocol or engine
    // produced them. BDS and the zoo serialize conflicting transactions
    // by construction; FDS does under the strict window.
    let text = "name = order\nshards = 8\nk = 3\nrounds = 400\nrho = 0.1\nb = 4\n\
                pipeline-window = 1\ncheck-order = true\n\
                [grid]\nscheduler = bds, edf, fds\nengine = sim, net\n";
    let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
    assert_eq!(jobs.len(), 6);
    let outcomes = run_jobs(&jobs, 2, false);
    for o in &outcomes {
        assert!(o.report.committed > 0, "{}", o.spec.label());
        assert_eq!(o.violations, Some(0), "{}", o.spec.label());
    }
    let rows = rows_without_job_index(&report::csv_string(&outcomes));
    for pair in rows.chunks(2) {
        assert_eq!(pair[0], pair[1], "sim and net rows differ");
    }
    // FCFS keeps no per-shard chains: the key is accepted and checks
    // nothing.
    let text = "name = order\nscheduler = fcfs\nrounds = 50\ncheck-order = true\n";
    let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
    assert_eq!(run_jobs(&jobs, 1, false)[0].violations, None);
}
