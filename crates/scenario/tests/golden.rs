//! Golden-file coverage for the scenario parser and planner: each
//! `tests/golden/X.scenario` must expand to exactly the plan recorded in
//! `tests/golden/X.plan`. Regenerate a plan after an intentional format
//! change with:
//!
//! ```sh
//! cargo run --bin blockshard -- plan crates/scenario/tests/golden/X.scenario \
//!     > crates/scenario/tests/golden/X.plan
//! ```

use scenario::{report, run_jobs, Scenario};
use std::path::Path;

fn check_golden(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let s = Scenario::load(&dir.join(format!("{name}.scenario"))).unwrap();
    let jobs = s.jobs().unwrap();
    let got = s.plan_string(&jobs);
    let want = std::fs::read_to_string(dir.join(format!("{name}.plan"))).unwrap();
    assert_eq!(
        got, want,
        "plan for `{name}` drifted from its golden file (see module docs to regenerate)"
    );
}

#[test]
fn sweep_scenario_matches_golden_plan() {
    check_golden("sweep");
}

#[test]
fn flat_scenario_matches_golden_plan() {
    check_golden("flat");
}

/// The checked-in report golden: running scenario `name` at 500 rounds
/// must reproduce `tests/golden/<file>` byte for byte. This is the same
/// invocation the CI scenario-smoke step diffs, so a simulation-behavior
/// change (intended or not) fails here first with a readable assert.
/// Regenerate after an intentional behavior change by running the run
/// command and copying the CSV it writes (reports are named after the
/// scenario's `name =` line, e.g. `dos-burst.csv`):
///
/// ```sh
/// cargo run --release --bin blockshard -- run scenarios/smoke.scenario \
///     scenarios/dos_burst.scenario scenarios/net_smoke.scenario \
///     scenarios/net_faults.scenario --rounds 500 --out /tmp/golden
/// cp /tmp/golden/smoke.csv crates/scenario/tests/golden/smoke_rounds500.csv
/// cp /tmp/golden/dos-burst.csv crates/scenario/tests/golden/dos_burst_rounds500.csv
/// cp /tmp/golden/net-smoke.csv crates/scenario/tests/golden/net_smoke_rounds500.csv
/// cp /tmp/golden/net-faults.csv crates/scenario/tests/golden/net_faults_rounds500.csv
/// ```
fn check_report_golden(name: &str, file: &str) {
    check_report_golden_at(name, file, 500, &[]);
}

fn check_report_golden_with(name: &str, file: &str, extra: &[(String, String)]) {
    check_report_golden_at(name, file, 500, extra);
}

fn check_report_golden_at(name: &str, file: &str, rounds: u64, extra: &[(String, String)]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenario = Scenario::load(&dir.join("../../scenarios").join(name)).unwrap();
    let mut overrides = vec![("rounds".to_string(), rounds.to_string())];
    overrides.extend_from_slice(extra);
    let jobs = scenario.jobs_with(&overrides).unwrap();
    let outcomes = run_jobs(&jobs, 2, false);
    let got = report::csv_string(&outcomes);
    let want = std::fs::read_to_string(dir.join("tests/golden").join(file)).unwrap();
    assert_eq!(
        got, want,
        "report for `{name}` at {rounds} rounds drifted from its golden file \
         (simulation behavior changed — see the docs above to regenerate)"
    );
}

#[test]
fn smoke_report_matches_golden() {
    check_report_golden("smoke.scenario", "smoke_rounds500.csv");
}

#[test]
fn dos_burst_report_matches_golden() {
    check_report_golden("dos_burst.scenario", "dos_burst_rounds500.csv");
}

#[test]
fn net_smoke_report_matches_golden() {
    check_report_golden("net_smoke.scenario", "net_smoke_rounds500.csv");
}

#[test]
fn net_faults_report_matches_golden() {
    check_report_golden("net_faults.scenario", "net_faults_rounds500.csv");
}

/// The tentpole guarantee, pinned on the checked-in scenario itself:
/// running `net_smoke` (a fault-free `engine = net` grid) with the
/// engine overridden back to `sim` must reproduce the **networked**
/// golden byte for byte — the CSV deliberately has no engine column, so
/// the two engines are interchangeable wherever no faults are injected.
#[test]
fn net_smoke_with_sim_engine_is_byte_identical() {
    check_report_golden_with(
        "net_smoke.scenario",
        "net_smoke_rounds500.csv",
        &[("engine".to_string(), "sim".to_string())],
    );
}

/// The scheduler-zoo head-to-head: all six net-capable schedulers over
/// both engines at 200 rounds. Pins two things at once — each zoo
/// policy's exact numbers on the shared seeded workload, and the
/// sim/net byte-equality of every row pair (the golden stores both
/// engines' rows; the CSV has no engine column, so identical rows *are*
/// the interchangeability proof). Regenerate like the 500-round goldens
/// but with `--rounds 200`:
///
/// ```sh
/// cargo run --release --bin blockshard -- run scenarios/zoo_quick.scenario \
///     --rounds 200 --out /tmp/golden
/// cp /tmp/golden/zoo-quick.csv crates/scenario/tests/golden/zoo_quick_rounds200.csv
/// ```
#[test]
fn zoo_quick_report_matches_golden() {
    check_report_golden_at("zoo_quick.scenario", "zoo_quick_rounds200.csv", 200, &[]);
}

/// The ingestion-plane goldens: both firehose scenarios at 120 rounds,
/// pinning the streamed workload, the admission decisions, and the four
/// mempool report columns. `firehose_shift`'s grid spans `engine =
/// sim, net` over one stream — the CSV has no engine column, so the
/// golden holding two byte-identical rows *is* the proof that the
/// networked runtime pre-drains exactly the batches the simulator
/// drains live, ingestion counters included. Regenerate like the other
/// report goldens but with `--rounds 120`:
///
/// ```sh
/// cargo run --release --bin blockshard -- run scenarios/firehose_shift.scenario \
///     scenarios/firehose_zipf.scenario --rounds 120 --out /tmp/golden
/// cp /tmp/golden/firehose-shift.csv crates/scenario/tests/golden/firehose_shift_rounds120.csv
/// cp /tmp/golden/firehose-zipf.csv crates/scenario/tests/golden/firehose_zipf_rounds120.csv
/// ```
#[test]
fn firehose_shift_report_matches_golden_and_engines_agree() {
    check_report_golden_at(
        "firehose_shift.scenario",
        "firehose_shift_rounds120.csv",
        120,
        &[],
    );
    // Make the two-identical-rows property explicit rather than latent
    // in the golden bytes.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let golden = std::fs::read_to_string(dir.join("firehose_shift_rounds120.csv")).unwrap();
    let rows: Vec<&str> = golden.lines().skip(1).collect();
    assert_eq!(rows.len(), 2);
    let strip_job = |r: &str| {
        r.splitn(3, ',')
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, f)| f.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    assert_eq!(
        strip_job(rows[0]),
        strip_job(rows[1]),
        "sim and net rows must be identical apart from the job index"
    );
}

#[test]
fn firehose_zipf_report_matches_golden() {
    check_report_golden_at(
        "firehose_zipf.scenario",
        "firehose_zipf_rounds120.csv",
        120,
        &[],
    );
}

/// The campaign goldens: every member of `blockshard campaign quick`
/// at its checked-in 200-round shape. 200 rounds IS the base
/// `rounds =` of every campaign scenario, so the campaign runner
/// reproduces these files byte for byte — the CI campaign-smoke job
/// diffs all five against a real `campaign quick --threads 2` run.
/// Beyond byte-equality, every row must carry *non-empty* percentile
/// and utilization columns: the campaign exists to exercise the
/// metrics plane, so a row silently falling back to `metrics = off`
/// (four trailing empty fields) is a bug even if the golden matches.
/// Regenerate after an intentional behavior change with:
///
/// ```sh
/// cargo run --release --bin blockshard -- campaign quick --out /tmp/camp
/// cp /tmp/camp/flash-crowd.csv crates/scenario/tests/golden/flash_crowd_rounds200.csv
/// cp /tmp/camp/gray-partition.csv crates/scenario/tests/golden/gray_partition_rounds200.csv
/// cp /tmp/camp/rolling-crash.csv crates/scenario/tests/golden/rolling_crash_rounds200.csv
/// cp /tmp/camp/byz-ramp.csv crates/scenario/tests/golden/byz_ramp_rounds200.csv
/// cp /tmp/camp/combined-stress.csv crates/scenario/tests/golden/combined_stress_rounds200.csv
/// cp /tmp/camp/reshard-churn.csv crates/scenario/tests/golden/reshard_churn_rounds200.csv
/// ```
fn check_campaign_golden(scenario_file: &str, golden: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenario = Scenario::load(&dir.join("../../scenarios").join(scenario_file)).unwrap();
    let jobs = scenario.jobs().unwrap();
    let outcomes = run_jobs(&jobs, 2, false);
    let got = report::csv_string(&outcomes);
    let want = std::fs::read_to_string(dir.join("tests/golden").join(golden)).unwrap();
    assert_eq!(
        got, want,
        "campaign report for `{scenario_file}` drifted from its golden file \
         (see the docs above to regenerate)"
    );
    for row in got.lines().skip(1) {
        let cols: Vec<&str> = row.split(',').collect();
        // The percentile/utilization group sits just before the two
        // trailing migration-audit columns (empty for static jobs).
        let tail = &cols[cols.len() - 6..cols.len() - 2];
        assert!(
            tail.iter().all(|c| !c.is_empty()),
            "campaign row lost its percentile/utilization columns: {row}"
        );
    }
}

#[test]
fn flash_crowd_campaign_matches_golden() {
    check_campaign_golden("flash_crowd.scenario", "flash_crowd_rounds200.csv");
}

#[test]
fn gray_partition_campaign_matches_golden() {
    check_campaign_golden("gray_partition.scenario", "gray_partition_rounds200.csv");
}

#[test]
fn rolling_crash_campaign_matches_golden() {
    check_campaign_golden("rolling_crash.scenario", "rolling_crash_rounds200.csv");
}

#[test]
fn byz_ramp_campaign_matches_golden() {
    check_campaign_golden("byz_ramp.scenario", "byz_ramp_rounds200.csv");
}

#[test]
fn combined_stress_campaign_matches_golden() {
    check_campaign_golden("combined_stress.scenario", "combined_stress_rounds200.csv");
}

#[test]
fn reshard_churn_campaign_matches_golden() {
    check_campaign_golden("reshard_churn.scenario", "reshard_churn_rounds200.csv");
    // The churn row (job 0) must carry a machine-checked 0,0 audit; the
    // static control (job 1, `reshard = none`) renders the columns
    // empty — never a fake zero.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let golden = std::fs::read_to_string(dir.join("reshard_churn_rounds200.csv")).unwrap();
    let rows: Vec<&str> = golden.lines().skip(1).collect();
    assert_eq!(rows.len(), 2);
    assert!(
        rows[0].ends_with(",0,0"),
        "churn job must audit zero lost / zero doubled: {}",
        rows[0]
    );
    assert!(
        rows[1].ends_with(",,"),
        "static control renders empty audit columns: {}",
        rows[1]
    );
}

/// The tentpole goldens: 200-round live migrations, byte-pinned. The
/// trailing `reshard_lost,reshard_dup` columns are asserted to read
/// `0,0` *from the golden bytes themselves* — the no-loss/no-double
/// invariant is machine-checked on every run of this suite, not just
/// eyeballed once. Regenerate like the campaign goldens:
///
/// ```sh
/// cargo run --release --bin blockshard -- run scenarios/scale_out.scenario \
///     scenarios/scale_in.scenario --out /tmp/golden
/// cp /tmp/golden/scale-out.csv crates/scenario/tests/golden/scale_out_rounds200.csv
/// cp /tmp/golden/scale-in.csv crates/scenario/tests/golden/scale_in_rounds200.csv
/// ```
fn check_reshard_golden(scenario_file: &str, golden: &str) {
    check_report_golden_at(scenario_file, golden, 200, &[]);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let content = std::fs::read_to_string(dir.join(golden)).unwrap();
    for row in content.lines().skip(1) {
        assert!(
            row.ends_with(",0,0"),
            "migration audit must read 0,0 (lost, duplicated): {row}"
        );
    }
}

#[test]
fn scale_out_report_matches_golden_with_zero_loss() {
    check_reshard_golden("scale_out.scenario", "scale_out_rounds200.csv");
}

#[test]
fn scale_in_report_matches_golden_with_zero_loss() {
    check_reshard_golden("scale_in.scenario", "scale_in_rounds200.csv");
}

/// Engine interchangeability across a live migration: `scale_out` is a
/// fault-free `engine = sim` scenario, and overriding the engine to
/// `net` must reproduce the simulator golden byte for byte — the
/// networked table updates, handoffs, and re-homing land on identical
/// rounds, so the CSV (which deliberately has no engine column) cannot
/// tell the engines apart.
#[test]
fn scale_out_with_net_engine_is_byte_identical() {
    check_report_golden_at(
        "scale_out.scenario",
        "scale_out_rounds200.csv",
        200,
        &[("engine".to_string(), "net".to_string())],
    );
}

#[test]
fn scale_in_with_net_engine_is_byte_identical() {
    check_report_golden_at(
        "scale_in.scenario",
        "scale_in_rounds200.csv",
        200,
        &[("engine".to_string(), "net".to_string())],
    );
}

/// The engine-interchangeability guarantee extended to the metrics
/// plane: `flash_crowd` is a fault-free `engine = net` campaign member
/// with `metrics = full`, and overriding the engine back to `sim` must
/// reproduce the **networked** golden byte for byte — percentile and
/// utilization columns included. The net engines replay per-shard
/// commit events through the same collector in simulator order, so the
/// histograms see identical sequences; this test is where that claim
/// is pinned on a real scenario.
#[test]
fn flash_crowd_with_sim_engine_is_byte_identical() {
    check_report_golden_at(
        "flash_crowd.scenario",
        "flash_crowd_rounds200.csv",
        200,
        &[("engine".to_string(), "sim".to_string())],
    );
}

#[test]
fn every_checked_in_scenario_parses_and_plans() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists at the repo root") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "scenario") {
            let s = Scenario::load(&path).unwrap_or_else(|e| panic!("{e}"));
            let jobs = s.jobs().unwrap_or_else(|e| panic!("{e}"));
            assert!(!jobs.is_empty(), "{}: empty plan", path.display());
            count += 1;
        }
    }
    assert!(
        count >= 27,
        "expected the shipped scenario set, found {count}"
    );
}

/// A typo'd scheduler in a scenario file is attributed to its exact
/// file and line, and the error carries the full registry plus the
/// did-you-mean suggestion — the whole debugging loop in one message.
#[test]
fn scheduler_typo_reports_file_line_and_suggestion() {
    let err = Scenario::parse_str(
        "name = typo-demo\nrounds = 100\nscheduler = bsd\n",
        "zoo.scenario",
    )
    .expect_err("typo must not parse")
    .to_string();
    assert!(
        err.starts_with("zoo.scenario:3:"),
        "error must carry file:line attribution, got: {err}"
    );
    assert!(
        err.contains("unknown scheduler `bsd`"),
        "error must quote the typo, got: {err}"
    );
    assert!(
        err.contains("bds, fds, fcfs, edf, fp, ws, spec"),
        "error must list the full registry, got: {err}"
    );
    assert!(
        err.contains("did you mean `bds`?"),
        "error must suggest the near-miss, got: {err}"
    );
}

/// Every rejected input names where it went wrong: the third field is
/// the line the error must carry (`None` only when no line of the file is
/// to blame). Cross-key rules — each assignment fine alone, the job not
/// runnable — point at the last line assigning a key the rule blames.
#[test]
fn malformed_inputs_fail_with_context() {
    let cases: &[(&str, &str, Option<usize>)] = &[
        ("rho = 0.1\n", "no `name =`", None),
        ("name = x\nk = 99\n", "k must satisfy", Some(2)),
        ("name = x\n[grid]\nrho =\n", "no values", Some(3)),
        ("name = x\nstrategy = zipf\n", "takes 1", Some(2)),
        ("name = x\nscheduler = pbft\n", "unknown scheduler", Some(2)),
        (
            "name = x\nscheduler = bsd\n",
            "did you mean `bds`?",
            Some(2),
        ),
        (
            "name = x\nscheduler = edff\n",
            "did you mean `edf`?",
            Some(2),
        ),
        (
            "name = x\nengine = net\nscheduler = fcfs\n",
            "does not support scheduler = fcfs",
            Some(3),
        ),
        ("name = x\nmetric = torus\n", "unknown metric", Some(2)),
        ("name = x\nrho = 1.5\n", "0 < rho <= 1", Some(2)),
        ("name = x\njust-a-line\n", "expected `key = value`", Some(2)),
        (
            "name = x\n[grid]\nname = a, b\n",
            "cannot be a grid axis",
            Some(3),
        ),
        (
            "name = x\n[grid]\nrho = 0.1\nrho = 0.2\n",
            "duplicate grid axis",
            Some(4),
        ),
        (
            "name = x\nreshard = +2@100\n",
            "requires placement = vnode",
            Some(2),
        ),
        (
            "name = x\nplacement = vnode\nscheduler = fds\nreshard = +2@100\n",
            "epoch-hosted scheduler",
            Some(4),
        ),
        (
            "name = x\nengine = net\nplacement = vnode\nreshard = +2@100\ncrash = 0@50\n",
            "cannot be combined with fault keys",
            Some(4),
        ),
        ("name = x\nreshard = 2@100\n", "explicit sign", Some(2)),
        ("name = x\nreshard = +2-100\n", "not +N@ROUND", Some(2)),
        (
            "name = x\nplacement = vnode\nreshard = +2@0\n",
            "round >= 1",
            Some(3),
        ),
        (
            "name = x\nshards = 4\nplacement = vnode\nreshard = -4@100\n",
            "would leave",
            Some(4),
        ),
        (
            "name = x\nplacement = vnode\nreshard = +2@100; +1@50\n",
            "strictly increase",
            Some(3),
        ),
        (
            "name = x\nshards = 4\nk = 2\nrounds = 50\ndrop-prob = 0.1\n",
            "require engine = net",
            Some(5),
        ),
        (
            "name = x\nmempool = 64\nrounds = 50\n",
            "mempool requires stream",
            Some(2),
        ),
        (
            "name = x\nstream = zipf:0.6\n",
            "stream requires mempool",
            Some(2),
        ),
        (
            "name = x\nengine = net\nbyzantine-votes = 2\nfaulty-per-shard = 1\n",
            "exceeds faulty-per-shard",
            Some(4),
        ),
        (
            "name = x\nengine = net\ncrash = 9@5\nshards = 4\nk = 2\n",
            "crash targets",
            Some(3),
        ),
        (
            "name = x\nshards = 6\nk = 2\nmetric = grid:2x2\n",
            "grid:2x2",
            Some(4),
        ),
    ];
    for (text, needle, line) in cases {
        let err = match Scenario::parse_str(text, "<golden>") {
            Err(e) => e,
            Ok(s) => match s.jobs() {
                Err(e) => e,
                Ok(_) => panic!("input unexpectedly valid: {text:?}"),
            },
        };
        assert!(
            err.msg.contains(needle),
            "error for {text:?} should mention {needle:?}, got: {err}"
        );
        assert_eq!(err.line, *line, "line of the error for {text:?}: {err}");
        if let Some(line) = line {
            let at = format!("<golden>:{line}: ");
            assert!(err.to_string().starts_with(&at), "{err}");
        }
    }
}
