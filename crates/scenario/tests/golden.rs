//! Golden-file coverage for the scenario engine. Every pinned run is one
//! row of [`GOLDENS`] (a checked-in scenario, how it is run, and what its
//! rows must show beyond matching `tests/golden/<stem>_rounds<N>.csv` byte
//! for byte — and, when a job runs `metrics = full`, its per-epoch
//! timeline matching `<stem>_rounds<N>.metrics.jsonl`); each
//! `tests/golden/X.scenario` of [`PLANS`] must expand to exactly
//! `tests/golden/X.plan`. After an intentional change,
//!
//! ```sh
//! BLESS=1 cargo test -p scenario --test golden
//! ```
//!
//! rewrites every golden file from what the code now produces. CI runs
//! the same scenarios through the `blockshard` CLI and diffs each report
//! it writes against the same files, so a behaviour change fails here
//! first, with a readable assert.

use scenario::{report, run_jobs, Scenario};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `got` must equal the golden file at `path`, which `BLESS=1` rewrites
/// first where `bless` allows it.
fn check_against(path: &Path, got: &str, bless: bool) -> Result<(), String> {
    if bless && std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let want = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{} drifted (BLESS=1 regenerates it)\n--- golden\n{want}--- got\n{got}",
        path.display()
    ))
}

const PLANS: &[&str] = &["sweep", "flat"];

#[test]
fn golden_scenarios_expand_to_their_golden_plans() {
    for name in PLANS {
        let s = Scenario::load(&golden_dir().join(format!("{name}.scenario"))).unwrap();
        let got = s.plan_string(&s.jobs().unwrap());
        check_against(&golden_dir().join(format!("{name}.plan")), &got, true).unwrap();
    }
}

/// What a golden's data rows must show beyond their bytes: the property
/// is read off the rows so it is machine-checked on every run, not
/// eyeballed once when the file was blessed.
type RowCheck = fn(&[&str]) -> Result<(), String>;

/// The campaign exists to exercise the metrics plane: a row silently
/// falling back to `metrics = off` (empty percentile/utilization fields)
/// is a bug even if the golden matches. The group sits just before the
/// two trailing migration-audit columns.
fn percentiles_present(rows: &[&str]) -> Result<(), String> {
    let lost = rows.iter().find(|row| {
        let cols: Vec<&str> = row.split(',').collect();
        cols[cols.len() - 6..cols.len() - 2]
            .iter()
            .any(|c| c.is_empty())
    });
    lost.map_or(Ok(()), |row| {
        Err(format!(
            "row lost its percentile/utilization columns: {row}"
        ))
    })
}

/// Every row of a live migration audits `reshard_lost,reshard_dup = 0,0`.
fn zero_loss(rows: &[&str]) -> Result<(), String> {
    let bad = rows.iter().find(|row| !row.ends_with(",0,0"));
    bad.map_or(Ok(()), |row| {
        Err(format!("migration audit must read 0,0: {row}"))
    })
}

/// `reshard_churn`: the churn job audits `0,0`; the static control
/// (`reshard = none`) renders the audit columns empty — never a fake zero.
fn churn_then_control(rows: &[&str]) -> Result<(), String> {
    match rows {
        [churn, control] if churn.ends_with(",0,0") && control.ends_with(",,") => Ok(()),
        _ => Err(format!(
            "want a `,0,0` churn row and a `,,` control: {rows:?}"
        )),
    }
}

/// `firehose_shift` sweeps `engine = sim, net` over one stream, and the
/// CSV has no engine column: two rows identical apart from the job index
/// *are* the proof that the networked runtime pulls exactly the batches
/// the simulator pulls, ingestion counters included.
fn engines_agree(rows: &[&str]) -> Result<(), String> {
    let sans_job = |row: &str| {
        let (scenario, rest) = row.split_once(',')?;
        Some((scenario.to_string(), rest.split_once(',')?.1.to_string()))
    };
    match rows {
        [sim, net] if sans_job(sim).is_some() && sans_job(sim) == sans_job(net) => Ok(()),
        _ => Err(format!(
            "sim and net rows must differ only in the job index: {rows:?}"
        )),
    }
}

/// One pinned run: the `scenarios/<stem>.scenario` it runs, `--rounds`
/// (`None` = as checked in, which is what `campaign quick` and the
/// reshard smoke run), `--set` overrides, and the row checks. The golden
/// is `<stem>_rounds<N>.csv`, `N` being the rounds the jobs ran — so a
/// row with an override names the file its un-overridden twin pins, and
/// a changed base `rounds =` misses its file.
type Golden = (
    &'static str,
    Option<u64>,
    &'static [(&'static str, &'static str)],
    &'static [RowCheck],
);

/// The `engine = …` rows are the engine-interchangeability guarantee on
/// checked-in scenarios: the CSV deliberately has no engine column, so a
/// job must write the same bytes on either engine — through a live
/// migration (`scale_*`: table updates, handoffs and re-homing land on
/// identical rounds), through the metrics plane (`flash_crowd`, BDS and
/// FDS: percentile and utilization columns and the per-epoch timeline
/// included) and under every fault
/// plan the campaigns use (the five faulted scenarios: drops,
/// duplicates, crashes and Byzantine votes, fault counters included).
/// `zoo_quick` and `firehose_shift` hold both engines' rows in one file.
const GOLDENS: &[Golden] = &[
    ("smoke", Some(500), &[], &[]),
    ("dos_burst", Some(500), &[], &[]),
    ("uneven_round_robin", Some(500), &[], &[]),
    ("net_smoke", Some(500), &[], &[]),
    ("net_smoke", Some(500), &[("engine", "sim")], &[]),
    ("net_faults", Some(500), &[], &[]),
    ("net_faults", Some(500), &[("engine", "sim")], &[]),
    ("zoo_quick", Some(200), &[], &[]),
    ("firehose_shift", Some(120), &[], &[engines_agree]),
    ("firehose_zipf", Some(120), &[], &[]),
    ("flash_crowd", None, &[], &[percentiles_present]),
    ("flash_crowd", None, &[("engine", "sim")], &[]),
    ("gray_partition", None, &[], &[percentiles_present]),
    ("gray_partition", None, &[("engine", "sim")], &[]),
    ("rolling_crash", None, &[], &[percentiles_present]),
    ("rolling_crash", None, &[("engine", "sim")], &[]),
    ("byz_ramp", None, &[], &[percentiles_present]),
    ("byz_ramp", None, &[("engine", "sim")], &[]),
    ("combined_stress", None, &[], &[percentiles_present]),
    ("combined_stress", None, &[("engine", "sim")], &[]),
    (
        "reshard_churn",
        None,
        &[],
        &[percentiles_present, churn_then_control],
    ),
    ("scale_out", None, &[], &[zero_loss]),
    ("scale_out", None, &[("engine", "net")], &[]),
    ("scale_in", None, &[], &[zero_loss]),
    ("scale_in", None, &[("engine", "net")], &[]),
];

fn check_golden((stem, rounds, sets, checks): &Golden) -> Result<(), String> {
    let file =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{stem}.scenario"));
    let scenario = Scenario::load(&file).map_err(|e| e.to_string())?;
    let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
    let rounds = rounds.map(|n| pair("rounds", &n.to_string()));
    let overrides: Vec<_> = rounds
        .into_iter()
        .chain(sets.iter().map(|(k, v)| pair(k, v)))
        .collect();
    let jobs = scenario.jobs_with(&overrides).map_err(|e| e.to_string())?;
    let outcomes = run_jobs(&jobs, 2, false);
    let got = report::csv_string(&outcomes);
    let golden = golden_dir().join(format!("{stem}_rounds{}", jobs[0].rounds));
    // An overridden run is held to its twin's file, never blessed into it.
    check_against(&golden.with_extension("csv"), &got, sets.is_empty())?;
    if let Some(timeline) = report::metrics_jsonl_string(&outcomes) {
        let path = golden.with_extension("metrics.jsonl");
        check_against(&path, &timeline, sets.is_empty())?;
    }
    let rows: Vec<&str> = got.lines().skip(1).collect();
    checks.iter().try_for_each(|check| check(&rows))
}

#[test]
fn pinned_runs_match_their_goldens() {
    let failures: Vec<String> = GOLDENS
        .iter()
        .filter_map(|golden| {
            let (stem, rounds, sets, _) = golden;
            let failure = check_golden(golden).err()?;
            Some(format!(
                "{stem} (rounds {rounds:?}, sets {sets:?}): {failure}"
            ))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
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
        count >= 28,
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
        (
            "name = x\ncrash = 0@50\nscheduler = fcfs\n",
            "the fault plane does not support scheduler = fcfs",
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
            "name = x\ncrash = x@5\n",
            "crash shard `x` is not an integer",
            Some(2),
        ),
        ("name = x\ncrash = 2-100\n", "not SHARD@ROUND", Some(2)),
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

/// The fault keys need no engine: a crash on the simulator resolves and
/// runs, and the report counts it.
#[test]
fn a_fault_plan_runs_on_the_simulator() {
    let text = "name = x\nengine = sim\nshards = 4\nk = 2\nrounds = 120\ncrash = 0@50\n";
    let jobs = Scenario::parse_str(text, "<sim>").unwrap().jobs().unwrap();
    let outcome = &run_jobs(&jobs, 1, false)[0];
    assert_eq!(outcome.report.faults.crashes, 1);
    assert!(outcome.report.committed > 0);
}
