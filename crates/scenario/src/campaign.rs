//! Named campaign families: curated bundles of adversarial scenarios
//! run as one unit with a metrics-bearing summary.
//!
//! A *campaign* is the repo's answer to "how does the system behave
//! under sustained, layered pressure" — each member scenario turns one
//! screw (a flash crowd, an asymmetric gray partition, rolling crash
//! churn, Byzantine pressure at the f bound, everything at once, live
//! reshard churn) and
//! every member runs with the metrics plane on, so the summary table
//! and the CSV reports carry latency percentiles and per-shard
//! utilization, not just means.
//!
//! Two families share the same member list:
//!
//! * `quick` — the scenario files as checked in (200 rounds). This is
//!   the CI shape: the six CSVs it writes are diffed byte-for-byte
//!   against `crates/scenario/tests/golden/` by the campaign-smoke job,
//!   and the golden/determinism tests pin them across `--threads
//!   1/2/8` and (fault-free members) across `engine = sim|net`.
//! * `full` — the same scenarios with rounds overridden to
//!   [`FULL_ROUNDS`]. The nightly campaign-full workflow runs this
//!   shape; it is long enough for the fault schedules to matter at
//!   steady state but still minutes, not hours.
//!
//! Determinism: a campaign is nothing but `Scenario::jobs_with` +
//! `exec::run_jobs` per member, so every guarantee the report plane
//! already has (byte-identical across thread counts, sim ≡ net when
//! fault-free) extends to campaign output for free.

use crate::cli::default_threads;
use crate::exec::{run_jobs, JobOutcome};
use crate::parse::Scenario;
use crate::report;
use std::path::PathBuf;

/// The campaign members, in run order. Each name is a
/// `scenarios/<name>.scenario` file; all six are golden-tested.
pub const CAMPAIGN_SCENARIOS: &[&str] = &[
    "flash_crowd",
    "gray_partition",
    "rolling_crash",
    "byz_ramp",
    "combined_stress",
    "reshard_churn",
];

/// Rounds override applied by the `full` family (the checked-in files
/// run 200 rounds — the golden/CI shape).
pub const FULL_ROUNDS: u64 = 2000;

/// Which shape of the campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The checked-in 200-round shape (CI; golden-diffed).
    Quick,
    /// The nightly shape: same scenarios, [`FULL_ROUNDS`] rounds.
    Full,
}

impl Family {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Family::Quick => "quick",
            Family::Full => "full",
        }
    }

    /// The base-key overrides this family applies (before any user
    /// `--set`, which wins).
    pub fn sets(self) -> Vec<(String, String)> {
        match self {
            Family::Quick => Vec::new(),
            Family::Full => vec![("rounds".to_string(), FULL_ROUNDS.to_string())],
        }
    }
}

impl std::str::FromStr for Family {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Family::Quick),
            "full" => Ok(Family::Full),
            other => Err(format!(
                "unknown campaign family `{other}` (expected quick or full)"
            )),
        }
    }
}

/// Options for one campaign invocation (the CLI fills this from flags;
/// tests construct it directly).
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Worker threads (`0` = pick a default per plan size).
    pub threads: usize,
    /// Report directory.
    pub out: PathBuf,
    /// Where the member `.scenario` files live.
    pub scenarios_dir: PathBuf,
    /// Extra `KEY=VALUE` overrides, applied after the family's own
    /// (so an explicit `--rounds`/`--set` beats the family default).
    pub sets: Vec<(String, String)>,
    /// Suppress per-job progress on stderr.
    pub quiet: bool,
    /// Write report files (CSV + JSONL + metrics timeline).
    pub write: bool,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            threads: 0,
            out: PathBuf::from("results"),
            scenarios_dir: PathBuf::from("scenarios"),
            sets: Vec::new(),
            quiet: false,
            write: true,
        }
    }
}

/// One executed campaign member.
#[derive(Debug)]
pub struct MemberResult {
    /// The scenario's declared name (`name =` line, used for report
    /// file names — may differ from the file stem).
    pub name: String,
    /// The scenario's one-line description.
    pub description: String,
    /// Every job outcome, in plan order.
    pub outcomes: Vec<JobOutcome>,
}

/// Runs every member of `family` and returns the results in member
/// order. Report files (when `opts.write`) land in `opts.out` as
/// `<name>.csv`, `<name>.jsonl`, and — for members with any
/// `metrics = full` job — `<name>.metrics.jsonl`.
pub fn run_campaign(family: Family, opts: &CampaignOpts) -> Result<Vec<MemberResult>, String> {
    let mut results = Vec::with_capacity(CAMPAIGN_SCENARIOS.len());
    for member in CAMPAIGN_SCENARIOS {
        let path = opts.scenarios_dir.join(format!("{member}.scenario"));
        let scenario = Scenario::load(&path).map_err(|e| e.to_string())?;
        let mut sets = family.sets();
        sets.extend(opts.sets.iter().cloned());
        let jobs = scenario.jobs_with(&sets).map_err(|e| e.to_string())?;
        let threads = if opts.threads == 0 {
            default_threads(jobs.len())
        } else {
            opts.threads
        };
        if !opts.quiet {
            eprintln!(
                "campaign[{}] `{}`: {} job(s) on {} thread(s)",
                family.name(),
                scenario.name,
                jobs.len(),
                threads.clamp(1, jobs.len())
            );
        }
        let outcomes = run_jobs(&jobs, threads, !opts.quiet);
        if opts.write {
            let csv = opts.out.join(format!("{}.csv", scenario.name));
            let jsonl = opts.out.join(format!("{}.jsonl", scenario.name));
            report::write_report(&csv, &report::csv_string(&outcomes))
                .and_then(|()| report::write_report(&jsonl, &report::jsonl_string(&outcomes)))
                .map_err(|e| format!("writing reports for `{}`: {e}", scenario.name))?;
            if let Some(timeline) = report::metrics_jsonl_string(&outcomes) {
                let path = opts.out.join(format!("{}.metrics.jsonl", scenario.name));
                report::write_report(&path, &timeline)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        results.push(MemberResult {
            name: scenario.name.clone(),
            description: scenario.description.clone(),
            outcomes,
        });
    }
    Ok(results)
}

/// The campaign summary table: one row per job across every member,
/// leading with the latency percentiles and the utilization floor the
/// metrics plane computed (`-` when a job ran with `metrics = off`).
pub fn summary_table(results: &[MemberResult]) -> String {
    let name_w = results
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let label_w = results
        .iter()
        .flat_map(|r| r.outcomes.iter())
        .map(|o| o.spec.label().len())
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = format!(
        "{:<name_w$} {:>4} {:<label_w$} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}\n",
        "scenario",
        "job",
        "sweep",
        "sched",
        "generated",
        "committed",
        "lat_p50",
        "lat_p99",
        "p999",
        "util_min",
    );
    for r in results {
        for o in &r.outcomes {
            let (p50, p99, p999, util) = match &o.report.metrics {
                Some(m) => (
                    m.lat_p50().to_string(),
                    m.lat_p99().to_string(),
                    m.lat_p999().to_string(),
                    format!("{:.4}", m.util_min_shard()),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{:<name_w$} {:>4} {:<label_w$} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}\n",
                r.name,
                o.spec.index,
                o.spec.label(),
                o.spec.scheduler.to_string(),
                o.report.generated,
                o.report.committed,
                p50,
                p99,
                p999,
                util,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_spellings_round_trip() {
        for f in [Family::Quick, Family::Full] {
            assert_eq!(f.name().parse::<Family>().unwrap(), f);
        }
        assert!("nightly".parse::<Family>().is_err());
    }

    #[test]
    fn full_family_overrides_rounds() {
        assert!(Family::Quick.sets().is_empty());
        assert_eq!(
            Family::Full.sets(),
            vec![("rounds".to_string(), FULL_ROUNDS.to_string())]
        );
    }

    #[test]
    fn member_list_is_the_documented_six() {
        assert_eq!(CAMPAIGN_SCENARIOS.len(), 6);
        // Order matters: CI diffs goldens by these names.
        assert_eq!(CAMPAIGN_SCENARIOS[0], "flash_crowd");
        assert_eq!(CAMPAIGN_SCENARIOS[4], "combined_stress");
        assert_eq!(CAMPAIGN_SCENARIOS[5], "reshard_churn");
    }
}
