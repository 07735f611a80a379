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
//!   1/2/8` and across `engine = sim|net`.
//! * `full` — the same scenarios with rounds overridden to
//!   [`FULL_ROUNDS`]. The nightly campaign-full workflow runs this
//!   shape; it is long enough for the fault schedules to matter at
//!   steady state but still minutes, not hours.
//!
//! Determinism: a campaign is nothing but [`run_scenario`] per member,
//! so every guarantee the report plane already has (byte-identical
//! across thread counts, sim ≡ net, faulted or not) extends to campaign
//! output for free.

use crate::cli::{run_scenario, Exit, Flags};
use crate::parse::Scenario;
use crate::report;

/// The campaign members, in run order. Each name is a
/// `<scenarios>/<name>.scenario` file; all six are golden-tested.
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

/// What the campaign prints per job: the latency percentiles and the
/// utilization floor the metrics plane computed lead, not just means.
const COLUMNS: &[&str] = &[
    "scenario",
    "job",
    report::SWEEP,
    "scheduler",
    "generated",
    "committed",
    "lat_p50",
    "lat_p99",
    "lat_p999",
    "util_min_shard",
];

const FLAGS: &str = "--threads --out --rounds --set --scenarios --quiet --no-write";

/// The rounds a family runs its members at, unless `--rounds` says
/// otherwise (`None` = as checked in).
pub(crate) fn family_rounds(family: &str) -> Result<Option<u64>, String> {
    match family {
        "quick" => Ok(None),
        "full" => Ok(Some(FULL_ROUNDS)),
        other => Err(format!(
            "unknown campaign family `{other}` (expected quick or full)"
        )),
    }
}

/// The `campaign` verb: runs every member of the family, in member
/// order, and prints one table over all of them.
pub fn run(args: &[String]) -> Exit {
    let mut flags = Flags::parse(args, FLAGS)?;
    let family = flags
        .only("campaign", "a family (quick or full)")?
        .to_string();
    flags.rounds = flags.rounds.or(family_rounds(&family)?);
    let mut outcomes = Vec::new();
    for member in CAMPAIGN_SCENARIOS {
        let scenario = Scenario::load(&flags.scenarios.join(format!("{member}.scenario")))?;
        outcomes.extend(run_scenario(&scenario, &flags)?);
    }
    println!("# campaign {family}");
    print!("{}", report::table(&outcomes, COLUMNS));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_list_is_the_documented_six() {
        assert_eq!(CAMPAIGN_SCENARIOS.len(), 6);
        // Order matters: CI diffs goldens by these names.
        assert_eq!(CAMPAIGN_SCENARIOS[0], "flash_crowd");
        assert_eq!(CAMPAIGN_SCENARIOS[4], "combined_stress");
        assert_eq!(CAMPAIGN_SCENARIOS[5], "reshard_churn");
    }
}
