//! The `blockshard` command-line interface (clap-style, hand-rolled —
//! the workspace is offline): one flag parser ([`Flags`]) and one
//! load → plan → run → write loop ([`run_scenario`]) behind every verb.

use crate::campaign;
use crate::exec::{run_jobs, JobOutcome};
use crate::parse::{Scenario, ScenarioError};
use crate::render;
use crate::report;
use crate::spec::JobSpec;
use std::path::{Path, PathBuf};

const USAGE: &str = "blockshard — declarative scenario driver

USAGE:
    blockshard run <FILE>... [OPTIONS]     execute scenarios, write reports
    blockshard plan <FILE>                 print the expanded job list
    blockshard check <FILE>...             parse + validate only
    blockshard list [DIR]                  list scenario files (default scenarios/)
    blockshard campaign <FAMILY> [OPTIONS] run the adversarial scenario family:
                                           quick (the checked-in 200-round CI shape,
                                           golden-diffed) or full (2000 rounds, nightly)
    blockshard render <FIGURE> [OPTIONS]   regenerate a figure or table of the paper
    blockshard help                        this text

OPTIONS (run, campaign, render):
    --threads N      worker threads (default: min(cores, jobs))
    --out DIR        report directory (default: results/)
    --rounds N       override rounds for every job (grid axes still win)
    --quiet          no per-job progress on stderr
    --no-write       print to stdout but write no report files
OPTIONS (run, campaign):
    --set KEY=VALUE  override a base key (repeatable; beats --rounds; a
                     key the file sweeps as a grid axis is an error)
OPTIONS (campaign, render):
    --scenarios DIR  scenario directory (default scenarios/)
OPTIONS (render):
    --full           the paper-scale shape: 25000 rounds, and the paper's
                     full grid where the figure has one

Reports land in <out>/<scenario-name>.csv and .jsonl (scenarios with a
`metrics = full` job also write <name>.metrics.jsonl, the per-epoch
timeline). See the scenario crate rustdoc or README.md for the scenario
file grammar.";

/// Worker-thread default: available cores, capped by the job count.
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// Rounds of a paper-scale (`--full`) run.
const PAPER_ROUNDS: u64 = 25_000;

/// What a verb returns: its exit code, or the message of a failure that
/// exits 2 (bad usage, an unreadable or invalid scenario, an unwritable
/// report).
pub type Exit = Result<i32, String>;

/// The parsed command line of one verb: every flag any verb takes, plus
/// the positional arguments in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    /// Positional arguments (scenario files, a family, a figure).
    pub args: Vec<String>,
    /// `--threads N` (`None` = [`default_threads`] per plan).
    pub threads: Option<usize>,
    /// `--out DIR`: where reports are written.
    pub out: PathBuf,
    /// `--scenarios DIR`: where named scenarios are looked up.
    pub scenarios: PathBuf,
    /// `--rounds N`, or the paper's 25 000 under `--full`.
    pub rounds: Option<u64>,
    /// `--set KEY=VALUE` overrides, in order.
    pub sets: Vec<(String, String)>,
    /// `--quiet`: no progress on stderr.
    pub quiet: bool,
    /// Cleared by `--no-write`: write report files.
    pub write: bool,
    /// `--full`: the paper-scale shape.
    pub full: bool,
}

impl Flags {
    /// Parses one verb's arguments. `allowed` lists (space-separated) the
    /// flags the verb reads; any other `--flag` — one no verb has, or one
    /// this verb would silently ignore — is an error.
    pub fn parse(args: &[String], allowed: &str) -> Result<Flags, String> {
        let mut flags = Flags {
            args: Vec::new(),
            threads: None,
            out: PathBuf::from("results"),
            scenarios: PathBuf::from("scenarios"),
            rounds: None,
            sets: Vec::new(),
            quiet: false,
            write: true,
            full: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") && !allowed.split(' ').any(|flag| flag == a) {
                return Err(format!("unknown flag `{a}`"));
            }
            let mut value = || it.next().ok_or_else(|| format!("{a} takes a value"));
            match a.as_str() {
                "--threads" => {
                    let v = value()?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--threads: `{v}` is not an integer"))?;
                    if n == 0 {
                        return Err("--threads: `0` must be >= 1".into());
                    }
                    flags.threads = Some(n);
                }
                "--out" => flags.out = PathBuf::from(value()?),
                "--scenarios" => flags.scenarios = PathBuf::from(value()?),
                "--rounds" => {
                    let v = value()?;
                    flags.rounds = Some(
                        v.parse()
                            .map_err(|_| format!("--rounds: `{v}` is not an integer"))?,
                    );
                }
                "--set" => {
                    let v = value()?;
                    let (k, val) = v
                        .split_once('=')
                        .ok_or_else(|| format!("--set: `{v}` is not KEY=VALUE"))?;
                    flags
                        .sets
                        .push((k.trim().to_string(), val.trim().to_string()));
                }
                "--quiet" => flags.quiet = true,
                "--no-write" => flags.write = false,
                "--full" => flags.full = true,
                _ => flags.args.push(a.clone()),
            }
        }
        if flags.full {
            flags.rounds.get_or_insert(PAPER_ROUNDS);
        }
        Ok(flags)
    }

    /// The single positional argument of `verb`; `what` words it in the
    /// error for none ("a family (quick or full)").
    pub fn only(&self, verb: &str, what: &str) -> Result<&str, String> {
        match self.args.as_slice() {
            [only] => Ok(only),
            [] => Err(format!("{verb} takes {what}")),
            [_, extra, ..] => Err(format!("{verb} takes one argument, got extra `{extra}`")),
        }
    }

    /// The base-key overrides these flags ask for: `--rounds` first, so a
    /// later `--set rounds=…` beats it.
    fn overrides(&self) -> Vec<(String, String)> {
        let rounds = self.rounds.map(|r| ("rounds".to_string(), r.to_string()));
        rounds
            .into_iter()
            .chain(self.sets.iter().cloned())
            .collect()
    }
}

/// The one load → plan → run → write loop: expands `scenario` under the
/// flags' overrides (a `--set` over a grid axis is refused), runs the plan
/// on the flags' worker pool, and (unless `--no-write`) writes
/// `<out>/<name>.csv`, `.jsonl` and — when a job ran `metrics = full` —
/// `.metrics.jsonl`, naming them on stdout.
pub fn run_scenario(scenario: &Scenario, flags: &Flags) -> Result<Vec<JobOutcome>, String> {
    scenario.refuse_axis_overrides(&flags.sets)?;
    let jobs = scenario.jobs_with(&flags.overrides())?;
    let threads = flags.threads.unwrap_or_else(|| default_threads(jobs.len()));
    if !flags.quiet {
        eprintln!(
            "scenario `{}`: {} job(s) on {} thread(s)",
            scenario.name,
            jobs.len(),
            threads.clamp(1, jobs.len().max(1))
        );
    }
    let outcomes = run_jobs(&jobs, threads, !flags.quiet);
    if flags.write {
        let path = |ext: &str| flags.out.join(format!("{}.{ext}", scenario.name));
        let write = |path: &Path, content: &str| {
            report::write_report(path, content)
                .map_err(|e| format!("writing {}: {e}", path.display()))
        };
        let (csv, jsonl) = (path("csv"), path("jsonl"));
        write(&csv, &report::csv_string(&outcomes))?;
        write(&jsonl, &report::jsonl_string(&outcomes))?;
        if let Some(timeline) = report::metrics_jsonl_string(&outcomes) {
            write(&path("metrics.jsonl"), &timeline)?;
        }
        println!("reports: {} + {}", csv.display(), jsonl.display());
    }
    Ok(outcomes)
}

/// What `run` prints per job.
const RUN_COLUMNS: &[&str] = &[
    "job",
    report::SWEEP,
    "scheduler",
    "generated",
    "committed",
    "pending_at_end",
    "avg_queue_per_shard",
    "avg_latency",
    "verdict",
];

const RUN_FLAGS: &str = "--threads --out --rounds --set --quiet --no-write";

fn cmd_run(args: &[String]) -> Exit {
    let flags = Flags::parse(args, RUN_FLAGS)?;
    if flags.args.is_empty() {
        return Err("no scenario files given".into());
    }
    // Load everything first: reports are named after `name =`, so two
    // files resolving to one name would overwrite each other's.
    let mut scenarios: Vec<(&String, Scenario)> = Vec::new();
    for file in &flags.args {
        let scenario = Scenario::load(Path::new(file))?;
        if let Some((first, _)) = scenarios.iter().find(|(_, s)| s.name == scenario.name) {
            return Err(format!(
                "`{first}` and `{file}` are both named `{}` and would write the same reports",
                scenario.name
            ));
        }
        scenarios.push((file, scenario));
    }
    for (_, scenario) in &scenarios {
        println!("# {}", scenario.name);
        if !scenario.description.is_empty() {
            println!("# {}", scenario.description);
        }
        let outcomes = run_scenario(scenario, &flags)?;
        print!("{}", report::table(&outcomes, RUN_COLUMNS));
    }
    Ok(0)
}

/// Loads a scenario file and plans it as checked in (no overrides).
fn load_plan(path: &Path) -> Result<(Scenario, Vec<JobSpec>), ScenarioError> {
    let scenario = Scenario::load(path)?;
    let jobs = scenario.jobs()?;
    Ok((scenario, jobs))
}

fn cmd_plan(args: &[String]) -> Exit {
    let flags = Flags::parse(args, "")?;
    let file = flags.only("plan", "exactly one scenario file")?;
    let (scenario, jobs) = load_plan(Path::new(file))?;
    print!("{}", scenario.plan_string(&jobs));
    Ok(0)
}

fn cmd_check(args: &[String]) -> Exit {
    let flags = Flags::parse(args, "")?;
    if flags.args.is_empty() {
        return Err("check takes scenario files".into());
    }
    let mut status = 0;
    for file in &flags.args {
        match load_plan(Path::new(file)) {
            Ok((s, jobs)) => println!("ok: {file}: `{}`, {} job(s)", s.name, jobs.len()),
            Err(e) => {
                println!("FAIL: {e}");
                status = 1;
            }
        }
    }
    Ok(status)
}

fn cmd_list(args: &[String]) -> Exit {
    let flags = Flags::parse(args, "")?;
    let dir = flags.args.first().map_or("scenarios", String::as_str);
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read `{dir}`: {e}"))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    paths.sort();
    for p in paths {
        match load_plan(&p) {
            Ok((s, jobs)) => println!(
                "{:<42} {:<18} {:>4} job(s)  {}",
                p.display(),
                s.name,
                jobs.len(),
                s.description
            ),
            Err(e) => println!("{:<42} INVALID: {e}", p.display()),
        }
    }
    Ok(0)
}

fn dispatch(args: &[String]) -> Exit {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("plan") => cmd_plan(rest),
        Some("check") => cmd_check(rest),
        Some("list") => cmd_list(rest),
        Some("campaign") => campaign::run(rest),
        Some("render") => render::run(rest),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}\n\nFIGURES (render):\n{}", render::figure_list());
            Ok(i32::from(args.is_empty()))
        }
        Some(other) => Err(format!("unknown command `{other}` (try `blockshard help`)")),
    }
}

/// CLI entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    dispatch(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse() {
        let all = format!("{RUN_FLAGS} --scenarios --full");
        let line = "a.scenario --threads 3 --rounds 500 --set rho=0.2 --set seed=7 --quiet \
                    --out d --scenarios s --full b.scenario";
        let f = Flags::parse(&argv(line), &all).unwrap();
        assert_eq!(f.args, argv("a.scenario b.scenario"));
        assert_eq!(f.threads, Some(3));
        assert_eq!((&f.out, &f.scenarios), (&"d".into(), &"s".into()));
        assert!(f.quiet && f.write && f.full);
        assert_eq!(
            f.overrides(),
            [("rounds", "500"), ("rho", "0.2"), ("seed", "7")].map(|(k, v)| (k.into(), v.into())),
            "explicit --rounds beats --full, --set comes after both"
        );

        let bare = Flags::parse(&[], &all).unwrap();
        assert!(bare.overrides().is_empty() && bare.threads.is_none() && bare.write);
        let full = Flags::parse(&argv("--full --no-write"), &all).unwrap();
        assert_eq!(full.rounds, Some(PAPER_ROUNDS), "--full is paper rounds");
        assert!(!full.write);
        // The campaign family's default yields to an explicit --rounds
        // exactly as --full's does.
        assert_eq!(campaign::family_rounds("quick"), Ok(None));
        let full = campaign::family_rounds("full");
        assert_eq!(full, Ok(Some(campaign::FULL_ROUNDS)));
    }

    #[test]
    fn verbs_reject_bad_input() {
        // Two files that resolve to one `name =` (and so to one report).
        let dir = std::env::temp_dir().join(format!("blockshard-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let twin = |file: &str| {
            let path = dir.join(file);
            std::fs::write(&path, "name = twin\nshards = 4\nk = 2\nrounds = 10\n").unwrap();
            path.display().to_string()
        };
        let twins = format!("run {} {}", twin("a.scenario"), twin("b.scenario"));
        let swept = dir.join("swept.scenario");
        std::fs::write(
            &swept,
            "name = swept\nrounds = 10\n[grid]\nrho = 0.1, 0.2\n",
        )
        .unwrap();
        let set_axis = format!("run {} --no-write --set rho=0.3", swept.display());
        let at_axis = format!(
            "{}:4: override rho=0.3 names grid axis `rho`",
            swept.display()
        );

        let cases: &[(&str, &str)] = &[
            ("bench", "unknown command `bench`"),
            ("run", "no scenario files"),
            ("run a --wat", "unknown flag `--wat`"),
            ("run a --threads x", "`x` is not an integer"),
            ("run a --threads", "--threads takes a value"),
            ("run a --rounds x", "--rounds: `x` is not an integer"),
            ("run a --set nope", "`nope` is not KEY=VALUE"),
            ("run a.scenario --full", "unknown flag `--full`"),
            ("run a --scenarios d", "unknown flag `--scenarios`"),
            (&twins, "both named `twin`"),
            (&set_axis, &at_axis),
            ("run a --threads 0", "`0` must be >= 1"),
            ("campaign quick --threads 0", "`0` must be >= 1"),
            ("render fig2 --threads 0", "`0` must be >= 1"),
            ("plan a --threads 0", "unknown flag `--threads`"),
            ("check a --threads 0", "unknown flag `--threads`"),
            ("list --threads 0", "unknown flag `--threads`"),
            ("plan", "exactly one scenario file"),
            ("plan a b", "one argument, got extra `b`"),
            ("check", "takes scenario files"),
            ("campaign", "takes a family"),
            ("campaign nightly", "unknown campaign family `nightly`"),
            ("campaign quick full", "one argument, got extra `full`"),
            ("campaign quick --timed", "unknown flag `--timed`"),
            ("campaign quick --full", "unknown flag `--full`"),
            ("render", "takes a figure:\n    fig2 "),
            ("render nosuchfigure", "unknown figure `nosuchfigure`"),
            ("render fig2 fig3", "one argument, got extra `fig3`"),
            ("render table_t2 --ful", "unknown flag `--ful`"),
            ("render table_t2 --set rho=0.5", "unknown flag `--set`"),
        ];
        for (line, needle) in cases {
            let err = dispatch(&argv(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: `{err}` lacks `{needle}`");
            assert_eq!(run(&argv(line)), 2, "{line}");
        }
        assert_eq!(run(&[]), 1, "no verb prints the usage and fails");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!USAGE.contains("bench") && !USAGE.contains("--timed"));
    }
}
