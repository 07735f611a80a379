//! The `blockshard` command-line interface (clap-style, hand-rolled —
//! the workspace is offline) plus the small argument parser shared by
//! the seven figure and table binaries in `bench`.

use crate::campaign;
use crate::exec::{run_jobs, JobOutcome};
use crate::parse::Scenario;
use crate::report;
use std::path::{Path, PathBuf};

const USAGE: &str = "blockshard — declarative scenario driver

USAGE:
    blockshard run <FILE>... [OPTIONS]     execute scenarios, write reports
    blockshard plan <FILE>                 print the expanded job list
    blockshard check <FILE>...             parse + validate only
    blockshard list [DIR]                  list scenario files (default scenarios/)
    blockshard campaign <FAMILY> [OPTIONS] run a named scenario family
    blockshard help                        this text

OPTIONS (run):
    --threads N      worker threads (default: min(cores, jobs))
    --out DIR        report directory (default: results/)
    --rounds N       override rounds for every job (grid axes still win)
    --set KEY=VALUE  override any base key (repeatable; grid axes still win)
    --quiet          no per-job progress on stderr
    --no-write       print the summary but write no report files

OPTIONS (campaign):
    FAMILY           quick (the checked-in 200-round CI shape, golden-
                     diffed) or full (the nightly long-round shape)
    --threads N      worker threads (default: min(cores, jobs))
    --out DIR        report directory (default: results/)
    --rounds N       override rounds for every member (beats the family)
    --set KEY=VALUE  override any base key (repeatable)
    --scenarios DIR  member scenario directory (default scenarios/)
    --quiet          no per-job progress on stderr
    --no-write       print the summary but write no report files

Reports land in <out>/<scenario-name>.csv and .jsonl (campaign members
with a `metrics = full` job also write <name>.metrics.jsonl, the
per-epoch timeline). See the scenario crate rustdoc or README.md for
the scenario file grammar.";

/// Worker-thread default: available cores, capped by the job count.
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// Rounds of a paper-scale (`--full`) run.
const PAPER_ROUNDS: u64 = 25_000;

/// Arguments shared by the `bench` crate's binaries: quick/full
/// selection plus engine overrides for the scenario-driven ones
/// (`fig2`, `fig3`, `table_t1`, `ablations`), and the round count for
/// the in-crate grids (`table_t2`, `table_t3`, `frontier`).
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// Run the paper-scale variant of the scenario.
    pub full: bool,
    /// Explicit `--rounds` override, when given.
    pub rounds: Option<u64>,
    /// Output directory for reports/CSVs.
    pub out: PathBuf,
    /// Worker threads (`0` = pick a default per plan size).
    pub threads: usize,
}

impl BinArgs {
    /// Parses `std::env::args`, exiting with status 2 on a malformed
    /// value (unknown flags are ignored).
    pub fn parse() -> BinArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match parse_bin_args(&args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Rounds for the binaries that run in-crate grids instead of a
    /// scenario file: explicit `--rounds`, else the paper's 25 000 under
    /// `--full`, else `quick`.
    pub fn rounds_or(&self, quick: u64) -> u64 {
        self.rounds
            .unwrap_or(if self.full { PAPER_ROUNDS } else { quick })
    }

    /// The engine overrides this argument set implies. Binaries whose
    /// scenario file has no `_full` variant honor `--full` by overriding
    /// rounds to the paper's 25 000 (explicit `--rounds` still wins).
    pub fn sets(&self) -> Vec<(String, String)> {
        match (self.rounds, self.full) {
            (Some(r), _) => vec![("rounds".to_string(), r.to_string())],
            (None, true) => vec![("rounds".to_string(), PAPER_ROUNDS.to_string())],
            (None, false) => Vec::new(),
        }
    }

    /// Loads `scenarios/<base>_full.scenario` or `<base>_quick.scenario`
    /// per `--full`, exiting with a readable error if missing.
    pub fn load_variant(&self, base: &str) -> Scenario {
        let suffix = if self.full { "full" } else { "quick" };
        load_or_exit(Path::new(&format!("scenarios/{base}_{suffix}.scenario")))
    }

    /// Runs a scenario through the engine with this argument set.
    pub fn execute(&self, scenario: &Scenario) -> Vec<JobOutcome> {
        let jobs = match scenario.jobs_with(&self.sets()) {
            Ok(jobs) => jobs,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let threads = if self.threads == 0 {
            default_threads(jobs.len())
        } else {
            self.threads
        };
        run_jobs(&jobs, threads, true)
    }
}

fn parse_bin_args(args: &[String]) -> Result<BinArgs, String> {
    let mut out = BinArgs {
        full: false,
        rounds: None,
        out: PathBuf::from("results"),
        threads: 0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => out.full = true,
            "--rounds" => {
                let v = it.next().ok_or("--rounds takes a value")?;
                out.rounds = Some(
                    v.parse()
                        .map_err(|_| format!("--rounds: `{v}` is not an integer"))?,
                );
            }
            "--out" => {
                let v = it.next().ok_or("--out takes a value")?;
                out.out = PathBuf::from(v);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads takes a value")?;
                out.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not an integer"))?;
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Loads a scenario file or exits with a readable error (binary helper).
pub fn load_or_exit(path: &Path) -> Scenario {
    match Scenario::load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[derive(Debug)]
struct RunFlags {
    files: Vec<PathBuf>,
    threads: usize,
    out: PathBuf,
    sets: Vec<(String, String)>,
    quiet: bool,
    write: bool,
}

fn parse_run_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        files: Vec::new(),
        threads: 0,
        out: PathBuf::from("results"),
        sets: Vec::new(),
        quiet: false,
        write: true,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads takes a value")?;
                flags.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not an integer"))?;
                if flags.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out takes a value")?;
                flags.out = PathBuf::from(v);
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds takes a value")?;
                v.parse::<u64>()
                    .map_err(|_| format!("--rounds: `{v}` is not an integer"))?;
                flags.sets.push(("rounds".to_string(), v.clone()));
            }
            "--set" => {
                let v = it.next().ok_or("--set takes KEY=VALUE")?;
                let (k, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set: `{v}` is not KEY=VALUE"))?;
                flags
                    .sets
                    .push((k.trim().to_string(), val.trim().to_string()));
            }
            "--quiet" => flags.quiet = true,
            "--no-write" => flags.write = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => flags.files.push(PathBuf::from(file)),
        }
    }
    if flags.files.is_empty() {
        return Err("no scenario files given".into());
    }
    Ok(flags)
}

fn cmd_run(args: &[String]) -> i32 {
    let flags = match parse_run_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    for file in &flags.files {
        let scenario = match Scenario::load(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let jobs = match scenario.jobs_with(&flags.sets) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let threads = if flags.threads == 0 {
            default_threads(jobs.len())
        } else {
            flags.threads
        };
        if !flags.quiet {
            eprintln!(
                "scenario `{}`: {} job(s) on {} thread(s)",
                scenario.name,
                jobs.len(),
                threads.clamp(1, jobs.len())
            );
        }
        let outcomes = run_jobs(&jobs, threads, !flags.quiet);
        println!("# {}", scenario.name);
        if !scenario.description.is_empty() {
            println!("# {}", scenario.description);
        }
        print!("{}", report::summary_table(&outcomes));
        if flags.write {
            let csv = flags.out.join(format!("{}.csv", scenario.name));
            let jsonl = flags.out.join(format!("{}.jsonl", scenario.name));
            if let Err(e) = report::write_report(&csv, &report::csv_string(&outcomes))
                .and_then(|()| report::write_report(&jsonl, &report::jsonl_string(&outcomes)))
            {
                eprintln!("error: writing reports: {e}");
                return 1;
            }
            if let Some(timeline) = report::metrics_jsonl_string(&outcomes) {
                let path = flags.out.join(format!("{}.metrics.jsonl", scenario.name));
                if let Err(e) = report::write_report(&path, &timeline) {
                    eprintln!("error: writing {}: {e}", path.display());
                    return 1;
                }
            }
            println!("reports: {} + {}", csv.display(), jsonl.display());
        }
    }
    0
}

fn cmd_plan(args: &[String]) -> i32 {
    let [file] = args else {
        eprintln!("error: plan takes exactly one scenario file\n\n{USAGE}");
        return 2;
    };
    let scenario = match Scenario::load(Path::new(file)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match scenario.jobs() {
        Ok(jobs) => {
            print!("{}", scenario.plan_string(&jobs));
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn cmd_check(args: &[String]) -> i32 {
    if args.is_empty() {
        eprintln!("error: check takes scenario files\n\n{USAGE}");
        return 2;
    }
    let mut status = 0;
    for file in args {
        match Scenario::load(Path::new(file)).and_then(|s| s.jobs().map(|j| (s, j))) {
            Ok((s, jobs)) => println!("ok: {file}: `{}`, {} job(s)", s.name, jobs.len()),
            Err(e) => {
                println!("FAIL: {e}");
                status = 1;
            }
        }
    }
    status
}

fn cmd_list(args: &[String]) -> i32 {
    let dir = args.first().map(String::as_str).unwrap_or("scenarios");
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot read `{dir}`: {e}");
            return 2;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    paths.sort();
    for p in paths {
        match Scenario::load(&p).and_then(|s| s.jobs().map(|j| (s, j))) {
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
    0
}

fn parse_campaign_flags(
    args: &[String],
) -> Result<(campaign::Family, campaign::CampaignOpts), String> {
    let mut family: Option<campaign::Family> = None;
    let mut opts = campaign::CampaignOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads takes a value")?;
                opts.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not an integer"))?;
                if opts.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out takes a value")?;
                opts.out = PathBuf::from(v);
            }
            "--scenarios" => {
                let v = it.next().ok_or("--scenarios takes a value")?;
                opts.scenarios_dir = PathBuf::from(v);
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds takes a value")?;
                v.parse::<u64>()
                    .map_err(|_| format!("--rounds: `{v}` is not an integer"))?;
                opts.sets.push(("rounds".to_string(), v.clone()));
            }
            "--set" => {
                let v = it.next().ok_or("--set takes KEY=VALUE")?;
                let (k, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set: `{v}` is not KEY=VALUE"))?;
                opts.sets
                    .push((k.trim().to_string(), val.trim().to_string()));
            }
            "--quiet" => opts.quiet = true,
            "--no-write" => opts.write = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => {
                if family.is_some() {
                    return Err(format!("campaign takes one family, got extra `{name}`"));
                }
                family = Some(name.parse()?);
            }
        }
    }
    let family = family.ok_or("campaign takes a family (quick or full)")?;
    Ok((family, opts))
}

fn cmd_campaign(args: &[String]) -> i32 {
    let (family, opts) = match parse_campaign_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let results = match campaign::run_campaign(family, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!("# campaign {}", family.name());
    print!("{}", campaign::summary_table(&results));
    if opts.write {
        println!(
            "reports: {}/<scenario>.csv + .jsonl (+ .metrics.jsonl for metrics = full)",
            opts.out.display()
        );
    }
    0
}

/// CLI entry point; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            i32::from(args.is_empty())
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_flags_parse() {
        let args: Vec<String> = [
            "a.scenario",
            "--threads",
            "3",
            "--rounds",
            "500",
            "--set",
            "rho=0.2",
            "--quiet",
            "b.scenario",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_run_flags(&args).unwrap();
        assert_eq!(f.files.len(), 2);
        assert_eq!(f.threads, 3);
        assert!(f.quiet);
        assert_eq!(
            f.sets,
            vec![
                ("rounds".to_string(), "500".to_string()),
                ("rho".to_string(), "0.2".to_string())
            ]
        );
    }

    #[test]
    fn bin_args_full_implies_paper_rounds() {
        let base = BinArgs {
            full: false,
            rounds: None,
            out: PathBuf::from("results"),
            threads: 0,
        };
        assert!(base.sets().is_empty());
        let full = BinArgs {
            full: true,
            ..base.clone()
        };
        assert_eq!(
            full.sets(),
            vec![("rounds".to_string(), "25000".to_string())]
        );
        let explicit = BinArgs {
            full: true,
            rounds: Some(300),
            ..base.clone()
        };
        assert_eq!(
            explicit.sets(),
            vec![("rounds".to_string(), "300".to_string())],
            "explicit --rounds beats --full"
        );
        assert_eq!(explicit.rounds_or(6_000), 300);
        assert_eq!(full.rounds_or(6_000), 25_000);
        assert_eq!(base.rounds_or(6_000), 6_000);
    }

    #[test]
    fn bin_args_parse_and_reject_bad_input() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_bin_args(&args)
        };
        let ok = parse(&["--full", "--rounds", "300", "--threads", "2", "--out", "d"]).unwrap();
        assert!(ok.full);
        assert_eq!(ok.rounds, Some(300));
        assert_eq!(ok.threads, 2);
        assert_eq!(ok.out, PathBuf::from("d"));
        assert_eq!(
            parse(&["--rounds", "x"]).unwrap_err(),
            "--rounds: `x` is not an integer"
        );
        assert_eq!(
            parse(&["--threads", "x"]).unwrap_err(),
            "--threads: `x` is not an integer"
        );
        assert!(parse(&["--rounds"]).unwrap_err().contains("takes a value"));
    }

    #[test]
    fn bench_verb_and_timed_flag_are_gone() {
        assert_eq!(run(&["bench".to_string()]), 2, "unknown command");
        let args = ["quick".to_string(), "--timed".to_string()];
        assert_eq!(
            parse_campaign_flags(&args).unwrap_err(),
            "unknown flag `--timed`"
        );
        assert!(!USAGE.contains("bench") && !USAGE.contains("--timed"));
    }

    #[test]
    fn campaign_flags_parse() {
        let args: Vec<String> = [
            "quick",
            "--threads",
            "2",
            "--out",
            "camp",
            "--set",
            "seed=7",
            "--quiet",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (family, opts) = parse_campaign_flags(&args).unwrap();
        assert_eq!(family, campaign::Family::Quick);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.out, PathBuf::from("camp"));
        assert_eq!(opts.sets, vec![("seed".to_string(), "7".to_string())]);
        assert!(opts.quiet);
        assert!(opts.write);
    }

    #[test]
    fn campaign_flags_reject_bad_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_campaign_flags(&args).unwrap_err()
        };
        assert!(bad(&[]).contains("takes a family"));
        assert!(bad(&["nightly"]).contains("unknown campaign family"));
        assert!(bad(&["quick", "full"]).contains("one family"));
        assert!(bad(&["quick", "--wat"]).contains("unknown flag"));
        assert!(bad(&["quick", "--threads", "0"]).contains(">= 1"));
    }

    #[test]
    fn run_flags_reject_bad_input() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_run_flags(&args).unwrap_err()
        };
        assert!(bad(&[]).contains("no scenario files"));
        assert!(bad(&["a", "--wat"]).contains("unknown flag"));
        assert!(bad(&["a", "--threads", "x"]).contains("not an integer"));
        assert!(bad(&["a", "--set", "nope"]).contains("KEY=VALUE"));
    }
}
