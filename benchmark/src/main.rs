//! `run` measures the end-to-end metrics, `trace` (or `run --trace 1`)
//! the per-layer ones, `compare` holds result files against each other.

use benchmark::checks::Checks;
use benchmark::compare::compare_files;
use benchmark::harness::{self, RunOptions};
use benchmark::json::Json;
use benchmark::probes;
use benchmark::spec;
use benchmark::workloads::{Scale, Workload, NET_WORKERS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark run     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark trace   [--seed N]
       benchmark compare BASELINE.json OTHER.json [OTHER.json ...]

run      end-to-end metrics of the named workloads (default: all four, 15 timed
         iterations each; --seconds S stops a workload's timed iterations after
         S seconds, never below 9). Last line of stdout per workload: one JSON
         object {correct, attempted, failed, metrics}. --out FILE appends one
         line per workload for `compare`.
trace    the traced run: per-layer metrics of every workload and layer, spans
         written to benchmark/out/trace-<workload>.jsonl (same as run --trace 1;
         a traced run always covers all four workloads).
compare  per workload and metric: medians and quartiles of each file's runs and
         improved / unchanged / regressed / unresolved against the first file.";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 7,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed
                .workloads
                .push(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if s.is_nan() || s <= 0.0 {
                    return Err(bad());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

/// The result object the pipeline reads from the last line of stdout.
fn envelope(checks: &Checks, metrics: Vec<(String, f64, &str)>) -> Json {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name, Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(checks.failed == 0)),
        ("attempted".to_string(), Json::Num(checks.attempted as f64)),
        ("failed".to_string(), Json::Num(checks.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(args: &Args) -> Result<bool, String> {
    assert_eq!(NET_WORKERS, 1, "end-to-end workloads run on one thread");
    println!(
        "benchmark run: seed {}, nproc {}, closed run-to-completion jobs on one thread",
        args.seed,
        nproc()
    );
    let runs = harness::run(&RunOptions {
        workloads: args.workloads.clone(),
        scale: Scale::Full,
        seed: args.seed,
        timed_iterations: (harness::MIN_TIMED_ITERATIONS, harness::TIMED_ITERATIONS),
        seconds: args.seconds,
    });
    for run in &runs {
        print!("{}", run.render());
    }
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for run in &runs {
            let metrics = run
                .metrics()
                .into_iter()
                .map(|(name, value)| (name.to_string(), Json::Num(value)))
                .collect();
            let line = Json::Obj(vec![
                (
                    "workload".to_string(),
                    Json::Str(run.workload.name().to_string()),
                ),
                ("seed".to_string(), Json::Num(args.seed as f64)),
                (
                    "iterations".to_string(),
                    Json::Num(run.wall_ns.len() as f64),
                ),
                (
                    "checks_attempted".to_string(),
                    Json::Num(run.checks.attempted as f64),
                ),
                (
                    "checks_failed".to_string(),
                    Json::Num(run.checks.failed as f64),
                ),
                ("metrics".to_string(), Json::Obj(metrics)),
            ]);
            writeln!(file, "{}", line.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    for run in &runs {
        let metrics = run
            .metrics()
            .into_iter()
            .zip(&spec::END_TO_END)
            .map(|((name, value), m)| (name.to_string(), value, m.unit))
            .collect();
        println!("{}", envelope(&run.checks, metrics).render());
    }
    Ok(runs.iter().all(|r| r.checks.failed == 0))
}

fn trace(args: &Args) -> Result<bool, String> {
    println!(
        "benchmark trace: seed {}, nproc {}; every workload traced once more after its warm-up",
        args.seed,
        nproc()
    );
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let traced = probes::run_trace(args.seed, Scale::Full);
    print!("{}", traced.render());
    traced
        .write_spans(&out_dir)
        .map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let units = spec::per_layer();
    let metrics = traced
        .metrics
        .iter()
        .zip(&units)
        .map(|((name, value), m)| {
            assert_eq!(*name, m.name, "traced metrics follow the declared order");
            (name.clone(), *value, m.unit)
        })
        .collect();
    println!("{}", envelope(&traced.checks, metrics).render());
    Ok(traced.checks.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => parse_args(rest).and_then(|a| {
            if a.trace || cmd == "trace" {
                trace(&a)
            } else {
                run(&a)
            }
        }),
        Some((cmd, files)) if cmd == "compare" && files.len() >= 2 => {
            compare_files(files).map(|report| {
                print!("{report}");
                true
            })
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: correctness checks failed (metrics printed above)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
