//! # bench
//!
//! The experiment harness: ASCII rendering and legacy sweep machinery for
//! the figure-regeneration binaries (`fig2`, `fig3`, `table_t1`,
//! `table_t2`, `table_t3`, `frontier`, `ablations`). Timing lives in the
//! standalone `benchmark/` crate, not here.
//!
//! The grid definitions themselves are migrating into declarative
//! `.scenario` files under `scenarios/` driven by the [`scenario`] engine
//! (`fig2`, `fig3`, `table_t1`, and `ablations` are already thin
//! wrappers; `table_t2`, `table_t3`, and `frontier` still use the
//! in-crate [`Opts`] sweeps). Every binary accepts:
//!
//! * `--full` — run the paper-scale grid (25 000 rounds, the full ρ and b
//!   grids). Without it a reduced "quick" grid runs in a few minutes on a
//!   single core.
//! * `--rounds N` — override the round count.
//! * `--out DIR` — output directory for CSV files (default `results/`).
//! * `--threads N` — worker threads (scenario-driven binaries only).
//!
//! The binaries print ASCII renditions of the paper's plots plus a
//! paper-vs-measured summary, and write the raw series as CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adversary::{AdversaryConfig, StrategyKind};
use schedulers::RunReport;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Parsed command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Paper-scale grid when true.
    pub full: bool,
    /// Number of simulated rounds per cell.
    pub rounds: u64,
    /// Output directory for CSVs.
    pub out: PathBuf,
}

impl Opts {
    /// Parses `std::env::args`, with `default_rounds` for quick mode.
    /// Full mode uses the paper's 25 000 rounds unless `--rounds` is
    /// given.
    pub fn parse(default_rounds: u64) -> Opts {
        let args: Vec<String> = std::env::args().collect();
        let full = args.iter().any(|a| a == "--full");
        let mut rounds = if full { 25_000 } else { default_rounds };
        let mut out = PathBuf::from("results");
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--rounds" => {
                    if let Some(v) = it.next() {
                        rounds = v.parse().expect("--rounds takes an integer");
                    }
                }
                "--out" => {
                    if let Some(v) = it.next() {
                        out = PathBuf::from(v);
                    }
                }
                _ => {}
            }
        }
        Opts { full, rounds, out }
    }

    /// The ρ grid for the figures.
    pub fn rho_grid(&self) -> Vec<f64> {
        if self.full {
            vec![0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.27, 0.30]
        } else {
            vec![0.05, 0.10, 0.15, 0.20, 0.27]
        }
    }

    /// The burstiness grid for the figures (total burst transactions).
    pub fn b_grid(&self) -> Vec<u64> {
        if self.full {
            vec![500, 1000, 2000, 3000]
        } else {
            vec![1000, 3000]
        }
    }
}

/// One sweep cell result.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Injection rate.
    pub rho: f64,
    /// Burst size (total transactions in the one-epoch burst).
    pub b: u64,
    /// The run's report.
    pub report: RunReport,
}

/// The Section 7 workload: steady rate ρ plus one burst of `b`
/// transactions injected early in the run ("burstiness was introduced
/// within only one epoch").
pub fn paper_workload(rho: f64, b: u64, seed: u64, rounds: u64) -> AdversaryConfig {
    AdversaryConfig {
        rho,
        burstiness: b.max(1),
        strategy: StrategyKind::CountBurst {
            burst_round: (rounds / 10).max(1),
            count: b,
        },
        seed,
        ..Default::default()
    }
}

/// Writes sweep cells as CSV.
pub fn write_csv(path: &Path, cells: &[Cell]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "rho,b,avg_queue_per_shard,avg_latency,max_latency,max_total_pending,generated,committed,aborted,pending_at_end,verdict"
    )?;
    for c in cells {
        writeln!(
            f,
            "{},{},{:.4},{:.2},{},{},{},{},{},{},{:?}",
            c.rho,
            c.b,
            c.report.avg_queue_per_shard,
            c.report.avg_latency,
            c.report.max_latency,
            c.report.max_total_pending,
            c.report.generated,
            c.report.committed,
            c.report.aborted,
            c.report.pending_at_end,
            c.report.verdict,
        )?;
    }
    Ok(())
}

/// Renders an ASCII grouped bar chart: one row per ρ, one bar per b,
/// values scaled to `width` characters.
pub fn ascii_bars(
    title: &str,
    cells: &[Cell],
    value: impl Fn(&Cell) -> f64,
    width: usize,
) -> String {
    let mut bs: Vec<u64> = cells.iter().map(|c| c.b).collect();
    bs.sort_unstable();
    bs.dedup();
    let mut rhos: Vec<f64> = cells.iter().map(|c| c.rho).collect();
    rhos.sort_by(f64::total_cmp);
    rhos.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let max = cells.iter().map(&value).fold(0.0f64, f64::max).max(1e-9);
    let mut out = format!("{title} (full bar = {max:.1})\n");
    for &rho in &rhos {
        out.push_str(&format!("rho {rho:>5.2}\n"));
        for &b in &bs {
            if let Some(c) = cells
                .iter()
                .find(|c| c.b == b && (c.rho - rho).abs() < 1e-12)
            {
                let v = value(c);
                let n = ((v / max) * width as f64).round() as usize;
                out.push_str(&format!(
                    "  b={b:<5} |{}{} {v:.1}\n",
                    "█".repeat(n),
                    " ".repeat(width.saturating_sub(n)),
                ));
            }
        }
    }
    out
}

/// Renders ASCII line series: for each b, `rho → value` as a column list.
pub fn ascii_table(title: &str, cells: &[Cell], value: impl Fn(&Cell) -> f64) -> String {
    let mut bs: Vec<u64> = cells.iter().map(|c| c.b).collect();
    bs.sort_unstable();
    bs.dedup();
    let mut rhos: Vec<f64> = cells.iter().map(|c| c.rho).collect();
    rhos.sort_by(f64::total_cmp);
    rhos.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let mut out = format!("{title}\n rho   ");
    for &b in &bs {
        out.push_str(&format!("{:>12}", format!("b={b}")));
    }
    out.push('\n');
    for &rho in &rhos {
        out.push_str(&format!("{rho:>5.2}  "));
        for &b in &bs {
            let v = cells
                .iter()
                .find(|c| c.b == b && (c.rho - rho).abs() < 1e-12)
                .map(&value)
                .unwrap_or(f64::NAN);
            out.push_str(&format!("{v:>12.1}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedulers::SchedulerKind;
    use sharding_core::stats::StabilityVerdict;

    fn dummy_cell(rho: f64, b: u64, q: f64) -> Cell {
        use schedulers::metrics::MetricsCollector;
        let mut col = MetricsCollector::new(4);
        col.sample_pending((q * 4.0) as u64);
        let report = col.finish(SchedulerKind::Bds, 1, 0, 0, 0, 0, 0, 0);
        let mut report = report;
        report.verdict = StabilityVerdict::Stable;
        Cell { rho, b, report }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("blockshard_csv_test");
        let path = dir.join("t.csv");
        let cells = vec![dummy_cell(0.1, 100, 5.0), dummy_cell(0.2, 100, 9.0)];
        write_csv(&path, &cells).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.lines().next().unwrap().starts_with("rho,b,"));
        assert!(content.contains("0.2,100"));
    }

    #[test]
    fn ascii_renders_all_groups() {
        let cells = vec![
            dummy_cell(0.1, 100, 5.0),
            dummy_cell(0.1, 200, 2.0),
            dummy_cell(0.2, 100, 9.0),
            dummy_cell(0.2, 200, 4.0),
        ];
        let s = ascii_bars("q", &cells, |c| c.report.avg_queue_per_shard, 20);
        assert_eq!(s.matches("b=100").count(), 2);
        assert_eq!(s.matches("rho").count(), 2);
        let t = ascii_table("q", &cells, |c| c.report.avg_queue_per_shard);
        assert!(t.contains("b=200"));
    }

    #[test]
    fn paper_workload_shape() {
        let w = paper_workload(0.1, 2000, 1, 25_000);
        assert_eq!(w.rho, 0.1);
        match w.strategy {
            StrategyKind::CountBurst { burst_round, count } => {
                assert_eq!(burst_round, 2500);
                assert_eq!(count, 2000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
