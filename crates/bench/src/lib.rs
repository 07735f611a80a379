//! # bench
//!
//! ASCII rendering for the figure-regeneration binaries (`fig2`, `fig3`,
//! `table_t1`, `table_t2`, `table_t3`, `frontier`, `ablations`). Nothing
//! here measures host time: timing lives in the standalone `benchmark/`
//! crate.
//!
//! `fig2`, `fig3`, `table_t1` and `ablations` are thin wrappers over
//! `.scenario` files under `scenarios/` driven by the [`scenario`]
//! engine; `table_t2`, `table_t3` and `frontier` run small in-crate
//! grids. All seven parse their arguments with
//! [`scenario::cli::BinArgs`]:
//!
//! * `--full` — the paper-scale run (25 000 rounds; `fig2` and `fig3`
//!   also load their `_full` grid). Without it a reduced "quick" shape
//!   runs in a few minutes on a single core.
//! * `--rounds N` — override the round count.
//! * `--out DIR` — output directory for reports (default `results/`;
//!   scenario-driven binaries only).
//! * `--threads N` — worker threads (scenario-driven binaries only).
//!
//! The binaries print ASCII renditions of the paper's plots plus a
//! paper-vs-measured summary; the scenario-driven ones write the raw
//! series as CSV + JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use schedulers::RunReport;

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
}
