//! Report serialization: CSV, JSON-lines, and the stdout tables.
//!
//! Every report column is declared once, in [`COLUMNS`]; the CSV header
//! and rows, the JSON-lines objects and the stdout tables are all walks
//! over that table. All renderings are deterministic functions of the
//! outcome list (itself ordered by job index), so report files are
//! byte-identical across worker counts and runs.

use crate::exec::JobOutcome;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One value of one column.
pub enum Cell {
    /// A count: bare in JSON.
    Int(u64),
    /// A float in its shortest round-trip spelling: bare in JSON.
    Real(f64),
    /// A float and the decimals it is printed to: in CSV/JSONL, and in
    /// stdout tables.
    Fixed(f64, usize, usize),
    /// Anything else: a quoted (and escaped) JSON string.
    Text(String),
}

impl Cell {
    fn text(v: impl ToString) -> Option<Cell> {
        Some(Cell::Text(v.to_string()))
    }

    fn int(v: u64) -> Option<Cell> {
        Some(Cell::Int(v))
    }

    /// Appends the cell as report files (`screen = false`) or stdout
    /// tables spell it.
    fn write(&self, out: &mut String, screen: bool) {
        let _ = match self {
            Cell::Int(v) => write!(out, "{v}"),
            Cell::Real(v) => write!(out, "{v}"),
            Cell::Fixed(v, file, short) => {
                write!(out, "{v:.*}", if screen { *short } else { *file })
            }
            Cell::Text(v) => write!(out, "{v}"),
        };
    }
}

/// A column's value for one outcome. `None` means the plane that owns
/// the column was off for this job: an empty CSV field and an omitted
/// JSONL key (never a fake zero), `-` in a stdout table.
pub type CellFn = fn(&JobOutcome) -> Option<Cell>;

/// The metrics plane's report, when the job ran with `metrics` on.
fn plane(o: &JobOutcome) -> Option<&metrics::MetricsReport> {
    o.report.metrics.as_ref()
}

/// Every report column, in file order — the one place a column is
/// declared.
///
/// Deliberately **without** an `engine` column: the engine changes how a
/// job executes, never what it measures, and the headline guarantee is
/// that `engine = net` reports are byte-identical to `engine = sim`,
/// faulted or not — a column recording the engine would break exactly
/// that equality. The four fault columns are all zero for fault-free
/// runs on either engine.
pub const COLUMNS: &[(&str, CellFn)] = &[
    ("scenario", |o| Cell::text(&o.spec.scenario)),
    ("job", |o| Cell::int(o.spec.index as u64)),
    ("scheduler", |o| Cell::text(o.spec.scheduler)),
    ("metric", |o| Cell::text(o.spec.metric)),
    ("shards", |o| Cell::int(o.spec.sys.shards as u64)),
    ("accounts", |o| Cell::int(o.spec.sys.accounts as u64)),
    ("k", |o| Cell::int(o.spec.sys.k_max as u64)),
    ("rounds", |o| Cell::int(o.spec.rounds)),
    ("rho", |o| Some(Cell::Real(o.spec.adv.rho))),
    ("b", |o| Cell::int(o.spec.adv.burstiness)),
    ("strategy", |o| Cell::text(o.spec.adv.strategy)),
    ("shape", |o| Cell::text(o.spec.adv.shape)),
    ("seed", |o| Cell::int(o.spec.adv.seed)),
    ("coloring", |o| Cell::text(o.spec.bds.coloring)),
    ("generated", |o| Cell::int(o.report.generated)),
    ("committed", |o| Cell::int(o.report.committed)),
    ("aborted", |o| Cell::int(o.report.aborted)),
    ("pending_at_end", |o| Cell::int(o.report.pending_at_end)),
    ("avg_queue_per_shard", |o| {
        Some(Cell::Fixed(o.report.avg_queue_per_shard, 4, 2))
    }),
    ("avg_latency", |o| {
        Some(Cell::Fixed(o.report.avg_latency, 2, 1))
    }),
    ("max_latency", |o| Cell::int(o.report.max_latency)),
    ("max_total_pending", |o| {
        Cell::int(o.report.max_total_pending)
    }),
    ("epochs", |o| Cell::int(o.report.epochs)),
    ("max_epoch_len", |o| Cell::int(o.report.max_epoch_len)),
    ("messages", |o| Cell::int(o.report.messages)),
    ("max_message_bytes", |o| {
        Cell::int(o.report.max_message_bytes)
    }),
    ("verdict", |o| Cell::text(format!("{:?}", o.report.verdict))),
    ("order_violations", |o| o.violations.map(Cell::Int)),
    ("crashes", |o| Cell::int(o.report.faults.crashes)),
    ("dropped_msgs", |o| Cell::int(o.report.faults.dropped)),
    ("duplicated_msgs", |o| Cell::int(o.report.faults.duplicated)),
    ("byz_flips", |o| Cell::int(o.report.faults.byz_flips)),
    ("mempool_depth_max", |o| {
        Some(Cell::Int(o.mempool?.depth_max))
    }),
    ("admitted", |o| Some(Cell::Int(o.mempool?.admitted))),
    ("deferred", |o| Some(Cell::Int(o.mempool?.deferred))),
    ("evicted", |o| Some(Cell::Int(o.mempool?.evicted))),
    ("lat_p50", |o| Cell::int(plane(o)?.lat_p50())),
    ("lat_p99", |o| Cell::int(plane(o)?.lat_p99())),
    ("lat_p999", |o| Cell::int(plane(o)?.lat_p999())),
    ("util_min_shard", |o| {
        Some(Cell::Fixed(plane(o)?.util_min_shard(), 4, 4))
    }),
    ("reshard_lost", |o| Some(Cell::Int(o.reshard?.0))),
    ("reshard_dup", |o| Some(Cell::Int(o.reshard?.1))),
];

/// The CSV header row (no trailing newline).
pub(crate) fn csv_header() -> String {
    let names: Vec<&str> = COLUMNS.iter().map(|(name, _)| *name).collect();
    names.join(",")
}

/// One CSV data row (no trailing newline).
pub fn csv_row(o: &JobOutcome) -> String {
    let mut out = String::with_capacity(256);
    for (i, (_, cell)) in COLUMNS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(cell) = cell(o) {
            cell.write(&mut out, false);
        }
    }
    out
}

/// The whole CSV document.
pub fn csv_string(outcomes: &[JobOutcome]) -> String {
    let mut out = csv_header();
    out.push('\n');
    for o in outcomes {
        out.push_str(&csv_row(o));
        out.push('\n');
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One JSON object per outcome (no trailing newline). Hand-rolled — the
/// workspace is offline and the schema is flat.
pub fn json_line(o: &JobOutcome) -> String {
    let mut out = String::with_capacity(768);
    out.push('{');
    for (name, cell) in COLUMNS {
        let Some(cell) = cell(o) else { continue };
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":");
        match cell {
            Cell::Text(v) => {
                let _ = write!(out, "\"{}\"", json_escape(&v));
            }
            bare => bare.write(&mut out, false),
        }
    }
    out.push('}');
    out
}

/// The whole JSON-lines document.
pub fn jsonl_string(outcomes: &[JobOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&json_line(o));
        out.push('\n');
    }
    out
}

/// The per-epoch timeline document for `metrics = full` jobs: one JSON
/// object per `(job, epoch)`, in job then epoch order. Jobs that ran at
/// `off`/`summary` contribute no lines; an all-`off` run yields `None`
/// (no file should be written at all).
pub fn metrics_jsonl_string(outcomes: &[JobOutcome]) -> Option<String> {
    let mut out = String::new();
    let mut any = false;
    for o in outcomes {
        if o.spec.metrics != metrics::MetricsMode::Full {
            continue;
        }
        let Some(m) = &o.report.metrics else { continue };
        any = true;
        for row in &m.timeline {
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"job\":{},\"epoch\":{},\"start_round\":{},\
                 \"rounds\":{},\"commits\":{},\"aborts\":{},\"pending_max\":{},\
                 \"pending_sum\":{},\"byz_flips\":{},\"crashed_shards_max\":{},\
                 \"active_shards\":{}}}\n",
                json_escape(&o.spec.scenario),
                o.spec.index,
                row.epoch,
                row.start_round,
                row.rounds,
                row.commits,
                row.aborts,
                row.pending_max,
                row.pending_sum,
                row.byz_flips,
                row.crashed_shards_max,
                row.active_shards,
            ));
        }
    }
    any.then_some(out)
}

/// Writes `content` to `path`, creating parent directories.
pub fn write_report(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())
}

/// The stdout column that is not a report column: the grid overrides
/// that produced the job ([`JobSpec::label`](crate::JobSpec::label)).
pub const SWEEP: &str = "sweep";

/// A fixed-width table for stdout: one row per outcome, one column per
/// name — a [`COLUMNS`] name, or [`SWEEP`].
///
/// # Panics
/// On a name that is neither (a bug in the caller's column list).
pub fn table(outcomes: &[JobOutcome], columns: &[&str]) -> String {
    table_with(outcomes, columns, |o| o.spec.label())
}

/// [`table`] with the caller's own [`SWEEP`] cell (the ablation tables
/// annotate the grid label).
pub fn table_with(
    outcomes: &[JobOutcome],
    columns: &[&str],
    sweep: impl Fn(&JobOutcome) -> String,
) -> String {
    let cells: Vec<Option<CellFn>> = columns
        .iter()
        .map(|&name| {
            let column = COLUMNS.iter().find(|(n, _)| *n == name);
            assert!(column.is_some() || name == SWEEP, "no column `{name}`");
            column.map(|(_, cell)| *cell)
        })
        .collect();
    // Row 0 is the header; text is left-aligned, numbers right-aligned.
    let mut rows = vec![columns.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
    let mut left = vec![false; columns.len()];
    for o in outcomes {
        let mut row = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let mut text = String::new();
            match cell.map(|cell| cell(o)) {
                None => {
                    left[i] = true;
                    text = sweep(o);
                }
                Some(None) => text.push('-'),
                Some(Some(cell)) => {
                    left[i] |= matches!(cell, Cell::Text(_));
                    cell.write(&mut text, true);
                }
            }
            row.push(text);
        }
        rows.push(row);
    }
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| rows.iter().map(|r| r[i].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in &rows {
        for (i, text) in row.iter().enumerate() {
            let (w, sep) = (widths[i], if i == 0 { "" } else { " " });
            let _ = if left[i] {
                write!(out, "{sep}{text:<w$}")
            } else {
                write!(out, "{sep}{text:>w$}")
            };
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_jobs;
    use crate::parse::Scenario;

    fn outcomes() -> Vec<JobOutcome> {
        let text = "
name = report-tiny
scheduler = fcfs
shards = 4
accounts = 8
k = 2
rounds = 80
rho = 0.2
b = 3

[grid]
seed = 1, 2
";
        let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
        run_jobs(&jobs, 2, false)
    }

    #[test]
    fn csv_shape() {
        let out = outcomes();
        let csv = csv_string(&out);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, csv_header());
        let cols = header.split(',').count();
        assert_eq!(cols, COLUMNS.len());
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = outcomes();
        let jsonl = jsonl_string(&out);
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"scheduler\":\"FCFS\""));
        }
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn table_lists_every_job_under_its_column_names() {
        let out = outcomes();
        let table = table(&out, &["job", SWEEP, "avg_latency", "lat_p50"]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].split_whitespace().collect::<Vec<_>>(),
            ["job", "sweep", "avg_latency", "lat_p50"]
        );
        // One screen decimal for the latency; `-` for the metrics plane
        // this job ran without.
        let latency = format!("{:.1}", out[1].report.avg_latency);
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["1", "seed=2", latency.as_str(), "-"]
        );
    }

    /// The JSONL object is the same walk as the CSV row: its keys are
    /// exactly the columns whose cell is `Some` (a non-empty CSV field),
    /// in table order.
    #[test]
    fn json_line_keys_are_the_present_columns_in_table_order() {
        // Metrics plane on for both jobs; the order check (one more
        // present column) on for the first only.
        let text = "name = planes\nshards = 4\nk = 2\nrounds = 60\nmetrics = summary\n\
                    scheduler = fds\n[grid]\ncheck-order = true, false\n";
        let jobs = Scenario::parse_str(text, "<t>").unwrap().jobs().unwrap();
        for o in run_jobs(&jobs, 1, false) {
            let csv = csv_row(&o);
            let present: Vec<String> = COLUMNS
                .iter()
                .zip(csv.split(','))
                .filter(|(_, field)| !field.is_empty())
                .map(|((name, _), _)| format!("\"{name}\""))
                .collect();
            assert_eq!(present.len(), if o.violations.is_some() { 36 } else { 35 });
            let line = json_line(&o);
            let keys: Vec<&str> = line[1..line.len() - 1]
                .split(',')
                .map(|field| field.split_once(':').expect("key:value").0)
                .collect();
            assert_eq!(keys, present);
        }
    }
}
