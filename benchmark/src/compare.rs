//! `compare`: two or more result files (`run --out FILE` appends one line
//! per workload and run) held against the first, per workload × metric.
//!
//! The rule, from the repository's measuring guide: worse than the
//! baseline's median by more than the metric's bound is **regressed**;
//! otherwise, a run-to-run spread wider than the bound makes the row
//! **unresolved** unless every run of the candidate beats every run of
//! the baseline; a gain is **improved** only when the candidate wins at
//! least nine tenths of the pairs and the medians differ by more than the
//! baseline's own interquartile distance; anything else is **unchanged**.
//! Exact metrics are functions of the seed, so runs of the same seed are
//! held to equality instead.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, Kind, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One run's value of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub seed: u64,
    pub value: f64,
}

/// `+1` when `b` is better than `a`, `-1` when worse, `0` when equal.
fn sign(better: Better, a: f64, b: f64) -> i32 {
    let gain = match better {
        Better::Higher => b - a,
        Better::Lower => a - b,
    };
    (gain > 0.0) as i32 - (gain < 0.0) as i32
}

/// Judges `cand` against `base` for metric `m`, in file order.
pub fn judge(m: &EndToEnd, base: &[Sample], cand: &[Sample]) -> Verdict {
    if m.kind == Kind::Exact {
        let pairs: Vec<(f64, f64)> = base
            .iter()
            .flat_map(|a| {
                cand.iter()
                    .filter(|b| b.seed == a.seed)
                    .map(|b| (a.value, b.value))
            })
            .collect();
        if !pairs.is_empty() {
            let balance: i32 = pairs.iter().map(|&(a, b)| sign(m.better, a, b)).sum();
            return match (pairs.iter().all(|(a, b)| a == b), balance >= 0) {
                (true, _) => Verdict::Unchanged,
                (false, true) => Verdict::Improved,
                (false, false) => Verdict::Regressed,
            };
        }
    }
    let (a, b) = (values(base), values(cand));
    let (med_a, med_b) = (median(&a), median(&b));
    let gain = sign(m.better, med_a, med_b) as f64 * (med_b - med_a).abs() / med_a.abs();
    if gain < -m.bound {
        return Verdict::Regressed;
    }
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| sign(m.better, x, y) > 0));
    if iqr_share(&a).max(iqr_share(&b)) > m.bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(&b)
        .filter(|(&x, &y)| sign(m.better, x, y) > 0)
        .count();
    if all_better || (wins * 10 >= pairs * 9 && gain > iqr_share(&a)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The runs of one result file: `(workload, metric) → samples`.
type Runs = Vec<((String, String), Vec<Sample>)>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: Runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no `workload`"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no `seed`"))? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Json::members)
            .ok_or_else(|| bad("no `metrics`"))?;
        for (metric, value) in metrics {
            let value = value
                .as_f64()
                .ok_or_else(|| bad("metric is not a number"))?;
            let key = (workload.to_string(), metric.clone());
            let sample = Sample { seed, value };
            match runs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, samples)) => samples.push(sample),
                None => runs.push((key, vec![sample])),
            }
        }
    }
    Ok(runs)
}

fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.value).collect()
}

fn side(samples: &[Sample]) -> String {
    let [q1, q2, q3] = quartiles(&values(samples));
    format!("{q2:>14.4} [{q1:.4} .. {q3:.4}] n={}", samples.len())
}

/// Compares every further file with the first and renders the tables.
pub fn compare_files(files: &[String]) -> Result<String, String> {
    let loaded = files
        .iter()
        .map(|f| load(f))
        .collect::<Result<Vec<Runs>, String>>()?;
    let (base, others) = loaded.split_first().ok_or("compare needs two files")?;
    let mut out = String::new();
    for (file, cand) in files[1..].iter().zip(others) {
        out += &format!(
            "{} (baseline) vs {file}: median [p25 .. p75] of each side's runs\n",
            files[0]
        );
        for w in Workload::ALL {
            for m in &END_TO_END {
                let key = (w.name().to_string(), m.name.to_string());
                let find =
                    |runs: &Runs| runs.iter().find(|(k, _)| *k == key).map(|(_, s)| s.clone());
                let (Some(a), Some(b)) = (find(base), find(cand)) else {
                    continue;
                };
                let change = (median(&values(&b)) / median(&values(&a)) - 1.0) * 100.0;
                out += &format!(
                    "  {:<16} {:<24} {} | {} {:+7.2}% ({} is better, bound {:.0}%)  {}\n",
                    w.name(),
                    m.name,
                    side(&a),
                    side(&b),
                    change,
                    m.better.word(),
                    m.bound * 100.0,
                    judge(m, &a, &b).word(),
                );
            }
        }
    }
    Ok(out)
}
