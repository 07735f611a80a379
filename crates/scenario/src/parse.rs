//! The `.scenario` file parser and grid planner.
//!
//! The format is deliberately dependency-free: line-oriented
//! `key = value` assignments, `#` comments, and one optional `[grid]`
//! section whose comma-separated axes expand into the cross-product of
//! jobs. See the crate docs for the full grammar and key table.

use crate::spec::{JobDraft, JobSpec};
use std::path::{Path, PathBuf};

/// Hard ceiling on expanded plan size, guarding against a typo'd grid
/// (`seed = 1..` style lists are still written out by hand).
const MAX_JOBS: usize = 65_536;

/// A parse or validation error, carrying file/line provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Where the text came from (path, or `"<inline>"`).
    pub origin: String,
    /// 1-based line number, when attributable to one line.
    pub line: Option<usize>,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{}: {}", self.origin, line, self.msg),
            None => write!(f, "{}: {}", self.origin, self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    fn new(origin: &str, line: Option<usize>, msg: String) -> ScenarioError {
        let origin = origin.to_string();
        ScenarioError { origin, line, msg }
    }
}

/// Lets a CLI verb, whose failure is the message it prints, `?` a
/// scenario error.
impl From<ScenarioError> for String {
    fn from(e: ScenarioError) -> String {
        e.to_string()
    }
}

#[derive(Debug, Clone)]
struct Assign {
    key: String,
    value: String,
    line: usize,
}

#[derive(Debug, Clone)]
struct Axis {
    key: String,
    values: Vec<String>,
    line: usize,
}

/// A parsed scenario: base assignments plus grid axes, not yet expanded.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (the `name =` key; required).
    pub name: String,
    /// Free-text description (the `description =` key).
    pub description: String,
    /// Source path, when loaded from disk.
    pub path: Option<PathBuf>,
    origin: String,
    base: Vec<Assign>,
    grid: Vec<Axis>,
}

impl Scenario {
    /// Loads and parses a scenario file.
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        let origin = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(&origin, None, format!("cannot read file: {e}")))?;
        let mut s = Scenario::parse_str(&text, &origin)?;
        s.path = Some(path.to_path_buf());
        Ok(s)
    }

    /// Parses scenario text. `origin` labels error messages (a path, or
    /// something like `"<inline>"` for embedded text).
    pub fn parse_str(text: &str, origin: &str) -> Result<Scenario, ScenarioError> {
        let err = |line: usize, msg: String| ScenarioError::new(origin, Some(line), msg);
        let mut name = None;
        let mut description = String::new();
        let mut base = Vec::new();
        let mut grid: Vec<Axis> = Vec::new();
        let mut in_grid = false;

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let section = section
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, format!("unterminated section header `{raw}`")))?
                    .trim();
                match section {
                    "grid" => in_grid = true,
                    "scenario" | "base" => in_grid = false,
                    other => return Err(err(lineno, format!("unknown section `[{other}]`"))),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let key = key.trim();
            let value = value.trim();
            if key.is_empty() {
                return Err(err(lineno, "empty key".into()));
            }
            if in_grid {
                if key == "name" || key == "description" {
                    return Err(err(lineno, format!("`{key}` cannot be a grid axis")));
                }
                if grid.iter().any(|a| a.key == key) {
                    return Err(err(lineno, format!("duplicate grid axis `{key}`")));
                }
                let values: Vec<String> = value
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if values.is_empty() {
                    return Err(err(lineno, format!("grid axis `{key}` has no values")));
                }
                grid.push(Axis {
                    key: key.to_string(),
                    values,
                    line: lineno,
                });
            } else {
                match key {
                    "name" => {
                        // The name becomes a report filename and an
                        // unquoted CSV field: keep it to a safe charset.
                        let ok = !value.is_empty()
                            && value
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                            && !value.starts_with('.');
                        if !ok {
                            return Err(err(
                                lineno,
                                format!(
                                    "name `{value}` must be non-empty [A-Za-z0-9._-] \
                                     and not start with `.` (it names report files)"
                                ),
                            ));
                        }
                        name = Some(value.to_string());
                    }
                    "description" => description = value.to_string(),
                    _ => base.push(Assign {
                        key: key.to_string(),
                        value: value.to_string(),
                        line: lineno,
                    }),
                }
            }
        }

        let no_name =
            || ScenarioError::new(origin, None, "scenario has no `name =` assignment".into());
        let scenario = Scenario {
            name: name.ok_or_else(no_name)?,
            description,
            path: None,
            origin: origin.to_string(),
            base,
            grid,
        };
        // Surface key/value syntax errors eagerly, attributed to their
        // lines, without expanding the grid (cross-field validation —
        // k vs shards, metric fit, rho range — happens in `jobs`, after
        // any CLI overrides have been applied).
        let template = scenario.template(&[])?;
        for axis in &scenario.grid {
            for v in &axis.values {
                let applied = template.clone().apply(&axis.key, v);
                applied.map_err(|m| scenario.error(Some(axis.line), m))?;
            }
        }
        Ok(scenario)
    }

    fn error(&self, line: Option<usize>, msg: String) -> ScenarioError {
        ScenarioError::new(&self.origin, line, msg)
    }

    /// The draft every job starts from: the defaults, the base section,
    /// then `extra`.
    fn template(&self, extra: &[(String, String)]) -> Result<JobDraft, ScenarioError> {
        let mut template = JobDraft::default();
        for a in &self.base {
            let applied = template.apply(&a.key, &a.value);
            applied.map_err(|m| self.error(Some(a.line), m))?;
        }
        for (key, value) in extra {
            let applied = template.apply(key, value);
            applied.map_err(|m| self.error(None, format!("override {key}={value}: {m}")))?;
        }
        Ok(template)
    }

    /// Expands the grid into the full job list.
    pub fn jobs(&self) -> Result<Vec<JobSpec>, ScenarioError> {
        self.jobs_with(&[])
    }

    /// Expands the grid with extra base-level overrides (e.g. a CLI
    /// `--rounds N`) applied *after* the file's base section but *before*
    /// the grid axes — so an axis over the same key still wins.
    pub fn jobs_with(&self, extra: &[(String, String)]) -> Result<Vec<JobSpec>, ScenarioError> {
        let template = self.template(extra)?;
        let total: usize = self.grid.iter().map(|a| a.values.len()).product();
        if total > MAX_JOBS {
            let msg = format!("grid expands to {total} jobs (limit {MAX_JOBS})");
            return Err(self.error(None, msg));
        }
        let mut jobs = Vec::with_capacity(total);
        for index in 0..total {
            let mut draft = template.clone();
            let mut overrides = Vec::with_capacity(self.grid.len());
            // Mixed-radix decode: first axis outermost, last axis fastest.
            let mut rem = index;
            for axis in self.grid.iter().rev() {
                let v = &axis.values[rem % axis.values.len()];
                rem /= axis.values.len();
                overrides.push((axis.key.clone(), v.clone()));
            }
            overrides.reverse();
            for (pos, (key, value)) in overrides.iter().enumerate() {
                draft
                    .apply(key, value)
                    .map_err(|m| self.error(Some(self.grid[pos].line), m))?;
            }
            let job = draft
                .resolve(&self.name, index, overrides)
                .map_err(|(keys, m)| {
                    self.error(self.key_line(keys, extra), format!("job {index}: {m}"))
                })?;
            jobs.push(job);
        }
        Ok(jobs)
    }

    /// Refuses an override naming a grid axis: every job takes the axis's
    /// values, so the override would silently change nothing. The CLI
    /// holds `--set` to this; `--rounds` is documented to yield instead.
    pub(crate) fn refuse_axis_overrides(
        &self,
        sets: &[(String, String)],
    ) -> Result<(), ScenarioError> {
        for (key, value) in sets {
            if let Some(axis) = self.grid.iter().find(|a| a.key == *key) {
                let msg = format!(
                    "override {key}={value} names grid axis `{key}` (= {}), whose \
                     values every job takes instead — edit the axis or drop the override",
                    axis.values.join(", ")
                );
                return Err(self.error(Some(axis.line), msg));
            }
        }
        Ok(())
    }

    /// The last line, base or grid, assigning one of `keys` — where a
    /// cross-key failure blaming them is reported. A base assignment an
    /// `extra` override replaced is not what the job ran with, so it is
    /// not pointed at.
    fn key_line(&self, keys: &[&str], extra: &[(String, String)]) -> Option<usize> {
        let overridden = |k: &str| extra.iter().any(|(e, _)| e == k);
        let base = self
            .base
            .iter()
            .filter(|a| keys.contains(&a.key.as_str()) && !overridden(&a.key))
            .map(|a| a.line);
        let grid = self
            .grid
            .iter()
            .filter(|a| keys.contains(&a.key.as_str()))
            .map(|a| a.line);
        base.chain(grid).max()
    }

    /// Deterministic plan rendering: name, description, axes, and one
    /// line per job — what `blockshard plan` prints and the golden
    /// parser tests pin.
    pub fn plan_string(&self, jobs: &[JobSpec]) -> String {
        let mut out = format!("scenario: {}\n", self.name);
        if !self.description.is_empty() {
            out.push_str(&format!("description: {}\n", self.description));
        }
        for axis in &self.grid {
            out.push_str(&format!(
                "axis: {} = {}\n",
                axis.key,
                axis.values.join(", ")
            ));
        }
        out.push_str(&format!("jobs: {}\n", jobs.len()));
        for job in jobs {
            out.push_str(&job.plan_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = "
name = mini
scheduler = fds
metric = line
shards = 8
accounts = 8
k = 3
rounds = 200

[grid]
rho = 0.05, 0.1
seed = 1, 2, 3
";

    #[test]
    fn grid_cross_product_order() {
        let s = Scenario::parse_str(MINI, "<test>").unwrap();
        let jobs = s.jobs().unwrap();
        assert_eq!(jobs.len(), 6);
        // First axis outermost, last fastest.
        let key: Vec<(f64, u64)> = jobs.iter().map(|j| (j.adv.rho, j.adv.seed)).collect();
        assert_eq!(
            key,
            vec![
                (0.05, 1),
                (0.05, 2),
                (0.05, 3),
                (0.1, 1),
                (0.1, 2),
                (0.1, 3)
            ]
        );
        assert_eq!(
            jobs[4].overrides,
            vec![
                ("rho".to_string(), "0.1".to_string()),
                ("seed".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    fn extra_override_applies_but_loses_to_an_axis_over_its_key() {
        let s = Scenario::parse_str(MINI, "<test>").unwrap();
        let extra = |k: &str, v: &str| [(k.to_string(), v.to_string())];
        assert_eq!(s.jobs_with(&extra("rounds", "50")).unwrap()[0].rounds, 50);
        // What `--rounds` documents: "grid axes still win".
        let swept = format!("{MINI}rounds = 300, 400\n");
        let s = Scenario::parse_str(&swept, "<test>").unwrap();
        let jobs = s.jobs_with(&extra("rounds", "50")).unwrap();
        assert_eq!((jobs[0].rounds, jobs[1].rounds), (300, 400));
    }

    #[test]
    fn override_naming_a_grid_axis_is_refused_at_the_axis_line() {
        let s = Scenario::parse_str(MINI, "<test>").unwrap();
        let set = |k: &str, v: &str| (k.to_string(), v.to_string());
        let e = s
            .refuse_axis_overrides(&[set("rounds", "50"), set("rho", "0.9")])
            .unwrap_err();
        assert_eq!(e.line, Some(11), "the `rho` axis's own line");
        assert!(e.msg.contains("override rho=0.9"), "{e}");
        assert!(e.msg.contains("grid axis `rho` (= 0.05, 0.1)"), "{e}");
        // A base key is fair game.
        s.refuse_axis_overrides(&[set("rounds", "50"), set("k", "2")])
            .unwrap();
    }

    #[test]
    fn auto_strategy_resolves_against_rounds_and_b() {
        let text = "
name = auto
rounds = 1000
b = 77
strategy = count-burst:auto
";
        let s = Scenario::parse_str(text, "<test>").unwrap();
        let jobs = s.jobs().unwrap();
        assert_eq!(
            jobs[0].adv.strategy,
            adversary::StrategyKind::CountBurst {
                burst_round: 100,
                count: 77
            }
        );
    }

    #[test]
    fn error_carries_line_number() {
        let text = "name = bad\nrho = fast\n";
        let e = Scenario::parse_str(text, "<test>").unwrap_err();
        assert_eq!(e.line, Some(2));
        assert!(e.msg.contains("not a number"), "{e}");
    }

    #[test]
    fn rejects_unknown_key_and_section() {
        let e = Scenario::parse_str("name = x\nwat = 1\n", "<t>").unwrap_err();
        assert!(e.msg.contains("unknown key"), "{e}");
        // A knob folded into a constant is a key like any other unknown.
        let e = Scenario::parse_str("name = x\nepoch-scale = 2\n", "<t>").unwrap_err();
        assert_eq!(e.to_string(), "<t>:2: unknown key `epoch-scale`");
        let e = Scenario::parse_str("name = x\n[wat]\n", "<t>").unwrap_err();
        assert!(e.msg.contains("unknown section"), "{e}");
    }

    #[test]
    fn rejects_invalid_system_at_plan_time() {
        // Cross-field validation is deferred to jobs() so CLI overrides
        // can still fix the plan.
        let text = "name = x\nshards = 4\nk = 9\n";
        let s = Scenario::parse_str(text, "<t>").unwrap();
        let e = s.jobs().unwrap_err();
        assert!(e.msg.contains("k must satisfy"), "{e}");
        let fixed = s.jobs_with(&[("k".to_string(), "2".to_string())]).unwrap();
        assert_eq!(fixed[0].sys.k_max, 2);
    }

    #[test]
    fn grid_metric_must_match_shards() {
        let text = "name = x\nshards = 6\naccounts = 6\nk = 2\nmetric = grid:2x2\n";
        let e = Scenario::parse_str(text, "<t>")
            .unwrap()
            .jobs()
            .unwrap_err();
        assert!(e.msg.contains("grid:2x2"), "{e}");
    }

    #[test]
    fn rejects_unsafe_names() {
        for bad in ["../x", "a,b", "a b", ".hidden", "x/y"] {
            let text = format!("name = {bad}\n");
            let e = Scenario::parse_str(&text, "<t>").unwrap_err();
            assert!(e.msg.contains("report files"), "{bad:?}: {e}");
        }
        assert!(Scenario::parse_str("name = ok-1.v2_x\n", "<t>").is_ok());
    }

    #[test]
    fn pbft_inviable_n_eq_3f_rejected_at_plan_time_with_file_line() {
        // `n = 3f` is exactly the boundary the Hellings–Sadoghi quorum
        // model rejects; the planner must refuse it *before* any engine
        // runs, and point at the offending quorum key's own line.
        let text = "name = x\nshards = 4\nk = 2\nnodes-per-shard = 3\nfaulty-per-shard = 1\n";
        let s = Scenario::parse_str(text, "<pbft>").unwrap();
        let e = s.jobs().unwrap_err();
        assert!(e.msg.contains("n > 3f"), "{e}");
        assert_eq!(e.line, Some(5), "points at the last quorum key assigned");
        assert!(e.to_string().starts_with("<pbft>:5:"), "{e}");

        // The boundary is sharp: n = 3f + 1 is the smallest viable
        // membership and must plan cleanly.
        let ok = "name = x\nshards = 4\nk = 2\nnodes-per-shard = 4\nfaulty-per-shard = 1\n";
        Scenario::parse_str(ok, "<pbft>").unwrap().jobs().unwrap();

        // Attribution follows the key into the grid section too.
        let grid = "name = x\nshards = 4\nk = 2\n[grid]\nnodes-per-shard = 4, 3\n";
        let e = Scenario::parse_str(grid, "<pbft>")
            .unwrap()
            .jobs()
            .unwrap_err();
        assert!(e.msg.contains("n > 3f"), "{e}");
        assert_eq!(e.line, Some(5), "grid axis line");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\nname = c   # trailing\n\nrho = 0.2\n";
        let s = Scenario::parse_str(text, "<t>").unwrap();
        assert_eq!(s.name, "c");
        assert_eq!(s.jobs().unwrap()[0].adv.rho, 0.2);
    }
}
