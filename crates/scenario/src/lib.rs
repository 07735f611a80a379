//! # scenario
//!
//! The declarative experiment engine: one plain-text `.scenario` file
//! describes a whole scheduler × adversary × metric sweep, and one shared
//! driver plans, executes (in parallel, deterministically), and reports
//! it. Every figure and every new workload is a *data file* under
//! `scenarios/`, not another copy-pasted `main.rs`; the one binary,
//! `blockshard`, is [`cli::run`].
//!
//! ## Data flow
//!
//! ```text
//!  scenarios/fig2_quick.scenario
//!        │  parse::Scenario::load          (key = value  +  [grid] axes)
//!        ▼
//!  Scenario ── jobs() ──► Vec<JobSpec>     (grid cross-product; each draft
//!        │                                  resolved once into the built inputs
//!        │                                  of its run — nothing rebuilt later)
//!        ▼  exec::run_jobs on `--threads` workers
//!  fixed thread pool: N workers claim jobs by atomic index, run each
//!  simulation single-threaded (a pure function of the spec), send
//!  (index, outcome) back over a channel
//!        │  merge: outcomes re-sorted by job index
//!        ▼
//!  Vec<JobOutcome> ── report:: ──► CSV + JSON-lines + stdout table
//! ```
//!
//! Modules: [`parse`] (the file grammar and the grid planner), [`spec`]
//! (one resolved job — the owning layers' configs — and the table of
//! cross-key rules it was checked against), [`exec`] (the worker pool
//! and `run_job`), [`report`] (the one column table behind every CSV,
//! JSONL and stdout rendering), [`cli`] (the one flag parser and the one
//! load → plan → run → write loop behind `run`, `campaign` and the
//! scenario-backed figures), and its two named-bundle verbs:
//! [`campaign`] (the adversarial scenario family) and [`render`] (the
//! paper's figures and bound tables, each a job plan on [`exec`]).
//!
//! Determinism: a job's result depends only on its [`JobSpec`] (all
//! randomness flows from the spec's seeds through ChaCha12), and the
//! merge step orders outcomes by job index — so the report bytes are
//! identical whether the pool has 1 worker or 32. The
//! `same_bytes_across_thread_counts` integration test pins this.
//!
//! ## Scenario file grammar
//!
//! Line-oriented, no external parser. `#` starts a comment (to end of
//! line); blank lines are ignored.
//!
//! ```text
//! # Base section: scalar `key = value` assignments.
//! name        = fig2-quick          # required
//! description = BDS on the uniform model
//! scheduler   = bds                 # bds | fds | fcfs | edf | fp | ws | spec
//! metric      = uniform             # uniform | line | ring | grid:WxH
//! shards      = 64
//! k           = 8
//! rounds      = 8000
//! strategy    = count-burst:auto    # see below
//! seed        = 42
//!
//! # Grid section: every key lists comma-separated values; jobs are the
//! # cross-product of all axes (first axis outermost, last fastest).
//! [grid]
//! b   = 1000, 3000
//! rho = 0.05, 0.10, 0.15, 0.20, 0.27
//! ```
//!
//! ### Keys
//!
//! | key | values | default |
//! |---|---|---|
//! | `name` | scenario name (base only) | — (required) |
//! | `description` | free text (base only) | `""` |
//! | `scheduler` | `bds` \| `fds` \| `fcfs` \| `edf` \| `fp` \| `ws` \| `spec` | `bds` |
//! | `engine` | `sim` \| `net` — the shared-memory simulator or the concurrent networked runtime (reports are byte-identical, faulted or not; `fcfs` has no per-shard protocol to host or fault) | `sim` |
//! | `metric` | `uniform` \| `line` \| `ring` \| `grid:WxH` | `uniform` |
//! | `shards` | `s ≥ 1` | `64` |
//! | `accounts` | total shared accounts | = `shards` |
//! | `k` | max shards per transaction | `8` |
//! | `nodes-per-shard` | `n_i` | `4` |
//! | `faulty-per-shard` | `f_i` (needs `n_i > 3·f_i`) | `1` |
//! | `placement` | `random:SEED` \| `round-robin` \| `vnode` | `random:1` |
//! | `rounds` | simulated rounds, `1 ..= 2^32` | `8000` |
//! | `rho` | injection rate `0 < ρ ≤ 1` | `0.1` |
//! | `b` | burstiness `≥ 1` | `1` |
//! | `strategy` | `uniform` \| `single-burst:R` \| `count-burst:R:C` \| `count-burst:auto` \| `pairwise` \| `hot-shard` \| `burst-train:P` \| `zipf:E` | `uniform` |
//! | `shape` | `write-only` \| `transfers:MAX` \| `read-mostly` | `write-only` |
//! | `seed` | adversary seed | `42` |
//! | `coloring` | `greedy` \| `dsatur` \| `heavy-light:T` \| `heavy-light:auto` | `greedy` |
//! | `rotate-leader` | `true` \| `false` (BDS) | `true` |
//! | `reschedule` | `true` \| `false` (FDS) | `true` |
//! | `pipeline-window` | FDS vote window `W ≥ 1` | `16` |
//! | `sublayers` | FDS hierarchy sublayers `H2` | `2` |
//! | `respect-capacity` | `true` \| `false` (FCFS) | `true` |
//! | `check-order` | verify cross-shard serialization order over the per-shard chains either engine leaves behind (`fcfs` keeps none) | `false` |
//! | `fault-seed` | seed of the fault plane's ChaCha streams | `1` |
//! | `drop-prob` | per-link message-drop probability `0 ≤ p < 1` | `0` |
//! | `dup-prob` | per-link message-duplication probability, `drop-prob + dup-prob < 1` | `0` |
//! | `drop-budget` | max drops per directed link | unlimited |
//! | `crash` | `S@R[; S@R…]` \| `none` — shard `S` crashes at round `R` | `none` |
//! | `byzantine-votes` | Byzantine voters per live shard-round, counted against `faulty-per-shard` (at most that many) | `0` |
//! | `mempool` | per-home-shard mempool lane capacity `≥ 1`: turns the streaming ingestion plane on (needs `stream`) | off |
//! | `stream` | `zipf:EXPONENT` \| `shift:PERIOD` — the account distribution the producer streams (needs `mempool`) | — |
//! | `offered` | transactions offered per round (needs `mempool`) | saturation: 4× the `(ρ, b)`-sustainable rate |
//! | `metrics` | `off` \| `summary` \| `full` — latency histograms, utilization floor, and (`full`) the per-epoch JSONL timeline | `off` |
//! | `reshard` | `+N@R[; -N@R…]` \| `none` — live migration schedule: `+N` shards join / `-N` retire at the first epoch boundary at or after round `R`. Requires `placement = vnode`, an epoch-hosted scheduler, and a fault-free run; `shards` stays the *initial* active count | `none` |
//!
//! Each key is declared once, by the layer that runs with it, and its
//! default is that layer's own: `shards`…`faulty-per-shard` are
//! `SystemConfig::paper_simulation()`, `rho`…`shape`
//! `AdversaryConfig::default()`, `coloring`/`rotate-leader`
//! `BdsConfig::default()`, `coloring`/`reschedule`…`sublayers`
//! `FdsConfig::default()`, `fault-seed`…`byzantine-votes`
//! `FaultPlan::default()` — with two deliberate exceptions, `seed` (42;
//! the type's is 0) and `respect-capacity` (`true`; `FcfsConfig`'s is
//! `false`). The rest (`scheduler`, `engine`, `metric`, `placement`,
//! `rounds`, `check-order`, `metrics`, `reshard`) default here.
//!
//! Two spellings resolve against the rest of the job rather than in
//! isolation: `strategy = count-burst:auto` becomes the paper's Section 7
//! workload (`burst_round = rounds/10`, `count = b`), and
//! `coloring = heavy-light:auto` uses the Lemma 1 threshold `⌈√s⌉`.
//!
//! Any key except `name`/`description` may be a grid axis; an axis value
//! overrides the base assignment for that job (and a CLI `--set` over an
//! axis's key is refused rather than silently lost). The overrides that
//! produced a job are kept on [`JobSpec::overrides`] so reports can label
//! rows by what actually varied.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exec;
pub mod parse;
pub mod render;
pub mod report;
pub mod spec;

pub use exec::{run_job, run_jobs, JobOutcome};
pub use parse::{Scenario, ScenarioError};
pub use spec::{JobSpec, Placement};

#[cfg(test)]
mod tests {
    use crate::spec::JobDraft;
    use std::collections::BTreeMap;
    use std::path::Path;

    /// The rustdoc key table above, as `key -> default cell`.
    fn documented_keys() -> BTreeMap<String, String> {
        let rows = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .map(|row| {
                let row = row.replace("\\|", "/");
                let cells: Vec<&str> = row.split('|').collect();
                let key = cells[0].trim().trim_matches('`');
                (key.to_string(), cells[2].trim().to_string())
            });
        rows.collect()
    }

    /// README's "Scenario files" table: every key named in a row's
    /// `keys` cell.
    fn readme_keys() -> Vec<String> {
        let readme = include_str!("../../../README.md");
        let section = readme.split("\n## Scenario files").nth(1).unwrap();
        let rows = section.split("\n## ").next().unwrap().lines();
        let keys = rows
            .filter_map(|l| l.strip_prefix("| "))
            .skip(1) // the header
            .flat_map(|row| row.split(" | ").nth(1).unwrap().split('`'))
            .filter(|key| !key.trim().is_empty());
        keys.map(String::from).collect()
    }

    /// Both key tables are complete and true: every job key either
    /// documents is one `apply` knows, every documented literal default
    /// is the real default, and every key a checked-in scenario uses has
    /// a row in both.
    #[test]
    fn key_tables_match_the_parser_and_cover_every_checked_in_scenario() {
        let table = documented_keys();
        assert_eq!(table.len(), 35, "33 job keys + name + description");
        let fresh = format!("{:?}", JobDraft::default());
        for (key, default) in &table {
            if key == "name" || key == "description" {
                continue; // handled by the parser, not a job key
            }
            let mut draft = JobDraft::default();
            match default.strip_prefix('`').and_then(|d| d.strip_suffix('`')) {
                Some(literal) if !literal.contains('`') => {
                    draft
                        .apply(key, literal)
                        .unwrap_or_else(|e| panic!("`{key}` rejects its documented default: {e}"));
                    assert_eq!(
                        format!("{draft:?}"),
                        fresh,
                        "`{key}` default is not {literal}"
                    );
                }
                // No literal default (off, unlimited, derived): the key
                // must still be one the parser knows.
                _ => {
                    let err = draft.apply(key, "").expect_err("empty value");
                    assert!(!err.contains("unknown key"), "`{key}`: {err}");
                }
            }
        }
        let readme = readme_keys();
        for key in &readme {
            let applied = JobDraft::default().apply(key, "");
            let unknown = applied.is_err_and(|e| e.contains("unknown key"));
            assert!(!unknown, "README names `{key}`, which is no job key");
        }
        // `coloring` is written into both protocol configs, so it has
        // two README rows.
        assert_eq!(readme.len(), 33 + 1, "README rows cover the 33 job keys");

        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = 0;
        for dir in [root.join("../../scenarios"), root.join("tests/golden")] {
            let entries = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path());
            for path in entries.filter(|p| p.extension().is_some_and(|x| x == "scenario")) {
                files += 1;
                for line in std::fs::read_to_string(&path).unwrap().lines() {
                    let line = line.split('#').next().unwrap_or("").trim();
                    let Some((key, _)) = line.split_once('=') else {
                        continue;
                    };
                    let key = key.trim();
                    let job_key = key != "name" && key != "description";
                    assert!(
                        table.contains_key(key) && (!job_key || readme.iter().any(|k| k == key)),
                        "{}: `{key}` lacks a row in a key table",
                        path.display()
                    );
                }
            }
        }
        assert!(files >= 29, "scenarios/ and tests/golden/ were read");
    }
}
