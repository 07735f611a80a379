//! # scenario
//!
//! The declarative experiment engine: one plain-text `.scenario` file
//! describes a whole scheduler × adversary × metric sweep, and one shared
//! driver plans, executes (in parallel, deterministically), and reports
//! it. Every figure binary and every new workload is a *data file* under
//! `scenarios/`, not another copy-pasted `main.rs`.
//!
//! ## Data flow
//!
//! ```text
//!  scenarios/fig2_quick.scenario
//!        │  parse::Scenario::load          (key = value  +  [grid] axes)
//!        ▼
//!  Scenario ── jobs() ──► Vec<JobSpec>     (grid cross-product, each job a
//!        │                                  fully resolved, validated spec)
//!        ▼  exec::run_jobs(specs, threads)
//!  fixed thread pool: N workers claim jobs by atomic index, run each
//!  simulation single-threaded (a pure function of the spec), send
//!  (index, outcome) back over a channel
//!        │  merge: outcomes re-sorted by job index
//!        ▼
//!  Vec<JobOutcome> ── report:: ──► CSV + JSON-lines + summary table
//! ```
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
//! | `metric` | `uniform` \| `line` \| `ring` \| `grid:WxH` | `uniform` |
//! | `shards` | `s ≥ 1` | `64` |
//! | `accounts` | total shared accounts | = `shards` |
//! | `k` | max shards per transaction | `8` |
//! | `nodes-per-shard` | `n_i` | `4` |
//! | `faulty-per-shard` | `f_i` (needs `n_i > 3·f_i`) | `1` |
//! | `placement` | `random:SEED` \| `round-robin` \| `vnode` | `random:1` |
//! | `rounds` | simulated rounds | `8000` |
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
//! | `epoch-scale` | FDS epoch constant `c` | `1` |
//! | `respect-capacity` | `true` \| `false` (FCFS) | `true` |
//! | `check-order` | verify cross-shard serialization order (FDS) | `false` |
//! | `metrics` | `off` \| `summary` \| `full` — latency histograms, utilization floor, and (`full`) the per-epoch JSONL timeline | `off` |
//! | `reshard` | `+N@R[; -N@R…]` \| `none` — live migration schedule: `+N` shards join / `-N` retire at the first epoch boundary at or after round `R`. Requires `placement = vnode`, an epoch-hosted scheduler, and a fault-free run; `shards` stays the *initial* active count | `none` |
//!
//! Two spellings resolve against the rest of the job rather than in
//! isolation: `strategy = count-burst:auto` becomes the paper's Section 7
//! workload (`burst_round = rounds/10`, `count = b`), and
//! `coloring = heavy-light:auto` uses the Lemma 1 threshold `⌈√s⌉`.
//!
//! Any key except `name`/`description` may be a grid axis; an axis value
//! overrides the base assignment for that job. The overrides that
//! produced a job are kept on [`JobSpec::overrides`] so reports can label
//! rows by what actually varied.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exec;
pub mod parse;
pub mod report;
pub mod spec;

pub use exec::{run_job, run_jobs, JobOutcome};
pub use parse::{Scenario, ScenarioError};
pub use spec::{JobSpec, Placement};
