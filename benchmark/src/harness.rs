//! The end-to-end measuring protocol.
//!
//! Per workload, in one process: one discarded warm-up iteration (so the
//! heap's pages are touched before anything is timed), one *counted*
//! iteration (allocation counting on, correctness checks, simulated-time
//! statistics), then the *timed* iterations. Iteration `i` of every
//! workload runs before iteration `i + 1` of any, so a slow spell on the
//! host is shared. Every iteration rebuilds its state from the seed and is
//! timed in segments; a host-time metric takes each segment from the
//! iterations that ran it fastest ([`fastest_sum`]).

use crate::alloc;
use crate::checks::{check_iteration, Checks};
use crate::spec::{self, Kind};
use crate::stats::{fastest_sum, iqr_share, quartiles};
use crate::trace::Tracer;
use crate::workloads::{run_iteration, Iteration, Scale, Workload};
use schedulers::testkit::report_fingerprint;
use schedulers::RunReport;
use std::time::Instant;

/// Timed iterations per workload when no time budget cuts them short.
pub const TIMED_ITERATIONS: usize = 15;
/// A time budget never cuts the timed iterations below this.
pub const MIN_TIMED_ITERATIONS: usize = 9;

pub struct RunOptions {
    pub workloads: Vec<Workload>,
    pub scale: Scale,
    pub seed: u64,
    /// Timed iterations per workload: at most `.1`, and once `seconds`
    /// have gone into them no more than `.0`.
    pub timed_iterations: (usize, usize),
    pub seconds: Option<f64>,
}

/// Everything measured on one workload.
pub struct WorkloadRun {
    pub workload: Workload,
    pub rounds: u64,
    /// Per timed iteration, per segment: nanoseconds of set-up (wall) and
    /// of the timed region (wall and process CPU).
    pub setup_ns: Vec<Vec<u64>>,
    pub wall_ns: Vec<Vec<u64>>,
    pub cpu_ns: Vec<Vec<u64>>,
    /// The counted iteration's report, allocation counters and checks.
    pub report: RunReport,
    pub region_allocs: alloc::AllocStats,
    pub checks: Checks,
}

impl WorkloadRun {
    /// The end-to-end metrics, in [`spec::END_TO_END`] order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let r = &self.report;
        let values = [
            r.committed as f64 / (fastest_sum(&self.wall_ns) / 1e9),
            fastest_sum(&self.cpu_ns) / 1e3 / self.rounds as f64,
            fastest_sum(&self.setup_ns) / 1e9,
            self.region_allocs.peak_live as f64 / (1024.0 * 1024.0),
            r.avg_latency,
            r.avg_queue_per_shard,
            r.max_total_pending as f64,
            r.committed as f64 / r.generated as f64,
        ];
        spec::END_TO_END
            .iter()
            .map(|m| m.name)
            .zip(values)
            .collect()
    }

    /// What a host-time metric reads on each whole timed iteration.
    fn samples(&self, name: &str) -> Vec<f64> {
        let (segments, of_ns): (_, &dyn Fn(f64) -> f64) = match name {
            "commits_per_s" => (&self.wall_ns, &|ns| {
                self.report.committed as f64 / (ns / 1e9)
            }),
            "cpu_us_per_round" => (&self.cpu_ns, &|ns| ns / 1e3 / self.rounds as f64),
            "setup_s" => (&self.setup_ns, &|ns| ns / 1e9),
            other => unreachable!("{other} is not a host-time metric"),
        };
        segments
            .iter()
            .map(|it| of_ns(it.iter().sum::<u64>() as f64))
            .collect()
    }

    /// The human-readable block `run` prints for this workload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {}: {} rounds per iteration, {} timed iterations, {} checks, {} failed\n",
            self.workload.name(),
            self.rounds,
            self.wall_ns.len(),
            self.checks.attempted,
            self.checks.failed,
        );
        for ((name, value), m) in self.metrics().into_iter().zip(&spec::END_TO_END) {
            out += &format!("  {name:<26} {value:>16.4} {:<7}", m.unit);
            if m.kind == Kind::HostTime {
                let samples = self.samples(name);
                let [q1, q2, q3] = quartiles(&samples);
                let spread = iqr_share(&samples);
                out += &format!(
                    " fastest of {} per segment; whole iterations p25 {q1:.4} median {q2:.4} p75 {q3:.4}, spread {:.1}%",
                    samples.len(),
                    spread * 100.0
                );
                if spread > m.bound {
                    out += &format!(
                        "\n  WARNING: {name} spread {:.1}% exceeds its bound {:.0}%: noisy host",
                        spread * 100.0,
                        m.bound * 100.0
                    );
                }
            } else {
                out += " exact for the seed";
            }
            out.push('\n');
        }
        for failure in &self.checks.failures {
            out += &format!("  CHECK FAILED: {failure}\n");
        }
        out
    }
}

/// Threads of this process right now (Linux: entries of `/proc/self/task`).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |dir| dir.count())
}

/// Runs one iteration with tracing off, asserting that it leaves no
/// thread behind: the harness is single-threaded, the networked workload
/// runs its one worker while the harness waits, so an end-to-end workload
/// never has two runnable threads.
fn plain_iteration(w: Workload, opts: &RunOptions, evidence: bool) -> Iteration {
    let threads = live_threads();
    let it = run_iteration(w, opts.scale, opts.seed, &mut Tracer::off(), evidence);
    assert_eq!(
        live_threads(),
        threads,
        "an end-to-end workload must leave no thread running"
    );
    it
}

/// Runs the protocol over `opts.workloads`.
pub fn run(opts: &RunOptions) -> Vec<WorkloadRun> {
    // Pass 1: warm-up, discarded except for the reference fingerprint.
    let fingerprints: Vec<String> = opts
        .workloads
        .iter()
        .map(|&w| report_fingerprint(&plain_iteration(w, opts, false).report))
        .collect();

    // Pass 2: the counted iteration.
    let mut runs: Vec<WorkloadRun> = opts
        .workloads
        .iter()
        .zip(&fingerprints)
        .map(|(&w, reference)| {
            alloc::start();
            let it = plain_iteration(w, opts, true);
            alloc::stop();
            let mut checks = Checks::default();
            checks.check(
                report_fingerprint(&it.report) == *reference,
                "report_fingerprint equals the warm-up's",
            );
            check_iteration(w, opts.scale, opts.seed, &it, &mut checks);
            WorkloadRun {
                workload: w,
                rounds: w.rounds(opts.scale),
                setup_ns: Vec::new(),
                wall_ns: Vec::new(),
                cpu_ns: Vec::new(),
                region_allocs: it.region_allocs,
                report: it.report,
                checks,
            }
        })
        .collect();

    // Timed passes, interleaved across workloads.
    let mut spent = vec![0.0f64; runs.len()];
    loop {
        let mut ran = false;
        for (i, run) in runs.iter_mut().enumerate() {
            let n = run.wall_ns.len();
            let out_of_time = opts.seconds.is_some_and(|s| spent[i] >= s);
            let (floor, target) = opts.timed_iterations;
            if n >= target || (out_of_time && n >= floor) {
                continue;
            }
            ran = true;
            let started = Instant::now();
            let it = plain_iteration(run.workload, opts, false);
            spent[i] += started.elapsed().as_secs_f64();
            run.setup_ns.push(it.setup.wall_ns);
            run.wall_ns.push(it.run.wall_ns);
            run.cpu_ns.push(it.run.cpu_ns);
            run.checks.check(
                report_fingerprint(&it.report) == fingerprints[i],
                "report_fingerprint equals the warm-up's",
            );
        }
        if !ran {
            return runs;
        }
    }
}
