//! A miniature of every workload, run twice: simulated metrics,
//! allocation counts and the live-bytes peak are functions of the seed,
//! and another seed changes the inputs while every check still passes.
//!
//! One test function on purpose: the allocation counters are
//! process-wide, and a second test thread would allocate into them.

use benchmark::harness::{run, RunOptions, WorkloadRun};
use benchmark::spec::{Kind, END_TO_END};
use benchmark::workloads::{Scale, Workload};
use schedulers::testkit::report_fingerprint;

fn mini(seed: u64) -> Vec<WorkloadRun> {
    run(&RunOptions {
        workloads: Workload::ALL.to_vec(),
        scale: Scale::Mini,
        seed,
        // One timed iteration: nothing here reads a clock.
        timed_iterations: (1, 1),
        seconds: None,
    })
}

/// The exact metrics, with every bit.
fn exact(run: &WorkloadRun) -> Vec<(&'static str, u64)> {
    run.metrics()
        .into_iter()
        .zip(&END_TO_END)
        .filter(|(_, m)| m.kind == Kind::Exact)
        .map(|((name, value), _)| (name, value.to_bits()))
        .collect()
}

#[test]
fn exact_metrics_are_functions_of_the_seed() {
    let (first, second, other) = (mini(7), mini(7), mini(8));
    for ((a, b), c) in first.iter().zip(&second).zip(&other) {
        let name = a.workload.name();
        assert_eq!(a.checks.failed, 0, "{name}: {:?}", a.checks.failures);
        assert_eq!(c.checks.failed, 0, "{name} seed 8: {:?}", c.checks.failures);
        assert!(a.checks.attempted > 0);

        assert_eq!(exact(a), exact(b), "{name}: exact metrics repeat");
        assert_eq!(
            a.region_allocs, b.region_allocs,
            "{name}: allocation counts repeat"
        );
        assert_eq!(report_fingerprint(&a.report), report_fingerprint(&b.report));
        assert_ne!(
            report_fingerprint(&a.report),
            report_fingerprint(&c.report),
            "{name}: the seed reaches the inputs"
        );

        let names: Vec<&str> = a.metrics().iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for (metric, value) in a.metrics() {
            assert!(
                value.is_finite() && value > 0.0,
                "{name}.{metric} = {value}"
            );
        }
    }
}
