//! The traced run on miniatures: every declared per-layer metric is
//! measured, in declared order, and the spans it writes are well formed.

use benchmark::json::Json;
use benchmark::probes::run_trace;
use benchmark::spec::per_layer;
use benchmark::workloads::{Scale, Workload};

#[test]
fn traced_run_reports_every_declared_metric() {
    let traced = run_trace(7, Scale::Mini);
    assert_eq!(traced.checks.failed, 0, "{:?}", traced.checks.failures);
    let declared: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    let measured: Vec<String> = traced.metrics.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(measured, declared);
    for (name, value) in &traced.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace");
    traced.write_spans(&dir).expect("spans are written");
    for w in Workload::ALL {
        let text = std::fs::read_to_string(dir.join(format!("trace-{}.jsonl", w.name())))
            .expect("one file per workload");
        let spans: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("a JSON line"))
            .collect();
        assert!(spans.len() > 10, "{}: {} spans", w.name(), spans.len());
        for span in &spans {
            assert_eq!(span.get("workload").and_then(Json::as_str), Some(w.name()));
            let (start, end) = (
                span.get("start_ns")
                    .and_then(Json::as_f64)
                    .expect("start_ns"),
                span.get("end_ns").and_then(Json::as_f64).expect("end_ns"),
            );
            assert!(start <= end);
            assert!(span.get("id").is_some() && span.get("parent").is_some());
            assert!(span.get("name").and_then(Json::as_str).is_some());
        }
    }
    assert!(traced.render().contains("schedulers.step"));
}
