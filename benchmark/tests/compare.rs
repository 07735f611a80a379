//! `compare`'s verdict rule, and the JSON it reads.

use benchmark::compare::{judge, Sample, Verdict};
use benchmark::json::Json;
use benchmark::spec::{Better, EndToEnd, Kind};

fn metric(better: Better, kind: Kind) -> EndToEnd {
    EndToEnd {
        name: "metric",
        unit: "x",
        better,
        bound: 0.10,
        kind,
    }
}

fn runs(values: &[f64]) -> Vec<Sample> {
    values
        .iter()
        .enumerate()
        .map(|(i, &value)| Sample {
            seed: i as u64,
            value,
        })
        .collect()
}

#[test]
fn host_time_metrics_follow_the_bound_and_the_spread() {
    // Higher is better, bound 10 %.
    let m = &metric(Better::Higher, Kind::HostTime);
    let base = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
    assert_eq!(
        judge(m, &base, &runs(&[100.2, 100.9, 99.1, 100.4, 99.6])),
        Verdict::Unchanged
    );
    assert_eq!(
        judge(m, &base, &runs(&[88.0, 89.0, 87.0, 88.5, 87.5])),
        Verdict::Regressed
    );
    assert_eq!(
        judge(m, &base, &runs(&[120.0, 121.0, 119.0, 122.0, 118.0])),
        Verdict::Improved
    );
    // Within the bound on medians, but one side spreads wider than it.
    let noisy = runs(&[80.0, 125.0, 97.0, 103.0, 60.0]);
    assert_eq!(judge(m, &base, &noisy), Verdict::Unresolved);
    // A wide spread does not hide a gain when every run beats every run.
    let wide_but_better = runs(&[150.0, 220.0, 180.0, 300.0, 160.0]);
    assert_eq!(judge(m, &base, &wide_but_better), Verdict::Improved);
    // Lower-is-better metrics read the other way.
    let lower = &metric(Better::Lower, Kind::HostTime);
    assert_eq!(
        judge(lower, &base, &runs(&[120.0, 121.0, 119.0, 122.0, 118.0])),
        Verdict::Regressed
    );
}

#[test]
fn exact_metrics_compare_exactly_on_equal_seeds() {
    let m = &metric(Better::Lower, Kind::Exact);
    let base = runs(&[280.5, 281.0]);
    assert_eq!(judge(m, &base, &base), Verdict::Unchanged);
    // A hair worse is a regression however small: the value is a function
    // of the seed, so any difference is the change's.
    assert_eq!(
        judge(m, &base, &runs(&[280.5, 281.0001])),
        Verdict::Regressed
    );
    assert_eq!(judge(m, &base, &runs(&[280.4, 281.0])), Verdict::Improved);
}

#[test]
fn json_round_trips_what_run_writes() {
    let line = r#"{"workload": "sim_bds_uniform", "seed": 7, "metrics": {"setup_s": 0.21726188366666666, "note": "a\"b\\c\nd"}, "list": [1, -2.5e3, true, null]}"#;
    let doc = Json::parse(line).unwrap();
    assert_eq!(
        doc.get("workload").and_then(Json::as_str),
        Some("sim_bds_uniform")
    );
    let metrics = doc.get("metrics").unwrap();
    assert_eq!(
        metrics.get("setup_s").and_then(Json::as_f64),
        Some(0.21726188366666666)
    );
    assert_eq!(
        metrics.get("note").and_then(Json::as_str),
        Some("a\"b\\c\nd")
    );
    assert_eq!(
        doc.get("list").and_then(Json::as_arr).map(<[Json]>::len),
        Some(4)
    );
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1 2]").is_err());
    assert!(Json::parse("{} x").is_err());
}
