//! The declared metrics against the contract's naming rules, and against
//! `BENCHMARK.json` at the repository root, which states the same table
//! for the pipeline. `BLESS=1 cargo test --test spec` rewrites the file
//! from the declarations.

use benchmark::json::Json;
use benchmark::spec::{per_layer, END_TO_END, RUN_SECONDS};
use benchmark::workloads::Workload;
use std::collections::BTreeSet;

fn str_member(key: &str, value: &str) -> (String, Json) {
    (key.to_string(), Json::Str(value.to_string()))
}

/// `BENCHMARK.json` as the declarations state it.
fn declared() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Json::Obj(vec![
                str_member("name", w.name()),
                str_member("why", w.why()),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                str_member("name", m.name),
                str_member("unit", m.unit),
                str_member("better", m.better.word()),
                ("bound".to_string(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = per_layer()
        .iter()
        .map(|m| {
            Json::Obj(vec![
                str_member("name", &m.name),
                str_member("unit", m.unit),
                str_member("better", m.better.word()),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "command".to_string(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths".to_string(), strings(&["benchmark"])),
        ("run_seconds".to_string(), Json::Num(RUN_SECONDS as f64)),
        ("workloads".to_string(), Json::Arr(workloads)),
        ("end_to_end".to_string(), Json::Arr(end_to_end)),
        ("per_layer".to_string(), Json::Arr(layers)),
    ])
}

/// One top-level member per line, one array item per line.
fn pretty(doc: &Json) -> String {
    let mut out = String::from("{\n");
    let members = doc.members().expect("an object");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 < members.len() { "," } else { "" };
        match value.as_arr() {
            Some(items) if items.iter().any(|v| v.members().is_some()) => {
                out += &format!("  \"{key}\": [\n");
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out += &format!("    {}{sep}\n", item.render());
                }
                out += &format!("  ]{comma}\n");
            }
            _ => out += &format!("  \"{key}\": {}{comma}\n", value.render()),
        }
    }
    out + "}\n"
}

#[test]
fn names_follow_the_contract() {
    let mut seen = BTreeSet::new();
    let layer_names: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    let names = END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .chain(layer_names)
        .chain(Workload::ALL.iter().map(|w| w.name().to_string()));
    for name in names {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad name {name}"
        );
        assert!(seen.insert(name.clone()), "{name} is declared twice");
    }
    assert!(per_layer().len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!(Workload::ALL
        .iter()
        .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
}

#[test]
fn benchmark_json_states_the_declarations() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let expected = pretty(&declared());
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &expected).expect("BENCHMARK.json is writable");
    }
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    assert_eq!(
        Json::parse(&on_disk).expect("BENCHMARK.json parses"),
        declared()
    );
    assert_eq!(
        on_disk, expected,
        "run `BLESS=1 cargo test --test spec` after changing the declarations"
    );
    assert!(on_disk.len() <= 64 * 1024);
}
