//! `BENCHMARK.json` and the benchmark's code describe the same benchmark,
//! and the result line is the JSON object the benchmark contract asks for.

use trienum_perfbench::cli::result_json;
use trienum_perfbench::metrics::{per_layer, valid_name, END_TO_END};
use trienum_perfbench::run::RunResult;
use trienum_perfbench::spec::benchmark_json;
use trienum_perfbench::trace::Tracer;
use trienum_perfbench::workload::WORKLOADS;

/// Whether `s` can be written into the JSON file unescaped.
fn plain(s: &str) -> bool {
    !s.contains(['"', '\\', '\n'])
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
}

#[test]
fn benchmark_json_is_the_rendering_of_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    assert_eq!(
        file,
        benchmark_json(),
        "BENCHMARK.json differs from spec::benchmark_json()"
    );
}

#[test]
fn workloads_are_within_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && plain(w.why), "{}", w.name);
    }
}

#[test]
fn end_to_end_bounds_are_within_the_contract() {
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_name_and_unit_is_within_the_contract_alphabet() {
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(per_layer().map(|l| (l.name, l.unit)));
    for (name, unit) in metrics {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: unit {unit:?}");
    }
}

#[test]
fn every_per_layer_metric_names_what_it_should_move_and_where() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for layer in per_layer() {
        // Only the tracing-cost report moves nothing.
        assert_eq!(
            layer.moves.is_empty(),
            layer.name == "trace.overhead",
            "{}",
            layer.name
        );
        for m in layer.moves {
            assert!(e2e.contains(m), "{}: moves unknown metric {m}", layer.name);
        }
        assert!(!layer.on.is_empty(), "{}: names no workload", layer.name);
        for w in layer.on.iter().chain(layer.no_change_on) {
            assert!(
                workloads.contains(w),
                "{}: unknown workload {w}",
                layer.name
            );
        }
        for w in layer.no_change_on {
            assert!(
                !layer.on.contains(w),
                "{}: {w} both moves and does not",
                layer.name
            );
        }
    }
}

#[test]
fn the_result_line_is_one_json_object_with_the_contract_keys() {
    let result = RunResult {
        attempted: 3,
        failed: 1,
        metrics: vec![("job_s.p50", 0.125, "s"), ("io_per_bound", 7.0, "ratio")],
        jobs: 3,
        note: String::new(),
        tracer: Tracer::new(),
    };
    assert_eq!(
        result_json(&result),
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
         \"job_s.p50\": {\"value\": 0.125, \"unit\": \"s\"}, \
         \"io_per_bound\": {\"value\": 7.0, \"unit\": \"ratio\"}}}"
    );
}
