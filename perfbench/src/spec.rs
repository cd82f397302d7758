//! `BENCHMARK.json`, rendered from the benchmark's own tables.
//!
//! The file at the repository root is this rendering; `tests/contract.rs`
//! holds the two equal, so the workloads, metrics and bounds have one
//! source.

use crate::metrics::{per_layer, END_TO_END};
use crate::workload::WORKLOADS;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 20;

/// A JSON list of `items`, one per line, indented under its key.
fn list(key: &str, items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|item| format!("    {item}")).collect();
    format!("  \"{key}\": [\n{}\n  ]", items.join(",\n"))
}

/// The text of `BENCHMARK.json`. Strings are written unescaped: no name,
/// unit or reason holds a quote or a backslash.
pub fn benchmark_json() -> String {
    let quoted = |s: &&str| format!("\"{s}\"");
    let sections = [
        list("command", COMMAND.iter().map(quoted)),
        list("paths", PATHS.iter().map(quoted)),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        list(
            "workloads",
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)),
        ),
        list(
            "end_to_end",
            END_TO_END.iter().map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
                    m.name, m.unit, m.better, m.bound
                )
            }),
        ),
        list(
            "per_layer",
            per_layer().map(|l| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\"}}",
                    l.name, l.unit
                )
            }),
        ),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}
