//! `trienum-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero on
//! a bad command line (printing no result) or when any job failed its
//! oracle check.

use std::path::PathBuf;
use std::process::ExitCode;

use trienum_perfbench::{cli, run};

/// Where the benchmark keeps its files: disk-plane backing files and the
/// trace export. Inside the package directory, so a run writes nothing
/// outside the checkout it was built in.
fn run_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("run")
}

fn main() -> ExitCode {
    let req = match cli::parse(std::env::args().skip(1)) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let tmp = run_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // The disk plane creates its backing files in the temp directory; point
    // it into the checkout before any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    let result = run::run(&req);
    if req.trace {
        let path = run_dir().join(format!("trace-{}-seed{}.json", req.workload.name, req.seed));
        match std::fs::write(&path, result.tracer.to_chrome_json()) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    for line in cli::report_lines(&req, &result) {
        println!("{line}");
    }
    println!("{}", cli::result_json(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
