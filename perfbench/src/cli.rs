//! Command-line parsing and the result line.

use std::fmt::Write as _;

use crate::run::{Request, RunResult};
use crate::workload::{Workload, WORKLOADS};

/// Usage text printed on a bad command line.
pub const USAGE: &str =
    "usage: trienum-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`; every
/// flag is required.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Request<'static>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Request {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The human-readable report: one line per metric, then the run's counts.
pub fn report_lines(req: &Request<'_>, result: &RunResult) -> Vec<String> {
    let mut lines = vec![format!(
        "workload {} seed {} trace {}: {} jobs",
        req.workload.name,
        req.seed,
        u8::from(req.trace),
        result.jobs
    )];
    for (name, value, unit) in &result.metrics {
        lines.push(format!("  {name:<48} {value:>16.6} {unit}"));
    }
    lines.push(format!("  {}", result.note));
    lines.push(format!(
        "  attempted {} failed {} failed_frac {}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    ));
    lines
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric as `{"value": v, "unit": u}`.
pub fn result_json(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.failed == 0,
        result.attempted,
        result.failed
    );
    for (i, (name, value, unit)) in result.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; no metric should produce one.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let req = parse(args("--workload er-derand --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(req.workload.name, "er-derand");
        assert_eq!((req.seed, req.seconds, req.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload er-derand --seed 1 --seconds 1",
            "--workload er-derand --seed x --seconds 1 --trace 0",
            "--workload er-derand --seed 1 --seconds 0 --trace 0",
            "--workload er-derand --seed 1 --seconds 1 --trace 2",
            "--workload er-derand --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
