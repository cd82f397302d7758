//! One benchmark run: the job loop (and, when traced, the probes), reduced to
//! the metrics `BENCHMARK.json` names.

use std::time::Duration;

use emsim::BackendKind;

use crate::jobs::{run_jobs, JobRecord, LoopParams};
use crate::metrics::{
    median, per_layer, percentile, ratio, Layer, END_TO_END, MIN_JOBS, PHASE_LAYERS,
    TAIL_PERCENTILE,
};
use crate::probes::{run_probes, ProbeResults};
use crate::speed::{REF_EXPONENT, REF_NOMINAL_S};
use crate::trace::Tracer;
use crate::workload::{Driver, Workload};

/// Share of `--seconds` the traced run gives its job loop; the probes take
/// the rest.
const TRACED_LOOP_SHARE: f64 = 0.75;

/// The command-line request.
#[derive(Debug, Clone, Copy)]
pub struct Request<'w> {
    /// The workload to run.
    pub workload: &'w Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the job loop runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    /// Jobs (and probe output checks) attempted.
    pub attempted: u64,
    /// Jobs whose result differed from the oracle or that panicked, plus
    /// failed probe checks.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs run by the loop.
    pub jobs: usize,
    /// A human-readable line on the uncorrected wall times and the
    /// reference kernel's time.
    pub note: String,
    /// The recorded spans (empty for an untraced run).
    pub tracer: Tracer,
}

/// Runs `req` to completion.
pub fn run(req: &Request<'_>) -> RunResult {
    let w = req.workload;
    let mut tracer = Tracer::new();
    let loop_seconds = if req.trace {
        req.seconds * TRACED_LOOP_SHARE
    } else {
        req.seconds
    };
    let params = LoopParams {
        duration: Duration::from_secs_f64(loop_seconds),
        min_jobs: MIN_JOBS,
        trace: req.trace,
    };
    let jobs = run_jobs(w, req.seed, params, &mut tracer);
    let mut attempted = jobs.len() as u64;
    let mut failed = jobs.iter().filter(|j| !j.ok).count() as u64;
    let metrics = if req.trace {
        let probes = run_probes(w, req.seed, &mut tracer);
        attempted += probes.checks;
        failed += probes.failed;
        per_layer_metrics(w, &jobs, &probes)
    } else {
        let e2e = end_to_end(w, &jobs);
        END_TO_END
            .iter()
            .map(|m| {
                let value = e2e
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .unwrap_or_else(|| panic!("nothing measures the end-to-end metric {}", m.name))
                    .1;
                (m.name, value, m.unit)
            })
            .collect()
    };
    RunResult {
        attempted,
        failed,
        metrics,
        jobs: jobs.len(),
        note: wall_note(&jobs),
        tracer,
    }
}

/// The uncorrected wall times beside the reference kernel's.
fn wall_note(jobs: &[JobRecord]) -> String {
    let wall = |f: fn(&JobRecord) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    format!(
        "uncorrected wall: job p50 {:.6} s, setup p50 {:.6} s; reference kernel p50 {:.6} s \
         (nominal {REF_NOMINAL_S} s, exponent {REF_EXPONENT})",
        wall(|j| j.job_s),
        wall(JobRecord::setup_s),
        wall(|j| j.ref_s),
    )
}

/// The exact-metric window: the first [`MIN_JOBS`] jobs, which every run
/// completes, so count-based sums repeat bit for bit for a seed.
fn exact_window(jobs: &[JobRecord]) -> &[JobRecord] {
    &jobs[..jobs.len().min(MIN_JOBS)]
}

/// The analytic bound `E^{3/2}/(√M·B)` summed over `jobs`.
fn bound_sum(w: &Workload, jobs: &[JobRecord]) -> f64 {
    let cfg = w.config();
    jobs.iter().map(|j| cfg.triangle_bound(j.edges)).sum()
}

/// Sum of `f` over the jobs that returned an outcome.
fn sum_outcomes(jobs: &[JobRecord], f: impl Fn(&crate::jobs::Outcome) -> f64) -> f64 {
    jobs.iter().filter_map(|j| j.outcome.as_ref()).map(f).sum()
}

/// The count-based metrics: charged transfers, work and gauge peaks over the
/// exact window, and the failed share of all jobs. They repeat bit for bit
/// for a seed, traced or not.
pub fn exact_metrics(w: &Workload, jobs: &[JobRecord]) -> Vec<(&'static str, f64)> {
    let exact = exact_window(jobs);
    let e15: f64 = exact.iter().map(|j| (j.edges as f64).powf(1.5)).sum();
    let peak_mem = exact
        .iter()
        .filter_map(|j| j.outcome.as_ref())
        .map(|o| o.report.peak_mem_words)
        .max()
        .unwrap_or(0);
    let failed = jobs.iter().filter(|j| !j.ok).count();
    let mut out = vec![
        (
            "io_per_bound",
            ratio(
                sum_outcomes(exact, |o| o.charged_io as f64),
                bound_sum(w, exact),
            ),
        ),
        (
            "work_per_e15",
            ratio(sum_outcomes(exact, |o| o.report.work_ops as f64), e15),
        ),
        ("mem_peak_per_M", peak_mem as f64 / w.mem_words as f64),
        ("failed_frac", ratio(failed as f64, jobs.len() as f64)),
    ];
    for layer in &PHASE_LAYERS {
        out.push((layer.name, phase_value(w, layer.name, exact)));
    }
    out
}

/// `core.phase.<phase>.io_per_bound` or `….peak_per_M` over the exact
/// window; 0 on workloads whose driver has no such phase.
fn phase_value(w: &Workload, name: &str, exact: &[JobRecord]) -> f64 {
    let Some((phase, what)) = name
        .strip_prefix("core.phase.")
        .and_then(|p| p.split_once('.'))
    else {
        return 0.0;
    };
    if what == "io_per_bound" {
        let io = sum_outcomes(exact, |o| {
            o.report.phase_io(phase).map_or(0.0, |io| io.total() as f64)
        });
        return ratio(io, bound_sum(w, exact));
    }
    let peak = exact
        .iter()
        .filter_map(|j| j.outcome.as_ref())
        .filter_map(|o| o.report.phase_peak(phase))
        .max()
        .unwrap_or(0);
    peak as f64 / w.mem_words as f64
}

/// The end-to-end metrics of an untraced loop.
pub fn end_to_end(w: &Workload, jobs: &[JobRecord]) -> Vec<(&'static str, f64)> {
    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s * j.speed()).collect();
    let setup_s: Vec<f64> = jobs.iter().map(|j| j.setup_s() * j.speed()).collect();
    let edges: f64 = jobs.iter().map(|j| j.edges as f64).sum();
    let mut out = vec![
        ("job_s.p50", median(&job_s)),
        ("job_s.tail", percentile(&job_s, TAIL_PERCENTILE)),
        ("edges_per_s", ratio(edges, job_s.iter().sum())),
        ("setup_s", median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    out.extend(exact_metrics(w, jobs));
    out
}

/// Every per-layer metric, in `BENCHMARK.json` order, from a traced job
/// loop and the probes.
pub fn per_layer_metrics(
    w: &Workload,
    jobs: &[JobRecord],
    probes: &ProbeResults,
) -> Vec<(&'static str, f64, &'static str)> {
    per_layer()
        .map(|l| (l.name, layer_value(w, l, jobs, probes), l.unit))
        .collect()
}

/// The value of a per-layer metric: from the job loop or from the probes;
/// 0 when the workload's run path does not contain the layer. Panics on a
/// metric that nothing measures, so a misnamed probe cannot read as 0. Timings come
/// from the traced jobs (the durations of their spans, speed-corrected);
/// counts from the exact window.
fn layer_value(w: &Workload, layer: &Layer, jobs: &[JobRecord], probes: &ProbeResults) -> f64 {
    let traced: Vec<&JobRecord> = jobs.iter().filter(|j| j.traced).collect();
    let corrected = |traced_side: bool, f: fn(&JobRecord) -> f64| -> Vec<f64> {
        jobs.iter()
            .filter(|j| j.traced == traced_side)
            .map(|j| f(j) * j.speed())
            .collect()
    };
    let exact = exact_window(jobs);
    let bound = bound_sum(w, exact);
    let traced_s: f64 = corrected(true, |j| j.job_s).iter().sum();
    let traced_extra = |name: &str| -> f64 {
        traced
            .iter()
            .filter_map(|j| j.outcome.as_ref())
            .map(|o| o.report.extra(name).unwrap_or(0.0))
            .sum()
    };
    let exact_extra_mean = |name: &str| -> f64 {
        let n = exact.iter().filter(|j| j.outcome.is_some()).count() as f64;
        ratio(
            sum_outcomes(exact, |o| o.report.extra(name).unwrap_or(0.0)),
            n,
        )
    };
    let sharded = w.workers > 1;
    match layer.name {
        "core.oblivious.us_per_subproblem" => ratio(traced_s * 1e6, traced_extra("subproblems")),
        "core.oblivious.subproblems_per_edge" => ratio(
            sum_outcomes(exact, |o| o.report.extra("subproblems").unwrap_or(0.0)),
            exact.iter().map(|j| j.edges as f64).sum(),
        ),
        "core.aware.step3_chunk_passes" => exact_extra_mean("step3_chunk_passes"),
        "core.derand.candidate_evals" if w.driver == Driver::Deterministic => {
            exact_extra_mean("greedy_levels") * exact_extra_mean("candidates_per_level")
        }
        "core.workunit.merge_io_per_bound" if sharded => {
            ratio(sum_outcomes(exact, |o| o.merge_io as f64), bound)
        }
        "core.workunit.sum_io_per_bound" if sharded => {
            ratio(sum_outcomes(exact, |o| o.sum_io as f64), bound)
        }
        "core.workunit.balance" if sharded => {
            let n = exact.iter().filter(|j| j.outcome.is_some()).count() as f64;
            ratio(sum_outcomes(exact, |o| o.balance), n)
        }
        "core.ns_per_work_op" => {
            let work: f64 = traced
                .iter()
                .filter_map(|j| j.outcome.as_ref())
                .map(|o| o.report.work_ops as f64)
                .sum();
            ratio(traced_s * 1e9, work)
        }
        "graphgen.generate_s" => median(&corrected(true, |j| j.generate_s)),
        "graphgen.oracle_s" => median(&corrected(true, |j| j.oracle_s)),
        "emsim.retry_io" => sum_outcomes(jobs, |o| o.retry_io as f64) + probes.retry_io as f64,
        "trace.overhead" => ratio(
            median(&corrected(true, |j| j.job_s)),
            median(&corrected(false, |j| j.job_s)),
        ),
        name if name.starts_with("core.phase.") => phase_value(w, name, exact),
        "core.derand.candidate_evals"
        | "core.workunit.merge_io_per_bound"
        | "core.workunit.sum_io_per_bound"
        | "core.workunit.balance" => 0.0,
        name if name.starts_with("emsim.disk.") && w.backend != BackendKind::Disk => 0.0,
        name => probes
            .get(name)
            .unwrap_or_else(|| panic!("nothing measures the per-layer metric {name}")),
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
