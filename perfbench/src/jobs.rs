//! The closed job loop: generate, check against the oracle, enumerate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use emsim::Machine;
use graphgen::{naive, Graph};
use trienum::{
    enumerate_triangles_on, enumerate_triangles_sharded, CountingSink, RunReport, ShardPlan,
};

use crate::speed::{correction, SpeedRef};
use crate::trace::Tracer;
use crate::workload::Workload;

/// What one successful enumeration returned.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The library's run report (merged over workers when sharded).
    pub report: RunReport,
    /// The run's charged cost: the report's transfers for `P = 1`; the PEM
    /// cost `max_io` plus the sequential merge epilogue above that.
    pub charged_io: u64,
    /// Transfers of the merge epilogue (0 for `P = 1`).
    pub merge_io: u64,
    /// Sum of the workers' transfers (the report's transfers for `P = 1`).
    pub sum_io: u64,
    /// Worker balance `max_io / (sum_io / P)` (1 for `P = 1`).
    pub balance: f64,
    /// Retried transfers on the caller-built machine (0 when sharded: the
    /// workers' machines are the library's own).
    pub retry_io: u64,
    /// The `(count, digest)` of what the sink received.
    pub checksum: (u64, u64),
}

/// One job of the loop.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Whether the job's spans were recorded.
    pub traced: bool,
    /// Wall seconds of the reference kernel: the mean of one warm run right
    /// before and one right after the job's timed call.
    pub ref_s: f64,
    /// Wall seconds spent generating the graph.
    pub generate_s: f64,
    /// Wall seconds spent on the oracle checksum.
    pub oracle_s: f64,
    /// Wall seconds from the call into `trienum` to its return.
    pub job_s: f64,
    /// Edges of the generated graph.
    pub edges: usize,
    /// The enumeration's results; `None` when the job panicked or the
    /// sharded entry point refused the plan.
    pub outcome: Option<Outcome>,
    /// Whether the job returned the oracle's `(count, digest)`.
    pub ok: bool,
}

impl JobRecord {
    /// The speed correction of this job's wall times (see [`crate::speed`]).
    pub fn speed(&self) -> f64 {
        correction(self.ref_s)
    }

    /// Wall seconds before the job's timed call: generation plus oracle.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.oracle_s
    }
}

/// How long the loop runs and which jobs it traces.
#[derive(Debug, Clone, Copy)]
pub struct LoopParams {
    /// Jobs keep starting until this much wall time has passed…
    pub duration: Duration,
    /// …and at least this many jobs ran.
    pub min_jobs: usize,
    /// Record the spans of every other job (odd indices); the even jobs run
    /// untraced, so the two halves give the tracing overhead.
    pub trace: bool,
}

/// Runs `w`'s job stream for `seed` under `params`.
pub fn run_jobs(
    w: &Workload,
    seed: u64,
    params: LoopParams,
    tracer: &mut Tracer,
) -> Vec<JobRecord> {
    let start = Instant::now();
    let mut speed = SpeedRef::new();
    let mut jobs = Vec::new();
    while jobs.len() < params.min_jobs || start.elapsed() < params.duration {
        let index = jobs.len() as u64;
        let traced = params.trace && index % 2 == 1;
        jobs.push(run_job(w, seed, index, traced, tracer, &mut speed));
    }
    jobs
}

/// Runs job `index` of `w`'s stream for `seed`, timing the reference kernel
/// right before and right after the call into the library. Panics inside
/// the library are caught and turn the job into a failure.
pub fn run_job(
    w: &Workload,
    seed: u64,
    index: u64,
    traced: bool,
    tracer: &mut Tracer,
    speed: &mut SpeedRef,
) -> JobRecord {
    let job_seed = Workload::job_seed(seed, index);
    let root = tracer.open(traced, "job", None, index);
    let parent = root.id();

    let span = tracer.open(traced, "graphgen.generate", parent, index);
    let graph = w.generate(job_seed);
    let generate_s = tracer.close(span, None);

    let span = tracer.open(traced, "graphgen.check", parent, index);
    let expected = naive::triangle_checksum(&graph);
    let oracle_s = tracer.close(span, None);

    let ref_before = speed.measure();
    let span = tracer.open(traced, "core.enumerate", parent, index);
    let result = catch_unwind(AssertUnwindSafe(|| enumerate(w, &graph, job_seed)));
    let (job_s, outcome) = match result {
        Ok(Some((outcome, machine_delta))) => (tracer.close(span, machine_delta), Some(outcome)),
        Ok(None) | Err(_) => (tracer.close(span, None), None),
    };
    tracer.close(root, None);
    let ref_s = (ref_before + speed.measure()) / 2.0;

    let ok = outcome.as_ref().is_some_and(|o| o.checksum == expected);
    JobRecord {
        traced,
        ref_s,
        generate_s,
        oracle_s,
        job_s,
        edges: graph.edge_count(),
        outcome,
        ok,
    }
}

/// One enumeration through the public entry point `w` calls for. Returns the
/// outcome plus, when the benchmark built the machine, its
/// `(transfers, work)` delta over the call.
fn enumerate(w: &Workload, graph: &Graph, job_seed: u64) -> Option<(Outcome, Option<(u64, u64)>)> {
    let algorithm = w.algorithm(job_seed);
    let cfg = w.config();
    let mut sink = CountingSink::new();
    if w.workers == 1 {
        let machine = Machine::with_backend(cfg, w.backend);
        let before = machine.stats();
        let report = enumerate_triangles_on(&machine, graph, algorithm, &mut sink);
        let after = machine.stats();
        let io = report.io.total();
        let delta = (
            after.io.total() - before.io.total(),
            after.work_ops - before.work_ops,
        );
        let outcome = Outcome {
            charged_io: io,
            merge_io: 0,
            sum_io: io,
            balance: 1.0,
            retry_io: after.retry_io,
            checksum: sink.checksum(),
            report,
        };
        return Some((outcome, Some(delta)));
    }
    let plan = ShardPlan::new(w.workers).with_backend(w.backend);
    let sharded = enumerate_triangles_sharded(graph, algorithm, cfg, plan, &mut sink).ok()?;
    let merge_io = sharded.merge_io.total();
    let outcome = Outcome {
        charged_io: sharded.workers.max_io + merge_io,
        merge_io,
        sum_io: sharded.workers.sum_io,
        balance: sharded.workers.balance,
        retry_io: 0,
        checksum: sink.checksum(),
        report: sharded.report,
    };
    Some((outcome, None))
}
