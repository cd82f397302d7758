//! The count-based metrics are exact: they repeat bit for bit for a seed,
//! and recording spans does not change them. Failed jobs are counted.

use std::time::Duration;

use trienum_perfbench::jobs::{run_job, run_jobs, LoopParams};
use trienum_perfbench::run::exact_metrics;
use trienum_perfbench::speed::SpeedRef;
use trienum_perfbench::trace::Tracer;
use trienum_perfbench::workload::{Workload, WORKLOADS};

/// Jobs per loop, and edges per job, of the scaled-down workloads.
const JOBS: usize = 4;
const EDGES: usize = 512;

/// The exact metrics of a `JOBS`-job loop, as bit patterns.
fn exact(w: &Workload, seed: u64, trace: bool) -> Vec<(&'static str, u64)> {
    let mut tracer = Tracer::new();
    let params = LoopParams {
        duration: Duration::ZERO,
        min_jobs: JOBS,
        trace,
    };
    let jobs = run_jobs(w, seed, params, &mut tracer);
    assert_eq!(jobs.len(), JOBS);
    assert!(
        jobs.iter().all(|j| j.ok),
        "{}: a job failed its oracle check",
        w.name
    );
    assert_eq!(tracer.spans().is_empty(), !trace);
    exact_metrics(w, &jobs)
        .into_iter()
        .map(|(name, value)| (name, value.to_bits()))
        .collect()
}

#[test]
fn exact_metrics_repeat_bit_for_bit_for_a_seed() {
    for w in &WORKLOADS {
        let w = w.scaled(EDGES);
        assert_eq!(exact(&w, 5, false), exact(&w, 5, false), "{}", w.name);
    }
}

#[test]
fn a_traced_loop_counts_what_an_untraced_loop_counts() {
    for w in &WORKLOADS {
        let w = w.scaled(EDGES);
        assert_eq!(exact(&w, 9, true), exact(&w, 9, false), "{}", w.name);
    }
}

#[test]
fn the_seed_selects_the_job_stream() {
    let w = WORKLOADS[0].scaled(EDGES);
    assert_ne!(exact(&w, 1, false), exact(&w, 2, false));
}

#[test]
fn traced_jobs_record_generate_check_and_enumerate_under_one_root() {
    let w = WORKLOADS[1].scaled(EDGES);
    let mut tracer = Tracer::new();
    let job = run_job(&w, 3, 0, true, &mut tracer, &mut SpeedRef::new());
    assert!(job.ok);
    let spans = tracer.spans();
    let root = spans.iter().find(|s| s.name == "job").expect("a root span");
    assert!(root.parent.is_none());
    for name in ["graphgen.generate", "graphgen.check", "core.enumerate"] {
        let child = spans.iter().find(|s| s.name == name).expect(name);
        assert_eq!(child.parent, Some(root.id), "{name}");
        assert_eq!(child.trace, root.trace, "{name}");
    }
    let enumerate = spans.iter().find(|s| s.name == "core.enumerate").unwrap();
    assert!(
        enumerate.io.is_some_and(|io| io > 0),
        "the machine's delta is recorded"
    );
}

#[test]
fn a_panicking_job_counts_as_failed() {
    // M < B: the library refuses the configuration with a panic.
    let w = Workload {
        mem_words: 8,
        block_words: 16,
        ..WORKLOADS[0].scaled(64)
    };
    let mut tracer = Tracer::new();
    let job = run_job(&w, 1, 0, false, &mut tracer, &mut SpeedRef::new());
    assert!(!job.ok);
    assert!(job.outcome.is_none());
    let failed_frac = exact_metrics(&WORKLOADS[0], &[job])
        .into_iter()
        .find(|(name, _)| *name == "failed_frac")
        .map(|(_, v)| v);
    assert_eq!(failed_frac, Some(1.0));
}
