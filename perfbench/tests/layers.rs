//! Every per-layer metric is measured on the workloads it names: a traced
//! loop plus the probes give it a non-zero value there.

use std::time::Duration;

use trienum_perfbench::jobs::{run_jobs, LoopParams};
use trienum_perfbench::metrics::per_layer;
use trienum_perfbench::probes::run_probes;
use trienum_perfbench::run::per_layer_metrics;
use trienum_perfbench::trace::Tracer;
use trienum_perfbench::workload::WORKLOADS;

/// Jobs per loop (half of them traced), and edges per job, of the
/// scaled-down workloads.
const JOBS: usize = 4;
const EDGES: usize = 512;

#[test]
fn every_per_layer_metric_reads_non_zero_on_its_workloads() {
    for w in &WORKLOADS {
        let w = w.scaled(EDGES);
        let mut tracer = Tracer::new();
        let params = LoopParams {
            duration: Duration::ZERO,
            min_jobs: JOBS,
            trace: true,
        };
        let jobs = run_jobs(&w, 3, params, &mut tracer);
        assert!(jobs.iter().all(|j| j.ok), "{}: a job failed", w.name);
        let probes = run_probes(&w, 3, &mut tracer);
        assert_eq!(probes.failed, 0, "{}: a probe check failed", w.name);
        let metrics = per_layer_metrics(&w, &jobs, &probes);
        for (layer, (name, value, _)) in per_layer().zip(&metrics) {
            assert_eq!(layer.name, *name);
            if !layer.on.contains(&w.name) {
                continue;
            }
            if *name == "emsim.retry_io" {
                // A sentinel: no faults are installed on the benchmark's
                // machines, so a retry would be a defect.
                assert_eq!(*value, 0.0, "{}: {name}", w.name);
            } else {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}: {name} reads {value}",
                    w.name
                );
            }
        }
    }
}
