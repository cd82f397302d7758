//! Metric definitions and the summary statistics behind them.
//!
//! [`END_TO_END`] and [`per_layer`] mirror `BENCHMARK.json` (a test holds
//! them equal). Each per-layer metric also names the end-to-end metric it should
//! move, the workloads it should move it on, and the workloads where the
//! prediction is no change.

/// An end-to-end metric: what a user of the library sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A per-layer metric and the prediction it comes with.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit. Every per-layer metric is a cost: lower is better.
    pub unit: &'static str,
    /// End-to-end metrics a change in this layer metric should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
    /// Workloads on which the prediction is no change.
    pub no_change_on: &'static [&'static str],
}

/// The tail percentile `job_s.tail` reports.
pub const TAIL_PERCENTILE: f64 = 90.0;
/// Jobs every run completes: with at least this many jobs, ten lie beyond
/// the tail percentile. The exact (count-based) metrics are taken over
/// exactly these first jobs, so they repeat bit for bit for a seed.
pub const MIN_JOBS: usize = 100;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "job_s.p50",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "job_s.tail",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "edges_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "io_per_bound",
        unit: "ratio",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "work_per_e15",
        unit: "ratio",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "mem_peak_per_M",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
    },
];

const OBL: &str = "er-oblivious";
const AWARE: &str = "powerlaw-aware";
const DISK: &str = "powerlaw-aware-disk-p2";
const DERAND: &str = "er-derand";
const ALL: &[&str] = &[OBL, AWARE, DISK, DERAND];
/// The in-memory, single-worker workloads.
const MEM: &[&str] = &[OBL, AWARE, DERAND];
const AWARE_BOTH: &[&str] = &[AWARE, DISK];
const JOB: &[&str] = &["job_s.p50"];
const IO: &[&str] = &["io_per_bound"];
const IO_JOB: &[&str] = &["io_per_bound", "job_s.p50"];
const PEAK: &[&str] = &["mem_peak_per_M"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
    no_change_on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
        no_change_on,
    }
}

const OBL_PHASE: (&[&str], &[&str]) = (&[OBL], &[AWARE, DISK, DERAND]);
const AWARE_PHASE: (&[&str], &[&str]) = (&[AWARE, DISK, DERAND], &[OBL]);
const DERAND_PHASE: (&[&str], &[&str]) = (&[DERAND], &[OBL, AWARE, DISK]);

/// Up to two metrics per phase the paper drivers record in
/// `RunReport.phases`: charged transfers over the run's bound, and the
/// phase's gauge peak over `M`. Two are left out because they read 0 on
/// every workload: the root sort leases no gauge memory, and the leaf batch
/// moves blocks only for oversized depth-limit leaves, which none of the
/// workloads' graphs produce.
pub const PHASE_LAYERS: [Layer; 12] = [
    layer(
        "core.phase.root_sort.io_per_bound",
        "ratio",
        IO,
        OBL_PHASE.0,
        OBL_PHASE.1,
    ),
    layer(
        "core.phase.recursion.io_per_bound",
        "ratio",
        IO,
        OBL_PHASE.0,
        OBL_PHASE.1,
    ),
    layer(
        "core.phase.recursion.peak_per_M",
        "ratio",
        PEAK,
        OBL_PHASE.0,
        OBL_PHASE.1,
    ),
    layer(
        "core.phase.leaf_batch.peak_per_M",
        "ratio",
        PEAK,
        OBL_PHASE.0,
        OBL_PHASE.1,
    ),
    layer(
        "core.phase.step0_greedy_coloring.io_per_bound",
        "ratio",
        IO,
        DERAND_PHASE.0,
        DERAND_PHASE.1,
    ),
    layer(
        "core.phase.step0_greedy_coloring.peak_per_M",
        "ratio",
        PEAK,
        DERAND_PHASE.0,
        DERAND_PHASE.1,
    ),
    layer(
        "core.phase.step1_high_degree.io_per_bound",
        "ratio",
        IO_JOB,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
    layer(
        "core.phase.step1_high_degree.peak_per_M",
        "ratio",
        PEAK,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
    layer(
        "core.phase.step2_partition.io_per_bound",
        "ratio",
        IO_JOB,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
    layer(
        "core.phase.step2_partition.peak_per_M",
        "ratio",
        PEAK,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
    layer(
        "core.phase.step3_color_triples.io_per_bound",
        "ratio",
        IO,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
    layer(
        "core.phase.step3_color_triples.peak_per_M",
        "ratio",
        PEAK,
        AWARE_PHASE.0,
        AWARE_PHASE.1,
    ),
];

/// The per-layer metrics other than the per-phase ones.
pub const LAYERS: [Layer; 30] = [
    layer(
        "core.oblivious.us_per_subproblem",
        "us",
        JOB,
        &[OBL],
        &[AWARE, DERAND],
    ),
    layer(
        "core.oblivious.subproblems_per_edge",
        "ratio",
        JOB,
        &[OBL],
        &[AWARE, DERAND],
    ),
    layer(
        "emalgo.oblivious_sort.io_per_sortN",
        "ratio",
        IO,
        &[OBL],
        AWARE_BOTH,
    ),
    layer("emalgo.partition8.ns_per_elem", "ns", JOB, &[OBL], &[AWARE]),
    layer(
        "emalgo.oblivious_sort.ns_per_elem",
        "ns",
        JOB,
        &[OBL],
        &[AWARE],
    ),
    layer("kwise.refined.ns_per_color", "ns", JOB, &[OBL], &[AWARE]),
    layer("emsim.scan_ns_per_word", "ns", JOB, &[AWARE], &[]),
    layer("emsim.host_scan_ns_per_word", "ns", JOB, &[AWARE], &[]),
    layer("emsim.scan_overhead", "ratio", JOB, &[AWARE], &[]),
    layer("emsim.append_ns_per_word", "ns", JOB, &[AWARE], &[]),
    layer("emsim.miss_ns_per_transfer", "ns", JOB, &[AWARE], &[]),
    layer("emalgo.sort.ns_per_elem", "ns", IO_JOB, &[AWARE], &[OBL]),
    layer(
        "emalgo.sort.io_per_sortN",
        "ratio",
        IO_JOB,
        &[AWARE],
        &[OBL],
    ),
    layer("emalgo.sort.passes", "count", IO_JOB, &[AWARE], &[OBL]),
    layer(
        "core.aware.step3_chunk_passes",
        "count",
        IO,
        AWARE_BOTH,
        &[OBL],
    ),
    layer(
        "core.derand.candidate_evals",
        "count",
        JOB,
        &[DERAND],
        &[AWARE],
    ),
    layer("kwise.bitfam.ns_per_eval", "ns", JOB, &[DERAND], &[AWARE]),
    layer("kwise.fourwise.ns_per_eval", "ns", JOB, &[DERAND], &[AWARE]),
    layer("emsim.disk.miss_ns_per_transfer", "ns", JOB, &[DISK], MEM),
    layer("emsim.disk.real_per_charged", "ratio", JOB, &[DISK], MEM),
    layer(
        "core.workunit.merge_io_per_bound",
        "ratio",
        IO_JOB,
        &[DISK],
        MEM,
    ),
    layer("emalgo.kway_merge.ns_per_elem", "ns", IO_JOB, &[DISK], MEM),
    layer("core.workunit.sum_io_per_bound", "ratio", JOB, &[DISK], MEM),
    layer("core.workunit.balance", "ratio", JOB, &[DISK], MEM),
    layer("core.input.load_ns_per_edge", "ns", JOB, ALL, &[]),
    layer("core.ns_per_work_op", "ns", JOB, ALL, &[]),
    layer("graphgen.generate_s", "s", &["setup_s"], ALL, &[]),
    layer("graphgen.oracle_s", "s", &["setup_s"], ALL, &[]),
    layer("emsim.retry_io", "count", &["io_per_bound"], ALL, &[]),
    layer("trace.overhead", "ratio", &[], ALL, &[]),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> impl Iterator<Item = &'static Layer> {
    LAYERS.iter().chain(PHASE_LAYERS.iter())
}

/// Whether `name` is a valid metric name: a letter or digit first, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank percentile `p` (0 < p ≤ 100); 0 when empty. For
/// `p = 90` over `n ≥ 100` values, at least ten values lie above it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_ten_values_beyond_p90_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, TAIL_PERCENTILE);
        assert_eq!(p, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p).count(), 10);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(per_layer().map(|l| l.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "invalid metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("a b") && !valid_name(".a") && !valid_name(""));
    }
}
