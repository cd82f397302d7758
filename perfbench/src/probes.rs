//! Layer probes: timed calls into the public functions of one layer, shaped
//! like the workload they belong to (its `EmConfig`, its data plane, inputs
//! of its edge count).
//!
//! Every probe repeats its measurement on fresh state until it has enough
//! samples and reports the median sample, speed-corrected with the
//! reference kernel timed right before the probe. Every repetition is a recorded
//! span carrying the charged `(transfers, work)` delta of the probe's
//! machine, and every probe checks the output of the function it times.

use std::hint::black_box;
use std::time::{Duration, Instant};

use emalgo::{external_sort_by_key_with_stats, kway_merge, oblivious_sort_by_key, scan_partition};
use emsim::{BackendKind, BlockDevice, BufferPool, DiskStorage, ExtVec, Machine, RunStats};
use graphgen::{naive, Graph};
use kwise::{BitFunctionFamily, FourWise, RefinedColoring};
use trienum::{enumerate_triangles_on, CountingSink, ExtGraph};

use crate::metrics::{median, ratio};
use crate::speed::SpeedRef;
use crate::trace::Tracer;
use crate::workload::Workload;

/// Trace id of the probe spans (jobs use their index, far below it).
const PROBE_TRACE: u64 = 1 << 32;
/// Job index whose seed the probes' graph is drawn with (never a job's).
const PROBE_JOB: u64 = u64::MAX;
/// Wall time each probe samples for, at least.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
/// Samples each probe takes, at least.
const MIN_SAMPLES: usize = 5;
/// Refinement depth of the `kwise.refined` probe (a typical recursion depth
/// of the cache-oblivious driver at the benchmark's sizes).
const REFINED_DEPTH: usize = 4;
/// Buckets of the partition probe: the eight children of a refinement node.
const PARTITION_BUCKETS: usize = 8;
/// Sorted runs the k-way merge probe merges.
const MERGE_WAYS: usize = 8;

/// What the probes measured and checked.
#[derive(Debug, Default)]
pub struct ProbeResults {
    /// `(metric name, value)` in measurement order.
    pub values: Vec<(&'static str, f64)>,
    /// Output checks made.
    pub checks: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Retried transfers on the probes' machines.
    pub retry_io: u64,
    /// Speed correction of the probe running now (see [`crate::speed`]).
    speed: f64,
}

impl ProbeResults {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records a wall-time metric, speed-corrected.
    fn set_time(&mut self, name: &'static str, wall: f64) {
        self.set(name, wall * self.speed);
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("probe check failed: {what}");
        }
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }
}

/// Calls `f` until at least [`MIN_SAMPLES`] samples and [`PROBE_BUDGET`] of
/// wall time are reached, and returns the samples.
fn samples<T>(mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_SAMPLES || start.elapsed() < PROBE_BUDGET {
        out.push(f());
    }
    out
}

/// The median of [`samples`] of `f`.
fn sample(f: impl FnMut() -> f64) -> f64 {
    median(&samples(f))
}

/// The `(transfers, work)` a machine was charged since `before`.
fn delta(machine: &Machine, before: &RunStats) -> (u64, u64) {
    let now = machine.stats();
    (
        now.io.total() - before.io.total(),
        now.work_ops - before.work_ops,
    )
}

/// `n` pseudo-random words from `seed` (xorshift64*).
fn random_words(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        })
        .collect()
}

/// Runs every probe that applies to `w`.
pub fn run_probes(w: &Workload, seed: u64, tracer: &mut Tracer) -> ProbeResults {
    let mut out = ProbeResults::default();
    let graph = w.generate(Workload::job_seed(seed, PROBE_JOB));
    let words = random_words(w.edges, seed);
    let mut speed = SpeedRef::new();
    out.speed = speed.factor();
    emsim_access(w, &words, tracer, &mut out);
    out.speed = speed.factor();
    emalgo_primitives(w, &words, tracer, &mut out);
    out.speed = speed.factor();
    kwise_evaluation(w, &graph, tracer, &mut out);
    out.speed = speed.factor();
    input_load(w, &graph, tracer, &mut out);
    if w.backend == BackendKind::Disk {
        out.speed = speed.factor();
        disk_plane(w, &graph, tracer, &mut out);
    }
    out
}

/// The `emsim` access path: appends, sequential scans and block misses
/// through `ExtVec` on the workload's plane, beside a plain host scan of
/// the same words.
fn emsim_access(w: &Workload, words: &[u64], tracer: &mut Tracer, out: &mut ProbeResults) {
    let cfg = w.config();
    let b = cfg.block_words;
    // At least four memories' worth, so every pass streams through the cache.
    let n = words.len().max(4 * cfg.mem_words);
    let data: Vec<u64> = words.iter().copied().cycle().take(n).collect();
    let expected = data.iter().fold(0u64, |a, &x| a.wrapping_add(x));
    let mut scan_ok = true;
    let mut retry_io = 0;
    // Per sample: ns per appended word, per scanned word, per missed block.
    let rows = samples(|| {
        let machine = Machine::with_backend(cfg, w.backend);

        let span = tracer.open(true, "emsim.append", None, PROBE_TRACE);
        let before = machine.stats();
        let mut v: ExtVec<u64> = ExtVec::new(&machine);
        for &x in &data {
            v.push(x);
        }
        let d = delta(&machine, &before);
        let append = tracer.close(span, Some(d)) * 1e9 / n as f64;

        machine.cold_cache();
        let span = tracer.open(true, "emsim.scan", None, PROBE_TRACE);
        let before = machine.stats();
        let sum = v.iter().fold(0u64, |a, x| a.wrapping_add(x));
        let d = delta(&machine, &before);
        let scan = tracer.close(span, Some(d)) * 1e9 / n as f64;
        scan_ok &= sum == expected;

        // One word per block, cycling through more blocks than there are
        // frames: every access misses and costs one read.
        machine.cold_cache();
        let span = tracer.open(true, "emsim.miss", None, PROBE_TRACE);
        let before = machine.stats();
        let mut acc = 0u64;
        for _ in 0..2 {
            for blk in 0..n / b {
                acc ^= v.get(blk * b);
            }
        }
        black_box(acc);
        let d = delta(&machine, &before);
        let miss = tracer.close(span, Some(d)) * 1e9 / d.0.max(1) as f64;
        retry_io += machine.stats().retry_io;
        [append, scan, miss]
    });
    let column = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
    out.check(scan_ok, "ExtVec scan sums to the pushed words");
    out.retry_io += retry_io;

    let host = sample(|| {
        let span = tracer.open(true, "host.scan", None, PROBE_TRACE);
        let mut sum = 0u64;
        // `black_box` per word keeps the loop a word-at-a-time scan, as the
        // simulator's is, rather than a vectorised reduction.
        for _ in 0..64 {
            sum = data.iter().fold(sum, |a, &x| a.wrapping_add(black_box(x)));
        }
        black_box(sum);
        tracer.close(span, None) * 1e9 / (64 * n) as f64
    });
    let scan = column(1);
    out.set_time("emsim.scan_ns_per_word", scan);
    out.set_time("emsim.host_scan_ns_per_word", host);
    out.set("emsim.scan_overhead", ratio(scan, host));
    out.set_time("emsim.append_ns_per_word", column(0));
    out.set_time("emsim.miss_ns_per_transfer", column(2));
}

/// The `emalgo` primitives on `E` random words: the cache-aware and the
/// cache-oblivious sort, the eight-way partition and an eight-way merge.
fn emalgo_primitives(w: &Workload, words: &[u64], tracer: &mut Tracer, out: &mut ProbeResults) {
    let cfg = w.config();
    let n = words.len();
    let mut reference = words.to_vec();
    reference.sort_unstable();
    let sort_n = cfg.sort_cost(n) as f64;

    let mut sort_ok = true;
    let (mut sort_io, mut passes) = (0u64, 0usize);
    let ns = sample(|| {
        let machine = Machine::with_backend(cfg, w.backend);
        let input = ExtVec::from_slice(&machine, words);
        machine.cold_cache();
        let span = tracer.open(true, "emalgo.sort", None, PROBE_TRACE);
        let before = machine.stats();
        let (sorted, stats) = external_sort_by_key_with_stats(&input, |x| *x);
        let d = delta(&machine, &before);
        let secs = tracer.close(span, Some(d));
        (sort_io, passes) = (d.0, stats.passes);
        sort_ok &= sorted.load_all() == reference;
        secs * 1e9 / n as f64
    });
    out.check(sort_ok, "external_sort_by_key sorts");
    out.set_time("emalgo.sort.ns_per_elem", ns);
    out.set("emalgo.sort.io_per_sortN", ratio(sort_io as f64, sort_n));
    out.set("emalgo.sort.passes", passes as f64);

    let mut obl_ok = true;
    let mut obl_io = 0u64;
    let ns = sample(|| {
        let machine = Machine::with_backend(cfg, w.backend);
        let input = ExtVec::from_slice(&machine, words);
        machine.cold_cache();
        let span = tracer.open(true, "emalgo.oblivious_sort", None, PROBE_TRACE);
        let before = machine.stats();
        let sorted = oblivious_sort_by_key(&input, |x| *x);
        let d = delta(&machine, &before);
        let secs = tracer.close(span, Some(d));
        obl_io = d.0;
        obl_ok &= sorted.load_all() == reference;
        secs * 1e9 / n as f64
    });
    out.check(obl_ok, "oblivious_sort_by_key sorts");
    out.set_time("emalgo.oblivious_sort.ns_per_elem", ns);
    out.set(
        "emalgo.oblivious_sort.io_per_sortN",
        ratio(obl_io as f64, sort_n),
    );

    let mut part_ok = true;
    let ns = sample(|| {
        let machine = Machine::with_backend(cfg, w.backend);
        let input = ExtVec::from_slice(&machine, words);
        machine.cold_cache();
        let span = tracer.open(true, "emalgo.partition8", None, PROBE_TRACE);
        let before = machine.stats();
        let buckets = scan_partition(&input, PARTITION_BUCKETS, |x| 1u32 << (x & 7));
        let d = delta(&machine, &before);
        let secs = tracer.close(span, Some(d));
        part_ok &= buckets.iter().map(ExtVec::len).sum::<usize>() == n;
        secs * 1e9 / n as f64
    });
    out.check(part_ok, "scan_partition routes every element once");
    out.set_time("emalgo.partition8.ns_per_elem", ns);

    let mut merge_ok = true;
    let ns = sample(|| {
        let machine = Machine::with_backend(cfg, w.backend);
        let runs: Vec<ExtVec<u64>> = words
            .chunks(n.div_ceil(MERGE_WAYS))
            .map(|chunk| {
                let mut run = chunk.to_vec();
                run.sort_unstable();
                ExtVec::from_slice(&machine, &run)
            })
            .collect();
        machine.cold_cache();
        let span = tracer.open(true, "emalgo.kway_merge", None, PROBE_TRACE);
        let before = machine.stats();
        let readers = runs.iter().map(ExtVec::iter).collect();
        let merged: Vec<u64> = kway_merge(&machine, readers, |x| *x).collect();
        let d = delta(&machine, &before);
        let secs = tracer.close(span, Some(d));
        merge_ok &= merged == reference;
        secs * 1e9 / n as f64
    });
    out.check(merge_ok, "kway_merge yields the sorted union");
    out.set_time("emalgo.kway_merge.ns_per_elem", ns);
}

/// The `kwise` hash families evaluated on the endpoints of a workload graph.
fn kwise_evaluation(w: &Workload, graph: &Graph, tracer: &mut Tracer, out: &mut ProbeResults) {
    let ends: Vec<u32> = graph.edges().iter().flat_map(|e| [e.u, e.v]).collect();

    // The cache-oblivious driver's colouring: memoised bits, fresh memo per
    // sample, one colour query per edge endpoint.
    let ns = sample(|| {
        let mut coloring = RefinedColoring::memoised();
        coloring.push_batch((0..REFINED_DEPTH as u64).map(FourWise::new));
        let span = tracer.open(true, "kwise.refined", None, PROBE_TRACE);
        let acc = ends.iter().fold(0u64, |a, &v| a ^ coloring.color(v));
        black_box(acc);
        tracer.close(span, None) * 1e9 / ends.len() as f64
    });
    out.set_time("kwise.refined.ns_per_color", ns);

    // The deterministic driver's candidate family, sized as it sizes it.
    let cfg = w.config();
    let colors = ((w.edges as f64 / cfg.mem_words as f64).sqrt().ceil() as usize)
        .max(1)
        .next_power_of_two();
    let family =
        BitFunctionFamily::new(BitFunctionFamily::recommended_size(w.vertices, colors), 17);
    let sample_ends = &ends[..ends.len().min(4096)];
    let ns = sample(|| {
        let span = tracer.open(true, "kwise.bitfam", None, PROBE_TRACE);
        let mut ones = 0u64;
        for j in 0..family.len() {
            for &v in sample_ends {
                ones += u64::from(family.eval(j, u64::from(v)));
            }
        }
        black_box(ones);
        tracer.close(span, None) * 1e9 / (family.len() * sample_ends.len()) as f64
    });
    out.set_time("kwise.bitfam.ns_per_eval", ns);

    let f = FourWise::new(29);
    let ns = sample(|| {
        let span = tracer.open(true, "kwise.fourwise", None, PROBE_TRACE);
        let mut acc = 0u64;
        for _ in 0..16 {
            for &v in black_box(&ends) {
                acc ^= f.eval(u64::from(v));
            }
        }
        black_box(acc);
        tracer.close(span, None) * 1e9 / (16 * ends.len()) as f64
    });
    out.set_time("kwise.fourwise.ns_per_eval", ns);
}

/// `ExtGraph::load`, the uncharged input step every job starts with.
fn input_load(w: &Workload, graph: &Graph, tracer: &mut Tracer, out: &mut ProbeResults) {
    let mut load_ok = true;
    let ns = sample(|| {
        let machine = Machine::with_backend(w.config(), w.backend);
        let span = tracer.open(true, "core.input.load", None, PROBE_TRACE);
        let before = machine.stats();
        let ext = ExtGraph::load(&machine, graph);
        let d = delta(&machine, &before);
        let secs = tracer.close(span, Some(d));
        load_ok &= ext.edge_count() == graph.edge_count();
        secs * 1e9 / graph.edge_count().max(1) as f64
    });
    out.check(load_ok, "ExtGraph::load keeps every edge");
    out.set_time("core.input.load_ns_per_edge", ns);
}

/// The disk plane on its own: `BufferPool` misses served by `DiskStorage`,
/// and one whole job on a caller-built disk machine, whose real device
/// transfers must equal its charged ones.
fn disk_plane(w: &Workload, graph: &Graph, tracer: &mut Tracer, out: &mut ProbeResults) {
    let cfg = w.config();
    let b = cfg.block_words;
    let blocks = 4 * cfg.frames() as u64;
    let mut pool_ok = true;
    let ns = sample(|| {
        let mut dev = DiskStorage::create(b).expect("the benchmark's temp directory is writable");
        let mut pool = BufferPool::new(cfg.frames(), b);
        for key in 0..blocks {
            pool.access(key, true, true, &mut dev);
            pool.set_word(key, 0, key);
        }
        // One full cycle evicts (writes back) every dirty frame first.
        for key in 0..blocks {
            pool.access(key, false, false, &mut dev);
        }
        let before = dev.counters();
        let span = tracer.open(true, "emsim.disk.miss", None, PROBE_TRACE);
        for _ in 0..2 {
            for key in 0..blocks {
                pool.access(key, false, false, &mut dev);
                pool_ok &= pool.word(key, 0) == key;
            }
        }
        let real = dev.counters().total() - before.total();
        tracer.close(span, None) * 1e9 / real.max(1) as f64
    });
    out.check(
        pool_ok,
        "BufferPool returns the words written through DiskStorage",
    );
    out.set_time("emsim.disk.miss_ns_per_transfer", ns);

    let machine = Machine::with_backend(cfg, BackendKind::Disk);
    let mut sink = CountingSink::new();
    let span = tracer.open(true, "core.enumerate.disk_p1", None, PROBE_TRACE);
    let before = machine.stats();
    enumerate_triangles_on(&machine, graph, w.algorithm(0), &mut sink);
    let d = delta(&machine, &before);
    tracer.close(span, Some(d));
    out.check(
        sink.checksum() == naive::triangle_checksum(graph),
        "disk-plane job matches the oracle",
    );
    let real = machine.disk_counters().map_or(0, |c| c.total());
    out.set(
        "emsim.disk.real_per_charged",
        ratio(real as f64, machine.io().total() as f64),
    );
    out.retry_io += machine.stats().retry_io;
}
