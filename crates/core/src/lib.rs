//! # trienum — I/O-efficient triangle enumeration
//!
//! A from-scratch Rust reproduction of
//! **Pagh & Silvestri, "The Input/Output Complexity of Triangle Enumeration"
//! (PODS 2014)**: the cache-aware randomized algorithm, the cache-oblivious
//! randomized algorithm, the deterministic (derandomized) cache-aware
//! algorithm — all achieving `O(E^{3/2}/(√M·B))` I/Os — together with the
//! matching lower bound of Theorem 3 and the baselines the paper compares
//! against (block-nested-loop join, Dementiev's sort-based algorithm,
//! Hu–Tao–Chung).
//!
//! Everything runs on the external-memory simulator of the [`emsim`] crate,
//! so every block transfer is counted exactly and the paper's bounds can be
//! validated empirically (see the `trienum-bench` crate and EXPERIMENTS.md).
//!
//! ## Quick start
//!
//! ```
//! use emsim::EmConfig;
//! use graphgen::generators;
//! use trienum::{enumerate_triangles, Algorithm, CountingSink};
//!
//! let graph = generators::erdos_renyi(500, 3_000, 42);
//! let cfg = EmConfig::new(1 << 12, 128); // M = 4096 words, B = 128 words
//! let mut sink = CountingSink::new();
//! let report = enumerate_triangles(
//!     &graph,
//!     Algorithm::CacheObliviousRandomized { seed: 7 },
//!     cfg,
//!     &mut sink,
//! );
//! assert_eq!(report.triangles, sink.count());
//! println!("{} triangles using {}", report.triangles, report.io);
//! ```
//!
//! ## Sharding and crash recovery
//!
//! Each paper driver numbers its independent pieces as one deterministic
//! work-unit stream ([`workunit`]). [`enumerate_triangles_sharded`] deals
//! that stream out to `P` worker machines; [`enumerate_triangles_with_recovery`]
//! checkpoints its done prefix ([`checkpoint`]) and [`resume_enumeration`]
//! continues a crashed run after it, for all three paper drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod cache_aware;
mod cache_oblivious;
pub mod checkpoint;
mod derandomized;
mod input;
mod lemma1;
mod lemma2;
pub mod lower_bound;
mod partition;
mod potential;
mod sink;
mod stats;
mod util;
pub mod workunit;

pub use cache_aware::measure_random_coloring_balance;
pub use checkpoint::{Checkpoint, CheckpointSpec};
pub use input::ExtGraph;
pub use sink::{CollectingSink, CountingSink, DurableSink, FnSink, StrictSink, TriangleSink};
pub use stats::RunReport;
pub use workunit::{
    enumerate_triangles_sharded, ShardConfigError, ShardPlan, ShardedReport, WorkUnit, WorkUnitKind,
};

// Re-export the configuration and machine types so downstream users need
// only this crate (the machine is part of the public API of the crash-safe
// entry points, which accept a caller-built — possibly fault-injected —
// machine).
pub use emsim::{BackendKind, EmConfig, Machine};

use graphgen::Graph;
use stats::PhaseRecorder;
use workunit::ShardCursor;

/// The triangle-enumeration algorithms available in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Section 2 / Theorem 4: cache-aware randomized colouring algorithm,
    /// `O(E^{3/2}/(√M·B))` expected I/Os.
    CacheAwareRandomized {
        /// Seed of the 4-wise independent colouring.
        seed: u64,
    },
    /// Section 3 / Theorem 1: cache-oblivious randomized algorithm,
    /// `O(E^{3/2}/(√M·B))` expected I/Os without knowing `M` or `B`.
    CacheObliviousRandomized {
        /// Seed of the per-level refinement bits.
        seed: u64,
    },
    /// Section 4 / Theorem 2: deterministic cache-aware algorithm,
    /// `O(E^{3/2}/(√M·B))` worst-case I/Os assuming `M ≥ E^ε`.
    DeterministicCacheAware {
        /// Seed used to generate the candidate family (the run is fully
        /// deterministic given the seed).
        family_seed: u64,
        /// Optional override of the per-level candidate-family size.
        candidates: Option<usize>,
    },
    /// Baseline: Hu–Tao–Chung (SIGMOD 2013), `O(E²/(M·B))` I/Os.
    HuTaoChung,
    /// Baseline: Dementiev's sort-based algorithm, `O(sort(E^{3/2}))` I/Os.
    SortBased,
    /// Baseline: pipelined block-nested-loop join, `O(E³/(M²·B))` I/Os.
    BlockNestedLoop,
}

impl Algorithm {
    /// A short human-readable name (used in reports and experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::CacheAwareRandomized { .. } => "cache-aware-randomized",
            Algorithm::CacheObliviousRandomized { .. } => "cache-oblivious",
            Algorithm::DeterministicCacheAware { .. } => "deterministic-cache-aware",
            Algorithm::HuTaoChung => "hu-tao-chung",
            Algorithm::SortBased => "sort-based (Dementiev)",
            Algorithm::BlockNestedLoop => "block-nested-loop",
        }
    }

    /// Whether this is one of the paper's own algorithms (as opposed to a
    /// baseline).
    pub fn is_paper_algorithm(&self) -> bool {
        matches!(
            self,
            Algorithm::CacheAwareRandomized { .. }
                | Algorithm::CacheObliviousRandomized { .. }
                | Algorithm::DeterministicCacheAware { .. }
        )
    }

    /// The analytic I/O bound of this algorithm for `e` edges under `cfg`
    /// (the reference curve the experiments normalise against).
    pub fn analytic_bound(&self, cfg: EmConfig, e: usize) -> f64 {
        match self {
            Algorithm::CacheAwareRandomized { .. }
            | Algorithm::CacheObliviousRandomized { .. }
            | Algorithm::DeterministicCacheAware { .. } => cfg.triangle_bound(e),
            Algorithm::HuTaoChung => cfg.hu_tao_chung_bound(e),
            Algorithm::SortBased => cfg.sort_cost(((e as f64).powf(1.5)) as usize) as f64,
            Algorithm::BlockNestedLoop => {
                let e = e as f64;
                e * e * e / (cfg.mem_words as f64 * cfg.mem_words as f64 * cfg.block_words as f64)
            }
        }
    }
}

/// All algorithms, in the order the experiment tables list them.
pub const ALL_ALGORITHMS: [Algorithm; 6] = [
    Algorithm::CacheAwareRandomized { seed: 0xC0FFEE },
    Algorithm::CacheObliviousRandomized { seed: 0xC0FFEE },
    Algorithm::DeterministicCacheAware {
        family_seed: 0xC0FFEE,
        candidates: None,
    },
    Algorithm::HuTaoChung,
    Algorithm::SortBased,
    Algorithm::BlockNestedLoop,
];

/// Enumerates every triangle of `graph` with the chosen `algorithm` on a
/// simulated external-memory machine configured by `cfg`, forwarding each
/// triangle (in the caller's original vertex ids) to `sink` exactly once.
///
/// Returns a [`RunReport`] with the exact I/O count, per-phase attribution,
/// peak memory and disk usage, and work counter for the run. Loading the
/// input onto the simulated disk is *not* charged to the algorithm (the
/// model assumes the input already resides in external memory), but all
/// I/Os from the first block read onwards are.
pub fn enumerate_triangles(
    graph: &Graph,
    algorithm: Algorithm,
    cfg: EmConfig,
    sink: &mut dyn TriangleSink,
) -> RunReport {
    enumerate_triangles_on(&Machine::new(cfg), graph, algorithm, sink)
}

/// Enumerates every triangle of `graph` on a *caller-built* machine — the
/// entry point for backend selection: pass a machine from
/// [`Machine::with_backend`]`(cfg, `[`BackendKind::Disk`]`)` to run the
/// identical algorithm genuinely out-of-core (payloads in a real temp file
/// behind a buffer pool), with the gauge API and charge accounting
/// unchanged. The report counts the same charged transfers on either
/// backend; `machine.disk_counters()` afterwards exposes the *real* block
/// I/O the run performed.
pub fn enumerate_triangles_on(
    machine: &Machine,
    graph: &Graph,
    algorithm: Algorithm,
    sink: &mut dyn TriangleSink,
) -> RunReport {
    let ext = ExtGraph::load(machine, graph);
    run_measured(&ext, algorithm, &mut ShardCursor::solo(&ext, sink))
}

/// Convenience wrapper: enumerate and return only the triangle count and the
/// run report (using an internal [`CountingSink`]).
pub fn count_triangles(graph: &Graph, algorithm: Algorithm, cfg: EmConfig) -> (u64, RunReport) {
    let mut sink = CountingSink::new();
    let report = enumerate_triangles(graph, algorithm, cfg, &mut sink);
    (sink.count(), report)
}

/// Crash-safe enumeration on a caller-built machine.
///
/// Unlike [`enumerate_triangles`], the machine is supplied by the caller —
/// typically [`Machine::with_faults`] under a chaos harness — and emissions
/// reach `sink` only at checkpoint boundaries (and at successful
/// completion), buffered through a [`DurableSink`]. When `spec` is `Some`,
/// a run of one of the paper's three drivers atomically writes its done
/// unit prefix to `spec.path` at the first unit claim after every
/// `spec.interval_io` simulated I/Os (see [`checkpoint`]); a later
/// [`resume_enumeration`] against that file (same `graph`, `algorithm` and
/// configuration, on a fresh machine) delivers exactly the remaining
/// triangles. Baselines have no work units: they never checkpoint, and a
/// crashed baseline run is rerun from scratch.
///
/// A `CrashAt` fault surfaces as a panic carrying [`emsim::CrashPoint`];
/// the harness catches it, discards the dead machine (uncommitted buffered
/// emissions die with this call's stack), and resumes.
pub fn enumerate_triangles_with_recovery(
    graph: &Graph,
    machine: &Machine,
    algorithm: Algorithm,
    sink: &mut dyn TriangleSink,
    spec: Option<&CheckpointSpec>,
) -> RunReport {
    run_recoverable(graph, machine, algorithm, sink, spec, None)
}

/// Resumes a crashed [`enumerate_triangles_with_recovery`] run from its last
/// checkpoint, on a fresh `machine`. `sink` must be the same sink (or one
/// holding the same state) the crashed run committed into: the checkpoint's
/// high-water mark says how many triangles it already holds, and the resumed
/// run — the same driver with every unit of the done prefix disowned —
/// delivers exactly the remainder. Passing `spec` keeps checkpointing armed
/// across the resume, so repeated crashes stay recoverable.
///
/// # Panics
///
/// Panics if `checkpoint` was not taken by a run of `algorithm` on `graph`
/// under this machine's configuration (the same algorithm and seed(s), edge
/// count, `M` and `B`): a unit prefix of any other run means nothing.
pub fn resume_enumeration(
    graph: &Graph,
    machine: &Machine,
    algorithm: Algorithm,
    checkpoint: &Checkpoint,
    sink: &mut dyn TriangleSink,
    spec: Option<&CheckpointSpec>,
) -> RunReport {
    run_recoverable(graph, machine, algorithm, sink, spec, Some(checkpoint))
}

fn run_recoverable(
    graph: &Graph,
    machine: &Machine,
    algorithm: Algorithm,
    sink: &mut dyn TriangleSink,
    spec: Option<&CheckpointSpec>,
    resume: Option<&Checkpoint>,
) -> RunReport {
    let ext = ExtGraph::load(machine, graph);
    if let Some(ck) = resume {
        if let Err(e) = ck.check_run(algorithm, ext.edge_count(), machine.config()) {
            panic!("cannot resume: {e}");
        }
    }
    let mut durable = DurableSink::resume_from(sink, resume.map_or(0, |c| c.hwm));
    let report = {
        let mut cursor = ShardCursor::recoverable(&ext, &mut durable, algorithm, resume, spec);
        run_measured(&ext, algorithm, &mut cursor)
    };
    // The run completed: deliver the tail buffered since the last
    // checkpoint. (On a crash this line is never reached and the tail dies
    // with the buffer — exactly what resume replays.)
    durable.commit();
    debug_assert_eq!(durable.committed(), report.triangles);
    report
}

/// The one measured run every entry point shares: starts from a cold cache
/// and clean counters (the graph load is excluded, as in the model), runs
/// `algorithm` under `cursor`, and reports what the run cost.
pub(crate) fn run_measured(
    ext: &ExtGraph,
    algorithm: Algorithm,
    cursor: &mut ShardCursor<'_>,
) -> RunReport {
    let machine = ext.machine();
    machine.cold_cache();
    machine.gauge().reset_peak();
    let before = machine.stats();

    let mut recorder = PhaseRecorder::new(machine.gauge());
    let mut extra = run_algorithm(ext, algorithm, &mut recorder, cursor);

    let after = machine.stats();
    let delta = after.since(&before);
    extra.push(("retry_io".into(), delta.retry_io as f64));
    extra.push(("retry_work".into(), delta.retry_work as f64));
    let (phases, phase_peaks) = recorder.into_parts();
    RunReport {
        algorithm: algorithm.name().to_string(),
        config: machine.config(),
        edges: ext.edge_count(),
        vertices: ext.vertex_count(),
        triangles: cursor.emitted(),
        io: delta.io,
        phases,
        phase_peaks,
        peak_mem_words: after.peak_mem_words,
        peak_disk_words: after.peak_disk_words,
        work_ops: delta.work_ops,
        extra,
    }
}

/// The one algorithm dispatch: runs `algorithm` with `cursor` as its unit
/// stream and output, and returns the algorithm-specific report rows.
fn run_algorithm(
    ext: &ExtGraph,
    algorithm: Algorithm,
    recorder: &mut PhaseRecorder,
    cursor: &mut ShardCursor<'_>,
) -> Vec<(String, f64)> {
    let machine = ext.machine();
    let cfg = machine.config();
    let io0 = machine.io();
    match algorithm {
        Algorithm::CacheAwareRandomized { seed } => {
            let out = cache_aware::run_cache_aware_randomized(ext, cfg, seed, recorder, cursor);
            rows([
                ("colors", out.colors as f64),
                ("x_statistic", out.x_statistic as f64),
                ("high_degree_vertices", out.high_degree_vertices as f64),
                ("step3_chunk_passes", out.step3_chunk_passes as f64),
            ])
        }
        Algorithm::DeterministicCacheAware {
            family_seed,
            candidates,
        } => {
            let (out, info) =
                derandomized::run_derandomized(ext, cfg, family_seed, candidates, recorder, cursor);
            rows([
                ("colors", info.colors as f64),
                ("x_statistic", out.x_statistic as f64),
                ("greedy_levels", info.levels as f64),
                ("candidates_per_level", info.candidates as f64),
                ("step3_chunk_passes", out.step3_chunk_passes as f64),
            ])
        }
        Algorithm::CacheObliviousRandomized { seed } => {
            let stats = cache_oblivious::run_cache_oblivious(ext, seed, recorder, cursor);
            rows([
                ("subproblems", stats.subproblems as f64),
                ("max_recursion_depth", stats.max_depth as f64),
                (
                    "high_degree_truncations",
                    stats.high_degree_truncations as f64,
                ),
                ("partition_sweeps", stats.partition_sweeps as f64),
            ])
        }
        Algorithm::HuTaoChung => {
            baselines::hu_tao_chung::run_hu_tao_chung(ext, cfg, cursor);
            recorder.record("pivot_join", io0, machine.io());
            rows([])
        }
        Algorithm::SortBased => {
            baselines::dementiev::sort_based_enumeration(
                ext.edges(),
                util::SortKind::Aware,
                |_| true,
                cursor,
            );
            recorder.record("wedge_sort_join", io0, machine.io());
            rows([])
        }
        Algorithm::BlockNestedLoop => {
            baselines::nested_loop::run_block_nested_loop(ext, cfg, cursor);
            recorder.record("nested_loops", io0, machine.io());
            rows([])
        }
    }
}

/// Named report rows.
fn rows<const N: usize>(pairs: [(&str, f64); N]) -> Vec<(String, f64)> {
    // emlint: allow(unleased, reason = "run-report bookkeeping outside the measured region, not algorithm memory")
    pairs
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generators, naive};

    #[test]
    fn every_algorithm_agrees_with_the_oracle() {
        let g = generators::erdos_renyi(100, 700, 99);
        let expected = naive::count_triangles(&g);
        let cfg = EmConfig::new(512, 32);
        for alg in ALL_ALGORITHMS {
            let (n, report) = count_triangles(&g, alg, cfg);
            assert_eq!(n, expected, "{}", alg.name());
            assert_eq!(report.triangles, expected, "{}", alg.name());
            assert!(report.io.total() > 0, "{} did no I/O?", alg.name());
        }
    }

    #[test]
    fn emitted_triangles_are_the_oracle_set_in_original_ids() {
        let g = generators::chung_lu_power_law(200, 900, 2.4, 17);
        let expected: std::collections::HashSet<_> =
            naive::enumerate_triangles(&g).into_iter().collect();
        let cfg = EmConfig::new(512, 32);
        for alg in [
            Algorithm::CacheAwareRandomized { seed: 5 },
            Algorithm::CacheObliviousRandomized { seed: 5 },
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(16),
            },
        ] {
            let mut sink = CollectingSink::new();
            enumerate_triangles(&g, alg, cfg, &mut sink);
            let got: std::collections::HashSet<_> = sink.triangles().iter().copied().collect();
            assert_eq!(got.len(), sink.len(), "{}: duplicate emissions", alg.name());
            assert_eq!(got, expected, "{}", alg.name());
        }
    }

    #[test]
    fn report_contains_phases_and_extras() {
        let g = generators::erdos_renyi(200, 1500, 1);
        let cfg = EmConfig::new(512, 32);
        let (_, report) = count_triangles(&g, Algorithm::CacheAwareRandomized { seed: 1 }, cfg);
        assert!(report.phase_io("step3_color_triples").is_some());
        assert!(report.extra("x_statistic").is_some());
        assert!(
            report.extra("step3_chunk_passes").unwrap_or(0.0) >= 1.0,
            "the adaptive Lemma 2 pass counter must be surfaced"
        );
        assert!(report.peak_disk_words >= report.edges as u64);
        assert!(report.work_ops > 0);
    }

    #[test]
    fn analytic_bounds_order_matches_theory_when_memory_is_scarce() {
        let cfg = EmConfig::new(1 << 10, 64);
        let e = 1 << 18;
        let paper = Algorithm::CacheAwareRandomized { seed: 0 }.analytic_bound(cfg, e);
        let hu = Algorithm::HuTaoChung.analytic_bound(cfg, e);
        let bnl = Algorithm::BlockNestedLoop.analytic_bound(cfg, e);
        assert!(paper < hu);
        assert!(hu < bnl);
    }

    /// The paper's three drivers, each with its work-unit stream.
    fn paper_drivers(seed: u64) -> [Algorithm; 3] {
        [
            Algorithm::CacheAwareRandomized { seed },
            Algorithm::CacheObliviousRandomized { seed },
            Algorithm::DeterministicCacheAware {
                family_seed: seed,
                candidates: Some(12),
            },
        ]
    }

    /// A per-test, per-process scratch directory for checkpoint files.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("trienum-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recovery_entry_point_on_a_healthy_machine_matches_the_plain_run_exactly() {
        // The fault/checkpoint layer is pay-for-what-you-use: with no fault
        // plan and no checkpoint spec, the crash-safe entry point must
        // reproduce the ordinary run's triangles, I/O and work to the digit.
        let g = generators::erdos_renyi(150, 1100, 12);
        let cfg = EmConfig::new(512, 32);
        for alg in paper_drivers(6) {
            let mut plain_sink = CollectingSink::new();
            let plain = enumerate_triangles(&g, alg, cfg, &mut plain_sink);
            let machine = Machine::new(cfg);
            let mut safe_sink = CollectingSink::new();
            let safe = enumerate_triangles_with_recovery(&g, &machine, alg, &mut safe_sink, None);
            assert_eq!(plain.triangles, safe.triangles, "{alg:?}");
            assert_eq!(plain.io, safe.io, "{alg:?}");
            assert_eq!(plain.work_ops, safe.work_ops, "{alg:?}");
            assert_eq!(plain.peak_disk_words, safe.peak_disk_words, "{alg:?}");
            assert_eq!(plain_sink.triangles(), safe_sink.triangles(), "{alg:?}");
            assert_eq!(safe.extra("retry_io"), Some(0.0));
            assert_eq!(safe.extra("retry_work"), Some(0.0));
        }
    }

    #[test]
    fn checkpointed_run_is_bit_identical_to_a_plain_run() {
        // Arming checkpoints must not change the emission sequence, the I/O
        // count or the work count — a checkpoint is a host-side write of two
        // counters at a unit claim.
        let g = generators::erdos_renyi(200, 1600, 21);
        let cfg = EmConfig::new(256, 32);
        let dir = scratch_dir("ckpt-bitident");
        for alg in paper_drivers(9) {
            let spec = CheckpointSpec {
                path: dir.join(format!("{}.ckpt", alg.name())),
                interval_io: 40,
            };
            let run = |spec: Option<&CheckpointSpec>| {
                let machine = Machine::new(cfg);
                let mut sink = CollectingSink::new();
                let report = enumerate_triangles_with_recovery(&g, &machine, alg, &mut sink, spec);
                (
                    report.triangles,
                    sink.into_triangles(),
                    report.io,
                    report.work_ops,
                )
            };
            let plain = run(None);
            let armed = run(Some(&spec));
            assert_eq!(plain, armed, "{alg:?}");
            // The interval was small enough that a checkpoint landed past
            // the first unit.
            let ck = Checkpoint::load(&spec.path).expect("a checkpoint was written");
            assert_eq!(ck.check_run(alg, 1600, cfg), Ok(()));
            assert!(ck.units_done >= 1, "{alg:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_a_mid_run_checkpoint_completes_the_exact_multiset() {
        // Crash each driver at the midpoint of its unit phase, resume from
        // the last checkpoint on a fresh machine (crashing again until a
        // resume completes), and require the union of committed triangles to
        // be the oracle set, each exactly once.
        use emsim::{CrashPoint, FaultPlan};

        let g = generators::erdos_renyi(160, 1400, 33);
        let cfg = EmConfig::new(256, 32);
        let mut expected = graphgen::naive::enumerate_triangles(&g);
        expected.sort_unstable();
        let dir = scratch_dir("ckpt-resume");
        for alg in paper_drivers(4) {
            let probe = Machine::new(cfg);
            let report = enumerate_triangles_on(&probe, &g, alg, &mut CountingSink::new());
            // CrashAt counts logical transfers from machine creation, so aim
            // the kill switch past the load preamble, at the midpoint of the
            // phase that claims the units (the cache-aware drivers replicate
            // their colouring and partition phases before any unit).
            let preamble = probe.transfers() - report.io.total();
            let unit_phase = match alg {
                Algorithm::CacheObliviousRandomized { .. } => "recursion",
                _ => "step3_color_triples",
            };
            let phase_start: u64 = report
                .phases
                .iter()
                .take_while(|(name, _)| name != unit_phase)
                .map(|(_, io)| io.total())
                .sum();
            let phase_io = report.phase_io(unit_phase).expect("unit phase").total();
            let crash_at = preamble + phase_start + phase_io / 2;
            let spec = CheckpointSpec {
                path: dir.join(format!("{}.ckpt", alg.name())),
                interval_io: 30,
            };

            // Every attempt keeps checkpointing armed and dies at the same
            // transfer ordinal, so each resume — shorter by its disowned
            // prefix — crashes further into the unit stream until one
            // completes.
            let mut collected = CollectingSink::new();
            let mut last: Option<Checkpoint> = None;
            let mut crashes = 0;
            let (resumed, machine) = loop {
                let machine = Machine::with_faults(cfg, FaultPlan::new(1).with_crash_at(crash_at));
                let attempt =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &last {
                        None => enumerate_triangles_with_recovery(
                            &g,
                            &machine,
                            alg,
                            &mut collected,
                            Some(&spec),
                        ),
                        Some(ck) => {
                            resume_enumeration(&g, &machine, alg, ck, &mut collected, Some(&spec))
                        }
                    }));
                let payload = match attempt {
                    Ok(report) => break (report, machine),
                    Err(payload) => payload,
                };
                assert!(payload.downcast_ref::<CrashPoint>().is_some());
                crashes += 1;
                let ck = Checkpoint::load(&spec.path).expect("a checkpoint survived the crash");
                assert_eq!(
                    ck.hwm,
                    collected.len() as u64,
                    "{alg:?}: hwm != committed count"
                );
                assert!(
                    ck.units_done > last.as_ref().map_or(0, |c| c.units_done),
                    "{alg:?}: a crash made no progress past the previous checkpoint"
                );
                assert!(
                    ck.hwm < report.triangles,
                    "{alg:?}: the crash must interrupt mid-run"
                );
                last = Some(ck);
            };
            assert!(crashes >= 2, "{alg:?}: an armed resume must crash too");
            assert_eq!(resumed.triangles, report.triangles, "{alg:?}");
            assert!(
                resumed.io.total() < report.io.total(),
                "{alg:?}: resume redid the prefix"
            );
            let mut got = collected.into_triangles();
            got.sort_unstable();
            assert_eq!(
                got, expected,
                "{alg:?}: not the oracle multiset exactly once"
            );
            assert_eq!(machine.gauge().in_use(), 0, "no leaked leases after resume");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn algorithm_names_are_distinct() {
        let names: std::collections::HashSet<_> = ALL_ALGORITHMS.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), ALL_ALGORITHMS.len());
        assert!(Algorithm::CacheObliviousRandomized { seed: 1 }.is_paper_algorithm());
        assert!(!Algorithm::HuTaoChung.is_paper_algorithm());
    }
}
