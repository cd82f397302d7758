//! # trienum-bench — the experiment harness
//!
//! The paper is a theory paper with no measured tables or figures; the
//! "evaluation" this crate reproduces is therefore the set of quantitative
//! claims made by its theorems (see EXPERIMENTS.md). Each experiment is a
//! function returning printable rows, which the `reproduce` binary (`cargo
//! run --release -p trienum-bench --bin reproduce`) prints and records to
//! regenerate every table in EXPERIMENTS.md. Host wall-clock time is
//! measured by the separate `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emsim::{
    BackendKind, CrashPoint, EmConfig, FaultEvent, FaultPlan, Machine, PhaseSnapshot, RetryPolicy,
};
use graphgen::{generators, naive, Graph};
use trienum::checkpoint::atomic_write;
use trienum::lower_bound::LowerBound;
use trienum::{
    count_triangles, enumerate_triangles, enumerate_triangles_on, enumerate_triangles_sharded,
    enumerate_triangles_with_recovery, measure_random_coloring_balance, resume_enumeration,
    Algorithm, Checkpoint, CheckpointSpec, CollectingSink, ExtGraph, RunReport, ShardPlan,
};

/// One row of an experiment table: a label plus named numeric columns.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. the parameter value it corresponds to).
    pub label: String,
    /// `(column name, value)` pairs, in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a column.
    pub fn col(mut self, name: &str, value: f64) -> Self {
        self.values.push((name.to_string(), value));
        self
    }
}

/// Per-phase peak gauge usage of one run — the dynamic half of the charge
/// accounting. Serialised into the `BENCH_E<k>.json` records (E2, E3, E7)
/// so CI can diff how many working-buffer words each phase had resident at
/// its worst, not just the run-wide maximum.
#[derive(Debug, Clone)]
pub struct PhasePeakRow {
    /// Which run the peaks belong to (same label style as [`Row`]).
    pub case: String,
    /// Declared per-phase budget in words; `None` for ungated baseline runs.
    pub budget_words: Option<u64>,
    /// The gauge snapshots, in phase execution order.
    pub phases: Vec<PhaseSnapshot>,
}

impl PhasePeakRow {
    /// Captures `report`'s phase peaks under `case`, gated by `budget_words`.
    pub fn of(case: impl Into<String>, report: &RunReport, budget_words: Option<u64>) -> Self {
        Self {
            case: case.into(),
            budget_words,
            phases: report.phase_peaks.clone(),
        }
    }
}

/// Per-phase gauge budget for the cache-aware algorithms: the same `2M`
/// slack the whole-run peak assertions in the test-suite allow (the paper's
/// `O(M)` with a small constant).
pub fn cache_aware_phase_budget(cfg: EmConfig) -> u64 {
    2 * cfg.mem_words as u64
}

/// Per-phase gauge budget for the cache-oblivious algorithm, in **words per
/// edge**. The algorithm never reads `M`, so its resident footprint is a
/// function of `E` alone and the budget must be too.
///
/// Recorded 2026-08-08 when the per-phase snapshots were introduced. The
/// `recursion` phase dominates: 1.14 words/edge at `E = 4000` and 0.97 at
/// `E = 12000` (falling with `E`), almost all of it the memoised colour
/// bits (`bit_cache_lease`) plus one subproblem's edge list; `root_sort`
/// peaks at 0 (the pre-sorted input takes the early exit without leasing)
/// and `leaf_batch` only carries the memo words forward. A regression that
/// holds a whole level of the recursion tree resident (the failure mode the
/// depth-first order exists to avoid) costs a multiple of this and trips
/// the gate immediately, while honest noise has ≥ 30% headroom at the
/// `--quick` size.
pub const CACHE_OBLIVIOUS_PHASE_PEAK_PER_EDGE: f64 = 1.5;

/// The cache-oblivious per-phase budget for an `E`-edge input, in words.
pub fn cache_oblivious_phase_budget(e: usize) -> u64 {
    (CACHE_OBLIVIOUS_PHASE_PEAK_PER_EDGE * e as f64) as u64
}

/// Checks every gated [`PhasePeakRow`] against its declared budget; returns
/// a description of the first offending phase, if any.
pub fn check_phase_peak_budgets(peaks: &[PhasePeakRow]) -> Result<(), String> {
    for row in peaks {
        let Some(budget) = row.budget_words else {
            continue;
        };
        for p in &row.phases {
            if p.peak_words > budget {
                return Err(format!(
                    "run '{}' phase '{}': peak {} words exceeds the declared budget of \
                     {budget} words",
                    row.case, p.name, p.peak_words
                ));
            }
        }
    }
    Ok(())
}

/// Renders per-phase peak rows as an aligned text table.
pub fn render_phase_peaks(title: &str, peaks: &[PhasePeakRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>24} {:>12} {:>12} {:>12}\n",
        "case", "phase", "peak_w", "live_w", "budget_w"
    ));
    for row in peaks {
        let budget = row
            .budget_words
            .map_or_else(|| "-".to_string(), |b| b.to_string());
        for p in &row.phases {
            out.push_str(&format!(
                "{:<28} {:>24} {:>12} {:>12} {:>12}\n",
                row.case, p.name, p.peak_words, p.live_words, budget
            ));
        }
    }
    out
}

/// Renders rows as an aligned text table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let mut header = format!("{:<28}", "case");
    for (name, _) in &rows[0].values {
        header.push_str(&format!(" {name:>16}"));
    }
    out.push_str(&header);
    out.push('\n');
    for row in rows {
        let mut line = format!("{:<28}", row.label);
        for (_, v) in &row.values {
            if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                line.push_str(&format!(" {v:>16.3e}"));
            } else {
                line.push_str(&format!(" {v:>16.2}"));
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The default machine configuration used by the experiments
/// (`M = 2^12` words, `B = 64` words — a deliberately memory-starved machine
/// so `E/M` reaches interesting values at laptop scale).
pub fn default_config() -> EmConfig {
    EmConfig::new(1 << 12, 64)
}

/// The three paper algorithms with fixed seeds (experiments are reproducible).
pub fn paper_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::CacheAwareRandomized { seed: 0xA11CE },
        Algorithm::CacheObliviousRandomized { seed: 0xA11CE },
        Algorithm::DeterministicCacheAware {
            family_seed: 0xA11CE,
            candidates: Some(32),
        },
    ]
}

fn run(graph: &Graph, alg: Algorithm, cfg: EmConfig) -> RunReport {
    let (_, report) = count_triangles(graph, alg, cfg);
    report
}

/// **E1 — I/O scaling in `E`.** All algorithms on Erdős–Rényi graphs of
/// growing size at a fixed machine; reports raw I/Os and the I/O count
/// normalised by each algorithm's own analytic bound (flat ⇔ the bound's
/// shape is right).
pub fn experiment_e1(sizes: &[usize], include_cubic: bool) -> Vec<Row> {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 1);
        let mut algs = paper_algorithms();
        algs.push(Algorithm::HuTaoChung);
        algs.push(Algorithm::SortBased);
        if include_cubic && e <= 4_000 {
            algs.push(Algorithm::BlockNestedLoop);
        }
        for alg in algs {
            let r = run(&g, alg, cfg);
            rows.push(
                Row::new(format!("E={e} {}", alg.name()))
                    .col("io", r.io.total() as f64)
                    .col(
                        "io/own_bound",
                        r.io.total() as f64 / alg.analytic_bound(cfg, e).max(1.0),
                    )
                    .col("io/paper_bound", r.normalized_to_triangle_bound())
                    .col("triangles", r.triangles as f64),
            );
        }
    }
    rows
}

/// **E2 — improvement factor over Hu–Tao–Chung.** Sweeps `E/M` and reports
/// the measured I/O ratio (Hu et al. / cache-aware) against the paper's
/// predicted `min(√(E/M), √M)` improvement, plus the cache-aware I/O
/// normalised by the paper's `E^{3/2}/(√M·B)` bound (the column the
/// [`CACHE_AWARE_IO_CEILING`] gate watches).
pub fn experiment_e2(e_over_m: &[usize]) -> (Vec<Row>, Vec<PhasePeakRow>) {
    let mem = 512usize;
    let cfg = EmConfig::new(mem, 32);
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &ratio in e_over_m {
        let e = mem * ratio;
        let g = generators::erdos_renyi((e / 8).max(64), e, 2);
        let aware = run(&g, Algorithm::CacheAwareRandomized { seed: 3 }, cfg);
        let hu = run(&g, Algorithm::HuTaoChung, cfg);
        peaks.push(PhasePeakRow::of(
            format!("E/M={ratio} {}", aware.algorithm),
            &aware,
            Some(cache_aware_phase_budget(cfg)),
        ));
        peaks.push(PhasePeakRow::of(
            format!("E/M={ratio} {}", hu.algorithm),
            &hu,
            None,
        ));
        let predicted = (ratio as f64).sqrt().min((mem as f64).sqrt());
        rows.push(
            Row::new(format!("E/M={ratio}"))
                .col("aware_io", aware.io.total() as f64)
                .col(
                    "aware_io/bound",
                    aware.io.total() as f64 / cfg.triangle_bound(e).max(1.0),
                )
                .col("hu_io", hu.io.total() as f64)
                .col(
                    "measured_gain",
                    hu.io.total() as f64 / aware.io.total() as f64,
                )
                .col("predicted_gain", predicted),
        );
    }
    (rows, peaks)
}

/// **E3 — cache-obliviousness.** One fixed graph and one fixed algorithm
/// (which never reads `M`/`B`), swept across machine configurations; the
/// normalised I/O stays in a narrow band.
pub fn experiment_e3(e: usize, configs: &[(usize, usize)]) -> (Vec<Row>, Vec<PhasePeakRow>) {
    let g = generators::erdos_renyi(e / 8, e, 7);
    let alg = Algorithm::CacheObliviousRandomized { seed: 11 };
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &(m, b) in configs {
        let cfg = EmConfig::new(m, b);
        let r = run(&g, alg, cfg);
        peaks.push(PhasePeakRow::of(
            format!("M={m} B={b}"),
            &r,
            Some(cache_oblivious_phase_budget(e)),
        ));
        rows.push(
            Row::new(format!("M={m} B={b}"))
                .col("io", r.io.total() as f64)
                .col("bound", cfg.triangle_bound(e))
                .col("io/bound", r.normalized_to_triangle_bound())
                .col("subproblems", r.extra("subproblems").unwrap_or(0.0)),
        );
    }
    (rows, peaks)
}

/// **E4 — optimality against Theorem 3.** Cliques (the lower-bound witness,
/// `t = Θ(E^{3/2})`): measured I/Os versus the lower bound. A small memory
/// (`M = 512`) is used so that the graphs genuinely exceed the internal
/// memory and the witness term `t/(√M·B)` of the bound is the binding one.
pub fn experiment_e4(clique_sizes: &[usize]) -> Vec<Row> {
    let cfg = EmConfig::new(512, 32);
    let mut rows = Vec::new();
    for &n in clique_sizes {
        let g = generators::clique(n);
        for alg in paper_algorithms() {
            let r = run(&g, alg, cfg);
            let lb = LowerBound::for_triangles(cfg, r.triangles);
            rows.push(
                Row::new(format!("K{n} {}", alg.name()))
                    .col("triangles", r.triangles as f64)
                    .col("io", r.io.total() as f64)
                    .col("lower_bound", lb.sum())
                    .col("io/LB", r.io.total() as f64 / lb.sum().max(1.0)),
            );
        }
    }
    rows
}

/// **E5 — derandomization.** Colour-balance statistic `X_ξ` of the random
/// colouring (Lemma 3: `E[X_ξ] ≤ E·M`) versus the greedily derandomized
/// colouring (`X_ξ ≤ e·E·M`), and the I/O cost of the deterministic
/// algorithm versus the randomized one.
pub fn experiment_e5(sizes: &[usize]) -> Vec<Row> {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 4);
        // Average the random colouring balance over a few seeds.
        let machine = emsim::Machine::new(cfg);
        let ext = ExtGraph::load(&machine, &g);
        let mut x_random = 0f64;
        let seeds = 5;
        for s in 0..seeds {
            let (_, x) = measure_random_coloring_balance(&ext, cfg, s);
            x_random += x as f64 / seeds as f64;
        }
        let rand_run = run(&g, Algorithm::CacheAwareRandomized { seed: 5 }, cfg);
        let det_run = run(
            &g,
            Algorithm::DeterministicCacheAware {
                family_seed: 5,
                candidates: Some(32),
            },
            cfg,
        );
        let em = e as f64 * cfg.mem_words as f64;
        rows.push(
            Row::new(format!("E={e}"))
                .col("X_random(avg)", x_random)
                .col("X_derand", det_run.extra("x_statistic").unwrap_or(0.0))
                .col("E*M (Lemma3)", em)
                .col("e*E*M (Thm2)", std::f64::consts::E * em)
                .col("io_random", rand_run.io.total() as f64)
                .col("io_derand", det_run.io.total() as f64),
        );
    }
    rows
}

/// **E6 — the database join scenario.** Triangle enumeration of the
/// decomposed `Sells` relation is the three-way join; all algorithms produce
/// the same row count, and the winner ordering matches E1.
pub fn experiment_e6(groups: &[usize]) -> Vec<Row> {
    let cfg = default_config();
    let mut rows = Vec::new();
    for &k in groups {
        let (g, _, _) = generators::sells_join(600, 80, 160, k, 6, 9);
        let expected = naive::count_triangles(&g);
        for alg in [
            Algorithm::CacheAwareRandomized { seed: 2 },
            Algorithm::CacheObliviousRandomized { seed: 2 },
            Algorithm::HuTaoChung,
            Algorithm::SortBased,
        ] {
            let r = run(&g, alg, cfg);
            assert_eq!(
                r.triangles,
                expected,
                "join disagreement for {}",
                alg.name()
            );
            rows.push(
                Row::new(format!("groups={k} {}", alg.name()))
                    .col("edges", r.edges as f64)
                    .col("rows", r.triangles as f64)
                    .col("io", r.io.total() as f64)
                    .col("writes", r.io.writes as f64),
            );
        }
    }
    rows
}

/// **E7 — work optimality.** RAM-operation counts versus `E^{3/2}`.
pub fn experiment_e7(sizes: &[usize]) -> (Vec<Row>, Vec<PhasePeakRow>) {
    let cfg = default_config();
    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 6);
        for alg in paper_algorithms() {
            let r = run(&g, alg, cfg);
            let budget = if matches!(alg, Algorithm::CacheObliviousRandomized { .. }) {
                cache_oblivious_phase_budget(e)
            } else {
                cache_aware_phase_budget(cfg)
            };
            peaks.push(PhasePeakRow::of(
                format!("E={e} {}", alg.name()),
                &r,
                Some(budget),
            ));
            rows.push(
                Row::new(format!("E={e} {}", alg.name()))
                    .col("work_ops", r.work_ops as f64)
                    .col("E^1.5", (e as f64).powf(1.5))
                    .col("work/E^1.5", r.work_ratio()),
            );
        }
    }
    (rows, peaks)
}

/// Work-budget ceiling for the cache-oblivious algorithm: `reproduce` fails
/// (and CI with it) if any E7 row reports `work/E^{1.5}` above this value.
///
/// Recorded 2026-07-30 after the canonical-edge-list rewrite (PR 5):
/// measured ratios are 6.10 at `E = 4000` (the `--quick` size), 5.92 at
/// `E = 8000` and 4.55 at `E = 16000` — the ratio falls with `E`. The
/// PR 2–4 incidence-list implementation sat at 9.75–10.3 and the pre-PR 2
/// one at ≈ 52.7, so a regression to either (re-materialised reverse
/// orientations, per-leaf wedge sorts, per-child filter scans) trips the
/// gate immediately while leaving honest noise ~30% headroom.
pub const CACHE_OBLIVIOUS_WORK_CEILING: f64 = 8.0;

/// Checks an E7 table against [`CACHE_OBLIVIOUS_WORK_CEILING`]; returns a
/// description of the first offending row, if any.
pub fn check_e7_work_budget(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        if !row.label.contains("cache-oblivious") {
            continue;
        }
        let ratio = row
            .values
            .iter()
            .find(|(name, _)| name == "work/E^1.5")
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("row '{}' lacks a work/E^1.5 column", row.label))?;
        if ratio > CACHE_OBLIVIOUS_WORK_CEILING {
            return Err(format!(
                "row '{}': work/E^1.5 = {ratio:.2} exceeds the recorded ceiling \
                 {CACHE_OBLIVIOUS_WORK_CEILING}",
                row.label
            ));
        }
    }
    Ok(())
}

/// I/O-budget ceiling for the cache-oblivious algorithm on the E3 sweep:
/// `reproduce` fails (and CI with it) if any E3 row reports `io/bound`
/// (measured I/O over the paper's `E^{3/2}/(√M·B)`) above this value.
///
/// Recorded 2026-07-30 after the canonical-edge-list rewrite (PR 5): the
/// normalised I/O sits at 19.7–58.1 across the full `(M, B)` sweep at
/// `E = 12000` (worst row `M = 512, B = 32`) and at 15.8–37.4 on the
/// `--quick` sweep at `E = 4000`. The PR 2–4 incidence-list implementation
/// sat at 79.8–146.0, so a regression toward any of its removed costs (the
/// 2× reverse-orientation routing volume, the root sort, per-leaf wedge
/// files) trips the gate immediately while honest noise has ~12% headroom
/// above the worst recorded row.
pub const CACHE_OBLIVIOUS_IO_CEILING: f64 = 65.0;

/// Checks an E3 table against [`CACHE_OBLIVIOUS_IO_CEILING`]; returns a
/// description of the first offending row, if any.
pub fn check_e3_io_budget(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        let normalised = row
            .values
            .iter()
            .find(|(name, _)| name == "io/bound")
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("row '{}' lacks an io/bound column", row.label))?;
        if normalised > CACHE_OBLIVIOUS_IO_CEILING {
            return Err(format!(
                "row '{}': io/bound = {normalised:.2} exceeds the recorded ceiling \
                 {CACHE_OBLIVIOUS_IO_CEILING}",
                row.label
            ));
        }
    }
    Ok(())
}

/// I/O-budget ceiling for the cache-aware randomized algorithm on the E2
/// sweep: `reproduce` fails (and CI with it) if any E2 row reports
/// `aware_io / (E^{3/2}/(√M·B))` above this value, or a measured gain over
/// Hu–Tao–Chung below 1.0 at `E/M ≥` [`CACHE_AWARE_CROSSOVER_FROM`].
///
/// Recorded 2026-07-30 after the adaptive Lemma 2 chunking +
/// endpoint-range pruning rewrite: the normalised I/O sits at 12.1–14.7
/// across `E/M ∈ {4, …, 64}` and *falls* with `E/M` (the runs are fully
/// deterministic). The pivot-grouped-but-fixed-divisor implementation sat
/// at 21.2–23.6 and the per-triple loop before it at 36.7, so the ceiling
/// catches a regression toward either: a fixed `α = 1/8` chunk constant or
/// unpruned cone scans trips it immediately while honest noise has ~10%
/// headroom.
pub const CACHE_AWARE_IO_CEILING: f64 = 16.0;

/// The `E/M` ratio from which the measured gain over Hu–Tao–Chung must stay
/// ≥ 1.0. The adaptive-chunking sweep crosses over already at `E/M = 4`
/// (measured 1.12), but 4 leaves no noise margin, so the gate starts at 8
/// (measured 1.56).
pub const CACHE_AWARE_CROSSOVER_FROM: usize = 8;

/// Checks an E2 table against [`CACHE_AWARE_IO_CEILING`] (and the ≥ 1.0
/// crossover at `E/M ≥` [`CACHE_AWARE_CROSSOVER_FROM`]); returns a
/// description of the first offending row, if any.
pub fn check_e2_io_budget(rows: &[Row]) -> Result<(), String> {
    let value_of = |row: &Row, name: &str| -> Result<f64, String> {
        row.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("row '{}' lacks a {name} column", row.label))
    };
    for row in rows {
        let normalised = value_of(row, "aware_io/bound")?;
        if normalised > CACHE_AWARE_IO_CEILING {
            return Err(format!(
                "row '{}': aware_io/bound = {normalised:.2} exceeds the recorded ceiling \
                 {CACHE_AWARE_IO_CEILING}",
                row.label
            ));
        }
        let ratio: usize = row
            .label
            .strip_prefix("E/M=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("row '{}' has no E/M label", row.label))?;
        if ratio >= CACHE_AWARE_CROSSOVER_FROM {
            let gain = value_of(row, "measured_gain")?;
            if gain < 1.0 {
                return Err(format!(
                    "row '{}': measured gain {gain:.2} over Hu-Tao-Chung lost the crossover \
                     (must be >= 1.0 from E/M = {CACHE_AWARE_CROSSOVER_FROM} on)",
                    row.label
                ));
            }
        }
    }
    Ok(())
}

/// Outcome of one performance gate, as recorded in the machine-readable
/// per-experiment JSON (see [`experiment_record_json`]).
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Gate name (the ceiling constant it enforces).
    pub name: String,
    /// Whether the gate passed.
    pub passed: bool,
    /// The offending-row description on failure, or a short pass note.
    pub detail: String,
}

impl GateOutcome {
    /// Records a gate-check result under `name`.
    pub fn of(name: &str, result: &Result<(), String>) -> Self {
        Self {
            name: name.to_string(),
            passed: result.is_ok(),
            detail: match result {
                Ok(()) => "within ceiling".to_string(),
                Err(msg) => msg.clone(),
            },
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    // JSON has no NaN/Infinity; record them as null rather than emitting an
    // unparseable file.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one experiment's rows and gate verdicts as a JSON document — the
/// `BENCH_E<k>.json` record `reproduce --json <dir>` writes and CI uploads,
/// so the performance trajectory is machine-readable run over run. No
/// external serialisation crate is available offline, so the (flat,
/// escape-safe) document is written by hand.
pub fn experiment_record_json(
    experiment: &str,
    title: &str,
    rows: &[Row],
    phase_peaks: &[PhasePeakRow],
    gates: &[GateOutcome],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"experiment\": \"{}\",\n",
        json_escape(experiment)
    ));
    out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(title)));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"values\": {{",
            json_escape(&row.label)
        ));
        for (j, (name, value)) in row.values.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {}",
                json_escape(name),
                json_number(*value)
            ));
        }
        out.push_str(if i + 1 < rows.len() { "}},\n" } else { "}}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"phase_peaks\": [\n");
    for (i, row) in phase_peaks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"case\": \"{}\", \"budget_words\": {}, \"phases\": [",
            json_escape(&row.case),
            row.budget_words
                .map_or_else(|| "null".to_string(), |b| b.to_string())
        ));
        for (j, p) in row.phases.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"peak_words\": {}, \"live_words\": {}, \
                 \"live_leases\": {}}}",
                json_escape(&p.name),
                p.peak_words,
                p.live_words,
                p.live_leases.len()
            ));
        }
        out.push_str(if i + 1 < phase_peaks.len() {
            "]},\n"
        } else {
            "]}\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"gates\": [\n");
    for (i, gate) in gates.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}{}\n",
            json_escape(&gate.name),
            gate.passed,
            json_escape(&gate.detail),
            if i + 1 < gates.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `BENCH_E<k>.json` for one experiment into `dir` (creating it),
/// returning the path written.
pub fn write_experiment_record(
    dir: &std::path::Path,
    experiment: &str,
    title: &str,
    rows: &[Row],
    phase_peaks: &[PhasePeakRow],
    gates: &[GateOutcome],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", experiment.to_uppercase()));
    // Atomic (temp + rename): a crashed or killed `reproduce` run must never
    // leave a truncated half-record for CI to upload as if it were real.
    atomic_write(
        &path,
        experiment_record_json(experiment, title, rows, phase_peaks, gates).as_bytes(),
    )?;
    Ok(path)
}

/// **E8 — concentration of the colouring.** Monte-Carlo check of Lemma 3
/// (`E[X_ξ] ≤ E·M`) over many random 4-wise colourings.
pub fn experiment_e8(e: usize, trials: u64) -> Vec<Row> {
    let cfg = default_config();
    let g = generators::erdos_renyi(e / 8, e, 12);
    let machine = emsim::Machine::new(cfg);
    let ext = ExtGraph::load(&machine, &g);
    let mut xs = Vec::new();
    for s in 0..trials {
        let (_, x) = measure_random_coloring_balance(&ext, cfg, s);
        xs.push(x as f64);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let max = xs.iter().cloned().fold(0f64, f64::max);
    let bound = e as f64 * cfg.mem_words as f64;
    vec![Row::new(format!("E={e}, {trials} colourings"))
        .col("mean X", mean)
        .col("max X", max)
        .col("E*M bound", bound)
        .col("mean/bound", mean / bound)]
}

/// Transient-fault rates injected by the E9 chaos sweep, in ‰ per attempt.
///
/// High enough that every chaos run exercises the bounded-retry loop dozens
/// of times, low enough that exhausting the retry budget (the point where a
/// transient fault escalates to a permanent [`emsim::StorageError`] and
/// aborts the run) is effectively impossible: at 25‰ per attempt and six
/// attempts, `0.025^6 ≈ 2.4·10⁻¹⁰` per transfer.
pub const E9_READ_FAULT_PER_MILLE: u32 = 25;

/// Torn-write rate of the E9 sweep; see [`E9_READ_FAULT_PER_MILLE`].
pub const E9_TORN_WRITE_PER_MILLE: u32 = 20;

/// Retry policy of the E9 sweep: up to six attempts per transfer, simulated
/// exponential backoff starting at 8 work units.
pub fn e9_retry_policy() -> RetryPolicy {
    RetryPolicy::new(6, 8)
}

/// Ceiling on `retry_io / io` for every E9 run: the fraction of all charged
/// block transfers that were retry re-attempts. At the injected rates
/// ([`E9_READ_FAULT_PER_MILLE`], [`E9_TORN_WRITE_PER_MILLE`]) the expected
/// fraction is ≈ 2.3%, so 10% gives ~4× headroom while still catching a
/// retry storm (a storage layer that re-reads whole segments instead of the
/// single failed block, or a backoff loop that stops converging).
pub const E9_RETRY_IO_FRACTION_CEILING: f64 = 0.10;

/// Ceiling on the E9 recovery I/O overhead: for each injected crash point,
/// `(crashed run transfers + resumed run transfers) / fault-free transfers`.
///
/// With unit-prefix checkpoints the sweep's worst point measures 1.56 at
/// the `--quick` size and 1.40 at the full size (a crash shortly before the
/// next checkpoint: the crashed run has paid for units the checkpoint does
/// not capture, and the resume replays the graph-load preamble, the
/// replicated top of the refinement tree and every unit past the last
/// checkpoint). The DFS-frontier format it replaced measured 1.73 and 1.57.
/// A regression that loses the checkpoint — forcing a late crash to restart
/// from scratch — costs ~2× at the worst point and trips the gate; honest
/// noise is zero, the runs are fully deterministic.
pub const E9_RECOVERY_IO_OVERHEAD_CEILING: f64 = 2.0;

/// Checks an E9 table against [`E9_RECOVERY_IO_OVERHEAD_CEILING`]; returns
/// a description of the first offending crash point, if any. Rows without
/// an `overhead` column (the zero-fault control) are skipped.
pub fn check_e9_recovery_overhead(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        for (name, v) in &row.values {
            if name == "overhead" && *v > E9_RECOVERY_IO_OVERHEAD_CEILING {
                return Err(format!(
                    "row '{}': recovery overhead = {v:.2} exceeds the recorded ceiling \
                     {E9_RECOVERY_IO_OVERHEAD_CEILING}",
                    row.label
                ));
            }
        }
    }
    Ok(())
}

/// Checks an E9 table against [`E9_RETRY_IO_FRACTION_CEILING`]; returns a
/// description of the first offending run, if any.
pub fn check_e9_retry_fraction(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        for (name, v) in &row.values {
            if name == "retry_frac" && *v > E9_RETRY_IO_FRACTION_CEILING {
                return Err(format!(
                    "row '{}': retry_frac = {v:.4} exceeds the recorded ceiling \
                     {E9_RETRY_IO_FRACTION_CEILING}",
                    row.label
                ));
            }
        }
    }
    Ok(())
}

/// Everything the E9 chaos sweep produced.
pub struct E9Outcome {
    /// One zero-fault control row plus one row per injected crash point.
    pub rows: Vec<Row>,
    /// Gate verdicts: exactness, zero-fault cost parity, retry bound,
    /// recovery overhead, gauge leaks.
    pub gates: Vec<GateOutcome>,
    /// Fault trace of the mid-sweep crashed run and its resume (written to
    /// `E9_FAULT_TRACE.json` by `reproduce --json`).
    pub fault_trace: Vec<FaultEvent>,
}

/// Installs (once) a panic hook that swallows the [`CrashPoint`] payloads
/// the chaos sweep raises on purpose; every other panic still reaches the
/// previously installed hook, so real failures stay loud.
fn silence_simulated_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A unique scratch directory for one sweep's checkpoint files.
fn e9_scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("trienum-e9-{}-{n}", std::process::id()))
}

/// **E9 — chaos: fault injection, crash sweep, checkpoint/resume.** Runs the
/// cache-oblivious algorithm once fault-free as the reference, then sweeps a
/// `CrashAt` kill switch across the reference run's whole I/O range with
/// transient read faults and torn writes injected throughout; each crashed
/// run is resumed from its surviving checkpoint (or rerun from scratch if it
/// died before the first one) and held to the reference's exact triangle
/// multiset, bounded retry counts, a leak-free gauge and the
/// [`E9_RECOVERY_IO_OVERHEAD_CEILING`] recovery budget.
pub fn experiment_e9(quick: bool) -> E9Outcome {
    let e = if quick { 2_000 } else { 4_000 };
    let points = if quick { 8 } else { 16 };
    e9_sweep(e, points)
}

fn e9_sweep(e: usize, points: u64) -> E9Outcome {
    silence_simulated_crash_panics();
    let cfg = EmConfig::new(1 << 10, 32);
    let alg = Algorithm::CacheObliviousRandomized { seed: 0xA11CE };
    let g = generators::erdos_renyi(e / 8, e, 9);
    let scratch = e9_scratch_dir();
    std::fs::create_dir_all(&scratch).expect("creating the E9 scratch directory");

    // Reference run: fault-free, no checkpointing. Its multiset is the
    // oracle every chaos run must reproduce bit-identically, and its
    // transfer count is the denominator of the recovery-overhead metric.
    let reference = Machine::new(cfg);
    let mut oracle_sink = CollectingSink::new();
    let ref_report = enumerate_triangles_with_recovery(&g, &reference, alg, &mut oracle_sink, None);
    let ref_transfers = reference.transfers();
    let run_io = ref_report.io.total();
    // `CrashAt` counts charged transfers from machine creation, so crash
    // coordinates must be offset past the graph-load preamble.
    let preamble = ref_transfers - run_io;
    let mut oracle = oracle_sink.into_triangles();
    oracle.sort_unstable();
    assert_eq!(
        oracle.len() as u64,
        naive::count_triangles(&g),
        "the E9 reference run disagrees with the in-memory oracle"
    );

    // Zero-fault control: the recovery entry point on a default machine must
    // cost exactly what the plain driver costs — the fault/checkpoint layer
    // is pay-for-what-you-use.
    let plain = run(&g, alg, cfg);
    let ref_retry_io = ref_report.extra("retry_io").unwrap_or(f64::NAN);
    let zero_fault = if plain.io.total() != ref_report.io.total() {
        Err(format!(
            "zero-fault recovery run cost {} I/Os, the plain driver {} — the fault layer \
             must be free when unused",
            ref_report.io.total(),
            plain.io.total()
        ))
    } else if plain.triangles != ref_report.triangles {
        Err(format!(
            "zero-fault recovery run found {} triangles, the plain driver {}",
            ref_report.triangles, plain.triangles
        ))
    } else if ref_retry_io != 0.0 {
        Err(format!(
            "zero-fault recovery run charged retry_io = {ref_retry_io}, expected 0"
        ))
    } else {
        Ok(())
    };

    let mut rows = vec![Row::new("zero-fault control")
        .col("io", ref_report.io.total() as f64)
        .col("plain_io", plain.io.total() as f64)
        .col("triangles", ref_report.triangles as f64)
        .col("retry_io", ref_retry_io)];

    let interval_io = (run_io / 6).max(1);
    let mut exactness: Result<(), String> = Ok(());
    let mut gauges: Result<(), String> = Ok(());
    let mut permanents: Result<(), String> = Ok(());
    let mut fault_trace: Vec<FaultEvent> = Vec::new();
    let record = |slot: &mut Result<(), String>, err: String| {
        if slot.is_ok() {
            *slot = Err(err);
        }
    };

    for k in 0..points {
        let crash_at = preamble + run_io * (k + 1) / (points + 1);
        let ckpt_path = scratch.join(format!("crash-{k}.ckpt"));
        let spec = CheckpointSpec {
            path: ckpt_path.clone(),
            interval_io,
        };
        let plan = FaultPlan::new(0xE9_0000 + k)
            .with_read_faults(E9_READ_FAULT_PER_MILLE)
            .with_torn_writes(E9_TORN_WRITE_PER_MILLE)
            .with_retry(e9_retry_policy())
            .with_crash_at(crash_at);
        let crashed_machine = Machine::with_faults(cfg, plan);
        let mut collected = CollectingSink::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            enumerate_triangles_with_recovery(
                &g,
                &crashed_machine,
                alg,
                &mut collected,
                Some(&spec),
            )
        }));
        let payload = match outcome {
            Ok(_) => {
                record(
                    &mut exactness,
                    format!("crash@{crash_at}: the kill switch never fired"),
                );
                continue;
            }
            Err(payload) => payload,
        };
        if payload.downcast_ref::<CrashPoint>().is_none() {
            // Not a simulated crash: a real bug escaped the run. Re-raise.
            std::panic::resume_unwind(payload);
        }
        let crashed_stats = crashed_machine.stats();
        let crashed_transfers = crashed_machine.transfers();
        if crashed_machine.gauge().in_use() != 0 {
            record(
                &mut gauges,
                format!(
                    "crash@{crash_at}: {} words still leased after unwinding the crashed run",
                    crashed_machine.gauge().in_use()
                ),
            );
        }

        let resume_plan = FaultPlan::new(0x5EED_0000 + k)
            .with_read_faults(E9_READ_FAULT_PER_MILLE)
            .with_torn_writes(E9_TORN_WRITE_PER_MILLE)
            .with_retry(e9_retry_policy());
        let resume_machine = Machine::with_faults(cfg, resume_plan);
        let resumed = ckpt_path.exists();
        let committed = collected.len() as u64;
        if resumed {
            let ck = Checkpoint::load(&ckpt_path).expect("loading the surviving checkpoint");
            if ck.hwm != committed {
                record(
                    &mut exactness,
                    format!(
                        "crash@{crash_at}: checkpoint high-water mark {} disagrees with the \
                         {committed} triangles actually committed",
                        ck.hwm
                    ),
                );
            }
            resume_enumeration(&g, &resume_machine, alg, &ck, &mut collected, None);
        } else {
            if committed != 0 {
                record(
                    &mut exactness,
                    format!(
                        "crash@{crash_at}: {committed} triangles committed although no \
                         checkpoint was ever written"
                    ),
                );
            }
            // Crashed before the first checkpoint: nothing durable exists,
            // so recovery is a plain fresh run.
            enumerate_triangles_with_recovery(&g, &resume_machine, alg, &mut collected, None);
        }
        let resume_stats = resume_machine.stats();
        let resume_transfers = resume_machine.transfers();
        if resume_machine.gauge().in_use() != 0 {
            record(
                &mut gauges,
                format!(
                    "crash@{crash_at}: {} words still leased after the resumed run",
                    resume_machine.gauge().in_use()
                ),
            );
        }

        let mut got = collected.into_triangles();
        got.sort_unstable();
        if got != oracle {
            record(
                &mut exactness,
                format!(
                    "crash@{crash_at}: the resumed multiset ({} triangles) differs from the \
                     reference ({})",
                    got.len(),
                    oracle.len()
                ),
            );
        }
        for trace in [crashed_machine.fault_trace(), resume_machine.fault_trace()] {
            if let Some(p) = trace
                .iter()
                .find(|ev| ev.kind == emsim::FaultKind::Permanent)
            {
                record(
                    &mut permanents,
                    format!(
                        "crash@{crash_at}: a transient fault at io {} escalated to permanent \
                         ({} failed attempts) — the retry budget is mis-sized",
                        p.io, p.failed_attempts
                    ),
                );
            }
        }
        if k == points / 2 {
            fault_trace = crashed_machine.fault_trace();
            fault_trace.extend(resume_machine.fault_trace());
        }

        let total_io = crashed_stats.io.total() + resume_stats.io.total();
        let retry_io = crashed_stats.retry_io + resume_stats.retry_io;
        rows.push(
            Row::new(format!("crash@{crash_at}"))
                .col("resumed", if resumed { 1.0 } else { 0.0 })
                .col("committed", committed as f64)
                .col("crashed_io", crashed_transfers as f64)
                .col("resume_io", resume_transfers as f64)
                .col(
                    "overhead",
                    (crashed_transfers + resume_transfers) as f64 / ref_transfers as f64,
                )
                .col("retry_frac", retry_io as f64 / total_io.max(1) as f64),
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let retry_check = check_e9_retry_fraction(&rows).and(permanents);
    let overhead_check = check_e9_recovery_overhead(&rows);
    let gates = vec![
        GateOutcome::of("E9_EXACTLY_ONCE", &exactness),
        GateOutcome::of("E9_ZERO_FAULT_EXACTNESS", &zero_fault),
        GateOutcome::of("E9_RETRY_FRACTION_CEILING", &retry_check),
        GateOutcome::of("E9_RECOVERY_IO_OVERHEAD", &overhead_check),
        GateOutcome::of("E9_GAUGE_LEASES", &gauges),
    ];
    E9Outcome {
        rows,
        gates,
        fault_trace,
    }
}

/// Renders a fault trace as JSON — the `E9_FAULT_TRACE.json` record
/// `reproduce --json <dir>` writes next to `BENCH_E9.json`.
pub fn fault_trace_json(events: &[FaultEvent]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e9\",\n  \"events\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"io\": {}, \"kind\": \"{}\", \"failed_attempts\": {}}}{}\n",
            ev.io,
            ev.kind.label(),
            ev.failed_attempts,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the E9 fault trace into `dir` (atomically, like every record),
/// returning the path written.
pub fn write_fault_trace_record(
    dir: &std::path::Path,
    events: &[FaultEvent],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("E9_FAULT_TRACE.json");
    atomic_write(&path, fault_trace_json(events).as_bytes())?;
    Ok(path)
}

/// Worker counts swept by the E10 multi-worker (PEM) experiment.
pub const E10_WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Ceiling on `max_worker_io / sum_io` at the `P = 4` sweep point, for both
/// sharded drivers. Perfect balance is `1/P = 0.25`; the replicated preamble
/// (graph scan, partitioning, the derandomized greedy levels) is charged to
/// every worker and keeps the ratio pinned near `1/P` even when the owned
/// units are skewed, so 0.35 gives ~40% headroom while still catching a
/// sharding regression that lets one worker own a constant fraction of the
/// unit stream (that costs ≥ 0.5 and trips the gate immediately).
pub const E10_BALANCE_MAX_FRACTION: f64 = 0.35;

/// Everything the E10 worker sweep produced.
pub struct E10Outcome {
    /// One row per `(driver, P)` sweep point: triangles, PEM cost
    /// (`max_io`), total I/O, balance, merge I/O. Fully deterministic —
    /// these are what `BENCH_E10.json` records.
    pub rows: Vec<Row>,
    /// One row per worker of every sweep point (read/write/total transfers),
    /// sorted by worker index. Appended after [`E10Outcome::rows`] in the
    /// JSON record.
    pub worker_rows: Vec<Row>,
    /// Wall-clock seconds and speedup vs the sequential driver. Printed to
    /// stdout only — timing is machine-dependent and would break the
    /// byte-stable JSON record.
    pub timing: Vec<Row>,
    /// Gate verdicts: worker balance, multiset invariance, single-worker
    /// I/O parity.
    pub gates: Vec<GateOutcome>,
}

/// **E10 — multi-worker PEM enumeration.** Runs both randomized drivers
/// under the work-unit scheduler ([`enumerate_triangles_sharded`]) for
/// `P ∈ {1, 2, 4, 8}` workers, each worker on its own simulated machine,
/// and holds the sweep to three gates:
///
/// * **balance** — at `P = 4` the PEM cost (the *maximum* per-worker I/O,
///   which is what the PEM model charges) stays within
///   [`E10_BALANCE_MAX_FRACTION`] of the total;
/// * **multiset invariance** — every worker count delivers the bit-identical
///   sorted triangle multiset of the sequential driver;
/// * **single-worker parity** — at `P = 1` the workers' summed I/O equals
///   the sequential driver's exactly (the sharding layer is free when
///   unused).
pub fn experiment_e10(quick: bool) -> E10Outcome {
    let (v, e, cfg) = if quick {
        (500, 4_000, EmConfig::new(256, 32))
    } else {
        (1_000, 12_000, EmConfig::new(512, 32))
    };
    let g = generators::erdos_renyi(v, e, 6);
    let drivers = [
        ("aware", Algorithm::CacheAwareRandomized { seed: 0xA11CE }),
        (
            "oblivious",
            Algorithm::CacheObliviousRandomized { seed: 0xA11CE },
        ),
    ];

    let mut rows = Vec::new();
    let mut worker_rows = Vec::new();
    let mut timing = Vec::new();
    let mut balance: Result<(), String> = Ok(());
    let mut multiset: Result<(), String> = Ok(());
    let mut parity: Result<(), String> = Ok(());
    let record = |slot: &mut Result<(), String>, err: String| {
        if slot.is_ok() {
            *slot = Err(err);
        }
    };

    for (label, alg) in drivers {
        // Sequential reference: the multiset oracle and the P = 1 parity
        // denominator.
        let mut seq_sink = CollectingSink::new();
        let seq_start = std::time::Instant::now();
        let seq = enumerate_triangles(&g, alg, cfg, &mut seq_sink);
        let seq_secs = seq_start.elapsed().as_secs_f64();
        let mut reference = seq_sink.into_triangles();
        reference.sort_unstable();

        for p in E10_WORKER_SWEEP {
            let mut sink = CollectingSink::new();
            let start = std::time::Instant::now();
            let sharded = enumerate_triangles_sharded(&g, alg, cfg, ShardPlan::new(p), &mut sink)
                .expect("the paper drivers support sharded execution");
            let secs = start.elapsed().as_secs_f64();
            let w = &sharded.workers;

            // The sharded sink receives the k-way-merged stream, which is
            // already globally sorted — compare it to the sorted reference
            // without re-sorting, so an out-of-order merge also fails here.
            let got = sink.into_triangles();
            if got != reference {
                record(
                    &mut multiset,
                    format!(
                        "{label} P={p}: sharded multiset ({} triangles) differs from the \
                         sequential driver's ({})",
                        got.len(),
                        reference.len()
                    ),
                );
            }
            if p == 1 && w.sum_io != seq.io.total() {
                record(
                    &mut parity,
                    format!(
                        "{label} P=1: single-worker I/O {} != sequential driver's {} — the \
                         sharding layer must be free when unused",
                        w.sum_io,
                        seq.io.total()
                    ),
                );
            }
            if p == 4 && w.max_io as f64 > E10_BALANCE_MAX_FRACTION * w.sum_io as f64 {
                record(
                    &mut balance,
                    format!(
                        "{label} P=4: max worker I/O {} exceeds {E10_BALANCE_MAX_FRACTION} x \
                         sum_io {} — the unit stream is not balancing",
                        w.max_io, w.sum_io
                    ),
                );
            }

            rows.push(
                Row::new(format!("{label} P={p}"))
                    .col("triangles", sharded.report.triangles as f64)
                    .col("max_io", w.max_io as f64)
                    .col("sum_io", w.sum_io as f64)
                    .col("balance", w.balance)
                    .col("max_io/sum", w.max_io as f64 / w.sum_io.max(1) as f64)
                    .col("merge_io", sharded.merge_io.total() as f64),
            );
            timing.push(
                Row::new(format!("{label} P={p}"))
                    .col("wall_s", secs)
                    .col("speedup", seq_secs / secs.max(1e-9)),
            );
            // `per_worker` is indexed by worker id (the pool sorts by worker
            // index before reporting), so these rows are deterministic.
            for (i, io) in w.per_worker.iter().enumerate() {
                worker_rows.push(
                    Row::new(format!("{label} P={p} w{i}"))
                        .col("reads", io.reads as f64)
                        .col("writes", io.writes as f64)
                        .col("io", io.total() as f64),
                );
            }
        }
    }

    let gates = vec![
        GateOutcome::of("E10_WORKER_BALANCE", &balance),
        GateOutcome::of("E10_MULTISET_INVARIANCE", &multiset),
        GateOutcome::of("E10_SINGLE_WORKER_PARITY", &parity),
    ];
    E10Outcome {
        rows,
        worker_rows,
        timing,
        gates,
    }
}

/// Everything the E11 sim-vs-disk sweep produced.
pub struct E11Outcome {
    /// One row per `(E, algorithm)` sweep point: triangles, simulated
    /// charged transfers, real device reads/writes, and the real/simulated
    /// ratio. Deterministic — these go into `BENCH_E11.json`.
    pub rows: Vec<Row>,
    /// Wall-clock milliseconds per backend and the disk/memory slowdown.
    /// Unlike E10's timing these ARE recorded in the JSON (the ISSUE asks
    /// for measured wall-clock next to simulated I/O), so `BENCH_E11.json`
    /// is reproducible in its counts but not byte-stable in its timings.
    pub timing: Vec<Row>,
    /// Gate verdicts: `DISK_PARITY` and `E11_REAL_EQUALS_CHARGED`.
    pub gates: Vec<GateOutcome>,
}

/// **E11 — sim vs disk.** Runs an E1-style size sweep of all
/// three paper algorithms twice — once on the pure in-memory simulator, once
/// genuinely out-of-core on the file-backed [`BackendKind::Disk`] plane —
/// plus sharded runs at `P ∈ {1, 4}`, and holds the pair to two gates:
///
/// * **`DISK_PARITY`** — the simulator is the spec, the disk is the witness:
///   any divergence in the triangle multiset, the charged read/write
///   counts, or the logical transfer count between the two backends is a
///   hard failure;
/// * **`E11_REAL_EQUALS_CHARGED`** — at every sequential sweep point the
///   disk machine's executed device reads equal its charged reads, and its
///   device writes equal its charged writes (whole-machine counters on both
///   sides). Any extra, missing or misdirected device transfer fails it.
pub fn experiment_e11(quick: bool) -> E11Outcome {
    let sizes: &[usize] = if quick {
        &[1_000, 2_000, 4_000]
    } else {
        &[2_000, 4_000, 8_000, 16_000]
    };
    let cfg = default_config();

    let mut rows = Vec::new();
    let mut timing = Vec::new();
    let mut parity: Result<(), String> = Ok(());
    let mut real_equals_charged: Result<(), String> = Ok(());
    let record = |slot: &mut Result<(), String>, err: String| {
        if slot.is_ok() {
            *slot = Err(err);
        }
    };

    for &e in sizes {
        let g = generators::erdos_renyi(e / 8, e, 1);
        for alg in paper_algorithms() {
            let label = format!("E={e} {}", alg.name());

            let mem = Machine::new(cfg);
            let mut mem_sink = CollectingSink::new();
            let mem_start = std::time::Instant::now();
            let mem_report = enumerate_triangles_on(&mem, &g, alg, &mut mem_sink);
            let mem_ms = mem_start.elapsed().as_secs_f64() * 1e3;

            let disk = Machine::with_backend(cfg, BackendKind::Disk);
            let mut disk_sink = CollectingSink::new();
            let disk_start = std::time::Instant::now();
            let disk_report = enumerate_triangles_on(&disk, &g, alg, &mut disk_sink);
            let disk_ms = disk_start.elapsed().as_secs_f64() * 1e3;
            // Snapshot the real counters before the fsync below, then
            // exercise the durability barrier (uncharged, so it cannot
            // perturb the parity comparison).
            let real = disk.disk_counters().expect("disk plane has real counters");
            disk.sync();

            // --- DISK_PARITY: the simulator is the spec. ---
            let mut mem_triangles = mem_sink.into_triangles();
            let mut disk_triangles = disk_sink.into_triangles();
            mem_triangles.sort_unstable();
            disk_triangles.sort_unstable();
            if mem_triangles != disk_triangles {
                record(
                    &mut parity,
                    format!(
                        "{label}: disk multiset ({} triangles) differs from the simulator's ({})",
                        disk_triangles.len(),
                        mem_triangles.len()
                    ),
                );
            }
            if mem_report.io != disk_report.io {
                record(
                    &mut parity,
                    format!(
                        "{label}: charged transfers diverge — sim {}r/{}w vs disk {}r/{}w",
                        mem_report.io.reads,
                        mem_report.io.writes,
                        disk_report.io.reads,
                        disk_report.io.writes
                    ),
                );
            }
            if mem.transfers() != disk.transfers() {
                record(
                    &mut parity,
                    format!(
                        "{label}: logical transfer streams diverge — sim {} vs disk {}",
                        mem.transfers(),
                        disk.transfers()
                    ),
                );
            }

            // --- E11_REAL_EQUALS_CHARGED: whole-machine charged transfers
            // vs whole-run real device ops (both include the load phase). ---
            let charged = disk.io();
            if (real.block_reads, real.block_writes) != (charged.reads, charged.writes) {
                record(
                    &mut real_equals_charged,
                    format!(
                        "{label}: device did {}r/{}w for {}r/{}w charged",
                        real.block_reads, real.block_writes, charged.reads, charged.writes
                    ),
                );
            }
            let sim_total = charged.total() as f64;
            let real_total = real.total() as f64;
            rows.push(
                Row::new(label.clone())
                    .col("triangles", disk_report.triangles as f64)
                    .col("sim_io", mem_report.io.total() as f64)
                    .col("disk_io", disk_report.io.total() as f64)
                    .col("real_reads", real.block_reads as f64)
                    .col("real_writes", real.block_writes as f64)
                    .col("real_total", real_total)
                    .col("real/sim", real_total / sim_total.max(1.0)),
            );
            timing.push(
                Row::new(label)
                    .col("mem_ms", mem_ms)
                    .col("disk_ms", disk_ms)
                    .col("slowdown", disk_ms / mem_ms.max(1e-9)),
            );
        }
    }

    // Sharded runs: every worker machine on the disk plane, P ∈ {1, 4}, at
    // the largest sweep size — the out-of-core path must also hold under
    // the work-unit scheduler.
    let e = *sizes.last().expect("the sweep is non-empty");
    let g = generators::erdos_renyi(e / 8, e, 1);
    let alg = Algorithm::CacheAwareRandomized { seed: 0xA11CE };
    for p in [1usize, 4] {
        let label = format!("sharded E={e} aware P={p}");
        let mut mem_sink = CollectingSink::new();
        let mem_sharded =
            enumerate_triangles_sharded(&g, alg, cfg, ShardPlan::new(p), &mut mem_sink)
                .expect("the paper drivers support sharded execution");
        let mut disk_sink = CollectingSink::new();
        let disk_start = std::time::Instant::now();
        let disk_sharded = enumerate_triangles_sharded(
            &g,
            alg,
            cfg,
            ShardPlan::new(p).with_backend(BackendKind::Disk),
            &mut disk_sink,
        )
        .expect("the paper drivers support sharded execution");
        let disk_ms = disk_start.elapsed().as_secs_f64() * 1e3;
        // Both sinks receive the k-way-merged (already sorted) stream.
        if mem_sink.into_triangles() != disk_sink.into_triangles() {
            record(
                &mut parity,
                format!("{label}: disk-plane sharded multiset differs from the simulator's"),
            );
        }
        if mem_sharded.workers.per_worker != disk_sharded.workers.per_worker {
            record(
                &mut parity,
                format!(
                    "{label}: per-worker charged I/O diverges — sim sum {} vs disk sum {}",
                    mem_sharded.workers.sum_io, disk_sharded.workers.sum_io
                ),
            );
        }
        rows.push(
            Row::new(label.clone())
                .col("triangles", disk_sharded.report.triangles as f64)
                .col("sim_io", mem_sharded.workers.sum_io as f64)
                .col("disk_io", disk_sharded.workers.sum_io as f64)
                .col("max_io", disk_sharded.workers.max_io as f64),
        );
        timing.push(Row::new(label).col("disk_ms", disk_ms));
    }

    let mut exact = GateOutcome::of("E11_REAL_EQUALS_CHARGED", &real_equals_charged);
    if exact.passed {
        exact.detail = "real device reads/writes equal charged reads/writes at every point".into();
    }
    let gates = vec![GateOutcome::of("DISK_PARITY", &parity), exact];
    E11Outcome {
        rows,
        timing,
        gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_and_rows_are_consistent() {
        let rows = experiment_e1(&[1000], false);
        assert!(!rows.is_empty());
        let table = render_table("E1 smoke", &rows);
        assert!(table.contains("io/paper_bound"));
        assert!(table.contains("cache-oblivious"));
    }

    #[test]
    fn e2_reports_predicted_and_measured_gain() {
        let (rows, peaks) = experiment_e2(&[4]);
        assert_eq!(rows.len(), 1);
        let aware = peaks
            .iter()
            .find(|p| p.case.contains("cache-aware"))
            .expect("cache-aware phase peaks recorded");
        assert_eq!(aware.budget_words, Some(2 * 512));
        let names: Vec<&str> = aware.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "step1_high_degree",
                "step2_partition",
                "step3_color_triples"
            ]
        );
        assert!(aware.phases.iter().any(|p| p.peak_words > 0));
        check_phase_peak_budgets(&peaks).expect("phase peaks within declared budgets");
        let predicted = rows[0]
            .values
            .iter()
            .find(|(n, _)| n == "predicted_gain")
            .unwrap()
            .1;
        assert!((predicted - 2.0).abs() < 1e-9);
    }

    #[test]
    fn e2_io_gate_passes_current_code_and_catches_regressions() {
        let (rows, _) = experiment_e2(&[4, 8, 16]);
        check_e2_io_budget(&rows).expect("current implementation must satisfy the ceiling");

        // A regression all the way back to the per-triple step-3 loop…
        let over_budget = vec![Row::new("E/M=32")
            .col("aware_io", 1.063e5)
            .col("aware_io/bound", 36.7)
            .col("measured_gain", 1.24)];
        let err = check_e2_io_budget(&over_budget).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // …and the subtler one back to the fixed α = 1/8 chunk divisor
        // (the pre-adaptive normalised 21.6) must both trip the ceiling.
        let fixed_divisor_regression = vec![Row::new("E/M=32")
            .col("aware_io", 6.262e4)
            .col("aware_io/bound", 21.62)
            .col("measured_gain", 2.10)];
        let err = check_e2_io_budget(&fixed_divisor_regression).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        let lost_crossover = vec![Row::new("E/M=8")
            .col("aware_io", 1.3e4)
            .col("aware_io/bound", 14.0)
            .col("measured_gain", 0.97)];
        let err = check_e2_io_budget(&lost_crossover).unwrap_err();
        assert!(err.contains("crossover"), "{err}");

        let below_crossover_threshold = vec![Row::new("E/M=4")
            .col("aware_io", 3.0e3)
            .col("aware_io/bound", 14.4)
            .col("measured_gain", 0.95)];
        check_e2_io_budget(&below_crossover_threshold).expect(
            "the crossover requirement only applies from E/M = CACHE_AWARE_CROSSOVER_FROM on",
        );
    }

    #[test]
    fn work_budget_gate_passes_current_code_and_catches_regressions() {
        let (rows, peaks) = experiment_e7(&[4000]);
        check_e7_work_budget(&rows).expect("current implementation must satisfy the ceiling");
        check_phase_peak_budgets(&peaks).expect("phase peaks within declared budgets");

        let bad = vec![Row::new("E=4000 cache-oblivious")
            .col("work_ops", 1e9)
            .col("E^1.5", 2.53e5)
            .col("work/E^1.5", 52.66)];
        let err = check_e7_work_budget(&bad).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // A regression to the PR 2–4 incidence-list constant (9.75–10.3)
        // must also trip the tightened ceiling.
        let incidence_regression = vec![Row::new("E=8000 cache-oblivious")
            .col("work_ops", 6.973e6)
            .col("E^1.5", 7.155e5)
            .col("work/E^1.5", 9.75)];
        let err = check_e7_work_budget(&incidence_regression).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        let unrelated = vec![Row::new("E=4000 hu-tao-chung").col("work/E^1.5", 1e9)];
        check_e7_work_budget(&unrelated).expect("gate only watches the cache-oblivious rows");
    }

    #[test]
    fn e3_io_gate_passes_current_code_and_catches_regressions() {
        let (rows, peaks) = experiment_e3(4_000, &[(1 << 10, 32), (1 << 13, 32)]);
        check_e3_io_budget(&rows).expect("current implementation must satisfy the ceiling");
        assert!(
            peaks.iter().all(
                |p| p.phases.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
                    == ["root_sort", "recursion", "leaf_batch"]
            ),
            "cache-oblivious runs must record their three phases"
        );
        check_phase_peak_budgets(&peaks).expect("phase peaks within declared budgets");

        // A regression to the incidence-list implementation's worst recorded
        // row (145.97 at M=512 B=32)…
        let incidence_regression = vec![Row::new("M=512 B=32")
            .col("io", 2.650e5)
            .col("io/bound", 145.97)];
        let err = check_e3_io_budget(&incidence_regression).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        // …and the subtler one to its best row (79.75 at M=16384 B=32) must
        // both trip the ceiling.
        let best_row_regression = vec![Row::new("M=16384 B=32")
            .col("io", 2.559e4)
            .col("io/bound", 79.75)];
        let err = check_e3_io_budget(&best_row_regression).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        let missing_column = vec![Row::new("M=512 B=32").col("io", 1.0)];
        assert!(check_e3_io_budget(&missing_column).is_err());
    }

    #[test]
    fn phase_peak_gate_flags_over_budget_phases_and_skips_ungated_rows() {
        let over = PhasePeakRow {
            case: "E=4000 cache-oblivious".into(),
            budget_words: Some(1000),
            phases: vec![
                PhaseSnapshot {
                    name: "root_sort".into(),
                    peak_words: 900,
                    live_words: 0,
                    live_leases: Vec::new(),
                },
                PhaseSnapshot {
                    name: "recursion".into(),
                    peak_words: 4096,
                    live_words: 64,
                    live_leases: Vec::new(),
                },
            ],
        };
        let err = check_phase_peak_budgets(&[over]).unwrap_err();
        assert!(err.contains("recursion"), "{err}");
        assert!(err.contains("4096"), "{err}");

        let ungated = PhasePeakRow {
            case: "E=4000 hu-tao-chung".into(),
            budget_words: None,
            phases: vec![PhaseSnapshot {
                name: "pivot_join".into(),
                peak_words: u64::MAX,
                live_words: 0,
                live_leases: Vec::new(),
            }],
        };
        check_phase_peak_budgets(&[ungated]).expect("ungated baselines are never flagged");
    }

    #[test]
    fn experiment_records_render_valid_flat_json() {
        let rows = vec![
            Row::new("M=512 B=32")
                .col("io", 1.055e5)
                .col("io/bound", 58.13),
            Row::new("quote\"case")
                .col("weird", f64::NAN)
                .col("neg", -1.5),
        ];
        let gates = vec![
            GateOutcome::of("CACHE_OBLIVIOUS_IO_CEILING", &Ok(())),
            GateOutcome::of(
                "CACHE_OBLIVIOUS_WORK_CEILING",
                &Err("row 'x': broke\nbadly".to_string()),
            ),
        ];
        let peaks = vec![
            PhasePeakRow {
                case: "M=512 B=32".into(),
                budget_words: Some(2000),
                phases: vec![PhaseSnapshot {
                    name: "root_sort".into(),
                    peak_words: 512,
                    live_words: 0,
                    live_leases: Vec::new(),
                }],
            },
            PhasePeakRow {
                case: "baseline".into(),
                budget_words: None,
                phases: Vec::new(),
            },
        ];
        let json = experiment_record_json("e3", "E3: cache-obliviousness", &rows, &peaks, &gates);
        // Structure and escaping: balanced braces, escaped quote and newline,
        // NaN downgraded to null, booleans verbatim.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"experiment\": \"e3\""));
        assert!(json.contains("\"io/bound\": 58.13"));
        assert!(json.contains("quote\\\"case"));
        assert!(json.contains("\"weird\": null"));
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains("broke\\nbadly"));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"phase_peaks\""));
        assert!(json.contains(
            "{\"name\": \"root_sort\", \"peak_words\": 512, \"live_words\": 0, \
             \"live_leases\": 0}"
        ));
        assert!(json.contains("\"budget_words\": 2000"));
        assert!(json.contains("\"budget_words\": null"));

        let dir = std::env::temp_dir().join("trienum-bench-json-test");
        let path =
            write_experiment_record(&dir, "e3", "E3: cache-obliviousness", &rows, &peaks, &gates)
                .unwrap();
        assert!(path.ends_with("BENCH_E3.json"));
        let round = std::fs::read_to_string(&path).unwrap();
        assert_eq!(round, json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn e9_gates_catch_regressions_and_skip_unrelated_rows() {
        let slow_recovery = vec![Row::new("crash@500")
            .col("overhead", E9_RECOVERY_IO_OVERHEAD_CEILING + 0.5)
            .col("retry_frac", 0.01)];
        let err = check_e9_recovery_overhead(&slow_recovery).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        check_e9_retry_fraction(&slow_recovery).expect("retry fraction within ceiling");

        let retry_storm = vec![Row::new("crash@500")
            .col("overhead", 1.2)
            .col("retry_frac", E9_RETRY_IO_FRACTION_CEILING * 5.0)];
        let err = check_e9_retry_fraction(&retry_storm).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        check_e9_recovery_overhead(&retry_storm).expect("overhead within ceiling");

        // The zero-fault control row has neither column and is skipped.
        let control = vec![Row::new("zero-fault control").col("io", 1.0)];
        check_e9_recovery_overhead(&control).unwrap();
        check_e9_retry_fraction(&control).unwrap();
    }

    #[test]
    fn e9_chaos_sweep_is_exact_and_within_budgets() {
        // A reduced sweep (the full --quick sweep runs in CI): three crash
        // points over a smaller instance, all gates still enforced.
        let outcome = e9_sweep(1_200, 3);
        for gate in &outcome.gates {
            assert!(gate.passed, "{}: {}", gate.name, gate.detail);
        }
        // One control row plus one row per crash point, and the injected
        // rates are high enough that the representative trace is non-empty.
        assert_eq!(outcome.rows.len(), 4);
        assert!(!outcome.fault_trace.is_empty());
        let json = fault_trace_json(&outcome.fault_trace);
        assert!(json.contains("\"experiment\": \"e9\""));
        assert!(json.contains("\"kind\": \""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn e8_mean_is_below_bound() {
        let rows = experiment_e8(3000, 4);
        let mean_over_bound = rows[0]
            .values
            .iter()
            .find(|(n, _)| n == "mean/bound")
            .unwrap()
            .1;
        assert!(mean_over_bound < 3.0);
    }
}
