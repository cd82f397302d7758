//! The cache-oblivious randomized algorithm (paper Section 3, Theorem 1).
//!
//! The algorithm solves the more general `(c0, c1, c2)`-enumeration problem:
//! given a colouring `ξ` of the vertices, enumerate the triangles
//! `{u, v, w}`, `u < v < w`, with `(ξ(u), ξ(v), ξ(w)) = (c0, c1, c2)`.
//! Plain triangle enumeration is the `(1, 1, 1)` problem under the constant
//! colouring.
//!
//! Each subproblem of the colour-refinement tree:
//!
//! 1. enumerates the *proper* triangles through every **local high-degree
//!    vertex** (degree ≥ E/8 within the current subproblem; at most 16 of
//!    them, see [`MAX_LOCAL_HIGH_DEGREE`]) with Lemma 1, removing each such
//!    vertex's edges afterwards;
//! 2. refines the colouring with one fresh random bit per vertex,
//!    `ξ'(v) = 2ξ(v) − b(v)`, `b` drawn from a 4-wise independent family —
//!    one bit function **per tree level**, installed up front as a batch
//!    (see [`RefinedColoring::push_batch`]), so sibling subproblems share
//!    the same refinement and the whole tree is a function of the seed and
//!    the level alone (which is what lets every worker of a sharded run, and
//!    every resume of a crashed one, expand the identical tree and so number
//!    its work units identically);
//! 3. splits into the 8 colour vectors
//!    `{2c0−1, 2c0} × {2c1−1, 2c1} × {2c2−1, 2c2}`, each restricted to the
//!    edges compatible with that vector.
//!
//! The recursion bottoms out on constant-size inputs or at depth `log₄ E` —
//! neither involves the machine parameters. The **code below never reads
//! the machine configuration**; every I/O the run is charged comes from LRU
//! misses in the simulator, which is exactly how a cache-oblivious algorithm
//! is supposed to be evaluated.
//!
//! ## Subproblem representation: canonical edge lists
//!
//! A subproblem is its **canonical edge list**: every edge `(u, v)`, `u < v`,
//! one word each, sorted lexicographically — half the volume of the
//! incidence-list (both-orientations) representation this module previously
//! used. The list is "sorted" exactly once, at the root, through the
//! defensive [`emalgo::oblivious_sort_by_key`], whose sorted-input detection
//! turns the already-sorted input into a plain copy scan. Partitioning is
//! **order-preserving** (colour refinement splits classes without reordering
//! within them), so every child inherits the parent's `(u, v)` sort and *no
//! subproblem below the root ever sorts its input* — a one-scan
//! `debug_assert` checks the inherited sortedness during each routing scan
//! at zero extra I/O.
//!
//! The price of dropping the reverse orientations is that a vertex's local
//! degree is no longer a run length (a high-id hub appears only as a
//! *destination*, scattered across the sorted list). Step 1 instead keeps a
//! [`HeavyHitters`] summary (Misra–Gries, 16 counters) **per child, fed by
//! the parent's routing scan**: every vertex with degree ≥ E_child/8 — a
//! frequency above `1/17` of the child's endpoint stream — is guaranteed to
//! be tracked, with counter error bounded by the decrement count. A child
//! whose summary proves no vertex *can* clear the bar (the common case)
//! skips degree work entirely; otherwise one exact counting scan over the
//! ≤ 16 candidates settles the set. The result is provably the exact
//! high-degree set, at the cost of one extra scan only when a plausible
//! candidate exists.
//!
//! ## Base cases
//!
//! * `E ≤ `[`BASE_CASE_EDGES`]: the subproblem is **constant-sized**, so it
//!   is joined entirely in core (the edge list is leased on the memory
//!   gauge, wedges are probed against it by binary search) — no wedge file,
//!   no sort, no extra I/O beyond the one segment read. This matches the
//!   paper's O(1)-size base case, which assumes constant working storage.
//! * **oversized depth-limit leaves** (`E > `[`BASE_CASE_EDGES`] at depth
//!   `log₄ E`, rare): these are *batched across the whole run* — each
//!   appends its wedges and its (already sorted) edges, tagged by leaf id,
//!   to two run-global files; at the end the wedge file is sorted **once**
//!   (`sort(ΣW)` instead of `Σ sort(W_leaf)`) and a single tagged
//!   two-source merge ([`emalgo::kway_merge_tagged`]) closes every leaf's
//!   wedges against its edges in one pass (see [`close_oversized_leaves`]).
//!
//! ## Evaluation order
//!
//! The tree is evaluated depth-first over an **explicit subproblem stack**
//! (one frame per pending node, plus gauge-lease markers so the accounting
//! matches a recursion frame for frame). Depth-first order is what Theorem
//! 1's `O(E^{3/2}/(√M·B))` bound needs: a subtree whose working set fits
//! internal memory is created, consumed and freed before the LRU cache ever
//! evicts it, so deep levels cost no I/O at all and the charged I/O
//! concentrates on the above-memory part of the tree. A level-by-level
//! evaluation keeps a whole level's files live and measured 12–77× the
//! depth-first I/O on E3 (see EXPERIMENTS.md).
//!
//! ## Work units and checkpoints
//!
//! Every node at [`DEFAULT_SPAWN_DEPTH`] is one subtree work unit, and above
//! it each leaf and each high-degree pass is a unit of its own (see
//! [`crate::workunit`]); a sequential run is the one-worker run of the same
//! stream. A checkpoint is a prefix of that stream ([`crate::checkpoint`]),
//! with one exception the driver enforces: oversized depth-limit leaves
//! emit their triangles only in the batch close at the end of the run, so
//! once the leaf batch is non-empty no further checkpoint is written.

use emalgo::kway_merge_tagged;
use emsim::{ExtVec, Machine, MemLease};
use graphgen::{Edge, Triangle, VertexId};
use kwise::{FourWise, RefinedColoring};

use crate::input::ExtGraph;
use crate::lemma1::enumerate_through_vertex;
use crate::sink::TriangleSink;
use crate::stats::PhaseRecorder;
use crate::util::{remove_incident_edges, SortKind};
use crate::workunit::{ShardCursor, WorkUnitKind, DEFAULT_SPAWN_DEPTH};

/// Subproblems of at most this many edges are joined in core directly. A
/// fixed constant — the cache-oblivious model forbids dependence on `M`/`B`,
/// not on constants (and the paper's base case likewise assumes constant
/// working storage).
const BASE_CASE_EDGES: usize = 24;

/// The paper's bound on the number of local high-degree vertices: since each
/// has degree ≥ E/8 and the degrees sum to 2E, there can be at most 16. The
/// bound is enforced (not merely asserted): if a future change to the
/// degree accounting ever produced more candidates, step 1 processes the 16
/// highest-degree ones and leaves the rest to the recursion — which stays
/// correct, because Lemma 1 handles *any* subset of vertices — instead of
/// silently degrading into unbounded quadratic Lemma 1 passes.
const MAX_LOCAL_HIGH_DEGREE: usize = 16;

/// Fan-out of the colour refinement (2³ child colour vectors per node).
const CHILDREN: usize = 8;

/// A colour vector `(c0, c1, c2)` of a subproblem.
type ColorVector = (u64, u64, u64);

/// A leaf-tagged record `(leaf, v, w, u)` of the batched oversized base
/// case: a wedge `v–u–w` awaiting its closing edge, or a canonical edge
/// `(v, w)` of the leaf (with `u = 0` unused). Both files are keyed by
/// `(leaf, v, w)`.
type LeafRecord = (u32, u32, u32, u32);

/// A Misra–Gries heavy-hitter summary of a subproblem's endpoint stream
/// (each edge contributes both endpoints, so a vertex's frequency is its
/// local degree).
///
/// With [`MAX_LOCAL_HIGH_DEGREE`] counters, every vertex whose degree
/// exceeds `1/17` of the stream is guaranteed a counter, and a local
/// high-degree vertex has degree ≥ E/8 = `1/16` of the stream — so the
/// summary provably contains every vertex step 1 must process. Counters are
/// lower bounds; `decrements` bounds the error (`count ≤ degree ≤ count +
/// decrements`), and since `decrements ≤ stream/17 < E/8`, a vertex *not*
/// in the summary can never be high-degree.
///
/// The counters live inline in a fixed array (the first `len` slots, in
/// insertion order): a summary is a plain value with no heap storage, and
/// the decrement step compacts the survivors in place.
#[derive(Default)]
struct HeavyHitters {
    counters: [(VertexId, u64); MAX_LOCAL_HIGH_DEGREE],
    len: usize,
    decrements: u64,
}

impl HeavyHitters {
    /// In-core footprint in words (for gauge accounting).
    const WORDS: u64 = 2 * MAX_LOCAL_HIGH_DEGREE as u64 + 1;

    /// The live counters, in insertion order.
    fn counters(&self) -> &[(VertexId, u64)] {
        &self.counters[..self.len]
    }

    fn feed(&mut self, v: VertexId) {
        let live = &mut self.counters[..self.len];
        if let Some(c) = live.iter_mut().find(|(x, _)| *x == v) {
            c.1 += 1;
            return;
        }
        if self.len < MAX_LOCAL_HIGH_DEGREE {
            self.counters[self.len] = (v, 1);
            self.len += 1;
            return;
        }
        // Decrement every counter and drop the ones that reach zero,
        // compacting the survivors in order.
        self.decrements += 1;
        let mut kept = 0;
        for i in 0..self.len {
            let (x, n) = self.counters[i];
            if n > 1 {
                self.counters[kept] = (x, n - 1);
                kept += 1;
            }
        }
        self.len = kept;
    }

    fn feed_edge(&mut self, e: &Edge) {
        self.feed(e.u);
        self.feed(e.v);
    }

    /// Summary of a whole edge stream (used at the root, which has no parent
    /// sweep to piggyback on). One charged scan.
    fn of_stream(machine: &Machine, edges: impl Iterator<Item = Edge>) -> Self {
        let _lease = machine.gauge().lease(Self::WORDS);
        let mut hh = Self::default();
        for e in edges {
            machine.work(1);
            hh.feed_edge(&e);
        }
        hh
    }

    /// The candidates that *could* have degree ≥ `e_here`/8 given the
    /// counter error — every true high-degree vertex is among them, and an
    /// empty result proves the high-degree set empty without any further
    /// scan.
    fn possible_high(&self, e_here: usize) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .counters()
            .iter()
            .filter(|&&(_, n)| 8 * (n + self.decrements) >= e_here as u64)
            .map(|&(v, _)| v)
            .collect();
        out.sort_unstable(); // emlint: allow(uncharged-std, reason = "O(1)-bounded candidate list; negligible next to the charged scan that fed the summary")
        out
    }
}

struct CoContext<'a, 's> {
    /// The unit→worker assignment and the output of the run.
    units: &'a mut ShardCursor<'s>,
    depth_limit: usize,
    /// Number of recursive subproblems solved (reported for the experiments).
    subproblems: u64,
    /// Maximum recursion depth reached.
    max_depth: usize,
    /// Times the ≤ 16 high-degree invariant had to be enforced by truncation
    /// (always 0 unless the degree accounting is broken).
    high_degree_truncations: u64,
    /// Number of multi-way partition sweeps performed (one per internal
    /// node).
    partition_sweeps: u64,
    /// Gauge lease tracking the colouring's memoised bit evaluations.
    bit_cache_lease: MemLease,
    /// The run-global files of the batched oversized-leaf wedge join.
    leaf_batch: LeafBatch,
}

/// The run-global files of the batched oversized-leaf base case: wedges and
/// canonical edges, both tagged by leaf id, plus one `(c0, c1, c2, depth)`
/// record per leaf. Leaf ids increase in emission order, so the edge file is
/// born sorted by `(leaf, v, w)`; only the wedge file needs the single
/// run-global sort.
struct LeafBatch {
    wedges: ExtVec<LeafRecord>,
    edges: ExtVec<LeafRecord>,
    info: ExtVec<(u32, u32, u32, u32)>,
    count: u32,
}

impl LeafBatch {
    fn new(machine: &Machine) -> Self {
        Self {
            wedges: ExtVec::new(machine),
            edges: ExtVec::new(machine),
            info: ExtVec::new(machine),
            count: 0,
        }
    }
}

/// Statistics of a cache-oblivious run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheObliviousStats {
    /// Number of recursive subproblems solved.
    pub subproblems: u64,
    /// Deepest recursion level reached.
    pub max_depth: usize,
    /// Times the local high-degree set had to be truncated to 16 entries.
    pub high_degree_truncations: u64,
    /// Number of multi-way partition sweeps performed.
    pub partition_sweeps: u64,
}

/// Runs the cache-oblivious randomized algorithm on `graph` with the given
/// random seed under `units`; returns recursion statistics.
///
/// Every worker replicates the top of the refinement tree (strictly above
/// [`DEFAULT_SPAWN_DEPTH`]) — the per-level bits are a function of `seed`
/// and the level alone, so all workers expand the identical tree — and each
/// node *at* the spawn depth is one whole subtree unit processed only by its
/// owner. Leaf and high-degree emissions of the replicated top are
/// individually claimed, so their triangles are emitted exactly once across
/// the pool.
pub(crate) fn run_cache_oblivious(
    graph: &ExtGraph,
    seed: u64,
    recorder: &mut PhaseRecorder,
    units: &mut ShardCursor<'_>,
) -> CacheObliviousStats {
    let machine = graph.machine().clone();
    let e = graph.edge_count();
    if e < 3 {
        return CacheObliviousStats {
            subproblems: 1,
            max_depth: 0,
            high_degree_truncations: 0,
            partition_sweeps: 0,
        };
    }
    // Depth limit log₄ E (a function of the input size only).
    let depth_limit = ((e as f64).ln() / 4f64.ln()).ceil() as usize;

    // Root canonical edge list. The input is already sorted, which the
    // defensive sort detects in one charged scan and answers with a copy —
    // this is exactly the call site the sorted-input early exit exists for.
    let io0 = machine.io();
    let root = emalgo::oblivious_sort_by_key(graph.edges(), |e| (e.u, e.v));
    recorder.record("root_sort", io0, machine.io());

    // The per-level refinement bits: one 4-wise independent function per tree
    // depth, derived from the seed by a fixed splitmix sequence. Memoised —
    // the routing scans query every endpoint's colour at every level (at most
    // two bits each, see `RefinedColoring::child_color`), and the memo's
    // in-core footprint is tracked on the gauge through
    // `ctx.bit_cache_lease`.
    let mut bit_seed = seed;
    let mut coloring = RefinedColoring::memoised();
    coloring.push_batch((0..depth_limit).map(|_| FourWise::new(splitmix(&mut bit_seed))));

    let mut ctx = CoContext {
        units,
        depth_limit,
        subproblems: 0,
        max_depth: 0,
        high_degree_truncations: 0,
        partition_sweeps: 0,
        bit_cache_lease: machine.gauge().lease(0),
        leaf_batch: LeafBatch::new(&machine),
    };
    let root = PendingNode {
        edges: root,
        summary: None,
        target: (1, 1, 1),
        depth: 0,
    };
    let io0 = machine.io();
    drive_depth_first(&mut ctx, &machine, &coloring, root);
    recorder.record("recursion", io0, machine.io());
    let io0 = machine.io();
    close_oversized_leaves(&mut ctx, &machine, &coloring);
    recorder.record("leaf_batch", io0, machine.io());
    CacheObliviousStats {
        subproblems: ctx.subproblems,
        max_depth: ctx.max_depth,
        high_degree_truncations: ctx.high_degree_truncations,
        partition_sweeps: ctx.partition_sweeps,
    }
}

/// Whether the ordered colour pair `(cu, cv)` (colours of an edge's smaller
/// and larger endpoint) appears among the pairs a proper triangle of `target`
/// would use.
fn pair_compatible(cu: u64, cv: u64, target: ColorVector) -> bool {
    let (c0, c1, c2) = target;
    (cu, cv) == (c0, c1) || (cu, cv) == (c1, c2) || (cu, cv) == (c0, c2)
}

/// Whether edge `e` is compatible with colour vector `target` under the full
/// depth of `coloring` (paper: not *incompatible*, i.e. its ordered colour
/// pair appears among the pairs a proper triangle would use). The production
/// path computes prefix colours once per edge and calls [`pair_compatible`]
/// directly; this wrapper is the reference definition the partition-routing
/// test checks against.
#[cfg_attr(not(test), allow(dead_code))]
fn compatible(e: &Edge, coloring: &RefinedColoring, target: ColorVector) -> bool {
    pair_compatible(coloring.color(e.u), coloring.color(e.v), target)
}

/// Whether triangle `t` is proper for `target` under the depth-`depth`
/// prefix of `coloring`.
fn proper_at(t: &Triangle, coloring: &RefinedColoring, depth: usize, target: ColorVector) -> bool {
    (
        coloring.color_at(t.a, depth),
        coloring.color_at(t.b, depth),
        coloring.color_at(t.c, depth),
    ) == target
}

/// The one place that decides which candidates survive when there are more
/// than [`MAX_LOCAL_HIGH_DEGREE`]: keep the highest degrees, ties broken by
/// smaller vertex id.
fn keep_top_candidates(candidates: &mut Vec<(VertexId, usize)>) {
    if candidates.len() > MAX_LOCAL_HIGH_DEGREE {
        // emlint: allow(uncharged-std, reason = "bounded candidate scratch; the sources cap its length at a small multiple of MAX_LOCAL_HIGH_DEGREE")
        candidates.sort_unstable_by_key(|&(v, d)| (std::cmp::Reverse(d), v));
        candidates.truncate(MAX_LOCAL_HIGH_DEGREE);
    }
}

/// Enforces the ≤ [`MAX_LOCAL_HIGH_DEGREE`] invariant on the high-degree
/// candidates of a subproblem (`(vertex, local degree)` pairs). Returns the
/// vertices to hand to Lemma 1 in ascending id order, plus whether the set
/// had to be truncated. On truncation the highest-degree candidates win
/// (ties broken by id) and the remainder is left to the recursion, which
/// stays exact for any subset — "truncate and recurse" rather than a silent
/// slide into unbounded quadratic Lemma 1 passes.
fn select_local_high_degree(mut candidates: Vec<(VertexId, usize)>) -> (Vec<VertexId>, bool) {
    let truncated = candidates.len() > MAX_LOCAL_HIGH_DEGREE;
    keep_top_candidates(&mut candidates);
    let mut high: Vec<VertexId> = candidates.into_iter().map(|(v, _)| v).collect();
    high.sort_unstable(); // emlint: allow(uncharged-std, reason = "O(1)-bounded candidate list")
    (high, truncated)
}

/// Resolves the exact local high-degree set from a [`HeavyHitters`] summary.
///
/// If no tracked vertex can clear the bar even with the counter error added
/// (the common case), the set is provably empty and no scan happens at all.
/// Otherwise one charged counting scan over `edges()` measures the ≤ 16
/// candidates' exact degrees.
fn resolve_high_degree<I: Iterator<Item = Edge>>(
    machine: &Machine,
    summary: &HeavyHitters,
    e_here: usize,
    edges: impl Fn() -> I,
) -> (Vec<VertexId>, bool) {
    let possible = summary.possible_high(e_here);
    if possible.is_empty() {
        return (Vec::new(), false);
    }
    let _lease = machine.gauge().lease(2 * possible.len() as u64);
    let mut degrees = vec![0usize; possible.len()];
    for e in edges() {
        machine.work(1);
        if let Ok(i) = possible.binary_search(&e.u) {
            degrees[i] += 1;
        }
        if let Ok(i) = possible.binary_search(&e.v) {
            degrees[i] += 1;
        }
    }
    let exact: Vec<(VertexId, usize)> = possible
        .into_iter()
        .zip(degrees)
        .filter(|&(_, d)| 8 * d >= e_here)
        .collect();
    select_local_high_degree(exact)
}

/// Step 1 of one subproblem: Lemma 1 over the local high-degree vertices,
/// emitting the proper triangles through each and removing its edges before
/// the next. Returns the list with every `high` vertex's edges removed.
fn enumerate_high_degree(
    ctx: &mut CoContext<'_, '_>,
    mut edges: ExtVec<Edge>,
    high: &[VertexId],
    coloring: &RefinedColoring,
    depth: usize,
    target: ColorVector,
) -> ExtVec<Edge> {
    let mut enumerated_all = true;
    for &v in high {
        enumerate_through_vertex(
            &edges,
            v,
            SortKind::Oblivious,
            |t| proper_at(&t, coloring, depth, target),
            ctx.units,
        );
        // Remove the vertex's edges so no later step sees them again.
        edges = remove_incident_edges(&edges, &[v]);
        if edges.len() < 3 {
            enumerated_all = false;
            break;
        }
    }
    if !enumerated_all {
        // The loop stopped early; the remaining high vertices cannot close
        // any more proper triangles among < 3 edges, but their edges must
        // still be excluded from the children.
        edges = remove_incident_edges(&edges, high);
    }
    edges
}

/// The eight child colour vectors of `target`, in slot order.
fn child_vectors(target: ColorVector) -> [ColorVector; CHILDREN] {
    let (c0, c1, c2) = target;
    let mut children = [(0u64, 0u64, 0u64); CHILDREN];
    let mut k = 0;
    for z0 in [2 * c0 - 1, 2 * c0] {
        for z1 in [2 * c1 - 1, 2 * c1] {
            for z2 in [2 * c2 - 1, 2 * c2] {
                children[k] = (z0, z1, z2);
                k += 1;
            }
        }
    }
    children
}

/// Constant-size base case, entirely in core: the sorted edge list is leased
/// onto the memory gauge, every vertex's out-neighbour run yields its
/// wedges, and each wedge is closed by binary search in the list itself. No
/// wedge file, no sort — the only I/O is the one charged read of the
/// segment. The segment holds at most [`BASE_CASE_EDGES`] edges.
fn solve_leaf_in_core(
    machine: &Machine,
    segment: impl Iterator<Item = Edge>,
    mut filter: impl FnMut(Triangle) -> bool,
    sink: &mut dyn TriangleSink,
) {
    let mut lease = machine.gauge().lease(0);
    let mut buf = [(0u32, 0u32); BASE_CASE_EDGES];
    let mut len = 0;
    for e in segment {
        machine.work(1);
        buf[len] = (e.u, e.v);
        len += 1;
        lease.grow(1);
    }
    let edges = &buf[..len];
    debug_assert!(edges.windows(2).all(|w| w[0] <= w[1]));
    let probe_cost = 1 + edges.len().max(2).ilog2() as u64;
    let mut i = 0;
    while i < edges.len() {
        let u = edges[i].0;
        let mut j = i;
        while j < edges.len() && edges[j].0 == u {
            j += 1;
        }
        for x in i..j {
            for y in (x + 1)..j {
                // A wedge v–u–w closes a triangle iff {v, w} is an edge.
                machine.work(probe_cost);
                let (v, w) = (edges[x].1.min(edges[y].1), edges[x].1.max(edges[y].1));
                if edges.binary_search(&(v, w)).is_ok() {
                    let t = Triangle::new(u, v, w);
                    if filter(t) {
                        sink.emit(t);
                    }
                }
            }
        }
        i = j;
    }
}

/// One scan of an oversized leaf's sorted edge segment, appending its wedges
/// and its edges (both tagged with the fresh leaf id) to the run-global
/// batch files. The join itself happens once for all such leaves, in
/// [`close_oversized_leaves`].
fn batch_oversized_leaf(
    machine: &Machine,
    batch: &mut LeafBatch,
    segment: impl Iterator<Item = Edge>,
    target: ColorVector,
    depth: usize,
) {
    let leaf = batch.count;
    batch.count += 1;
    let (t0, t1, t2) = target;
    batch
        .info
        .push((t0 as u32, t1 as u32, t2 as u32, depth as u32));

    let mut lease = machine.gauge().lease(0);
    let mut current: Option<u32> = None;
    let mut out_neighbours: Vec<u32> = Vec::new();
    let flush = |u: u32, outn: &mut Vec<u32>, wedges: &mut ExtVec<LeafRecord>| {
        for i in 0..outn.len() {
            for j in (i + 1)..outn.len() {
                machine.work(1);
                let (v, w) = (outn[i].min(outn[j]), outn[i].max(outn[j]));
                wedges.push((leaf, v, w, u));
            }
        }
        outn.clear();
    };
    for e in segment {
        machine.work(1);
        if current != Some(e.u) {
            if let Some(u) = current {
                flush(u, &mut out_neighbours, &mut batch.wedges);
            }
            current = Some(e.u);
            lease.shrink(lease.words());
        }
        out_neighbours.push(e.v);
        lease.grow(1);
        batch.edges.push((leaf, e.u, e.v, 0));
    }
    if let Some(u) = current {
        flush(u, &mut out_neighbours, &mut batch.wedges);
    }
}

/// The batched base case's closing pass: sort the run-global wedge file once
/// by `(leaf, v, w)` (the edge file is already in that order) and stream a
/// tagged two-source merge over both. An edge arrives before its equal-key
/// wedges (tag 0 wins ties), so a wedge closes a triangle exactly when the
/// last edge seen carries its key; the leaf-info stream supplies each leaf's
/// colour vector and depth for the properness filter.
fn close_oversized_leaves(
    ctx: &mut CoContext<'_, '_>,
    machine: &Machine,
    coloring: &RefinedColoring,
) {
    if ctx.leaf_batch.count == 0 {
        return;
    }
    let wedges_sorted =
        emalgo::oblivious_sort_by_key(&ctx.leaf_batch.wedges, |&(l, v, w, _)| (l, v, w));
    ctx.leaf_batch.wedges.clear();
    debug_assert!(emalgo::is_sorted_by_key(
        &ctx.leaf_batch.edges,
        |&(l, v, w, _)| (l, v, w)
    ));

    let mut info_iter = ctx.leaf_batch.info.iter();
    let mut info_next: u32 = 0;
    let mut current_info: Option<(u32, u32, u32, u32)> = None;
    let mut last_edge: Option<(u32, u32, u32)> = None;
    for (tag, (l, v, w, u)) in kway_merge_tagged(
        machine,
        vec![ctx.leaf_batch.edges.iter(), wedges_sorted.iter()],
        |&(l, v, w, _)| (l, v, w),
    ) {
        if tag == 0 {
            last_edge = Some((l, v, w));
            continue;
        }
        if last_edge != Some((l, v, w)) {
            continue;
        }
        while info_next <= l {
            current_info = info_iter.next();
            info_next += 1;
        }
        let (t0, t1, t2, leaf_depth) = current_info.expect("leaf info for every tagged record");
        let t = Triangle::new(u, v, w);
        let target = (u64::from(t0), u64::from(t1), u64::from(t2));
        if proper_at(&t, coloring, leaf_depth as usize, target) {
            ctx.units.emit(t);
        }
    }
}

// ---------------------------------------------------------------------------
// The depth-first driver: an explicit subproblem stack.
// ---------------------------------------------------------------------------

/// A pending subproblem of the explicit depth-first stack — exactly the
/// arguments the old recursion passed.
struct PendingNode {
    edges: ExtVec<Edge>,
    /// Heavy-hitter summary fed by the parent's routing scan; `None` at the
    /// root, which pays for its own summary scan.
    summary: Option<HeavyHitters>,
    target: ColorVector,
    depth: usize,
}

/// One frame of the explicit stack. `Release` marks where the old recursion
/// dropped a parent's child-summaries gauge lease (after its whole subtree),
/// keeping the gauge accounting identical frame for frame. A `Node` frame
/// carries its heavy-hitter summary inline; boxing it would put one heap
/// allocation per child back on the routing path.
#[allow(clippy::large_enum_variant)]
enum Frame {
    Node(PendingNode),
    Release(MemLease),
}

/// The driver loop: pop a frame, process it, push its children. Identical
/// operation order to the old recursion (children pushed last-child-first so
/// child 0 runs next; a parent's summary lease rides as a `Release` frame
/// below its children), so I/O, work, gauge and emissions are bit-identical.
fn drive_depth_first(
    ctx: &mut CoContext<'_, '_>,
    machine: &Machine,
    coloring: &RefinedColoring,
    root: PendingNode,
) {
    let mut stack = vec![Frame::Node(root)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Release(lease) => drop(lease),
            Frame::Node(node) => process_node(ctx, machine, coloring, node, &mut stack),
        }
    }
}

/// Processes one pending subproblem — the body of the old recursion, with
/// "recurse on the eight children" replaced by "push the eight children".
fn process_node(
    ctx: &mut CoContext<'_, '_>,
    machine: &Machine,
    coloring: &RefinedColoring,
    node: PendingNode,
    stack: &mut Vec<Frame>,
) {
    let PendingNode {
        edges,
        summary: inherited,
        target,
        depth,
    } = node;
    ctx.subproblems += 1;
    ctx.max_depth = ctx.max_depth.max(depth);
    let e_here = edges.len();
    if e_here < 3 {
        return;
    }
    // A node *at* the spawn depth is one whole subtree work unit: its owner
    // processes it and everything below (descendants sit beyond the spawn
    // depth and are never gated — they exist only on the owner's stack);
    // every other worker drops it here, before any charged access. Dead
    // nodes (< 3 edges) return above on every worker alike, so the claim
    // stream stays aligned across the pool.
    if depth == DEFAULT_SPAWN_DEPTH
        && !ctx
            .units
            .claim(WorkUnitKind::RefinementSubtree { depth, target })
    {
        return;
    }
    // Strictly above the spawn depth the tree is replicated on every worker,
    // and the *emissions* (leaves, oversized leaves, high-degree Lemma 1
    // passes) are individually sharded so each triangle is emitted exactly
    // once across the pool.
    let gated = depth < DEFAULT_SPAWN_DEPTH;
    if e_here <= BASE_CASE_EDGES {
        if gated
            && !ctx
                .units
                .claim(WorkUnitKind::RefinementLeaf { depth, target })
        {
            return;
        }
        solve_leaf_in_core(
            machine,
            edges.iter(),
            |t| proper_at(&t, coloring, depth, target),
            ctx.units,
        );
        return;
    }
    if depth >= ctx.depth_limit {
        if gated
            && !ctx
                .units
                .claim(WorkUnitKind::RefinementLeaf { depth, target })
        {
            return;
        }
        // This leaf's triangles appear only in the batch close at the end
        // of the run, which no unit prefix can describe.
        ctx.units.end_checkpoints();
        batch_oversized_leaf(machine, &mut ctx.leaf_batch, edges.iter(), target, depth);
        return;
    }

    // ---- Step 1: local high-degree vertices. ----
    // Below the root the parent's routing scan already built this child's
    // heavy-hitter summary; only the root pays for its own summary scan.
    let summary = inherited.unwrap_or_else(|| HeavyHitters::of_stream(machine, edges.iter()));
    let (high, truncated) = resolve_high_degree(machine, &summary, e_here, || edges.iter());
    ctx.high_degree_truncations += u64::from(truncated);

    let mut current = edges;
    if !high.is_empty() {
        // On a replicated node the Lemma 1 enumeration is one work unit; the
        // other workers must still strip the high-degree vertices' edges —
        // [`enumerate_high_degree`] returns exactly the incident-removal of
        // its input, so every worker descends with the identical edge list.
        if !gated
            || ctx
                .units
                .claim(WorkUnitKind::RefinementHighDegree { depth, target })
        {
            current = enumerate_high_degree(ctx, current, &high, coloring, depth, target);
        } else {
            current = remove_incident_edges(&current, &high);
        }
        if current.len() < 3 {
            return;
        }
    }

    // ---- Steps 2–3: all eight children in one routing scan (this node's
    // own partition sweep), child degree summaries fed en passant. ----
    ctx.partition_sweeps += 1;
    let children = child_vectors(target);
    let (c0, c1, c2) = target;
    // The summaries stay resident until the last child consumes its own, so
    // the lease must span the whole subtree below this node: it rides the
    // stack as a Release frame underneath the eight children.
    let summary_lease = machine.gauge().lease(CHILDREN as u64 * HeavyHitters::WORDS);
    let mut summaries: [HeavyHitters; CHILDREN] = Default::default();
    let buckets = {
        let summaries = &mut summaries;
        let mut prev: Option<Edge> = None;
        emalgo::scan_partition(&current, CHILDREN, move |e: &Edge| {
            // The one-scan sortedness debug-assert: children must inherit
            // the parent's (u, v) order, checked inline at zero extra I/O.
            debug_assert!(
                prev.is_none_or(|p| p <= *e),
                "edge segment lost its inherited sort order"
            );
            prev = Some(*e);
            // Every edge here is compatible with `target`, so its smaller
            // endpoint is coloured c0 or c1 and its larger one c1 or c2.
            let cu = coloring.child_color(e.u, depth, c0, c1);
            let cv = coloring.child_color(e.v, depth, c1, c2);
            let mut mask = 0u32;
            for (i, &child) in children.iter().enumerate() {
                if pair_compatible(cu, cv, child) {
                    mask |= 1 << i;
                    summaries[i].feed_edge(e);
                }
            }
            mask
        })
    };
    drop(current);
    ctx.bit_cache_lease.resize(coloring.cached_bits() as u64);

    stack.push(Frame::Release(summary_lease));
    for ((bucket, &child_target), summary) in buckets
        .into_iter()
        .zip(children.iter())
        .zip(summaries)
        .rev()
    {
        stack.push(Frame::Node(PendingNode {
            edges: bucket,
            summary: Some(summary),
            target: child_target,
            depth: depth + 1,
        }));
    }
}

/// A small deterministic seed sequence (splitmix64) so one user-supplied seed
/// drives the whole per-level bit schedule reproducibly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::StrictSink;
    use emsim::{EmConfig, Machine};
    use graphgen::{generators, naive};
    use kwise::BitFunctionFamily;

    fn run(g: &graphgen::Graph, cfg: EmConfig, seed: u64) -> (u64, u64, CacheObliviousStats) {
        let machine = Machine::new(cfg);
        let eg = ExtGraph::load(&machine, g);
        machine.cold_cache();
        let before = machine.io().total();
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        let stats =
            run_cache_oblivious(&eg, seed, &mut rec, &mut ShardCursor::solo(&eg, &mut sink));
        (sink.len() as u64, machine.io().total() - before, stats)
    }

    #[test]
    fn counts_match_oracle_on_er_graphs_under_both_drivers() {
        for seed in [3u64, 12] {
            let g = generators::erdos_renyi(120, 900, seed);
            let expected = naive::count_triangles(&g);
            let (got, _, stats) = run(&g, EmConfig::new(1 << 9, 32), seed);
            assert_eq!(got, expected, "seed {seed}");
            assert!(stats.subproblems > 1);
            assert_eq!(stats.high_degree_truncations, 0);
        }
    }

    #[test]
    fn counts_match_oracle_on_structured_graphs() {
        let clique = generators::clique(20);
        let (got, _, _) = run(&clique, EmConfig::new(256, 32), 1);
        assert_eq!(got, 1140);

        let star = generators::star(200);
        let (got, _, _) = run(&star, EmConfig::new(256, 32), 1);
        assert_eq!(got, 0);

        let lolli = generators::lollipop(10, 40);
        let (got, _, _) = run(&lolli, EmConfig::new(256, 32), 2);
        assert_eq!(got, 120);
    }

    #[test]
    fn different_seeds_agree_on_the_count() {
        let g = generators::erdos_renyi(100, 800, 5);
        let expected = naive::count_triangles(&g);
        for seed in 0..4u64 {
            let (got, _, _) = run(&g, EmConfig::new(512, 32), seed);
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn more_memory_reduces_ios_without_any_code_awareness() {
        // The defining property of cache-obliviousness: the same run on a
        // machine with more internal memory performs fewer block transfers,
        // even though the algorithm never inspects M.
        let g = generators::erdos_renyi(300, 3000, 9);
        let (_, io_small, _) = run(&g, EmConfig::new(256, 32), 7);
        let (_, io_large, _) = run(&g, EmConfig::new(1 << 13, 32), 7);
        assert!(
            io_large * 2 < io_small,
            "expected fewer I/Os with 32x memory (small={io_small}, large={io_large})"
        );
    }

    #[test]
    fn recursion_depth_is_bounded_by_log4_e() {
        let g = generators::erdos_renyi(200, 1600, 3);
        let (_, _, stats) = run(&g, EmConfig::new(512, 32), 11);
        let limit = ((1600f64).ln() / 4f64.ln()).ceil() as usize;
        assert!(stats.max_depth <= limit);
    }

    #[test]
    fn heavy_hitter_summary_is_exact_for_high_degree_detection() {
        // A planted hub among noise: the summary must surface the hub, the
        // verification scan must measure it exactly, and a hubless stream
        // must prove emptiness without any candidates.
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let mut edges: Vec<Edge> = Vec::new();
        for i in 0..40u32 {
            edges.push(Edge::new(1000, 2000 + i)); // hub of degree 40
        }
        for i in 0..160u32 {
            edges.push(Edge::new(2 * i, 10_000 + i)); // 160 degree-1 pairs
        }
        edges.sort_unstable();
        let e_here = edges.len(); // 200 edges; threshold deg >= 25
        let v = ExtVec::from_slice(&machine, &edges);
        let summary = HeavyHitters::of_stream(&machine, v.iter());
        assert!(
            summary.possible_high(e_here).contains(&1000),
            "the hub must be tracked"
        );
        let (high, truncated) = resolve_high_degree(&machine, &summary, e_here, || v.iter());
        assert_eq!(high, vec![1000]);
        assert!(!truncated);

        // Remove the hub: no candidate survives the error-adjusted bar, so
        // the set resolves empty (and in the common case without any scan).
        let quiet: Vec<Edge> = edges.iter().copied().filter(|e| e.u != 1000).collect();
        let vq = ExtVec::from_slice(&machine, &quiet);
        let sq = HeavyHitters::of_stream(&machine, vq.iter());
        let (high, _) = resolve_high_degree(&machine, &sq, quiet.len(), || vq.iter());
        assert!(high.is_empty());
    }

    /// The growable-list Misra–Gries summary the fixed-array
    /// [`HeavyHitters`] replaced, kept as the reference it must match.
    #[derive(Default)]
    struct ReferenceHeavyHitters {
        counters: Vec<(VertexId, u64)>,
        decrements: u64,
    }

    impl ReferenceHeavyHitters {
        fn feed(&mut self, v: VertexId) {
            if let Some(c) = self.counters.iter_mut().find(|(x, _)| *x == v) {
                c.1 += 1;
                return;
            }
            if self.counters.len() < MAX_LOCAL_HIGH_DEGREE {
                self.counters.push((v, 1));
                return;
            }
            self.decrements += 1;
            for c in &mut self.counters {
                c.1 -= 1;
            }
            self.counters.retain(|&(_, n)| n > 0);
        }

        fn possible_high(&self, e_here: usize) -> Vec<VertexId> {
            let mut out: Vec<VertexId> = self
                .counters
                .iter()
                .filter(|&&(_, n)| 8 * (n + self.decrements) >= e_here as u64)
                .map(|&(v, _)| v)
                .collect();
            out.sort_unstable();
            out
        }
    }

    #[test]
    fn fixed_array_heavy_hitters_match_the_reference_summary() {
        let mut state = 5u64;
        let mut streams: Vec<Vec<VertexId>> = Vec::new();
        // Uniform streams over alphabets below, at and above the 16 counters.
        for alphabet in [3u64, 16, 17, 24, 100, 5000] {
            streams.push(
                (0..3000)
                    .map(|_| (splitmix(&mut state) % alphabet) as u32)
                    .collect(),
            );
        }
        // A skewed stream: one hub in every third position among noise.
        streams.push(
            (0..3000)
                .map(|i| {
                    if i % 3 == 0 {
                        7
                    } else {
                        (splitmix(&mut state) % 400) as u32
                    }
                })
                .collect(),
        );
        // Churn: cycling through more distinct vertices than there are
        // counters makes every 17th feed a decrement round.
        for distinct in [17u32, 20, 33] {
            streams.push((0..3000).map(|i| i % distinct).collect());
        }
        for (s, stream) in streams.iter().enumerate() {
            let mut fixed = HeavyHitters::default();
            let mut reference = ReferenceHeavyHitters::default();
            for (i, &v) in stream.iter().enumerate() {
                fixed.feed(v);
                reference.feed(v);
                assert_eq!(
                    fixed.counters(),
                    &reference.counters[..],
                    "stream {s}, feed {i}"
                );
                assert_eq!(
                    fixed.decrements, reference.decrements,
                    "stream {s}, feed {i}"
                );
                let e_here = (i + 2) / 2;
                assert_eq!(
                    fixed.possible_high(e_here),
                    reference.possible_high(e_here),
                    "stream {s}, feed {i}"
                );
            }
            assert!(
                s < 6 || reference.decrements > 0,
                "stream {s} never reached a decrement round"
            );
        }
    }

    #[test]
    fn partition_routing_agrees_with_per_child_compatibility_filters() {
        // The single-pass router must produce, for every child vector,
        // exactly the edges the old eight-filter implementation kept.
        let g = generators::erdos_renyi(80, 400, 4);
        let machine = Machine::new(EmConfig::new(1 << 12, 64));
        let eg = ExtGraph::load(&machine, &g);
        let edges = emalgo::oblivious_sort_by_key(eg.edges(), |e| (e.u, e.v));

        let fam = BitFunctionFamily::new(1, 99);
        let mut coloring = RefinedColoring::identity();
        coloring.push(fam.function(0));

        let children: Vec<ColorVector> = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
            .into_iter()
            .chain([(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)])
            .collect();
        let coloring_ref = &coloring;
        let buckets = emalgo::scan_partition(&edges, 8, |e: &Edge| {
            let (cu, cv) = (coloring_ref.color(e.u), coloring_ref.color(e.v));
            let mut mask = 0u32;
            for (i, &child) in children.iter().enumerate() {
                if pair_compatible(cu, cv, child) {
                    mask |= 1 << i;
                }
            }
            mask
        });
        for (i, bucket) in buckets.iter().enumerate() {
            let expected =
                emalgo::scan_filter(&edges, |e| compatible(e, coloring_ref, children[i]));
            assert_eq!(bucket.load_all(), expected.load_all(), "child {i}");
            // Sortedness is inherited by every bucket.
            assert!(emalgo::is_sorted_by_key(bucket, |e| (e.u, e.v)));
        }
    }

    #[test]
    fn clique16_sits_exactly_on_the_high_degree_boundary() {
        // K16: E = 120, every vertex has degree 15 and 8·15 = 120 ≥ E, so all
        // 16 vertices are local high-degree — the maximum the invariant
        // allows. The run must stay exact without any truncation.
        let g = generators::clique(16);
        let (got, _, stats) = run(&g, EmConfig::new(256, 32), 5);
        assert_eq!(got, 560); // C(16, 3)
        assert_eq!(stats.high_degree_truncations, 0);
    }

    #[test]
    fn high_degree_selection_keeps_the_invariant_under_overflow() {
        // Within the invariant: all candidates kept, ascending.
        let ok: Vec<(VertexId, usize)> = (0..16u32).map(|v| (v, 100 - v as usize)).collect();
        let (high, truncated) = select_local_high_degree(ok);
        assert!(!truncated);
        assert_eq!(high, (0..16u32).collect::<Vec<_>>());

        // Beyond it (only reachable if the degree accounting drifts): the 16
        // highest-degree candidates survive, ties broken by id, result sorted.
        let overflow: Vec<(VertexId, usize)> =
            (0..20u32).map(|v| (v, 1000 - 10 * v as usize)).collect();
        let (high, truncated) = select_local_high_degree(overflow);
        assert!(truncated);
        assert_eq!(high, (0..16u32).collect::<Vec<_>>());

        let tied: Vec<(VertexId, usize)> = (0..18u32).rev().map(|v| (v, 7)).collect();
        let (high, truncated) = select_local_high_degree(tied);
        assert!(truncated);
        assert_eq!(high, (0..16u32).collect::<Vec<_>>(), "ties broken by id");
    }

    #[test]
    fn checkpoint_hook_writes_nothing_once_a_leaf_is_batched() {
        // The oversized-leaf rule. A batched leaf emits its triangles only
        // in the batch close at the end of the run, so no unit prefix may
        // claim it done: once `leaf_batch.count > 0`, a claim that is due a
        // checkpoint must write none. (No small input found by searching
        // seeds and generators batches an oversized leaf, so the rule is
        // exercised here by forcing one: a depth limit of 0 makes the root
        // an oversized leaf.)
        use crate::checkpoint::CheckpointSpec;
        use crate::sink::{CollectingSink, DurableSink};
        use crate::Algorithm;

        let g = generators::erdos_renyi(40, 200, 6);
        let machine = Machine::new(EmConfig::new(256, 32));
        let eg = ExtGraph::load(&machine, &g);
        let dir = std::env::temp_dir().join(format!("trienum-leaf-rule-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CheckpointSpec {
            path: dir.join("ckpt.json"),
            interval_io: 0,
        };
        let alg = Algorithm::CacheObliviousRandomized { seed: 1 };
        let kind = WorkUnitKind::RefinementLeaf {
            depth: 0,
            target: (1, 1, 1),
        };
        let mut collected = CollectingSink::new();
        let mut durable = DurableSink::new(&mut collected);
        let mut units = ShardCursor::recoverable(&eg, &mut durable, alg, None, Some(&spec));
        let coloring = RefinedColoring::memoised();
        let mut ctx = CoContext {
            units: &mut units,
            depth_limit: 0,
            subproblems: 0,
            max_depth: 0,
            high_degree_truncations: 0,
            partition_sweeps: 0,
            bit_cache_lease: machine.gauge().lease(0),
            leaf_batch: LeafBatch::new(&machine),
        };
        let root = PendingNode {
            edges: emalgo::scan_filter(eg.edges(), |_| true),
            summary: None,
            target: (1, 1, 1),
            depth: 0,
        };
        drive_depth_first(&mut ctx, &machine, &coloring, root);
        assert_eq!(ctx.leaf_batch.count, 1, "the root must be batched");
        for _ in 0..3 {
            assert!(ctx.units.claim(kind), "a solo cursor owns every unit");
        }
        assert!(
            !spec.path.exists(),
            "a checkpoint was written past a batched leaf"
        );
        close_oversized_leaves(&mut ctx, &machine, &coloring);
        drop(ctx);
        assert_eq!(units.emitted(), naive::count_triangles(&g));

        // Control: the same claims with an empty batch do checkpoint.
        let mut units = ShardCursor::recoverable(&eg, &mut durable, alg, None, Some(&spec));
        for _ in 0..2 {
            units.claim(kind);
        }
        let ck = crate::checkpoint::Checkpoint::load(&spec.path).expect("control checkpoint");
        assert_eq!(ck.units_done, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_cache_lease_is_released_after_the_run() {
        let g = generators::erdos_renyi(150, 1200, 2);
        let machine = Machine::new(EmConfig::new(1 << 10, 32));
        let eg = ExtGraph::load(&machine, &g);
        let mut sink = StrictSink::new();
        let mut rec = PhaseRecorder::new(machine.gauge());
        run_cache_oblivious(&eg, 3, &mut rec, &mut ShardCursor::solo(&eg, &mut sink));
        assert_eq!(machine.gauge().in_use(), 0);
        assert!(machine.gauge().peak() > 0, "memoised bits were accounted");
    }
}
