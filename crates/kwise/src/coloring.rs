//! Vertex colourings built from limited-independence hash functions.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::fourwise::FourWise;

/// A random colouring `ξ : V → {0, …, c−1}` drawn from a 4-wise independent
/// family, as used by the cache-aware randomized algorithm (paper Section 2,
/// step 2) with `c = √(E/M)` colours.
#[derive(Debug, Clone, Copy)]
pub struct RandomColoring {
    hash: FourWise,
    colors: u64,
}

impl RandomColoring {
    /// Creates a colouring with `colors ≥ 1` colours from `seed`.
    pub fn new(colors: u64, seed: u64) -> Self {
        assert!(colors >= 1, "need at least one colour");
        Self {
            hash: FourWise::new(seed),
            colors,
        }
    }

    /// Number of colours `c`.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// The colour of vertex `v`, in `[0, c)`.
    pub fn color(&self, v: u32) -> u64 {
        self.hash.eval_range(v as u64, self.colors)
    }
}

/// A colouring produced by iterated refinement
/// `ξ_i(v) = 2·ξ_{i−1}(v) − b_{i−1}(v)`, exactly as in Section 3 (step 2 of
/// the cache-oblivious recursion) and Section 4 (the greedy derandomization).
///
/// The refinement starts from the constant colouring `ξ_0 ≡ 1`; after `i`
/// refinements the colour of a vertex lies in `[2^i·base − (2^i − 1), 2^i·base]`.
/// Only the chosen bit functions are stored (`O(i)` words), so no per-vertex
/// table is ever *required* — a vertex colour is always recomputable from the
/// `O(depth)` stored coefficients.
///
/// A memoised colouring (built with [`RefinedColoring::memoised`])
/// additionally caches, per level, the bits it has already evaluated
/// (`vertex → bit`), so repeated `color`/`bit` queries for the same vertex —
/// the cache-oblivious recursion asks for every endpoint's colour at every
/// level — cost a table lookup instead of re-running the whole degree-3
/// polynomial chain. The memo is a transparent cache over a pure function of
/// the stored coefficients: dropping it (or overflowing [`BIT_CACHE_LIMIT`],
/// which clears the level) never changes any colour. Memoisation is
/// **opt-in** because the memo is real in-core state: a caller on a
/// simulated machine must account its footprint (via
/// [`RefinedColoring::cached_bits`]) on the memory gauge, and callers that
/// cannot afford a per-vertex table (the derandomized cache-aware driver)
/// stay on the default recompute-from-`O(depth)`-words behaviour.
#[derive(Debug, Clone, Default)]
pub struct RefinedColoring {
    levels: Vec<BitLevel>,
    memoise: bool,
}

/// Entries per level above which a level's memo is cleared (bounds the
/// in-core footprint; correctness never depends on the memo's contents).
const BIT_CACHE_LIMIT: usize = 1 << 17;

/// One refinement level: the chosen bit function plus its optional
/// evaluation memo.
#[derive(Debug, Clone)]
struct BitLevel {
    f: FourWise,
    // emlint: allow(uncharged-std, reason = "opt-in evaluation memo, bounded by BIT_CACHE_LIMIT and leased by the cache-aware caller; correctness never depends on it")
    memo: Option<RefCell<HashMap<u32, bool>>>,
}

impl BitLevel {
    fn new(f: FourWise, memoise: bool) -> Self {
        Self {
            f,
            memo: memoise.then(|| RefCell::new(HashMap::new())), // emlint: allow(uncharged-std, reason = "see the BitLevel::memo waiver — bounded, opt-in, caller-leased")
        }
    }

    fn bit(&self, v: u32) -> bool {
        let Some(memo) = &self.memo else {
            return self.f.eval_bit(u64::from(v));
        };
        let mut memo = memo.borrow_mut();
        if let Some(&b) = memo.get(&v) {
            return b;
        }
        let b = self.f.eval_bit(u64::from(v));
        if memo.len() >= BIT_CACHE_LIMIT {
            memo.clear();
        }
        memo.insert(v, b);
        b
    }

    fn cached(&self) -> usize {
        self.memo.as_ref().map_or(0, |m| m.borrow().len())
    }
}

impl RefinedColoring {
    /// The identity (depth-0) refinement: every vertex keeps its base colour.
    /// Colours are recomputed from the stored coefficients on every query.
    pub fn identity() -> Self {
        Self {
            levels: Vec::new(),
            memoise: false,
        }
    }

    /// The identity refinement with per-level bit memoisation enabled for
    /// every subsequently pushed level (see the type-level docs for the
    /// accounting obligation this creates).
    pub fn memoised() -> Self {
        Self {
            levels: Vec::new(),
            memoise: true,
        }
    }

    /// Number of refinement levels applied.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Appends one refinement level using bit function `b` (with a fresh,
    /// empty evaluation memo when this colouring is memoised).
    pub fn push(&mut self, b: FourWise) {
        self.levels.push(BitLevel::new(b, self.memoise));
    }

    /// Appends a whole batch of refinement levels at once — how the
    /// cache-oblivious recursion installs its per-level bit schedule up
    /// front (one shared bit function per tree depth) instead of
    /// pushing/popping per node. Prefix queries then go through
    /// [`RefinedColoring::color_at`].
    pub fn push_batch(&mut self, bits: impl IntoIterator<Item = FourWise>) {
        for b in bits {
            self.push(b);
        }
    }

    /// Removes the most recent refinement level (used when backtracking out
    /// of a recursion level), discarding its memoised bits.
    pub fn pop(&mut self) {
        self.levels.pop();
    }

    /// The colour of vertex `v` when the base colouring assigns `base`.
    ///
    /// With `ξ_0(v) = base` and `ξ_i(v) = 2ξ_{i−1}(v) − b_{i−1}(v)` this is
    /// the value after applying every stored refinement level in order.
    pub fn color_of(&self, base: u64, v: u32) -> u64 {
        let mut c = base;
        for level in &self.levels {
            c = 2 * c - u64::from(level.bit(v));
        }
        c
    }

    /// The colour of vertex `v` starting from the paper's constant base
    /// colouring `ξ_0 ≡ 1`.
    pub fn color(&self, v: u32) -> u64 {
        self.color_of(1, v)
    }

    /// The colour of vertex `v` after only the first `depth ≤ depth()`
    /// refinement levels, from the constant base colouring `ξ_0 ≡ 1`.
    ///
    /// This is the query shape of the cache-oblivious recursion: all
    /// `log₄ E` bit functions are installed once (see
    /// [`RefinedColoring::push_batch`]) and every tree level `d` asks for the
    /// depth-`d` prefix colour, so sibling subproblems share both the bit
    /// functions and the per-level memo instead of re-pushing their own.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the number of stored levels.
    pub fn color_at(&self, v: u32, depth: usize) -> u64 {
        assert!(
            depth <= self.levels.len(),
            "prefix depth {depth} exceeds stored depth {}",
            self.levels.len()
        );
        let mut c = 1u64;
        for level in &self.levels[..depth] {
            c = 2 * c - u64::from(level.bit(v));
        }
        c
    }

    /// The bit chosen for vertex `v` at refinement level `i` (0-based).
    pub fn bit(&self, i: usize, v: u32) -> bool {
        self.levels[i].bit(v)
    }

    /// Total number of memoised bit evaluations across all levels — the
    /// in-core footprint (in entries ≈ words) a simulator-side caller should
    /// register on its memory gauge. Always 0 for a non-memoised colouring.
    pub fn cached_bits(&self) -> usize {
        self.levels.iter().map(BitLevel::cached).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_coloring_range_and_determinism() {
        let c = RandomColoring::new(6, 11);
        for v in 0..500u32 {
            assert!(c.color(v) < 6);
            assert_eq!(c.color(v), RandomColoring::new(6, 11).color(v));
        }
    }

    #[test]
    fn single_color_coloring_is_constant() {
        let c = RandomColoring::new(1, 5);
        assert!((0..100u32).all(|v| c.color(v) == 0));
    }

    #[test]
    fn refinement_produces_children_of_parent_color() {
        // After one refinement, colour values must be in {2c-1, 2c} where c
        // is the parent colour — that is the branching structure the
        // cache-oblivious recursion relies on.
        let fam = crate::BitFunctionFamily::new(4, 3);
        let mut r = RefinedColoring::identity();
        assert_eq!(r.color(42), 1);
        r.push(fam.function(0));
        for v in 0..200u32 {
            let c = r.color(v);
            assert!(c == 1 || c == 2, "colour {c} not a child of 1");
        }
        r.push(fam.function(1));
        for v in 0..200u32 {
            let parent = {
                let mut r1 = RefinedColoring::identity();
                r1.push(fam.function(0));
                r1.color(v)
            };
            let child = r.color(v);
            assert!(child == 2 * parent || child == 2 * parent - 1);
        }
    }

    #[test]
    fn pop_undoes_refinement() {
        let fam = crate::BitFunctionFamily::new(2, 9);
        let mut r = RefinedColoring::identity();
        r.push(fam.function(0));
        let with_one = r.color(7);
        r.push(fam.function(1));
        r.pop();
        assert_eq!(r.color(7), with_one);
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn non_memoised_coloring_keeps_no_per_vertex_state() {
        let fam = crate::BitFunctionFamily::new(2, 33);
        let mut plain = RefinedColoring::identity();
        let mut memo = RefinedColoring::memoised();
        for i in 0..2 {
            plain.push(fam.function(i));
            memo.push(fam.function(i));
        }
        for v in 0..100u32 {
            assert_eq!(plain.color(v), memo.color(v), "vertex {v}");
        }
        assert_eq!(plain.cached_bits(), 0, "identity() must not grow a table");
        assert_eq!(memo.cached_bits(), 200);
    }

    #[test]
    fn memoised_bits_agree_with_direct_evaluation_and_are_counted() {
        let fam = crate::BitFunctionFamily::new(3, 21);
        let mut r = RefinedColoring::memoised();
        for i in 0..3 {
            r.push(fam.function(i));
        }
        assert_eq!(r.cached_bits(), 0);
        for v in 0..50u32 {
            // First query populates the memo, second must hit it; both agree
            // with evaluating the raw bit functions directly.
            let first = r.color(v);
            let second = r.color(v);
            assert_eq!(first, second);
            let mut expected = 1u64;
            for i in 0..3 {
                expected = 2 * expected - u64::from(fam.function(i).eval_bit(u64::from(v)));
            }
            assert_eq!(first, expected, "vertex {v}");
        }
        assert_eq!(r.cached_bits(), 150, "50 vertices x 3 levels");
        r.pop();
        assert_eq!(r.cached_bits(), 100, "popping a level drops its memo");
    }

    #[test]
    fn prefix_colors_agree_with_incremental_refinement() {
        let fam = crate::BitFunctionFamily::new(4, 77);
        let mut full = RefinedColoring::memoised();
        full.push_batch((0..4).map(|i| fam.function(i)));
        assert_eq!(full.depth(), 4);

        let mut incremental = RefinedColoring::identity();
        for depth in 0..=4usize {
            for v in 0..64u32 {
                assert_eq!(
                    full.color_at(v, depth),
                    incremental.color(v),
                    "vertex {v} at depth {depth}"
                );
            }
            if depth < 4 {
                incremental.push(fam.function(depth));
            }
        }
        // The full-depth prefix is the ordinary colour.
        for v in 0..64u32 {
            assert_eq!(full.color_at(v, 4), full.color(v));
            assert_eq!(full.color_at(v, 0), 1);
        }
    }

    #[test]
    #[should_panic]
    fn prefix_depth_beyond_stored_levels_panics() {
        let fam = crate::BitFunctionFamily::new(1, 3);
        let mut r = RefinedColoring::identity();
        r.push(fam.function(0));
        let _ = r.color_at(0, 2);
    }

    #[test]
    fn depth_matches_number_of_levels() {
        let fam = crate::BitFunctionFamily::new(3, 1);
        let mut r = RefinedColoring::identity();
        for i in 0..3 {
            r.push(fam.function(i));
        }
        assert_eq!(r.depth(), 3);
        // With base colour 1 and depth d, colours lie in [2^d - (2^d - 1), 2^d] = [1, 8].
        for v in 0..100u32 {
            let c = r.color(v);
            assert!((1..=8).contains(&c));
        }
    }
}
