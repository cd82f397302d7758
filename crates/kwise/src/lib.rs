//! # kwise — limited-independence hash families and vertex colorings
//!
//! The randomized algorithms of Pagh & Silvestri colour the vertex set with a
//! function drawn from a **4-wise independent family** (Section 2 step 2 and
//! Section 3 step 2), and the deterministic algorithm (Section 4) replaces the
//! random draw by a **greedy choice from a small, almost 4-wise independent
//! family** (Lemma 6, after Alon–Goldreich–Håstad–Peralta).
//!
//! This crate provides:
//!
//! * [`FourWise`] — a 4-wise independent hash family implemented as a random
//!   degree-3 polynomial over the Mersenne prime `p = 2^61 − 1`.
//! * [`RandomColoring`] — a vertex colouring `ξ : V → {0, …, c−1}` built from
//!   a [`FourWise`] draw, as used by the cache-aware randomized algorithm with
//!   `c = √(E/M)` colours.
//! * [`BitFunctionFamily`] — the candidate family of two-colourings
//!   `b : V → {0,1}` that the derandomization greedily selects from (its
//!   docs record how the candidates differ from the paper's explicit
//!   construction).
//! * [`RefinedColoring`] — the coloring `ξ_i(v) = 2ξ_{i−1}(v) − b_{i−1}(v)`
//!   produced by a sequence of chosen bit functions, used both by the
//!   derandomized cache-aware algorithm and by the recursive colour
//!   refinement of the cache-oblivious algorithm.
//! * [`ColorMemo`] — a capacity-bounded `vertex → colour` memo over any
//!   colouring, used by the cache-aware drivers so the partition sort and
//!   the derandomized colour chain stop re-evaluating hash polynomials for
//!   vertices they have already coloured (the caller accounts the table on
//!   its memory gauge).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitfam;
mod coloring;
mod fourwise;
mod memo;

pub use bitfam::BitFunctionFamily;
pub use coloring::{RandomColoring, RefinedColoring};
pub use fourwise::FourWise;
pub use memo::ColorMemo;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coloring_and_refinement_compose() {
        let base = RandomColoring::new(4, 99);
        let fam = BitFunctionFamily::new(8, 123);
        let mut refined = RefinedColoring::identity();
        refined.push(fam.function(3));
        refined.push(fam.function(5));
        // Refining twice quadruples the number of distinct colours reachable
        // from a single base colour.
        let colors: std::collections::HashSet<u64> = (0..1000u32)
            .map(|v| refined.color_of(base.color(v) + 1, v))
            .collect();
        assert!(
            colors.len() > 4,
            "refinement must produce more colour values"
        );
    }
}
