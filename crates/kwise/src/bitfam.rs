//! The candidate family of two-colourings used by the derandomization.

use crate::fourwise::FourWise;

/// A finite family of bit functions `β_j : V → {0, 1}` from which the greedy
/// derandomization (paper Section 4) picks, at every refinement level, the
/// function minimising the colour-balance potential of inequality (4).
///
/// # Substitution for the paper's explicit family
///
/// The paper instantiates the family with the explicit almost-4-wise
/// independent (small-bias) construction of Alon–Goldreich–Håstad–Peralta
/// (`t = O((log V / α)²)` functions). Here each candidate is a seeded 4-wise
/// independent bit function instead, with a family size modelled on
/// Lemma 6's (see [`BitFunctionFamily::recommended_size`]). Nothing in the
/// analysis is taken on trust from that substitution: the greedy step
/// evaluates the **exact** potential of every candidate (one scan of the edge
/// list, as in the paper) and keeps the minimiser, and the final colouring
/// quality `X_ξ ≤ e·E·M` is measured and reported by the caller, so the
/// combinatorial guarantee is checked at run time rather than inherited from
/// the family's fine print.
#[derive(Debug, Clone)]
pub struct BitFunctionFamily {
    funcs: Vec<FourWise>,
}

impl BitFunctionFamily {
    /// Creates a family of `count` candidate bit functions derived from
    /// `seed`.
    pub fn new(count: usize, seed: u64) -> Self {
        assert!(count > 0, "family must contain at least one function");
        let funcs = (0..count)
            .map(|j| {
                FourWise::new(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(j as u64),
                )
            })
            .collect();
        Self { funcs }
    }

    /// The recommended family size for a vertex universe of size `v`:
    /// `⌈(log₂ v · log₂ c)²⌉` clamped to `[16, 512]`, mirroring the
    /// `O((log(V)/α)²)` size of Lemma 6 with `α = 1/log c`.
    pub fn recommended_size(v: usize, c: usize) -> usize {
        let lv = (v.max(2) as f64).log2();
        let lc = (c.max(2) as f64).log2();
        ((lv * lc).powi(2).ceil() as usize).clamp(16, 512)
    }

    /// Number of candidate functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the family is empty (never true for a constructed family).
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// The `j`-th candidate function.
    pub fn function(&self, j: usize) -> FourWise {
        self.funcs[j]
    }

    /// Evaluates candidate `j` on vertex `v`.
    pub fn eval(&self, j: usize, v: u64) -> bool {
        self.funcs[j].eval_bit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_has_distinct_members() {
        let fam = BitFunctionFamily::new(32, 5);
        assert_eq!(fam.len(), 32);
        // Distinct candidates should disagree on at least one of a few probes.
        let probes: Vec<u64> = (0..64).collect();
        let signatures: std::collections::HashSet<Vec<bool>> = (0..fam.len())
            .map(|j| probes.iter().map(|&v| fam.eval(j, v)).collect())
            .collect();
        assert!(signatures.len() > 28, "most candidates should be distinct");
    }

    #[test]
    fn recommended_size_scales_and_clamps() {
        assert_eq!(BitFunctionFamily::recommended_size(2, 2), 16);
        let mid = BitFunctionFamily::recommended_size(100_000, 16);
        assert!(mid > 16 && mid <= 512);
        assert_eq!(BitFunctionFamily::recommended_size(1 << 30, 1 << 20), 512);
    }

    #[test]
    fn candidates_are_roughly_balanced() {
        let fam = BitFunctionFamily::new(8, 77);
        for j in 0..fam.len() {
            let ones = (0..2000u64).filter(|&v| fam.eval(j, v)).count();
            assert!(
                (700..=1300).contains(&ones),
                "candidate {j} is too skewed: {ones}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_family_rejected() {
        let _ = BitFunctionFamily::new(0, 1);
    }
}
