//! Semirings — the algebra every GraphBLAS multiply is parameterised with.
//!
//! The paper's masked-SpGEMM (`C = M ⊙ (A × B)`) is written over the reals
//! "for simplicity, but GraphBLAS permits the use of any semiring" (§II-A).
//! Every kernel in `mspgemm-core` is generic over [`Semiring`], so the same
//! code path runs arithmetic SpGEMM, boolean reachability, tropical
//! shortest-path relaxation and the `plus_pair` semiring that triangle
//! counting uses.

use std::fmt::Debug;

/// A semiring `(T, ⊕, ⊗, 0)` as used by GraphBLAS-style multiplies.
///
/// Requirements (unchecked, but exercised by the property tests in this
/// module):
///
/// * `⊕` is associative and commutative with identity [`Semiring::zero`];
/// * `⊗` is associative;
/// * `0` annihilates under `⊗` *for the purposes of sparsity*: kernels never
///   multiply by stored zeros, they simply skip absent entries, so the
///   annihilation property is structural rather than algebraic.
///
/// Implementors are zero-sized marker types so that kernels monomorphise to
/// straight-line arithmetic with no dynamic dispatch — critical for a kernel
/// the paper shows is sensitive to per-element instruction counts.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Element type flowing through the computation. Ordered so fused
    /// `select`-by-threshold stages can run on any semiring's values.
    type T: Copy + PartialEq + PartialOrd + Debug + Send + Sync + 'static;

    /// Human-readable name used by the benchmark reporters.
    const NAME: &'static str;

    /// The additive identity (also the value conceptually stored at absent
    /// positions).
    fn zero() -> Self::T;

    /// The additive monoid `⊕` (the "accumulate" of the saxpy update in
    /// Fig. 3 line 12 of the paper).
    fn add(a: Self::T, b: Self::T) -> Self::T;

    /// The multiplicative operation `⊗` (the "scale" of the saxpy update).
    fn mul(a: Self::T, b: Self::T) -> Self::T;

    /// The multiplicative identity, where one exists. Used by generators and
    /// tests to fabricate pattern matrices with unit values; semirings
    /// without a meaningful `one` should return a conventional non-zero.
    fn one() -> Self::T;

    /// Fused multiply-accumulate `acc ⊕ (a ⊗ b)`. Kernels call this in their
    /// inner loop; the default is fine, but semirings over floats can
    /// override it with `mul_add` when that is profitable.
    #[inline(always)]
    fn fma(acc: Self::T, a: Self::T, b: Self::T) -> Self::T {
        Self::add(acc, Self::mul(a, b))
    }
}

/// The conventional arithmetic semiring `(f64, +, ×, 0)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type T = f64;
    const NAME: &'static str = "plus_times_f64";

    #[inline(always)]
    fn zero() -> f64 {
        0.0
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn one() -> f64 {
        1.0
    }
}

/// The boolean semiring `(bool, ∨, ∧, false)` — structural reachability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type T = bool;
    const NAME: &'static str = "lor_land_bool";

    #[inline(always)]
    fn zero() -> bool {
        false
    }
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
    #[inline(always)]
    fn one() -> bool {
        true
    }
}

/// The tropical (min-plus) semiring `(u64, min, +, ∞)` — shortest paths.
///
/// `u64::MAX` plays the role of `+∞`; `add` saturates so that `∞ + w = ∞`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type T = u64;
    const NAME: &'static str = "min_plus_u64";

    #[inline(always)]
    fn zero() -> u64 {
        u64::MAX
    }
    #[inline(always)]
    fn add(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }
    #[inline(always)]
    fn one() -> u64 {
        0
    }
}

/// The max-min ("bottleneck") semiring `(u64, max, min, 0)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxMin;

impl Semiring for MaxMin {
    type T = u64;
    const NAME: &'static str = "max_min_u64";

    #[inline(always)]
    fn zero() -> u64 {
        0
    }
    #[inline(always)]
    fn add(a: u64, b: u64) -> u64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    #[inline(always)]
    fn one() -> u64 {
        u64::MAX
    }
}

/// The `plus_pair` semiring `(u64, +, pair, 0)` with `pair(a, b) = 1`.
///
/// This is the semiring triangle counting actually runs under
/// (`GxB_PLUS_PAIR_INT64` in SuiteSparse:GraphBLAS): each structural match
/// between a row of `A` and a row of `B` contributes exactly 1, so
/// `C[i,j]` counts the wedges `i→k→j`, and masking by `A` keeps only those
/// closed into triangles — exactly the Fig. 2 computation of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlusPair;

impl Semiring for PlusPair {
    type T = u64;
    const NAME: &'static str = "plus_pair_u64";

    #[inline(always)]
    fn zero() -> u64 {
        0
    }
    #[inline(always)]
    fn add(a: u64, b: u64) -> u64 {
        a + b
    }
    #[inline(always)]
    fn mul(_a: u64, _b: u64) -> u64 {
        1
    }
    #[inline(always)]
    fn one() -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_rt::testkit::{any_u64, bools, check};

    /// proptest's default case count, kept for parity.
    const CASES: usize = 256;

    fn assoc_comm_add<S: Semiring>(a: S::T, b: S::T, c: S::T) {
        assert_eq!(S::add(a, b), S::add(b, a), "{} ⊕ not commutative", S::NAME);
        assert_eq!(
            S::add(S::add(a, b), c),
            S::add(a, S::add(b, c)),
            "{} ⊕ not associative",
            S::NAME
        );
        assert_eq!(S::add(a, S::zero()), a, "{} zero not ⊕-identity", S::NAME);
    }

    fn assoc_mul<S: Semiring>(a: S::T, b: S::T, c: S::T) {
        assert_eq!(
            S::mul(S::mul(a, b), c),
            S::mul(a, S::mul(b, c)),
            "{} ⊗ not associative",
            S::NAME
        );
    }

    #[test]
    fn bool_semiring_laws() {
        check("bool_semiring_laws", CASES, (bools(), bools(), bools()), |(a, b, c)| {
            assoc_comm_add::<BoolOrAnd>(a, b, c);
            assoc_mul::<BoolOrAnd>(a, b, c);
        });
    }

    #[test]
    fn minplus_semiring_laws() {
        let s = (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40);
        check("minplus_semiring_laws", CASES, s, |(a, b, c)| {
            assoc_comm_add::<MinPlus>(a, b, c);
            assoc_mul::<MinPlus>(a, b, c);
            // distributivity: a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)
            assert_eq!(
                MinPlus::mul(a, MinPlus::add(b, c)),
                MinPlus::add(MinPlus::mul(a, b), MinPlus::mul(a, c))
            );
        });
    }

    #[test]
    fn maxmin_semiring_laws() {
        check("maxmin_semiring_laws", CASES, (any_u64(), any_u64(), any_u64()), |(a, b, c)| {
            assoc_comm_add::<MaxMin>(a, b, c);
            assoc_mul::<MaxMin>(a, b, c);
        });
    }

    #[test]
    fn pluspair_add_laws() {
        let s = (0u64..1 << 30, 0u64..1 << 30, 0u64..1 << 30);
        check("pluspair_add_laws", CASES, s, |(a, b, c)| {
            assoc_comm_add::<PlusPair>(a, b, c);
            // pair(x, y) == 1 always
            assert_eq!(PlusPair::mul(a, b), 1);
        });
    }

    #[test]
    fn plustimes_add_identity() {
        check("plustimes_add_identity", CASES, -1e9f64..1e9f64, |a| {
            assert_eq!(PlusTimes::add(a, PlusTimes::zero()), a);
            assert_eq!(PlusTimes::mul(a, PlusTimes::one()), a);
        });
    }

    #[test]
    fn fma_matches_add_mul() {
        let s = (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6);
        check("fma_matches_add_mul", CASES, s, |(acc, a, b)| {
            assert_eq!(PlusTimes::fma(acc, a, b), acc + a * b);
        });
    }

    #[test]
    fn minplus_infinity_saturates() {
        assert_eq!(MinPlus::mul(MinPlus::zero(), 5), u64::MAX);
        assert_eq!(MinPlus::add(MinPlus::zero(), 5), 5);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            PlusTimes::NAME,
            BoolOrAnd::NAME,
            MinPlus::NAME,
            MaxMin::NAME,
            PlusPair::NAME,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
