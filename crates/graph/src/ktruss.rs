//! k-truss decomposition by support peeling.
//!
//! The k-truss of a graph is the maximal subgraph in which every edge
//! participates in at least `k − 2` triangles. The GraphBLAS formulation
//! (Low et al., cited by the paper's §I) alternates the masked product
//! `S = A ⊙ (A × A)` — per-edge triangle support, i.e. exactly the
//! paper's benchmark kernel — with edge deletion, until a fixpoint.
//!
//! Two implementations are provided:
//!
//! * [`ktruss`] — each peeling round is one fused
//!   [`PlanGraph`](mspgemm_core::PlanGraph): the masked product, the
//!   support filter (`select v >= k-2`) and the re-canonicalisation to
//!   ones (`spones`) run in a single pass over the worker pool, so the
//!   support matrix never materialises and each row band is filtered
//!   while still cache-hot.
//! * [`ktruss_unfused`] — the same loop through a plain
//!   [`Session`], materialising support / select / spones as separate
//!   matrices. Kept as the bit-identity reference and the benchmark
//!   baseline.
//!
//! Both short-circuit `k == 2` *before* running any product: the 2-truss
//! keeps every edge unconditionally (support ≥ 0 is vacuous), so the
//! answer is `spones(A)` — an earlier revision still paid one full masked
//! SpGEMM just to throw the result away.

use mspgemm_core::{Config, Executor, GraphBuilder, Session};
use mspgemm_sparse::{Csr, PlusPair, SparseError};

/// Result of a k-truss computation.
#[derive(Clone, Debug)]
pub struct KTrussResult {
    /// Boolean adjacency of the k-truss subgraph (symmetric).
    pub truss: Csr<u64>,
    /// Peeling rounds until the fixpoint.
    pub rounds: usize,
}

/// The support `k − 2` every edge of the k-truss needs; `k < 2` is an
/// [`SparseError::InvalidConfig`].
fn min_support(k: usize) -> Result<u64, SparseError> {
    match k.checked_sub(2) {
        Some(s) => Ok(s as u64),
        None => Err(SparseError::InvalidConfig {
            detail: format!("k-truss is defined for k >= 2, got k = {k}"),
        }),
    }
}

/// Compute the k-truss of a symmetric loop-free adjacency matrix using a
/// fused support→select→spones graph per peeling round.
///
/// `k >= 2`, else [`SparseError::InvalidConfig`]; the 2-truss is the graph
/// itself minus nothing (every edge trivially has ≥ 0 triangles), so
/// peeling starts mattering at `k = 3`.
pub fn ktruss<T: Copy>(a: &Csr<T>, k: usize, config: &Config) -> Result<KTrussResult, SparseError> {
    let min_support = min_support(k)?;
    let mut current = a.spones(1u64);
    // 2-truss: every edge survives vacuously — answer before any product.
    if min_support == 0 {
        return Ok(KTrussResult { truss: current, rounds: 1 });
    }
    let exec = Executor::global();
    let mut rounds = 0;
    loop {
        rounds += 1;
        // One fused graph per round: the structure shrinks every round, so
        // (like a Session rebuilding its plan) the symbolic phase re-runs,
        // but the numeric phase does product + select + spones in one pass.
        let mut gb = GraphBuilder::<PlusPair>::on(exec, *config);
        let x = gb.input();
        let n = gb.product(x, x, x);
        gb.select_ge(n, min_support);
        gb.fill(n, 1u64);
        let mut pg = gb.build(&[&current])?;
        let (mut outs, _) = pg.execute(&[&current])?;
        let Some(kept) = outs.pop() else {
            return Err(SparseError::Internal {
                detail: "k-truss graph produced no output matrix".to_string(),
            });
        };
        if kept.nnz() == current.nnz() {
            return Ok(KTrussResult { truss: kept, rounds });
        }
        current = kept;
        if current.nnz() == 0 {
            return Ok(KTrussResult { truss: current, rounds });
        }
    }
}

/// The same peeling loop through an unfused [`Session`]: support, the
/// select filter and the spones re-canonicalisation each materialise a
/// separate matrix. Bit-identical to [`ktruss`] — the fusion test suite
/// and the `fusion` benchmark both lean on that.
pub fn ktruss_unfused<T: Copy>(
    a: &Csr<T>,
    k: usize,
    config: &Config,
) -> Result<KTrussResult, SparseError> {
    let min_support = min_support(k)?;
    let mut current = a.spones(1u64);
    if min_support == 0 {
        return Ok(KTrussResult { truss: current, rounds: 1 });
    }
    let mut rounds = 0;
    // The peeling loop re-enters the same kernel with a fresh (smaller)
    // structure each round, so run it through a Session: the executor's
    // worker pool and scratch persist across rounds while the symbolic
    // plan transparently rebuilds as edges disappear.
    let mut session = Session::<PlusPair>::new(*config);
    loop {
        rounds += 1;
        // per-edge support on the current subgraph
        let (support, _) = session.execute(&current, &current, &current)?;
        // keep edges with enough support. `support` stores an entry for
        // every surviving *written* position; edges of `current` whose
        // support row entry is absent have support 0.
        let kept = support.select(|_, _, v| v >= min_support);
        if kept.nnz() == current.nnz() {
            // `kept ⊆ current` with equal nnz ⇒ identical structure, and
            // `current` is already all-ones: returning it skips the spones
            // re-materialisation an earlier revision paid on every
            // terminal round.
            return Ok(KTrussResult { truss: current, rounds });
        }
        current = kept.spones(1u64);
        if current.nnz() == 0 {
            return Ok(KTrussResult { truss: current, rounds });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Coo;

    fn undirected(edges: &[(usize, usize)], n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push_symmetric(u, v, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    fn cfg() -> Config {
        Config::builder().n_threads(2).n_tiles(4).build()
    }

    #[test]
    fn triangle_is_a_3_truss() {
        let a = undirected(&[(0, 1), (1, 2), (0, 2)], 3);
        let r = ktruss(&a, 3, &cfg()).unwrap();
        assert_eq!(r.truss.nnz(), 6); // all 3 undirected edges survive
    }

    #[test]
    fn tail_edge_is_peeled_from_3_truss() {
        // triangle 0-1-2 plus pendant edge 2-3
        let a = undirected(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let r = ktruss(&a, 3, &cfg()).unwrap();
        assert_eq!(r.truss.nnz(), 6, "pendant edge must be removed");
        assert!(!r.truss.contains(2, 3));
        assert!(r.truss.contains(0, 1));
    }

    #[test]
    fn k4_is_a_4_truss_but_not_5() {
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in u + 1..4 {
                edges.push((u, v));
            }
        }
        let a = undirected(&edges, 4);
        // every edge of K4 is in exactly 2 triangles → 4-truss survives
        let r4 = ktruss(&a, 4, &cfg()).unwrap();
        assert_eq!(r4.truss.nnz(), 12);
        // 5-truss needs support 3 → everything peels away
        let r5 = ktruss(&a, 5, &cfg()).unwrap();
        assert_eq!(r5.truss.nnz(), 0);
    }

    #[test]
    fn two_truss_keeps_everything() {
        // The k == 2 answer is spones(A), short-circuited before any
        // product. On a triangle-free path the product would drop every
        // edge, so a k == 2 that ran it would return an empty truss here.
        let path = undirected(&[(0, 1), (1, 2)], 3);
        let triangle = undirected(&[(0, 1), (1, 2), (0, 2)], 3);
        for r in [ktruss(&path, 2, &cfg()), ktruss_unfused(&path, 2, &cfg())] {
            let r = r.unwrap();
            assert_eq!(r.truss.nnz(), 4);
            assert_eq!(r.rounds, 1);
        }
        for r in [ktruss(&triangle, 2, &cfg()), ktruss_unfused(&triangle, 2, &cfg())] {
            assert_eq!(r.unwrap().truss.nnz(), 6);
        }
    }

    #[test]
    fn cascading_peel_takes_multiple_rounds() {
        // chain of triangles sharing single vertices: removing the last
        // triangle's weak edge cascades
        // triangles: (0,1,2), (2,3,4); edge (4,5) pendant
        let a = undirected(
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)],
            6,
        );
        let r = ktruss(&a, 3, &cfg()).unwrap();
        assert!(!r.truss.contains(4, 5));
        assert!(r.truss.contains(0, 1));
        assert!(r.truss.contains(3, 4));
        assert_eq!(r.truss.nnz(), 12);
    }

    #[test]
    fn truss_is_symmetric() {
        let g = mspgemm_gen::er::erdos_renyi(100, 400, 3);
        let r = ktruss(&g, 3, &cfg()).unwrap();
        assert!(r.truss.is_structurally_symmetric());
    }

    #[test]
    fn fused_matches_unfused_across_k() {
        let g = mspgemm_gen::er::erdos_renyi(120, 700, 5);
        for k in 2..=5 {
            let fused = ktruss(&g, k, &cfg()).unwrap();
            let unfused = ktruss_unfused(&g, k, &cfg()).unwrap();
            assert_eq!(fused.truss, unfused.truss, "k = {k}");
            assert_eq!(fused.rounds, unfused.rounds, "k = {k}");
        }
    }

    #[test]
    fn k_below_two_is_an_invalid_config() {
        let a = undirected(&[(0, 1)], 2);
        for k in [0, 1] {
            for r in [ktruss(&a, k, &cfg()), ktruss_unfused(&a, k, &cfg())] {
                match r {
                    Err(SparseError::InvalidConfig { detail }) => {
                        assert!(detail.contains(&format!("k = {k}")), "{detail}")
                    }
                    other => panic!("k = {k}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }
}
