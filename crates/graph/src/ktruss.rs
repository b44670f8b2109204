//! k-truss decomposition by support peeling.
//!
//! The k-truss of a graph is the maximal subgraph in which every edge
//! participates in at least `k − 2` triangles. The GraphBLAS formulation
//! (Low et al., cited by the paper's §I) alternates a masked product — the
//! per-edge triangle support, i.e. the paper's benchmark kernel — with
//! edge deletion, until a fixpoint.
//!
//! Support is symmetric: the triangles through `(i, j)` are those through
//! `(j, i)`. So each round computes it once per edge, on `U`, the upper
//! triangle (diagonal included) of the current symmetric edge set `C`:
//! `S_U = U ⊙ (C × C)`. The survivors are a subset of `U` and become the
//! next `U`, and one `O(nnz + n)` pass mirrors their strictly-upper
//! entries into the next `C`. The full mask `C ⊙ (C × C)` would compute
//! every support twice. The paper's cost model charges each row by its
//! mask, `nnz(M[i,:])` in Eq. 2 and Eq. 3, so with `U` each product
//! preloads and gathers half the mask. The truss and the round count are
//! those of the full mask. The diagonal stays in `U` and is never
//! mirrored, so a self-loop peels by its own full-mask support.
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
//! Both take a square, structurally symmetric adjacency matrix, and check
//! it before any product: a non-square matrix is a
//! [`SparseError::ShapeMismatch`] and an asymmetric one a
//! [`SparseError::InvalidConfig`]. Both short-circuit `k == 2` before
//! running any product: the 2-truss keeps every edge unconditionally
//! (support ≥ 0 is vacuous), so the answer is `spones(A)`.

use mspgemm_core::{Config, Executor, GraphBuilder, Session};
use mspgemm_sparse::{Csr, Idx, PlusPair, SparseError};

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

/// The peel's starting edge sets: `C`, the adjacency as ones, and `U`, its
/// upper triangle with the diagonal. `C` is built as the mirror of `U`, so
/// it has `a`'s structure exactly when `a` is symmetric; that comparison
/// is the symmetry check.
fn edge_sets<T: Copy>(a: &Csr<T>) -> Result<(Csr<u64>, Csr<u64>), SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), a.nrows()),
            found: (a.nrows(), a.ncols()),
            context: "ktruss: adjacency",
        });
    }
    let upper = a.select(|i, j, _| j as usize >= i).spones(1u64);
    let full = mirror(&upper);
    if !full.structure_eq(a) {
        return Err(SparseError::InvalidConfig {
            detail: "k-truss needs a structurally symmetric adjacency matrix".to_string(),
        });
    }
    Ok((full, upper))
}

/// The symmetric all-ones matrix whose upper triangle, diagonal included,
/// has `upper`'s structure; `upper` must be square with no entry below the
/// diagonal. Row `i` is the strictly-upper column `i` of `upper`, then
/// `upper`'s row `i`, both ascending, so one counting pass and one scatter
/// build sorted rows in `O(nnz + n)` without a transposed copy.
fn mirror(upper: &Csr<u64>) -> Csr<u64> {
    let n = upper.nrows();
    // row i's mirrored count in row_ptr[i + 1], then the prefix sum
    let mut row_ptr = vec![0usize; n + 1];
    for (i, j, _) in upper.iter() {
        if j as usize > i {
            row_ptr[j as usize + 1] += 1;
        }
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i] + upper.row_nnz(i);
    }
    let mut col_idx = vec![0 as Idx; row_ptr[n]];
    // the next free slot of each row's mirrored prefix: rows of `upper`
    // are visited in ascending order, so every prefix fills sorted
    let mut next = row_ptr[..n].to_vec();
    for i in 0..n {
        let cols = upper.row(i).0;
        let end = row_ptr[i + 1];
        col_idx[end - cols.len()..end].copy_from_slice(cols);
        for &j in cols.iter().filter(|&&j| j as usize > i) {
            col_idx[next[j as usize]] = i as Idx;
            next[j as usize] += 1;
        }
    }
    let nnz = col_idx.len();
    Csr::from_parts_unchecked(n, n, row_ptr, col_idx, vec![1; nnz])
}

/// Compute the k-truss of a symmetric adjacency matrix using a fused
/// support→select→spones graph per peeling round, masked by the upper
/// triangle of the current edge set (see the [module docs](self)).
///
/// `k >= 2`, else [`SparseError::InvalidConfig`]; the 2-truss is the graph
/// itself minus nothing (every edge trivially has ≥ 0 triangles), so
/// peeling starts mattering at `k = 3`. Before any product, a non-square
/// `a` returns [`SparseError::ShapeMismatch`] and a structurally
/// asymmetric one [`SparseError::InvalidConfig`]. The graph is meant to be
/// loop-free; a self-loop is kept while its full-mask support
/// `(A ⊙ (A × A))[i,i]` is at least `k − 2`.
pub fn ktruss<T: Copy>(a: &Csr<T>, k: usize, config: &Config) -> Result<KTrussResult, SparseError> {
    let min_support = min_support(k)?;
    let (mut full, mut upper) = edge_sets(a)?;
    // 2-truss: every edge survives vacuously — answer before any product.
    if min_support == 0 {
        return Ok(KTrussResult { truss: full, rounds: 1 });
    }
    let exec = Executor::global();
    let mut rounds = 0;
    loop {
        rounds += 1;
        // One fused graph per round: the structure shrinks every round, so
        // (like a Session rebuilding its plan) the symbolic phase re-runs,
        // but the numeric phase does product + select + spones in one pass.
        // The graph and its scratch drop at the end of this block, before
        // the next `C` is built.
        let kept = {
            let mut gb = GraphBuilder::<PlusPair>::on(exec, *config);
            let (c, u) = (gb.input(), gb.input());
            let n = gb.product(c, c, u);
            gb.select_ge(n, min_support);
            gb.fill(n, 1u64);
            let mut pg = gb.build(&[&full, &upper])?;
            let (mut outs, _) = pg.execute(&[&full, &upper])?;
            outs.pop().ok_or_else(|| SparseError::Internal {
                detail: "k-truss graph produced no output matrix".to_string(),
            })?
        };
        // the survivors are a subset of `upper`: equal counts, no peel
        if kept.nnz() == upper.nnz() {
            return Ok(KTrussResult { truss: full, rounds });
        }
        upper = kept;
        full = mirror(&upper);
        if upper.nnz() == 0 {
            return Ok(KTrussResult { truss: full, rounds });
        }
    }
}

/// The same peeling loop through an unfused [`Session`]: support on the
/// upper triangle, the select filter and the spones re-canonicalisation
/// each materialise a separate matrix. Bit-identical to [`ktruss`], with
/// the same input checks and errors — the fusion test suite and the
/// `fusion` benchmark both lean on that.
pub fn ktruss_unfused<T: Copy>(
    a: &Csr<T>,
    k: usize,
    config: &Config,
) -> Result<KTrussResult, SparseError> {
    let min_support = min_support(k)?;
    let (mut full, mut upper) = edge_sets(a)?;
    if min_support == 0 {
        return Ok(KTrussResult { truss: full, rounds: 1 });
    }
    let mut rounds = 0;
    // The peeling loop re-enters the same kernel with a fresh (smaller)
    // structure each round, so run it through a Session: the executor's
    // worker pool and scratch persist across rounds while the symbolic
    // plan transparently rebuilds as edges disappear.
    let mut session = Session::<PlusPair>::new(*config);
    loop {
        rounds += 1;
        // per-edge support on the upper triangle of the current subgraph
        let (support, _) = session.execute(&full, &full, &upper)?;
        // keep edges with enough support. `support` stores an entry for
        // every surviving *written* position; edges of `upper` whose
        // support row entry is absent have support 0.
        let kept = support.select(|_, _, v| v >= min_support);
        if kept.nnz() == upper.nnz() {
            // `kept ⊆ upper` with equal nnz ⇒ nothing peeled, and `full`
            // is already all-ones
            return Ok(KTrussResult { truss: full, rounds });
        }
        upper = kept.spones(1u64);
        full = mirror(&upper);
        if upper.nnz() == 0 {
            return Ok(KTrussResult { truss: full, rounds });
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
    fn mirror_restores_the_symmetric_matrix_with_its_diagonal() {
        let mut coo = Coo::new(6, 6);
        for (u, v) in [(0, 1), (0, 5), (1, 2), (2, 5), (3, 4)] {
            coo.push_symmetric(u, v, 2.0);
        }
        for v in [0, 4] {
            coo.push(v, v, 3.0);
        }
        let a = coo.to_csr_with(|x, _| x);
        let (full, upper) = edge_sets(&a).unwrap();
        assert_eq!(full, a.spones(1u64));
        assert_eq!(upper.nnz(), 7, "5 edges once each plus 2 loops");
        assert_eq!(mirror(&Csr::zeros(3, 3)), Csr::zeros(3, 3));
    }

    #[test]
    fn non_square_or_asymmetric_input_is_a_structured_error() {
        let mut coo = Coo::new(3, 4);
        coo.push(0, 1, 1.0);
        let rect = coo.to_csr_with(|x, _| x);
        // a triangle plus the one-way edge 2 → 3
        let mut coo = Coo::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            coo.push_symmetric(u, v, 1.0);
        }
        coo.push(2, 3, 1.0);
        let directed = coo.to_csr_with(|x, _| x);
        for k in [2, 3] {
            for r in [ktruss(&rect, k, &cfg()), ktruss_unfused(&rect, k, &cfg())] {
                assert!(matches!(r, Err(SparseError::ShapeMismatch { .. })), "k = {k}: {r:?}");
            }
            for r in [ktruss(&directed, k, &cfg()), ktruss_unfused(&directed, k, &cfg())] {
                match r {
                    Err(SparseError::InvalidConfig { detail }) => {
                        assert!(detail.contains("symmetric"), "{detail}")
                    }
                    other => panic!("k = {k}: expected InvalidConfig, got {other:?}"),
                }
            }
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
