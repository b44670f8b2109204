//! Level-synchronous BFS in the language of sparse linear algebra.
//!
//! Each level expands the frontier with a masked sparse vector × sparse
//! matrix product under the boolean semiring, `next = ¬visited ⊙
//! (frontier ⊗ A)` ([`masked_vxm`]): the vector analogue of the paper's
//! masked-SpGEMM, with the complement of the visited set as the mask. The
//! paper's §I lists BFS among the kernel's consumers. Expansion is
//! push-only: every frontier vertex scatters along its row of `A`.
//! [`bfs_levels`] and [`bfs_levels_multi`] run the same level loop, which
//! keeps one accumulator for the whole traversal, so a level costs its
//! frontier's edges rather than `n`.

use mspgemm_sparse::vector::{masked_vxm, SparseVec, VxmScratch};
use mspgemm_sparse::{BoolOrAnd, Csr, SparseError};

/// Result of a BFS traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// `levels[v]` = BFS depth of `v` from the source, or `u32::MAX` if
    /// unreachable.
    pub levels: Vec<u32>,
    /// Number of vertices reached (including the source).
    pub reached: usize,
    /// Number of frontier-expansion iterations executed.
    pub iterations: usize,
}

/// Depth marker for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// BFS over a (symmetric or directed) boolean adjacency matrix from
/// `source`. Edges are interpreted row→column (`A[u,v]` = edge `u → v`).
///
/// Errors with [`SparseError::ShapeMismatch`] on a non-square adjacency
/// matrix and [`SparseError::RowOutOfBounds`] on an out-of-range source.
pub fn bfs_levels<T: Copy>(a: &Csr<T>, source: usize) -> Result<BfsResult, SparseError> {
    check_square(a, "bfs_levels: adjacency")?;
    bfs_from(&a.spones(true), source)
}

/// The level loop of both entry points, over a square boolean adjacency
/// matrix. [`masked_vxm`] computes `y = xᵀ·A`: scattering the frontier
/// along its rows reaches each vertex's out-neighbours, which is BFS push.
/// An out-of-range `source` is rejected by the unit frontier.
fn bfs_from(ab: &Csr<bool>, source: usize) -> Result<BfsResult, SparseError> {
    let n = ab.nrows();
    let mut frontier = SparseVec::unit(n, source, true)?;
    let mut levels = vec![UNREACHED; n];
    levels[source] = 0;
    let mut scratch = VxmScratch::default();

    let mut reached = 1usize;
    let mut depth = 0u32;
    let mut iterations = 0usize;

    while !frontier.is_empty() {
        iterations += 1;
        depth += 1;
        // next = ¬visited ⊙ (frontier ⊗ A)
        let next = masked_vxm::<BoolOrAnd>(
            &frontier,
            ab,
            |v| levels[v as usize] == UNREACHED,
            &mut scratch,
        )?;
        for (v, _) in next.iter() {
            levels[v as usize] = depth;
        }
        reached += next.nnz();
        frontier = next;
    }

    Ok(BfsResult { levels, reached, iterations })
}

/// Shared square-adjacency check for the BFS entry points.
fn check_square<T: Copy>(a: &Csr<T>, context: &'static str) -> Result<(), SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), a.nrows()),
            found: (a.nrows(), a.ncols()),
            context,
        });
    }
    Ok(())
}

/// Multi-source BFS: one level vector per entry of `sources`, in order,
/// each equal to the `levels` [`bfs_levels`] returns for that source.
/// Every source runs the same level loop over one shared boolean copy of
/// `A`.
///
/// Errors with [`SparseError::ShapeMismatch`] on a non-square adjacency
/// matrix, even when `sources` is empty, and otherwise with
/// [`SparseError::RowOutOfBounds`] on the first out-of-range source.
pub fn bfs_levels_multi<T: Copy>(
    a: &Csr<T>,
    sources: &[usize],
) -> Result<Vec<Vec<u32>>, SparseError> {
    check_square(a, "bfs_levels_multi: adjacency")?;
    let ab = a.spones(true);
    sources.iter().map(|&s| bfs_from(&ab, s).map(|r| r.levels)).collect()
}

/// Reference BFS with an explicit queue, for tests.
pub fn bfs_levels_naive<T: Copy>(a: &Csr<T>, source: usize) -> Vec<u32> {
    let n = a.nrows();
    let mut levels = vec![UNREACHED; n];
    let mut queue = std::collections::VecDeque::new();
    levels[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let (cols, _) = a.row(u);
        for &v in cols {
            let v = v as usize;
            if levels[v] == UNREACHED {
                levels[v] = levels[u] + 1;
                queue.push_back(v);
            }
        }
    }
    levels
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

    #[test]
    fn path_graph_levels() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3)], 4);
        let r = bfs_levels(&a, 0).unwrap();
        assert_eq!(r.levels, vec![0, 1, 2, 3]);
        assert_eq!(r.reached, 4);
        assert_eq!(r.iterations, 4); // 3 expansions + 1 empty check round
    }

    #[test]
    fn disconnected_component_unreached() {
        let a = undirected(&[(0, 1), (2, 3)], 4);
        let r = bfs_levels(&a, 0).unwrap();
        assert_eq!(r.levels[0], 0);
        assert_eq!(r.levels[1], 1);
        assert_eq!(r.levels[2], UNREACHED);
        assert_eq!(r.levels[3], UNREACHED);
        assert_eq!(r.reached, 2);
    }

    #[test]
    fn directed_edges_respected() {
        // 0 → 1 → 2, no way back
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        let a = coo.to_csr_sum();
        let r = bfs_levels(&a, 0).unwrap();
        assert_eq!(r.levels, vec![0, 1, 2]);
        let r = bfs_levels(&a, 2).unwrap();
        assert_eq!(r.levels, vec![UNREACHED, UNREACHED, 0]);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..5 {
            let g = mspgemm_gen::er::erdos_renyi(150, 300, seed);
            let want = bfs_levels_naive(&g, 0);
            let got = bfs_levels(&g, 0).unwrap();
            assert_eq!(got.levels, want, "seed {seed}");
            assert_eq!(
                got.reached,
                want.iter().filter(|&&l| l != UNREACHED).count()
            );
        }
    }

    #[test]
    fn road_graph_has_large_diameter() {
        let g = mspgemm_gen::road::road(
            30,
            4,
            mspgemm_gen::road::RoadParams { keep_prob: 1.0, shortcut_rate: 0.0, shortcut_radius: 0 },
            1,
        );
        let r = bfs_levels(&g, 0).unwrap();
        let max_level = *r.levels.iter().filter(|&&l| l != UNREACHED).max().unwrap();
        assert!(max_level >= 30, "grid BFS depth {max_level} too small");
    }

    #[test]
    fn long_diameter_lattice_matches_the_queue_oracle() {
        // a full 120 × 40 lattice: 158 levels from a corner, each with a
        // frontier of at most 40 vertices out of 4,800
        let g = mspgemm_gen::road::road(
            120,
            40,
            mspgemm_gen::road::RoadParams {
                keep_prob: 1.0,
                shortcut_rate: 0.0,
                shortcut_radius: 0,
            },
            3,
        );
        let sources = [0, 2_459, 4_799];
        for &s in &sources {
            let got = bfs_levels(&g, s).unwrap();
            assert_eq!(got.levels, bfs_levels_naive(&g, s), "source {s}");
            assert_eq!(got.reached, g.nrows(), "source {s}");
        }
        assert_eq!(bfs_levels(&g, 0).unwrap().iterations, 159);
        let multi = bfs_levels_multi(&g, &sources).unwrap();
        for (levels, &s) in multi.iter().zip(&sources) {
            assert_eq!(levels, &bfs_levels_naive(&g, s), "multi, source {s}");
        }
    }

    #[test]
    fn bad_source_is_a_structured_error() {
        let a = undirected(&[(0, 1)], 2);
        let e = bfs_levels(&a, 5).unwrap_err();
        assert!(matches!(e, SparseError::RowOutOfBounds { row: 5, nrows: 2 }), "{e}");
        // the first out-of-range source is the one reported
        let e = bfs_levels_multi(&a, &[0, 5, 7]).unwrap_err();
        assert!(matches!(e, SparseError::RowOutOfBounds { row: 5, nrows: 2 }), "{e}");
    }

    #[test]
    fn non_square_adjacency_is_a_structured_error() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 1.0);
        let a = coo.to_csr_sum();
        let e = bfs_levels(&a, 0).unwrap_err();
        assert!(matches!(e, SparseError::ShapeMismatch { .. }), "{e}");
        for sources in [&[0usize][..], &[], &[9]] {
            let e = bfs_levels_multi(&a, sources).unwrap_err();
            assert!(matches!(e, SparseError::ShapeMismatch { .. }), "{sources:?}: {e}");
        }
    }

    #[test]
    fn multi_source_matches_single_source() {
        let g = mspgemm_gen::er::erdos_renyi(120, 260, 11);
        let sources = [0usize, 7, 33, 99];
        let batched = bfs_levels_multi(&g, &sources).unwrap();
        assert_eq!(batched.len(), sources.len());
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(batched[s], bfs_levels_naive(&g, src), "source {src}");
        }
    }

    #[test]
    fn multi_source_empty_sources() {
        let a = undirected(&[(0, 1)], 2);
        let levels = bfs_levels_multi(&a, &[]).unwrap();
        assert!(levels.is_empty());
    }

    #[test]
    fn multi_source_on_directed_graph() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(3, 0, 1.0);
        let a = coo.to_csr_sum();
        let levels = bfs_levels_multi(&a, &[0, 3]).unwrap();
        assert_eq!(levels[0], vec![0, 1, 2, UNREACHED]);
        assert_eq!(levels[1], vec![1, 2, 3, 0]);
    }
}
