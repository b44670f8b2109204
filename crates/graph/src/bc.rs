//! Betweenness centrality (Brandes' algorithm over BFS waves).
//!
//! The paper's §I cites betweenness centrality (Solomonik et al.) as a
//! masked-SpGEMM consumer. [`betweenness_centrality`] is the scalar
//! Brandes algorithm: a level-synchronous forward wave that counts
//! shortest paths, then a backward sweep that accumulates dependencies.
//! [`bc_forward_fused`] and [`bc_forward_unfused`] run the forward sweep
//! in the batched form Solomonik et al. use: a `k × n` path-count matrix
//! per BFS depth, each level one masked product whose mask is the next
//! wave, known ahead from [`bfs_levels_multi`].

use crate::bfs::{bfs_levels_multi, UNREACHED};
use mspgemm_core::{Config, Executor, GraphBuilder, Operand, Session};
use mspgemm_sparse::{Coo, Csr, Idx, PlusTimes, SparseError};

/// Exact betweenness centrality for unweighted graphs, computed from the
/// given source vertices (pass all vertices for exact BC, a sample for
/// approximate BC). Scores of undirected graphs count each path twice, as
/// is conventional for adjacency matrices storing both edge directions.
///
/// Errors with [`SparseError::ShapeMismatch`] on a non-square adjacency
/// matrix and [`SparseError::RowOutOfBounds`] on an out-of-range source.
pub fn betweenness_centrality<T: Copy>(
    a: &Csr<T>,
    sources: &[usize],
) -> Result<Vec<f64>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), a.nrows()),
            found: (a.nrows(), a.ncols()),
            context: "betweenness_centrality: adjacency",
        });
    }
    let n = a.nrows();
    let mut bc = vec![0.0f64; n];

    // reusable per-source state
    let mut sigma = vec![0.0f64; n]; // shortest-path counts
    let mut depth = vec![i64::MAX; n];
    let mut delta = vec![0.0f64; n]; // dependencies

    for &s in sources {
        if s >= n {
            return Err(SparseError::RowOutOfBounds { row: s, nrows: n });
        }
        sigma.fill(0.0);
        depth.fill(i64::MAX);
        delta.fill(0.0);

        sigma[s] = 1.0;
        depth[s] = 0;

        // forward: level-synchronous wave, recording per-level frontiers
        let mut waves: Vec<Vec<Idx>> = vec![vec![s as Idx]];
        let mut d = 0i64;
        loop {
            let mut next: Vec<Idx> = Vec::new();
            for &u in &waves[d as usize] {
                let (cols, _) = a.row(u as usize);
                for &v in cols {
                    let vu = v as usize;
                    if depth[vu] == i64::MAX {
                        depth[vu] = d + 1;
                        next.push(v);
                    }
                    if depth[vu] == d + 1 {
                        sigma[vu] += sigma[u as usize];
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            waves.push(next);
            d += 1;
        }

        // backward: accumulate dependencies level by level
        for wave in waves.iter().rev() {
            for &u in wave {
                let uu = u as usize;
                let (cols, _) = a.row(uu);
                for &v in cols {
                    let vu = v as usize;
                    if depth[vu] == depth[uu] + 1 && sigma[vu] > 0.0 {
                        delta[uu] += sigma[uu] / sigma[vu] * (1.0 + delta[vu]);
                    }
                }
                if uu != s {
                    bc[uu] += delta[uu];
                }
            }
        }
    }
    Ok(bc)
}

/// The `k × n` wave matrix `W_d`: `W_d[s, v] = 1` iff vertex `v` sits at
/// BFS depth `d` from source `s`.
fn wave_matrix(levels: &[Vec<u32>], d: u32, n: usize) -> Csr<f64> {
    let mut coo = Coo::new(levels.len(), n);
    for (s, lv) in levels.iter().enumerate() {
        for (v, &l) in lv.iter().enumerate() {
            if l == d {
                coo.push(s, v, 1.0);
            }
        }
    }
    coo.to_csr_with(|a, _| a)
}

/// Deepest BFS level any source reaches.
fn max_depth(levels: &[Vec<u32>]) -> u32 {
    levels
        .iter()
        .flat_map(|lv| lv.iter())
        .filter(|&&l| l != UNREACHED)
        .max()
        .copied()
        .unwrap_or(0)
}

/// Batched Brandes forward sweep as ONE fused multi-op graph.
///
/// The Solomonik et al. formulation the paper cites: the path-count
/// frontier is a `k × n` matrix `σ_d` (one row per source) and each BFS
/// level is a masked product `σ_{d+1} = W_{d+1} ⊙ (σ_d × A)` over
/// plus-times, where `W_{d+1}` is the wave membership mask. The whole
/// sweep chains into a single [`PlanGraph`](mspgemm_core::PlanGraph):
/// depth `d+1`'s product consumes depth `d`'s rows straight out of the
/// shared slot buffers, while still cache-hot, in one worker-pool pass —
/// instead of `D` separate pool dispatches with a materialised `σ_d`
/// between each.
///
/// Returns `σ_0 ..= σ_D` (the depth-0 entry is the unit frontier). Errors
/// propagate from [`bfs_levels_multi`] (non-square adjacency,
/// out-of-range sources) and from graph construction.
pub fn bc_forward_fused<T: Copy>(
    a: &Csr<T>,
    sources: &[usize],
    config: &Config,
) -> Result<Vec<Csr<f64>>, SparseError> {
    let levels = bfs_levels_multi(a, sources)?;
    bc_forward_fused_from_levels(a, &levels, config)
}

/// [`bc_forward_fused`] with the BFS level structure already known —
/// the sweep itself, without the level discovery both pipelines share.
/// `levels` is [`bfs_levels_multi`]'s output (one row per source).
pub fn bc_forward_fused_from_levels<T: Copy>(
    a: &Csr<T>,
    levels: &[Vec<u32>],
    config: &Config,
) -> Result<Vec<Csr<f64>>, SparseError> {
    let n = a.nrows();
    let sigma0 = wave_matrix(levels, 0, n);
    let depth = max_depth(levels);
    if levels.is_empty() || depth == 0 {
        return Ok(vec![sigma0]);
    }
    let af = a.spones(1.0f64);
    let waves: Vec<Csr<f64>> = (1..=depth).map(|d| wave_matrix(levels, d, n)).collect();

    let mut gb = GraphBuilder::<PlusTimes>::on(Executor::global(), *config);
    let s0 = gb.input();
    let ab = gb.input();
    let mut prev: Operand = s0.into();
    for _ in 0..depth {
        let w = gb.input();
        let node = gb.product(prev, ab, w);
        gb.mark_output(node);
        prev = node.into();
    }
    // external slots in declaration order: σ_0, A, then W_1..W_D
    let mut inputs: Vec<&Csr<f64>> = Vec::with_capacity(2 + waves.len());
    inputs.push(&sigma0);
    inputs.push(&af);
    inputs.extend(waves.iter());
    let mut pg = gb.build(&inputs)?;
    let (outs, _) = pg.execute(&inputs)?;

    let mut sigmas = Vec::with_capacity(1 + outs.len());
    sigmas.push(sigma0);
    sigmas.extend(outs);
    Ok(sigmas)
}

/// The same forward sweep through an unfused [`Session`]: one masked
/// product — and one materialised `σ_d` — per BFS level. Bit-identical to
/// [`bc_forward_fused`] (both fold products in the same order); kept as
/// the identity reference and the benchmark baseline.
pub fn bc_forward_unfused<T: Copy>(
    a: &Csr<T>,
    sources: &[usize],
    config: &Config,
) -> Result<Vec<Csr<f64>>, SparseError> {
    let levels = bfs_levels_multi(a, sources)?;
    bc_forward_unfused_from_levels(a, &levels, config)
}

/// [`bc_forward_unfused`] with the BFS level structure already known.
pub fn bc_forward_unfused_from_levels<T: Copy>(
    a: &Csr<T>,
    levels: &[Vec<u32>],
    config: &Config,
) -> Result<Vec<Csr<f64>>, SparseError> {
    let n = a.nrows();
    let sigma0 = wave_matrix(&levels, 0, n);
    let depth = max_depth(&levels);
    if levels.is_empty() || depth == 0 {
        return Ok(vec![sigma0]);
    }
    let af = a.spones(1.0f64);
    let mut session = Session::<PlusTimes>::new(*config);
    let mut sigmas = vec![sigma0];
    for d in 1..=depth {
        let w = wave_matrix(&levels, d, n);
        let Some(prev) = sigmas.last() else { break };
        let (next, _) = session.execute(prev, &af, &w)?;
        sigmas.push(next);
    }
    Ok(sigmas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(edges: &[(usize, usize)], n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push_symmetric(u, v, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    fn all_sources(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn path_graph_middle_is_central() {
        // 0 - 1 - 2: vertex 1 lies on the only 0↔2 path
        let a = undirected(&[(0, 1), (1, 2)], 3);
        let bc = betweenness_centrality(&a, &all_sources(3)).unwrap();
        // directed-pair convention: paths 0→2 and 2→0 both cross vertex 1
        assert_eq!(bc, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn star_graph_center_dominates() {
        let a = undirected(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        let bc = betweenness_centrality(&a, &all_sources(5)).unwrap();
        // center is on every leaf↔leaf path: 4·3 = 12 ordered pairs
        assert_eq!(bc[0], 12.0);
        for leaf in 1..5 {
            assert_eq!(bc[leaf], 0.0);
        }
    }

    #[test]
    fn cycle_is_symmetric() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let bc = betweenness_centrality(&a, &all_sources(4)).unwrap();
        for v in 1..4 {
            assert!((bc[v] - bc[0]).abs() < 1e-12, "cycle BC must be uniform: {bc:?}");
        }
    }

    #[test]
    fn equal_shortest_paths_split_credit() {
        // diamond (4-cycle 0-1-3-2-0): every opposite pair has two equal
        // shortest paths, so every vertex mediates half a path per
        // direction for its opposite pair: bc[v] = 2 · 0.5 = 1 for all v
        let a = undirected(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let bc = betweenness_centrality(&a, &all_sources(4)).unwrap();
        for (v, &score) in bc.iter().enumerate() {
            assert!((score - 1.0).abs() < 1e-12, "vertex {v}: {bc:?}");
        }
    }

    #[test]
    fn sampled_sources_give_partial_scores() {
        let a = undirected(&[(0, 1), (1, 2)], 3);
        let partial = betweenness_centrality(&a, &[0]).unwrap();
        // only the 0→2 path is observed from source 0
        assert_eq!(partial, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn bad_source_is_a_structured_error() {
        let a = undirected(&[(0, 1)], 2);
        let e = betweenness_centrality(&a, &[0, 9]).unwrap_err();
        assert!(matches!(e, SparseError::RowOutOfBounds { row: 9, nrows: 2 }), "{e}");
    }

    #[test]
    fn non_square_adjacency_is_a_structured_error() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 2, 1.0);
        let a = coo.to_csr_sum();
        let e = betweenness_centrality(&a, &[0]).unwrap_err();
        assert!(matches!(e, SparseError::ShapeMismatch { .. }), "{e}");
    }

    fn cfg() -> Config {
        Config::builder().n_threads(2).n_tiles(4).build()
    }

    #[test]
    fn fused_forward_matches_unfused_bit_for_bit() {
        let g = mspgemm_gen::er::erdos_renyi(150, 600, 7);
        let sources = [0usize, 3, 42, 111];
        let fused = bc_forward_fused(&g, &sources, &cfg()).unwrap();
        let unfused = bc_forward_unfused(&g, &sources, &cfg()).unwrap();
        assert_eq!(fused.len(), unfused.len(), "same number of BFS levels");
        for (d, (f, u)) in fused.iter().zip(&unfused).enumerate() {
            assert_eq!(f, u, "sigma at depth {d}");
        }
        assert!(fused.len() > 2, "graph too shallow to exercise chaining");
    }

    #[test]
    fn forward_sigmas_count_shortest_paths() {
        // diamond: two equal-length 0→3 paths through 1 and 2
        let a = undirected(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let sigmas = bc_forward_fused(&a, &[0], &cfg()).unwrap();
        assert_eq!(sigmas.len(), 3); // depths 0, 1, 2
        assert_eq!(sigmas[0].get(0, 0), Some(1.0));
        assert_eq!(sigmas[1].get(0, 1), Some(1.0));
        assert_eq!(sigmas[1].get(0, 2), Some(1.0));
        assert_eq!(sigmas[2].get(0, 3), Some(2.0), "two shortest paths reach 3");
    }

    #[test]
    fn fused_forward_handles_trivial_graphs() {
        // isolated sources: depth 0 only, no product to run
        let a = undirected(&[], 3);
        let sigmas = bc_forward_fused(&a, &[1], &cfg()).unwrap();
        assert_eq!(sigmas.len(), 1);
        assert_eq!(sigmas[0].nnz(), 1);
        // no sources at all
        let sigmas = bc_forward_fused(&a, &[], &cfg()).unwrap();
        assert_eq!(sigmas.len(), 1);
        assert_eq!(sigmas[0].nnz(), 0);
    }

    #[test]
    fn fused_forward_propagates_structured_errors() {
        let a = undirected(&[(0, 1)], 2);
        let e = bc_forward_fused(&a, &[7], &cfg()).unwrap_err();
        assert!(matches!(e, SparseError::RowOutOfBounds { row: 7, nrows: 2 }), "{e}");
    }

    #[test]
    fn disconnected_components_do_not_interact() {
        let a = undirected(&[(0, 1), (1, 2), (3, 4)], 5);
        let bc = betweenness_centrality(&a, &all_sources(5)).unwrap();
        assert_eq!(bc[3], 0.0);
        assert_eq!(bc[4], 0.0);
        assert_eq!(bc[1], 2.0);
    }
}
