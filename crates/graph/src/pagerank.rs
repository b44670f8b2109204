//! PageRank by power iteration over the arithmetic semiring.
//!
//! Included as the canonical iterated matrix-vector graph algorithm. Each
//! iteration pushes every vertex's rank share along its out-edges in one
//! pass over the adjacency rows (`Aᵀ · x`, with the dangling mass spread
//! uniformly), reading `A` directly.

use mspgemm_sparse::{Csr, Idx};

/// Options for the PageRank iteration.
#[derive(Clone, Copy, Debug)]
pub struct PageRankOptions {
    /// Damping factor (0.85 is the customary value).
    pub damping: f64,
    /// L1 convergence tolerance.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions { damping: 0.85, tolerance: 1e-9, max_iters: 200 }
    }
}

/// Result of a PageRank computation.
#[derive(Clone, Debug)]
pub struct PageRankResult {
    /// The stationary distribution (sums to 1).
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final L1 residual.
    pub residual: f64,
}

/// PageRank of a (directed or undirected) adjacency matrix; edges read
/// row→column. Dangling vertices redistribute uniformly.
pub fn pagerank<T: Copy>(a: &Csr<T>, opts: &PageRankOptions) -> PageRankResult {
    assert_eq!(a.nrows(), a.ncols(), "adjacency matrix must be square");
    assert!(opts.damping > 0.0 && opts.damping < 1.0, "damping must be in (0,1)");
    let n = a.nrows();
    if n == 0 {
        return PageRankResult { scores: Vec::new(), iterations: 0, residual: 0.0 };
    }
    let out_deg: Vec<usize> = (0..n).map(|v| a.row_nnz(v)).collect();

    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < opts.max_iters && residual > opts.tolerance {
        iterations += 1;
        // dangling mass
        let dangling: f64 =
            (0..n).filter(|&v| out_deg[v] == 0).map(|v| rank[v]).sum();
        let base = (1.0 - opts.damping) / n as f64 + opts.damping * dangling / n as f64;
        next.fill(base);
        for v in 0..n {
            if out_deg[v] == 0 {
                continue;
            }
            let share = opts.damping * rank[v] / out_deg[v] as f64;
            let (cols, _) = a.row(v);
            for &u in cols {
                next[u as usize] += share;
            }
        }
        residual = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
    }
    PageRankResult { scores: rank, iterations, residual }
}

/// The top-`k` vertices by score, sorted descending.
pub fn top_k(result: &PageRankResult, k: usize) -> Vec<(Idx, f64)> {
    let mut idx: Vec<(Idx, f64)> = result
        .scores
        .iter()
        .copied()
        .enumerate()
        .map(|(v, s)| (v as Idx, s))
        .collect();
    idx.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Coo;

    fn directed(edges: &[(usize, usize)], n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn scores_sum_to_one() {
        let a = directed(&[(0, 1), (1, 2), (2, 0), (2, 1)], 3);
        let r = pagerank(&a, &PageRankOptions::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        assert!(r.residual <= 1e-9);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let a = directed(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let r = pagerank(&a, &PageRankOptions::default());
        for &s in &r.scores {
            assert!((s - 0.25).abs() < 1e-8, "{:?}", r.scores);
        }
    }

    #[test]
    fn sink_attracts_rank() {
        // 0 → 2, 1 → 2: vertex 2 is a dangling sink with all in-links
        let a = directed(&[(0, 2), (1, 2)], 3);
        let r = pagerank(&a, &PageRankOptions::default());
        assert!(r.scores[2] > r.scores[0]);
        assert!(r.scores[2] > r.scores[1]);
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hub_ranks_highest_on_web_graph() {
        let g = mspgemm_gen::web::web(2000, mspgemm_gen::web::WebParams::default(), 3);
        let r = pagerank(&g, &PageRankOptions::default());
        let top = top_k(&r, 5);
        // the top PageRank vertex should be among the highest-degree ones
        let top_v = top[0].0 as usize;
        let deg_rank = (0..g.nrows())
            .filter(|&v| g.row_nnz(v) > g.row_nnz(top_v))
            .count();
        assert!(
            deg_rank < g.nrows() / 20,
            "top PR vertex degree-rank {deg_rank} suspiciously low"
        );
    }

    #[test]
    fn empty_graph() {
        let a: Csr<f64> = Csr::zeros(0, 0);
        let r = pagerank(&a, &PageRankOptions::default());
        assert!(r.scores.is_empty());
    }

    #[test]
    fn isolated_vertices_share_uniformly() {
        let a: Csr<f64> = Csr::zeros(4, 4);
        let r = pagerank(&a, &PageRankOptions::default());
        for &s in &r.scores {
            assert!((s - 0.25).abs() < 1e-9);
        }
    }
}
