//! Reference answers computed by plain loops over adjacency lists. They
//! share no code with the library's kernels, accumulators or scheduler,
//! and run before any timed phase.

use std::collections::VecDeque;

use crate::stats::Fnv;
use masked_spgemm_repro::sparse::Csr;

/// Sorted neighbour lists of a structurally symmetric matrix.
fn adjacency<T: Copy>(a: &Csr<T>) -> Vec<Vec<u32>> {
    (0..a.nrows()).map(|i| a.row(i).0.to_vec()).collect()
}

fn common(x: &[u32], y: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `M ⊙ (A × A)` over plus-pair for a symmetric `A`: entry `(i, j)` of
/// the mask holds the number of common neighbours of `i` and `j`, and is
/// stored only when that number is positive.
pub fn masked_pair(a: &Csr<u64>, mask: &Csr<u64>) -> Csr<u64> {
    assert!(
        a.is_structurally_symmetric(),
        "the oracle assumes a symmetric operand"
    );
    let mut row_ptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..mask.nrows() {
        let ni = a.row(i).0;
        for &j in mask.row(i).0 {
            let n = common(ni, a.row(j as usize).0);
            if n > 0 {
                cols.push(j);
                vals.push(n);
            }
        }
        row_ptr.push(cols.len());
    }
    Csr::try_from_parts(mask.nrows(), mask.ncols(), row_ptr, cols, vals)
        .expect("rows are walked in order with sorted columns")
}

/// The k-truss by repeated support peeling: the number of stored entries
/// (twice the edges) and a digest of the surviving structure, row by row.
pub fn ktruss(a: &Csr<u64>, k: u64) -> (usize, u64) {
    let mut adj = adjacency(a);
    loop {
        let next: Vec<Vec<u32>> = adj
            .iter()
            .map(|nu| {
                nu.iter()
                    .copied()
                    .filter(|&v| common(nu, &adj[v as usize]) + 2 >= k)
                    .collect()
            })
            .collect();
        let changed = next.iter().zip(&adj).any(|(x, y)| x.len() != y.len());
        adj = next;
        if !changed {
            break;
        }
    }
    (
        adj.iter().map(Vec::len).sum(),
        structure_digest(a.nrows(), &adj),
    )
}

/// Digest of a square structure, as [`truss_digest`] reads it back off a
/// library result.
fn structure_digest(n: usize, adj: &[Vec<u32>]) -> u64 {
    let mut h = Fnv::new();
    h.u64(n as u64);
    for row in adj {
        h.u64(row.len() as u64);
        for &j in row {
            h.u64(u64::from(j));
        }
    }
    h.finish()
}

/// [`ktruss`]'s digest of a library k-truss result.
pub fn truss_digest(t: &Csr<u64>) -> u64 {
    let adj = adjacency(t);
    structure_digest(t.nrows(), &adj)
}

/// Breadth-first levels and shortest-path counts from each source.
pub struct Paths {
    /// `levels[s][v]`: hops from source `s` to `v`, `u32::MAX` if unreached.
    pub levels: Vec<Vec<u32>>,
    /// `sigma[s][v]`: shortest paths from source `s` to `v`.
    pub sigma: Vec<Vec<f64>>,
}

pub fn paths(a: &Csr<u64>, sources: &[usize]) -> Paths {
    let n = a.nrows();
    let mut out = Paths {
        levels: Vec::new(),
        sigma: Vec::new(),
    };
    for &s in sources {
        let mut level = vec![u32::MAX; n];
        let mut sigma = vec![0.0f64; n];
        level[s] = 0;
        sigma[s] = 1.0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in a.row(u).0 {
                let v = v as usize;
                if level[v] == u32::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
                if level[v] == level[u] + 1 {
                    sigma[v] += sigma[u];
                }
            }
        }
        out.levels.push(level);
        out.sigma.push(sigma);
    }
    out
}

/// Digest of per-source BFS levels, as `bfs_levels_multi` returns them.
pub fn levels_digest(levels: &[Vec<u32>]) -> u64 {
    let mut h = Fnv::new();
    for row in levels {
        h.u64(row.len() as u64);
        for &l in row {
            h.u64(u64::from(l));
        }
    }
    h.finish()
}

/// Digest of the path-count waves `σ_0 ..= σ_D` that the batched Brandes
/// forward sweep returns: wave `d` holds `(s, v, σ)` for every `v` at
/// depth `d` from source `s`.
pub fn sigma_digest(p: &Paths) -> u64 {
    let depth = p
        .levels
        .iter()
        .flatten()
        .filter(|&&l| l != u32::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    let mut h = Fnv::new();
    for d in 0..=depth {
        for (s, (lv, sg)) in p.levels.iter().zip(&p.sigma).enumerate() {
            for (v, (&l, &x)) in lv.iter().zip(sg).enumerate() {
                if l == d {
                    h.u64(s as u64);
                    h.u64(v as u64);
                    h.u64(x.to_bits());
                }
            }
        }
    }
    h.finish()
}

/// [`sigma_digest`] of the library's waves.
pub fn waves_digest(waves: &[Csr<f64>]) -> u64 {
    let mut h = Fnv::new();
    for w in waves {
        for (s, v, x) in w.iter() {
            h.u64(s as u64);
            h.u64(u64::from(v));
            h.u64(x.to_bits());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm_repro::sparse::Coo;

    fn graph(edges: &[(usize, usize)], n: usize) -> Csr<u64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push_symmetric(u, v, 1u64);
        }
        coo.to_csr_with(|x, _| x)
    }

    #[test]
    fn masked_pair_counts_common_neighbours() {
        // a square 0-1-2-3 with the chord 0-2
        let a = graph(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4);
        let c = masked_pair(&a, &a);
        assert_eq!(c.get(0, 2), Some(2)); // via 1 and 3
        assert_eq!(c.get(0, 1), Some(1)); // via 2
        assert_eq!(c.values().iter().sum::<u64>(), 12); // 6 × 2 triangles
    }

    #[test]
    fn ktruss_peels_the_pendant_edge() {
        // a triangle 0-1-2 plus the pendant edge 2-3
        let a = graph(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let (nnz, _) = ktruss(&a, 3);
        assert_eq!(nnz, 6);
    }

    #[test]
    fn paths_count_shortest_routes() {
        // a 4-cycle: two shortest paths from 0 to 2
        let a = graph(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        let p = paths(&a, &[0]);
        assert_eq!(p.levels[0], vec![0, 1, 2, 1]);
        assert_eq!(p.sigma[0][2], 2.0);
    }
}
