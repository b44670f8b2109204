//! Triangle counting — the paper's benchmark workload.
//!
//! "To count the number of triangles (i.e., three interconnected nodes),
//! one can multiply the adjacency matrix with itself to determine the
//! paths of length two between all nodes, and then filter the result by
//! requiring an extra path of length one between the corresponding nodes"
//! (§I). That filter is the mask: `C = A ⊙ (A × A)` over the `plus_pair`
//! semiring, and `Σ C = 6·T` for a symmetric loop-free adjacency matrix
//! (each triangle is counted once per ordered edge).
//!
//! [`count_triangles_ll`] is the Azad-et-al. lower-triangular formulation
//! (`L ⊙ (L × L)`, each triangle counted exactly once) — less work, same
//! kernel, included because the paper cites it as the origin of the
//! masked-SpGEMM primitive.

use mspgemm_core::{spgemm, Config, RunStats};
use mspgemm_sparse::csr::reduce_values;
use mspgemm_sparse::{Csr, PlusPair, SparseError};

/// Count triangles of a symmetric, loop-free boolean adjacency matrix via
/// `C = A ⊙ (A × A)`; returns `Σ C / 6`.
pub fn count_triangles<T: Copy>(a: &Csr<T>, config: &Config) -> Result<u64, SparseError> {
    count_triangles_with_stats(a, config).map(|(t, _)| t)
}

/// [`count_triangles`] plus the driver's [`RunStats`] for the masked
/// product — what the CLI's `--metrics` report is built from.
pub fn count_triangles_with_stats<T: Copy>(
    a: &Csr<T>,
    config: &Config,
) -> Result<(u64, RunStats), SparseError> {
    let ap = a.spones(1u64);
    let (c, stats) = spgemm::<PlusPair>(&ap, &ap, &ap, config)?;
    let total = reduce_values(&c, 0u64, |acc, v| acc + v);
    debug_assert_eq!(total % 6, 0, "Σ C must be divisible by 6 for symmetric A");
    Ok((total / 6, stats))
}

/// Count triangles via the lower-triangular formulation
/// `C = L ⊙ (L × L)` with `L = tril(A)`; returns `Σ C` directly.
///
/// For a triangle `w < k < i`, the single counted wedge is
/// `i → k → w` with mask edge `(i, w)`.
pub fn count_triangles_ll<T: Copy>(a: &Csr<T>, config: &Config) -> Result<u64, SparseError> {
    let l = a.tril().spones(1u64);
    let (c, _) = spgemm::<PlusPair>(&l, &l, &l, config)?;
    Ok(reduce_values(&c, 0u64, |acc, v| acc + v))
}

/// Per-edge triangle support: `C[i,j]` = number of triangles through edge
/// `(i,j)` — exactly `A ⊙ (A × A)` over `plus_pair`. This is the inner
/// kernel of k-truss (§I cites k-truss as a masked-SpGEMM consumer).
pub fn triangle_support<T: Copy>(a: &Csr<T>, config: &Config) -> Result<Csr<u64>, SparseError> {
    let ap = a.spones(1u64);
    spgemm::<PlusPair>(&ap, &ap, &ap, config).map(|(c, _)| c)
}

/// Brute-force oracle: enumerate all vertex triples (test-sized inputs
/// only).
pub fn count_triangles_naive<T: Copy>(a: &Csr<T>) -> u64 {
    let n = a.nrows();
    let mut count = 0u64;
    for u in 0..n {
        let (ucols, _) = a.row(u);
        for &v in ucols {
            let v = v as usize;
            if v <= u {
                continue;
            }
            for &w in ucols {
                let w = w as usize;
                if w <= v {
                    continue;
                }
                if a.contains(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
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
    fn single_triangle() {
        let a = undirected(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(count_triangles(&a, &cfg()).unwrap(), 1);
        assert_eq!(count_triangles_ll(&a, &cfg()).unwrap(), 1);
        assert_eq!(count_triangles_naive(&a), 1);
    }

    #[test]
    fn square_has_no_triangles() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(count_triangles(&a, &cfg()).unwrap(), 0);
        assert_eq!(count_triangles_ll(&a, &cfg()).unwrap(), 0);
    }

    #[test]
    fn k5_has_ten_triangles() {
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        let a = undirected(&edges, 5);
        // C(5,3) = 10
        assert_eq!(count_triangles(&a, &cfg()).unwrap(), 10);
        assert_eq!(count_triangles_ll(&a, &cfg()).unwrap(), 10);
        assert_eq!(count_triangles_naive(&a), 10);
    }

    #[test]
    fn both_formulations_agree_on_random_graph() {
        let g = mspgemm_gen::er::erdos_renyi(200, 800, 42);
        let full = count_triangles(&g, &cfg()).unwrap();
        let ll = count_triangles_ll(&g, &cfg()).unwrap();
        let naive = count_triangles_naive(&g);
        assert_eq!(full, naive);
        assert_eq!(ll, naive);
        assert!(naive > 0, "an ER graph this dense should have triangles");
    }

    #[test]
    fn support_counts_triangles_per_edge() {
        // bowtie: two triangles sharing vertex 2
        let a = undirected(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], 5);
        let s = triangle_support(&a, &cfg()).unwrap();
        assert_eq!(s.get(0, 1), Some(1));
        assert_eq!(s.get(2, 3), Some(1));
        // edge (1,2) participates in one triangle
        assert_eq!(s.get(1, 2), Some(1));
        // Σ support = 6 · 2 triangles
        assert_eq!(reduce_values(&s, 0u64, |a, v| a + v), 12);
    }

    #[test]
    fn rmat_triangles_match_naive() {
        let g = mspgemm_gen::rmat::rmat(7, 6, mspgemm_gen::rmat::RmatParams::default(), 5);
        assert_eq!(count_triangles(&g, &cfg()).unwrap(), count_triangles_naive(&g));
    }
}
