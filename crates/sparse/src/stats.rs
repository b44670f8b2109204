//! Structural statistics used to characterise inputs.
//!
//! The paper's discussion repeatedly ties kernel behaviour to graph
//! structure — road networks vs social networks vs web crawls vs circuits
//! (§IV-B, §V). The experiment harness prints these statistics alongside
//! every run (the way Table I reports `n` and `nnz`) so shape claims can be
//! checked against the synthetic stand-ins.

use crate::Csr;

/// Summary statistics of a sparse matrix's structure.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored entries.
    pub nnz: usize,
    /// Minimum row degree (nnz per row).
    pub min_degree: usize,
    /// Maximum row degree.
    pub max_degree: usize,
    /// Mean row degree.
    pub mean_degree: f64,
    /// Population standard deviation of the row degree.
    pub degree_stddev: f64,
    /// Degree skew: `max_degree / mean_degree`. Road networks sit near 1;
    /// social/web graphs reach thousands. This single number predicts most
    /// of the paper's per-class behaviour differences.
    pub degree_skew: f64,
    /// Number of empty rows.
    pub empty_rows: usize,
    /// Mean |j - i| over stored entries — spatial locality of column
    /// accesses. Low for road/circuit (banded), high for social graphs.
    pub mean_bandwidth: f64,
    /// Fraction of entries with |j - i| ≤ 1024 ("near-diagonal" entries).
    pub near_diagonal_frac: f64,
}

impl MatrixStats {
    /// Compute statistics for `a` in one `O(nnz)` pass.
    pub fn compute<T: Copy>(a: &Csr<T>) -> Self {
        let nrows = a.nrows();
        let nnz = a.nnz();
        let degrees: Vec<usize> = (0..nrows).map(|i| a.row_nnz(i)).collect();
        let min_degree = degrees.iter().copied().min().unwrap_or(0);
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let mean_degree = if nrows == 0 { 0.0 } else { nnz as f64 / nrows as f64 };
        let var = if nrows == 0 {
            0.0
        } else {
            degrees
                .iter()
                .map(|&d| {
                    let diff = d as f64 - mean_degree;
                    diff * diff
                })
                .sum::<f64>()
                / nrows as f64
        };
        let empty_rows = degrees.iter().filter(|&&d| d == 0).count();

        let mut band_sum = 0u64;
        let mut near = 0u64;
        for i in 0..nrows {
            for &j in a.row(i).0 {
                let d = (j as i64 - i as i64).unsigned_abs();
                band_sum += d;
                if d <= 1024 {
                    near += 1;
                }
            }
        }

        MatrixStats {
            nrows,
            ncols: a.ncols(),
            nnz,
            min_degree,
            max_degree,
            mean_degree,
            degree_stddev: var.sqrt(),
            degree_skew: if mean_degree > 0.0 { max_degree as f64 / mean_degree } else { 0.0 },
            empty_rows,
            mean_bandwidth: if nnz == 0 { 0.0 } else { band_sum as f64 / nnz as f64 },
            near_diagonal_frac: if nnz == 0 { 0.0 } else { near as f64 / nnz as f64 },
        }
    }
}

impl std::fmt::Display for MatrixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{}, nnz={} | deg: min={} max={} mean={:.2} sd={:.2} skew={:.1} | \
             empty_rows={} | bandwidth: mean={:.0} near_diag={:.1}%",
            self.nrows,
            self.ncols,
            self.nnz,
            self.min_degree,
            self.max_degree,
            self.mean_degree,
            self.degree_stddev,
            self.degree_skew,
            self.empty_rows,
            self.mean_bandwidth,
            100.0 * self.near_diagonal_frac,
        )
    }
}

/// Histogram of row degrees in power-of-two buckets: bucket `b` counts rows
/// with degree in `[2^b, 2^(b+1))` (bucket 0 also counts degree-0 rows
/// separately via [`DegreeHistogram::zeros`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// Count of zero-degree rows.
    pub zeros: usize,
    /// `buckets[b]` counts rows with `2^b <= degree < 2^(b+1)`.
    pub buckets: Vec<usize>,
}

impl DegreeHistogram {
    /// Build the histogram for `a`.
    pub fn compute<T: Copy>(a: &Csr<T>) -> Self {
        let mut h = DegreeHistogram::default();
        for i in 0..a.nrows() {
            let d = a.row_nnz(i);
            if d == 0 {
                h.zeros += 1;
            } else {
                let b = (usize::BITS - 1 - d.leading_zeros()) as usize;
                if h.buckets.len() <= b {
                    h.buckets.resize(b + 1, 0);
                }
                h.buckets[b] += 1;
            }
        }
        h
    }

    /// Total rows accounted for.
    pub fn total(&self) -> usize {
        self.zeros + self.buckets.iter().sum::<usize>()
    }

    /// A crude power-law check: the Pearson correlation of
    /// `log2(bucket index+1)` against `log2(count)` over non-empty buckets.
    /// Strongly negative (≈ -1) for heavy-tailed degree distributions.
    pub fn log_log_correlation(&self) -> f64 {
        let pts: Vec<(f64, f64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| ((b as f64 + 1.0).ln(), (c as f64).ln()))
            .collect();
        if pts.len() < 3 {
            return 0.0;
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for &(x, y) in &pts {
            cov += (x - mx) * (y - my);
            vx += (x - mx) * (x - mx);
            vy += (y - my) * (y - my);
        }
        if vx == 0.0 || vy == 0.0 {
            0.0
        } else {
            cov / (vx.sqrt() * vy.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded(n: usize, half_band: usize) -> Csr<f64> {
        let mut coo = crate::Coo::new(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(half_band);
            let hi = (i + half_band + 1).min(n);
            for j in lo..hi {
                if i != j {
                    coo.push(i, j, 1.0);
                }
            }
        }
        coo.to_csr_sum()
    }

    #[test]
    fn stats_of_banded_matrix() {
        let a = banded(100, 2);
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nrows, 100);
        assert_eq!(s.max_degree, 4);
        assert!(s.degree_skew < 1.2, "banded matrix has no skew, got {}", s.degree_skew);
        assert!(s.mean_bandwidth <= 2.0);
        assert_eq!(s.near_diagonal_frac, 1.0);
        assert_eq!(s.empty_rows, 0);
    }

    #[test]
    fn stats_of_star_graph() {
        // star: row 0 connects to everyone — extreme skew
        let n = 64;
        let mut coo = crate::Coo::new(n, n);
        for j in 1..n {
            coo.push_symmetric(0, j, 1.0);
        }
        let a = coo.to_csr_sum();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.max_degree, n - 1);
        assert_eq!(s.min_degree, 1);
        assert!(s.degree_skew > 10.0);
    }

    #[test]
    fn stats_of_empty_matrix() {
        let a: Csr<f64> = Csr::zeros(10, 10);
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.empty_rows, 10);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.degree_skew, 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let a = banded(50, 3); // interior rows: degree 6 → bucket 2
        let h = DegreeHistogram::compute(&a);
        assert_eq!(h.total(), 50);
        assert_eq!(h.zeros, 0);
        assert!(h.buckets[2] >= 44, "most rows have degree 6, hist = {:?}", h.buckets);
    }

    #[test]
    fn display_formats() {
        let a = banded(10, 1);
        let s = MatrixStats::compute(&a).to_string();
        assert!(s.contains("10x10"));
        assert!(s.contains("nnz="));
    }
}
