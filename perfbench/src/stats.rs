//! Order statistics and digests shared by the workloads.

use masked_spgemm_repro::rt::obs::HIST_BUCKETS;
use masked_spgemm_repro::sparse::Csr;

/// Quantile `q` of `values` by linear interpolation between the closest
/// ranks (Python's `statistics.quantiles(..., method="inclusive")`).
/// Zero for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Estimated quantile of a power-of-two histogram (bucket `i >= 1` holds
/// `[2^(i-1), 2^i)`), taken as the geometric middle of the bucket that
/// holds the `q`-th observation. Zero for an empty histogram.
pub fn hist_quantile(buckets: &[u64; HIST_BUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return if i == 0 {
                0.0
            } else {
                2f64.powf(i as f64 - 0.5)
            };
        }
    }
    0.0
}

/// 64-bit FNV-1a, the digest the workloads compare outputs by.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a matrix's shape, structure and value bits.
pub fn csr_digest<T: Copy>(c: &Csr<T>, bits: impl Fn(T) -> u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(c.nrows() as u64);
    h.u64(c.ncols() as u64);
    for &p in c.row_ptr() {
        h.u64(p as u64);
    }
    for &j in c.col_idx() {
        h.u64(u64::from(j));
    }
    for &v in c.values() {
        h.u64(bits(v));
    }
    h.finish()
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn hist_quantile_finds_the_bucket() {
        let mut b = [0u64; HIST_BUCKETS];
        b[3] = 10; // values in [4, 8)
        let q = hist_quantile(&b, 0.5);
        assert!((4.0..8.0).contains(&q), "{q}");
        assert_eq!(hist_quantile(&[0; HIST_BUCKETS], 0.5), 0.0);
    }
}
