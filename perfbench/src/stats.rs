//! Small numeric helpers: percentiles, least-squares slope, a stable digest.

/// Linear-interpolation percentile (`p` in `[0, 100]`) of `values`; `0.0`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or `0.0` when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent of a
/// cost `y` in a size `x` (1 for linear, 2 for quadratic). `0.0` when fewer
/// than two distinct sizes were seen.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if pts.len() < 2 || sxx <= 1e-12 {
        0.0
    } else {
        sxy / sxx
    }
}

/// FNV-1a, 64-bit: a stable digest of simulated outputs, independent of the
/// standard library's randomly keyed hashers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the exact bits of a float into the digest.
    pub fn add_f64(&mut self, v: f64) {
        self.add(&v.to_bits().to_le_bytes());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn slope_recovers_exponents() {
        let quad: Vec<_> = (1..8).map(|i| (i as f64, 3.0 * (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<_> = (1..8).map(|i| (i as f64, 0.5 * i as f64)).collect();
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(2.0, 1.0)]), 0.0);
    }
}
