//! Order statistics and the seeded input streams.

use std::time::Duration;

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (the default of R and NumPy). `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// splitmix64: a small, well-mixed generator. Every input stream the
/// benchmark makes (value perturbations, right-hand sides) is a `Rng`
/// keyed by the workload seed and a stream number, so one seed fixes all
/// inputs and distinct streams never share values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        r.0 ^= r.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `n` values uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.signed_unit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn streams_repeat_and_differ() {
        let a = Rng::new(7, 1).vector(8);
        assert_eq!(a, Rng::new(7, 1).vector(8));
        assert_ne!(a, Rng::new(7, 2).vector(8));
        assert_ne!(a, Rng::new(8, 1).vector(8));
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
