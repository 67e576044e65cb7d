//! Sample statistics and the seeded generator.

/// Linear-interpolated quantile of `v` (`q` in 0..=1); NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Samples kept per `Samples` buffer.
const SAMPLE_CAP: usize = 1 << 16;

/// Samples tagged with the steal window they were taken in, in a buffer
/// of fixed size that is allocated and written once up front. The bench's
/// own memory therefore does not grow with the work a run completes, and
/// `rss_mb` does not move with throughput. When the buffer is full, every
/// other kept sample is dropped and from then on only every `stride`-th
/// sample is kept, so the kept ones still cover the whole run evenly.
pub struct Samples {
    kept: Vec<(usize, f64)>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        let mut kept = Vec::with_capacity(cap);
        // Fault every page in now, not as the run fills the buffer.
        kept.resize(cap, (0, 0.0));
        kept.clear();
        Samples {
            kept,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, window: usize, x: f64) {
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == self.cap {
            let mut k = 0;
            self.kept.retain(|_| {
                k += 1;
                k % 2 == 1
            });
            self.stride *= 2;
            if !i.is_multiple_of(self.stride) {
                return;
            }
        }
        self.kept.push((window, x));
    }

    pub fn kept(&self) -> &[(usize, f64)] {
        &self.kept
    }

    /// Samples pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::with_capacity(SAMPLE_CAP)
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5a56_5bec_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn full_samples_thin_out_evenly() {
        let mut s = Samples::with_capacity(4);
        for i in 0..11 {
            s.push(0, i as f64);
        }
        // Full at 4: keep 0, 2, then every 2nd; full again: every 4th.
        let kept: Vec<f64> = s.kept().iter().map(|&(_, x)| x).collect();
        assert_eq!(kept, [0.0, 4.0, 8.0]);
        assert_eq!(s.seen(), 11);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
