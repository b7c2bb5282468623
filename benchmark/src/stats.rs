//! Seeded input generation and the summary statistics every metric uses.

/// SplitMix64: a tiny deterministic generator, so the same `--seed` gives
/// the same inputs on every host.
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the tag keeps the workloads' streams
    /// apart under the same seed.
    pub fn new(seed: u64, tag: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median of the samples (NaN for none, which the run reports as
/// unmeasured).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time consumed by this process so far (all threads), seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat are utime and stime in clock
    // ticks; the field list starts after the parenthesised command name.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / CLOCK_TICKS_PER_S,
        _ => 0.0,
    }
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target.
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn same_seed_same_stream_and_tags_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        let mut r = Rng::new(1, "u");
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }
}
