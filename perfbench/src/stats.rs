//! Order statistics, the seeded generator, and the OS's peak-memory figure.

/// Median of `values` (mean of the middle pair for an even count); zero
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// A tail latency: the highest of [`TAIL_PERCENTILES`] that leaves at
/// least ten samples beyond it, with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `values`, or `None` with fewer than 11 samples.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    TAIL_PERCENTILES.iter().find_map(|&p| {
        // Nearest rank: the smallest sample with at least p% at or below it.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank.max(1))?;
        (beyond >= 10).then(|| Tail {
            percentile: p,
            value: v[rank.max(1) - 1],
            samples: n,
        })
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or zero where
/// the OS does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A SplitMix64 generator: the workload seed fixes every choice drawn
/// from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per workload so workloads sharing a
    /// seed draw independent streams.
    #[must_use]
    pub fn new(seed: u64, salt: &str) -> Self {
        let salt = salt.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        let t = tail(&values[..100]).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        assert!(tail(&values[..10]).is_none());
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, "x");
        let mut b = Rng::new(7, "x");
        let mut c = Rng::new(7, "y");
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
