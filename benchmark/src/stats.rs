//! Order statistics over timing samples, and the process's peak memory.

use std::collections::BTreeMap;

/// Median (mean of the two middle values for an even count). Panics on
/// an empty slice: a metric without samples is a bug in the workload.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so that 10,000 samples times 0.1% is exactly ten.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10_000)
        .map(|p| p as f64 / 10.0)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method). Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(3) - q(1)) / median(&v)
}

/// Named sample series: every timed operation pushes one value under its
/// metric's name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Keep only the series whose name `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.0.retain(|name, _| keep(name));
    }

    /// Move every series of `other` into `self`.
    pub fn absorb(&mut self, other: Samples) {
        for (k, v) in other.0 {
            self.0.entry(k).or_default().extend(v);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is missing.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// xorshift64*: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread the seed so that small seeds do not share a prefix.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`; `n` must not be 0.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(190), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[2.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_parsed_and_present_on_linux() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("procfs") > 0.5);
        }
    }

    #[test]
    fn rng_repeats_per_seed_and_shuffles() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(1).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
