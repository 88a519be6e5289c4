//! Order statistics for the reported metrics.
//!
//! A timing is reported as a median plus the highest percentile that
//! keeps at least [`MIN_BEYOND`] samples beyond it. A failed or refused
//! request is kept in the sample as a miss: it sorts above every
//! completed one, so it misses every latency limit.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples in milliseconds, with failed requests counted as
/// misses.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    done: Vec<f64>,
    missed: usize,
}

impl Latencies {
    /// Records a completed request's latency.
    pub fn push(&mut self, ms: f64) {
        self.done.push(ms);
    }

    /// Records a failed or refused request.
    pub fn miss(&mut self) {
        self.missed += 1;
    }

    /// Requests recorded, completed or not.
    pub fn len(&self) -> usize {
        self.done.len() + self.missed
    }

    /// Failed or refused requests recorded.
    pub fn missed(&self) -> usize {
        self.missed
    }

    /// Nearest-rank percentile `q` in (0, 1]: the smallest recorded
    /// latency with at least `q` of all requests at or below it. `None`
    /// when the sample is empty or the rank falls on a miss.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(q, n);
        let mut done = self.done.clone();
        done.sort_by(f64::total_cmp);
        done.get(rank - 1).copied()
    }

    /// `true` when percentile `q` leaves at least [`MIN_BEYOND`]
    /// requests beyond it.
    pub fn supports(&self, q: f64) -> bool {
        let n = self.len();
        n > 0 && n - nearest_rank(q, n) >= MIN_BEYOND
    }
}

/// 1-based rank of percentile `q` among `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Resets the process's peak resident set to its current one (Linux
/// `clear_refs` command 5), so the next [`peak_rss_mib`] reads the peak
/// since this call. Returns `false` where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Latencies {
        let mut l = Latencies::default();
        for i in 1..=n {
            l.push(i as f64);
        }
        l
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!filled(199).supports(0.95), "199 samples leave 9 beyond p95");
        assert!(filled(200).supports(0.95), "200 samples leave 10 beyond p95");
        assert!(filled(100).supports(0.90));
        assert!(!filled(99).supports(0.90));
        assert_eq!(filled(200).percentile(0.95), Some(190.0));
        assert_eq!(filled(200).percentile(0.5), Some(100.0));
    }

    #[test]
    fn a_refused_request_counts_as_a_miss() {
        let mut l = filled(9);
        l.miss();
        assert_eq!(l.len(), 10);
        assert_eq!(l.missed(), 1);
        // The miss sorts above every completed request, so it takes
        // the top rank.
        assert_eq!(l.percentile(0.5), Some(5.0));
        assert_eq!(l.percentile(0.9), Some(9.0));
        assert_eq!(l.percentile(1.0), None, "the top rank is the miss");
        let mut all_missed = Latencies::default();
        all_missed.miss();
        assert_eq!(all_missed.percentile(0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
