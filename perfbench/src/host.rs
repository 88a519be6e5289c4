//! Host-speed calibration.
//!
//! The reference host is a shared virtual machine whose speed moves in
//! regimes lasting from seconds to tens of minutes, with CPU time
//! tracking wall time, so the program's own wall time moves between two
//! runs of the same code by more than any bound a benchmark could
//! defend. A [`Probe`] measures that speed where and when the timed
//! work runs: it runs a fixed reference chunk on the measuring thread
//! between units of timed work and records the chunk's wall time
//! against [`NOMINAL_CHUNK_MS`], its time on the reference host in a
//! calm regime. The ratio is the host's *slowdown* at that moment, and
//! a timing is reported at reference speed: its wall time divided by
//! the mean slowdown of the two chunks that bracket it.
//!
//! The chunk is the benchmark's own code, independent of the program,
//! so a change to the program moves the timed work and not the
//! reference. It churns the heap: 20 000 small blocks allocated and
//! filled, one in seven kept until the chunk ends. `run_campaign` works
//! on scoped worker threads, whose allocations come from other glibc
//! arenas than the measuring thread's, so the jobs' heap state does not
//! reach the chunk's. It was chosen by
//! measurement, against LR5, LR5-DME and LR7 campaign jobs run back to
//! back with candidate chunks on the reference host. Over eight minutes
//! in which the host sped up by a fifth, dividing each job by the churn
//! chunk run just before it cut the standard deviation of the log of
//! 15-second medians from 0.103 to 0.021–0.023 (a log-log fit of job
//! time on chunk time has slope 0.93). Random read-modify-writes over a
//! 4, 16 or 64 MiB table did worse (0.057–0.067 alone, 0.035–0.040
//! added to the churn), as did a register-machine loop, an 8 MiB pointer
//! chase and faulting in fresh pages in shorter runs.

use std::time::Instant;

use crate::stats::median;

/// Wall time of one reference chunk on the reference host in a calm
/// regime (2-vCPU "Intel Xeon Processor" VM, rustc 1.95, release build).
pub const NOMINAL_CHUNK_MS: f64 = 0.8;
/// Heap blocks allocated per chunk; every `KEEP_EVERY`-th stays live
/// until the chunk ends.
const BLOCKS: usize = 20_000;
const KEEP_EVERY: usize = 7;

/// The reference chunk: allocates and fills [`BLOCKS`] small heap
/// blocks of 16–215 bytes and frees them.
fn churn() {
    let mut live = Vec::with_capacity(BLOCKS / KEEP_EVERY + 1);
    for i in 0..BLOCKS {
        let block = vec![i as u8; 16 + i % 200];
        if i % KEEP_EVERY == 0 {
            live.push(block);
        }
    }
    std::hint::black_box(&live);
}

/// The host slowdowns measured by the reference chunks run so far.
#[derive(Debug, Default)]
pub struct Probe {
    /// `(start, slowdown)` of every chunk, in the order run.
    samples: Vec<(Instant, f64)>,
}

impl Probe {
    /// A probe that has run no chunk yet.
    pub fn new() -> Probe {
        Probe::default()
    }

    /// Runs one reference chunk, records the host's slowdown now and
    /// returns it.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        churn();
        let slowdown = t.elapsed().as_secs_f64() * 1e3 / NOMINAL_CHUNK_MS;
        self.samples.push((t, slowdown));
        slowdown
    }

    /// Chunks run so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The slowdown of work that ran from `from` to `to`: the mean of
    /// the last chunk started at or before `from` and the first started
    /// at or after `to`, or whichever of the two exists.
    ///
    /// # Panics
    ///
    /// Panics when no chunk ran before `from` or after `to`.
    pub fn around(&self, from: Instant, to: Instant) -> f64 {
        let before = self.samples.iter().rev().find(|&&(t, _)| t <= from).map(|&(_, s)| s);
        let after = self.samples.iter().find(|&&(t, _)| t >= to).map(|&(_, s)| s);
        match (before, after) {
            (Some(b), Some(a)) => (b + a) / 2.0,
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => panic!("no probe chunk brackets the timed work"),
        }
    }

    /// Every slowdown recorded, in order.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, s)| s).collect()
    }
}

/// `[min, median, max]` of `values`, for the progress line.
pub fn spread(values: &[f64]) -> [f64; 3] {
    if values.is_empty() {
        return [0.0; 3];
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0, f64::max);
    [min, median(values), max]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_divided_by_the_chunks_that_bracket_it() {
        let mut p = Probe::new();
        let a = p.sample();
        let from = Instant::now();
        let to = Instant::now();
        let b = p.sample();
        let c = p.sample();
        assert!(a > 0.0 && b > 0.0 && c > 0.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.around(from, to), (a + b) / 2.0);
        // Work after the last chunk has only the chunk before it.
        let late = Instant::now();
        assert_eq!(p.around(late, late), c);
        assert_eq!(p.slowdowns(), vec![a, b, c]);
    }
}
