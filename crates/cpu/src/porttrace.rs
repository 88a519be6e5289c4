//! Chunked storage for per-cycle golden port traces.
//!
//! A golden run records one [`PortSet`] per cycle — 128 bytes for tens
//! of thousands of cycles. A flat `Vec<PortSet>` pays for that
//! with repeated grow-reallocations that each copy the whole multi-
//! megabyte prefix. [`PortTrace`] stores the trace in fixed-size chunks
//! instead: recording never moves already-written cycles, and replay
//! (`get`) stays O(1). This is the trace half of the campaign golden
//! store, the output-side sibling of the harness's input-replication
//! ports: the checker of a shadow replay reads recorded golden ports
//! from here instead of stepping a second CPU.

use crate::ports::PortSet;

/// Cycles per chunk. 1024 × 128 B (62 SCs in 16-bit slots, padded to
/// 64) = 128 KiB — large enough that chunk bookkeeping vanishes, small
/// enough that a short kernel wastes little.
const CHUNK: usize = 1024;

/// An append-only per-cycle [`PortSet`] trace with O(1) random access.
///
/// Indexing is by cycle (`u64`), matching the harness/campaign cycle
/// counters: entry `c` holds the ports the fault-free machine produced
/// on cycle `c`.
#[derive(Debug, Clone, Default)]
pub struct PortTrace {
    chunks: Vec<Vec<PortSet>>,
    len: u64,
}

impl PortTrace {
    /// An empty trace.
    pub fn new() -> PortTrace {
        PortTrace::default()
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the ports of the next cycle. Never moves previously
    /// recorded entries (chunks are allocated at full capacity).
    pub fn push(&mut self, ports: PortSet) {
        if (self.len as usize).is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks.last_mut().expect("chunk allocated above").push(ports);
        self.len += 1;
    }

    /// The recorded ports of `cycle`, or `None` past the end of the
    /// trace (i.e. after the golden run halted).
    pub fn get(&self, cycle: u64) -> Option<&PortSet> {
        if cycle >= self.len {
            return None;
        }
        let i = usize::try_from(cycle).ok()?;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Iterates the recorded cycles in order.
    pub fn iter(&self) -> impl Iterator<Item = &PortSet> {
        self.chunks.iter().flatten()
    }

    /// Approximate heap footprint, for golden-store observability.
    pub fn approx_bytes(&self) -> usize {
        self.chunks.len() * CHUNK * std::mem::size_of::<PortSet>()
    }
}

impl From<Vec<PortSet>> for PortTrace {
    fn from(v: Vec<PortSet>) -> PortTrace {
        let mut t = PortTrace::new();
        for p in v {
            t.push(p);
        }
        t
    }
}

impl FromIterator<PortSet> for PortTrace {
    fn from_iter<I: IntoIterator<Item = PortSet>>(iter: I) -> PortTrace {
        let mut t = PortTrace::new();
        for p in iter {
            t.push(p);
        }
        t
    }
}

impl PartialEq for PortTrace {
    fn eq(&self, other: &PortTrace) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::Sc;

    fn marked(i: u32) -> PortSet {
        let mut p = PortSet::new();
        p.set(Sc::RetCtl, i);
        p
    }

    #[test]
    fn empty_trace() {
        let t = PortTrace::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(t.get(0).is_none());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn push_get_round_trip_across_chunks() {
        let n = 3 * CHUNK as u32 + 17;
        let t: PortTrace = (0..n).map(marked).collect();
        assert_eq!(t.len(), u64::from(n));
        for i in 0..n {
            assert_eq!(t.get(u64::from(i)), Some(&marked(i)), "cycle {i}");
        }
        assert!(t.get(u64::from(n)).is_none());
        assert!(t.get(u64::MAX).is_none());
    }

    #[test]
    fn iteration_matches_push_order() {
        let t: PortTrace = (0..2500).map(marked).collect();
        let back: Vec<PortSet> = t.iter().copied().collect();
        assert_eq!(back.len(), 2500);
        assert!(back.iter().enumerate().all(|(i, p)| *p == marked(i as u32)));
    }

    #[test]
    fn equality_and_from_vec() {
        let v: Vec<PortSet> = (0..1500).map(marked).collect();
        let a = PortTrace::from(v.clone());
        let b: PortTrace = v.into_iter().collect();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.push(marked(9999));
        assert_ne!(a, c);
    }

    #[test]
    fn a_cycle_costs_128_bytes() {
        assert_eq!(std::mem::size_of::<PortSet>(), 128);
    }

    #[test]
    fn footprint_grows_by_whole_chunks() {
        let mut t = PortTrace::new();
        assert_eq!(t.approx_bytes(), 0);
        t.push(marked(0));
        let one = t.approx_bytes();
        assert_eq!(one, CHUNK * std::mem::size_of::<PortSet>());
        for i in 1..CHUNK as u32 {
            t.push(marked(i));
        }
        assert_eq!(t.approx_bytes(), one, "filling a chunk allocates nothing");
        t.push(marked(0));
        assert_eq!(t.approx_bytes(), 2 * one);
    }
}
