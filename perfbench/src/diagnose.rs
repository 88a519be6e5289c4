//! Prediction tables and the seeded DSR pools diagnosed against them.

use std::time::Instant;

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::{Granularity, SC_COUNT};
use lockstep_eval::Dataset;

use crate::inputs::Rng;
use crate::stats::median;

/// One request in this many diagnoses a never-seen DSR.
const MISS_EVERY: u64 = 4;

/// The coarse and fine tables trained on one record set, exactly as
/// the offline path and the service train them
/// (`Dataset::to_train_records` + `Predictor::train`).
pub struct Tables {
    coarse: Predictor,
    fine: Predictor,
}

impl Tables {
    /// Trains both tables on `records`, in order.
    pub fn train(records: &[ErrorRecord]) -> Tables {
        let refs: Vec<&ErrorRecord> = records.iter().collect();
        let train = |granularity| {
            let train = Dataset::to_train_records(&refs, granularity);
            Predictor::train(&train, PredictorConfig::new(granularity))
        };
        Tables { coarse: train(Granularity::Coarse), fine: train(Granularity::Fine) }
    }

    /// The table of `granularity`.
    pub fn get(&self, granularity: Granularity) -> &Predictor {
        match granularity {
            Granularity::Coarse => &self.coarse,
            Granularity::Fine => &self.fine,
        }
    }

    /// Median `Predictor::predict` cost in ns over 4096 seeded requests
    /// drawn from `pool`.
    pub fn predict_ns(&self, pool: &DsrPool, rng: &mut Rng) -> f64 {
        let samples: Vec<f64> = (0..4096)
            .map(|_| {
                let (dsr, granularity, _) = pool.pick(rng);
                let t = Instant::now();
                std::hint::black_box(self.get(granularity).predict(Dsr::from_bits(dsr)));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    }
}

/// DSRs to diagnose: every distinct DSR of a record set (table hits)
/// followed by seeded DSRs none of the records carries (misses).
#[derive(Debug, Clone)]
pub struct DsrPool {
    /// Hits first, then misses.
    pub dsrs: Vec<u64>,
    /// Number of leading hits.
    pub hits: usize,
}

impl DsrPool {
    /// Builds the pool from `records` plus `misses` never-seen DSRs.
    pub fn new(records: &[ErrorRecord], misses: usize, rng: &mut Rng) -> DsrPool {
        let mut dsrs: Vec<u64> = records.iter().map(|r| r.dsr.bits()).collect();
        dsrs.sort_unstable();
        dsrs.dedup();
        let hits = dsrs.len();
        let mask = (1u64 << SC_COUNT) - 1;
        while dsrs.len() < hits + misses {
            let bits = rng.next_u64() & mask;
            if bits != 0 && !dsrs.contains(&bits) {
                dsrs.push(bits);
            }
        }
        DsrPool { dsrs, hits }
    }

    /// A seeded request: `(dsr, granularity, expected table hit)`. One
    /// request in [`MISS_EVERY`] asks for a never-seen DSR whatever the
    /// pool's size, so the hit/miss mix, and with it the latency
    /// distribution, is the same for every seed.
    pub fn pick(&self, rng: &mut Rng) -> (u64, Granularity, bool) {
        let misses = (self.dsrs.len() - self.hits) as u64;
        let miss = self.hits == 0 || (misses > 0 && rng.below(MISS_EVERY) == 0);
        let i = if miss {
            self.hits + rng.below(misses) as usize
        } else {
            rng.below(self.hits as u64) as usize
        };
        let granularity = if rng.below(2) == 0 { Granularity::Coarse } else { Granularity::Fine };
        (self.dsrs[i], granularity, !miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_fault::FaultKind;

    fn record(dsr: u64) -> ErrorRecord {
        ErrorRecord {
            workload: "rspeed".to_owned(),
            unit_index: 0,
            fault: FaultKind::Transient.into(),
            inject_cycle: 1,
            detect_cycle: 2,
            dsr: Dsr::from_bits(dsr),
        }
    }

    #[test]
    fn pool_hits_are_table_hits_and_misses_are_not() {
        let records: Vec<ErrorRecord> = [3, 5, 5, 9].into_iter().map(record).collect();
        let pool = DsrPool::new(&records, 4, &mut Rng::new(1, 0));
        assert_eq!(pool.hits, 3);
        let tables = Tables::train(&records);
        let mut rng = Rng::new(2, 0);
        let mut misses = 0;
        for _ in 0..400 {
            let (dsr, _, hit) = pool.pick(&mut rng);
            assert_eq!(tables.get(Granularity::Coarse).predict(Dsr::from_bits(dsr)).table_hit, hit);
            misses += u32::from(!hit);
        }
        assert!((60..140).contains(&misses), "{misses} misses in 400 (expected about 100)");
    }
}
