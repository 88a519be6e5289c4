//! Dataset handling: 5-fold train/test splitting (Figure 7) and record
//! conversion.

use lockstep_core::{ErrorRecord, TrainRecord};
use lockstep_cpu::Granularity;
use lockstep_stats::KFold;

/// Cross-validation folds: the paper splits its logged errors into
/// training and test sets "using random sampling and 5-fold cross
/// validation" (Figure 7).
pub const FOLDS: usize = 5;

/// The line a cross-validated report section prints in place of its
/// numbers when it has `errors` errors to split, fewer than [`FOLDS`]:
/// every fold needs at least one test error.
pub fn skipped_for_folds(section: &str, errors: usize) -> String {
    format!("{section}: skipped (errors: {errors}; {FOLDS}-fold cross-validation needs {FOLDS})")
}

/// A logged error dataset with fold-based splitting.
#[derive(Debug, Clone)]
pub struct Dataset {
    records: Vec<ErrorRecord>,
}

impl Dataset {
    /// Wraps a campaign's error records.
    pub fn new(records: Vec<ErrorRecord>) -> Dataset {
        Dataset { records }
    }

    /// All records.
    pub fn records(&self) -> &[ErrorRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no errors were logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Splits into `k` folds with `seed`, yielding (train, test) record
    /// slices per fold. The paper uses `k = 5`.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer records than folds.
    pub fn folds(&self, k: usize, seed: u64) -> Vec<(Vec<&ErrorRecord>, Vec<&ErrorRecord>)> {
        let kf = KFold::new(self.records.len(), k, seed);
        kf.folds()
            .map(|(train, test)| {
                (
                    train.iter().map(|&i| &self.records[i]).collect(),
                    test.iter().map(|&i| &self.records[i]).collect(),
                )
            })
            .collect()
    }

    /// Converts records to predictor training records under a unit
    /// organization.
    pub fn to_train_records(
        records: &[&ErrorRecord],
        granularity: Granularity,
    ) -> Vec<TrainRecord> {
        records
            .iter()
            .map(|r| TrainRecord {
                dsr: r.dsr,
                unit: granularity.index_of(r.unit()),
                kind: r.kind(),
            })
            .collect()
    }

    /// Number of distinct diverged-SC sets in the dataset (the paper
    /// observes ~1200 on the Cortex-R5).
    pub fn distinct_dsr_sets(&self) -> usize {
        let mut set: Vec<u64> = self.records.iter().map(|r| r.dsr.bits()).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_core::log::FaultKindRepr;
    use lockstep_core::Dsr;
    use lockstep_fault::ErrorKind;

    fn rec(unit: u8, dsr: u64, hard: bool) -> ErrorRecord {
        ErrorRecord {
            workload: "t".into(),
            unit_index: unit,
            fault: if hard { FaultKindRepr::StuckAt0 } else { FaultKindRepr::Transient },
            inject_cycle: 1,
            detect_cycle: 5,
            dsr: Dsr::from_bits(dsr),
        }
    }

    fn dataset(n: usize) -> Dataset {
        Dataset::new((0..n).map(|i| rec((i % 13) as u8, 1 + i as u64, i % 3 == 0)).collect())
    }

    #[test]
    fn folds_partition_records() {
        let ds = dataset(50);
        let folds = ds.folds(5, 1);
        assert_eq!(folds.len(), 5);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 50);
        }
        let total_test: usize = folds.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total_test, 50);
    }

    #[test]
    fn train_record_conversion_respects_granularity() {
        let ds = dataset(13);
        let all: Vec<&ErrorRecord> = ds.records().iter().collect();
        let fine = Dataset::to_train_records(&all, Granularity::Fine);
        let coarse = Dataset::to_train_records(&all, Granularity::Coarse);
        assert!(fine.iter().any(|t| t.unit > 6), "fine keeps 13 indices");
        assert!(coarse.iter().all(|t| t.unit < 7), "coarse maps into 7 units");
        assert!(fine.iter().any(|t| t.kind == ErrorKind::Hard));
        assert!(fine.iter().any(|t| t.kind == ErrorKind::Soft));
    }

    #[test]
    fn distinct_sets_counted() {
        let ds = Dataset::new(vec![rec(0, 5, true), rec(1, 5, false), rec(2, 9, true)]);
        assert_eq!(ds.distinct_dsr_sets(), 2);
    }
}
