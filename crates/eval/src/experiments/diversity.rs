//! Workload diversity: what does a compiled corpus add to the
//! prediction table?
//!
//! The paper trains its table on hand-written automotive kernels alone.
//! The `lockstep-cc` compiler opens a second corpus — LC kernels with
//! compiler-shaped register allocation, call frames, and loop idioms —
//! whose retired-instruction mix differs from the hand-tuned assembly
//! even when the algorithms overlap. If error-correlation signatures
//! were workload-specific, a table trained on one corpus would miss the
//! other's DSRs wholesale and the combined table would balloon; if they
//! are micro-architectural, the corpora should overlap heavily and the
//! combined table should grow sub-additively while holding accuracy.
//!
//! This experiment re-trains the prediction table on three corpora —
//! hand-written, compiled, and their union — and reports, per corpus,
//! the diverged-SC-set count (table entries), the table size in bits,
//! and held-out top-1 accuracy; plus the cross-corpus transfer cells
//! (train on one corpus, test on the other) whose table-hit rate
//! measures exactly how many error signatures are corpus-specific. A
//! corpus with fewer errors than folds has no held-out numbers; the
//! report says so in one line.

use lockstep_core::{ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;

use crate::campaign::CampaignResult;
use crate::dataset::{skipped_for_folds, Dataset, FOLDS};
use crate::render::{pct, Table};

/// Per-corpus table statistics at one granularity.
#[derive(Debug, Clone)]
pub struct CorpusStats {
    /// Corpus label (`hand-written`, `compiled`, `combined`).
    pub corpus: String,
    /// Error records in the corpus.
    pub records: usize,
    /// Distinct diverged-SC sets = prediction-table entries.
    pub sc_sets: usize,
    /// Table storage in bits (entries × (top-K unit ids + type bit)).
    pub table_bits: u64,
    /// Held-out top-1 location accuracy (5-fold within the corpus);
    /// `None` when the corpus has fewer records than folds.
    pub top1_heldout: Option<f64>,
    /// Held-out error-type accuracy (5-fold within the corpus); `None`
    /// when the corpus has fewer records than folds.
    pub type_heldout: Option<f64>,
}

/// One cross-corpus transfer cell: table trained on one corpus scoring
/// the other corpus's records.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// Corpus that trained the table.
    pub train: String,
    /// Corpus whose records were scored.
    pub test: String,
    /// Top-1 location accuracy on the foreign corpus.
    pub top1: f64,
    /// Fraction of foreign DSRs that hit a trained entry at all — the
    /// direct measure of signature overlap between the corpora.
    pub table_hit_rate: f64,
    /// Records scored.
    pub tested: usize,
}

/// Everything the experiment measures at one granularity.
#[derive(Debug, Clone)]
pub struct DiversityReport {
    /// Stats for `hand-written`, `compiled`, `combined`, in that order.
    pub corpora: Vec<CorpusStats>,
    /// Transfer cells: hand→compiled and compiled→hand.
    pub transfer: Vec<TransferStats>,
}

impl DiversityReport {
    /// Diverged-SC sets the compiled corpus adds on top of the
    /// hand-written table (`combined − hand-written`).
    pub fn new_sc_sets(&self) -> usize {
        self.corpora[2].sc_sets - self.corpora[0].sc_sets
    }

    /// Table growth in bits from folding the compiled corpus in.
    pub fn table_bits_delta(&self) -> i64 {
        self.corpora[2].table_bits as i64 - self.corpora[0].table_bits as i64
    }

    /// Held-out top-1 change from folding the compiled corpus in
    /// (combined vs hand-written); `None` when either has no held-out
    /// number.
    pub fn top1_delta(&self) -> Option<f64> {
        Some(self.corpora[2].top1_heldout? - self.corpora[0].top1_heldout?)
    }
}

/// Mean held-out (top-1, type) accuracy over the folds; `None` when the
/// set has fewer records than folds. With at least one record per fold,
/// every fold has a test record and a training set.
fn heldout(set: &Dataset, granularity: Granularity, seed: u64) -> Option<(f64, f64)> {
    if set.len() < FOLDS {
        return None;
    }
    let (mut top1_sum, mut type_sum) = (0.0, 0.0);
    for (train, test) in set.folds(FOLDS, seed) {
        let predictor = Predictor::train(
            &Dataset::to_train_records(&train, granularity),
            PredictorConfig::new(granularity),
        );
        let (mut top1, mut kind_ok) = (0usize, 0usize);
        for r in &test {
            let pred = predictor.predict(r.dsr);
            if pred.order.first() == Some(&granularity.index_of(r.unit())) {
                top1 += 1;
            }
            if pred.kind == r.kind() {
                kind_ok += 1;
            }
        }
        top1_sum += top1 as f64 / test.len() as f64;
        type_sum += kind_ok as f64 / test.len() as f64;
    }
    Some((top1_sum / FOLDS as f64, type_sum / FOLDS as f64))
}

fn corpus_stats(
    name: &str,
    records: Vec<ErrorRecord>,
    granularity: Granularity,
    seed: u64,
) -> CorpusStats {
    let set = Dataset::new(records);
    let all: Vec<&ErrorRecord> = set.records().iter().collect();
    let predictor = Predictor::train(
        &Dataset::to_train_records(&all, granularity),
        PredictorConfig::new(granularity),
    );
    let heldout = heldout(&set, granularity, seed);
    CorpusStats {
        corpus: name.to_owned(),
        records: set.records().len(),
        sc_sets: predictor.entry_count(),
        table_bits: predictor.table_bits(),
        top1_heldout: heldout.map(|(top1, _)| top1),
        type_heldout: heldout.map(|(_, kind)| kind),
    }
}

fn transfer(
    train: &[ErrorRecord],
    test: &[ErrorRecord],
    granularity: Granularity,
    train_name: &str,
    test_name: &str,
) -> TransferStats {
    let train_refs: Vec<&ErrorRecord> = train.iter().collect();
    let predictor = Predictor::train(
        &Dataset::to_train_records(&train_refs, granularity),
        PredictorConfig::new(granularity),
    );
    let (mut top1, mut hits) = (0usize, 0usize);
    for r in test {
        let pred = predictor.predict(r.dsr);
        if pred.order.first() == Some(&granularity.index_of(r.unit())) {
            top1 += 1;
        }
        if pred.table_hit {
            hits += 1;
        }
    }
    let n = test.len().max(1) as f64;
    TransferStats {
        train: train_name.to_owned(),
        test: test_name.to_owned(),
        top1: top1 as f64 / n,
        table_hit_rate: hits as f64 / n,
        tested: test.len(),
    }
}

/// Builds the three-corpus report at one granularity. `hand` and
/// `compiled` are completed campaigns over the hand-written suite and
/// the compiled-LC suite (same faults, seed, and core).
pub fn report(
    hand: &CampaignResult,
    compiled: &CampaignResult,
    granularity: Granularity,
    seed: u64,
) -> DiversityReport {
    let mut combined = hand.records.clone();
    combined.extend(compiled.records.iter().cloned());
    DiversityReport {
        corpora: vec![
            corpus_stats("hand-written", hand.records.clone(), granularity, seed),
            corpus_stats("compiled", compiled.records.clone(), granularity, seed),
            corpus_stats("combined", combined, granularity, seed),
        ],
        transfer: vec![
            transfer(&hand.records, &compiled.records, granularity, "hand-written", "compiled"),
            transfer(&compiled.records, &hand.records, granularity, "compiled", "hand-written"),
        ],
    }
}

/// Runs both granularities and renders the diversity report.
pub fn run(
    hand: &CampaignResult,
    compiled: &CampaignResult,
    seed: u64,
) -> (Vec<DiversityReport>, String) {
    let mut text = String::from(
        "== Workload diversity: hand-written vs compiled-LC training corpora ==\n\
         (held-out: 5-fold within the corpus; transfer: train on all of\n\
         one corpus, test on all of the other)\n",
    );
    let mut reports = Vec::new();
    for granularity in [Granularity::Coarse, Granularity::Fine] {
        let r = report(hand, compiled, granularity, seed);
        let label = match granularity {
            Granularity::Coarse => "coarse (7 units)",
            Granularity::Fine => "fine (13 units)",
        };
        text.push_str(&format!("\n-- {label} --\n\n"));
        let mut t = Table::new(vec![
            "corpus",
            "records",
            "SC sets",
            "table KiB",
            "top-1 (held-out)",
            "type (held-out)",
        ]);
        let heldout = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), pct);
        for c in &r.corpora {
            t.row(vec![
                c.corpus.clone(),
                c.records.to_string(),
                c.sc_sets.to_string(),
                format!("{:.2}", c.table_bits as f64 / 8.0 / 1024.0),
                heldout(c.top1_heldout),
                heldout(c.type_heldout),
            ]);
        }
        text.push_str(&t.render());
        for c in r.corpora.iter().filter(|c| c.top1_heldout.is_none()) {
            text.push_str(&format!(
                "{}\n",
                skipped_for_folds(&format!("held-out {}", c.corpus), c.records)
            ));
        }
        let top1 = r.top1_delta().map_or_else(
            || "no held-out top-1".to_owned(),
            |d| format!("{:+.1} pp top-1", d * 100.0),
        );
        text.push_str(&format!(
            "\ndeltas (combined vs hand-written): +{} SC sets, {:+.2} KiB table, {top1}\n\n",
            r.new_sc_sets(),
            r.table_bits_delta() as f64 / 8.0 / 1024.0,
        ));
        let mut t = Table::new(vec!["train → test", "top-1", "table hit", "tested"]);
        for cell in &r.transfer {
            t.row(vec![
                format!("{} → {}", cell.train, cell.test),
                pct(cell.top1),
                pct(cell.table_hit_rate),
                cell.tested.to_string(),
            ]);
        }
        text.push_str(&t.render());
        reports.push(r);
    }
    text.push_str(
        "\nReading: the transfer table-hit rate is the fraction of one\n\
         corpus's error signatures already present in the other's table.\n\
         A high rate means DSR signatures are micro-architectural, not\n\
         workload artifacts; the combined row then grows the table far\n\
         less than doubling it while keeping held-out accuracy.\n",
    );
    (reports, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use lockstep_core::RedundancyMode;
    use lockstep_cpu::CoreKind;
    use lockstep_workloads::{lc, Workload};

    fn campaign(workloads: Vec<&'static Workload>) -> CampaignResult {
        run_campaign(&CampaignConfig {
            workloads,
            faults_per_workload: 150,
            seed: 9,
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(2048),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        })
    }

    #[test]
    fn combined_corpus_grows_subadditively_and_transfers() {
        let hand =
            campaign(vec![Workload::find("rspeed").unwrap(), Workload::find("canrdr").unwrap()]);
        let compiled =
            campaign(vec![lc::compiled("rspeed").unwrap(), lc::compiled("crc32").unwrap()]);
        assert!(!hand.records.is_empty() && !compiled.records.is_empty());

        let (reports, text) = run(&hand, &compiled, 9);
        assert_eq!(reports.len(), 2, "coarse and fine");
        for r in &reports {
            let [h, c, both] = &r.corpora[..] else { panic!("three corpora") };
            assert_eq!(h.records + c.records, both.records);
            // Union of signature sets: at least as many as either corpus,
            // at most the sum (sub-additive iff any signature overlaps).
            assert!(both.sc_sets >= h.sc_sets.max(c.sc_sets));
            assert!(both.sc_sets <= h.sc_sets + c.sc_sets);
            assert_eq!(r.new_sc_sets(), both.sc_sets - h.sc_sets);
            for corpus in &r.corpora {
                assert!(corpus.table_bits > 0);
                assert!((0.0..=1.0).contains(&corpus.top1_heldout.expect("enough records")));
            }
            for cell in &r.transfer {
                assert!((0.0..=1.0).contains(&cell.table_hit_rate));
                assert!(cell.tested > 0);
                // Top-1 hits require a table hit or a lucky default
                // order; the rate is a probability either way.
                assert!((0.0..=1.0).contains(&cell.top1));
            }
            assert_eq!(r.transfer[0].tested, c.records);
            assert_eq!(r.transfer[1].tested, h.records);
        }
        assert!(text.contains("Workload diversity"));
        assert!(text.contains("combined"));
        assert!(text.contains("deltas"));
    }

    #[test]
    fn corpora_with_fewer_records_than_folds_skip_their_held_out_numbers() {
        let mut hand = campaign(vec![Workload::find("rspeed").unwrap()]);
        let compiled = campaign(vec![lc::compiled("crc32").unwrap()]);
        assert!(hand.records.len() >= FOLDS && compiled.records.len() >= FOLDS);
        hand.records.truncate(FOLDS - 1);
        let (reports, text) = run(&hand, &compiled, 9);
        for r in &reports {
            assert_eq!((r.corpora[0].top1_heldout, r.corpora[0].type_heldout), (None, None));
            assert!(r.corpora[1].top1_heldout.is_some() && r.corpora[2].top1_heldout.is_some());
            assert_eq!(r.top1_delta(), None);
            assert_eq!(r.transfer[1].tested, FOLDS - 1);
        }
        let line = "held-out hand-written: skipped (errors: 4; 5-fold cross-validation needs 5)";
        assert_eq!(text.matches(line).count(), 2, "one line per granularity:\n{text}");
        assert_eq!(text.matches("skipped").count(), 2, "{text}");

        // No records at all: every held-out number is skipped, and the
        // transfer cells still print.
        hand.records.clear();
        let (reports, text) = run(&hand, &hand, 9);
        for r in &reports {
            assert!(r.corpora.iter().all(|c| c.top1_heldout.is_none() && c.records == 0));
            assert!(r.transfer.iter().all(|cell| cell.tested == 0));
        }
        assert_eq!(text.matches("skipped (errors: 0;").count(), 6, "{text}");
    }

    #[test]
    fn identical_corpora_overlap_completely() {
        let hand = campaign(vec![Workload::find("rspeed").unwrap()]);
        let (reports, _) = run(&hand, &hand, 9);
        for r in &reports {
            // Same records on both sides: the combined table is the same
            // set of signatures, and every "foreign" DSR hits.
            assert_eq!(r.corpora[2].sc_sets, r.corpora[0].sc_sets);
            assert_eq!(r.new_sc_sets(), 0);
            for cell in &r.transfer {
                assert!((cell.table_hit_rate - 1.0).abs() < f64::EPSILON);
            }
        }
    }
}
