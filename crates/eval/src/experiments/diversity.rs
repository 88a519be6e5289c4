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
//! measures exactly how many error signatures are corpus-specific.

use lockstep_core::{ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;

use crate::campaign::CampaignResult;
use crate::dataset::Dataset;
use crate::render::{pct, Table};

/// Folds for the held-out (within-corpus) accuracy numbers.
const FOLDS: usize = 5;

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
    /// Held-out top-1 location accuracy (5-fold within the corpus).
    pub top1_heldout: f64,
    /// Held-out error-type accuracy (5-fold within the corpus).
    pub type_heldout: f64,
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
    /// (combined vs hand-written).
    pub fn top1_delta(&self) -> f64 {
        self.corpora[2].top1_heldout - self.corpora[0].top1_heldout
    }
}

fn heldout(set: &Dataset, granularity: Granularity, seed: u64) -> (f64, f64) {
    let folds = set.folds(FOLDS, seed);
    let (mut top1_sum, mut type_sum, mut n) = (0.0, 0.0, 0usize);
    for (train, test) in folds {
        if train.is_empty() || test.is_empty() {
            continue;
        }
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
        n += 1;
    }
    let n = n.max(1) as f64;
    (top1_sum / n, type_sum / n)
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
    let (top1_heldout, type_heldout) = heldout(&set, granularity, seed);
    CorpusStats {
        corpus: name.to_owned(),
        records: set.records().len(),
        sc_sets: predictor.entry_count(),
        table_bits: predictor.table_bits(),
        top1_heldout,
        type_heldout,
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
        for c in &r.corpora {
            t.row(vec![
                c.corpus.clone(),
                c.records.to_string(),
                c.sc_sets.to_string(),
                format!("{:.2}", c.table_bits as f64 / 8.0 / 1024.0),
                pct(c.top1_heldout),
                pct(c.type_heldout),
            ]);
        }
        text.push_str(&t.render());
        text.push_str(&format!(
            "\ndeltas (combined vs hand-written): +{} SC sets, {:+.2} KiB table, \
             {:+.1} pp top-1\n\n",
            r.new_sc_sets(),
            r.table_bits_delta() as f64 / 8.0 / 1024.0,
            r.top1_delta() * 100.0,
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
                assert!((0.0..=1.0).contains(&corpus.top1_heldout));
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
