//! Cross-core transfer: does error-correlation prediction survive
//! mis-speculation? Train the prediction table on one core model's
//! campaign and test it on the other's.
//!
//! The paper trains and evaluates on the same in-order pipeline; the
//! LR7 adds speculation, reordering, and squash/recovery between a
//! struck flop and the output ports. If the diverged-SC-set → unit
//! correlation were an artifact of in-order timing, a table trained on
//! LR5 errors would collapse on LR7 errors (and vice versa). The 2×2
//! train/test matrix below quantifies exactly that.
//!
//! Diagonal cells are honest held-out numbers (5-fold cross-validation
//! within one core's dataset); off-diagonal cells train on *all* of one
//! core's records and test on *all* of the other's — the two datasets
//! are disjoint by construction, so no holdout is needed. A core with
//! fewer errors than folds has no diagonal cell; the report says so in
//! one line.

use lockstep_core::{ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;

use crate::campaign::CampaignResult;
use crate::dataset::{skipped_for_folds, Dataset, FOLDS};
use crate::render::{pct, Table};

/// One cell of the 2×2 cross-core matrix.
#[derive(Debug, Clone)]
pub struct CrossCell {
    /// Core whose campaign trained the table.
    pub train_core: String,
    /// Core whose errors the table was tested on.
    pub test_core: String,
    /// Top-1 location accuracy: faulty unit ranked first.
    pub top1_accuracy: f64,
    /// Faulty unit anywhere in the predicted order (a table hit always
    /// stores every observed unit, so this measures coverage).
    pub located_accuracy: f64,
    /// Error-type (hard/soft) prediction accuracy.
    pub type_accuracy: f64,
    /// Fraction of test DSRs that hit a trained table entry at all.
    pub table_hit_rate: f64,
    /// Test records scored.
    pub tested: usize,
}

/// Scores one trained table against a set of test records.
fn score(
    predictor: &Predictor,
    test: &[&ErrorRecord],
    granularity: Granularity,
    train_core: &str,
    test_core: &str,
) -> CrossCell {
    let (mut top1, mut located, mut kind_ok, mut hits) = (0usize, 0usize, 0usize, 0usize);
    for r in test {
        let pred = predictor.predict(r.dsr);
        let unit = granularity.index_of(r.unit());
        if pred.order.first() == Some(&unit) {
            top1 += 1;
        }
        if pred.order.contains(&unit) {
            located += 1;
        }
        if pred.kind == r.kind() {
            kind_ok += 1;
        }
        if pred.table_hit {
            hits += 1;
        }
    }
    let n = test.len().max(1) as f64;
    CrossCell {
        train_core: train_core.to_owned(),
        test_core: test_core.to_owned(),
        top1_accuracy: top1 as f64 / n,
        located_accuracy: located as f64 / n,
        type_accuracy: kind_ok as f64 / n,
        table_hit_rate: hits as f64 / n,
        tested: test.len(),
    }
}

/// Averages the per-fold cells of a diagonal evaluation.
fn average(cells: Vec<CrossCell>) -> CrossCell {
    let n = cells.len().max(1) as f64;
    let mut out = cells[0].clone();
    out.top1_accuracy = cells.iter().map(|c| c.top1_accuracy).sum::<f64>() / n;
    out.located_accuracy = cells.iter().map(|c| c.located_accuracy).sum::<f64>() / n;
    out.type_accuracy = cells.iter().map(|c| c.type_accuracy).sum::<f64>() / n;
    out.table_hit_rate = cells.iter().map(|c| c.table_hit_rate).sum::<f64>() / n;
    out.tested = cells.iter().map(|c| c.tested).sum();
    out
}

/// Trains on `train` records and scores `test` records.
fn train_and_score(
    train: &[&ErrorRecord],
    test: &[&ErrorRecord],
    granularity: Granularity,
    train_core: &str,
    test_core: &str,
) -> CrossCell {
    let train_records = Dataset::to_train_records(train, granularity);
    let predictor = Predictor::train(&train_records, PredictorConfig::new(granularity));
    score(&predictor, test, granularity, train_core, test_core)
}

/// Builds the 2×2 matrix at one granularity. `lr5` and `lr7` are two
/// completed campaigns (same workloads, faults, and seed; different
/// `--core`). The diagonal cell of a core whose campaign logged fewer
/// errors than folds cannot be cross-validated and is left out.
pub fn matrix(
    lr5: &CampaignResult,
    lr7: &CampaignResult,
    granularity: Granularity,
    seed: u64,
) -> Vec<CrossCell> {
    let lr5_set = Dataset::new(lr5.records.clone());
    let lr7_set = Dataset::new(lr7.records.clone());
    let diagonal = |set: &Dataset, core: &str| {
        (set.len() >= FOLDS).then(|| {
            average(
                set.folds(FOLDS, seed)
                    .into_iter()
                    .map(|(train, test)| train_and_score(&train, &test, granularity, core, core))
                    .collect(),
            )
        })
    };
    let all5: Vec<&ErrorRecord> = lr5_set.records().iter().collect();
    let all7: Vec<&ErrorRecord> = lr7_set.records().iter().collect();
    [
        diagonal(&lr5_set, "lr5"),
        Some(train_and_score(&all5, &all7, granularity, "lr5", "lr7")),
        Some(train_and_score(&all7, &all5, granularity, "lr7", "lr5")),
        diagonal(&lr7_set, "lr7"),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Runs both granularities and renders the transfer report.
pub fn run(lr5: &CampaignResult, lr7: &CampaignResult, seed: u64) -> (Vec<CrossCell>, String) {
    let mut report = String::from(
        "== Cross-core transfer: prediction accuracy across core models ==\n\
         (diagonal: 5-fold held-out within one core; off-diagonal:\n\
         train on every record of one core, test on every record of the other)\n",
    );
    let mut all = Vec::new();
    for granularity in [Granularity::Coarse, Granularity::Fine] {
        let cells = matrix(lr5, lr7, granularity, seed);
        let label = match granularity {
            Granularity::Coarse => "coarse (7 units)",
            Granularity::Fine => "fine (13 units)",
        };
        report.push_str(&format!("\n-- {label} --\n\n"));
        let mut t =
            Table::new(vec!["train \\ test", "top-1", "located", "type", "table hit", "tested"]);
        for cell in &cells {
            t.row(vec![
                format!("{} → {}", cell.train_core, cell.test_core),
                pct(cell.top1_accuracy),
                pct(cell.located_accuracy),
                pct(cell.type_accuracy),
                pct(cell.table_hit_rate),
                cell.tested.to_string(),
            ]);
        }
        report.push_str(&t.render());
        for (result, core) in [(lr5, "lr5"), (lr7, "lr7")] {
            if result.records.len() < FOLDS {
                report.push_str(&format!(
                    "{}\n",
                    skipped_for_folds(&format!("{core} → {core}"), result.records.len())
                ));
            }
        }
        all.extend(cells);
    }
    report.push_str(
        "\nReading: if correlation were an in-order-timing artifact, the\n\
         off-diagonal cells would collapse toward chance. Transfer is\n\
         bounded above by the table hit rate — a DSR never manifested on\n\
         the training core falls back to the unit-frequency prior.\n",
    );
    (all, report)
}
