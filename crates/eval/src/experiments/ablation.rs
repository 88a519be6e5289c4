//! Ablations beyond the paper's main evaluation:
//!
//! * **static vs dynamic prediction** (Section VII's discussion): does
//!   an online-updating table beat the frozen one, given how rare errors
//!   are?
//! * **LBIST-based diagnostics**: the paper demonstrates SBIST but notes
//!   the technique applies to LBIST too — here the same five handling
//!   models run with scan-chain latencies instead of STL latencies.

use lockstep_bist::{lert_for, LatencyModel, LertInputs, Model};
use lockstep_core::{DynamicPredictor, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;
use lockstep_stats::Xoshiro256;

use crate::campaign::CampaignResult;
use crate::dataset::{Dataset, FOLDS};
use crate::render::{cycles, pct, Table};

/// Static-vs-dynamic comparison over a chronological error stream.
#[derive(Debug, Clone, Copy)]
pub struct DynamicAblation {
    /// Errors in the evaluation stream.
    pub stream_len: usize,
    /// Top-1 location accuracy of the frozen (offline-trained) table.
    pub static_top1: f64,
    /// Top-1 location accuracy of the cold-started dynamic table.
    pub dynamic_cold_top1: f64,
    /// Top-1 location accuracy of the warm-started dynamic table.
    pub dynamic_warm_top1: f64,
}

/// Runs the static-vs-dynamic ablation: train static on the first half
/// of the error stream, then walk the second half chronologically. The
/// dynamic predictors update after each diagnosed error.
pub fn run_dynamic(result: &CampaignResult, seed: u64) -> (DynamicAblation, String) {
    let granularity = Granularity::Coarse;
    let dataset = Dataset::new(result.records.clone());
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    Xoshiro256::seed_from(seed).shuffle(&mut order);
    let half = dataset.len() / 2;
    let (train_idx, stream_idx) = order.split_at(half);

    let train: Vec<_> = train_idx.iter().map(|&i| &dataset.records()[i]).collect();
    let train_records = Dataset::to_train_records(&train, granularity);
    let static_pred = Predictor::train(&train_records, PredictorConfig::new(granularity));
    let mut dyn_cold = DynamicPredictor::new(PredictorConfig::new(granularity));
    let mut dyn_warm = DynamicPredictor::warmed(&train_records, PredictorConfig::new(granularity));

    let mut hits = [0u64; 3];
    for &i in stream_idx {
        let r = &dataset.records()[i];
        let truth = granularity.index_of(r.unit());
        let preds = [static_pred.predict(r.dsr), dyn_cold.predict(r.dsr), dyn_warm.predict(r.dsr)];
        for (h, p) in hits.iter_mut().zip(&preds) {
            if p.order.first() == Some(&truth) {
                *h += 1;
            }
        }
        // After diagnosis the ground truth is known: the dynamic tables
        // learn from it.
        dyn_cold.observe(r.dsr, truth, r.kind());
        dyn_warm.observe(r.dsr, truth, r.kind());
    }
    let n = stream_idx.len().max(1) as f64;
    let ablation = DynamicAblation {
        stream_len: stream_idx.len(),
        static_top1: hits[0] as f64 / n,
        dynamic_cold_top1: hits[1] as f64 / n,
        dynamic_warm_top1: hits[2] as f64 / n,
    };
    let mut report = String::from("== Ablation: static vs dynamic prediction (Section VII) ==\n\n");
    let mut t = Table::new(vec!["Predictor", "top-1 location accuracy"]);
    t.row(vec!["static (frozen table)".to_owned(), pct(ablation.static_top1)]);
    t.row(vec!["dynamic, cold start".to_owned(), pct(ablation.dynamic_cold_top1)]);
    t.row(vec!["dynamic, warm start".to_owned(), pct(ablation.dynamic_warm_top1)]);
    report.push_str(&t.render());
    report.push_str(&format!(
        "\n({} errors in the online stream. The paper's argument: errors are\n\
         so rare that dynamic history accumulates too slowly to beat the\n\
         static table — visible here as the cold-start gap.)\n",
        ablation.stream_len
    ));
    (ablation, report)
}

/// LBIST-vs-SBIST LERT comparison.
#[derive(Debug, Clone)]
pub struct LbistAblation {
    /// Per-model mean reaction time with scan-chain latencies.
    pub lbist_lert: Vec<(Model, f64)>,
    /// Same, with STL latencies (the paper's configuration).
    pub sbist_lert: Vec<(Model, f64)>,
}

/// Runs the five handling models under LBIST latencies
/// (`patterns × (2·chain+1)` cycles per unit) and compares against the
/// SBIST configuration.
pub fn run_lbist(
    result: &CampaignResult,
    granularity: Granularity,
    patterns: u64,
    seed: u64,
) -> (LbistAblation, String) {
    let dataset = Dataset::new(result.records.clone());
    let folds = dataset.folds(FOLDS, seed);
    let rates = result.manifestation_rates(granularity);
    let models: [(&str, LatencyModel); 2] = [
        ("lbist", LatencyModel::lbist(granularity, patterns)),
        ("sbist", LatencyModel::calibrated(granularity)),
    ];
    let mut sums = vec![[0.0f64; 2]; Model::ALL.len()];
    let mut count = 0usize;
    let mut rng = Xoshiro256::seed_from(seed);
    for (train, test) in &folds {
        let records = Dataset::to_train_records(train, granularity);
        let predictor = Predictor::train(&records, PredictorConfig::new(granularity));
        for r in test {
            let prediction = predictor.predict(r.dsr);
            let inputs = LertInputs {
                true_unit: granularity.index_of(r.unit()),
                true_kind: r.kind(),
                restart_cycles: result.restart_cycles(&r.workload),
            };
            for (mi, &model) in Model::ALL.iter().enumerate() {
                for (li, (_, latency)) in models.iter().enumerate() {
                    let pred_ref = model.uses_predictor().then_some(&prediction);
                    let out = lert_for(model, inputs, latency, &rates, pred_ref, &mut rng);
                    sums[mi][li] += out.cycles as f64;
                }
            }
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    let ablation = LbistAblation {
        lbist_lert: Model::ALL.iter().enumerate().map(|(i, &m)| (m, sums[i][0] / n)).collect(),
        sbist_lert: Model::ALL.iter().enumerate().map(|(i, &m)| (m, sums[i][1] / n)).collect(),
    };
    let mut report = format!(
        "== Ablation: LBIST vs SBIST diagnostics ({} units, {patterns} patterns/unit) ==\n\n",
        granularity.unit_count()
    );
    let mut t = Table::new(vec!["Model", "LBIST avg LERT", "SBIST avg LERT"]);
    for i in 0..Model::ALL.len() {
        t.row(vec![
            ablation.lbist_lert[i].0.name().to_owned(),
            cycles(ablation.lbist_lert[i].1),
            cycles(ablation.sbist_lert[i].1),
        ]);
    }
    report.push_str(&t.render());
    let speed = |v: &[(Model, f64)]| {
        let base = v[1].1; // base-ascending
        let comb = v[4].1; // pred-comb
        100.0 * (1.0 - comb / base)
    };
    report.push_str(&format!(
        "\npred-comb speedup vs base-ascending: LBIST {:.1}%, SBIST {:.1}%\n\
         (the prediction helps whichever diagnostics the platform uses)\n",
        speed(&ablation.lbist_lert),
        speed(&ablation.sbist_lert)
    ));
    (ablation, report)
}
