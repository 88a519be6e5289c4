//! LERT model evaluation on held-out test errors (Figures 11–16,
//! Table III).

use lockstep_bist::{lert_for, LatencyModel, LertInputs, Model};
use lockstep_core::{Predictor, PredictorConfig};
use lockstep_cpu::Granularity;
use lockstep_fault::ErrorKind;
use lockstep_stats::Xoshiro256;

use crate::campaign::CampaignResult;
use crate::dataset::{Dataset, FOLDS};

/// Evaluation parameters.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Unit organization (7 or 13 units).
    pub granularity: Granularity,
    /// Top-K table truncation (`None` = predict all units).
    pub top_k: Option<usize>,
    /// Keep the prediction table off-chip (100-cycle access)?
    pub offchip_table: bool,
    /// Cross-validation folds (the paper uses 5).
    pub folds: usize,
    /// Seed for splitting and random orders.
    pub seed: u64,
}

impl EvalConfig {
    /// The paper's default: 5-fold CV, all units predicted, on-chip
    /// table.
    pub fn new(granularity: Granularity, seed: u64) -> EvalConfig {
        EvalConfig { granularity, top_k: None, offchip_table: false, folds: FOLDS, seed }
    }
}

/// Aggregate results for one handling model.
#[derive(Debug, Clone, Copy)]
pub struct ModelEval {
    /// The model.
    pub model: Model,
    /// Mean LERT per error, cycles.
    pub mean_lert: f64,
    /// Mean number of STLs run per error.
    pub mean_units_tested: f64,
}

/// Table III counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeAccuracy {
    /// Correctly predicted soft errors.
    pub soft_correct: u64,
    /// Soft errors total.
    pub soft_total: u64,
    /// Correctly predicted hard errors.
    pub hard_correct: u64,
    /// Hard errors total.
    pub hard_total: u64,
}

impl TypeAccuracy {
    /// Soft-class accuracy (paper: 86%).
    pub fn soft(&self) -> f64 {
        ratio(self.soft_correct, self.soft_total)
    }

    /// Hard-class accuracy (paper: 49%).
    pub fn hard(&self) -> f64 {
        ratio(self.hard_correct, self.hard_total)
    }

    /// Overall accuracy (paper: 67%).
    pub fn overall(&self) -> f64 {
        ratio(self.soft_correct + self.hard_correct, self.soft_total + self.hard_total)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Full evaluation output.
#[derive(Debug, Clone)]
pub struct LertEvaluation {
    /// Per-model aggregates, in [`Model::ALL`] order.
    pub per_model: Vec<ModelEval>,
    /// Error-type prediction accuracy of `pred-comb`.
    pub type_accuracy: TypeAccuracy,
    /// Probability the faulty unit is in the predicted list.
    pub location_accuracy: f64,
    /// Fraction of errors where `pred-comb` skipped the SBIST.
    pub sbist_skipped_frac: f64,
    /// Mean prediction-table entry count across folds.
    pub mean_table_entries: f64,
    /// Widest PTAR across folds, bits.
    pub ptar_bits: u32,
    /// Prediction-table storage across folds (mean), bits.
    pub mean_table_bits: f64,
    /// Test errors evaluated.
    pub errors_evaluated: usize,
}

impl LertEvaluation {
    /// Mean LERT of `model`.
    ///
    /// # Panics
    ///
    /// Panics if the model is missing (cannot happen for [`Model::ALL`]).
    pub fn lert(&self, model: Model) -> f64 {
        self.per_model.iter().find(|m| m.model == model).expect("all models evaluated").mean_lert
    }

    /// Speedup of `fast` relative to `slow` in percent:
    /// `100 × (1 − LERT_fast / LERT_slow)`.
    pub fn speedup_pct(&self, fast: Model, slow: Model) -> f64 {
        100.0 * (1.0 - self.lert(fast) / self.lert(slow))
    }
}

/// Evaluates all five models with k-fold cross validation.
///
/// # Panics
///
/// Panics if the campaign produced fewer errors than folds.
pub fn evaluate(result: &CampaignResult, config: &EvalConfig) -> LertEvaluation {
    let dataset = Dataset::new(result.records.clone());
    assert!(
        dataset.len() >= config.folds,
        "only {} errors for {} folds",
        dataset.len(),
        config.folds
    );
    let latency = {
        let m = LatencyModel::calibrated(config.granularity);
        if config.offchip_table {
            m.with_offchip_table()
        } else {
            m
        }
    };
    let rates = result.manifestation_rates(config.granularity);

    let mut lert_sum = vec![0.0f64; Model::ALL.len()];
    let mut units_sum = vec![0.0f64; Model::ALL.len()];
    let mut type_acc = TypeAccuracy::default();
    let mut loc_hits = 0u64;
    let mut skipped = 0u64;
    let mut table_entries = 0.0;
    let mut table_bits = 0.0;
    let mut ptar_bits = 0;
    let mut evaluated = 0usize;

    let mut rng = Xoshiro256::seed_from(config.seed ^ 0x5E17);

    for (fold_idx, (train, test)) in dataset.folds(config.folds, config.seed).iter().enumerate() {
        let train_records = Dataset::to_train_records(train, config.granularity);
        let mut pc = PredictorConfig::new(config.granularity);
        if let Some(k) = config.top_k {
            pc = pc.with_top_k(k);
        }
        let predictor = Predictor::train(&train_records, pc);
        table_entries += predictor.entry_count() as f64;
        table_bits += predictor.table_bits() as f64;
        ptar_bits = ptar_bits.max(predictor.ptar_bits());
        let _ = fold_idx;

        for record in test {
            let prediction = predictor.predict(record.dsr);
            let true_unit = config.granularity.index_of(record.unit());
            let true_kind = record.kind();
            let inputs = LertInputs {
                true_unit,
                true_kind,
                restart_cycles: result.restart_cycles(&record.workload),
            };
            for (mi, &model) in Model::ALL.iter().enumerate() {
                let pred_ref = model.uses_predictor().then_some(&prediction);
                let out = lert_for(model, inputs, &latency, &rates, pred_ref, &mut rng);
                lert_sum[mi] += out.cycles as f64;
                units_sum[mi] += f64::from(out.units_tested);
                if model == Model::PredComb {
                    if !out.sbist_invoked {
                        skipped += 1;
                    }
                    match true_kind {
                        ErrorKind::Soft => {
                            type_acc.soft_total += 1;
                            if prediction.kind == ErrorKind::Soft {
                                type_acc.soft_correct += 1;
                            }
                        }
                        ErrorKind::Hard => {
                            type_acc.hard_total += 1;
                            if prediction.kind == ErrorKind::Hard {
                                type_acc.hard_correct += 1;
                            }
                        }
                    }
                }
            }
            if prediction.order.contains(&true_unit) {
                loc_hits += 1;
            }
            evaluated += 1;
        }
    }

    let per_model = Model::ALL
        .iter()
        .enumerate()
        .map(|(mi, &model)| ModelEval {
            model,
            mean_lert: lert_sum[mi] / evaluated.max(1) as f64,
            mean_units_tested: units_sum[mi] / evaluated.max(1) as f64,
        })
        .collect();

    LertEvaluation {
        per_model,
        type_accuracy: type_acc,
        location_accuracy: ratio(loc_hits, evaluated as u64),
        sbist_skipped_frac: ratio(skipped, evaluated as u64),
        mean_table_entries: table_entries / config.folds as f64,
        mean_table_bits: table_bits / config.folds as f64,
        ptar_bits,
        errors_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use lockstep_workloads::Workload;
    use std::sync::OnceLock;

    fn shared_campaign() -> &'static CampaignResult {
        static CAMPAIGN: OnceLock<CampaignResult> = OnceLock::new();
        CAMPAIGN.get_or_init(|| {
            let cfg = CampaignConfig {
                workloads: vec![
                    Workload::find("rspeed").unwrap(),
                    Workload::find("idctrn").unwrap(),
                    Workload::find("tblook").unwrap(),
                ],
                faults_per_workload: 700,
                seed: 77,
                threads: 8,
                capture_window: 8,
                checkpoint_interval: Some(4096),
                events: None,
                trace_window: None,
                batch: None,
                core: lockstep_cpu::CoreKind::Lr5,
                redundancy: lockstep_core::RedundancyMode::Fixed,
            };
            run_campaign(&cfg)
        })
    }

    #[test]
    fn predictors_beat_baselines_on_mean_lert() {
        let result = shared_campaign();
        let eval = evaluate(result, &EvalConfig::new(Granularity::Coarse, 1));
        let base = eval.lert(Model::BaseAscending).min(eval.lert(Model::BaseManifest));
        let pred = eval.lert(Model::PredComb);
        assert!(pred < base, "pred-comb ({pred:.0}) must beat the best baseline ({base:.0})");
        assert!(eval.lert(Model::PredLocationOnly) < eval.lert(Model::BaseRandom));
    }

    #[test]
    fn pred_comb_tests_fewest_units() {
        let result = shared_campaign();
        let eval = evaluate(result, &EvalConfig::new(Granularity::Coarse, 1));
        let comb = eval.per_model.iter().find(|m| m.model == Model::PredComb).unwrap();
        let base = eval.per_model.iter().find(|m| m.model == Model::BaseAscending).unwrap();
        assert!(comb.mean_units_tested < base.mean_units_tested);
    }

    #[test]
    fn type_accuracy_counts_are_consistent() {
        let result = shared_campaign();
        let eval = evaluate(result, &EvalConfig::new(Granularity::Coarse, 1));
        let t = eval.type_accuracy;
        assert_eq!(t.soft_total + t.hard_total, eval.errors_evaluated as u64);
        assert!(t.overall() > 0.4, "type prediction must beat noise: {}", t.overall());
    }

    #[test]
    fn location_accuracy_high_with_full_prediction() {
        let result = shared_campaign();
        let eval = evaluate(result, &EvalConfig::new(Granularity::Coarse, 1));
        assert!(
            eval.location_accuracy > 0.95,
            "full-order prediction covers every unit: {}",
            eval.location_accuracy
        );
    }

    #[test]
    fn top_k_reduces_table_bits_and_accuracy_monotonic() {
        let result = shared_campaign();
        let mut cfg = EvalConfig::new(Granularity::Coarse, 1);
        let full = evaluate(result, &cfg);
        cfg.top_k = Some(1);
        let k1 = evaluate(result, &cfg);
        cfg.top_k = Some(3);
        let k3 = evaluate(result, &cfg);
        assert!(k1.mean_table_bits < k3.mean_table_bits);
        assert!(k3.mean_table_bits < full.mean_table_bits);
        assert!(k1.location_accuracy <= k3.location_accuracy + 1e-9);
        assert!(k3.location_accuracy <= full.location_accuracy + 1e-9);
    }

    #[test]
    fn offchip_table_overhead_is_negligible() {
        // Section V-B: ~0.05% overhead from keeping the table in DRAM.
        let result = shared_campaign();
        let mut cfg = EvalConfig::new(Granularity::Coarse, 1);
        let on = evaluate(result, &cfg);
        cfg.offchip_table = true;
        let off = evaluate(result, &cfg);
        let overhead =
            (off.lert(Model::PredComb) - on.lert(Model::PredComb)) / on.lert(Model::PredComb);
        assert!(overhead.abs() < 0.01, "off-chip overhead {overhead:.4} must be tiny");
    }

    #[test]
    fn fine_granularity_evaluates_13_units() {
        let result = shared_campaign();
        let eval = evaluate(result, &EvalConfig::new(Granularity::Fine, 1));
        assert_eq!(eval.per_model.len(), 5);
        assert!(eval.errors_evaluated > 0);
    }
}
