//! Every experiment module must run end-to-end on a small shared
//! campaign and produce a structurally sound report — these tests guard
//! the exact code paths the reproduction binaries use.

use std::sync::OnceLock;

use lockstep_cpu::Granularity;
use lockstep_eval::experiments as exp;
use lockstep_eval::{run_campaign, CampaignConfig, CampaignResult};
use lockstep_fault::ErrorKind;
use lockstep_workloads::Workload;

fn campaign() -> &'static CampaignResult {
    static CAMPAIGN: OnceLock<CampaignResult> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        run_campaign(&CampaignConfig {
            workloads: vec![
                Workload::find("rspeed").unwrap(),
                Workload::find("tblook").unwrap(),
                Workload::find("bitmnp").unwrap(),
            ],
            threads: 4,
            capture_window: 16,
            checkpoint_interval: Some(4096),
            ..CampaignConfig::new(600, 31415)
        })
    })
}

#[test]
fn tab1_reports_all_four_rows() {
    let (stats, report) = exp::tab1::run(campaign());
    assert!(report.contains("Soft Error Manifestation Rate"));
    assert!(report.contains("Hard Error Manifestation Rate"));
    assert!(stats.hard_rate.mean().unwrap() > stats.soft_rate.mean().unwrap());
    assert!(stats.overall_rate > 0.0 && stats.overall_rate < 1.0);
}

#[test]
fn tab2_reports_both_granularities() {
    let (coarse, r1) = exp::tab2::run(campaign(), Granularity::Coarse);
    let (fine, r2) = exp::tab2::run(campaign(), Granularity::Fine);
    assert_eq!(coarse.stl_latencies().len(), 7);
    assert_eq!(fine.stl_latencies().len(), 13);
    assert!(r1.contains("Restart Latency Range"));
    assert!(r2.contains("SHF"));
}

#[test]
fn fig45_reports_for_both_classes() {
    for kind in [ErrorKind::Hard, ErrorKind::Soft] {
        let (analysis, report) = exp::fig45::run_signatures(campaign(), Granularity::Coarse, kind);
        assert!(report.contains("mean BC vs others"));
        assert!(analysis.overall_mean_bc().is_some());
        assert!(report.contains("Average BC across units"));
    }
}

#[test]
fn sec3b_reports_type_evidence() {
    let (ev, report) = exp::fig45::run_type_evidence(campaign(), Granularity::Coarse);
    assert!(ev.hard_distinct_sets > 0 && ev.soft_distinct_sets > 0);
    assert!(report.contains("Distinct diverged-SC sets"));
}

#[test]
fn fig10_table_is_consistent_with_training() {
    let (predictor, report) = exp::fig10::run(campaign(), Granularity::Coarse, 5);
    assert!(predictor.entry_count() > 10);
    assert!(report.contains("PTAR"));
    assert!(report.contains("hard") || report.contains("soft"));
}

#[test]
fn fig11_all_models_present_and_positive() {
    let (eval, report) = exp::fig11::run(campaign(), Granularity::Coarse, 1);
    assert_eq!(eval.per_model.len(), 5);
    for m in &eval.per_model {
        assert!(m.mean_lert > 0.0, "{} has zero LERT", m.model);
        assert!(report.contains(m.model.name()));
    }
}

#[test]
fn tab3_accuracies_in_unit_interval() {
    let (acc, report) = exp::tab3::run(campaign(), 1);
    for v in [acc.soft(), acc.hard(), acc.overall()] {
        assert!((0.0..=1.0).contains(&v));
    }
    assert!(report.contains("Overall"));
}

#[test]
fn sec5b_offchip_costs_more_but_barely() {
    let (placement, report) = exp::sec5b::run(campaign(), 1);
    assert!(placement.comb_offchip >= placement.comb_onchip);
    assert!(placement.comb_overhead_pct() < 1.0);
    assert!(report.contains("off-chip"));
}

#[test]
fn topk_sweep_covers_every_k() {
    let points = exp::topk::sweep(campaign(), Granularity::Coarse, 1);
    assert_eq!(points.len(), 7);
    assert!(points.windows(2).all(|w| w[0].k + 1 == w[1].k));
    let acc = exp::topk::render_accuracy(&points, Granularity::Coarse);
    let lert = exp::topk::render_lert(&points, Granularity::Coarse);
    assert!(acc.contains("location accuracy"));
    assert!(lert.contains("Sweet spot"));
}

#[test]
fn tab4_is_campaign_free_and_in_band() {
    let (t4, report) = exp::tab4::run(11);
    assert!(t4.area_vs_dual_pct < 2.0);
    assert!(report.contains("elaborated netlist"));
}

#[test]
fn ablation_dynamic_accuracies_sane() {
    let (abl, report) = exp::ablation::run_dynamic(campaign(), 1);
    for v in [abl.static_top1, abl.dynamic_cold_top1, abl.dynamic_warm_top1] {
        assert!((0.0..=1.0).contains(&v));
    }
    assert!(
        abl.dynamic_warm_top1 >= abl.dynamic_cold_top1,
        "warm start cannot be worse than cold start on average"
    );
    assert!(report.contains("dynamic, warm start"));
}

#[test]
fn ablation_lbist_prediction_still_wins() {
    let (abl, report) = exp::ablation::run_lbist(campaign(), Granularity::Coarse, 32, 1);
    let lbist_base = abl.lbist_lert[1].1; // base-ascending
    let lbist_comb = abl.lbist_lert[4].1; // pred-comb
    assert!(
        lbist_comb < lbist_base,
        "prediction must help LBIST too: {lbist_comb} vs {lbist_base}"
    );
    assert!(report.contains("LBIST avg LERT"));
}

#[test]
fn inventory_reports_are_static() {
    let sc = exp::inventory::signal_categories();
    assert!(sc.contains("62 signal categories"));
    let units = exp::inventory::unit_organization();
    assert!(units.contains("DPU"));
    assert!(units.contains("13 units"));
}
