//! Every experiment module must run end-to-end on a small shared
//! campaign and produce a structurally sound report — these tests guard
//! the exact code paths the reproduction binaries use, and the one
//! report `repro_all` and `analyze_dataset` print.

use std::sync::OnceLock;

use lockstep_cpu::Granularity;
use lockstep_eval::experiments as exp;
use lockstep_eval::{run_campaign, CampaignArchive, CampaignConfig, CampaignResult};
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

/// The headings of the report's 20 sections, in order: a prefix each.
const HEADINGS: [&str; 20] = [
    "== Figure 3:",
    "== Figure 8:",
    "== Table I:",
    "== Table II: model latencies (7 units)",
    "== Table II: model latencies (13 units)",
    "== Figure 4 ",
    "== Figure 5 ",
    "== Section III-B:",
    "== Figure 10:",
    "== Figure 11 ",
    "== Table III:",
    "== Section V-B:",
    "== Figure 12 (",
    "== Figure 13 (",
    "== Figure 14 ",
    "== Figure 15 (",
    "== Figure 16 (",
    "== Table IV:",
    "== Ablation: static vs dynamic",
    "== Ablation: LBIST",
];

fn render(result: &CampaignResult) -> String {
    let mut out = Vec::new();
    exp::write_report(&mut out, result, 31415).expect("a Vec takes every write");
    String::from_utf8(out).expect("the report is UTF-8")
}

/// Asserts that `report` carries every section heading once, in order.
fn assert_every_section(report: &str) {
    let headings: Vec<&str> = report.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(headings.len(), HEADINGS.len(), "{headings:#?}");
    for (heading, prefix) in headings.iter().zip(HEADINGS) {
        assert!(heading.starts_with(prefix), "{heading:?} where {prefix:?} belongs");
    }
}

/// The report prints every section once, in order, and the same bytes
/// every time: rendered twice, and again from a saved and reloaded
/// archive (what `analyze_dataset` sees).
#[test]
fn report_is_stable_across_renders_and_an_archive_round_trip() {
    let first = render(campaign());
    assert_eq!(render(campaign()), first, "a second render differs");

    let path = std::env::temp_dir().join(format!("lockstep-report-{}.json", std::process::id()));
    CampaignArchive::from_result(campaign()).save(&path).unwrap();
    let loaded = CampaignArchive::load(&path).unwrap().into_result().unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(render(&loaded), first, "the archive round trip changes the report");

    assert_every_section(&first);
    assert!(!first.contains("skipped ("), "a full campaign cross-validates every section");
}

/// A campaign that logged fewer errors than cross-validation folds
/// still gets every section: the nine cross-validated ones (Figures
/// 11–16, Table III, Section V-B, the LBIST ablation) are one line each
/// saying they were skipped, with the error count and the folds.
#[test]
fn a_report_over_fewer_errors_than_folds_skips_only_the_cross_validated_sections() {
    let path = std::env::temp_dir().join(format!("lockstep-tiny-{}.json", std::process::id()));
    CampaignArchive::from_result(campaign()).save(&path).unwrap();
    let mut result = CampaignArchive::load(&path).unwrap().into_result().unwrap();
    std::fs::remove_file(&path).ok();
    for errors in [4, 1, 0] {
        result.records.truncate(errors);
        let report = render(&result);
        assert_every_section(&report);
        let skipped: Vec<&str> = report.lines().filter(|l| l.contains("skipped (")).collect();
        assert_eq!(skipped.len(), 9, "{skipped:#?}");
        for line in skipped {
            assert!(line.starts_with("== ") && line.ends_with(" =="), "{line:?}");
            assert!(
                line.contains(&format!("errors: {errors}; 5-fold cross-validation needs 5")),
                "{line:?}"
            );
        }
    }
}
