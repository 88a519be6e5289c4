//! Figures 4 and 5: per-unit error signature distributions and their
//! Bhattacharyya similarity — plus the Section III-B type evidence.

use lockstep_cpu::Granularity;
use lockstep_fault::ErrorKind;

use crate::analysis::{signature_analysis, type_evidence, SignatureAnalysis, TypeEvidence};
use crate::campaign::CampaignResult;
use crate::render::Table;

/// Runs the Figure 4 (hard) or Figure 5 (soft) analysis.
pub fn run_signatures(
    result: &CampaignResult,
    granularity: Granularity,
    kind: ErrorKind,
) -> (SignatureAnalysis, String) {
    let analysis = signature_analysis(&result.records, granularity, kind);
    let figure =
        if kind == ErrorKind::Hard { "Figure 4 (hard errors)" } else { "Figure 5 (soft errors)" };
    let paper_bc = if kind == ErrorKind::Hard { 0.39 } else { 0.32 };
    let mut report = format!("== {figure}: per-unit signature distributions ==\n\n");
    let mut t = Table::new(vec!["Unit", "errors", "distinct sets", "mean BC vs others"]);
    for u in 0..granularity.unit_count() {
        t.row(vec![
            granularity.unit_name(u).to_owned(),
            analysis.samples[u].to_string(),
            analysis.distributions[u].support_size().to_string(),
            analysis.mean_bc[u].map_or("-".to_owned(), |bc| format!("{bc:.3}")),
        ]);
    }
    report.push_str(&t.render());
    if let Some((min, med, max)) = analysis.min_median_max_units() {
        report.push_str(&format!(
            "\nFigure panels (min/median/max BC units): {} / {} / {}\n",
            granularity.unit_name(min),
            granularity.unit_name(med),
            granularity.unit_name(max)
        ));
        // Probability-distribution sketch for the three panel units.
        for u in [min, med, max] {
            report.push_str(&format!(
                "\n  {} distribution over its top diverged-SC sets:\n",
                granularity.unit_name(u)
            ));
            // The distribution is a hash map: order equal probabilities
            // by the whole DSR, so the panel prints the same every run.
            let mut probs: Vec<(u64, f64)> =
                analysis.distributions[u].iter().map(|(dsr, p)| (dsr.bits(), p)).collect();
            probs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for (bits, p) in probs.iter().take(8) {
                let bar = "#".repeat((p * 60.0).round() as usize);
                report.push_str(&format!("    set …{:013b} {bar} {:.3}\n", bits & 0x1FFF, p));
            }
        }
    }
    report.push_str(&format!(
        "\nAverage BC across units: {} (paper ~{paper_bc})\n",
        analysis.overall_mean_bc().map_or("-".to_owned(), |bc| format!("{bc:.3}"))
    ));
    (analysis, report)
}

/// Runs the Section III-B type-evidence analysis.
pub fn run_type_evidence(
    result: &CampaignResult,
    granularity: Granularity,
) -> (TypeEvidence, String) {
    let ev = type_evidence(&result.records, granularity);
    let mut report = String::from("== Section III-B: error type evidence ==\n\n");
    let mut t = Table::new(vec!["Unit", "hard-vs-soft BC"]);
    for u in 0..granularity.unit_count() {
        t.row(vec![
            granularity.unit_name(u).to_owned(),
            ev.unit_type_bc[u].map_or("-".to_owned(), |bc| format!("{bc:.3}")),
        ]);
    }
    report.push_str(&t.render());
    let defined: Vec<f64> = ev.unit_type_bc.iter().flatten().copied().collect();
    if !defined.is_empty() {
        let min = defined.iter().copied().fold(f64::INFINITY, f64::min);
        let max = defined.iter().copied().fold(0.0f64, f64::max);
        report.push_str(&format!(
            "\nType BC  min {min:.2} / mean {:.2} / max {max:.2}   (paper: 0.3 / 0.6 / 0.95)\n",
            ev.mean_type_bc().unwrap_or(0.0)
        ));
    }
    report.push_str(&format!(
        "Distinct diverged-SC sets: hard {} vs soft {} -> hard +{:.0}% (paper: +54%)\n",
        ev.hard_distinct_sets,
        ev.soft_distinct_sets,
        ev.hard_set_excess_pct()
    ));
    (ev, report)
}
