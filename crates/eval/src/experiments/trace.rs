//! The `trace_injection` deep-dive: replay one (workload, fault) pair
//! with the divergence trace recorder attached and pretty-print how the
//! DSR signature of Figures 4/5 is *built up* cycle by cycle.
//!
//! An [`crate::campaign`] record only keeps the end state — the DSR at
//! the close of the capture window. This experiment shows the road
//! there: the fault's microarchitectural footprint spreading through
//! the flip-flops of each unit (flip deltas vs the previous cycle), the
//! incubation phase where ports still agree, the first diverged signal
//! category at detection, and the per-cycle OR that converges on the
//! recorded DSR. The final section ranks units by how well the paper's
//! Figure 4/5 signature distributions explain the observed DSR.

use lockstep_cpu::{Granularity, Sc, UnitId};
use lockstep_fault::ErrorKind;
use lockstep_obs::DivergenceTrace;

use crate::analysis::signature_analysis;
use crate::campaign::CampaignResult;
use crate::render::Table;

/// Everything `run_trace` derived, for tests to assert on.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Index of the traced record.
    pub record: usize,
    /// Cumulative DSR rebuilt from the per-cycle samples.
    pub final_dsr_bits: u64,
    /// `true` iff the rebuilt DSR equals the record's DSR — the
    /// consistency check the binary prints and asserts.
    pub dsr_consistent: bool,
    /// Units ranked by the Figure 4/5 signature probability of the
    /// observed DSR (coarse indices, best first); empty when no other
    /// record of the same class exists to estimate distributions from.
    pub signature_ranking: Vec<(usize, f64)>,
}

/// Pretty-prints the divergence trace of `result.records[index]` and
/// cross-references its final DSR against the Figure 4/5 signature
/// distributions estimated from the rest of the campaign.
///
/// # Panics
///
/// Panics if the campaign recorded no traces (see
/// [`CampaignConfig::records_traces`](crate::campaign::CampaignConfig::records_traces))
/// or `index` is out of range.
pub fn run_trace(result: &CampaignResult, index: usize) -> (TraceReport, String) {
    assert!(
        !result.traces.is_empty(),
        "campaign ran without tracing; see CampaignConfig::records_traces"
    );
    let record = &result.records[index];
    let trace =
        result.traces[index].as_ref().expect("checkpointed tracing records every manifestation");

    let mut out = format!(
        "== Divergence trace: record #{index} ==\n\n\
         workload       {}\n\
         fault          {:?} in {} (fine unit {})\n\
         inject cycle   {}\n\
         detect cycle   {}  (manifestation time {} cycles)\n\
         recorded DSR   {:#018x}  ({} SCs: {})\n\
         trace window   {} pre-detection + {} capture cycles, {} samples kept\n\n",
        record.workload,
        record.fault,
        record.unit().name(),
        record.unit_index,
        record.inject_cycle,
        record.detect_cycle,
        record.manifestation_time(),
        record.dsr.bits(),
        record.dsr.count(),
        sc_list(record.dsr.bits()),
        trace.pre_window,
        trace.capture_window,
        trace.samples.len(),
    );

    out.push_str(&render_samples(trace));

    let final_bits = trace.final_dsr_bits();
    let consistent = final_bits == record.dsr.bits();
    out.push_str(&format!(
        "\ncumulative capture-window DSR {:#018x} — {}\n",
        final_bits,
        if consistent {
            "matches the campaign's ErrorRecord exactly"
        } else {
            "MISMATCH vs the campaign's ErrorRecord"
        }
    ));

    // ------------------------------------------------------------------
    // Figure 4/5 cross-reference: estimate per-unit signature
    // distributions from every *other* record of the same error class,
    // then ask which unit's distribution best explains this DSR.
    // ------------------------------------------------------------------
    let granularity = Granularity::Coarse;
    let kind = record.kind();
    let others: Vec<_> = result
        .records
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != index)
        .map(|(_, r)| r.clone())
        .collect();
    let analysis = signature_analysis(&others, granularity, kind);
    let mut ranking: Vec<(usize, f64)> = (0..granularity.unit_count())
        .filter(|&u| !analysis.distributions[u].is_empty())
        .map(|u| (u, analysis.distributions[u].probability(&record.dsr)))
        .collect();
    ranking.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probability"));

    if ranking.is_empty() {
        out.push_str("\n(no other records of this error class: skipping the Figure 4/5 lookup)\n");
    } else {
        let figure = if kind == ErrorKind::Hard { "Figure 4" } else { "Figure 5" };
        out.push_str(&format!(
            "\n== {figure} cross-reference ({} errors, {} organization) ==\n\n\
             P(observed DSR | unit) under each unit's signature distribution,\n\
             estimated from the campaign's other {} records:\n\n",
            if kind == ErrorKind::Hard { "hard" } else { "soft" },
            if granularity == Granularity::Coarse { "coarse 7-unit" } else { "fine 13-unit" },
            others.len(),
        ));
        let mut t = Table::new(vec!["rank", "unit", "P(DSR|unit)", "note"]);
        let true_coarse = granularity.index_of(record.unit());
        for (rank, (u, p)) in ranking.iter().enumerate() {
            t.row(vec![
                (rank + 1).to_string(),
                granularity.unit_name(*u).to_owned(),
                format!("{p:.4}"),
                if *u == true_coarse { "<- true unit".to_owned() } else { String::new() },
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nThis per-set probability lookup is exactly what the predictor's\n\
             training histograms aggregate (Figure 10a); low probability on the\n\
             true unit means a DSR set the campaign rarely saw from it.\n",
        );
    }

    (
        TraceReport {
            record: index,
            final_dsr_bits: final_bits,
            dsr_consistent: consistent,
            signature_ranking: ranking,
        },
        out,
    )
}

/// Renders the per-cycle sample table: phase, fault activity, per-unit
/// flip deltas, diverged SCs and the running DSR.
fn render_samples(trace: &DivergenceTrace) -> String {
    let mut t = Table::new(vec![
        "cycle",
        "phase",
        "fault",
        "flips",
        "hottest units",
        "diverged SCs",
        "DSR so far",
    ]);
    let mut running = 0u64;
    for s in &trace.samples {
        let capture = s.cycle >= trace.detect_cycle;
        if capture {
            running |= s.diverged;
        }
        let mut hot: Vec<(usize, u16)> =
            s.unit_flips.iter().copied().enumerate().filter(|&(_, n)| n > 0).collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let hottest = hot
            .iter()
            .take(3)
            .map(|&(u, n)| format!("{}+{n}", UnitId::ALL[u].name()))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            s.cycle.to_string(),
            if !capture {
                "incubate".to_owned()
            } else if s.cycle == trace.detect_cycle {
                "DETECT".to_owned()
            } else {
                "capture".to_owned()
            },
            if s.fault_active { "*".to_owned() } else { String::new() },
            s.total_flips().to_string(),
            hottest,
            sc_list(s.diverged),
            if capture { format!("{running:#x}") } else { "-".to_owned() },
        ]);
    }
    t.render()
}

/// Comma-separated names of the SCs set in `bits` (`-` when empty).
fn sc_list(bits: u64) -> String {
    if bits == 0 {
        return "-".to_owned();
    }
    Sc::ALL
        .iter()
        .filter(|sc| bits >> sc.index() & 1 == 1)
        .map(|sc| sc.name())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig, DEFAULT_CAPTURE_WINDOW};
    use lockstep_workloads::Workload;

    fn traced_campaign() -> CampaignResult {
        run_campaign(&CampaignConfig {
            workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
            faults_per_workload: 150,
            seed: 2024,
            threads: 4,
            capture_window: DEFAULT_CAPTURE_WINDOW,
            checkpoint_interval: Some(4096),
            events: None,
            trace_window: Some(48),
            batch: None,
            core: lockstep_cpu::CoreKind::Lr5,
            redundancy: lockstep_core::RedundancyMode::Fixed,
        })
    }

    #[test]
    fn report_is_consistent_for_every_record() {
        let result = traced_campaign();
        assert!(!result.records.is_empty());
        for i in 0..result.records.len() {
            let (report, text) = run_trace(&result, i);
            assert!(report.dsr_consistent, "record {i}: trace DSR must match the ErrorRecord");
            assert_eq!(report.final_dsr_bits, result.records[i].dsr.bits());
            assert!(text.contains("matches the campaign's ErrorRecord exactly"));
            assert!(text.contains("DETECT"));
        }
    }

    #[test]
    fn signature_ranking_covers_only_populated_units() {
        let result = traced_campaign();
        let (report, text) = run_trace(&result, 0);
        assert!(!report.signature_ranking.is_empty());
        for (u, p) in &report.signature_ranking {
            assert!(*u < Granularity::Coarse.unit_count());
            assert!((0.0..=1.0).contains(p));
        }
        // Ranking is sorted best-first.
        for w in report.signature_ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(text.contains("cross-reference"));
    }

    #[test]
    #[should_panic(expected = "without tracing")]
    fn untrace_campaign_panics_with_guidance() {
        let mut result = traced_campaign();
        result.traces.clear();
        let _ = run_trace(&result, 0);
    }
}
