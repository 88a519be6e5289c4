//! One module per paper table/figure (see DESIGN.md for the index).
//!
//! Every experiment takes a completed [`crate::campaign::CampaignResult`]
//! (plus options) and returns both a printable report and structured
//! numbers, so the binaries print and tests assert on the same code
//! path. [`write_report`] strings the paper's sections together into the
//! one report `repro_all` prints after a campaign and `analyze_dataset`
//! prints for a saved archive. Reports quote the paper's reference
//! values next to the measured ones; EXPERIMENTS.md records a full
//! paper-vs-measured run.

use std::io::{self, Write};

use lockstep_cpu::Granularity::{Coarse, Fine};
use lockstep_fault::ErrorKind;

use crate::campaign::CampaignResult;
use crate::dataset::{skipped_for_folds, FOLDS};

pub mod ablation;
pub mod crosscore;
pub mod diversity;
pub mod fig10;
pub mod fig11;
pub mod fig45;
pub mod inventory;
pub mod sec5b;
pub mod tab1;
pub mod tab2;
pub mod tab3;
pub mod tab4;
pub mod topk;
pub mod trace;

/// Writes every section of the evaluation over `result` to `out`, in
/// this order: Figures 3 and 8, Tables I and II (both
/// granularities), Figures 4 and 5, Section III-B, Figure 10 (the 20
/// busiest entries), Figure 11, Table III, Section V-B, Figures 12–16,
/// Table IV (11 PTAR bits) and the two ablations. `seed` draws the
/// cross-validation splits and the ablations' error streams.
///
/// A campaign that logged fewer errors than [`FOLDS`] cannot be
/// cross-validated: each cross-validated section (Figures 11–16,
/// Table III, Section V-B and the LBIST ablation) is then one line
/// saying it was skipped, and every other section prints as usual.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_report(out: &mut dyn Write, result: &CampaignResult, seed: u64) -> io::Result<()> {
    let errors = result.records.len();
    let folded = errors >= FOLDS;
    let cross_validated = |title: &str, section: &dyn Fn() -> String| {
        if folded {
            section()
        } else {
            format!("== {} ==\n", skipped_for_folds(title, errors))
        }
    };
    let sweep =
        |granularity| if folded { topk::sweep(result, granularity, seed) } else { Vec::new() };
    let (coarse, fine) = (sweep(Coarse), sweep(Fine));
    for section in [
        inventory::signal_categories(),
        inventory::unit_organization(),
        tab1::run(result).1,
        tab2::run(result, Coarse).1,
        tab2::run(result, Fine).1,
        fig45::run_signatures(result, Coarse, ErrorKind::Hard).1,
        fig45::run_signatures(result, Coarse, ErrorKind::Soft).1,
        fig45::run_type_evidence(result, Coarse).1,
        fig10::run(result, Coarse, 20).1,
        cross_validated("Figure 11 (7 units)", &|| fig11::run(result, Coarse, seed).1),
        cross_validated("Table III", &|| tab3::run(result, seed).1),
        cross_validated("Section V-B", &|| sec5b::run(result, seed).1),
        cross_validated("Figure 12 (7 units)", &|| topk::render_accuracy(&coarse, Coarse)),
        cross_validated("Figure 13 (7 units)", &|| topk::render_lert(&coarse, Coarse)),
        cross_validated("Figure 14 (13 units)", &|| fig11::run(result, Fine, seed).1),
        cross_validated("Figure 15 (13 units)", &|| topk::render_accuracy(&fine, Fine)),
        cross_validated("Figure 16 (13 units)", &|| topk::render_lert(&fine, Fine)),
        tab4::run(11).1,
        ablation::run_dynamic(result, seed).1,
        cross_validated("Ablation: LBIST vs SBIST diagnostics", &|| {
            ablation::run_lbist(result, Coarse, 64, seed).1
        }),
    ] {
        writeln!(out, "{section}")?;
    }
    Ok(())
}
