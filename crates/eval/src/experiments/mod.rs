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
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_report(out: &mut dyn Write, result: &CampaignResult, seed: u64) -> io::Result<()> {
    let coarse = topk::sweep(result, Coarse, seed);
    let fine = topk::sweep(result, Fine, seed);
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
        fig11::run(result, Coarse, seed).1,
        tab3::run(result, seed).1,
        sec5b::run(result, seed).1,
        topk::render_accuracy(&coarse, Coarse),
        topk::render_lert(&coarse, Coarse),
        fig11::run(result, Fine, seed).1,
        topk::render_accuracy(&fine, Fine),
        topk::render_lert(&fine, Fine),
        tab4::run(11).1,
        ablation::run_dynamic(result, seed).1,
        ablation::run_lbist(result, Coarse, 64, seed).1,
    ] {
        writeln!(out, "{section}")?;
    }
    Ok(())
}
