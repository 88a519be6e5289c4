//! Re-runs every analysis over a previously exported campaign archive —
//! no fault injection, just the model-development stage of Figure 7.
//!
//! ```text
//! analyze_dataset campaign.json [--seed S]
//! ```
//!
//! Prints the report `repro_all` prints after its throughput table
//! ([`lockstep_eval::experiments::write_report`]); at the campaign's
//! `--seed` the two are byte-identical.

use std::path::Path;

use lockstep_eval::{cli, experiments, CampaignArchive};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: analyze_dataset <campaign.json> [--seed S]");
        std::process::exit(2);
    };
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2018u64);
    let result = match CampaignArchive::load(Path::new(path)).and_then(|a| a.into_result()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("loaded {} errors from {path}\n", result.records.len());
    cli::write_stdout(|out| experiments::write_report(out, &result, seed));
}
