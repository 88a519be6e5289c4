//! Runs a fault-injection campaign and writes the logged error dataset
//! to a JSON archive (the data-logging stage of the paper's Figure 7).
//!
//! ```text
//! export_dataset campaign.json --faults 4000
//! analyze_dataset campaign.json        # later, as often as you like
//! ```

use std::path::PathBuf;

use lockstep_eval::{cli, CampaignArchive};

fn main() {
    let mut raw: Vec<String> = std::env::args().collect();
    // First non-flag argument after the program name is the output path.
    let path = if raw.len() > 1 && !raw[1].starts_with("--") {
        PathBuf::from(raw.remove(1))
    } else {
        PathBuf::from("campaign.json")
    };
    let config = cli::parse(raw);
    eprintln!(
        "campaign: {} faults x {} workloads, seed {}...",
        config.faults_per_workload,
        config.workloads.len(),
        config.seed
    );
    let result = lockstep_eval::run_campaign(&config);
    eprintln!("{} errors from {} injections", result.records.len(), result.injected);
    let archive = CampaignArchive::from_result(&result);
    if let Err(e) = archive.save(&path) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}
