//! Regenerates **every table and figure** of the paper's evaluation from
//! a single fault-injection campaign — the one-command reproduction.
//!
//! ```text
//! cargo run --release -p lockstep-eval --bin repro_all -- --faults 2500
//! ```
//!
//! Prints the campaign's throughput table, then the one report of
//! [`lockstep_eval::experiments::write_report`]: Figures 3 and 8,
//! Tables I/II, Figures 4/5, Section III-B, Figure 10, Figure 11,
//! Table III, Section V-B, Figures 12/13, Figures 14/15/16, Table IV,
//! plus the two ablations. `analyze_dataset` prints the same report for
//! a saved archive.

use lockstep_eval::{cli, experiments};

fn main() {
    let config = cli::parse(std::env::args());
    eprintln!(
        "campaign: {} faults x {} workloads, seed {}, {} thread(s)...",
        config.faults_per_workload,
        config.workloads.len(),
        config.seed,
        config.threads
    );
    let start = std::time::Instant::now();
    let result = lockstep_eval::run_campaign(&config);
    eprintln!(
        "campaign done in {:.0?}: {} errors from {} injections ({:.0} injections/sec)\n",
        start.elapsed(),
        result.records.len(),
        result.injected,
        result.stats.injections_per_sec
    );

    cli::write_stdout(|out| {
        writeln!(out, "{}", result.stats.render())?;
        experiments::write_report(out, &result, config.seed)
    });
    eprintln!("total wall time: {:.0?}", start.elapsed());
}
