//! Workload-diversity experiment: re-trains the prediction table on
//! the hand-written kernel corpus, the compiled-LC corpus, and their
//! union, and reports SC-set-count / table-size / top-1 deltas plus the
//! cross-corpus transfer cells.
//!
//! `--workloads` selects the hand-written corpus (default: the full
//! suite); the compiled corpus is always the whole `lc:all` registry.
use lockstep_eval::cli;
use lockstep_workloads::lc;

fn main() {
    let mut config = cli::parse(std::env::args());

    eprintln!(
        "running hand-written campaign: {} faults x {} workloads, seed {} ...",
        config.faults_per_workload,
        config.workloads.len(),
        config.seed
    );
    let hand = lockstep_eval::run_campaign(&config);
    eprintln!("hand-written done: {} errors from {} injections", hand.records.len(), hand.injected);

    config.workloads = lc::all();
    eprintln!(
        "running compiled campaign: {} faults x {} lc workloads ...",
        config.faults_per_workload,
        config.workloads.len()
    );
    let compiled = lockstep_eval::run_campaign(&config);
    eprintln!(
        "compiled done: {} errors from {} injections",
        compiled.records.len(),
        compiled.injected
    );

    let (_, report) = lockstep_eval::experiments::diversity::run(&hand, &compiled, config.seed);
    cli::write_stdout(|out| writeln!(out, "\n{report}"));
}
