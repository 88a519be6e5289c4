//! Cross-core transfer matrix: trains the prediction table on one core
//! model's campaign and tests it on the other's, both directions, both
//! granularities. Runs the same campaign (workloads, faults, seed) on
//! the in-order LR5 and the out-of-order LR7; any `--core` flag is
//! overridden since this experiment needs both.
use lockstep_cpu::CoreKind;
use lockstep_eval::cli;

fn main() {
    let mut config = cli::parse(std::env::args());
    let mut results = Vec::new();
    for core in CoreKind::ALL {
        config.core = core;
        eprintln!(
            "running {} campaign: {} faults x {} workloads, seed {} ...",
            core.label(),
            config.faults_per_workload,
            config.workloads.len(),
            config.seed
        );
        let result = lockstep_eval::run_campaign(&config);
        eprintln!(
            "{} done: {} errors from {} injections",
            core.label(),
            result.records.len(),
            result.injected
        );
        results.push(result);
    }
    let [lr5, lr7] = &results[..] else { unreachable!("two cores") };
    let (_, report) = lockstep_eval::experiments::crosscore::run(lr5, lr7, config.seed);
    cli::write_stdout(|out| writeln!(out, "\n{report}"));
}
