//! Replays one (workload, fault) pair with the divergence trace
//! recorder attached and pretty-prints the cycle-by-cycle DSR signature
//! evolution, cross-referenced to Figures 4/5.
//!
//! In addition to the common flags, accepts `--record I` to pick which
//! manifested error of the campaign to trace (default 0, the first).
//! Tracing is forced on; `--trace-window` (default 64, never 0)
//! controls how many pre-detection cycles are retained. The common
//! parser refuses it, default included, with `--checkpoint-interval 0`
//! or `--redundancy dme`, which record no traces.

use lockstep_eval::campaign::DEFAULT_TRACE_WINDOW;
use lockstep_eval::cli;

fn main() {
    // Split off the flag this binary adds before the common parser
    // (which rejects unknown flags) sees the argument list, and put the
    // default window first, so that a later `--trace-window` overrides
    // it and the parser checks it like any other.
    let mut record = 0usize;
    let mut it = std::env::args();
    let mut rest: Vec<String> = it.next().into_iter().collect();
    rest.extend(["--trace-window".to_owned(), DEFAULT_TRACE_WINDOW.to_string()]);
    while let Some(arg) = it.next() {
        if arg == "--record" {
            let v = it.next().unwrap_or_else(|| die("--record requires a value"));
            record = v.parse().unwrap_or_else(|_| die("bad --record"));
        } else {
            rest.push(arg);
        }
    }
    let config = cli::parse(rest);
    if config.trace_window.is_none() {
        die("--trace-window must be above 0: this tool always traces");
    }

    eprintln!(
        "running traced campaign: {} faults x {} workloads, seed {}, \
         trace window {} ...",
        config.faults_per_workload,
        config.workloads.len(),
        config.seed,
        config.trace_window.unwrap_or(0),
    );
    let result = lockstep_eval::run_campaign(&config);
    eprintln!(
        "campaign done: {} errors from {} injections\n",
        result.records.len(),
        result.injected
    );
    if result.records.is_empty() {
        die("campaign manifested no errors; raise --faults");
    }
    if record >= result.records.len() {
        die(&format!(
            "--record {record} out of range: campaign has {} records",
            result.records.len()
        ));
    }
    let (report, text) = lockstep_eval::experiments::trace::run_trace(&result, record);
    cli::write_stdout(|out| writeln!(out, "{text}"));
    assert!(report.dsr_consistent, "trace DSR diverged from the campaign record");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
