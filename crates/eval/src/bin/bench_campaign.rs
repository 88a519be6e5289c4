//! Measures campaign injection throughput across the batched
//! fault-simulation layers and appends the result as one row to the
//! trajectory in `BENCH_campaign.json` (the committed copies at the repo
//! root grow by one row each time this binary is run on them).
//!
//! ```text
//! cargo run --release -p lockstep-eval --bin bench_campaign -- \
//!     --faults 1000 [--out BENCH_campaign.json]
//! ```
//!
//! Runs the same campaign under five modes — scalar per-fault replay,
//! then each batch layer combination (`fanout` → `earlyout` → `lanes` →
//! `full`) — in [`ROUNDS`] interleaved rounds, and reports each mode's
//! median wall time and injection-phase throughput over the rounds,
//! its simulated-cycle counts, and the host it ran on. The record
//! streams are asserted identical across every run before anything is
//! written: a throughput number from a run that changed the physics
//! would be meaningless. A row records the commit and UTC date it was
//! measured at, the host, the rounds and the campaign settings beside
//! the per-mode results; the file is a JSON array of rows, one per line,
//! oldest first, so earlier rows are never lost. The shared campaign
//! flags apply, so
//! `--redundancy dme` cross-checks DME's path through the batched
//! engine against its scalar reference, and `--core lr7` runs every
//! layer on the out-of-order core.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use lockstep_eval::batch::BatchConfig;
use lockstep_eval::cli;
use lockstep_eval::CampaignResult;
use serde::json::Value;
use serde::Serialize;

/// Rounds of the five modes. A wall-time figure from one run moves with
/// whatever else the host does at that moment; the median of
/// interleaved rounds moves much less, and every mode meets the same
/// host conditions.
const ROUNDS: usize = 3;

/// The machine a report was measured on.
#[derive(Serialize)]
struct Host {
    /// `model name` of the first processor in `/proc/cpuinfo`.
    cpu: String,
    /// Logical CPUs listed in `/proc/cpuinfo`.
    logical_cpus: usize,
}

impl Host {
    fn detect() -> Host {
        let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |line: &str, key: &str| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_owned())
        };
        Host {
            cpu: info
                .lines()
                .find_map(|l| field(l, "model name"))
                .unwrap_or_else(|| "unknown".to_owned()),
            logical_cpus: info.lines().filter(|l| field(l, "processor").is_some()).count(),
        }
    }
}

/// One row of the trajectory: a campaign run under one batch mode.
/// Timings are medians over the rounds; the counts are the same in
/// every round.
#[derive(Serialize)]
struct ConfigRow {
    batch_mode: &'static str,
    wall_ms: f64,
    injection_ms: f64,
    faults_per_sec: f64,
    replayed_mcycles: f64,
    masked_early_out: u64,
    parked_masked: u64,
    lane_activations: u64,
    speedup_vs_off: f64,
}

/// One row of the trajectory in `BENCH_campaign.json`: what was
/// measured, where and when, and the per-mode results.
#[derive(Serialize)]
struct Report {
    commit: String,
    date: String,
    bench: &'static str,
    faults_per_workload: usize,
    workloads: Vec<String>,
    seed: u64,
    threads: usize,
    rounds: usize,
    host: Host,
    core: &'static str,
    redundancy: &'static str,
    checkpoint_interval: u64,
    injections: usize,
    manifested: usize,
    configs: Vec<ConfigRow>,
}

fn main() {
    // `--out PATH` is specific to this binary; strip it before handing
    // the rest to the shared parser (which dies on unknown flags).
    let mut out_path = String::from("BENCH_campaign.json");
    let mut rest = Vec::new();
    let mut it = std::env::args();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            out_path = it.next().unwrap_or_else(|| {
                eprintln!("error: --out requires a value");
                std::process::exit(2);
            });
        } else {
            rest.push(arg);
        }
    }
    let config = cli::parse(rest);

    let modes: [Option<BatchConfig>; 5] = [
        None,
        Some(BatchConfig::FAN_OUT),
        Some(BatchConfig::EARLY_OUT),
        Some(BatchConfig::LANES),
        Some(BatchConfig::FULL),
    ];

    eprintln!(
        "bench: {} faults x {} workloads, seed {}, {} thread(s), 5 batch modes x {ROUNDS} rounds...",
        config.faults_per_workload,
        config.workloads.len(),
        config.seed,
        config.threads
    );

    // runs[m][r]: mode `m` in round `r`; the modes interleave within a
    // round so that a slow stretch of the host hits every mode alike.
    let mut runs: Vec<Vec<CampaignResult>> = (0..modes.len()).map(|_| Vec::new()).collect();
    let mut reference: Option<(Vec<lockstep_core::ErrorRecord>, usize)> = None;
    for round in 0..ROUNDS {
        for (m, &mode) in modes.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.batch = mode;
            let label = mode.map_or("off", BatchConfig::label);
            let result = lockstep_eval::run_campaign(&cfg);
            match &reference {
                Some((records, _)) => assert_eq!(
                    &result.records, records,
                    "batch mode `{label}` changed the record stream in round {round} — refusing to report"
                ),
                None => reference = Some((result.records.clone(), result.injected)),
            }
            runs[m].push(result);
        }
    }

    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let baseline_nanos = median(runs[0].iter().map(|r| r.stats.injection_nanos as f64).collect());
    let mut configs = Vec::new();
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "mode", "wall ms", "inject ms", "faults/sec", "Mcyc simmed", "speedup"
    );
    for (mode, results) in modes.iter().zip(&runs) {
        let label = mode.map_or("off", BatchConfig::label);
        let wall_ms = median(results.iter().map(|r| r.stats.wall_nanos as f64 / 1e6).collect());
        let injection_nanos =
            median(results.iter().map(|r| r.stats.injection_nanos as f64).collect());
        let faults_per_sec = median(results.iter().map(|r| r.stats.injections_per_sec).collect());
        let stats = &results[0].stats;
        let replayed: u64 = stats.per_workload.iter().map(|w| w.replayed_cycles).sum();
        let speedup = baseline_nanos / injection_nanos.max(1.0);
        println!(
            "{:<10} {:>10.0} {:>12.0} {:>14.0} {:>12.1} {:>9.2}x",
            label,
            wall_ms,
            injection_nanos / 1e6,
            faults_per_sec,
            replayed as f64 / 1e6,
            speedup
        );
        configs.push(ConfigRow {
            batch_mode: label,
            wall_ms,
            injection_ms: injection_nanos / 1e6,
            faults_per_sec,
            replayed_mcycles: replayed as f64 / 1e6,
            masked_early_out: stats.masked_early_out,
            parked_masked: stats.parked_masked,
            lane_activations: stats.lane_activations,
            speedup_vs_off: speedup,
        });
    }

    let (records, injected) = reference.expect("at least one run");
    let report = Report {
        commit: commit(),
        date: utc_date(SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())),
        bench: "campaign_batch_modes",
        faults_per_workload: config.faults_per_workload,
        workloads: config.workloads.iter().map(|w| w.name.to_owned()).collect(),
        seed: config.seed,
        threads: config.threads,
        rounds: ROUNDS,
        host: Host::detect(),
        core: config.core.label(),
        redundancy: config.redundancy.label(),
        checkpoint_interval: config.checkpoint_interval.unwrap_or(0),
        injections: injected,
        manifested: records.len(),
        configs,
    };
    let row = serde_json::to_string(&report).expect("report serializes");
    let old = match std::fs::read_to_string(&out_path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => fail(&format!("cannot read `{out_path}`: {e}")),
    };
    let text = appended(old.as_deref(), &row)
        .unwrap_or_else(|e| fail(&format!("`{out_path}` is not a trajectory: {e}")));
    std::fs::write(&out_path, text)
        .unwrap_or_else(|e| fail(&format!("cannot write `{out_path}`: {e}")));
    eprintln!("appended a row to {out_path}");
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The trajectory `old` with `row` appended: a JSON array of rows, one
/// per line. No file yet starts a new array; a file holding one report
/// object from before the trajectory keeps it as the first row.
fn appended(old: Option<&str>, row: &str) -> Result<String, serde::json::Error> {
    let Some(old) = old else {
        return Ok(format!("[\n{row}\n]\n"));
    };
    let body = old.trim_end();
    Ok(match Value::parse(body)? {
        Value::Array(rows) if rows.is_empty() => format!("[\n{row}\n]\n"),
        Value::Array(_) => {
            let rows = body.strip_suffix(']').expect("a parsed array ends in `]`").trim_end();
            format!("{rows},\n{row}\n]\n")
        }
        _ => format!("[\n{body},\n{row}\n]\n"),
    })
}

/// `git rev-parse --short HEAD`, suffixed `-dirty` when tracked files
/// differ from it, or `unknown` outside a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).output().ok().filter(|o| o.status.success())?;
        Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) if !hash.is_empty() => {
            let status = git(&["status", "--porcelain", "--untracked-files=no"]);
            if status.is_some_and(|s| !s.is_empty()) {
                format!("{hash}-dirty")
            } else {
                hash
            }
        }
        _ => "unknown".to_owned(),
    }
}

/// `secs` past the Unix epoch as a UTC `YYYY-MM-DDTHH:MM:SSZ` string.
fn utc_date(secs: u64) -> String {
    // Days since 1970-01-01 to a civil date (H. Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let s = secs % 86_400;
    format!("{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z", s / 3_600, s / 60 % 60, s % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_dates_are_civil() {
        assert_eq!(utc_date(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_date(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_date(1_792_318_530), "2026-10-18T10:15:30Z");
    }

    #[test]
    fn rows_append_and_earlier_rows_are_kept() {
        let first = appended(None, r#"{"n":1}"#).unwrap();
        assert_eq!(first, "[\n{\"n\":1}\n]\n");
        let second = appended(Some(&first), r#"{"n":2}"#).unwrap();
        assert_eq!(second, "[\n{\"n\":1},\n{\"n\":2}\n]\n");
        let rows = Value::parse(&second).unwrap();
        assert_eq!(rows.as_array().unwrap().len(), 2);
        // A single report from before the trajectory becomes row one.
        let legacy = appended(Some("{\"n\":0}\n"), r#"{"n":1}"#).unwrap();
        assert_eq!(legacy, "[\n{\"n\":0},\n{\"n\":1}\n]\n");
        assert!(appended(Some("[{\"n\":"), r#"{"n":1}"#).is_err());
    }
}
