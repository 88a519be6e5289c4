//! Seeded end-to-end and per-layer benchmark of the lockstep campaign
//! engine and campaign service. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lr5-suite --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`;
//! untraced runs report the end-to-end metrics, with every timing at
//! reference speed (`host`), traced runs the per-layer ones. Progress,
//! sample counts and the raw wall-clock rate go to standard error.

mod campaign;
mod diagnose;
mod digest;
mod host;
mod inputs;
mod layers;
mod micro;
mod pinned;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use stats::{median, Latencies};

/// What one run produced: the correctness verdict, operation counts,
/// and metrics in report order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (jobs and predicts).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Appends the end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        faults_per_s: f64,
        peak_rss_mib: f64,
        jobs: &Latencies,
        predicts: &Latencies,
    ) {
        let ms = |l: &Latencies, q: f64| l.percentile(q).unwrap_or(f64::INFINITY);
        self.metric(
            "setup_s",
            if setups_s.is_empty() { f64::INFINITY } else { median(setups_s) },
            "s",
        );
        self.metric("faults_per_s", faults_per_s, "faults/s");
        self.metric("peak_rss_mib", peak_rss_mib, "MiB");
        self.metric("job_p50_ms", ms(jobs, 0.50), "ms");
        self.metric("job_p95_ms", ms(jobs, 0.95), "ms");
        self.metric("predict_p50_ms", ms(predicts, 0.50), "ms");
        self.metric("predict_p90_ms", ms(predicts, 0.90), "ms");
    }

    /// Appends one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinities; an unmeasurable value (a tail
                // rank that fell on a failed request) reads as huge.
                let v = if value.is_finite() { *value } else { f64::MAX };
                format!(r#""{name}":{{"value":{v:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Scratch directory for this run inside the checkout, removed at
    /// the end of the run.
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(".perfbench-work").join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".perfbench-out")
            .join(format!("{}-seed{}-spans.jsonl", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, window: Duration::from_secs(20), trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                args.window = Duration::from_secs(s.max(1));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: lockstep-perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
            WORKLOADS.join("|")
        );
        std::process::exit(2);
    });
    let outcome = if let Some(w) = campaign::CampaignWorkload::named(&args.workload) {
        campaign::run(w, &args)
    } else {
        eprintln!("error: unknown workload `{}` (one of {})", args.workload, WORKLOADS.join(", "));
        std::process::exit(2);
    };
    std::fs::remove_dir_all(args.work_dir()).ok();
    std::fs::remove_dir(".perfbench-work").ok();
    flush_filesystems();
    println!("{}", outcome.to_json());
}

/// Writes back dirty data and settles deletions before the run ends.
/// The service traced in lr5-suite's traced run writes thousands of
/// registry files; left to the kernel, their writeback (after 30 s) and
/// the discards of their freed blocks would land in the next run's
/// window.
fn flush_filesystems() {
    match std::process::Command::new("sync").status() {
        Ok(status) if status.success() => {}
        other => eprintln!("warning: sync did not complete: {other:?}"),
    }
}

/// Every workload name, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["lr5-suite", "lr7-suite", "lr5-dme"];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let value = serde::json::Value::parse(&text).expect("BENCHMARK.json parses");
        let list = value.field(key).and_then(serde::json::Value::as_array).expect("metric list");
        list.iter()
            .map(|m| {
                let s =
                    |f: &str| m.field(f).and_then(serde::json::Value::as_str).expect(f).to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn reported(out: &Outcome) -> Vec<(String, String)> {
        out.metrics.iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn untraced_runs_report_every_end_to_end_metric() {
        let mut out = Outcome::default();
        out.end_to_end(&[1.0], 1.0, 1.0, &Latencies::default(), &Latencies::default());
        assert_eq!(reported(&out), declared("end_to_end"));
    }

    #[test]
    fn traced_runs_report_every_per_layer_metric() {
        let mut out = Outcome::default();
        let layers = layers::Layers { micro: Some(micro::Micro::default()), ..Default::default() };
        layers.emit(&mut out);
        assert_eq!(reported(&out), declared("per_layer"));
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let mut out = Outcome { correct: true, attempted: 3, failed: 0, metrics: Vec::new() };
        out.metric("setup_s", 0.5, "s");
        out.metric("job_p95_ms", f64::INFINITY, "ms");
        let value = serde::json::Value::parse(&out.to_json()).expect("valid JSON");
        assert!(value.field("correct").and_then(serde::json::Value::as_bool).expect("bool"));
        let m = value.field("metrics").and_then(|m| m.field("setup_s")).expect("metric");
        assert_eq!(m.field("unit").and_then(serde::json::Value::as_str).expect("unit"), "s");
    }
}
