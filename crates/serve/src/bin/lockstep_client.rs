//! CLI client for the campaign service.
//!
//! One subcommand per protocol request, plus two conveniences: `wait`
//! polls a job to completion, and `check` runs the full loop — submit a
//! campaign, wait, then verify every prediction the server gives
//! against the offline-trained table (the CI service-smoke job is
//! exactly `check`). See `docs/CAMPAIGN_SERVICE.md`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;
use lockstep_eval::campaign::run_campaign;
use lockstep_eval::dataset::Dataset;
use lockstep_eval::spec::{CampaignSpec, DEFAULT_SPEC_REPLAY_MODE};
use lockstep_fault::ErrorKind;
use lockstep_serve::proto::{JobStatus, PredictResponse, StatusResponse, SubmitResponse};
use lockstep_serve::JobSpec;
use serde::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7117".to_owned();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = it.next().unwrap_or_else(|| die("--addr requires a value"));
        } else {
            rest.push(arg);
            rest.extend(it);
            break;
        }
    }
    let Some((command, flags)) = rest.split_first() else {
        die(&usage());
    };
    match command.as_str() {
        "ping" => relay(&addr, r#"{"cmd":"ping"}"#),
        "shutdown" => relay(&addr, r#"{"cmd":"shutdown"}"#),
        "status" => {
            let job = flag_value(flags, "--job");
            let line = match job {
                Some(id) => format!(r#"{{"cmd":"status","job":"{id}"}}"#),
                None => r#"{"cmd":"status"}"#.to_owned(),
            };
            relay(&addr, &line);
        }
        "submit" => {
            let spec = spec_from_flags(flags);
            relay(&addr, &submit_line(&spec));
        }
        "predict" => {
            let dsr = flag_value(flags, "--dsr").unwrap_or_else(|| die("predict needs --dsr"));
            let granularity = flag_value(flags, "--granularity").unwrap_or("coarse".to_owned());
            let core = flag_value(flags, "--core").unwrap_or("lr5".to_owned());
            let line = format!(
                r#"{{"cmd":"predict","dsr":"{dsr}","granularity":"{granularity}","core":"{core}"}}"#
            );
            relay(&addr, &line);
        }
        "wait" => {
            let job = flag_value(flags, "--job").unwrap_or_else(|| die("wait needs --job"));
            let timeout = flag_value(flags, "--timeout-secs")
                .map_or(600, |s| s.parse().unwrap_or_else(|_| die("bad --timeout-secs")));
            let status = wait_for_job(&addr, &job, Duration::from_secs(timeout));
            println!("{}", serde_json::to_string(&status).expect("status serializes"));
            if status.state != "done" {
                std::process::exit(1);
            }
        }
        "check" => check(&addr, flags),
        "--help" | "-h" | "help" => println!("{}", usage()),
        other => die(&format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: lockstep_client [--addr HOST:PORT] <command>\n\
     commands:\n  \
     ping\n  \
     submit --workloads a,b[,fuzz:<seed>[:<count>]|lc:<kernel>] --faults N [--seed S]\n         \
     [--shards K] [--batch-mode off|full] [--core lr5|lr7] [--redundancy fixed|dme]\n  \
     status [--job job-NNNNNN]\n  \
     wait --job job-NNNNNN [--timeout-secs N]\n  \
     predict --dsr 0xHEX [--granularity coarse|fine] [--core lr5|lr7]\n  \
     check --workloads a,b --faults N [--seed S] [--shards K] [--granularity coarse|fine]\n        \
     [--batch-mode off|full] [--core lr5|lr7] [--redundancy fixed|dme]\n  \
     shutdown"
        .to_owned()
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn flag_value(flags: &[String], name: &str) -> Option<String> {
    flags.iter().position(|f| f == name).map(|i| {
        flags.get(i + 1).cloned().unwrap_or_else(|| die(&format!("{name} requires a value")))
    })
}

/// Sends one request line and returns the one response line. A server
/// that closes the connection without answering is an error.
fn request(addr: &str, line: &str) -> String {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    let mut writer = stream.try_clone().unwrap_or_else(|e| die(&format!("socket: {e}")));
    writer
        .write_all(format!("{line}\n").as_bytes())
        .unwrap_or_else(|e| die(&format!("send failed: {e}")));
    let mut response = String::new();
    let read = BufReader::new(stream)
        .read_line(&mut response)
        .unwrap_or_else(|e| die(&format!("receive failed: {e}")));
    if read == 0 {
        die("server closed the connection");
    }
    response.trim_end().to_owned()
}

/// Whether a response line says `"ok": true`.
fn is_ok(response: &str) -> bool {
    Value::parse(response)
        .ok()
        .and_then(|v| v.field("ok").and_then(Value::as_bool).ok())
        .unwrap_or(false)
}

/// Sends one request and prints the server's line; exits 2 when the
/// server refused it, so a script can tell a refusal from an answer by
/// the exit status.
fn relay(addr: &str, line: &str) {
    let response = request(addr, line);
    println!("{response}");
    if !is_ok(&response) {
        std::process::exit(2);
    }
}

/// Sends a request that must succeed, parsing the typed response.
fn request_ok<T: serde::Deserialize>(addr: &str, line: &str) -> T {
    let response = request(addr, line);
    if !is_ok(&response) {
        die(&format!("server refused `{line}`: {response}"));
    }
    serde_json::from_str(&response)
        .unwrap_or_else(|e| die(&format!("unexpected response `{response}`: {e}")))
}

/// The job the `submit` and `check` flags describe, validated the way
/// the server validates it. Workload tokens go out as given (the
/// server expands `fuzz:` and `lc:` itself).
fn spec_from_flags(flags: &[String]) -> JobSpec {
    let list = flag_value(flags, "--workloads").unwrap_or_else(|| die("missing --workloads"));
    let spec = JobSpec {
        campaign: CampaignSpec {
            workloads: list.split(',').map(|w| w.trim().to_owned()).collect(),
            faults_per_workload: flag_value(flags, "--faults")
                .unwrap_or_else(|| die("missing --faults"))
                .parse()
                .unwrap_or_else(|_| die("bad --faults")),
            seed: flag_value(flags, "--seed")
                .map_or(1, |s| s.parse().unwrap_or_else(|_| die("bad --seed"))),
            replay_mode: DEFAULT_SPEC_REPLAY_MODE.to_owned(),
            batch_mode: flag_value(flags, "--batch-mode").unwrap_or("full".to_owned()),
            core: flag_value(flags, "--core").unwrap_or("lr5".to_owned()),
            redundancy: flag_value(flags, "--redundancy").unwrap_or("fixed".to_owned()),
        },
        shards: flag_value(flags, "--shards")
            .map_or(4, |s| s.parse().unwrap_or_else(|_| die("bad --shards"))),
    };
    spec.validate().unwrap_or_else(|e| die(&e.to_string()));
    spec
}

fn submit_line(spec: &JobSpec) -> String {
    // The wire format is one flat object, so serialize the campaign
    // fields and inject the cmd and shard count into the object.
    let mut body = serde_json::to_string(&spec.campaign).expect("job spec serializes");
    body.replace_range(0..1, r#"{"cmd":"submit","#);
    body.truncate(body.len() - 1);
    body.push_str(&format!(r#","shards":{}}}"#, spec.shards));
    body
}

fn wait_for_job(addr: &str, job: &str, timeout: Duration) -> JobStatus {
    let deadline = Instant::now() + timeout;
    loop {
        let status: StatusResponse =
            request_ok(addr, &format!(r#"{{"cmd":"status","job":"{job}"}}"#));
        let Some(job_status) = status.jobs.into_iter().next() else {
            die(&format!("job `{job}` vanished"));
        };
        if job_status.state != "running" {
            return job_status;
        }
        if Instant::now() >= deadline {
            eprintln!("timed out waiting for {job}; last state:");
            return job_status;
        }
        std::thread::sleep(Duration::from_millis(300));
    }
}

/// Submits a campaign, waits for it, then checks the server's answer
/// for **every distinct DSR** the campaign manifested (plus one
/// guaranteed table miss) against the offline-trained predictor.
fn check(addr: &str, flags: &[String]) {
    let spec = spec_from_flags(flags);
    let granularity = match flag_value(flags, "--granularity").as_deref() {
        None | Some("coarse") => Granularity::Coarse,
        Some("fine") => Granularity::Fine,
        Some(other) => die(&format!("bad --granularity `{other}`")),
    };
    let timeout = flag_value(flags, "--timeout-secs")
        .map_or(600, |s| s.parse().unwrap_or_else(|_| die("bad --timeout-secs")));
    let mut config = spec.campaign_config().unwrap_or_else(|e| die(&e.to_string()));

    eprintln!(
        "submitting {} workloads x {} faults on the {} ...",
        config.workloads.len(),
        config.faults_per_workload,
        spec.campaign.core
    );
    let submitted: SubmitResponse = request_ok(addr, &submit_line(&spec));
    eprintln!("{} accepted as {} shards; waiting ...", submitted.job, submitted.shards);
    let status = wait_for_job(addr, &submitted.job, Duration::from_secs(timeout));
    if status.state != "done" {
        die(&format!("{} did not complete: {status:?}", submitted.job));
    }
    eprintln!("{} done: {} records; training offline reference ...", submitted.job, status.records);

    // The offline path the paper's experiments use (repro_all's
    // Figure 10): same records, same training call.
    config.threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let result = run_campaign(&config);
    let records: Vec<&ErrorRecord> = result.records.iter().collect();
    let train = Dataset::to_train_records(&records, granularity);
    let offline = Predictor::train(&train, PredictorConfig::new(granularity));

    let mut dsrs: Vec<u64> = result.records.iter().map(|r| r.dsr.bits()).collect();
    dsrs.sort_unstable();
    dsrs.dedup();
    let miss = (0..u64::MAX).find(|b| dsrs.binary_search(b).is_err()).expect("a free DSR exists");
    dsrs.push(miss);

    let mut mismatches = 0usize;
    for &bits in &dsrs {
        let expected = offline.predict(Dsr::from_bits(bits));
        let expected_order: Vec<String> =
            expected.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect();
        let expected_kind = match expected.kind {
            ErrorKind::Hard => "hard",
            ErrorKind::Soft => "soft",
        };
        let line = format!(
            r#"{{"cmd":"predict","dsr":"{bits:#x}","granularity":"{}","core":"{}"}}"#,
            lockstep_serve::proto::granularity_label(granularity),
            spec.campaign.core
        );
        let got: PredictResponse = request_ok(addr, &line);
        if got.order != expected_order
            || got.kind != expected_kind
            || got.table_hit != expected.table_hit
        {
            mismatches += 1;
            eprintln!(
                "MISMATCH dsr {bits:016x}: server ({:?}, {}, hit={}) vs offline ({:?}, {}, hit={})",
                got.order,
                got.kind,
                got.table_hit,
                expected_order,
                expected_kind,
                expected.table_hit
            );
        }
    }
    if mismatches > 0 {
        die(&format!(
            "{mismatches} of {} DSR diagnoses disagree with the offline table",
            dsrs.len()
        ));
    }
    println!(
        "check passed: {} distinct DSRs (plus 1 table miss) match the offline-trained table",
        dsrs.len() - 1
    );
}
