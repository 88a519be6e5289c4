//! End-to-end service tests, each against a real TCP server on an
//! ephemeral port: the full submit → shard → merge → predict loop, the
//! restart-resume path, and every graceful-degradation contract
//! (backpressure, lease timeout requeue, retry-then-fail).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::Granularity;
use lockstep_eval::archive::{CampaignArchive, GoldenRunRepr, ARCHIVE_VERSION};
use lockstep_eval::campaign::{run_campaign, CampaignStats};
use lockstep_eval::dataset::Dataset;
use lockstep_eval::shard::{merge_shard_archives, plan_shards, run_shard};
use lockstep_eval::spec::CampaignSpec;
use lockstep_fault::ErrorKind;
use lockstep_obs::{Event, EventSink, MemorySink};
use lockstep_serve::proto::{PredictResponse, StatusResponse, SubmitResponse};
use lockstep_serve::{serve, JobSpec, Registry, SchedulerConfig, ServerHandle, ServiceConfig};
use serde::json::Value;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lockstep_serve_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_spec() -> JobSpec {
    JobSpec {
        campaign: CampaignSpec {
            workloads: vec!["rspeed".to_owned(), "idctrn".to_owned()],
            faults_per_workload: 30,
            seed: 77,
            replay_mode: "shadow".to_owned(),
            batch_mode: "full".to_owned(),
            core: "lr5".to_owned(),
            redundancy: "fixed".to_owned(),
        },
        shards: 5,
    }
}

/// `small_spec` with a different seed and shard count.
fn seeded_spec(seed: u64, shards: u64) -> JobSpec {
    let mut spec = small_spec();
    spec.campaign.seed = seed;
    spec.shards = shards;
    spec
}

/// One request, one response, one connection.
fn send(handle: &ServerHandle, line: &str) -> String {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).expect("receive");
    response.trim_end().to_owned()
}

fn send_ok<T: serde::Deserialize>(handle: &ServerHandle, line: &str) -> T {
    let response = send(handle, line);
    assert!(
        Value::parse(&response).unwrap().field("ok").unwrap().as_bool().unwrap(),
        "server refused `{line}`: {response}"
    );
    serde_json::from_str(&response)
        .unwrap_or_else(|e| panic!("unexpected response `{response}`: {e}"))
}

fn submit_line(spec: &JobSpec) -> String {
    let mut body = serde_json::to_string(spec).expect("spec serializes");
    body.replace_range(0..1, r#"{"cmd":"submit","#);
    body
}

/// Polls until the job leaves `"running"`, returning its final state.
fn wait_for(
    handle: &ServerHandle,
    job: &str,
    timeout: Duration,
) -> lockstep_serve::proto::JobStatus {
    let deadline = Instant::now() + timeout;
    loop {
        let status: StatusResponse =
            send_ok(handle, &format!(r#"{{"cmd":"status","job":"{job}"}}"#));
        let job_status = status.jobs.into_iter().next().expect("job listed");
        if job_status.state != "running" || Instant::now() >= deadline {
            return job_status;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Serialized archive with throughput stats normalized out, the
/// byte-identity convention of the eval test suite.
fn archive_bytes(mut archive: CampaignArchive) -> String {
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// A structurally valid, instantly produced shard archive for
/// scheduler behavior tests that do not need real campaign data. It
/// carries honest shard provenance so sibling shards still merge.
fn dummy_archive(spec: &JobSpec, shard: &lockstep_eval::shard::ShardSpec) -> CampaignArchive {
    let config = spec.campaign_config().expect("valid spec");
    let golden = config
        .workloads
        .iter()
        .map(|w| {
            let g = GoldenRunRepr { cycles: 1000, output_checksum: 0, instructions: 500 };
            (w.name.to_owned(), g)
        })
        .collect();
    CampaignArchive {
        version: ARCHIVE_VERSION,
        records: Vec::new(),
        injected: 0,
        injected_per_unit: vec![[0u64; 2]; 13],
        golden,
        stats: CampaignStats::default(),
        traces: Vec::new(),
        fuzz: Vec::new(),
        shard: Some(lockstep_eval::shard::ShardRepr::new(&config, shard)),
        lc: None,
    }
}

fn event_kinds(sink: &MemorySink) -> Vec<&'static str> {
    sink.events().iter().map(Event::kind).collect()
}

/// The tentpole contract end to end: a submitted job completes and the
/// prediction endpoint answers **exactly** like the offline-trained
/// table, for every DSR the campaign manifested, at both granularities,
/// plus a guaranteed table miss.
#[test]
fn submitted_job_completes_and_predictions_match_offline() {
    let dir = temp_dir("predict");
    let sink = Arc::new(MemorySink::new());
    let config = ServiceConfig {
        scheduler: SchedulerConfig { workers: 3, ..SchedulerConfig::default() },
        events: Some(sink.clone() as Arc<dyn EventSink>),
        runner: None,
    };
    let handle = serve("127.0.0.1:0", &dir, config).expect("server starts");

    let spec = small_spec();
    let submitted: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    assert_eq!(submitted.job, "job-000001");
    assert_eq!(submitted.shards, 5);
    assert_eq!(submitted.faults, 60);

    let status = wait_for(&handle, &submitted.job, Duration::from_secs(300));
    assert_eq!(status.state, "done", "job must complete: {status:?}");
    assert_eq!(status.shards_done, 5);

    // Offline reference: identical campaign, identical training call.
    let mut campaign = spec.campaign_config().unwrap();
    campaign.threads = 4;
    let result = run_campaign(&campaign);
    assert_eq!(status.records, result.records.len() as u64, "service merged the same records");

    for granularity in [Granularity::Coarse, Granularity::Fine] {
        let records: Vec<&ErrorRecord> = result.records.iter().collect();
        let train = Dataset::to_train_records(&records, granularity);
        let offline = Predictor::train(&train, PredictorConfig::new(granularity));
        let mut dsrs: Vec<u64> = result.records.iter().map(|r| r.dsr.bits()).collect();
        dsrs.sort_unstable();
        dsrs.dedup();
        assert!(!dsrs.is_empty());
        let miss = (0..u64::MAX).find(|b| dsrs.binary_search(b).is_err()).unwrap();
        dsrs.push(miss);
        let label = lockstep_serve::proto::granularity_label(granularity);
        for &bits in &dsrs {
            let expected = offline.predict(Dsr::from_bits(bits));
            let got: PredictResponse = send_ok(
                &handle,
                &format!(r#"{{"cmd":"predict","dsr":"{bits:#x}","granularity":"{label}"}}"#),
            );
            let expected_order: Vec<String> =
                expected.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect();
            assert_eq!(got.order, expected_order, "dsr {bits:016x} ({label})");
            assert_eq!(
                got.kind,
                match expected.kind {
                    ErrorKind::Hard => "hard",
                    ErrorKind::Soft => "soft",
                },
                "dsr {bits:016x} ({label})"
            );
            assert_eq!(got.table_hit, expected.table_hit, "dsr {bits:016x} ({label})");
            assert_eq!(got.trained_jobs, 1);
            assert_eq!(got.trained_records, result.records.len() as u64);
        }
    }

    // The obs sink saw the whole job lifecycle.
    let kinds = event_kinds(&sink);
    for expected in
        ["job_submitted", "shard_leased", "shard_completed", "job_completed", "prediction_served"]
    {
        assert!(kinds.contains(&expected), "missing `{expected}` in {kinds:?}");
    }

    send_ok::<lockstep_serve::proto::ShutdownResponse>(&handle, r#"{"cmd":"shutdown"}"#);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server killed mid-job resumes from the registry: whatever shard
/// archives reached disk are kept, the rest are requeued, and the
/// merged result is byte-identical to the uninterrupted single-shot
/// campaign.
#[test]
fn restarted_server_resumes_incomplete_jobs() {
    let dir = temp_dir("resume");
    let mut spec = seeded_spec(11, 6);
    spec.campaign.faults_per_workload = 24;
    let campaign = spec.campaign_config().unwrap();
    let specs = plan_shards(&campaign, 6);

    // Lifetime 1: register the job and complete two shards, then die
    // (drop everything; only the data directory survives).
    {
        let registry = Registry::open(&dir).expect("registry opens");
        let job = registry.create_job(&spec, specs.len() as u64).expect("job registers");
        assert_eq!(job.id, "job-000001");
        for shard_spec in &specs[..2] {
            let archive = run_shard(&campaign, shard_spec);
            assert!(registry.complete_shard(&job.id, shard_spec.index, &archive).unwrap());
        }
    }

    // Lifetime 2: a fresh server on the same data directory finishes
    // the job without being asked.
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 2, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server restarts");
    let status = wait_for(&handle, "job-000001", Duration::from_secs(300));
    assert_eq!(status.state, "done", "resumed job must complete: {status:?}");

    let registry = Registry::open(&dir).unwrap();
    let merged = merge_shard_archives(&registry.load_completed("job-000001").unwrap()).unwrap();
    let mut single_config = spec.campaign_config().unwrap();
    single_config.threads = 4;
    let single = CampaignArchive::from_result(&run_campaign(&single_config));
    assert_eq!(
        archive_bytes(merged),
        archive_bytes(single),
        "resumed merge must be byte-identical to the uninterrupted campaign"
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A job an older server persisted under since-retired labels
/// (`lockstep` replay, `dynamic` redundancy, `lanes` batching), with
/// two of its four shards written under them, resumes on a new server
/// and merges byte-identical to a single-shot run of the job.
#[test]
fn job_persisted_with_retired_labels_resumes_and_merges() {
    let dir = temp_dir("retired_labels");
    let spec = seeded_spec(11, 4);
    let campaign = spec.campaign_config().unwrap();
    let specs = plan_shards(&campaign, 4);
    {
        let registry = Registry::open(&dir).expect("registry opens");
        let job = registry.create_job(&spec, specs.len() as u64).expect("job registers");
        let record = dir.join("jobs").join(&job.id).join("job.json");
        let older = std::fs::read_to_string(&record)
            .unwrap()
            .replace(r#""replay_mode":"shadow""#, r#""replay_mode":"lockstep""#)
            .replace(r#""batch_mode":"full""#, r#""batch_mode":"lanes""#)
            .replace(r#""redundancy":"fixed""#, r#""redundancy":"dynamic""#);
        assert!(older.contains("lockstep") && older.contains("lanes") && older.contains("dynamic"));
        std::fs::write(&record, older).unwrap();
        for shard_spec in &specs[..2] {
            let archive = serde_json::to_string(&run_shard(&campaign, shard_spec))
                .unwrap()
                .replacen(&format!(r#""version":{ARCHIVE_VERSION}"#), r#""version":10"#, 1)
                .replace(r#""batch_mode":"full""#, r#""batch_mode":"lanes""#)
                .replace(
                    r#""redundancy":"fixed""#,
                    r#""redundancy":"dynamic","replay_mode":"lockstep""#,
                );
            std::fs::write(registry.shard_path(&job.id, shard_spec.index), archive).unwrap();
        }
    }

    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 2, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server restarts");
    let status = wait_for(&handle, "job-000001", Duration::from_secs(300));
    assert_eq!(status.state, "done", "resumed job must complete: {status:?}");

    let registry = Registry::open(&dir).unwrap();
    let merged = merge_shard_archives(&registry.load_completed("job-000001").unwrap()).unwrap();
    assert_eq!(merged.stats.redundancy, "fixed");
    assert_eq!(merged.stats.batch_mode, "mixed");
    let single = CampaignArchive::from_result(&run_campaign(&campaign));
    assert_eq!(
        archive_bytes(merged),
        archive_bytes(single),
        "a job resumed across the label change must merge byte-identical to single-shot"
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Submit lines that once took the server down are typed refusals: a
/// shard plan too large to allocate is refused before it is planned,
/// and a fault total past `u64::MAX` is an error, not a wrapped count.
/// The server answers the next request. (The shard-count line asks for
/// the most faults a job may, so that it reaches the queue check.)
#[test]
fn oversized_submits_are_refused_and_the_server_keeps_answering() {
    let dir = temp_dir("oversized");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 0, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    for (line, code) in [
        (
            r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":4194304,"shards":1000000000000000000}"#,
            "queue_full",
        ),
        (
            r#"{"cmd":"submit","workloads":["rspeed","idctrn"],"faults_per_workload":9223372036854775808,"shards":4}"#,
            "too_many_faults",
        ),
    ] {
        let response = send(&handle, line);
        let value =
            Value::parse(&response).unwrap_or_else(|e| panic!("`{line}` → `{response}`: {e}"));
        assert!(!value.field("ok").unwrap().as_bool().unwrap(), "`{line}` must be refused");
        assert_eq!(value.field("code").unwrap().as_str().unwrap(), code, "for `{line}`");
    }
    let pong = Value::parse(&send(&handle, r#"{"cmd":"ping"}"#)).expect("the server still answers");
    assert!(pong.field("ok").unwrap().as_bool().unwrap());

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A job whose fault plan could not be allocated is refused at submit.
/// Once accepted, every shard's worker would draw the workload's whole
/// plan (16 bytes a fault, 16 TB here), and a failed allocation aborts
/// the whole process, not only the worker. So this server runs a worker,
/// and the refusal must come before the job is queued.
#[test]
fn job_past_the_fault_bound_is_refused_and_the_server_keeps_answering() {
    let dir = temp_dir("fault-bound");
    let handle = serve("127.0.0.1:0", &dir, ServiceConfig::default()).expect("server starts");
    let line =
        r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":1000000000000,"shards":4}"#;
    let value = Value::parse(&send(&handle, line)).expect("a response line");
    assert!(!value.field("ok").unwrap().as_bool().unwrap(), "the job must be refused");
    assert_eq!(value.field("code").unwrap().as_str().unwrap(), "too_many_faults");
    let pong = Value::parse(&send(&handle, r#"{"cmd":"ping"}"#)).expect("the server still answers");
    assert!(pong.field("ok").unwrap().as_bool().unwrap());

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `lockstep_client`'s one-shot commands print the server's line and
/// exit by its `ok` field: 0 for an answer, 2 for a refusal.
#[test]
fn client_one_shot_commands_exit_2_on_a_refusal() {
    let dir = temp_dir("client_exit");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 0, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");
    let client = |args: &[&str]| {
        let addr = handle.addr().to_string();
        std::process::Command::new(env!("CARGO_BIN_EXE_lockstep_client"))
            .args(["--addr", addr.as_str()])
            .args(args)
            .output()
            .expect("client runs")
    };

    // The most faults a job may ask for passes the client's own check;
    // the shard count is refused by the server.
    let (faults, shards) = ("4194304", "1000000000000000000");
    let refused =
        client(&["submit", "--workloads", "rspeed", "--faults", faults, "--shards", shards]);
    let line = String::from_utf8_lossy(&refused.stdout);
    assert_eq!(refused.status.code(), Some(2), "a refused submit exits 2: {line}");
    let value = Value::parse(line.trim_end()).expect("the client prints the server's line");
    assert_eq!(value.field("code").unwrap().as_str().unwrap(), "queue_full");

    let pong = client(&["ping"]);
    assert_eq!(pong.status.code(), Some(0), "ping exits 0");
    assert!(String::from_utf8_lossy(&pong.stdout).contains(r#""ok":true"#));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The bounded queue rejects submits it cannot hold instead of
/// accepting work it would starve.
#[test]
fn full_queue_rejects_new_jobs_with_backpressure() {
    let dir = temp_dir("backpressure");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 0, // nothing drains the queue
                queue_capacity: 4,
                ..SchedulerConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    let spec = seeded_spec(77, 4);
    let first: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    assert_eq!(first.shards, 4);

    let refused = send(&handle, &submit_line(&spec));
    let value = Value::parse(&refused).unwrap();
    assert!(!value.field("ok").unwrap().as_bool().unwrap());
    let error = value.field("error").unwrap().as_str().unwrap().to_owned();
    assert!(error.contains("queue full"), "want backpressure error, got `{error}`");

    // The rejected job is marked failed, not left to resurrect on
    // restart.
    let status = wait_for(&handle, "job-000002", Duration::from_secs(5));
    assert_eq!(status.state, "failed");
    assert!(status.error.contains("queue full"));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard that overruns its lease is requeued by the watchdog and
/// completed by another attempt; the late original is dropped by
/// first-writer-wins (shard reruns are byte-identical, so either
/// archive is the right one).
#[test]
fn timed_out_shards_are_requeued_and_the_job_still_completes() {
    let dir = temp_dir("timeout");
    let sink = Arc::new(MemorySink::new());
    let slow_done = Arc::new(AtomicBool::new(false));
    let slow_flag = Arc::clone(&slow_done);
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                shard_timeout: Duration::from_millis(100),
                ..SchedulerConfig::default()
            },
            events: Some(sink.clone() as Arc<dyn EventSink>),
            runner: Some(Arc::new(move |spec, shard| {
                // First lease of shard 0 sleeps well past its lease.
                if shard.index == 0 && !slow_flag.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(400));
                }
                dummy_archive(spec, shard)
            })),
        },
    )
    .expect("server starts");

    let spec = seeded_spec(77, 3);
    let submitted: SubmitResponse = send_ok(&handle, &submit_line(&spec));
    let status = wait_for(&handle, &submitted.job, Duration::from_secs(60));
    assert_eq!(status.state, "done", "{status:?}");
    assert_eq!(status.shards_done, 3);

    let requeued = sink
        .events()
        .iter()
        .any(|e| matches!(e, Event::ShardRequeued { shard: 0, reason, .. } if reason == "timeout"));
    assert!(requeued, "watchdog must requeue the overrunning shard: {:?}", event_kinds(&sink));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard that keeps panicking fails its job after the attempt limit
/// with the panic message on record — and the service keeps serving
/// other jobs.
#[test]
fn repeatedly_panicking_shard_fails_its_job_but_not_the_service() {
    let dir = temp_dir("panic");
    let sink = Arc::new(MemorySink::new());
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig {
                workers: 2,
                max_attempts: 2,
                ..SchedulerConfig::default()
            },
            events: Some(sink.clone() as Arc<dyn EventSink>),
            runner: Some(Arc::new(|spec, shard| {
                // Seed 13 marks the poisoned job; its shard 1 always dies.
                if spec.campaign.seed == 13 && shard.index == 1 {
                    panic!("injected shard failure");
                }
                dummy_archive(spec, shard)
            })),
        },
    )
    .expect("server starts");

    let poisoned: SubmitResponse = send_ok(&handle, &submit_line(&seeded_spec(13, 3)));
    let status = wait_for(&handle, &poisoned.job, Duration::from_secs(60));
    assert_eq!(status.state, "failed", "{status:?}");
    assert!(status.error.contains("injected shard failure"), "error: {}", status.error);
    assert!(status.error.contains("after 2 attempts"), "error: {}", status.error);
    let kinds = event_kinds(&sink);
    assert!(kinds.contains(&"shard_requeued"), "first attempt requeues: {kinds:?}");
    assert!(kinds.contains(&"job_failed"), "second attempt fails the job: {kinds:?}");

    // The service is still healthy for the next job.
    let healthy: SubmitResponse = send_ok(&handle, &submit_line(&seeded_spec(14, 3)));
    let status = wait_for(&handle, &healthy.job, Duration::from_secs(60));
    assert_eq!(status.state, "done", "{status:?}");

    // Dummy archives carry no records, so the predictor has nothing to
    // train on — the endpoint degrades with an error, not a panic.
    let refused = send(&handle, r#"{"cmd":"predict","dsr":"0x1"}"#);
    let value = Value::parse(&refused).unwrap();
    assert!(!value.field("ok").unwrap().as_bool().unwrap());
    let predict_error = value.field("error").unwrap().as_str().unwrap().to_owned();
    assert!(predict_error.contains("no trained table"), "got `{predict_error}`");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Protocol robustness on one persistent connection: bad requests get
/// error lines, good requests still work afterwards, and a request
/// split across TCP writes is reassembled.
#[test]
fn malformed_requests_get_error_lines_and_the_connection_survives() {
    let dir = temp_dir("proto");
    let handle = serve(
        "127.0.0.1:0",
        &dir,
        ServiceConfig {
            scheduler: SchedulerConfig { workers: 0, ..SchedulerConfig::default() },
            ..ServiceConfig::default()
        },
    )
    .expect("server starts");

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> Value {
        writer.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        Value::parse(response.trim_end()).expect("response parses")
    };

    for (bad, code) in [
        ("this is not json", "bad_request"),
        (r#"{"cmd":"warp"}"#, "unknown_command"),
        (r#"{"no_cmd":true}"#, "bad_request"),
        (
            r#"{"cmd":"submit","workloads":["not_a_workload"],"faults_per_workload":5}"#,
            "unknown_workload",
        ),
        (
            r#"{"cmd":"submit","workloads":["lc:not_a_kernel"],"faults_per_workload":5}"#,
            "unknown_workload",
        ),
        (r#"{"cmd":"status","job":"job-999999"}"#, "unknown_job"),
        (r#"{"cmd":"predict","dsr":"0x1"}"#, "error"),
        (r#"{"cmd":"predict","dsr":"0x1","core":"lr9"}"#, "unknown_core"),
    ] {
        let value = roundtrip(bad);
        assert!(!value.field("ok").unwrap().as_bool().unwrap(), "`{bad}` must be refused");
        assert!(!value.field("error").unwrap().as_str().unwrap().is_empty());
        assert_eq!(value.field("code").unwrap().as_str().unwrap(), code, "for `{bad}`");
    }

    // An unknown core model is a typed refusal naming the offender —
    // and like every refusal, it does not poison the connection.
    let refused = roundtrip(
        r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"core":"lr9"}"#,
    );
    assert!(!refused.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(refused.field("code").unwrap().as_str().unwrap(), "unknown_core");
    assert!(refused.field("error").unwrap().as_str().unwrap().contains("lr9"));

    // Same connection still serves good requests...
    let pong = roundtrip(r#"{"cmd":"ping"}"#);
    assert!(pong.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(pong.field("service").unwrap().as_str().unwrap(), "lockstep-serve");

    // ...including one dribbled in across two TCP writes.
    writer.write_all(br#"{"cmd":"#).expect("send head");
    writer.flush().ok();
    std::thread::sleep(Duration::from_millis(30));
    writer.write_all(b"\"ping\"}\n").expect("send tail");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    assert!(Value::parse(response.trim_end()).unwrap().field("ok").unwrap().as_bool().unwrap());

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
