//! The campaign service's layers, traced inside lr5-suite's traced run.
//!
//! The service runs LR5 fixed-DMR jobs, so lr5-suite's traced run spends
//! half its window here (see [`trace_into`]):
//!
//! * **TCP mix.** An in-process server (`lockstep_serve::serve`, one
//!   scheduler worker, the daemon's `nproc / 2` default on a 2-vCPU
//!   host, and no event sink) on a fresh data directory inside the
//!   checkout, shared by two client connections. **A** submits small
//!   LR5 jobs over short kernels, cut into many shards of a few faults,
//!   one at a time, and polls `status` every [`STATUS_POLL`], as
//!   `lockstep_client` does; it also watches the job's shard files every
//!   [`WATCH_INTERVAL`] and asks `status` as soon as all are persisted,
//!   so a job's latency resolves finer than the poll. Job *i* goes out
//!   at slot *i* of a fixed [`JOB_SLOT`] schedule or when job *i − 1* is
//!   done, whichever is later. **B** sends `predict` requests (coarse
//!   and fine; table hits and never-seen DSRs) at seeded Poisson
//!   arrivals with mean rate [`PREDICT_RATE`], each timed from its due
//!   time. Job completions bump the table generation, so predicts after
//!   a completion wait for a retrain on the reactor thread. The mix's
//!   p50 latencies, less the re-driven service time, give
//!   `serve.job_wait_ms` and `serve.predict_wait_ms`; afterwards its
//!   outputs are checked as `lockstep_client check` does.
//! * **Re-drive.** One job lifecycle at a time through the public calls
//!   the server makes, without TCP, traced and untraced in turn; the
//!   spans give the `shard.*` and `serve.*` self times.
//!
//! Untraced, this mix was a workload of its own (`serve-jobs`) until
//! its runs proved too unsteady to gate on: see `README.md`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockstep_core::{Dsr, ErrorRecord};
use lockstep_cpu::{CoreKind, Cpu, Granularity};
use lockstep_eval::campaign::DEFAULT_CHECKPOINT_INTERVAL;
use lockstep_eval::spec::CampaignSpec;
use lockstep_eval::{merge_shard_archives, plan_shards, run_campaign, run_shard};
use lockstep_fault::{CampaignPlan, PlanConfig};
use lockstep_serve::proto::{
    granularity_label, PongResponse, PredictResponse, StatusResponse, SubmitResponse,
};
use lockstep_serve::{
    serve, JobSpec, PredictService, Registry, Request, SchedulerConfig, ServerHandle, ServiceConfig,
};
use lockstep_workloads::Workload;
use serde::json::Value;

use crate::diagnose::{DsrPool, Tables};
use crate::inputs::{poisson_schedule, Rng};
use crate::layers::Layers;
use crate::stats::{median, Latencies};
use crate::trace::Recorder;
use crate::{Args, Outcome};

/// Short kernels the jobs draw from (2.4k–5.9k golden cycles).
const JOB_KERNELS: [&str; 6] = ["idctrn", "iirflt", "rspeed", "tblook", "a2time", "ttsprk"];
/// Faults per kernel and shards per job: two kernels and 50 faults cut
/// into shards of about six, so per-shard golden recapture shows.
const FAULTS_PER_KERNEL: u64 = 25;
const SHARDS: u64 = 8;
/// Connection A's job slots: ten jobs a second, about a third of the
/// service's one-worker capacity.
const JOB_SLOT: Duration = Duration::from_millis(100);
/// Connection A's status poll interval: `lockstep_client`'s.
const STATUS_POLL: Duration = Duration::from_millis(300);
/// How often connection A looks for a job's shard files.
const WATCH_INTERVAL: Duration = Duration::from_millis(1);
/// Connection B's mean predict arrival rate, per second. Each job
/// completion makes the next predict of each granularity retrain, and
/// predicts that arrive during a retrain, a submit or a `status` wait
/// for it. At this rate fewer than half of the predicts wait, so p50
/// lies among the answers from a trained table and p90 among the
/// waits, neither at the gap between the two, where the share of each
/// would set the percentile.
const PREDICT_RATE: f64 = 120.0;
/// Trace ids of re-driven service jobs start here, clear of the
/// campaign jobs' ids in the same span file.
const TRACE_IDS: u64 = 1_000_000;
/// A job still running after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Never-seen DSRs in the predict pool.
const POOL_MISSES: usize = 16;
/// Input streams of one workload seed.
const STREAM_PRIMING: u64 = 11;
const STREAM_JOBS: u64 = 12;
const STREAM_ARRIVALS: u64 = 13;
const STREAM_PREDICTS: u64 = 14;
const STREAM_POOL: u64 = 15;

/// Job specs in submission order: job `i` runs kernel pair `i mod 15`
/// of [`JOB_KERNELS`] with a campaign seed of its own, so every run
/// submits the same kernel mix over distinct campaigns.
fn job_specs(seed: u64, stream: u64) -> impl Iterator<Item = JobSpec> + Send {
    let n = JOB_KERNELS.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
    let mut rng = Rng::new(seed, stream);
    pairs.into_iter().cycle().map(move |(a, b)| JobSpec {
        campaign: CampaignSpec {
            workloads: vec![JOB_KERNELS[a].to_owned(), JOB_KERNELS[b].to_owned()],
            faults_per_workload: FAULTS_PER_KERNEL,
            seed: rng.below(1 << 32),
            replay_mode: "shadow".to_owned(),
            batch_mode: "full".to_owned(),
            core: "lr5".to_owned(),
            redundancy: "fixed".to_owned(),
        },
        shards: SHARDS,
    })
}

/// The submit line `lockstep_client submit` sends for `spec`.
fn submit_line(spec: &JobSpec) -> String {
    let mut body = serde_json::to_string(&spec.campaign).expect("job spec serializes");
    body.replace_range(0..1, r#"{"cmd":"submit","#);
    body.truncate(body.len() - 1);
    body.push_str(&format!(r#","shards":{}}}"#, spec.shards));
    body
}

fn predict_line(dsr: u64, granularity: Granularity) -> String {
    format!(
        r#"{{"cmd":"predict","dsr":"{dsr:#x}","granularity":"{}","core":"lr5"}}"#,
        granularity_label(granularity)
    )
}

/// Single-shot records of a spec: the reference its merged job must
/// equal.
fn single_shot(spec: &JobSpec) -> Vec<ErrorRecord> {
    run_campaign(&spec.campaign_config().expect("generated specs validate")).records
}

/// One persistent protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends one request line and parses the `ok` response as `T`; an
    /// error response, a malformed one or an I/O failure is `Err`.
    fn call<T: serde::Deserialize>(&mut self, line: &str) -> Result<T, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed".to_owned());
        }
        let ok = Value::parse(&response)
            .ok()
            .and_then(|v| v.field("ok").and_then(Value::as_bool).ok())
            .unwrap_or(false);
        if !ok {
            return Err(format!("refused: {}", response.trim_end()));
        }
        serde_json::from_str(&response).map_err(|e| format!("bad response: {e}"))
    }

    /// Waits until `job` leaves `running`, asking `status` every
    /// [`STATUS_POLL`] and as soon as `watch` (the server's data
    /// directory) holds all its shard files; returns `true` when it is
    /// done.
    fn wait_done(&mut self, job: &SubmitResponse, watch: &Registry) -> Result<bool, String> {
        let deadline = Instant::now() + JOB_TIMEOUT;
        let mut poll = Instant::now() + STATUS_POLL;
        loop {
            std::thread::sleep(WATCH_INTERVAL);
            let persisted = watch.completed_shards(&job.job).len() as u64 >= job.shards;
            if !persisted && Instant::now() < poll {
                continue;
            }
            poll = Instant::now() + STATUS_POLL;
            let status: StatusResponse =
                self.call(&format!(r#"{{"cmd":"status","job":"{}"}}"#, job.job))?;
            let state = status.jobs.first().map_or("missing", |j| j.state.as_str());
            match state {
                "done" => return Ok(true),
                "running" if Instant::now() < deadline => {}
                _ => return Ok(false),
            }
        }
    }
}

/// Starts a service with one scheduler worker on `dir`.
fn start(dir: &Path) -> Result<ServerHandle, String> {
    let config = ServiceConfig {
        scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
        events: None,
        runner: None,
    };
    serve("127.0.0.1:0", dir, config).map_err(|e| format!("serve: {e}"))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Starts a service on `dir` and primes it: `ping` answers, the priming
/// job is done and one `predict` is answered. A failed set-up stops its
/// server.
fn setup_once(dir: &Path, priming: &JobSpec) -> Result<ServerHandle, String> {
    let handle = start(dir)?;
    let ready = (|| {
        let mut conn = Conn::open(handle.addr())?;
        let _: PongResponse = conn.call(r#"{"cmd":"ping"}"#)?;
        let watch = Registry::open(dir).map_err(|e| format!("registry: {e}"))?;
        let submitted: SubmitResponse = conn.call(&submit_line(priming))?;
        if !conn.wait_done(&submitted, &watch)? {
            return Err(format!("priming job {} did not complete", submitted.job));
        }
        let _: PredictResponse = conn.call(&predict_line(1, Granularity::Coarse))?;
        Ok(())
    })();
    match ready {
        Ok(()) => Ok(handle),
        Err(e) => {
            stop(handle);
            Err(e)
        }
    }
}

/// What the two clients observed during the window.
#[derive(Debug, Default)]
struct Window {
    jobs: Latencies,
    predicts: Latencies,
    /// `(job id, spec)` of every completed job.
    done: Vec<(String, JobSpec)>,
    /// How late connection B sent each request, ms.
    lateness: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The open-loop generator: sends request `i` at `start + due[i]`
/// seconds (or as soon as the previous reply is in, when it runs late)
/// and times each from its due time, so a stall also counts against
/// the requests queued behind it. A failed or refused request is a
/// miss.
fn paced(start: Instant, due: &[f64], mut send: impl FnMut() -> Result<(), String>) -> Window {
    let mut w = Window::default();
    for &offset in due {
        let due = start + Duration::from_secs_f64(offset);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.lateness.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        w.attempted += 1;
        match send() {
            Ok(()) => w.predicts.push(Instant::now().duration_since(due).as_secs_f64() * 1e3),
            Err(e) => {
                eprintln!("predict: {e}");
                w.predicts.miss();
                w.failed += 1;
            }
        }
    }
    w
}

/// Drives connections A and B against `addr` for `window`; `dir` is
/// the server's data directory.
fn drive(
    addr: SocketAddr,
    dir: &Path,
    seed: u64,
    window: Duration,
    mut specs: impl Iterator<Item = JobSpec> + Send,
    pool: &DsrPool,
) -> Window {
    let start = Instant::now();
    let deadline = start + window;
    let (jobs, predicts) = std::thread::scope(|scope| {
        let jobs = scope.spawn(|| {
            let mut w = Window::default();
            let opened = Conn::open(addr).and_then(|conn| {
                Registry::open(dir).map(|watch| (conn, watch)).map_err(|e| format!("registry: {e}"))
            });
            let (mut conn, watch) = match opened {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connection A: {e}");
                    w.attempted = 1;
                    w.failed = 1;
                    return w;
                }
            };
            let mut slot = 0;
            loop {
                // Job i goes out at its slot or when job i - 1 is done,
                // whichever is later, so every run submits the same jobs
                // while the service keeps up.
                let due = start + JOB_SLOT * slot;
                slot += 1;
                if due >= deadline {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let spec = specs.next().expect("the job stream is endless");
                let t = Instant::now();
                w.attempted += 1;
                let outcome = conn
                    .call::<SubmitResponse>(&submit_line(&spec))
                    .and_then(|s| conn.wait_done(&s, &watch).map(|done| (s, done)));
                match outcome {
                    Ok((s, true)) => {
                        w.jobs.push(t.elapsed().as_secs_f64() * 1e3);
                        w.done.push((s.job, spec));
                    }
                    Ok((s, false)) => {
                        eprintln!("job {} failed", s.job);
                        w.jobs.miss();
                        w.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("job: {e}");
                        w.jobs.miss();
                        w.failed += 1;
                        if e.starts_with("send") || e.starts_with("receive") || e.contains("closed")
                        {
                            break;
                        }
                    }
                }
            }
            w
        });
        let predicts = scope.spawn(|| {
            let schedule = poisson_schedule(
                &mut Rng::new(seed, STREAM_ARRIVALS),
                PREDICT_RATE,
                window.as_secs_f64(),
            );
            let mut rng = Rng::new(seed, STREAM_PREDICTS);
            let mut conn = Conn::open(addr);
            paced(start, &schedule, || {
                let (dsr, granularity, hit) = pool.pick(&mut rng);
                let conn = conn.as_mut().map_err(|e| e.clone())?;
                let r: PredictResponse = conn.call(&predict_line(dsr, granularity))?;
                // The priming job's DSRs stay in every later table.
                if hit && !r.table_hit {
                    return Err(format!("predict {dsr:#x}: expected a table hit, got {r:?}"));
                }
                Ok(())
            })
        });
        (
            jobs.join().expect("job client does not panic"),
            predicts.join().expect("predict client does not panic"),
        )
    });
    Window {
        predicts: predicts.predicts,
        lateness: predicts.lateness,
        attempted: jobs.attempted + predicts.attempted,
        failed: jobs.failed + predicts.failed,
        ..jobs
    }
}

/// End-of-run checks against the registry in `dir`: every completed
/// job's merged records equal the single-shot campaign of its spec, and
/// the server's predicts equal an offline table trained on the
/// registry's merged LR5 records (`lockstep_client check`'s rule).
/// Returns `(checks attempted, checks failed)`.
fn check_outputs(
    addr: SocketAddr,
    dir: &Path,
    done: &[(String, JobSpec)],
    seed: u64,
) -> (u64, u64) {
    let registry = match Registry::open(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("registry: {e}");
            return (1, 1);
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (id, spec) in done {
        attempted += 1;
        let merged = registry
            .load_completed(id)
            .and_then(|shards| merge_shard_archives(&shards).map_err(|e| e.to_string()));
        match merged {
            Ok(archive) if archive.records == single_shot(spec) => {}
            Ok(_) => {
                eprintln!("{id}: merged records differ from the single-shot campaign");
                failed += 1;
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                failed += 1;
            }
        }
    }

    // The service trains on every completed LR5 job in id order.
    let mut records: Vec<ErrorRecord> = Vec::new();
    for job in registry.jobs().unwrap_or_default() {
        if registry.failure(&job.id).is_some()
            || (registry.completed_shards(&job.id).len() as u64) < job.shards
        {
            continue;
        }
        match registry
            .load_completed(&job.id)
            .and_then(|s| merge_shard_archives(&s).map_err(|e| e.to_string()))
        {
            Ok(archive) => records.extend(archive.records),
            Err(e) => {
                eprintln!("{}: {e}", job.id);
                failed += 1;
            }
        }
    }
    let offline = Tables::train(&records);
    let pool = DsrPool::new(&records, POOL_MISSES, &mut Rng::new(seed, STREAM_POOL + 1));
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check connection: {e}");
            return (attempted + 1, failed + 1);
        }
    };
    for granularity in [Granularity::Coarse, Granularity::Fine] {
        for &dsr in &pool.dsrs {
            attempted += 1;
            let expected = offline.get(granularity).predict(Dsr::from_bits(dsr));
            let order: Vec<String> =
                expected.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect();
            let kind = match expected.kind {
                lockstep_fault::ErrorKind::Hard => "hard",
                lockstep_fault::ErrorKind::Soft => "soft",
            };
            match conn.call::<PredictResponse>(&predict_line(dsr, granularity)) {
                Ok(r)
                    if r.order == order && r.kind == kind && r.table_hit == expected.table_hit => {}
                Ok(r) => {
                    eprintln!("predict {dsr:#x}: server {r:?} differs from the offline table");
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("predict {dsr:#x}: {e}");
                    failed += 1;
                }
            }
        }
    }
    (attempted, failed)
}

/// The priming job and the predict pool drawn from its records.
struct Inputs {
    priming: JobSpec,
    pool: DsrPool,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let priming = job_specs(seed, STREAM_PRIMING).next().expect("the job stream is endless");
        let pool =
            DsrPool::new(&single_shot(&priming), POOL_MISSES, &mut Rng::new(seed, STREAM_POOL));
        Inputs { priming, pool }
    }
}

/// Per-kernel unit costs of a shard's recapture: golden capture and
/// fault planning, timed from outside once per kernel.
#[derive(Debug, Clone, Copy)]
struct Recapture {
    capture_ns: f64,
    plan_ns: f64,
    cycles: u64,
    checkpoints: u64,
}

fn recapture_costs(rec: &mut Recorder) -> Vec<(String, Recapture)> {
    JOB_KERNELS
        .iter()
        .map(|&name| {
            let kernel = Workload::find(name).expect("job kernels exist");
            let from = rec.spans().len();
            let cap = rec.span("workloads.golden_capture", 0, |_| {
                kernel.golden_capture_for::<Cpu>(1, 400_000, DEFAULT_CHECKPOINT_INTERVAL)
            });
            rec.span("fault.plan", 0, |_| {
                CampaignPlan::sampled_for::<Cpu>(
                    PlanConfig::new(cap.run.cycles, 1),
                    FAULTS_PER_KERNEL as usize,
                )
            });
            let times = rec.self_times(from);
            (
                name.to_owned(),
                Recapture {
                    capture_ns: times["workloads.golden_capture"] as f64,
                    plan_ns: times["fault.plan"] as f64,
                    cycles: cap.run.cycles,
                    checkpoints: cap.checkpoints.points.len() as u64,
                },
            )
        })
        .collect()
}

/// Per-job figures of one re-driven job lifecycle.
#[derive(Debug, Default, Clone)]
struct Lifecycle {
    span_ns: BTreeMap<&'static str, u64>,
    shard_runs: Vec<f64>,
    registry_writes: Vec<f64>,
    recapture_ns: f64,
    recapture_plan_ns: f64,
    recapture_cycles: f64,
    recapture_checkpoints: f64,
}

/// Re-drives one job lifecycle through the public calls the server
/// makes, without TCP: parse, register, run and persist each shard,
/// merge on read (as `status` does once the job is done), then one
/// predict on the new table generation and one on the cached one.
#[allow(clippy::too_many_arguments)]
fn redrive_job(
    rec: &mut Recorder,
    id: u64,
    spec: &JobSpec,
    registry: &Registry,
    predict: &PredictService,
    generation: u64,
    probe: (u64, Granularity),
    costs: &[(String, Recapture)],
) -> Result<(Lifecycle, Vec<ErrorRecord>), String> {
    let from = rec.spans().len();
    let line = submit_line(spec);
    let mut life = Lifecycle::default();
    let records = rec.span("job", id, |rec| -> Result<(Vec<ErrorRecord>, String), String> {
        let parsed =
            rec.span("serve.parse", id, |_| Request::parse(&line)).map_err(|e| e.to_string())?;
        let Request::Submit(spec) = parsed else {
            return Err("submit line parsed as another request".to_owned());
        };
        let config = spec.campaign_config().map_err(|e| e.to_string())?;
        let shards = plan_shards(&config, spec.shards as usize);
        let job = rec
            .span("serve.registry_create", id, |_| registry.create_job(&spec, shards.len() as u64))
            .map_err(|e| e.to_string())?;
        for shard in &shards {
            let s0 = rec.spans().len();
            let archive = rec.span("shard.run", id, |_| run_shard(&config, shard));
            rec.span("serve.registry_write", id, |_| {
                registry.complete_shard(&job.id, shard.index, &archive)
            })
            .map_err(|e| e.to_string())?;
            if let Some(span) = rec.spans().get(s0) {
                life.shard_runs.push((span.end - span.start) as f64);
            }
            if let Some(span) = rec.spans().get(s0 + 1) {
                life.registry_writes.push((span.end - span.start) as f64);
            }
            let fpw = config.faults_per_workload as u64;
            for wi in (shard.fault_lo / fpw)..((shard.fault_hi - 1) / fpw + 1) {
                let name = config.workloads[wi as usize].name;
                if let Some((_, c)) = costs.iter().find(|(n, _)| n == name) {
                    life.recapture_ns += c.capture_ns;
                    life.recapture_plan_ns += c.plan_ns;
                    life.recapture_cycles += c.cycles as f64;
                    life.recapture_checkpoints += c.checkpoints as f64;
                }
            }
        }
        let merged = rec.span("serve.merged_job", id, |_| predict.merged_job(&job.id))?;
        let (dsr, granularity) = probe;
        rec.span("serve.predict_cold", id, |_| {
            predict.predict(dsr, granularity, CoreKind::Lr5, generation)
        })?;
        rec.span("serve.predict_warm", id, |_| {
            predict.predict(dsr, granularity, CoreKind::Lr5, generation)
        })?;
        Ok((merged.records.clone(), job.id))
    });
    let (records, job_id) = records?;
    // The load and merge `merged_job` performs, timed apart as unit
    // costs outside the lifecycle span.
    let shards = rec.span("serve.registry_load", id, |_| registry.load_completed(&job_id))?;
    rec.span("shard.merge", id, |_| merge_shard_archives(&shards)).map_err(|e| e.to_string())?;
    life.span_ns = rec.self_times(from);
    Ok((life, records))
}

/// Traces the service for `window`, recording spans in `rec` and
/// filling the `shard.*` and `serve.*` metrics of `layers`. The first
/// half drives the TCP mix against an in-process server and then checks
/// its outputs; the second re-drives job lifecycles without TCP,
/// alternating traced and untraced, each checked against its
/// single-shot campaign. Failures count in `out`.
pub fn trace_into(
    args: &Args,
    window: Duration,
    rec: &mut Recorder,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let inputs = Inputs::new(args.seed);
    let work = args.work_dir().join("serve");

    // Half the window: the untraced TCP mix, for the end-to-end
    // latencies the spans are subtracted from.
    let dir = work.join("data");
    let handle = match setup_once(&dir, &inputs.priming) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("service set-up failed: {e}");
            out.attempted += 1;
            out.failed += 1;
            return;
        }
    };
    let w = drive(
        handle.addr(),
        &dir,
        args.seed,
        (window / 2).max(Duration::from_secs(1)),
        job_specs(args.seed, STREAM_JOBS),
        &inputs.pool,
    );
    let (checked, check_failed) = check_outputs(handle.addr(), &dir, &w.done, args.seed);
    stop(handle);
    out.attempted += w.attempted + checked;
    out.failed += w.failed + check_failed;

    // The other half: job lifecycles re-driven without TCP, alternating
    // traced and untraced, on a fresh registry primed like the server.
    let dir = work.join("redrive");
    let registry = match Registry::open(&dir) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("registry: {e}");
            out.attempted += 1;
            out.failed += 1;
            return;
        }
    };
    let predict = PredictService::new(Arc::clone(&registry), None);
    let mut plain = Recorder::new(false);
    let costs = recapture_costs(rec);
    let mut specs = job_specs(args.seed, STREAM_JOBS);
    let mut probe_rng = Rng::new(args.seed, STREAM_PREDICTS);
    let mut traced: Vec<Lifecycle> = Vec::new();
    let mut untraced = 0;
    let deadline = start + window;
    let mut generation = 0;
    // Re-drives one job; `check` compares its merged records with the
    // single-shot campaign of its spec.
    let mut redrive = |rec: &mut Recorder, spec: &JobSpec, check: bool, out: &mut Outcome| {
        generation += 1;
        let (dsr, granularity, _) = inputs.pool.pick(&mut probe_rng);
        out.attempted += 1;
        let probe = (dsr, granularity);
        let id = TRACE_IDS + generation;
        match redrive_job(rec, id, spec, &registry, &predict, generation, probe, &costs) {
            Ok((life, records)) => {
                if check && records != single_shot(spec) {
                    eprintln!(
                        "re-driven job {generation}: merged records differ from the single-shot campaign"
                    );
                    out.failed += 1;
                }
                Some(life)
            }
            Err(e) => {
                eprintln!("re-driven job {generation}: {e}");
                out.failed += 1;
                None
            }
        }
    };
    redrive(&mut plain, &inputs.priming, false, out);
    while traced.len() < 3 || Instant::now() < deadline {
        let spec = specs.next().expect("the job stream is endless");
        if let Some(life) = redrive(rec, &spec, true, out) {
            traced.push(life);
        }
        let spec = specs.next().expect("the job stream is endless");
        untraced += usize::from(redrive(&mut plain, &spec, true, out).is_some());
    }

    let med = |f: &dyn Fn(&Lifecycle) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let span = |l: &Lifecycle, name: &str| l.span_ns.get(name).copied().unwrap_or(0) as f64;
    let runs: Vec<f64> = traced.iter().flat_map(|l| l.shard_runs.iter().copied()).collect();
    let writes: Vec<f64> = traced.iter().flat_map(|l| l.registry_writes.iter().copied()).collect();
    layers.shard_run_ms = median(&runs) / 1e6;
    layers.shard_recapture_share = med(&|l| l.recapture_ns / l.shard_runs.iter().sum::<f64>());
    layers.shard_merge_ms = med(&|l| span(l, "shard.merge") / 1e6);
    layers.parse_us = med(&|l| span(l, "serve.parse") / 1e3);
    layers.registry_create_ms = med(&|l| span(l, "serve.registry_create") / 1e6);
    layers.registry_write_ms = median(&writes) / 1e6;
    layers.registry_load_ms = med(&|l| span(l, "serve.registry_load") / 1e6);
    layers.predict_cold_ms = med(&|l| span(l, "serve.predict_cold") / 1e6);
    layers.predict_warm_us = med(&|l| span(l, "serve.predict_warm") / 1e3);
    let lifecycle_ms = med(&|l| {
        (span(l, "job")
            + span(l, "serve.parse")
            + span(l, "serve.registry_create")
            + span(l, "shard.run")
            + span(l, "serve.registry_write")
            + span(l, "serve.merged_job"))
            / 1e6
    });
    layers.job_wait_ms = w.jobs.percentile(0.5).unwrap_or(0.0) - lifecycle_ms;
    // The median predict finds a trained table (see `PREDICT_RATE`).
    layers.predict_wait_ms =
        w.predicts.percentile(0.5).unwrap_or(0.0) - layers.predict_warm_us / 1e3;
    layers.failed_requests = w.failed as f64;
    eprintln!(
        "service traced: {} TCP jobs, {} predicts (generator lateness p50 {:.3} ms, max {:.3} ms), \
         {checked} end-of-run checks; {} traced and {untraced} untraced re-driven jobs",
        w.jobs.len(),
        w.predicts.len(),
        if w.lateness.is_empty() { 0.0 } else { median(&w.lateness) },
        w.lateness.iter().copied().fold(0.0, f64::max),
        traced.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        // Requests due at 0, 10 and 20 ms; the first reply takes 50 ms,
        // so the two behind it go out late and their wait counts.
        let mut first = true;
        let w = paced(Instant::now(), &[0.0, 0.010, 0.020], || {
            if std::mem::take(&mut first) {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(())
        });
        assert_eq!(w.predicts.len(), 3);
        assert!(w.lateness[1] >= 39.0, "second request sent {} ms late", w.lateness[1]);
        assert!(w.predicts.percentile(0.5).expect("no misses") >= 39.0);
    }

    #[test]
    fn a_refused_predict_counts_as_a_miss() {
        // A fresh service has no trained table yet, so it refuses.
        let dir = Path::new(".perfbench-work").join(format!("test-refused-{}", std::process::id()));
        let handle = start(&dir).expect("service starts");
        let mut conn = Conn::open(handle.addr()).expect("connects");
        let w = paced(Instant::now(), &[0.0, 0.001], || {
            conn.call::<PredictResponse>(&predict_line(1, Granularity::Coarse)).map(|_| ())
        });
        stop(handle);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir(".perfbench-work").ok();
        assert_eq!((w.predicts.len(), w.predicts.missed(), w.failed), (2, 2, 2));
        assert_eq!(w.predicts.percentile(0.5), None, "a miss has no latency");
    }

    #[test]
    fn job_specs_are_a_function_of_the_seed() {
        let specs = |seed| job_specs(seed, STREAM_JOBS).take(30).collect::<Vec<_>>();
        assert_eq!(specs(4), specs(4));
        assert_ne!(specs(4), specs(5));
        let four = specs(4);
        for (i, spec) in four.iter().enumerate() {
            spec.validate().expect("generated specs validate");
            assert_ne!(spec.campaign.workloads[0], spec.campaign.workloads[1]);
            // Every 15 jobs cover each kernel pair once, with fresh seeds.
            assert_eq!(spec.campaign.workloads, four[(i + 15) % 30].campaign.workloads);
            assert_ne!(spec.campaign.seed, four[(i + 15) % 30].campaign.seed);
        }
    }
}
