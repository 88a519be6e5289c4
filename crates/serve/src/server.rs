//! The TCP front-end: a hand-rolled single-threaded non-blocking
//! reactor speaking the line-delimited JSON protocol.
//!
//! One thread owns the listener and every connection (all in
//! non-blocking mode), multiplexing by polling — no external async
//! runtime, consistent with the repository's vendored-deps rule. All
//! heavy work happens on scheduler worker threads; a request handler
//! only parses, touches the registry, or reads a cached table, so
//! single-threaded dispatch keeps the protocol serialized (submissions
//! get monotonic job ids) without limiting injection throughput.

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lockstep_eval::archive::ARCHIVE_VERSION;
use lockstep_eval::shard::plan_shards;
use lockstep_obs::{Event, EventSink};

use crate::predict::PredictService;
use crate::proto::{
    error_line, error_line_for, JobStatus, PongResponse, Request, RequestError, ShutdownResponse,
    StatusResponse, SubmitResponse,
};
use crate::registry::Registry;
use crate::scheduler::{campaign_runner, Scheduler, SchedulerConfig, ShardRunner};

/// Longest accepted request line; a client exceeding it is disconnected
/// with an error (protects the reactor from unbounded buffering).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reactor poll interval when idle.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Everything configurable about a service instance.
#[derive(Clone, Default)]
pub struct ServiceConfig {
    /// Scheduler knobs (workers, queue bound, lease timeout, attempts).
    pub scheduler: SchedulerConfig,
    /// Sink for service lifecycle and campaign events.
    pub events: Option<Arc<dyn EventSink>>,
    /// Shard runner override; `None` uses the real campaign engine.
    pub runner: Option<ShardRunner>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig").field("scheduler", &self.scheduler).finish_non_exhaustive()
    }
}

/// A running service: reactor thread + scheduler, plus the shutdown
/// switch.
pub struct ServerHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound listen address (resolves `:0` requests to the actual
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the reactor and scheduler to stop (same effect as the
    /// `shutdown` command).
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
    }

    /// Blocks until the reactor and every scheduler thread exit.
    pub fn join(mut self) {
        if let Some(handle) = self.reactor.take() {
            handle.join().ok();
        }
        self.scheduler.join();
    }
}

/// Starts the campaign service: opens the registry under `data_dir`,
/// requeues unfinished work from previous lifetimes, starts the worker
/// pool, and binds the listener (use port `0` for an ephemeral port).
///
/// # Errors
///
/// Returns the filesystem or socket error if the data directory or
/// listener cannot be set up.
pub fn serve(addr: &str, data_dir: &Path, config: ServiceConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::new(Registry::open(data_dir)?);
    let runner = config.runner.clone().unwrap_or_else(|| campaign_runner(config.events.clone()));
    let scheduler = Scheduler::start(
        config.scheduler.clone(),
        Arc::clone(&registry),
        runner,
        config.events.clone(),
    );
    scheduler.resume();
    let predict = PredictService::new(Arc::clone(&registry), config.events.clone());
    let service = Service {
        registry,
        scheduler: Arc::clone(&scheduler),
        predict,
        events: config.events,
        stopping: Arc::new(AtomicBool::new(false)),
    };

    let listener = bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stopping = Arc::clone(&service.stopping);
    let reactor = std::thread::spawn(move || reactor_loop(listener, service));
    Ok(ServerHandle { addr: local, stopping, scheduler, reactor: Some(reactor) })
}

fn bind(addr: &str) -> std::io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| std::io::Error::new(IoErrorKind::InvalidInput, format!("{addr}: {e}")))?
        .collect();
    TcpListener::bind(&addrs[..])
}

/// Shared request-handling state behind the reactor.
struct Service {
    registry: Arc<Registry>,
    scheduler: Arc<Scheduler>,
    predict: PredictService,
    events: Option<Arc<dyn EventSink>>,
    stopping: Arc<AtomicBool>,
}

impl Service {
    /// Handles one request line, returning one response line (without
    /// the trailing newline).
    fn handle(&self, line: &str) -> String {
        match Request::parse(line) {
            Err(e) => error_line_for(&e),
            Ok(Request::Ping) => to_line(&PongResponse {
                ok: true,
                service: "lockstep-serve".to_owned(),
                archive_version: u64::from(ARCHIVE_VERSION),
            }),
            Ok(Request::Submit(spec)) => match self.submit(spec) {
                Ok(response) => to_line(&response),
                Err(e) => error_line_for(&e),
            },
            Ok(Request::Status { job }) => match self.status(job.as_deref()) {
                Ok(response) => to_line(&response),
                Err(e) => error_line_for(&e),
            },
            Ok(Request::Predict { dsr, granularity, core }) => {
                match self.predict.predict(dsr, granularity, core, self.scheduler.generation()) {
                    Ok(response) => to_line(&response),
                    Err(e) => error_line(&e),
                }
            }
            Ok(Request::Shutdown) => {
                self.stopping.store(true, Ordering::SeqCst);
                self.scheduler.shutdown();
                to_line(&ShutdownResponse { ok: true, stopping: true })
            }
        }
    }

    fn submit(&self, spec: crate::proto::JobSpec) -> Result<SubmitResponse, RequestError> {
        let config = spec.campaign_config()?;
        // A job that could never fit the queue is refused before it is
        // planned: the plan holds one entry per shard, so an oversized
        // shard count would be allocated first and refused after.
        let total = config.workloads.len() as u64 * config.faults_per_workload as u64;
        let shards = spec.shards.min(total);
        let capacity = self.scheduler.queue_capacity();
        if shards > capacity as u64 {
            return Err(RequestError::new(
                "queue_full",
                format!("queue full: {shards} shards exceed capacity {capacity}"),
            ));
        }
        let specs = plan_shards(&config, spec.shards as usize);
        let job = self
            .registry
            .create_job(&spec, specs.len() as u64)
            .map_err(|e| RequestError::new("internal", format!("job registration failed: {e}")))?;
        self.scheduler
            .submit(&job, &specs, true)
            .inspect_err(|_| {
                // The job never entered the queue; mark it so a restart
                // does not resurrect work the client was told was rejected.
                self.registry.mark_failed(&job.id, "rejected: queue full at submit");
            })
            .map_err(|e| RequestError::new("queue_full", e))?;
        if let Some(sink) = &self.events {
            sink.emit(&Event::JobSubmitted {
                job: job.id.clone(),
                shards: job.shards,
                faults: spec.total_faults(),
            });
        }
        Ok(SubmitResponse {
            ok: true,
            job: job.id,
            shards: specs.len() as u64,
            faults: spec.total_faults(),
        })
    }

    fn status(&self, only: Option<&str>) -> Result<StatusResponse, RequestError> {
        let jobs = match only {
            Some(id) => {
                vec![self.registry.job(id).ok_or_else(|| {
                    RequestError::new("unknown_job", format!("unknown job `{id}`"))
                })?]
            }
            None => self
                .registry
                .jobs()
                .map_err(|e| RequestError::new("internal", format!("registry scan failed: {e}")))?,
        };
        let mut statuses = Vec::with_capacity(jobs.len());
        for job in jobs {
            let done = self.registry.completed_shards(&job.id).len() as u64;
            let failure = self.registry.failure(&job.id);
            let complete = failure.is_none() && done >= job.shards;
            let records = if complete {
                self.predict.merged_job(&job.id).map(|a| a.records.len() as u64).unwrap_or(0)
            } else {
                0
            };
            statuses.push(JobStatus {
                job: job.id.clone(),
                state: if failure.is_some() {
                    "failed".to_owned()
                } else if complete {
                    "done".to_owned()
                } else {
                    "running".to_owned()
                },
                shards_done: done,
                shards_total: job.shards,
                injected: job.spec.total_faults(),
                records,
                error: failure.unwrap_or_default(),
            });
        }
        Ok(StatusResponse {
            ok: true,
            queued_shards: self.scheduler.queued_shards() as u64,
            jobs: statuses,
        })
    }
}

fn to_line<T: serde::Serialize>(response: &T) -> String {
    serde_json::to_string(response).expect("responses serialize")
}

struct Conn {
    stream: TcpStream,
    input: Vec<u8>,
    output: Vec<u8>,
    closing: bool,
}

fn reactor_loop(listener: TcpListener, service: Service) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if service.stopping.load(Ordering::SeqCst) {
            // Flush what we can (best effort) and stop listening.
            for conn in &mut conns {
                conn.stream.set_nonblocking(false).ok();
                conn.stream.write_all(&conn.output).ok();
            }
            return;
        }
        let mut busy = false;
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    conns.push(Conn {
                        stream,
                        input: Vec::new(),
                        output: Vec::new(),
                        closing: false,
                    });
                }
                busy = true;
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {}
            Err(_) => {}
        }
        for conn in &mut conns {
            busy |= pump(conn, &service);
        }
        conns.retain(|c| !(c.closing && c.output.is_empty()));
        if !busy {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Advances one connection: reads available bytes, handles complete
/// lines, writes pending output. Returns `true` if any progress was
/// made.
fn pump(conn: &mut Conn, service: &Service) -> bool {
    let mut busy = false;
    let mut buf = [0u8; 4096];
    if !conn.closing {
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    busy = true;
                    conn.input.extend_from_slice(&buf[..n]);
                    if conn.input.len() > MAX_LINE_BYTES {
                        conn.output
                            .extend_from_slice(error_line("request line too long").as_bytes());
                        conn.output.push(b'\n');
                        conn.closing = true;
                        break;
                    }
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(_) => {
                    conn.closing = true;
                    break;
                }
            }
        }
        // Handle every complete line buffered so far.
        while let Some(pos) = conn.input.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.input.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            busy = true;
            let response = service.handle(trimmed);
            conn.output.extend_from_slice(response.as_bytes());
            conn.output.push(b'\n');
        }
    }
    if !conn.output.is_empty() {
        match conn.stream.write(&conn.output) {
            Ok(n) if n > 0 => {
                conn.output.drain(..n);
                busy = true;
            }
            Ok(_) => {}
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {}
            Err(_) => {
                conn.closing = true;
                conn.output.clear();
            }
        }
    }
    busy
}
