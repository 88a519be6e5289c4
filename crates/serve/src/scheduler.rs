//! The shard scheduler: a bounded queue, a worker pool, and a lease
//! watchdog.
//!
//! Jobs enter as a batch of [`ShardSpec`]s. Workers lease one shard at
//! a time, run it through the injected [`ShardRunner`], and persist the
//! archive through the registry (first-writer-wins). Degradation is
//! graceful by construction:
//!
//! * **Bounded queue** — a submit that would overflow the queue is
//!   rejected with a backpressure error instead of being accepted and
//!   silently starved.
//! * **Lease timeout** — a watchdog requeues shards whose lease
//!   expired. The original worker cannot be killed, but its late
//!   completion is harmless: shard reruns are byte-identical, so the
//!   first archive written wins and the duplicate is dropped.
//! * **Retry then fail** — a shard that panics (or whose archive cannot
//!   be written) is retried up to the attempt limit, after which the
//!   whole job is marked failed with the reason; the service itself
//!   keeps running.
//!
//! Shutdown abandons the pending queue on purpose: the registry knows
//! which shards completed, so the next server start requeues the rest
//! (see [`Scheduler::resume`]).

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::shard::{plan_shards, ShardSpec};
use lockstep_obs::{Event, EventSink};

use crate::proto::JobSpec;
use crate::registry::{JobRecord, Registry};

/// Runs one shard of a job to an archive. Injected so tests can
/// substitute slow or panicking runners; the production runner wraps
/// [`lockstep_eval::shard::run_shard`].
pub type ShardRunner = Arc<dyn Fn(&JobSpec, &ShardSpec) -> CampaignArchive + Send + Sync>;

/// The production runner: builds the campaign config from the job spec
/// and runs the shard, threading `events` into the campaign engine so
/// golden-pass and span events flow to the service sink.
pub fn campaign_runner(events: Option<Arc<dyn EventSink>>) -> ShardRunner {
    Arc::new(move |spec: &JobSpec, shard: &ShardSpec| {
        let mut config = spec.campaign_config().expect("spec validated at submit");
        config.events = events.clone();
        lockstep_eval::shard::run_shard(&config, shard)
    })
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads leasing shards. `0` accepts jobs without running
    /// them (useful for tests and drain-only servers).
    pub workers: usize,
    /// Maximum pending shards across all jobs; submits beyond this are
    /// rejected (backpressure). Requeues and restart recovery are
    /// exempt — work already accepted is never dropped.
    pub queue_capacity: usize,
    /// Lease duration before the watchdog requeues a shard.
    pub shard_timeout: Duration,
    /// Attempts per shard before the job is failed.
    pub max_attempts: u32,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 2,
            queue_capacity: 1024,
            shard_timeout: Duration::from_secs(300),
            max_attempts: 3,
        }
    }
}

#[derive(Clone)]
struct Task {
    job: JobRecord,
    spec: ShardSpec,
    /// 1-based attempt counter.
    attempt: u32,
}

struct Lease {
    id: u64,
    deadline: Instant,
    task: Task,
}

#[derive(Default)]
struct Inner {
    queue: std::collections::VecDeque<Task>,
    leases: Vec<Lease>,
    stopping: bool,
}

/// The shard scheduler. Create with [`Scheduler::start`].
pub struct Scheduler {
    inner: Mutex<Inner>,
    ready: Condvar,
    config: SchedulerConfig,
    registry: Arc<Registry>,
    runner: ShardRunner,
    events: Option<Arc<dyn EventSink>>,
    /// Bumped on every job completion; the prediction cache retrains
    /// when it observes a new value.
    generation: AtomicU64,
    lease_seq: AtomicU64,
    /// Jobs whose completion has been announced, to emit
    /// [`Event::JobCompleted`] exactly once.
    announced: Mutex<HashSet<String>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts the worker pool and lease watchdog.
    pub fn start(
        config: SchedulerConfig,
        registry: Arc<Registry>,
        runner: ShardRunner,
        events: Option<Arc<dyn EventSink>>,
    ) -> Arc<Scheduler> {
        let scheduler = Arc::new(Scheduler {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            config,
            registry,
            runner,
            events,
            generation: AtomicU64::new(0),
            lease_seq: AtomicU64::new(0),
            announced: Mutex::new(HashSet::new()),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::new();
        for _ in 0..scheduler.config.workers {
            let s = Arc::clone(&scheduler);
            handles.push(std::thread::spawn(move || s.worker_loop()));
        }
        {
            let s = Arc::clone(&scheduler);
            handles.push(std::thread::spawn(move || s.watchdog_loop()));
        }
        *scheduler.handles.lock().expect("no poisoned scheduler") = handles;
        scheduler
    }

    /// Enqueues the not-yet-completed shards of a job.
    ///
    /// With `enforce_capacity`, a submit that would overflow the
    /// bounded queue is rejected whole — the caller should surface the
    /// backpressure error to the client. Restart recovery passes
    /// `false`: accepted work is never dropped.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message when shutting down or over
    /// capacity.
    pub fn submit(
        &self,
        job: &JobRecord,
        specs: &[ShardSpec],
        enforce_capacity: bool,
    ) -> Result<(), String> {
        let pending: Vec<Task> = specs
            .iter()
            .filter(|s| !self.registry.shard_path(&job.id, s.index).exists())
            .map(|s| Task { job: job.clone(), spec: *s, attempt: 1 })
            .collect();
        let mut inner = self.inner.lock().expect("no poisoned scheduler");
        if inner.stopping {
            return Err("server is shutting down".to_owned());
        }
        if enforce_capacity && inner.queue.len() + pending.len() > self.config.queue_capacity {
            return Err(format!(
                "queue full: {} pending + {} new shards exceeds capacity {}",
                inner.queue.len(),
                pending.len(),
                self.config.queue_capacity
            ));
        }
        inner.queue.extend(pending);
        drop(inner);
        self.ready.notify_all();
        Ok(())
    }

    /// Restart recovery: walks the registry and requeues every shard of
    /// every unfailed, incomplete job that has no persisted archive.
    /// Completed jobs are recorded as already announced so they do not
    /// re-emit [`Event::JobCompleted`].
    pub fn resume(&self) {
        let jobs = self.registry.jobs().unwrap_or_default();
        for job in jobs {
            if self.registry.failure(&job.id).is_some() {
                continue;
            }
            let done = self.registry.completed_shards(&job.id).len() as u64;
            if done >= job.shards {
                self.announced.lock().expect("no poisoned scheduler").insert(job.id.clone());
                continue;
            }
            let config = match job.spec.campaign_config() {
                Ok(c) => c,
                Err(e) => {
                    self.registry.mark_failed(&job.id, &e.to_string());
                    continue;
                }
            };
            let specs = plan_shards(&config, job.shards as usize);
            // submit() itself skips the shards whose archives survived.
            self.submit(&job, &specs, false).ok();
        }
    }

    /// Completion counter for cache invalidation: changes every time a
    /// job finishes.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The most shards the queue holds ([`SchedulerConfig::queue_capacity`]).
    pub(crate) fn queue_capacity(&self) -> usize {
        self.config.queue_capacity
    }

    /// Pending (not yet leased) shards.
    pub fn queued_shards(&self) -> usize {
        self.inner.lock().expect("no poisoned scheduler").queue.len()
    }

    /// Asks workers and the watchdog to stop. Leased shards finish;
    /// the pending queue is abandoned to the registry (the next start
    /// resumes it).
    pub fn shutdown(&self) {
        self.inner.lock().expect("no poisoned scheduler").stopping = true;
        self.ready.notify_all();
    }

    /// Waits for every worker and the watchdog to exit.
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.handles.lock().expect("no poisoned scheduler"));
        for handle in handles {
            handle.join().ok();
        }
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.events {
            sink.emit(&event);
        }
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut inner = self.inner.lock().expect("no poisoned scheduler");
                loop {
                    if inner.stopping {
                        return;
                    }
                    if let Some(task) = inner.queue.pop_front() {
                        break task;
                    }
                    inner = self.ready.wait(inner).expect("no poisoned scheduler");
                }
            };
            // A requeued shard whose original (timed-out) worker
            // finished after all: the archive is already on disk.
            if self.registry.shard_path(&task.job.id, task.spec.index).exists() {
                self.after_completion(&task.job);
                continue;
            }
            let lease_id = self.lease_seq.fetch_add(1, Ordering::Relaxed);
            {
                let mut inner = self.inner.lock().expect("no poisoned scheduler");
                inner.leases.push(Lease {
                    id: lease_id,
                    deadline: Instant::now() + self.config.shard_timeout,
                    task: task.clone(),
                });
            }
            self.emit(Event::ShardLeased {
                job: task.job.id.clone(),
                shard: u64::from(task.spec.index),
                attempt: u64::from(task.attempt),
            });
            let started = Instant::now();
            let outcome =
                catch_unwind(AssertUnwindSafe(|| (self.runner)(&task.job.spec, &task.spec)));
            {
                let mut inner = self.inner.lock().expect("no poisoned scheduler");
                inner.leases.retain(|l| l.id != lease_id);
            }
            match outcome {
                Ok(archive) => {
                    let injected = archive.injected as u64;
                    let manifested = archive.records.len() as u64;
                    match self.registry.complete_shard(&task.job.id, task.spec.index, &archive) {
                        Ok(wrote) => {
                            if wrote {
                                self.emit(Event::ShardCompleted {
                                    job: task.job.id.clone(),
                                    shard: u64::from(task.spec.index),
                                    injected,
                                    manifested,
                                    nanos: started.elapsed().as_nanos() as u64,
                                });
                            }
                            self.after_completion(&task.job);
                        }
                        Err(e) => {
                            self.requeue_or_fail(task, "io", &format!("shard write failed: {e}"));
                        }
                    }
                }
                Err(payload) => {
                    let detail = format!("shard panicked: {}", panic_text(payload.as_ref()));
                    self.requeue_or_fail(task, "panic", &detail);
                }
            }
        }
    }

    /// Retries `task` (bypassing the capacity bound — the work was
    /// already accepted) or, past the attempt limit, fails its job.
    fn requeue_or_fail(&self, task: Task, reason: &str, detail: &str) {
        if task.attempt >= self.config.max_attempts {
            let error = format!(
                "shard {} failed after {} attempts: {detail}",
                task.spec.index, task.attempt
            );
            self.registry.mark_failed(&task.job.id, &error);
            self.emit(Event::JobFailed {
                job: task.job.id.clone(),
                shard: u64::from(task.spec.index),
                error,
            });
            return;
        }
        self.emit(Event::ShardRequeued {
            job: task.job.id.clone(),
            shard: u64::from(task.spec.index),
            reason: reason.to_owned(),
        });
        let retry = Task { attempt: task.attempt + 1, ..task };
        let mut inner = self.inner.lock().expect("no poisoned scheduler");
        inner.queue.push_back(retry);
        drop(inner);
        self.ready.notify_one();
    }

    /// Emits [`Event::JobCompleted`] (once) and bumps the generation
    /// when `job`'s last shard archive lands.
    fn after_completion(&self, job: &JobRecord) {
        if (self.registry.completed_shards(&job.id).len() as u64) < job.shards {
            return;
        }
        if !self.announced.lock().expect("no poisoned scheduler").insert(job.id.clone()) {
            return;
        }
        let records = self
            .registry
            .load_completed(&job.id)
            .map(|archives| archives.iter().map(|a| a.records.len() as u64).sum())
            .unwrap_or(0);
        self.emit(Event::JobCompleted { job: job.id.clone(), records });
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    fn watchdog_loop(&self) {
        loop {
            std::thread::sleep(Duration::from_millis(15));
            let expired: Vec<Task> = {
                let mut inner = self.inner.lock().expect("no poisoned scheduler");
                if inner.stopping {
                    return;
                }
                let now = Instant::now();
                let mut expired = Vec::new();
                inner.leases.retain(|lease| {
                    if lease.deadline <= now {
                        expired.push(lease.task.clone());
                        false
                    } else {
                        true
                    }
                });
                expired
            };
            for task in expired {
                let detail = format!(
                    "shard {} exceeded the {}ms lease",
                    task.spec.index,
                    self.config.shard_timeout.as_millis()
                );
                self.requeue_or_fail(task, "timeout", &detail);
            }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}
