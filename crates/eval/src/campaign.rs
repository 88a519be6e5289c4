//! The fault-injection campaign engine.
//!
//! # Campaign performance model
//!
//! A from-reset injection experiment costs `inject_cycle + detection
//! latency` simulated cycles (plus a full kernel re-assembly for the
//! memory image). The checkpointed path restores the golden-run
//! snapshot nearest below the injection cycle instead, so the cost
//! drops to `hit_distance + detection latency + capture window`, where
//! `hit_distance < checkpoint_interval`. Correctness rests on two
//! facts, both covered by tests:
//!
//! * restore is exact — a core resumed from a snapshot is
//!   cycle-for-cycle identical to one that simulated its way there
//!   (`crates/cpu/tests/checkpoint.rs`), and
//! * every [`lockstep_fault::FaultKind`] overlay is the identity before
//!   `fault.cycle`, so the pre-fault prefix can neither be perturbed
//!   nor diverge, and the engine skips both the overlay and the
//!   golden-trace comparison until the injection cycle.
//!
//! # One scalar engine, three references
//!
//! [`run_injection`] is the one scalar entry point. What it compares
//! the faulty copy against each replayed cycle is a [`Reference`]:
//!
//! * [`Reference::Recorded`] — golden's recorded ports (shadow replay),
//!   the port comparator of every [`RedundancyMode::Fixed`] campaign: the
//!   [`PortTrace`] of the single golden pass, or, for a batched
//!   hand-over, the window of the walker's latest port sets. One CPU and
//!   one memory clone per injection.
//! * [`Reference::Twins`] — live fault-free golden-twin CPUs, each with
//!   its own clone of the checkpoint memory (board-level lockstep, the
//!   paper's Figure 1a). N CPUs and N memory clones per injection. No
//!   campaign runs it: it is the oracle the recorded reference is
//!   tested against.
//! * [`Reference::RetireStream`] — the golden retire stream, under
//!   [`RedundancyMode::Dme`]: the faulty copy is checked on its retired
//!   effects instead of its ports.
//!
//! The first two are bit-identical: under replicated memory a
//! fault-free twin restored from the same snapshot deterministically
//! re-produces the recorded trace, so comparing against the recording
//! *is* comparing against the twin, with two or more CPUs
//! (`tests/replay_equivalence.rs` asserts it fault by fault).
//!
//! DME's redundant copy runs over a shifted physical image, but the
//! engine never builds one: without a planted decoder fault the shift
//! only renames RAM words, so over a golden checkpoint's clean image
//! the core sees exactly what it sees unshifted (the relabelling lemma,
//! DESIGN.md §13, pinned by `tests/dme_detection.rs`). Every reference
//! therefore steps the faulty copy over the restored image as is.
//!
//! # Batch mode
//!
//! Orthogonally to the reference, [`CampaignConfig::batch`] swaps the
//! per-fault scalar replay for the batched engine of [`crate::batch`]:
//! a workload's faults share one fault-free walker replay in strike
//! order, transients retire the moment their dirty set empties,
//! and agreeing stuck-ats wait in bit-parallel watch masks at zero
//! simulation cost. Outcomes are bit-identical to the scalar engine
//! (`tests/batch_equivalence.rs` asserts byte-identical archives), so
//! batch mode is purely a throughput knob.
//!
//! Under DME the batched engine is a filter in front of the retire
//! comparator. The comparator reads only the retire ports, so a fault
//! whose ports match golden on every cycle cannot be detected by it
//! (the subset lemma, DESIGN.md §13): every port-masked fault is scored
//! masked. A port-divergent lane is not replayed: the batched engine
//! hands the live machine to [`run_injection`] as a
//! [`ReplayStart::Live`] start against [`Reference::RetireStream`],
//! which decides it exactly as a replay from its checkpoint would, in
//! the same pass. Fixed lockstep takes the same hand-over against
//! [`Reference::Recorded`], over the walker's own port sets of the
//! capture window, so both comparators share one divergence path. The
//! batched engine's walker is its golden reference, so a batched
//! campaign's golden pass records no port trace: only the run, the
//! checkpoints and, under DME, the retire stream. The scalar engine's
//! port comparator is the one reader of a recorded trace.
//!
//! # One work queue
//!
//! A campaign is the one-slice case of a shard: [`run_campaign_for`]
//! and [`crate::shard::run_shard_for`] both run a range of global queue
//! positions through one runner (golden captures, plan slicing,
//! injection, record order, [`CampaignStats`]). Its injection phase is
//! a single worker loop over items of `(workload, [(plan position,
//! fault)])` — for the batched engine one strike-ordered run per
//! workload (a few, cut between checkpoint groups, when threads
//! outnumber workloads), single faults otherwise — and records are
//! ordered by (strike, detection, unit, DSR) with plan position
//! breaking ties, so neither threads nor shard cuts reach the archive.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lockstep_core::{Dsr, ErrorRecord, RedundancyMode};
use lockstep_cpu::{
    flops, CoreKind, CoreModel, Cpu, CpuState, Granularity, Lr7, PortSet, PortTrace,
};
use lockstep_fault::{CampaignPlan, ErrorKind, Fault, FaultKind, PlanConfig};
use lockstep_iss::{retired_of_ports, Retired};
use lockstep_mem::Memory;
use lockstep_obs::{DivergenceTrace, Event, EventSink, TraceRing, TraceSample};
use lockstep_workloads::{GoldenCheckpoints, GoldenRun, Workload};
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

use crate::batch::{run_batch_group, total_cost, BatchConfig, BatchCost, CoreBatch};
use crate::dme::{retired_diff_mask, stream_skew_mask};

/// Default DSR capture window (cycles from first divergence until the
/// CPUs are architecturally stopped).
pub const DEFAULT_CAPTURE_WINDOW: u32 = 16;

/// Default pre-detection retention of the divergence trace recorder
/// (samples kept between injection and detection when tracing is on).
pub const DEFAULT_TRACE_WINDOW: u32 = 64;

/// Default golden-run checkpoint spacing (re-exported from the
/// workloads crate so campaign callers need only one import).
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = lockstep_workloads::DEFAULT_CHECKPOINT_INTERVAL;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workloads to run (defaults to the full suite).
    pub workloads: Vec<&'static Workload>,
    /// Fault injections per workload.
    pub faults_per_workload: usize,
    /// Master seed (stimulus, fault sampling, splits).
    pub seed: u64,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
    /// DSR capture window in cycles. In hardware the DSR keeps OR-ing
    /// per-SC divergences while the checker's error signal propagates
    /// and the CPUs are being stopped; sticky (hard) faults spread over
    /// more SCs in that window than one-shot transients, which is what
    /// makes the error *type* predictable (Section III-B).
    pub capture_window: u32,
    /// Golden-run checkpoint spacing in cycles. `None` disables
    /// checkpointing: every injection replays from reset and rebuilds
    /// its memory image (the pre-optimization behaviour, kept as the
    /// baseline the `campaign` benchmark compares against).
    pub checkpoint_interval: Option<u64>,
    /// Structured event sink. `None` (the default) skips event
    /// construction entirely, so an untraced campaign pays nothing for
    /// the observability layer (the `obs` benchmark proves it).
    pub events: Option<Arc<dyn EventSink>>,
    /// Divergence trace recording: `Some(pre_window)` records, for each
    /// manifested error, the last `pre_window` pre-detection cycles plus
    /// the whole capture window ([`DivergenceTrace`]). `None` (the
    /// default) records nothing. Tracing requires the checkpointed
    /// injection path (`checkpoint_interval` set) and the port
    /// comparator; otherwise the option is ignored (see
    /// [`CampaignConfig::records_traces`]).
    pub trace_window: Option<u32>,
    /// Batched fault simulation: `Some(layers)` runs the batched engine
    /// of [`crate::batch`] with the given layer combination instead of
    /// one scalar replay per fault, in every redundancy mode; `None`
    /// (the default) keeps the scalar engine, the reference the batched
    /// one is tested against. Outcomes are bit-identical either way.
    /// Ignored when the campaign records traces (see
    /// [`CampaignConfig::effective_batch`]).
    pub batch: Option<BatchConfig>,
    /// Core model under test (default [`CoreKind::Lr5`], the in-order
    /// pipeline). [`CoreKind::Lr7`] runs the out-of-order core behind
    /// the same [`CoreModel`] contracts, on the same batched engine and
    /// layers, word parking included (see [`CoreBatch`]).
    pub core: CoreKind,
    /// Comparator under test (default [`RedundancyMode::Fixed`], the
    /// paper's per-cycle port compare of a permanently paired DMR).
    /// [`RedundancyMode::Dme`] swaps it for the retired-effect stream
    /// comparator over a shifted redundant address space. Both run on
    /// the engine [`CampaignConfig::batch`] selects; under DME the
    /// batched engine port-compares every fault and hands each
    /// port-divergent one, live, to the retire comparator.
    pub redundancy: RedundancyMode,
}

impl CampaignConfig {
    /// A campaign over the full suite with `faults_per_workload`
    /// injections per kernel.
    pub fn new(faults_per_workload: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            workloads: Workload::all().iter().collect(),
            faults_per_workload,
            seed,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            capture_window: DEFAULT_CAPTURE_WINDOW,
            checkpoint_interval: Some(DEFAULT_CHECKPOINT_INTERVAL),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::default(),
            redundancy: RedundancyMode::default(),
        }
    }

    /// Whether the campaign records divergence traces: a trace window
    /// is set, checkpointing is on, and the comparator is the per-cycle
    /// port compare (the recorder replays each fault from its checkpoint
    /// against the recorded ports).
    pub fn records_traces(&self) -> bool {
        CampaignConfig::traced(
            self.trace_window.is_some(),
            self.checkpoint_interval.is_some(),
            self.redundancy,
        )
    }

    /// [`CampaignConfig::records_traces`] from the three settings it
    /// reads, which shard provenance records too.
    pub(crate) fn traced(
        trace_window: bool,
        checkpointed: bool,
        redundancy: RedundancyMode,
    ) -> bool {
        trace_window && checkpointed && redundancy == RedundancyMode::Fixed
    }

    /// The batch layers the engine will actually use: the configured
    /// ones on every core, except that a campaign that records traces
    /// runs the scalar per-fault path (the trace recorder samples one
    /// dedicated faulty CPU per injection, which is exactly what
    /// batching shares away). The fallback is recorded honestly: stats
    /// and shard provenance report the layers that really ran, `"off"`
    /// here, and each campaign or shard that falls back announces it
    /// with an [`Event::BatchModeDowngraded`].
    pub fn effective_batch(&self) -> Option<BatchConfig> {
        if self.records_traces() {
            None
        } else {
            self.batch
        }
    }
}

/// Throughput and cost accounting for one workload's injections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Workload name.
    pub workload: String,
    /// Faults injected into this workload.
    pub injected: u64,
    /// Injections that produced a detectable divergence.
    pub manifested: u64,
    /// Injections masked for the whole run (`injected - manifested`).
    pub masked: u64,
    /// Golden runtime in cycles (the per-injection cost ceiling).
    pub golden_cycles: u64,
    /// Cycles actually simulated across all injections. Under the
    /// batched engine this depends on how the queue cut the workload
    /// into runs, and so on the thread count (see [`CampaignStats`]).
    pub replayed_cycles: u64,
    /// Cycles skipped by resuming from checkpoints instead of reset;
    /// cut-dependent like `replayed_cycles`.
    pub skipped_cycles: u64,
    /// Snapshots captured for this workload.
    pub checkpoint_count: u64,
    /// Approximate bytes held by those snapshots.
    pub checkpoint_bytes: u64,
    /// Sum over injections of (inject cycle − checkpoint cycle).
    pub hit_distance_sum: u64,
    /// Worst-case replay distance from a checkpoint to its injection.
    pub hit_distance_max: u64,
    /// Wall time spent injecting into this workload, summed over
    /// worker threads.
    pub wall_nanos: u64,
}

impl WorkloadStats {
    /// Mean cycles replayed between the restored checkpoint and the
    /// injection cycle (< checkpoint interval by construction).
    pub fn mean_hit_distance(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.hit_distance_sum as f64 / self.injected as f64
        }
    }
}

/// Whole-campaign throughput instrumentation.
///
/// Records never depend on the thread count, but some costs do. The
/// batched engine gives each workload one walker per run, and a workload
/// is cut into `ceil(threads / workloads)` runs. With more threads than
/// workloads the per-workload `replayed_cycles` and `skipped_cycles` and
/// the campaign's `lane_activations` therefore vary with the thread
/// count, as the wall times always have.
///
/// `Deserialize` is written by hand so that fields added after archives
/// of this struct already existed are optional on read: the batch-mode
/// fields default to `"off"` / zero (files that predate them were
/// produced by the scalar per-fault engines). The `replay_mode` label of
/// v4–v10 stats blocks is ignored: both replay modes gave identical
/// records, and only shadow replay remains.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignStats {
    /// Checkpoint spacing used, or 0 if checkpointing was disabled.
    pub checkpoint_interval: u64,
    /// Core model label of the producing run (`"lr5"` / `"lr7"`; see
    /// [`CoreKind::label`]).
    pub core: String,
    /// Redundancy mode label of the producing run (`"fixed"` /
    /// `"dme"`; see [`RedundancyMode::label`]). Archives written before
    /// v11 may say `"dynamic"`, which ran the fixed engine.
    pub redundancy: String,
    /// Total faults injected.
    pub injected: u64,
    /// Faults that manifested as detected errors.
    pub manifested: u64,
    /// Faults masked for the entire run.
    pub masked: u64,
    /// Wall time of the golden capture phase (reference runs +
    /// checkpointing), in nanoseconds.
    pub golden_nanos: u64,
    /// Wall time of the injection phase, in nanoseconds.
    pub injection_nanos: u64,
    /// End-to-end campaign wall time, in nanoseconds.
    pub wall_nanos: u64,
    /// Injection throughput over the injection phase.
    pub injections_per_sec: f64,
    /// Batch-mode label of the producing run (`"off"` for scalar
    /// per-fault replay; see [`BatchConfig::label`]), or `"mixed"` for
    /// a merge of shards that ran under different batch modes.
    pub batch_mode: String,
    /// Transients the batched engine scored masked via the dirty-set
    /// early-out before the end of the golden run.
    pub masked_early_out: u64,
    /// Simulated cycles the early-out avoided, summed over early-out
    /// faults.
    pub early_out_cycles_saved: u64,
    /// Stuck-ats that sat parked in the batched engine's lot to the end
    /// of the golden run — masked at zero simulation cost.
    pub parked_masked: u64,
    /// Scalar fault lanes the batched engine materialized (strike
    /// admissions plus wakes from the lot). Clean stuck-ats of one run
    /// that force the same bit and wake in the same cycle share a lane,
    /// so the count depends on the cut.
    pub lane_activations: u64,
    /// Per-workload breakdown, in campaign order.
    pub per_workload: Vec<WorkloadStats>,
}

impl Deserialize for CampaignStats {
    fn deserialize(value: &Value) -> Result<CampaignStats, JsonError> {
        Ok(CampaignStats {
            checkpoint_interval: Deserialize::deserialize(value.field("checkpoint_interval")?)?,
            // Archives that predate the core-model axis were produced
            // by the only core that existed, the in-order LR5.
            core: match value.field("core") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => CoreKind::Lr5.label().to_owned(),
            },
            // Archives that predate the redundancy axis were produced
            // by the only arrangement that existed, fixed lockstep.
            redundancy: match value.field("redundancy") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => RedundancyMode::Fixed.label().to_owned(),
            },
            injected: Deserialize::deserialize(value.field("injected")?)?,
            manifested: Deserialize::deserialize(value.field("manifested")?)?,
            masked: Deserialize::deserialize(value.field("masked")?)?,
            golden_nanos: Deserialize::deserialize(value.field("golden_nanos")?)?,
            injection_nanos: Deserialize::deserialize(value.field("injection_nanos")?)?,
            wall_nanos: Deserialize::deserialize(value.field("wall_nanos")?)?,
            injections_per_sec: Deserialize::deserialize(value.field("injections_per_sec")?)?,
            // Archives that predate batch mode were produced by the
            // scalar per-fault engine.
            batch_mode: match value.field("batch_mode") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => "off".to_owned(),
            },
            masked_early_out: match value.field("masked_early_out") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            early_out_cycles_saved: match value.field("early_out_cycles_saved") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            parked_masked: match value.field("parked_masked") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            lane_activations: match value.field("lane_activations") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => 0,
            },
            per_workload: Deserialize::deserialize(value.field("per_workload")?)?,
        })
    }
}

impl CampaignStats {
    /// Renders the throughput report `repro_all` prints: the phase
    /// split, injection rate, and per-workload replay/checkpoint cost.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== Campaign throughput (core: {}, redundancy: {}, checkpoint interval: {}) ==\n\n\
             {} injections ({} manifested, {} masked) at {:.0} injections/sec\n\
             golden capture {:.1} ms, injection phase {:.1} ms, total {:.1} ms\n\n",
            if self.core.is_empty() { "lr5" } else { &self.core },
            if self.redundancy.is_empty() { "fixed" } else { &self.redundancy },
            if self.checkpoint_interval == 0 {
                "off".to_owned()
            } else {
                format!("{} cycles", self.checkpoint_interval)
            },
            self.injected,
            self.manifested,
            self.masked,
            self.injections_per_sec,
            self.golden_nanos as f64 / 1e6,
            self.injection_nanos as f64 / 1e6,
            self.wall_nanos as f64 / 1e6,
        );
        if !(self.batch_mode.is_empty() || self.batch_mode == "off") {
            out.push_str(&format!(
                "batch mode {}: {} early-out masked ({:.2} Mcyc saved), \
                 {} parked masked, {} lanes activated\n\n",
                self.batch_mode,
                self.masked_early_out,
                self.early_out_cycles_saved as f64 / 1e6,
                self.parked_masked,
                self.lane_activations,
            ));
        }
        let mut t = crate::render::Table::new(vec![
            "workload",
            "injected",
            "manifested",
            "golden cyc",
            "ckpts",
            "ckpt KiB",
            "mean hit",
            "max hit",
            "replayed Mcyc",
            "skipped Mcyc",
            "wall ms",
        ]);
        for w in &self.per_workload {
            t.row(vec![
                w.workload.clone(),
                w.injected.to_string(),
                w.manifested.to_string(),
                w.golden_cycles.to_string(),
                w.checkpoint_count.to_string(),
                format!("{:.0}", w.checkpoint_bytes as f64 / 1024.0),
                format!("{:.0}", w.mean_hit_distance()),
                w.hit_distance_max.to_string(),
                format!("{:.2}", w.replayed_cycles as f64 / 1e6),
                format!("{:.2}", w.skipped_cycles as f64 / 1e6),
                format!("{:.1}", w.wall_nanos as f64 / 1e6),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// One record per manifested error.
    pub records: Vec<ErrorRecord>,
    /// Total faults injected (manifested + masked).
    pub injected: usize,
    /// Injected fault counts per fine unit: `[unit][0]` soft,
    /// `[unit][1]` hard.
    pub injected_per_unit: Vec<[u64; 2]>,
    /// Per-workload golden run data (`name`, timing/outputs).
    pub golden: Vec<(&'static str, GoldenRun)>,
    /// Throughput instrumentation for the run that produced this.
    pub stats: CampaignStats,
    /// Divergence traces aligned 1:1 with `records` when the campaign
    /// ran with [`CampaignConfig::trace_window`] set; empty otherwise.
    pub traces: Vec<Option<DivergenceTrace>>,
    /// The event sink the campaign ran with, kept so post-campaign
    /// queries (e.g. [`CampaignResult::restart_cycles`]) log to the same
    /// stream.
    pub events: Option<Arc<dyn EventSink>>,
}

impl CampaignResult {
    /// Manifested errors per fine unit (soft, hard).
    pub fn manifested_per_unit(&self) -> Vec<[u64; 2]> {
        let mut out = vec![[0u64; 2]; 13];
        for r in &self.records {
            let k = usize::from(r.kind() == ErrorKind::Hard);
            out[r.unit_index as usize][k] += 1;
        }
        out
    }

    /// Per-unit manifestation rates under `granularity`, pooled over
    /// soft and hard faults — the input for the `base-manifest`
    /// ordering.
    pub fn manifestation_rates(&self, granularity: Granularity) -> Vec<f64> {
        let mut injected = vec![0u64; granularity.unit_count()];
        let mut manifested = vec![0u64; granularity.unit_count()];
        for (fine, counts) in self.injected_per_unit.iter().enumerate() {
            let idx = granularity.index_of(lockstep_cpu::UnitId::ALL[fine]);
            injected[idx] += counts[0] + counts[1];
        }
        for r in &self.records {
            let idx = granularity.index_of(r.unit());
            manifested[idx] += 1;
        }
        injected
            .iter()
            .zip(&manifested)
            .map(|(&i, &m)| if i == 0 { 0.0 } else { m as f64 / i as f64 })
            .collect()
    }

    /// The restart penalty of a workload: its measured golden runtime
    /// (the paper's restart latencies are "the actual execution times of
    /// the EEMBC AutoBench"). A workload this campaign never ran falls
    /// back to the mean measured golden runtime (logged), so the
    /// penalty stays tied to this campaign's workload population rather
    /// than a magic constant.
    pub fn restart_cycles(&self, workload: &str) -> u64 {
        if let Some((_, g)) = self.golden.iter().find(|(n, _)| *n == workload) {
            return g.cycles;
        }
        let total: u64 = self.golden.iter().map(|(_, g)| g.cycles).sum();
        let mean = total / self.golden.len().max(1) as u64;
        if let Some(sink) = &self.events {
            sink.emit(&Event::RestartFallback { workload: workload.to_owned(), mean_cycles: mean });
        } else {
            eprintln!(
                "restart_cycles: workload `{workload}` was not in this campaign; \
                 using mean golden runtime {mean} cycles"
            );
        }
        mean
    }
}

/// Per-workload atomic counters the injection workers update.
#[derive(Default)]
struct WorkCounters {
    manifested: AtomicU64,
    replayed_cycles: AtomicU64,
    skipped_cycles: AtomicU64,
    hit_distance_sum: AtomicU64,
    hit_distance_max: AtomicU64,
    wall_nanos: AtomicU64,
}

/// One phase-2 work item: the index of a covered workload and the
/// `(plan position, fault)` pairs the item runs — for the batched engine
/// one strike-ordered run of whole checkpoint groups, served by one
/// walker; for the scalar engine a single fault.
type WorkItem = (usize, Vec<(usize, Fault)>);

/// One manifested error as a worker produced it.
struct Produced {
    /// Index of the workload among the covered ones.
    li: usize,
    /// Position of the fault in its workload's plan.
    position: usize,
    record: ErrorRecord,
    trace: Option<DivergenceTrace>,
}

/// The canonical within-workload record order: strike cycle, detection
/// cycle, unit, DSR. Distinct faults can tie on it — two faults in one
/// unit striking the same cycle, a transient and a stuck-at say, may
/// detect alike — so ties go to plan position: the campaign sorts on it
/// directly, and the shard merge walks shards in queue order before its
/// stable sort. The order is therefore a pure function of the plan,
/// whatever the thread count or shard cut.
pub(crate) fn record_key(r: &ErrorRecord) -> (u64, u64, u8, Dsr) {
    (r.inject_cycle, r.detect_cycle, r.unit_index, r.dsr)
}

/// Runs a full campaign: one golden reference pass per workload
/// (statistics, checkpoints and what the comparator reads of golden's
/// ports, captured together), then a single flat queue of (workload,
/// fault) injection experiments shared by all worker threads.
/// Dispatches on [`CampaignConfig::core`] to the generic engine,
/// monomorphized per core model.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    match config.core {
        CoreKind::Lr5 => run_campaign_for::<Cpu>(config),
        CoreKind::Lr7 => run_campaign_for::<Lr7>(config),
    }
}

/// [`run_campaign`] monomorphized for core model `C`: the whole fault
/// queue run as one slice. The engine is a pure function of the
/// [`CoreModel`] contracts — registry-driven fault plans,
/// snapshot/restore checkpoints, overlay stepping, and the 62-SC port
/// comparison — so every comparator and every batch layer work
/// identically on any conforming core.
pub fn run_campaign_for<C: CoreBatch>(config: &CampaignConfig) -> CampaignResult {
    let queued = config.workloads.len() as u64 * config.faults_per_workload as u64;
    run_queue_slice::<C>(config, 0..config.workloads.len(), 0..queued)
}

/// The runner behind both [`run_campaign_for`] and
/// [`crate::shard::run_shard_for`]: injects global queue positions
/// `queue` (position `i` is fault `i % faults_per_workload` of workload
/// `i / faults_per_workload`), golden-capturing the `covered` workloads
/// — exactly those the slice touches, or all of them for a whole
/// campaign.
///
/// Stimulus and fault-plan seeds derive from **global** workload
/// indices, so a slice's records are bit-identical to the same positions
/// of the single-shot campaign. The result describes the slice alone:
/// its records in canonical order, its injection counts, the covered
/// workloads' golden runs, and its [`CampaignStats`].
pub(crate) fn run_queue_slice<C: CoreBatch>(
    config: &CampaignConfig,
    covered: Range<usize>,
    queue: Range<u64>,
) -> CampaignResult {
    let run_start = Instant::now();
    let batch = config.effective_batch();
    if let Some(events) = config.events.as_ref().filter(|_| batch != config.batch) {
        events.emit(&Event::BatchModeDowngraded {
            requested: config.batch.map_or("off", BatchConfig::label).to_owned(),
            effective: batch.map_or("off", BatchConfig::label).to_owned(),
            trace_window: config.trace_window.map_or(0, u64::from),
        });
    }

    let workloads = &config.workloads[covered.clone()];
    let stim_seeds: Vec<u64> = covered.clone().map(|wi| config.seed ^ (wi as u64) << 32).collect();
    let (captures, golden_nanos) = run_golden_phase::<C>(config, workloads, &stim_seeds);

    let slices = queue_slices::<C>(config, covered, &queue, &captures);
    let mut injected_per_unit = vec![[0u64; 2]; 13];
    for (_, f) in slices.iter().flatten() {
        let k = usize::from(f.kind.error_kind() == ErrorKind::Hard);
        injected_per_unit[f.unit_for::<C>().index()][k] += 1;
    }
    let fault_counts: Vec<u64> = slices.iter().map(|s| s.len() as u64).collect();
    let items = work_items(&captures, slices, batch.is_some(), config.threads);

    let injection_start = Instant::now();
    let counters: Vec<WorkCounters> = workloads.iter().map(|_| WorkCounters::default()).collect();
    let (mut produced, batch_cost) =
        run_injection_phase::<C>(config, workloads, &captures, &stim_seeds, &items, &counters);
    let injection_nanos = elapsed_nanos(injection_start);
    if let Some(events) = &config.events {
        events.emit(&Event::Span { name: "injection".to_owned(), nanos: injection_nanos });
    }

    // Archive order: grouped by workload in campaign order, then
    // `record_key` with plan position breaking ties. Traces ride along
    // so `traces[i]` always describes `records[i]`.
    produced.sort_unstable_by_key(|p| (p.li, record_key(&p.record), p.position));
    let (records, mut traces): (Vec<ErrorRecord>, Vec<Option<DivergenceTrace>>) =
        produced.into_iter().map(|p| (p.record, p.trace)).unzip();
    if !config.records_traces() {
        traces.clear();
    }
    for (i, trace) in traces.iter_mut().enumerate() {
        if let Some(t) = trace {
            t.record = i as u64;
        }
    }

    let checkpointed = config.checkpoint_interval.is_some();
    let per_workload = (0..workloads.len())
        .map(|li| {
            let (c, cap, injected) = (&counters[li], &captures[li], fault_counts[li]);
            let manifested = c.manifested.load(Ordering::Relaxed);
            WorkloadStats {
                workload: workloads[li].name.to_owned(),
                injected,
                manifested,
                masked: injected - manifested,
                golden_cycles: cap.run.cycles,
                replayed_cycles: c.replayed_cycles.load(Ordering::Relaxed),
                skipped_cycles: c.skipped_cycles.load(Ordering::Relaxed),
                checkpoint_count: if checkpointed {
                    cap.checkpoints.points.len() as u64
                } else {
                    0
                },
                checkpoint_bytes: if checkpointed {
                    cap.checkpoints.approx_bytes() as u64
                } else {
                    0
                },
                hit_distance_sum: c.hit_distance_sum.load(Ordering::Relaxed),
                hit_distance_max: c.hit_distance_max.load(Ordering::Relaxed),
                wall_nanos: c.wall_nanos.load(Ordering::Relaxed),
            }
        })
        .collect();
    let injected: u64 = fault_counts.iter().sum();
    let manifested = records.len() as u64;
    let injection_secs = injection_nanos as f64 / 1e9;
    let stats = CampaignStats {
        checkpoint_interval: config.checkpoint_interval.unwrap_or(0),
        core: C::NAME.to_owned(),
        redundancy: config.redundancy.label().to_owned(),
        injected,
        manifested,
        masked: injected - manifested,
        golden_nanos,
        injection_nanos,
        wall_nanos: elapsed_nanos(run_start),
        injections_per_sec: if injection_secs > 0.0 {
            injected as f64 / injection_secs
        } else {
            0.0
        },
        batch_mode: batch.map_or("off", BatchConfig::label).to_owned(),
        masked_early_out: batch_cost.masked_early_out,
        early_out_cycles_saved: batch_cost.early_out_cycles_saved,
        parked_masked: batch_cost.parked_masked,
        lane_activations: batch_cost.lane_activations,
        per_workload,
    };

    CampaignResult {
        records,
        injected: injected as usize,
        injected_per_unit,
        golden: workloads.iter().zip(&captures).map(|(w, cap)| (w.name, cap.run)).collect(),
        stats,
        traces,
        events: config.events.clone(),
    }
}

/// One covered workload's golden pass, as the injection phase reads it:
/// the run, the checkpoints, and what its comparator reads of golden's
/// ports, recorded in the same pass.
pub(crate) struct Golden<S> {
    pub(crate) run: GoldenRun,
    pub(crate) checkpoints: GoldenCheckpoints<S>,
    /// The port trace, for the scalar engine's port comparator
    /// ([`Reference::Recorded`]) alone: the batched engine's walker
    /// re-produces every port set, and DME reads only the retire stream,
    /// so their passes record no trace and this one stays empty.
    pub(crate) trace: PortTrace,
    /// Golden's retire stream under DME ([`Reference::RetireStream`]),
    /// equal to [`crate::dme::retire_stream`] of the trace; empty
    /// otherwise.
    pub(crate) retires: Vec<(u64, Retired)>,
}

impl<S> Golden<S> {
    /// Runs `workload`'s golden pass on core `C`, keeping the port trace
    /// when `trace` asks for it and the retire stream when `retires`
    /// does.
    pub(crate) fn capture<C: CoreModel<State = S>>(
        workload: &Workload,
        stim_seed: u64,
        checkpoint_interval: u64,
        trace: bool,
        retires: bool,
    ) -> Golden<S> {
        let (mut kept, mut stream) = (PortTrace::new(), Vec::new());
        let (run, checkpoints) = workload.golden_record_for::<C>(
            stim_seed,
            400_000,
            checkpoint_interval,
            |cycle, ports| {
                if trace {
                    kept.push(*ports);
                }
                if let Some(r) = retires.then(|| retired_of_ports(ports)).flatten() {
                    stream.push((cycle, r));
                }
            },
        );
        Golden { run, checkpoints, trace: kept, retires: stream }
    }
}

/// Phase 1: golden passes of `workloads`, parallel over workloads. One
/// simulation per kernel yields the run stats, the checkpoints and what
/// the campaign's comparator reads of golden's ports ([`Golden`]).
/// `stim_seeds[i]` seeds `workloads[i]`'s stimulus (the seed of its
/// global campaign index, so a shard's passes are bit-identical to the
/// full campaign's).
///
/// Returns the passes plus the phase's wall time in nanoseconds.
fn run_golden_phase<C: CoreModel>(
    config: &CampaignConfig,
    workloads: &[&'static Workload],
    stim_seeds: &[u64],
) -> (Vec<Golden<C::State>>, u64) {
    let phase_start = Instant::now();
    let capture_interval = config.checkpoint_interval.unwrap_or(u64::MAX);
    let dme = config.redundancy == RedundancyMode::Dme;
    let trace = config.effective_batch().is_none() && !dme;
    let captures: Vec<Golden<C::State>> = {
        let slots: Vec<Mutex<Option<Golden<C::State>>>> =
            workloads.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..config.threads.max(1).min(workloads.len().max(1)) {
                scope.spawn(|| loop {
                    let wi = next.fetch_add(1, Ordering::Relaxed);
                    let Some(workload) = workloads.get(wi) else {
                        break;
                    };
                    let cap = Golden::capture::<C>(
                        workload,
                        stim_seeds[wi],
                        capture_interval,
                        trace,
                        dme,
                    );
                    *slots[wi].lock().expect("no poisoned capture slot") = Some(cap);
                });
            }
        });
        slots
            .into_iter()
            .zip(workloads)
            .map(|(slot, w)| {
                slot.into_inner()
                    .expect("no poisoned capture slot")
                    .unwrap_or_else(|| panic!("golden capture for {} missing", w.name))
            })
            .collect()
    };
    let golden_nanos = elapsed_nanos(phase_start);
    if let Some(sink) = &config.events {
        for (workload, cap) in workloads.iter().zip(&captures) {
            sink.emit(&Event::GoldenPass {
                workload: workload.name.to_owned(),
                cycles: cap.run.cycles,
                instructions: cap.run.instructions,
                checkpoints: if config.checkpoint_interval.is_some() {
                    cap.checkpoints.points.len() as u64
                } else {
                    0
                },
            });
        }
        sink.emit(&Event::Span { name: "golden_capture".to_owned(), nanos: golden_nanos });
    }
    (captures, golden_nanos)
}

/// Each covered workload's `(plan position, fault)` pairs in the queue
/// range `queue`: its full fault plan, re-derived from its global seed
/// and cut to the positions the range owns, in plan order.
fn queue_slices<C: CoreModel>(
    config: &CampaignConfig,
    covered: Range<usize>,
    queue: &Range<u64>,
    captures: &[Golden<C::State>],
) -> Vec<Vec<(usize, Fault)>> {
    let fpw = config.faults_per_workload as u64;
    covered
        .zip(captures)
        .map(|(wi, cap)| {
            let plan = CampaignPlan::sampled_for::<C>(
                PlanConfig::new(cap.run.cycles, config.seed.wrapping_add(wi as u64)),
                config.faults_per_workload,
            );
            let base = wi as u64 * fpw;
            let lo = (queue.start.max(base) - base) as usize;
            let hi = (queue.end.min(base + fpw) - base) as usize;
            (lo..hi).map(|pos| (pos, plan.faults()[pos])).collect()
        })
        .collect()
}

/// Cuts each covered workload's share of the queue into phase-2 work
/// items. For the scalar engine every fault is its own item, in plan
/// order. For the batched engine a workload's faults go in strike order
/// (stable, so ties keep plan order), and each item is one *run*: one
/// walker serves all of it. A workload makes `ceil(threads / workloads)`
/// runs, so one run on one thread or whenever the workloads alone keep
/// every thread busy.
///
/// The cuts fall between checkpoint groups (faults restoring the same
/// checkpoint), and the runs weigh about the same. A fault weighs the
/// golden cycles left after its strike, the most its lane or parked
/// entry can cost and the walk its run's walker owes it, and a group
/// joins the run its middle weight falls in. Equal fault counts would
/// not balance: early strikes live longest, so the first run of a
/// workload cut in two by count carried nearly three times the work of
/// the second.
fn work_items<S>(
    captures: &[Golden<S>],
    slices: Vec<Vec<(usize, Fault)>>,
    batched: bool,
    threads: usize,
) -> Vec<WorkItem> {
    let runs = threads.max(1).div_ceil(captures.len().max(1));
    let mut items = Vec::new();
    for (li, (cap, mut slice)) in captures.iter().zip(slices).enumerate() {
        if !batched {
            items.extend(slice.into_iter().map(|fault| (li, vec![fault])));
            continue;
        }
        let restores = |f: &Fault| {
            cap.checkpoints
                .nearest_at(f.cycle)
                .expect("golden captures always include the cycle-0 checkpoint")
                .cycle
        };
        slice.sort_by_key(|(_, f)| f.cycle);
        let weight = |f: &Fault| cap.run.cycles.saturating_sub(f.cycle).max(1);
        let total: u64 = slice.iter().map(|(_, f)| weight(f)).sum();
        let mut cuts = vec![0];
        let (mut pos, mut before) = (0, 0);
        for group in slice.chunk_by(|(_, a), (_, b)| restores(a) == restores(b)) {
            let w: u64 = group.iter().map(|(_, f)| weight(f)).sum();
            if pos > 0 && (2 * before + w) * runs as u64 / (2 * total) >= cuts.len() as u64 {
                cuts.push(pos);
            }
            pos += group.len();
            before += w;
        }
        cuts.push(slice.len());
        items.extend(
            cuts.windows(2).filter(|c| c[0] < c[1]).map(|c| (li, slice[c[0]..c[1]].to_vec())),
        );
    }
    items
}

/// Phase 2: the one work queue. Worker threads pull [`WorkItem`]s off a
/// shared cursor and run each through the batched engine
/// ([`run_batch_group`], one shared walker per run) or fault by fault
/// through [`run_injection`], against the reference the configuration
/// selects. This loop is the only place that updates the per-workload
/// counters, emits the per-fault events and builds [`ErrorRecord`]s.
/// Outcomes are a pure per-fault function, so neither the thread count
/// nor the item order reaches the records.
///
/// Under DME each batched run gets its workload's retire stream: the
/// engine port-compares every fault against its walker and hands each
/// port-divergent lane, live, to the retire comparator, which decides it
/// in the same pass.
///
/// Batched runs share their restore, so a batched phase reports no
/// per-fault checkpoint hits and leaves the hit-distance stats at zero.
fn run_injection_phase<C: CoreBatch>(
    config: &CampaignConfig,
    workloads: &[&'static Workload],
    captures: &[Golden<C::State>],
    stim_seeds: &[u64],
    items: &[WorkItem],
    counters: &[WorkCounters],
) -> (Vec<Produced>, BatchCost) {
    let window = config.capture_window;
    let batch = config.effective_batch();
    let dme = config.redundancy == RedundancyMode::Dme;
    // Replays resume from the golden store only when checkpointing is
    // on; otherwise each rebuilds its image and replays from reset.
    let checkpointed = config.checkpoint_interval.is_some();
    let trace_window = config.trace_window.filter(|_| config.records_traces());
    // One scalar replay of covered workload `li`, with its costs counted.
    let replay = |li: usize, fault: Fault| {
        let (workload, cap, c) = (workloads[li], &captures[li], &counters[li]);
        let start = if checkpointed {
            ReplayStart::Checkpoint(&cap.checkpoints)
        } else {
            ReplayStart::Reset { workload, stim_seed: stim_seeds[li] }
        };
        let reference = if dme {
            Reference::RetireStream { cycles: cap.run.cycles, stream: &cap.retires }
        } else {
            Reference::Recorded(&cap.trace)
        };
        let Injection { outcome, trace, cost } =
            run_injection::<C>(start, reference, fault, window, trace_window);
        c.replayed_cycles.fetch_add(cost.replayed_cycles, Ordering::Relaxed);
        c.skipped_cycles.fetch_add(cost.skipped_cycles, Ordering::Relaxed);
        if checkpointed {
            c.hit_distance_sum.fetch_add(cost.hit_distance, Ordering::Relaxed);
            c.hit_distance_max.fetch_max(cost.hit_distance, Ordering::Relaxed);
            // A fault past the golden runtime never restores a snapshot:
            // no hit to report.
            if let Some(events) = config.events.as_ref().filter(|_| fault.cycle < cap.run.cycles) {
                events.emit(&Event::CheckpointHit {
                    workload: workload.name.to_owned(),
                    inject_cycle: fault.cycle,
                    checkpoint_cycle: cost.checkpoint_cycle,
                    hit_distance: cost.hit_distance,
                });
            }
        }
        (outcome, trace)
    };

    let next = AtomicUsize::new(0);
    let sink = Mutex::new((Vec::new(), BatchCost::default()));
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| {
                let mut produced = Vec::new();
                let mut batch_cost = BatchCost::default();
                while let Some((li, item)) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let li = *li;
                    let (workload, cap, c) = (workloads[li], &captures[li], &counters[li]);
                    let t0 = Instant::now();
                    let results = match batch {
                        Some(layers) => {
                            let faults: Vec<Fault> = item.iter().map(|&(_, f)| f).collect();
                            let (outcomes, cost) = run_batch_group::<C>(
                                &cap.checkpoints,
                                cap.run.cycles,
                                dme.then_some(cap.retires.as_slice()),
                                &faults,
                                window,
                                layers,
                            );
                            c.replayed_cycles.fetch_add(cost.replayed_cycles, Ordering::Relaxed);
                            c.skipped_cycles.fetch_add(cost.skipped_cycles, Ordering::Relaxed);
                            batch_cost = total_cost([batch_cost, cost]);
                            outcomes.into_iter().map(|outcome| (outcome, None)).collect::<Vec<_>>()
                        }
                        None => item.iter().map(|&(_, fault)| replay(li, fault)).collect(),
                    };
                    c.wall_nanos.fetch_add(elapsed_nanos(t0), Ordering::Relaxed);
                    for (&(position, fault), (outcome, trace)) in item.iter().zip(results) {
                        if let Some(events) = &config.events {
                            events.emit(&Event::Inject {
                                workload: workload.name.to_owned(),
                                unit: fault.unit_for::<C>().name().to_owned(),
                                fault: fault.describe_for::<C>(),
                                cycle: fault.cycle,
                            });
                            match outcome {
                                Some((detect_cycle, dsr)) => events.emit(&Event::Detect {
                                    workload: workload.name.to_owned(),
                                    inject_cycle: fault.cycle,
                                    detect_cycle,
                                    dsr_bits: dsr.bits(),
                                }),
                                None => events.emit(&Event::Masked {
                                    workload: workload.name.to_owned(),
                                    inject_cycle: fault.cycle,
                                }),
                            }
                        }
                        if let Some((detect_cycle, dsr)) = outcome {
                            c.manifested.fetch_add(1, Ordering::Relaxed);
                            let record = ErrorRecord {
                                workload: workload.name.to_owned(),
                                unit_index: fault.unit_for::<C>().index() as u8,
                                fault: fault.kind.into(),
                                inject_cycle: fault.cycle,
                                detect_cycle,
                                dsr,
                            };
                            produced.push(Produced { li, position, record, trace });
                        }
                    }
                }
                let mut sink = sink.lock().expect("no poisoned workers");
                sink.0.extend(produced);
                sink.1 = total_cost([sink.1, batch_cost]);
            });
        }
    });
    sink.into_inner().expect("no poisoned workers")
}

fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where an injection replay starts: from reset with a freshly built
/// memory image, from the golden checkpoint nearest the fault, or from
/// a live faulty machine that has already run up to a cycle `at`.
pub enum ReplayStart<'a, S = CpuState> {
    /// Rebuild the workload's memory image and replay from cycle 0.
    Reset {
        /// The workload whose image to rebuild.
        workload: &'a Workload,
        /// Stimulus seed the golden run was captured with.
        stim_seed: u64,
    },
    /// Restore the checkpoint at or below the fault cycle.
    Checkpoint(&'a GoldenCheckpoints<S>),
    /// Continue a live faulty machine with cycle `at` already stepped:
    /// how the batched engine hands a lane over at its first port
    /// divergence (DESIGN.md §13). The replay compares cycle `at` first,
    /// then steps on from `at + 1`, so the outcome is the one a replay
    /// from the fault's checkpoint reaches, provided the machine's ports
    /// equalled golden's on every cycle from the strike up to `at`.
    /// Before `at` it then retired exactly golden's instructions, which
    /// puts a [`Reference::RetireStream`] cursor on golden's first
    /// retirement at or after `at`.
    Live {
        /// The machine's state after cycle `at`.
        state: &'a S,
        /// Its memory after cycle `at`. Borrowed: the caller keeps the
        /// image and may recycle it.
        mem: &'a mut Memory,
        /// The ports it drove on cycle `at`.
        ports: &'a PortSet,
        /// The cycle already stepped.
        at: u64,
    },
}

/// What [`run_injection`] compares the faulty copy against each
/// replayed cycle — the checker of one injection. All three drive the
/// same engine, so start resolution, fault overlay, detection and the
/// DSR capture window cannot drift between them.
#[derive(Debug, Clone, Copy)]
pub enum Reference<'a> {
    /// Golden's recorded ports (shadow replay): one CPU stepped per
    /// cycle, its 62 SC ports diffed against the recording. The replay
    /// domain is the golden run's length ([`Recording::cycles`]). The
    /// recording is the whole [`PortTrace`] of a golden pass, or the
    /// batched engine's window of its walker's latest port sets, which
    /// holds every cycle a waiting hand-over compares (DESIGN.md §13).
    Recorded(&'a dyn Recording),
    /// `cpus - 1` live fault-free golden twins restored beside the
    /// faulty CPU, each with its own memory clone (full lockstep replay,
    /// board-level Figure 1a, DMR at 2 CPUs and TMR at 3): the oracle
    /// the recorded reference is tested against fault by fault, at
    /// `cpus` CPU-cycles per replayed cycle. `cpus` must be at least 2.
    Twins {
        /// The golden run's length in cycles (the replay domain).
        cycles: u64,
        /// CPUs in the lockstep unit, the faulty one included.
        cpus: usize,
    },
    /// The golden retire stream of diverse-memory execution
    /// ([`crate::dme::retire_stream`]): the faulty copy's k-th
    /// retirement is checked against stream entry k, from the first
    /// compared cycle on (the strike, or a [`ReplayStart::Live`]
    /// hand-over's `at`), with the cursor on golden's first
    /// retirement at or after that cycle. Divergences that
    /// never reach the retire interface stay masked — DME observes
    /// architectural effects only, the coverage it trades for
    /// tolerating address-space diversity. The faulty copy steps over
    /// the restored image unshifted: over clean codewords the DME shift
    /// only renames RAM words, so it cannot change what the core sees
    /// (the relabelling lemma, DESIGN.md §13).
    RetireStream {
        /// The golden run's length in cycles (the replay domain).
        cycles: u64,
        /// `(cycle, effect)` per golden retirement, in order.
        stream: &'a [(u64, Retired)],
    },
}

/// Golden's port sets as a [`Reference::Recorded`] replay reads them.
pub trait Recording: std::fmt::Debug {
    /// The golden run's length in cycles: the replay domain.
    fn cycles(&self) -> u64;
    /// Golden's ports of `cycle`.
    ///
    /// # Panics
    ///
    /// May panic if the recording does not hold `cycle`.
    fn ports(&self, cycle: u64) -> &PortSet;
}

/// The whole recorded trace of a golden pass.
impl Recording for PortTrace {
    fn cycles(&self) -> u64 {
        self.len()
    }

    fn ports(&self, cycle: u64) -> &PortSet {
        self.get(cycle).expect("cycle within golden trace")
    }
}

/// What one injection produced.
#[derive(Debug, Clone)]
pub struct Injection {
    /// `Some((detect cycle, DSR))` for a manifested error, `None` for a
    /// fault masked for the whole replay domain.
    pub outcome: Option<(u64, Dsr)>,
    /// The divergence trace of a manifested error when a trace window
    /// was requested; `None` otherwise.
    pub trace: Option<DivergenceTrace>,
    /// What the replay cost.
    pub cost: ReplayCost,
}

/// Replay-cost accounting for one injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCost {
    /// Cycle of the checkpoint the replay resumed from.
    pub checkpoint_cycle: u64,
    /// Cycles replayed between the checkpoint and the injection cycle.
    pub hit_distance: u64,
    /// CPU-cycles actually simulated for this injection (each golden
    /// twin of a full-lockstep replay counts its own cycles).
    pub replayed_cycles: u64,
    /// Cycles a from-reset replay would have simulated but this one
    /// did not.
    pub skipped_cycles: u64,
}

/// One injection experiment: replays `fault` from `start` against
/// `reference` until detection plus the `window`-cycle DSR capture
/// window (clamped to the replay domain), or the end of the domain.
///
/// After the first divergent cycle, per-SC divergences keep
/// accumulating for up to `window - 1` further cycles. A replay from
/// [`ReplayStart::Reset`] rebuilds the memory image and simulates every
/// cycle from 0; one from [`ReplayStart::Checkpoint`] restores the
/// nearest golden snapshot instead and is bit-identical (the
/// `checkpoint_equivalence` property test) at a cost proportional to
/// `hit distance + detection latency + capture window`. Pre-fault cycles
/// run without the overlay (it is the identity there) and without
/// comparison (an exactly restored core cannot diverge before the fault
/// lands); a fault striking past the domain is masked without a replay.
///
/// A [`ReplayStart::Live`] replay skips all of that: it compares the
/// cycle already stepped, then continues the machine it was handed, and
/// reports only the cycles it steps itself.
///
/// `trace_window: Some(pre)` attaches the divergence trace recorder: the
/// replay and outcome are unchanged, and a manifested error also yields
/// a [`DivergenceTrace`] of the last `pre` pre-detection samples plus
/// every capture-window sample. Each sample costs one core-state diff
/// (for the per-unit flip deltas), which is why tracing is opt-in.
///
/// # Panics
///
/// Panics if a [`Reference::Twins`] reference has fewer than two CPUs,
/// and if a [`ReplayStart::Live`] start comes with live twins (they
/// would need golden's state at the hand-over) or with a trace window
/// (the states before the hand-over are gone).
pub fn run_injection<C: CoreModel>(
    start: ReplayStart<'_, C::State>,
    reference: Reference<'_>,
    fault: Fault,
    window: u32,
    trace_window: Option<u32>,
) -> Injection {
    let live = matches!(start, ReplayStart::Live { .. });
    assert!(!(live && trace_window.is_some()), "a live start cannot be traced");
    match reference {
        Reference::Recorded(recording) => {
            let cycles = recording.cycles();
            run_observed::<C, _>(start, cycles, fault, window, trace_window, |_, _, _| {
                RecordedGolden { recording }
            })
        }
        Reference::Twins { cycles, cpus } => {
            assert!(cpus >= 2, "lockstep needs at least two CPUs");
            assert!(!live, "a live start cannot run against live twins");
            run_observed::<C, _>(start, cycles, fault, window, trace_window, |state, mem, _| {
                TwinGolden::<C>::from_parts(state, mem, cpus - 1)
            })
        }
        Reference::RetireStream { cycles, stream } => {
            run_observed::<C, _>(start, cycles, fault, window, trace_window, |_, _, first| {
                RetireGolden {
                    stream,
                    // Up to the first compared cycle the faulty copy's
                    // ports were golden's, so it retired exactly the
                    // golden entries below that cycle.
                    next: stream.partition_point(|(c, _)| *c < first),
                }
            })
        }
    }
}

/// Runs the engine with the trace recorder attached when `trace_window`
/// asks for it and the no-op observer otherwise.
fn run_observed<C: CoreModel, G: GoldenRef>(
    start: ReplayStart<'_, C::State>,
    domain: u64,
    fault: Fault,
    window: u32,
    trace_window: Option<u32>,
    make_golden: impl FnOnce(&C::State, &Memory, u64) -> G,
) -> Injection {
    match trace_window {
        None => {
            let (outcome, cost) = run_injection_engine::<C, G, _>(
                start,
                domain,
                fault,
                window,
                &mut NoObserver,
                make_golden,
            );
            Injection { outcome, trace: None, cost }
        }
        Some(pre_window) => {
            let mut observer = TraceObserver::<C>::new(pre_window);
            let (outcome, cost) = run_injection_engine::<C, G, _>(
                start,
                domain,
                fault,
                window,
                &mut observer,
                make_golden,
            );
            let trace = outcome.map(|(cycle, _)| observer.finish(cycle, window));
            Injection { outcome, trace, cost }
        }
    }
}

/// The golden reference an injection replay compares the faulty CPU
/// against each cycle. Monomorphized into the engine, so shadow replay
/// pays nothing for the abstraction.
trait GoldenRef {
    /// CPUs simulated per replayed cycle (1 shadow, N full lockstep).
    fn cpus_per_cycle(&self) -> u64;
    /// Advances the reference through one pre-fault cycle (no
    /// comparison needed: an exactly restored faulty core cannot
    /// diverge before the fault lands).
    fn advance(&mut self);
    /// Advances the reference through `cycle` and returns the faulty
    /// CPU's per-SC diff mask against it.
    fn diff_against(&mut self, cycle: u64, ports: &PortSet) -> u64;
}

/// Shadow replay's reference: golden's recorded ports.
struct RecordedGolden<'a> {
    recording: &'a dyn Recording,
}

impl GoldenRef for RecordedGolden<'_> {
    fn cpus_per_cycle(&self) -> u64 {
        1
    }

    fn advance(&mut self) {}

    fn diff_against(&mut self, cycle: u64, ports: &PortSet) -> u64 {
        ports.diff_mask(self.recording.ports(cycle))
    }
}

/// Full lockstep replay's reference: live fault-free golden-twin CPUs,
/// each driving its own clone of the checkpoint memory (board-level
/// lockstep, Figure 1a).
struct TwinGolden<C: CoreModel> {
    twins: Vec<(C, Memory)>,
}

impl<C: CoreModel> TwinGolden<C> {
    fn from_parts(state: &C::State, mem: &Memory, count: usize) -> TwinGolden<C> {
        TwinGolden {
            twins: (0..count).map(|_| (C::from_state(state.clone()), mem.clone())).collect(),
        }
    }
}

impl<C: CoreModel> GoldenRef for TwinGolden<C> {
    fn cpus_per_cycle(&self) -> u64 {
        1 + self.twins.len() as u64
    }

    fn advance(&mut self) {
        let mut ports = PortSet::new();
        for (cpu, mem) in &mut self.twins {
            cpu.step(mem, &mut ports);
        }
    }

    fn diff_against(&mut self, _cycle: u64, ports: &PortSet) -> u64 {
        // Every twin is fault-free, drives a private memory, and resumed
        // from the same snapshot, so all agree cycle-for-cycle
        // (debug-asserted): the MMR majority compare against the faulty
        // CPU degenerates to a pairwise diff with any one twin.
        let mut first = PortSet::new();
        let mut diff = 0u64;
        for (i, (cpu, mem)) in self.twins.iter_mut().enumerate() {
            let mut tp = PortSet::new();
            cpu.step(mem, &mut tp);
            if i == 0 {
                diff = ports.diff_mask(&tp);
                first = tp;
            } else {
                debug_assert_eq!(tp.diff_mask(&first), 0, "fault-free twins diverged");
            }
        }
        diff
    }
}

/// DME's reference: a cursor into the golden retire stream. The
/// fault-free prefix needs no reference at all — it is the golden run —
/// and each retirement of the faulty copy after the fault is checked
/// against the next golden entry; the first differing effect is the
/// detection, and further mismatch bits accumulate over the capture
/// window like port-diff DSR bits do.
struct RetireGolden<'a> {
    stream: &'a [(u64, Retired)],
    next: usize,
}

impl GoldenRef for RetireGolden<'_> {
    fn cpus_per_cycle(&self) -> u64 {
        1
    }

    fn advance(&mut self) {}

    fn diff_against(&mut self, _cycle: u64, ports: &PortSet) -> u64 {
        let Some(retired) = retired_of_ports(ports) else {
            return 0;
        };
        let diff = match self.stream.get(self.next) {
            Some((_, golden)) => retired_diff_mask(&retired, golden),
            // The faulty copy retired past the end of the golden stream.
            None => stream_skew_mask(),
        };
        self.next += 1;
        diff
    }
}

/// Hooks the injection engine calls as it steps the faulty CPU.
/// Monomorphized: an untraced replay instantiates [`NoObserver`] and
/// pays nothing for the abstraction.
trait ReplayObserver<C: CoreModel> {
    /// Called once with the faulty CPU as of the fault cycle, before
    /// the first compared step.
    fn begin(&mut self, cpu: &C);
    /// Called after every compared cycle `at` with its per-SC diff.
    fn observe(&mut self, at: u64, diff: u64, fault: Fault, cpu: &C);
}

/// The observer of a plain (untraced) replay: does nothing.
struct NoObserver;

impl<C: CoreModel> ReplayObserver<C> for NoObserver {
    fn begin(&mut self, _: &C) {}
    fn observe(&mut self, _: u64, _: u64, _: Fault, _: &C) {}
}

/// The divergence trace recorder as an engine observer: keeps the last
/// `pre_window` pre-detection samples in a ring, then every sample from
/// detection through the capture window. Recording starts at the fault
/// cycle — before it the overlay is the identity and an exactly
/// restored core cannot diverge, so there is nothing to observe.
struct TraceObserver<C: CoreModel> {
    ring: TraceRing,
    samples: Vec<TraceSample>,
    prev: C::State,
    detected: bool,
    pre_window: u32,
}

impl<C: CoreModel> TraceObserver<C> {
    fn new(pre_window: u32) -> TraceObserver<C> {
        TraceObserver {
            ring: TraceRing::new(pre_window as usize),
            samples: Vec::new(),
            prev: C::reset_state(0),
            detected: false,
            pre_window,
        }
    }

    fn finish(self, detect_cycle: u64, window: u32) -> DivergenceTrace {
        DivergenceTrace {
            record: 0, // renumbered by the campaign once the order is fixed
            pre_window: self.pre_window,
            capture_window: window,
            detect_cycle,
            samples: self.samples,
        }
    }
}

impl<C: CoreModel> ReplayObserver<C> for TraceObserver<C> {
    fn begin(&mut self, cpu: &C) {
        self.prev.clone_from(cpu.state());
    }

    fn observe(&mut self, at: u64, diff: u64, fault: Fault, cpu: &C) {
        let sample = TraceSample {
            cycle: at,
            diverged: diff,
            fault_active: fault_active(fault, at),
            unit_flips: flops::unit_flip_deltas_in(C::registry(), &self.prev, cpu.state()),
        };
        self.prev.clone_from(cpu.state());
        if self.detected {
            self.samples.push(sample);
        } else if diff != 0 {
            self.detected = true;
            self.samples = std::mem::replace(&mut self.ring, TraceRing::new(0)).into_samples();
            self.samples.push(sample);
        } else {
            self.ring.push(sample);
        }
    }
}

/// Whether `fault`'s overlay is non-identity at `cycle`: a transient
/// only on its strike cycle, a stuck-at from its strike cycle onwards.
fn fault_active(fault: Fault, cycle: u64) -> bool {
    match fault.kind {
        FaultKind::Transient => cycle == fault.cycle,
        FaultKind::StuckAt0 | FaultKind::StuckAt1 => cycle >= fault.cycle,
    }
}

/// The single scalar injection engine: resolve the start (reset,
/// nearest checkpoint, or a live hand-over), fast-forward fault-free to
/// the injection cycle, then overlay-step against the golden reference
/// until detection plus the capture window, or the end of the replay
/// `domain`. `make_golden` builds the reference from the start state,
/// its memory and the first compared cycle.
///
/// Pre-fault cycles are replayed without comparison for every
/// reference: the fault overlay is the identity before `fault.cycle`,
/// and a deterministic CPU resumed exactly (or reset over the same
/// memory image) cannot diverge from its own recording. A fault landing
/// after the benchmark halts is masked by construction and skips the
/// replay entirely. A live start has no pre-fault cycles: its first
/// compared cycle is the one it was handed over after.
fn run_injection_engine<C: CoreModel, G: GoldenRef, O: ReplayObserver<C>>(
    start: ReplayStart<'_, C::State>,
    domain: u64,
    fault: Fault,
    window: u32,
    observer: &mut O,
    make_golden: impl FnOnce(&C::State, &Memory, u64) -> G,
) -> (Option<(u64, Dsr)>, ReplayCost) {
    if fault.cycle >= domain {
        let cost = ReplayCost { skipped_cycles: domain, ..ReplayCost::default() };
        return (None, cost);
    }
    let resumed = |start_cycle: u64| ReplayCost {
        checkpoint_cycle: start_cycle,
        hit_distance: fault.cycle - start_cycle,
        replayed_cycles: 0,
        skipped_cycles: start_cycle,
    };
    let mut ports = PortSet::new();
    let mut owned = None;
    // The faulty copy, its memory, the cost so far, the next cycle to
    // step, and the cycle a live start has already stepped.
    let (mut cpu, mem, mut cost, mut cycle, stepped) = match start {
        ReplayStart::Reset { workload, stim_seed } => {
            (C::new(0), owned.insert(workload.memory(stim_seed)), resumed(0), 0, None)
        }
        ReplayStart::Checkpoint(checkpoints) => {
            let cp = checkpoints
                .nearest_at(fault.cycle)
                .expect("golden captures always include the cycle-0 checkpoint");
            let cpu = C::from_state(cp.cpu.clone());
            (cpu, owned.insert(cp.mem.clone()), resumed(cp.cycle), cp.cycle, None)
        }
        ReplayStart::Live { state, mem, ports: handed, at } => {
            ports = *handed;
            (C::from_state(state.clone()), mem, ReplayCost::default(), at + 1, Some(at))
        }
    };
    let mut golden = make_golden(cpu.state(), mem, stepped.unwrap_or(fault.cycle));
    let per_cycle = golden.cpus_per_cycle();

    while cycle < fault.cycle {
        cpu.step(mem, &mut ports);
        golden.advance();
        cycle += 1;
        cost.replayed_cycles += per_cycle;
    }

    observer.begin(&cpu);
    let handed_over = stepped.map(|at| {
        let diff = golden.diff_against(at, &ports);
        observer.observe(at, diff, fault, &cpu);
        (at, diff)
    });
    let (detect_cycle, mut dsr_bits) = match handed_over.filter(|&(_, diff)| diff != 0) {
        Some(detected) => detected,
        None => loop {
            if cycle >= domain {
                return (None, cost);
            }
            let at = cycle;
            cpu.step_with_overlay(mem, &mut ports, |st| fault.overlay_for::<C>(st, at));
            cost.replayed_cycles += per_cycle;
            cycle += 1;
            let diff = golden.diff_against(at, &ports);
            observer.observe(at, diff, fault, &cpu);
            if diff != 0 {
                break (at, diff);
            }
        },
    };
    for _ in 1..window {
        if cycle >= domain {
            break;
        }
        let at = cycle;
        cpu.step_with_overlay(mem, &mut ports, |st| fault.overlay_for::<C>(st, at));
        cost.replayed_cycles += per_cycle;
        cycle += 1;
        let diff = golden.diff_against(at, &ports);
        dsr_bits |= diff;
        observer.observe(at, diff, fault, &cpu);
    }
    (Some((detect_cycle, Dsr::from_bits(dsr_bits))), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_fault::FaultKind;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
            threads: 4,
            ..CampaignConfig::new(150, 2024)
        }
    }

    #[test]
    fn campaign_produces_manifested_errors() {
        let res = run_campaign(&tiny_config());
        assert_eq!(res.injected, 300);
        assert!(!res.records.is_empty(), "some faults must manifest");
        assert!(res.records.len() < res.injected, "some faults must be masked");
        for r in &res.records {
            assert!(r.detect_cycle >= r.inject_cycle);
            assert!(!r.dsr.is_empty());
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&tiny_config());
        let b = run_campaign(&tiny_config());
        assert_eq!(a.records, b.records);
        assert_eq!(a.injected_per_unit, b.injected_per_unit);
    }

    #[test]
    fn hard_faults_manifest_more_than_soft() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 400;
        let res = run_campaign(&cfg);
        let manifested = res.manifested_per_unit();
        let injected = &res.injected_per_unit;
        let (mut soft_m, mut soft_i, mut hard_m, mut hard_i) = (0u64, 0u64, 0u64, 0u64);
        for u in 0..13 {
            soft_m += manifested[u][0];
            hard_m += manifested[u][1];
            soft_i += injected[u][0];
            hard_i += injected[u][1];
        }
        let soft_rate = soft_m as f64 / soft_i.max(1) as f64;
        let hard_rate = hard_m as f64 / hard_i.max(1) as f64;
        // Paper: 40% hard vs 5% soft. Our mini-CPU's state is a far
        // larger fraction architecturally hot than the R5's (which has
        // big cold buffer structures), so soft rates sit higher; the
        // invariant that drives the phenomenon is hard >> soft.
        assert!(
            hard_rate > 1.4 * soft_rate,
            "hard {hard_rate:.3} must clearly exceed soft {soft_rate:.3} (paper: 40% vs 5%)"
        );
    }

    #[test]
    fn manifestation_rates_have_unit_count_entries() {
        let res = run_campaign(&tiny_config());
        assert_eq!(res.manifestation_rates(Granularity::Coarse).len(), 7);
        assert_eq!(res.manifestation_rates(Granularity::Fine).len(), 13);
        let rates = res.manifestation_rates(Granularity::Coarse);
        assert!(rates.iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn injection_agrees_with_live_harness() {
        // Cross-check: the golden-trace fast path and the live DMR
        // harness must detect the same fault at the same cycle.
        let w = Workload::find("rspeed").unwrap();
        let seed = 99;
        let trace = w.golden_trace(seed, 400_000);
        let flop = flops::all_flops().find(|f| flops::label_of(*f) == "PFU.pc.4").unwrap();
        let fault = Fault::new(flop, FaultKind::Transient, 500);

        // The first divergent cycle is bit-identical between the golden-
        // trace fast path and the live DMR harness. (Inside the capture
        // window the two models legitimately differ: the live redundant
        // CPU consumes the *faulted* main's bus responses, while the fast
        // path compares against the fault-free trace.)
        let from_reset = |window| {
            let start = ReplayStart::Reset { workload: w, stim_seed: seed };
            run_injection::<Cpu>(start, Reference::Recorded(&trace), fault, window, None)
                .outcome
                .expect("must manifest")
        };
        let fast = from_reset(1);
        let windowed = from_reset(8);
        assert_eq!(fast.0, windowed.0, "window must not change the detection cycle");
        assert_eq!(
            windowed.1.bits() & fast.1.bits(),
            fast.1.bits(),
            "windowed DSR accumulates on top of the first-cycle DSR"
        );

        let mut sys = lockstep_core::LockstepSystem::dmr(w.memory(seed));
        sys.set_capture_window(1);
        sys.inject(0, fault);
        match sys.run(400_000) {
            lockstep_core::LockstepEvent::ErrorDetected { dsr, cycle, .. } => {
                assert_eq!((cycle, dsr), fast, "fast path must match live lockstep");
            }
            other => panic!("live harness saw {other:?}"),
        }
    }

    #[test]
    fn restart_cycles_looked_up_per_workload() {
        let res = run_campaign(&tiny_config());
        assert!(res.restart_cycles("rspeed") > 1000);
        // Unknown workloads get the mean measured golden runtime, not a
        // magic constant.
        let mean = res.golden.iter().map(|(_, g)| g.cycles).sum::<u64>() / res.golden.len() as u64;
        assert_eq!(res.restart_cycles("missing"), mean);
    }

    #[test]
    fn stats_account_for_every_injection() {
        let res = run_campaign(&tiny_config());
        let s = &res.stats;
        assert_eq!(s.injected, 300);
        assert_eq!(s.manifested as usize, res.records.len());
        assert_eq!(s.injected, s.manifested + s.masked);
        assert_eq!(s.checkpoint_interval, DEFAULT_CHECKPOINT_INTERVAL);
        assert!(s.injections_per_sec > 0.0);
        assert!(s.wall_nanos >= s.injection_nanos);
        assert_eq!(s.per_workload.len(), 2);
        for w in &s.per_workload {
            assert_eq!(w.injected, 150);
            assert_eq!(w.injected, w.manifested + w.masked);
            assert!(w.checkpoint_count >= 1);
            assert!(w.checkpoint_bytes > 0);
            assert!(
                w.hit_distance_max
                    < DEFAULT_CHECKPOINT_INTERVAL + u64::from(DEFAULT_CAPTURE_WINDOW)
            );
            assert!(w.mean_hit_distance() <= w.hit_distance_max as f64);
            assert!(w.replayed_cycles > 0);
        }
        let manifested_sum: u64 = s.per_workload.iter().map(|w| w.manifested).sum();
        assert_eq!(manifested_sum, s.manifested);
    }

    #[test]
    fn tracing_preserves_records_and_reproduces_the_dsr() {
        let mut plain = tiny_config();
        plain.faults_per_workload = 60;
        let mut traced = plain.clone();
        traced.trace_window = Some(32);
        let a = run_campaign(&plain);
        let b = run_campaign(&traced);
        assert_eq!(a.records, b.records, "tracing must not perturb campaign results");
        assert!(a.traces.is_empty(), "untraced campaigns carry no trace blobs");
        assert_eq!(b.traces.len(), b.records.len(), "one trace slot per record");
        assert!(!b.records.is_empty(), "fixture must manifest errors");
        for (i, (r, t)) in b.records.iter().zip(&b.traces).enumerate() {
            let t = t.as_ref().expect("checkpointed tracing records every manifestation");
            assert_eq!(t.record, i as u64, "trace must be renumbered to its record");
            assert_eq!(t.detect_cycle, r.detect_cycle);
            assert_eq!(t.pre_window, 32);
            assert_eq!(t.capture_window, DEFAULT_CAPTURE_WINDOW);
            assert_eq!(
                t.final_dsr_bits(),
                r.dsr.bits(),
                "per-cycle DSR evolution must end in the record's DSR"
            );
            assert!(t.samples.iter().all(|s| s.cycle >= r.inject_cycle));
            assert!(t.capture_phase().count() <= DEFAULT_CAPTURE_WINDOW as usize);
            assert!(t.pre_detection().count() <= 32);
            // The detection-cycle sample must exist and diverge.
            let det = t.samples.iter().find(|s| s.cycle == r.detect_cycle).unwrap();
            assert_ne!(det.diverged, 0);
        }
    }

    #[test]
    fn campaign_emits_structured_events() {
        use lockstep_obs::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 40;
        cfg.events = Some(sink.clone());
        let res = run_campaign(&cfg);
        let events = sink.take();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("golden_pass"), 2, "one golden pass per workload");
        assert_eq!(count("inject"), res.injected);
        assert_eq!(count("detect"), res.records.len());
        assert_eq!(count("masked"), res.injected - res.records.len());
        assert_eq!(count("span"), 2, "golden_capture and injection phases");
        assert!(count("checkpoint_hit") <= res.injected);
        assert!(count("checkpoint_hit") > 0);
        for e in &events {
            if let Event::CheckpointHit { inject_cycle, checkpoint_cycle, hit_distance, .. } = e {
                assert_eq!(inject_cycle - checkpoint_cycle, *hit_distance);
                assert!(*hit_distance < DEFAULT_CHECKPOINT_INTERVAL);
            }
        }
    }

    #[test]
    fn restart_fallback_goes_through_the_event_log() {
        use lockstep_obs::MemorySink;

        let sink = Arc::new(MemorySink::new());
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 10;
        cfg.events = Some(sink.clone());
        let res = run_campaign(&cfg);
        sink.take(); // discard campaign events; watch only the query below
        let mean = res.restart_cycles("missing");
        let events = sink.take();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::RestartFallback { workload, mean_cycles } => {
                assert_eq!(workload, "missing");
                assert_eq!(*mean_cycles, mean);
            }
            other => panic!("expected restart_fallback, got {other:?}"),
        }
        // Known workloads emit nothing.
        res.restart_cycles("rspeed");
        assert!(sink.take().is_empty());
    }

    #[test]
    fn batch_mode_reproduces_scalar_outcomes() {
        let scalar = run_campaign(&tiny_config());
        for layers in
            [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL]
        {
            let mut cfg = tiny_config();
            cfg.batch = Some(layers);
            let batched = run_campaign(&cfg);
            assert_eq!(scalar.records, batched.records, "`{}` records differ", layers.label());
            assert_eq!(scalar.injected_per_unit, batched.injected_per_unit);
            assert_eq!(batched.stats.batch_mode, layers.label());
        }
    }

    #[test]
    fn batch_counters_surface_the_savings() {
        let mut cfg = tiny_config();
        cfg.batch = Some(BatchConfig::FULL);
        let res = run_campaign(&cfg);
        let s = &res.stats;
        assert_eq!(s.batch_mode, "full");
        assert!(
            s.masked_early_out + s.parked_masked > 0,
            "a tiny campaign must retire some fault early"
        );
        assert!(s.lane_activations > 0, "manifesting faults need scalar lanes");
        assert!(s.render().contains("batch mode full"));
        // Scalar campaigns report no batch activity at all.
        let scalar = run_campaign(&tiny_config());
        assert_eq!(scalar.stats.batch_mode, "off");
        assert_eq!(scalar.stats.masked_early_out, 0);
        assert_eq!(scalar.stats.lane_activations, 0);
        assert!(!scalar.stats.render().contains("batch mode"));
    }

    #[test]
    fn tracing_downgrades_batch_to_scalar() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 60;
        cfg.batch = Some(BatchConfig::FULL);
        cfg.trace_window = Some(32);
        assert_eq!(cfg.effective_batch(), None);
        let res = run_campaign(&cfg);
        assert_eq!(res.stats.batch_mode, "off");
        assert_eq!(res.traces.len(), res.records.len(), "tracing must still work");

        // A window the campaign cannot record, under DME or without
        // checkpoints, records no traces and keeps the batched engine.
        for (redundancy, checkpoint_interval) in
            [(RedundancyMode::Dme, cfg.checkpoint_interval), (RedundancyMode::Fixed, None)]
        {
            let moot = CampaignConfig { redundancy, checkpoint_interval, ..cfg.clone() };
            assert!(!moot.records_traces(), "{redundancy:?}, {checkpoint_interval:?}");
            let res = run_campaign(&moot);
            assert_eq!(res.stats.batch_mode, "full", "{redundancy:?}, {checkpoint_interval:?}");
            assert!(res.traces.is_empty(), "{redundancy:?}, {checkpoint_interval:?}");
        }
    }

    #[test]
    fn batched_dme_reports_no_checkpoint_hits() {
        use lockstep_obs::MemorySink;

        // A batched phase reports no per-fault checkpoint hits, DME's
        // hand-overs of port-divergent lanes included.
        let sink = Arc::new(MemorySink::new());
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 40;
        cfg.redundancy = RedundancyMode::Dme;
        cfg.batch = Some(BatchConfig::FULL);
        cfg.events = Some(sink.clone());
        let res = run_campaign(&cfg);
        assert_eq!(res.stats.batch_mode, "full");
        assert!(!res.records.is_empty(), "handed-over lanes must manifest");
        for w in &res.stats.per_workload {
            assert_eq!((w.hit_distance_sum, w.hit_distance_max), (0, 0), "{}", w.workload);
        }
        assert!(sink.take().iter().all(|e| e.kind() != "checkpoint_hit"));
    }

    #[test]
    fn dme_mode_is_deterministic_and_architectural() {
        use lockstep_cpu::retire_effect_mask;

        let mut cfg = tiny_config();
        cfg.faults_per_workload = 60;
        cfg.redundancy = RedundancyMode::Dme;
        let a = run_campaign(&cfg);
        assert!(!a.records.is_empty(), "some faults must reach the retire interface");
        for r in &a.records {
            assert!(r.detect_cycle >= r.inject_cycle);
            assert_eq!(
                r.dsr.bits() & !retire_effect_mask(),
                0,
                "DME DSRs live entirely in the retire-effect SC subset"
            );
        }
        assert_eq!(a.stats.redundancy, "dme");
        // Pure per-fault outcomes: thread count cannot perturb records.
        let mut serial = cfg.clone();
        serial.threads = 1;
        let b = run_campaign(&serial);
        assert_eq!(a.records, b.records);

        // DME observes only architectural (retired) effects, so it can
        // only ever detect a subset of what the per-cycle port compare
        // sees — never more, and never earlier.
        let mut port_cfg = cfg.clone();
        port_cfg.redundancy = RedundancyMode::Fixed;
        let ports = run_campaign(&port_cfg);
        assert!(a.records.len() <= ports.records.len());
        for r in &a.records {
            let twin = ports
                .records
                .iter()
                .find(|p| p.workload == r.workload && p.inject_cycle == r.inject_cycle)
                .expect("every DME detection manifests under port compare too");
            assert!(r.detect_cycle >= twin.detect_cycle);
        }
    }

    #[test]
    fn dme_mode_survives_checkpointing_off() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 30;
        cfg.redundancy = RedundancyMode::Dme;
        let on = run_campaign(&cfg);
        cfg.checkpoint_interval = None;
        let off = run_campaign(&cfg);
        assert_eq!(on.records, off.records, "checkpointing is a cost knob in DME mode too");
    }

    #[test]
    fn batch_mode_downgrade_is_announced() {
        use lockstep_obs::MemorySink;

        use crate::shard::{plan_shards, run_shard};

        // Tracing forces the scalar engine; each campaign or shard that
        // falls back says so once, on the campaign log.
        let downgrades = |cfg: &mut CampaignConfig, shards: Option<usize>| {
            let sink = Arc::new(MemorySink::new());
            cfg.events = Some(sink.clone());
            match shards {
                None => {
                    run_campaign(cfg);
                }
                Some(n) => {
                    for spec in plan_shards(cfg, n) {
                        run_shard(cfg, &spec);
                    }
                }
            }
            sink.take()
                .into_iter()
                .filter(|e| e.kind() == "batch_mode_downgraded")
                .collect::<Vec<Event>>()
        };
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 10;
        cfg.batch = Some(BatchConfig::FULL);
        cfg.trace_window = Some(32);
        match &downgrades(&mut cfg, None)[..] {
            [Event::BatchModeDowngraded { requested, effective, trace_window }] => {
                assert_eq!(requested, "full");
                assert_eq!(effective, "off");
                assert_eq!(*trace_window, 32);
            }
            other => panic!("expected exactly one downgrade event, got {other:?}"),
        }
        assert_eq!(downgrades(&mut cfg, Some(3)).len(), 3, "one event per shard");

        // A batched campaign without tracing, and a traced scalar one,
        // are not downgraded and say nothing.
        let mut batched = tiny_config();
        batched.faults_per_workload = 10;
        batched.batch = Some(BatchConfig::FULL);
        assert!(downgrades(&mut batched, None).is_empty(), "no event without a downgrade");
        let mut traced = tiny_config();
        traced.faults_per_workload = 10;
        traced.trace_window = Some(32);
        assert!(downgrades(&mut traced, None).is_empty(), "no event without a batch request");
    }

    /// The batched queue cuts each workload's strike-ordered faults into
    /// `ceil(threads / workloads)` runs of whole checkpoint groups that
    /// weigh about the same, a fault weighing the golden cycles left
    /// after its strike; the scalar queue keeps one fault per item, in
    /// plan order.
    #[test]
    fn work_items_cut_strike_ordered_runs_at_checkpoint_groups() {
        let mut cfg = tiny_config();
        cfg.faults_per_workload = 200;
        cfg.checkpoint_interval = Some(512);
        let seeds = [cfg.seed, cfg.seed ^ 1 << 32];
        let (captures, _) = run_golden_phase::<Cpu>(&cfg, &cfg.workloads, &seeds);
        let slices = queue_slices::<Cpu>(&cfg, 0..2, &(0..400), &captures);
        let restores =
            |li: usize, f: Fault| captures[li].checkpoints.nearest_at(f.cycle).unwrap().cycle;
        for (threads, runs) in [(1, 1), (2, 1), (3, 2), (5, 3), (8, 4)] {
            let items = work_items(&captures, slices.clone(), true, threads);
            for (li, slice) in slices.iter().enumerate() {
                let mine: Vec<&[(usize, Fault)]> =
                    items.iter().filter(|(l, _)| *l == li).map(|(_, run)| run.as_slice()).collect();
                assert_eq!(mine.len(), runs, "workload {li} at {threads} threads");
                let cycles = captures[li].run.cycles;
                let weight = |run: &[(usize, Fault)]| -> u64 {
                    run.iter().map(|(_, f)| cycles.saturating_sub(f.cycle).max(1)).sum()
                };
                let heaviest_group = mine
                    .iter()
                    .flat_map(|run| run.chunk_by(|a, b| restores(li, a.1) == restores(li, b.1)))
                    .map(weight)
                    .max()
                    .unwrap();
                for run in &mine {
                    let share = weight(slice) / runs as u64;
                    assert!(weight(run).abs_diff(share) <= heaviest_group, "unbalanced runs");
                }
                for pair in mine.windows(2) {
                    let (last, first) = (pair[0].last().unwrap().1, pair[1][0].1);
                    assert!(restores(li, last) < restores(li, first), "a cut split a group");
                }
                let flat: Vec<(usize, Fault)> = mine.concat();
                assert!(
                    flat.windows(2).all(|w| (w[0].1.cycle, w[0].0) < (w[1].1.cycle, w[1].0)),
                    "runs leave strike order, ties in plan order"
                );
                let mut sorted = flat.clone();
                sorted.sort_by_key(|&(pos, _)| pos);
                assert_eq!(&sorted, slice, "every fault exactly once");
            }
        }
        let scalar = work_items(&captures, slices.clone(), false, 4);
        let one_each: Vec<WorkItem> =
            (0..2).flat_map(|li| slices[li].iter().map(move |&fault| (li, vec![fault]))).collect();
        assert_eq!(scalar, one_each, "the scalar engine runs one fault per item");
    }

    /// On one thread each workload is one run, so its walker steps each
    /// golden cycle at most once, even with faults parked to the end of
    /// the trace — on LR5 under both comparators and on LR7.
    #[test]
    fn walkers_step_at_most_the_golden_cycles() {
        fn walked<C: CoreBatch>(name: &str, redundancy: RedundancyMode) -> (u64, u64) {
            let cfg = CampaignConfig {
                workloads: vec![Workload::find(name).unwrap()],
                threads: 1,
                batch: Some(BatchConfig::FULL),
                redundancy,
                ..CampaignConfig::new(100, 2024)
            };
            let seeds = [cfg.seed];
            let (captures, _) = run_golden_phase::<C>(&cfg, &cfg.workloads, &seeds);
            let slices = queue_slices::<C>(&cfg, 0..1, &(0..100), &captures);
            let items = work_items(&captures, slices, true, cfg.threads);
            let counters = [WorkCounters::default()];
            let (_, cost) = run_injection_phase::<C>(
                &cfg,
                &cfg.workloads,
                &captures,
                &seeds,
                &items,
                &counters,
            );
            (cost.walker_cycles, captures[0].run.cycles)
        }
        for name in ["canrdr", "pntrch"] {
            for (label, (walker, golden)) in [
                ("lr5 fixed", walked::<Cpu>(name, RedundancyMode::Fixed)),
                ("lr5 dme", walked::<Cpu>(name, RedundancyMode::Dme)),
                ("lr7 fixed", walked::<Lr7>(name, RedundancyMode::Fixed)),
            ] {
                assert!(walker > 0, "{label} {name}: the walker never stepped");
                assert!(walker <= golden, "{label} {name}: walker stepped {walker} of {golden}");
            }
        }
    }

    #[test]
    fn disabling_checkpoints_changes_cost_not_results() {
        let mut off = tiny_config();
        off.faults_per_workload = 40;
        off.checkpoint_interval = None;
        let mut on = off.clone();
        on.checkpoint_interval = Some(512);
        let res_off = run_campaign(&off);
        let res_on = run_campaign(&on);
        assert_eq!(res_off.records, res_on.records);
        assert_eq!(res_off.stats.checkpoint_interval, 0);
        assert_eq!(res_on.stats.checkpoint_interval, 512);
        assert!(res_off.stats.per_workload.iter().all(|w| w.checkpoint_count == 0));
        // The checkpointed run skips the pre-fault prefix.
        let skipped: u64 = res_on.stats.per_workload.iter().map(|w| w.skipped_cycles).sum();
        assert!(skipped > 0, "checkpointing must skip replay work");
    }

    /// The golden pass of a batched campaign records no port trace, yet
    /// gives the run and the checkpoints, state and memory, that the full
    /// capture gives, and under DME the retire stream of the full
    /// capture's trace. The batched engine's walker, stepped from each
    /// checkpoint to the next, re-emits the trace's port sets and reaches
    /// the next checkpoint's state, memory words and outputs. On every suite kernel plus
    /// the trap and counter exercisers and two compiled kernels, on both
    /// cores.
    #[test]
    fn the_record_only_golden_pass_matches_the_full_capture() {
        record_only_pass::<Cpu>();
        record_only_pass::<Lr7>();
    }

    fn record_only_pass<C: CoreBatch>() {
        let extra = ["trapex", "ctrex", "lc_matmul", "lc_quicksort"]
            .map(|name| Workload::find(name).expect("a shipped kernel"));
        for w in Workload::all().iter().chain(extra) {
            let full = w.golden_capture_for::<C>(7, 400_000, 1024);
            let pass = Golden::capture::<C>(w, 7, 1024, false, true);
            let at = format!("{} {}", C::NAME, w.name);
            assert_eq!(pass.run, full.run, "{at}: the run");
            assert!(pass.trace.is_empty(), "{at}: a trace was recorded");
            assert_eq!(pass.retires, crate::dme::retire_stream(&full.trace), "{at}: retires");
            let (points, full_points) = (&pass.checkpoints.points, &full.checkpoints.points);
            assert_eq!(pass.checkpoints.interval, full.checkpoints.interval, "{at}");
            assert_eq!(points.len(), full_points.len(), "{at}: checkpoint count");
            for (p, q) in points.iter().zip(full_points) {
                assert_eq!(p.cycle, q.cycle, "{at}");
                assert!(p.cpu == q.cpu && p.mem == q.mem, "{at}: checkpoint {}", p.cycle);
            }
            for (i, p) in points.iter().enumerate() {
                let end = points.get(i + 1).map_or(full.run.cycles, |q| q.cycle);
                let mut walker = crate::batch::Walker::<C>::resume(p);
                for cycle in p.cycle..end {
                    walker.step();
                    let golden = full.trace.get(cycle).expect("a traced cycle");
                    assert_eq!(&walker.ports, golden, "{at}: the walker's ports of {cycle}");
                    walker.commit();
                }
                // The walker's image skips the ECC read counters, which
                // no core reads; its words and outputs are golden's.
                if let Some(next) = points.get(i + 1) {
                    let (a, b) = (&walker.mem, &next.mem);
                    let mut words = (0..a.ram_bytes() as u32).step_by(4);
                    assert!(walker.cpu.state() == &next.cpu, "{at}: state at {}", next.cycle);
                    assert!(
                        words.all(|x| a.ram().peek_word(x) == b.ram().peek_word(x))
                            && a.output_log() == b.output_log()
                            && a.output_checksum() == b.output_checksum(),
                        "{at}: memory at {}",
                        next.cycle
                    );
                }
            }
        }
    }
}
