//! Resumable campaign shards with merge-on-read archives (archive v7).
//!
//! A campaign's flat work queue — `workloads.len() × faults_per_workload`
//! injections, workload-major — can be cut into contiguous **shards** and
//! each shard run independently, on different threads, processes, or
//! machines, producing one [`CampaignArchive`] per shard. Because every
//! injection outcome is a pure function of `(workload capture, fault,
//! replay knobs)` and both the stimulus seed (`seed ^ wi << 32`) and the
//! fault-plan seed (`seed + wi`) are derived from the **global** workload
//! index, a shard reproduces exactly the fault subset and golden state
//! the full campaign would have given those queue positions — a
//! single-shot campaign is the same runner over the one slice covering
//! the whole queue, and a shard adds only its provenance. Merging the
//! shard archives back with [`merge_shard_archives`] therefore yields an
//! archive byte-identical (stats aside) to the single-shot
//! [`run_campaign`](crate::campaign::run_campaign) archive — the
//! property `tests/shard_resume.rs` pins across shard cuts, thread
//! counts, and batch modes.
//!
//! This is the substrate of the `lockstep-serve` campaign service: jobs
//! are split with [`plan_shards`], shards are leased to workers and
//! retried on timeout, completed shards persist as archives, and a
//! restarted server resumes from whatever shard files survived — the
//! merge is pure, so partial progress is never wasted.

use std::collections::BTreeMap;

use lockstep_core::{ErrorRecord, RedundancyMode};
use lockstep_cpu::{CoreKind, Cpu, Lr7};
use lockstep_obs::DivergenceTrace;
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

use crate::archive::{
    fuzz_provenance_from_names, lc_provenance_from_names, CampaignArchive, GoldenRunRepr,
    ARCHIVE_VERSION,
};
use crate::batch::{BatchConfig, CoreBatch};
use crate::campaign::{record_key, run_queue_slice, CampaignConfig, CampaignStats, WorkloadStats};
use crate::spec::current_label;

/// One contiguous slice `[fault_lo, fault_hi)` of a campaign's global
/// fault queue, to be run by [`run_shard`].
///
/// Queue position `i` maps to fault `i % faults_per_workload` of
/// workload `i / faults_per_workload` — workload-major, the same layout
/// the single-shot engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Shard index within the job, `0..count`.
    pub index: u32,
    /// Total shards the job was split into.
    pub count: u32,
    /// First global queue position covered (inclusive).
    pub fault_lo: u64,
    /// One past the last global queue position covered (exclusive).
    pub fault_hi: u64,
}

/// Splits a campaign into `shard_count` near-equal contiguous shards.
///
/// The actual shard count is `min(shard_count, total faults)` — a shard
/// always covers at least one injection. Concatenating the returned
/// ranges in order reproduces `[0, total)` exactly.
///
/// # Panics
///
/// Panics if `shard_count` is zero, the config has no workloads, or
/// `faults_per_workload` is zero (an empty queue cannot be sharded).
pub fn plan_shards(config: &CampaignConfig, shard_count: usize) -> Vec<ShardSpec> {
    assert!(shard_count >= 1, "shard_count must be at least 1");
    assert!(!config.workloads.is_empty(), "campaign has no workloads");
    assert!(config.faults_per_workload >= 1, "faults_per_workload must be at least 1");
    let total = config.workloads.len() as u64 * config.faults_per_workload as u64;
    let count = (shard_count as u64).min(total);
    let base = total / count;
    let extra = total % count;
    let mut specs = Vec::with_capacity(count as usize);
    let mut lo = 0u64;
    for index in 0..count {
        let len = base + u64::from(index < extra);
        specs.push(ShardSpec {
            index: index as u32,
            count: count as u32,
            fault_lo: lo,
            fault_hi: lo + len,
        });
        lo += len;
    }
    specs
}

/// Shard provenance stored in a v7 archive: the shard's queue range plus
/// a fingerprint of every campaign parameter that shapes the records,
/// so [`merge_shard_archives`] can refuse to mix shards of different
/// jobs.
///
/// Merged and single-shot archives carry no `ShardRepr` (the field is
/// `None`): its presence marks a *partial* archive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardRepr {
    /// Shard index within the job, `0..count`.
    pub index: u32,
    /// Total shards the job was split into.
    pub count: u32,
    /// First global queue position covered (inclusive).
    pub fault_lo: u64,
    /// One past the last global queue position covered (exclusive).
    pub fault_hi: u64,
    /// Full campaign workload list, in campaign order (not just the
    /// workloads this shard touched — the merge needs the global order).
    pub workloads: Vec<String>,
    /// Fault injections per workload.
    pub faults_per_workload: u64,
    /// Master campaign seed (stimulus and fault sampling).
    pub seed: u64,
    /// DSR capture window in cycles.
    pub capture_window: u32,
    /// Golden checkpoint spacing in cycles, 0 when checkpointing is off.
    pub checkpoint_interval: u64,
    /// Divergence-trace pre-window in cycles, 0 when tracing is off.
    pub trace_window: u64,
    /// Core model label (`"lr5"` / `"lr7"`) — shards of one job must
    /// have replayed on the same core.
    pub core: String,
    /// Redundancy mode label (`"fixed"` / `"dme"`) — shards of one job
    /// must have compared the copies the same way.
    pub redundancy: String,
    /// Effective batch mode label (`"off"` / `"full"`, or an ablation
    /// layer set).
    /// Provenance only: the batch mode never changes a record, so shards
    /// of one job may differ in it (LR7 shards written before every core
    /// ran every layer say `"fanout"` whatever was requested).
    pub batch_mode: String,
}

/// Reads every provenance version back to v7. Shards written before
/// v11 also carry a `replay_mode` label, which is ignored (both replay
/// modes gave identical records), and may name the retired `dynamic`
/// redundancy label, which reads as `fixed` (it ran the fixed engine),
/// so an older server's shards merge with new ones.
impl Deserialize for ShardRepr {
    fn deserialize(value: &Value) -> Result<ShardRepr, JsonError> {
        Ok(ShardRepr {
            index: Deserialize::deserialize(value.field("index")?)?,
            count: Deserialize::deserialize(value.field("count")?)?,
            fault_lo: Deserialize::deserialize(value.field("fault_lo")?)?,
            fault_hi: Deserialize::deserialize(value.field("fault_hi")?)?,
            workloads: Deserialize::deserialize(value.field("workloads")?)?,
            faults_per_workload: Deserialize::deserialize(value.field("faults_per_workload")?)?,
            seed: Deserialize::deserialize(value.field("seed")?)?,
            capture_window: Deserialize::deserialize(value.field("capture_window")?)?,
            checkpoint_interval: Deserialize::deserialize(value.field("checkpoint_interval")?)?,
            trace_window: Deserialize::deserialize(value.field("trace_window")?)?,
            // Shards that predate the core-model axis ran on the only
            // core that existed, the in-order LR5.
            core: match value.field("core") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => CoreKind::Lr5.label().to_owned(),
            },
            // Shards that predate the redundancy axis could only have
            // run fixed identical lockstep.
            redundancy: match value.field("redundancy") {
                Ok(v) => current_label("redundancy", Deserialize::deserialize(v)?),
                Err(_) => RedundancyMode::Fixed.label().to_owned(),
            },
            batch_mode: Deserialize::deserialize(value.field("batch_mode")?)?,
        })
    }
}

impl ShardRepr {
    /// Captures the provenance of running `spec` under `config`.
    pub fn new(config: &CampaignConfig, spec: &ShardSpec) -> ShardRepr {
        ShardRepr {
            index: spec.index,
            count: spec.count,
            fault_lo: spec.fault_lo,
            fault_hi: spec.fault_hi,
            workloads: config.workloads.iter().map(|w| w.name.to_owned()).collect(),
            faults_per_workload: config.faults_per_workload as u64,
            seed: config.seed,
            capture_window: config.capture_window,
            checkpoint_interval: config.checkpoint_interval.unwrap_or(0),
            trace_window: config.trace_window.map_or(0, u64::from),
            core: config.core.label().to_owned(),
            redundancy: config.redundancy.label().to_owned(),
            batch_mode: config.effective_batch().map_or("off", BatchConfig::label).to_owned(),
        }
    }

    /// `true` when `other` is a shard of the same job: every field but
    /// the shard's own identity (`index`, `fault_lo`, `fault_hi`) and
    /// its `batch_mode` matches. The batch engine is a throughput knob
    /// the equivalence suites prove record-neutral, so shards one
    /// engine wrote merge with shards another wrote — a job resumed
    /// after the engine it ran on changed still completes.
    pub fn same_job(&self, other: &ShardRepr) -> bool {
        self.count == other.count
            && self.workloads == other.workloads
            && self.faults_per_workload == other.faults_per_workload
            && self.seed == other.seed
            && self.capture_window == other.capture_window
            && self.checkpoint_interval == other.checkpoint_interval
            && self.trace_window == other.trace_window
            && self.core == other.core
            && self.redundancy == other.redundancy
    }

    /// `true` when the job recorded traces (trace blobs ride in the
    /// shard archives and must be merged): its
    /// [`CampaignConfig::records_traces`].
    fn tracing(&self) -> bool {
        let redundancy = RedundancyMode::from_flag(&self.redundancy).unwrap_or_default();
        CampaignConfig::traced(self.trace_window > 0, self.checkpoint_interval > 0, redundancy)
    }
}

/// Runs one shard of a campaign and returns its partial archive
/// (version [`ARCHIVE_VERSION`], `shard` set to the shard's
/// [`ShardRepr`]).
///
/// Only the workloads whose queue ranges intersect the shard are
/// golden-captured, but their stimulus and fault-plan seeds come from
/// their **global** workload indices, so the shard's records are
/// bit-identical to the corresponding slice of a single-shot campaign.
///
/// # Panics
///
/// Panics if `spec`'s range is empty or out of bounds for `config`, or
/// if `faults_per_workload` is zero.
pub fn run_shard(config: &CampaignConfig, spec: &ShardSpec) -> CampaignArchive {
    match config.core {
        CoreKind::Lr5 => run_shard_for::<Cpu>(config, spec),
        CoreKind::Lr7 => run_shard_for::<Lr7>(config, spec),
    }
}

/// [`run_shard`] monomorphized over a specific core model `C`, which
/// must agree with `config.core` (the shard provenance records the
/// config's label): the campaign runner over the shard's queue slice,
/// plus the provenance that marks the archive as partial.
pub fn run_shard_for<C: CoreBatch>(config: &CampaignConfig, spec: &ShardSpec) -> CampaignArchive {
    debug_assert_eq!(config.core.label(), C::NAME, "config.core must match the core type");
    assert!(config.faults_per_workload >= 1, "faults_per_workload must be at least 1");
    let fpw = config.faults_per_workload as u64;
    let total = config.workloads.len() as u64 * fpw;
    assert!(
        spec.fault_lo < spec.fault_hi && spec.fault_hi <= total,
        "shard range [{}, {}) out of bounds for {} queued faults",
        spec.fault_lo,
        spec.fault_hi,
        total
    );
    let covered = (spec.fault_lo / fpw) as usize..((spec.fault_hi - 1) / fpw) as usize + 1;
    let result = run_queue_slice::<C>(config, covered, spec.fault_lo..spec.fault_hi);
    let mut archive = CampaignArchive::from_result(&result);
    archive.shard = Some(ShardRepr::new(config, spec));
    archive
}

/// Why a set of shard archives refused to merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// No archives were given.
    Empty,
    /// Archive `i` carries no shard provenance (it is a single-shot or
    /// already-merged archive).
    NotAShard(usize),
    /// Archive `i`'s job fingerprint differs from the first archive's.
    JobMismatch(usize),
    /// The given shards are not exactly one full disjoint cover of the
    /// job's fault queue (missing, duplicated, or overlapping ranges).
    Coverage {
        /// Shards the job was split into.
        expected: u32,
        /// Archives actually given.
        got: usize,
    },
    /// Two shards disagree on a workload's golden run — they cannot be
    /// from the same deterministic campaign.
    GoldenMismatch(String),
    /// A record names a workload absent from the job's workload list,
    /// or a covered workload produced no golden entry.
    UnknownWorkload(String),
    /// Archive `i` ran with tracing on but its trace blobs do not align
    /// 1:1 with its records.
    TraceMisaligned(usize),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Empty => write!(f, "no shard archives to merge"),
            ShardError::NotAShard(i) => write!(f, "archive {i} has no shard provenance"),
            ShardError::JobMismatch(i) => {
                write!(f, "archive {i} belongs to a different job (fingerprint mismatch)")
            }
            ShardError::Coverage { expected, got } => write!(
                f,
                "shards do not cover the fault queue exactly once ({expected} expected, {got} given)"
            ),
            ShardError::GoldenMismatch(w) => {
                write!(f, "shards disagree on the golden run of workload `{w}`")
            }
            ShardError::UnknownWorkload(w) => {
                write!(f, "workload `{w}` is not part of the job")
            }
            ShardError::TraceMisaligned(i) => {
                write!(f, "archive {i} has trace blobs misaligned with its records")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Merges a complete set of shard archives into one archive equivalent
/// to the single-shot campaign's (`shard` cleared, records re-sorted
/// into canonical order, counters summed).
///
/// The input may be in any order. With `stats` zeroed the merged
/// archive serializes byte-identically to the uninterrupted
/// [`run_campaign`](crate::campaign::run_campaign) archive — the
/// equivalence `tests/shard_resume.rs` property-tests.
///
/// # Errors
///
/// Returns a [`ShardError`] when the set is empty, mixes jobs, fails to
/// cover the fault queue exactly once, or is internally inconsistent.
pub fn merge_shard_archives(shards: &[CampaignArchive]) -> Result<CampaignArchive, ShardError> {
    let job =
        shards.first().ok_or(ShardError::Empty)?.shard.as_ref().ok_or(ShardError::NotAShard(0))?;
    let mut reprs = Vec::with_capacity(shards.len());
    for (i, s) in shards.iter().enumerate() {
        let r = s.shard.as_ref().ok_or(ShardError::NotAShard(i))?;
        if !r.same_job(job) {
            return Err(ShardError::JobMismatch(i));
        }
        reprs.push(r);
    }

    // Exactly-once coverage: `count` distinct shard indices whose sorted
    // ranges tile `[0, total)` with no gap or overlap.
    let count = job.count as usize;
    let total = job.workloads.len() as u64 * job.faults_per_workload;
    let coverage = ShardError::Coverage { expected: job.count, got: shards.len() };
    if shards.len() != count {
        return Err(coverage);
    }
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| reprs[i].fault_lo);
    let mut seen = vec![false; count];
    let mut cursor = 0u64;
    for &i in &order {
        let r = reprs[i];
        if r.index as usize >= count || std::mem::replace(&mut seen[r.index as usize], true) {
            return Err(coverage);
        }
        if r.fault_lo != cursor || r.fault_hi <= r.fault_lo {
            return Err(coverage);
        }
        cursor = r.fault_hi;
    }
    if cursor != total {
        return Err(coverage);
    }

    // Golden data: shards sharing a workload captured the same golden
    // run (captures are a pure function of the global stimulus seed), so
    // any disagreement means the inputs are corrupt.
    let mut golden_by_name: BTreeMap<&str, GoldenRunRepr> = BTreeMap::new();
    for s in shards {
        for (name, g) in &s.golden {
            match golden_by_name.get(name.as_str()) {
                Some(prev) if prev != g => return Err(ShardError::GoldenMismatch(name.clone())),
                _ => {
                    golden_by_name.insert(name, *g);
                }
            }
        }
    }
    let golden: Vec<(String, GoldenRunRepr)> = job
        .workloads
        .iter()
        .map(|name| {
            golden_by_name
                .get(name.as_str())
                .map(|g| (name.clone(), *g))
                .ok_or_else(|| ShardError::UnknownWorkload(name.clone()))
        })
        .collect::<Result<_, _>>()?;

    // Records: every shard's records in queue order (`order` walks the
    // shards by `fault_lo`, and each shard's records are canonical with
    // ties in plan order), then a stable sort by workload and
    // `record_key`. Ties keep that arrival order, which is plan-position
    // order, so the merge reproduces the single-shot order whatever
    // order the archives were passed in.
    let windex: BTreeMap<&str, usize> =
        job.workloads.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
    let tracing = job.tracing();
    let mut merged: Vec<(usize, ErrorRecord, Option<DivergenceTrace>)> = Vec::new();
    for &i in &order {
        let s = &shards[i];
        if tracing && s.traces.len() != s.records.len() {
            return Err(ShardError::TraceMisaligned(i));
        }
        for (j, r) in s.records.iter().enumerate() {
            let wi = *windex
                .get(r.workload.as_str())
                .ok_or_else(|| ShardError::UnknownWorkload(r.workload.clone()))?;
            let trace = if tracing { s.traces[j].clone() } else { None };
            merged.push((wi, r.clone(), trace));
        }
    }
    merged.sort_by_key(|(wi, r, _)| (*wi, record_key(r)));
    let (records, mut traces): (Vec<ErrorRecord>, Vec<Option<DivergenceTrace>>) =
        merged.into_iter().map(|(_, r, t)| (r, t)).unzip();
    if !tracing {
        traces.clear();
    }
    for (i, trace) in traces.iter_mut().enumerate() {
        if let Some(t) = trace {
            t.record = i as u64;
        }
    }

    let mut injected_per_unit = vec![[0u64; 2]; 13];
    for s in shards {
        for (unit, counts) in s.injected_per_unit.iter().enumerate().take(13) {
            injected_per_unit[unit][0] += counts[0];
            injected_per_unit[unit][1] += counts[1];
        }
    }

    let per_workload: Vec<WorkloadStats> = job
        .workloads
        .iter()
        .map(|name| {
            let parts: Vec<&WorkloadStats> = shards
                .iter()
                .flat_map(|s| s.stats.per_workload.iter())
                .filter(|w| &w.workload == name)
                .collect();
            merge_workload_stats(name, &parts)
        })
        .collect();
    let manifested_total = records.len() as u64;
    let injection_nanos: u64 = shards.iter().map(|s| s.stats.injection_nanos).sum();
    let injection_secs = injection_nanos as f64 / 1e9;
    let stats = CampaignStats {
        checkpoint_interval: job.checkpoint_interval,
        core: job.core.clone(),
        redundancy: job.redundancy.clone(),
        injected: total,
        manifested: manifested_total,
        masked: total - manifested_total,
        golden_nanos: shards.iter().map(|s| s.stats.golden_nanos).sum(),
        injection_nanos,
        wall_nanos: shards.iter().map(|s| s.stats.wall_nanos).sum(),
        injections_per_sec: if injection_secs > 0.0 { total as f64 / injection_secs } else { 0.0 },
        batch_mode: if reprs.iter().all(|r| r.batch_mode == job.batch_mode) {
            job.batch_mode.clone()
        } else {
            "mixed".to_owned()
        },
        masked_early_out: shards.iter().map(|s| s.stats.masked_early_out).sum(),
        early_out_cycles_saved: shards.iter().map(|s| s.stats.early_out_cycles_saved).sum(),
        parked_masked: shards.iter().map(|s| s.stats.parked_masked).sum(),
        lane_activations: shards.iter().map(|s| s.stats.lane_activations).sum(),
        per_workload,
    };

    let fuzz = fuzz_provenance_from_names(golden.iter().map(|(name, _)| name.as_str()));
    let lc = lc_provenance_from_names(golden.iter().map(|(name, _)| name.as_str()));
    Ok(CampaignArchive {
        version: ARCHIVE_VERSION,
        records,
        injected: total as usize,
        injected_per_unit,
        golden,
        stats,
        traces,
        fuzz,
        shard: None,
        lc,
    })
}

/// Sums the per-shard slices of one workload's stats. Capture-derived
/// fields (golden cycles, checkpoint counts/bytes) are identical across
/// shards — every shard captured the same golden run — so they are taken
/// from the first slice; counters accumulated while injecting are
/// summed.
fn merge_workload_stats(name: &str, parts: &[&WorkloadStats]) -> WorkloadStats {
    let first = parts.first().copied();
    WorkloadStats {
        workload: name.to_owned(),
        injected: parts.iter().map(|w| w.injected).sum(),
        manifested: parts.iter().map(|w| w.manifested).sum(),
        masked: parts.iter().map(|w| w.masked).sum(),
        golden_cycles: first.map_or(0, |w| w.golden_cycles),
        replayed_cycles: parts.iter().map(|w| w.replayed_cycles).sum(),
        skipped_cycles: parts.iter().map(|w| w.skipped_cycles).sum(),
        checkpoint_count: first.map_or(0, |w| w.checkpoint_count),
        checkpoint_bytes: first.map_or(0, |w| w.checkpoint_bytes),
        hit_distance_sum: parts.iter().map(|w| w.hit_distance_sum).sum(),
        hit_distance_max: parts.iter().map(|w| w.hit_distance_max).max().unwrap_or(0),
        wall_nanos: parts.iter().map(|w| w.wall_nanos).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_workloads::Workload;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            workloads: vec![Workload::find("idctrn").unwrap(), Workload::find("rspeed").unwrap()],
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(1024),
            ..CampaignConfig::new(30, 9)
        }
    }

    #[test]
    fn plan_shards_tiles_the_queue_exactly() {
        let config = tiny_config();
        for n in [1, 2, 3, 7, 59, 60, 61, 1000] {
            let shards = plan_shards(&config, n);
            assert_eq!(shards.len(), n.min(60));
            let mut cursor = 0;
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index as usize, i);
                assert_eq!(s.count as usize, shards.len());
                assert_eq!(s.fault_lo, cursor);
                assert!(s.fault_hi > s.fault_lo);
                cursor = s.fault_hi;
            }
            assert_eq!(cursor, 60);
        }
    }

    #[test]
    fn merge_rejects_bad_sets() {
        let config = tiny_config();
        let shards = plan_shards(&config, 3);
        let archives: Vec<CampaignArchive> = shards.iter().map(|s| run_shard(&config, s)).collect();

        assert_eq!(merge_shard_archives(&[]).unwrap_err(), ShardError::Empty);
        assert_eq!(
            merge_shard_archives(&archives[..2]).unwrap_err(),
            ShardError::Coverage { expected: 3, got: 2 }
        );
        let duplicated = vec![archives[0].clone(), archives[0].clone(), archives[2].clone()];
        assert_eq!(
            merge_shard_archives(&duplicated).unwrap_err(),
            ShardError::Coverage { expected: 3, got: 3 }
        );
        let mut other_job = archives.clone();
        other_job[1].shard.as_mut().unwrap().seed ^= 1;
        assert_eq!(merge_shard_archives(&other_job).unwrap_err(), ShardError::JobMismatch(1));
        let mut not_a_shard = archives.clone();
        not_a_shard[2].shard = None;
        assert_eq!(merge_shard_archives(&not_a_shard).unwrap_err(), ShardError::NotAShard(2));
        // Shards that compared the copies under different redundancy
        // arrangements are not slices of the same job.
        let mut mixed_redundancy = archives.clone();
        mixed_redundancy[1].shard.as_mut().unwrap().redundancy =
            RedundancyMode::Dme.label().to_owned();
        assert_eq!(
            merge_shard_archives(&mixed_redundancy).unwrap_err(),
            ShardError::JobMismatch(1)
        );

        // The untampered set merges, in any order.
        let mut shuffled = archives;
        shuffled.rotate_left(1);
        let merged = merge_shard_archives(&shuffled).unwrap();
        assert_eq!(merged.injected, 60);
        assert!(merged.shard.is_none());
    }
}
