//! The per-layer metrics of a traced run, named by module.
//!
//! Every traced run reports every metric. A layer that the workload's
//! traced path does not reach reads 0 (for example `shard.*` and
//! `serve.*` on lr7-suite and lr5-dme, since only lr5-suite's traced run
//! traces the service, or `batch.*` on lr5-dme, whose per-fault engine
//! never calls the batched one).

use crate::micro::Micro;
use crate::Outcome;

/// Per-layer values; per-pass and per-job figures are medians over the
/// run's traced passes or jobs.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub micro: Option<Micro>,
    pub golden_capture_ms: f64,
    pub golden_mcycles: f64,
    pub checkpoints: f64,
    pub plan_ms: f64,
    pub batch_busy_s: f64,
    pub batch_groups: f64,
    pub batch_simulated_mcycles: f64,
    pub batch_ns_per_simulated_cycle: f64,
    pub batch_lane_activations: f64,
    pub batch_parked_masked: f64,
    pub batch_early_out_masked: f64,
    pub batch_lane_yield: f64,
    pub dme_retire_stream_ms: f64,
    pub dme_simulated_mcycles: f64,
    pub dme_ns_per_simulated_cycle: f64,
    pub archive_save_ms: f64,
    pub archive_load_ms: f64,
    pub archive_kib: f64,
    pub shard_run_ms: f64,
    pub shard_recapture_share: f64,
    pub shard_merge_ms: f64,
    pub train_ms: f64,
    pub predict_ns: f64,
    pub parse_us: f64,
    pub registry_create_ms: f64,
    pub registry_write_ms: f64,
    pub registry_load_ms: f64,
    pub predict_cold_ms: f64,
    pub predict_warm_us: f64,
    pub job_wait_ms: f64,
    pub predict_wait_ms: f64,
    pub failed_requests: f64,
    pub unattributed_share: f64,
    pub overhead_share: f64,
}

impl Layers {
    /// Appends every per-layer metric, in `BENCHMARK.json` order.
    pub fn emit(&self, out: &mut Outcome) {
        let m = self.micro.expect("traced runs measure the substrate unit costs");
        out.metric("cpu.lr5_step_ns", m.lr5_step_ns, "ns");
        out.metric("cpu.lr5_overlay_step_ns", m.lr5_overlay_step_ns, "ns");
        out.metric("cpu.lr7_step_ns", m.lr7_step_ns, "ns");
        out.metric("cpu.lr7_overlay_step_ns", m.lr7_overlay_step_ns, "ns");
        out.metric("cpu.diff_mask_ns", m.diff_mask_ns, "ns");
        out.metric("mem.image_clone_us", m.image_clone_us, "us");
        out.metric("mem.dme_shift_us", m.dme_shift_us, "us");
        out.metric("mem.dme_step_ns", m.dme_step_ns, "ns");
        out.metric("workloads.golden_capture_ms", self.golden_capture_ms, "ms");
        out.metric("workloads.golden_mcycles", self.golden_mcycles, "Mcycles");
        out.metric("workloads.checkpoints", self.checkpoints, "count");
        out.metric("fault.plan_ms", self.plan_ms, "ms");
        out.metric("batch.busy_s", self.batch_busy_s, "s");
        out.metric("batch.groups", self.batch_groups, "count");
        out.metric("batch.simulated_mcycles", self.batch_simulated_mcycles, "Mcycles");
        out.metric("batch.ns_per_simulated_cycle", self.batch_ns_per_simulated_cycle, "ns");
        out.metric("batch.lane_activations", self.batch_lane_activations, "count");
        out.metric("batch.parked_masked", self.batch_parked_masked, "count");
        out.metric("batch.early_out_masked", self.batch_early_out_masked, "count");
        out.metric("batch.lane_yield", self.batch_lane_yield, "ratio");
        out.metric("dme.retire_stream_ms", self.dme_retire_stream_ms, "ms");
        out.metric("dme.simulated_mcycles", self.dme_simulated_mcycles, "Mcycles");
        out.metric("dme.ns_per_simulated_cycle", self.dme_ns_per_simulated_cycle, "ns");
        out.metric("archive.save_ms", self.archive_save_ms, "ms");
        out.metric("archive.load_ms", self.archive_load_ms, "ms");
        out.metric("archive.kib", self.archive_kib, "KiB");
        out.metric("shard.run_ms", self.shard_run_ms, "ms");
        out.metric("shard.recapture_share", self.shard_recapture_share, "ratio");
        out.metric("shard.merge_ms", self.shard_merge_ms, "ms");
        out.metric("core.train_ms", self.train_ms, "ms");
        out.metric("core.predict_ns", self.predict_ns, "ns");
        out.metric("serve.parse_us", self.parse_us, "us");
        out.metric("serve.registry_create_ms", self.registry_create_ms, "ms");
        out.metric("serve.registry_write_ms", self.registry_write_ms, "ms");
        out.metric("serve.registry_load_ms", self.registry_load_ms, "ms");
        out.metric("serve.predict_cold_ms", self.predict_cold_ms, "ms");
        out.metric("serve.predict_warm_us", self.predict_warm_us, "us");
        out.metric("serve.job_wait_ms", self.job_wait_ms, "ms");
        out.metric("serve.predict_wait_ms", self.predict_wait_ms, "ms");
        out.metric("serve.failed_requests", self.failed_requests, "count");
        out.metric("trace.unattributed_share", self.unattributed_share, "ratio");
        out.metric("trace.overhead_share", self.overhead_share, "ratio");
    }
}
