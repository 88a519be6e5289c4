//! The `batch` group: injection throughput across the batched
//! fault-simulation layers, from scalar per-fault replay up the full
//! trajectory — checkpoint fan-out, dirty-set early-out, bit-parallel
//! parked lanes, and all three combined.
//!
//! All five configurations produce byte-identical campaign archives
//! (see `crates/eval/tests/batch_equivalence.rs`); what this measures
//! is the cost model. Scalar replay restores a checkpoint and replays
//! the hit distance once *per fault*; a batch group restores once,
//! walks the golden trace with a single shared walker, and forks lanes
//! only at their strike cycles. Early-out then retires reconverged
//! transients mid-run, and the parked-lane layer keeps agreeing
//! stuck-ats in `u64` watch masks at zero simulation cost.
//! EXPERIMENTS.md records the measured trajectory.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lockstep_eval::batch::BatchConfig;
use lockstep_eval::{run_campaign, CampaignConfig};
use lockstep_workloads::Workload;

const FAULTS_PER_WORKLOAD: usize = 60;

/// Same kernel pair as the `campaign` group (14k and 29k golden
/// cycles), so the scalar `off` row here lines up with its
/// `checkpointed_4096` row.
fn config(batch: Option<BatchConfig>) -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("canrdr").unwrap(), Workload::find("matrix").unwrap()],
        capture_window: 16,
        checkpoint_interval: Some(4096),
        batch,
        ..CampaignConfig::new(FAULTS_PER_WORKLOAD, 2018)
    }
}

fn bench_batch_layers(c: &mut Criterion) {
    let injections = (FAULTS_PER_WORKLOAD * 2) as u64;
    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(injections));
    let modes: [Option<BatchConfig>; 5] = [
        None,
        Some(BatchConfig::FAN_OUT),
        Some(BatchConfig::EARLY_OUT),
        Some(BatchConfig::LANES),
        Some(BatchConfig::FULL),
    ];
    for mode in modes {
        let label = mode.map_or("off", BatchConfig::label);
        group.bench_function(label, |b| b.iter(|| black_box(run_campaign(&config(mode)))));
    }
    group.finish();
}

criterion_group!(batch, bench_batch_layers);
criterion_main!(batch);
