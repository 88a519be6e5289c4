//! The `campaign` group: injection throughput with the golden-state
//! checkpoint engine on vs. off.
//!
//! All configurations produce bit-identical `ErrorRecord` streams (see
//! `crates/eval/tests/checkpoint_equivalence.rs`); what this measures
//! is the cost model. From reset, each injection replays `inject_cycle +
//! detection latency` cycles and re-assembles its memory image; from a
//! checkpoint it replays `hit distance + detection latency + capture
//! window` cycles from a cloned snapshot. EXPERIMENTS.md records the
//! measured speedups.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use lockstep_eval::{run_campaign, CampaignConfig};
use lockstep_workloads::Workload;

const FAULTS_PER_WORKLOAD: usize = 60;

/// Two kernels from the long end of the runtime band (14k and 29k golden
/// cycles), where the fast-forward saving actually has room to show up:
/// kernels shorter than one interval only ever restore the cycle-0
/// snapshot and measure nothing but the avoided memory re-assembly.
fn config(checkpoint_interval: Option<u64>) -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("canrdr").unwrap(), Workload::find("matrix").unwrap()],
        capture_window: 16,
        checkpoint_interval,
        ..CampaignConfig::new(FAULTS_PER_WORKLOAD, 2018)
    }
}

fn bench_campaign(c: &mut Criterion) {
    let injections = (FAULTS_PER_WORKLOAD * 2) as u64;
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.throughput(Throughput::Elements(injections));
    group.bench_function("from_reset", |b| b.iter(|| black_box(run_campaign(&config(None)))));
    group.bench_function("checkpointed_4096", |b| {
        b.iter(|| black_box(run_campaign(&config(Some(4096)))))
    });
    group.bench_function("checkpointed_1024", |b| {
        b.iter(|| black_box(run_campaign(&config(Some(1024)))))
    });
    group.finish();
}

criterion_group!(campaign, bench_campaign);
criterion_main!(campaign);
