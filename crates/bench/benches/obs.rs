//! The `obs` group: cost of the observability layer on the campaign
//! hot path.
//!
//! Three configurations of the same campaign:
//!
//! * `events_off` — `CampaignConfig::events = None`; the engine skips
//!   event *construction* entirely, so this is the pre-observability
//!   baseline.
//! * `events_null_sink` — a [`NullSink`] installed; every event is
//!   built and pushed through the virtual call, then dropped. The gap
//!   to `events_off` is the whole price of having the layer compiled
//!   in and switched on — EXPERIMENTS.md records it at ≤2%.
//! * `traced` — the divergence trace recorder on top (per-cycle state
//!   diffs between injection and detection). This one is *expected* to
//!   cost real time; it is opt-in per campaign for exactly that reason.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use lockstep_eval::{run_campaign, CampaignConfig};
use lockstep_obs::NullSink;
use lockstep_workloads::Workload;

const FAULTS_PER_WORKLOAD: usize = 60;

fn config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("canrdr").unwrap(), Workload::find("matrix").unwrap()],
        capture_window: 16,
        checkpoint_interval: Some(4096),
        ..CampaignConfig::new(FAULTS_PER_WORKLOAD, 2018)
    }
}

fn bench_obs(c: &mut Criterion) {
    let injections = (FAULTS_PER_WORKLOAD * 2) as u64;
    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.throughput(Throughput::Elements(injections));
    group.bench_function("events_off", |b| b.iter(|| black_box(run_campaign(&config()))));
    group.bench_function("events_null_sink", |b| {
        b.iter(|| {
            let mut cfg = config();
            cfg.events = Some(Arc::new(NullSink));
            black_box(run_campaign(&cfg))
        })
    });
    group.bench_function("traced", |b| {
        b.iter(|| {
            let mut cfg = config();
            cfg.trace_window = Some(64);
            black_box(run_campaign(&cfg))
        })
    });
    group.finish();
}

criterion_group!(obs, bench_obs);
criterion_main!(obs);
