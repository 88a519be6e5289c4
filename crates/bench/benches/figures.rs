//! One Criterion group per paper table/figure: each benchmark measures
//! the computation that regenerates that artifact, over a shared
//! small-scale campaign (the full-scale versions are the
//! `lockstep-eval` binaries — see DESIGN.md's experiment index).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;

use lockstep_cpu::Granularity;
use lockstep_eval::experiments;
use lockstep_eval::{run_campaign, CampaignConfig, CampaignResult};
use lockstep_fault::ErrorKind;
use lockstep_workloads::Workload;

/// Shared campaign: three kernels × 400 faults, enough for every
/// analysis stage to do real work.
fn campaign() -> &'static CampaignResult {
    static CAMPAIGN: OnceLock<CampaignResult> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        run_campaign(&CampaignConfig {
            workloads: vec![
                Workload::find("rspeed").unwrap(),
                Workload::find("tblook").unwrap(),
                Workload::find("idctrn").unwrap(),
            ],
            capture_window: 8,
            checkpoint_interval: Some(4096),
            ..CampaignConfig::new(400, 42)
        })
    })
}

fn bench_campaign_engine(c: &mut Criterion) {
    // The engine itself: golden trace + 50 injections on a short kernel.
    let mut group = c.benchmark_group("campaign_engine");
    group.sample_size(10);
    group.bench_function("50_injections_idctrn", |b| {
        b.iter(|| {
            black_box(run_campaign(&CampaignConfig {
                workloads: vec![Workload::find("idctrn").unwrap()],
                threads: 4,
                capture_window: 8,
                checkpoint_interval: Some(4096),
                ..CampaignConfig::new(50, 9)
            }))
        })
    });
    group.finish();
}

fn bench_tab1(c: &mut Criterion) {
    let result = campaign();
    c.benchmark_group("tab1_manifestation")
        .bench_function("analysis", |b| b.iter(|| black_box(experiments::tab1::run(result))));
}

fn bench_tab2(c: &mut Criterion) {
    let result = campaign();
    c.benchmark_group("tab2_latencies").bench_function("calibration", |b| {
        b.iter(|| black_box(experiments::tab2::run(result, Granularity::Coarse)))
    });
}

fn bench_fig4_fig5(c: &mut Criterion) {
    let result = campaign();
    let mut group = c.benchmark_group("fig4_fig5_signatures");
    group.bench_function("fig4_hard", |b| {
        b.iter(|| {
            black_box(experiments::fig45::run_signatures(
                result,
                Granularity::Coarse,
                ErrorKind::Hard,
            ))
        })
    });
    group.bench_function("fig5_soft", |b| {
        b.iter(|| {
            black_box(experiments::fig45::run_signatures(
                result,
                Granularity::Coarse,
                ErrorKind::Soft,
            ))
        })
    });
    group.bench_function("sec3b_type_evidence", |b| {
        b.iter(|| black_box(experiments::fig45::run_type_evidence(result, Granularity::Coarse)))
    });
    group.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let result = campaign();
    c.benchmark_group("fig10_table_contents").bench_function("train_and_render", |b| {
        b.iter(|| black_box(experiments::fig10::run(result, Granularity::Coarse, 10)))
    });
}

fn bench_fig11_fig14(c: &mut Criterion) {
    let result = campaign();
    let mut group = c.benchmark_group("fig11_fig14_lert");
    group.sample_size(20);
    group.bench_function("fig11_coarse", |b| {
        b.iter(|| black_box(experiments::fig11::run(result, Granularity::Coarse, 1)))
    });
    group.bench_function("fig14_fine", |b| {
        b.iter(|| black_box(experiments::fig11::run(result, Granularity::Fine, 1)))
    });
    group.finish();
}

fn bench_tab3(c: &mut Criterion) {
    let result = campaign();
    let mut group = c.benchmark_group("tab3_type_accuracy");
    group.sample_size(20);
    group.bench_function("evaluation", |b| b.iter(|| black_box(experiments::tab3::run(result, 1))));
    group.finish();
}

fn bench_sec5b(c: &mut Criterion) {
    let result = campaign();
    let mut group = c.benchmark_group("sec5b_table_placement");
    group.sample_size(10);
    group.bench_function("on_vs_offchip", |b| {
        b.iter(|| black_box(experiments::sec5b::run(result, 1)))
    });
    group.finish();
}

fn bench_topk_sweeps(c: &mut Criterion) {
    let result = campaign();
    let mut group = c.benchmark_group("fig12_13_15_16_topk");
    group.sample_size(10);
    group.bench_function("fig12_13_coarse_sweep", |b| {
        b.iter(|| black_box(experiments::topk::sweep(result, Granularity::Coarse, 1)))
    });
    group.bench_function("fig15_16_fine_sweep", |b| {
        b.iter(|| black_box(experiments::topk::sweep(result, Granularity::Fine, 1)))
    });
    group.finish();
}

fn bench_tab4(c: &mut Criterion) {
    c.benchmark_group("tab4_overhead").bench_function("gate_model", |b| {
        b.iter(|| black_box(experiments::tab4::run(black_box(11))))
    });
}

criterion_group!(
    figures,
    bench_campaign_engine,
    bench_tab1,
    bench_tab2,
    bench_fig4_fig5,
    bench_fig10,
    bench_fig11_fig14,
    bench_tab3,
    bench_sec5b,
    bench_topk_sweeps,
    bench_tab4
);
criterion_main!(figures);
