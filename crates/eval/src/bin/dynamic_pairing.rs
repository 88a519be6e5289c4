//! Dynamic-pairing experiment: the recovery-cost delta of checkpoint
//! re-sync (dynamic lockstep) versus full task restart (fixed DMR).
//!
//! Two parts, both over the same campaign knobs (`cli::parse`):
//!
//! 1. **Harness demonstration** — a [`DynamicLockstep`] pair runs the
//!    first selected workload with a planted transient, detects the
//!    divergence, and recovers by re-syncing both sides from the
//!    nearest golden checkpoint (PR 1's capture machinery) instead of
//!    restarting from reset. The re-synced pair must run clean to halt
//!    with the golden output checksum — the soundness argument of
//!    DESIGN.md §13, executed.
//!
//! 2. **LERT accounting** — the full injection campaign runs once
//!    (dynamic pairing detects with the fixed port compare, so one
//!    fixed campaign serves both columns), then every handling model's
//!    mean LERT is computed twice over the identical record stream and
//!    predictor folds: once charging `restart_cycles` (golden runtime —
//!    fixed DMR's soft-error recovery) and once charging
//!    `resync_cycles(detect_cycle mod interval)` (replay from the
//!    nearest checkpoint at or below the detection). The delta isolates
//!    the recovery term, because everything else — records, folds,
//!    predictor, random orders — is bit-identical between the columns.

use std::sync::Arc;

use lockstep_bist::{lert_for, LatencyModel, LertInputs, Model, RESYNC_RESTORE};
use lockstep_core::{DynamicLockstep, ErrorRecord, LockstepEvent, Predictor, PredictorConfig};
use lockstep_cpu::{flops, CoreKind, CoreModel, Cpu, Granularity, Lr7};
use lockstep_eval::campaign::{CampaignConfig, CampaignResult};
use lockstep_eval::cli;
use lockstep_eval::Dataset;
use lockstep_fault::{Fault, FaultKind};
use lockstep_obs::MemorySink;
use lockstep_stats::Xoshiro256;
use lockstep_workloads::Workload;

/// Checkpoint spacing used when the campaign runs with checkpointing
/// off: the demo and the resync column still need *some* interval, and
/// this matches the campaign default.
const FALLBACK_INTERVAL: u64 = 4096;

fn main() {
    let config = cli::parse(std::env::args());
    let interval = config.checkpoint_interval.unwrap_or(FALLBACK_INTERVAL);

    println!("dynamic pairing: checkpoint re-sync vs full-restart recovery");
    println!("=============================================================\n");

    match config.core {
        CoreKind::Lr5 => resync_demo::<Cpu>(&config, interval),
        CoreKind::Lr7 => resync_demo::<Lr7>(&config, interval),
    }

    eprintln!(
        "running campaign ({} faults x {} workloads)...",
        config.faults_per_workload,
        config.workloads.len()
    );
    let result = lockstep_eval::run_campaign(&config);
    eprintln!("campaign done: {} errors\n", result.records.len());

    recovery_table(&result, interval);
    lert_table(&result, config.seed, interval);
}

/// Part 1: one end-to-end re-sync on real hardware state. Tries a
/// handful of flops until the transient manifests (a masked transient
/// needs no recovery at all).
fn resync_demo<C: CoreModel>(config: &CampaignConfig, interval: u64) {
    let w: &Workload = config.workloads[0];
    let cap = w.golden_capture_for::<C>(config.seed, 8_000_000, interval);
    let budget = cap.run.cycles * 4;
    // Mid-run: late enough that short kernels still reach it, and past
    // checkpoint 0 so the re-sync has a distance to replay.
    let inject = (cap.run.cycles / 2).max(1);

    let candidates: Vec<lockstep_cpu::FlopId> = flops::all_flops()
        .filter(|f| {
            let l = flops::label_of(*f);
            l.contains(".pc.") || l.contains(".rd") || l.contains("alu")
        })
        .take(24)
        .collect();

    for flop in candidates {
        let sink = Arc::new(MemorySink::new());
        let mut sys = DynamicLockstep::<C>::new_for(w.memory(config.seed));
        sys.set_event_sink(Some(sink.clone()));
        sys.set_label(w.name);
        sys.inject(0, Fault::new(flop, FaultKind::Transient, inject));

        let detect = match sys.run(budget) {
            LockstepEvent::ErrorDetected { cycle, .. } => cycle,
            _ => continue, // masked — try the next flop
        };

        // Predicted soft: clear the transient, restore both sides from
        // the nearest golden checkpoint at or below the detection.
        sys.clear_faults();
        let ck = cap.checkpoints.nearest_at(detect).expect("checkpoint 0 always exists");
        let distance = sys.resync_from(&ck.cpu, &ck.mem, ck.cycle);
        let resync = LatencyModel::calibrated(Granularity::Coarse).resync_cycles(distance);
        let restart = cap.run.cycles;

        match sys.run(budget) {
            LockstepEvent::Halted => {}
            other => panic!("re-synced pair must run clean to halt, got {other:?}"),
        }
        assert_eq!(
            sys.memory().output_checksum(),
            cap.run.output_checksum,
            "re-synced run must reproduce the golden outputs"
        );
        let resyncs = sink
            .events()
            .iter()
            .filter(|e| matches!(e, lockstep_obs::Event::Resync { .. }))
            .count();
        assert_eq!(resyncs, 1, "exactly one re-sync event must be logged");

        println!("re-sync demo ({}, {}, checkpoint interval {interval}):", w.name, config.core);
        println!(
            "  transient on flop `{}` @ cycle {inject} -> detected @ cycle {detect}",
            flops::label_of(flop)
        );
        println!("  nearest golden checkpoint @ cycle {}", ck.cycle);
        println!(
            "  re-sync: restore {RESYNC_RESTORE} + replay {distance} = {resync} cycles; \
             full restart = {restart} cycles ({:.1}x more)",
            restart as f64 / resync as f64
        );
        println!("  re-synced pair ran clean to halt; output checksum matches golden\n");
        return;
    }
    panic!("no candidate transient manifested on {}", w.name);
}

/// The recovery term a soft error pays under each arrangement, averaged
/// over the campaign's detections per workload.
fn recovery_table(result: &CampaignResult, interval: u64) {
    println!("soft-error recovery term per detection (checkpoint interval {interval}):");
    println!(
        "  {:<12} {:>7} {:>15} {:>13} {:>9}",
        "workload", "errors", "restart(fixed)", "resync(dyn)", "ratio"
    );
    let latency = LatencyModel::calibrated(Granularity::Coarse);
    let mut names: Vec<&str> = result.records.iter().map(|r| r.workload.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let records: Vec<&ErrorRecord> =
            result.records.iter().filter(|r| r.workload == name).collect();
        let restart = result.restart_cycles(name);
        let resync: f64 = records
            .iter()
            .map(|r| latency.resync_cycles(r.detect_cycle % interval) as f64)
            .sum::<f64>()
            / records.len().max(1) as f64;
        println!(
            "  {:<12} {:>7} {:>15} {:>13.0} {:>8.1}x",
            name,
            records.len(),
            restart,
            resync,
            restart as f64 / resync
        );
    }
    println!();
}

/// Part 2: mean LERT per handling model under both recovery stories.
/// Same folds, same predictor, same RNG seed — the recovery term is the
/// only degree of freedom between the two columns.
fn lert_table(result: &CampaignResult, seed: u64, interval: u64) {
    let granularity = Granularity::Coarse;
    let latency = LatencyModel::calibrated(granularity);
    let fixed = mean_lerts(result, seed, granularity, |r| result.restart_cycles(&r.workload));
    let dynamic =
        mean_lerts(result, seed, granularity, |r| latency.resync_cycles(r.detect_cycle % interval));

    println!(
        "mean LERT per error (5-fold CV, coarse granularity, {} errors):",
        result.records.len()
    );
    println!("  {:<20} {:>13} {:>13} {:>9}", "model", "fixed DMR", "dynamic", "delta");
    for (i, model) in Model::ALL.iter().enumerate() {
        let delta = 100.0 * (1.0 - dynamic[i] / fixed[i]);
        println!("  {:<20} {:>13.0} {:>13.0} {:>8.1}%", model.name(), fixed[i], dynamic[i], delta);
    }
    println!("\n  (delta = LERT cycles saved by re-syncing from the nearest golden");
    println!("   checkpoint instead of restarting the task after a soft verdict)");
}

/// Mean LERT per model (in [`Model::ALL`] order) with the soft-error
/// recovery term supplied by `recovery`. Mirrors
/// [`lockstep_eval::lertsim::evaluate`]'s fold loop; the RNG is
/// re-seeded identically per call so both arrangements see the same
/// random STL orders.
fn mean_lerts(
    result: &CampaignResult,
    seed: u64,
    granularity: Granularity,
    recovery: impl Fn(&ErrorRecord) -> u64,
) -> Vec<f64> {
    const FOLDS: usize = 5;
    let dataset = Dataset::new(result.records.clone());
    assert!(dataset.len() >= FOLDS, "only {} errors for {FOLDS} folds", dataset.len());
    let latency = LatencyModel::calibrated(granularity);
    let rates = result.manifestation_rates(granularity);
    let mut rng = Xoshiro256::seed_from(seed ^ 0x5E17);

    let mut sums = vec![0.0f64; Model::ALL.len()];
    let mut evaluated = 0usize;
    for (train, test) in dataset.folds(FOLDS, seed) {
        let train_records = Dataset::to_train_records(&train, granularity);
        let predictor = Predictor::train(&train_records, PredictorConfig::new(granularity));
        for record in test {
            let prediction = predictor.predict(record.dsr);
            let inputs = LertInputs {
                true_unit: granularity.index_of(record.unit()),
                true_kind: record.kind(),
                restart_cycles: recovery(record),
            };
            for (mi, &model) in Model::ALL.iter().enumerate() {
                let pred_ref = model.uses_predictor().then_some(&prediction);
                sums[mi] +=
                    lert_for(model, inputs, &latency, &rates, pred_ref, &mut rng).cycles as f64;
            }
            evaluated += 1;
        }
    }
    sums.iter().map(|s| s / evaluated.max(1) as f64).collect()
}
