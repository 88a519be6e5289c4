//! The batched fault-simulation engine's correctness contract: a
//! campaign run in `--batch-mode` — shared walker fan-out, dirty-set
//! early-out, bit-parallel parked lanes — must be **byte-identical** to
//! the same campaign replayed per fault on the scalar engine, for every
//! layer combination, checkpoint spacing, thread count, and comparator: under DME the batched engine filters out the
//! port-masked faults and hands each port-divergent lane, live, to the
//! retire comparator. The order-of-magnitude saving is only usable
//! because this equivalence is exact.
//!
//! Two granularities:
//!
//! * group level — [`run_batch_group`] against one checkpointed
//!   [`run_injection`] call per fault under the same comparator (the
//!   recorded port trace, or DME's retire stream), over
//!   property-sampled fault sets (duplicates and past-end strikes
//!   included) on both core models;
//! * campaign level — archives compared as serialized bytes with the
//!   stats block normalized out (stats carry wall-clock timings and the
//!   batch-mode label itself, which are *supposed* to differ).

use lockstep_core::RedundancyMode;
use lockstep_cpu::{flops, CoreKind, Cpu, Lr7};
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::batch::{run_batch_group, BatchConfig, CoreBatch};
use lockstep_eval::campaign::{
    run_campaign, run_injection, CampaignConfig, CampaignResult, CampaignStats, Reference,
    ReplayStart,
};
use lockstep_eval::dme::retire_stream;
use lockstep_fault::{Fault, FaultKind};
use lockstep_workloads::Workload;
use proptest::prelude::*;

mod common;

const SEED: u64 = 61;

const ALL_LAYERS: [BatchConfig; 4] =
    [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL];

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        threads: 4,
        checkpoint_interval: Some(4096),
        ..CampaignConfig::new(40, 2024)
    }
}

/// The archive bytes of a result with the throughput stats zeroed out:
/// everything an analysis consumes — records, injection counts, golden
/// data, trace blobs — byte-for-byte.
fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// One batched group call on core `C` against the per-fault scalar
/// replay of the same faults under the same comparator: `picks` are
/// (flop index, kind, strike cycle in thousandths of the golden run).
/// Under [`RedundancyMode::Dme`] the group gets the retire stream and
/// each scalar replay runs against it from the fault's checkpoint, so a
/// lane handed over at its first port divergence must reach the verdict
/// of a replay that compared every retirement since the strike.
fn check_group<C: CoreBatch>(
    workload: &'static str,
    interval: u64,
    picks: &[(usize, u8, u64)],
    window: u32,
    layers: BatchConfig,
    redundancy: RedundancyMode,
) -> Result<(), TestCaseError> {
    let cap = common::capture::<C>(workload, SEED, interval);
    let flop_count = flops::all_flops_in(C::registry()).count();
    let faults: Vec<Fault> = picks
        .iter()
        .map(|&(flop_pick, kind, cycle_frac)| {
            let flop = flops::all_flops_in(C::registry()).nth(flop_pick % flop_count).unwrap();
            let kind = match kind {
                0 => FaultKind::Transient,
                1 => FaultKind::StuckAt0,
                _ => FaultKind::StuckAt1,
            };
            Fault::new(flop, kind, cap.run.cycles * cycle_frac / 1000)
        })
        .collect();

    let stream = (redundancy == RedundancyMode::Dme).then(|| retire_stream(&cap.trace));
    let reference = match &stream {
        None => Reference::Recorded(&cap.trace),
        Some(stream) => Reference::RetireStream { cycles: cap.trace.len(), stream },
    };
    let (outcomes, cost) = run_batch_group::<C>(
        &cap.checkpoints,
        cap.run.cycles,
        stream.as_deref(),
        &faults,
        window,
        layers,
    );
    prop_assert_eq!(outcomes.len(), faults.len());
    for (fault, batched) in faults.iter().zip(&outcomes) {
        let start = ReplayStart::Checkpoint(&cap.checkpoints);
        let scalar = run_injection::<C>(start, reference, *fault, window, None).outcome;
        prop_assert_eq!(
            *batched,
            scalar,
            "{} `{}` diverged from {:?} scalar replay for {:?}",
            C::NAME,
            layers.label(),
            redundancy,
            fault
        );
    }
    // Counter sanity: disabled layers must not report savings.
    if !layers.early_out {
        prop_assert_eq!(cost.masked_early_out, 0);
        prop_assert_eq!(cost.early_out_cycles_saved, 0);
    }
    if !layers.parked_lanes {
        prop_assert_eq!(cost.parked_masked, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(52))]

    /// Group-level equivalence: one batched group call returns exactly
    /// the per-fault scalar outcomes, on either core, for every layer
    /// combination and under both comparators, over fault sets that mix
    /// kinds, repeat flops (duplicate faults share a lane), and strike
    /// past the end of the run. `lc_quicksort` recurses deep enough to
    /// wrap the return-address stack, `trapex` traps and `ctrex` reads
    /// the counters and `hartid`, so the RAS, CSR and counter word
    /// oracles are exercised too.
    #[test]
    fn batch_group_matches_per_fault_scalar_replay(
        picks in proptest::collection::vec((0usize..10_000, 0u8..3, 0u64..1100), 1..40),
        window in 1u32..=24,
        interval in proptest::sample::select(vec![512u64, 1024, 4096]),
        layers in proptest::sample::select(ALL_LAYERS.to_vec()),
        workload in proptest::sample::select(
            vec!["rspeed", "pntrch", "lc_quicksort", "trapex", "ctrex"]
        ),
        core in proptest::sample::select(CoreKind::ALL.to_vec()),
    ) {
        for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
            match core {
                CoreKind::Lr5 => {
                    check_group::<Cpu>(workload, interval, &picks, window, layers, redundancy)?
                }
                CoreKind::Lr7 => {
                    check_group::<Lr7>(workload, interval, &picks, window, layers, redundancy)?
                }
            }
        }
    }
}

proptest! {
    // Whole campaigns are expensive; a handful of sampled
    // (seed, faults, interval, threads) points on top of the exhaustive
    // fixed-grid tests below.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Campaign-level equivalence, the satellite contract: batched
    /// archives byte-identical to per-fault scalar replay across
    /// checkpoint intervals × thread counts × comparators (seed and
    /// campaign size sampled too). Each sampled point runs under both
    /// fixed DMR and DME.
    #[test]
    fn batched_archives_byte_identical_to_scalar(
        seed in 1u64..10_000,
        faults in 10usize..50,
        interval in proptest::sample::select(vec![512u64, 1024, 4096, 8192]),
        threads in 1usize..=4,
        layers in proptest::sample::select(ALL_LAYERS.to_vec()),
    ) {
        for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
            let mut cfg = base_config();
            cfg.seed = seed;
            cfg.faults_per_workload = faults;
            cfg.checkpoint_interval = Some(interval);
            cfg.threads = threads;
            cfg.redundancy = redundancy;
            let scalar = run_campaign(&cfg);
            cfg.batch = Some(layers);
            let batched = run_campaign(&cfg);
            prop_assert_eq!(
                archive_bytes(&scalar),
                archive_bytes(&batched),
                "`{}` changed the {:?} archive (seed {}, {} faults, interval {}, {} threads)",
                layers.label(), redundancy, seed, faults, interval, threads
            );
        }
    }
}

/// The fixed-grid version of the archive contract: every layer
/// combination under both comparators, checkpointing off/dense/default
/// — including `None`, where the only checkpoint is the mandatory
/// cycle-0 snapshot and the whole campaign is one group per workload.
#[test]
fn archives_byte_identical_across_batch_layers_and_intervals() {
    for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
        for interval in [None, Some(512), Some(4096)] {
            let mut cfg = base_config();
            cfg.checkpoint_interval = interval;
            cfg.redundancy = redundancy;
            let scalar = run_campaign(&cfg);
            assert!(!scalar.records.is_empty(), "campaign must manifest errors");
            let reference = archive_bytes(&scalar);
            for layers in ALL_LAYERS {
                let mut c = cfg.clone();
                c.batch = Some(layers);
                let batched = run_campaign(&c);
                assert_eq!(
                    archive_bytes(&batched),
                    reference,
                    "`{}` changed the {redundancy:?} archive at checkpoint interval {interval:?}",
                    layers.label()
                );
                assert_eq!(batched.stats.batch_mode, layers.label());
            }
        }
    }
}

/// The archive contract on the workloads whose golden runs call and
/// return, take traps and read the counters, on both cores: there a
/// parked word is read or written through the RAS (LR5), BTB-target
/// (LR7) and CSR oracles, and a parked counter wakes on a `csrr`, not
/// only through the register file's oracles.
#[test]
fn archives_byte_identical_on_call_and_trap_workloads() {
    for core in CoreKind::ALL {
        for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
            let mut cfg = base_config();
            cfg.workloads = ["lc_quicksort", "trapex", "ctrex"]
                .iter()
                .map(|name| Workload::find(name).unwrap())
                .collect();
            cfg.faults_per_workload = 150;
            cfg.core = core;
            cfg.redundancy = redundancy;
            let scalar = run_campaign(&cfg);
            cfg.batch = Some(BatchConfig::FULL);
            let batched = run_campaign(&cfg);
            assert_eq!(
                archive_bytes(&scalar),
                archive_bytes(&batched),
                "word parking changed the {core} {redundancy:?} archive"
            );
            assert!(batched.stats.parked_masked + batched.stats.masked_early_out > 0);
        }
    }
}

/// Thread-count independence: batched runs drain from a shared queue in
/// arbitrary order, and past two threads each of the two workloads is
/// cut into more runs, but the record stream is re-sorted into campaign
/// order, so worker count must not leak into the archive.
#[test]
fn batched_archives_byte_identical_across_thread_counts() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 25;
    cfg.batch = Some(BatchConfig::FULL);
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut c = cfg.clone();
        c.threads = threads;
        let bytes = archive_bytes(&run_campaign(&c));
        match &reference {
            Some(r) => assert_eq!(&bytes, r, "batched archive depends on thread count"),
            None => reference = Some(bytes),
        }
    }
}

/// The savings counters tell a consistent story: a full-layer campaign
/// simulates strictly fewer cycles than fan-out alone, and what it
/// saves is accounted to the early-out and parked-lane counters.
#[test]
fn full_layers_simulate_fewer_cycles_than_fanout() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 60;
    cfg.batch = Some(BatchConfig::FAN_OUT);
    let fanout = run_campaign(&cfg);
    cfg.batch = Some(BatchConfig::FULL);
    let full = run_campaign(&cfg);
    assert_eq!(archive_bytes(&fanout), archive_bytes(&full));
    let cycles = |r: &CampaignResult| -> u64 {
        r.stats.per_workload.iter().map(|w| w.replayed_cycles).sum()
    };
    assert!(
        cycles(&full) < cycles(&fanout),
        "full layers must shed simulation work ({} vs {})",
        cycles(&full),
        cycles(&fanout)
    );
    assert!(full.stats.masked_early_out + full.stats.parked_masked > 0);
    assert_eq!(fanout.stats.masked_early_out, 0, "fan-out alone never early-outs");
    assert_eq!(fanout.stats.parked_masked, 0, "fan-out alone never parks");
}

/// Full-suite sweep, tier-2 only: every workload, scalar vs full-layer
/// batch, byte-identical.
#[cfg(feature = "slow-tests")]
#[test]
#[ignore = "full-suite sweep; run with --features slow-tests -- --ignored"]
fn full_suite_archives_byte_identical_with_batching() {
    let mut cfg = base_config();
    cfg.workloads = Workload::all().iter().collect();
    cfg.faults_per_workload = 100;
    let scalar = run_campaign(&cfg);
    cfg.batch = Some(BatchConfig::FULL);
    let batched = run_campaign(&cfg);
    assert!(scalar.records.len() > 100, "sweep too sparse");
    assert_eq!(archive_bytes(&scalar), archive_bytes(&batched));
}
