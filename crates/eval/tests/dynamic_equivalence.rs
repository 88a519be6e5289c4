//! The dynamic-pairing mode's no-op contract: a `dynamic` campaign
//! whose pairing schedule never actually triggers a re-sync — which is
//! every injection campaign, since campaign detection uses the same
//! per-cycle identical comparison and recovery is measured separately
//! by the `dynamic_pairing` binary — must produce archives
//! **byte-identical** to fixed DMR across checkpoint intervals, thread
//! counts, and replay modes. The redundancy axis may change *recovery*;
//! it must never change *what was detected*.
//!
//! Archives are compared as serialized bytes with the stats block
//! normalized out: stats carry wall-clock timings and the redundancy
//! label itself, which are *supposed* to differ between the two runs.

use lockstep_core::RedundancyMode;
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignStats, ReplayMode,
};
use lockstep_workloads::Workload;
use proptest::prelude::*;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        threads: 4,
        checkpoint_interval: Some(4096),
        ..CampaignConfig::new(30, 2024)
    }
}

/// The archive bytes of a result with the throughput stats zeroed out:
/// everything an analysis consumes — records, injection counts, golden
/// data, trace blobs — byte-for-byte. Zeroing the stats block also
/// normalizes the one field that legitimately differs between the two
/// modes, the `redundancy` label.
fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

fn run_with(cfg: &CampaignConfig, redundancy: RedundancyMode) -> CampaignResult {
    let mut cfg = cfg.clone();
    cfg.redundancy = redundancy;
    run_campaign(&cfg)
}

proptest! {
    // Whole campaigns are expensive; sampled (interval, threads,
    // replay mode, seed) points on top of the fixed-grid test below.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The satellite contract: `dynamic` with a never-resyncing
    /// schedule is byte-identical to fixed DMR across checkpoint
    /// intervals × thread counts × replay modes.
    #[test]
    fn dynamic_matches_fixed_across_the_knob_grid(
        interval in proptest::sample::select(vec![0u64, 512, 1024, 4096]),
        threads in proptest::sample::select(vec![1usize, 2, 8]),
        lockstep_replay in any::<bool>(),
        seed in 1u64..500,
    ) {
        let mut cfg = base_config();
        cfg.faults_per_workload = 20;
        cfg.checkpoint_interval = (interval != 0).then_some(interval);
        cfg.threads = threads;
        cfg.replay_mode = if lockstep_replay { ReplayMode::Lockstep } else { ReplayMode::Shadow };
        cfg.seed = seed;
        let fixed = run_with(&cfg, RedundancyMode::Fixed);
        let dynamic = run_with(&cfg, RedundancyMode::Dynamic);
        prop_assert_eq!(archive_bytes(&fixed), archive_bytes(&dynamic));
        prop_assert_eq!(&fixed.stats.redundancy, "fixed");
        prop_assert_eq!(&dynamic.stats.redundancy, "dynamic");
    }
}

/// The deterministic anchor for the property above: one fixed grid
/// point per knob, with error manifestation asserted so the property
/// can never green-wash an empty campaign.
#[test]
fn dynamic_matches_fixed_at_the_default_knobs() {
    for interval in [None, Some(512), Some(4096)] {
        let mut cfg = base_config();
        cfg.checkpoint_interval = interval;
        let fixed = run_with(&cfg, RedundancyMode::Fixed);
        let dynamic = run_with(&cfg, RedundancyMode::Dynamic);
        assert!(!fixed.records.is_empty(), "campaign must manifest errors");
        assert_eq!(
            archive_bytes(&fixed),
            archive_bytes(&dynamic),
            "dynamic pairing changed the archive at checkpoint interval {interval:?}"
        );
    }
}

/// A requested batch engine runs as configured under `dynamic` (its
/// detection is the fixed port comparison the batch lanes model),
/// recorded in the stats — and the records still match fixed DMR run
/// scalar.
#[test]
fn dynamic_runs_the_batch_engine_like_fixed() {
    let mut cfg = base_config();
    cfg.batch = Some(lockstep_eval::batch::BatchConfig::FULL);
    let fixed_scalar = {
        let mut c = cfg.clone();
        c.batch = None;
        run_with(&c, RedundancyMode::Fixed)
    };
    let dynamic = run_with(&cfg, RedundancyMode::Dynamic);
    assert_eq!(dynamic.stats.batch_mode, "full");
    assert_eq!(archive_bytes(&fixed_scalar), archive_bytes(&dynamic));
}
