//! The LR7 out-of-order core's campaign contracts: behind the
//! [`CoreModel`] trait the injection engine must treat it exactly like
//! the LR5 — same archive whatever the thread count or batch mode, and
//! the same shard/merge determinism. None
//! of these compare LR7 *against* LR5 (the cores diverge
//! microarchitecturally, that is the point); they pin down that every
//! execution strategy over the *same* core is byte-identical.
//!
//! Archives are compared as serialized bytes with the stats block
//! normalized out, the convention of the whole equivalence suite.

use lockstep_cpu::CoreKind;
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::batch::BatchConfig;
use lockstep_eval::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignStats};
use lockstep_eval::shard::{merge_shard_archives, plan_shards, run_shard};
use lockstep_workloads::Workload;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        threads: 4,
        checkpoint_interval: Some(4096),
        core: CoreKind::Lr7,
        ..CampaignConfig::new(24, 2024)
    }
}

/// The archive bytes of a result with the throughput stats zeroed out:
/// everything an analysis consumes, byte-for-byte.
fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// Thread-count independence on the out-of-order core: the record
/// stream is re-sorted into campaign order after the shared queue
/// drains, so worker count must not leak into the archive.
#[test]
fn lr7_archives_byte_identical_across_thread_counts() {
    let cfg = base_config();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let mut c = cfg.clone();
        c.threads = threads;
        let result = run_campaign(&c);
        assert_eq!(result.stats.core, "lr7");
        assert!(!result.records.is_empty(), "LR7 campaign must manifest errors");
        let bytes = archive_bytes(&result);
        match &reference {
            Some(r) => assert_eq!(&bytes, r, "LR7 archive depends on thread count ({threads})"),
            None => reference = Some(bytes),
        }
    }
}

/// Every batch layer set runs on LR7 and is byte-identical to scalar
/// replay, for checkpointing off, dense, and default spacing.
#[test]
fn lr7_every_batch_layer_set_byte_identical_to_scalar() {
    for interval in [None, Some(512), Some(4096)] {
        let mut cfg = base_config();
        cfg.checkpoint_interval = interval;
        let scalar = archive_bytes(&run_campaign(&cfg));
        for layers in
            [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL]
        {
            cfg.batch = Some(layers);
            let batched = run_campaign(&cfg);
            assert_eq!(batched.stats.batch_mode, layers.label());
            assert_eq!(
                scalar,
                archive_bytes(&batched),
                "`{}` changed the LR7 archive at checkpoint interval {interval:?}",
                layers.label()
            );
        }
    }
}

/// LR7 runs the layers it is asked for: `full` is recorded as such, is
/// byte-identical to the scalar engine, and really uses the dirty-set
/// early-out and identity parking.
#[test]
fn lr7_full_batch_runs_early_out_and_parking() {
    let mut cfg = base_config();
    cfg.batch = Some(BatchConfig::FULL);
    let result = run_campaign(&cfg);
    assert_eq!(result.stats.batch_mode, "full", "stats must record the layers that ran");
    assert!(result.stats.masked_early_out > 0, "no LR7 transient took the early-out");
    assert!(result.stats.parked_masked > 0, "no LR7 stuck-at parked to the end");
    cfg.batch = None;
    let scalar = run_campaign(&cfg);
    assert_eq!(archive_bytes(&scalar), archive_bytes(&result));
}

/// The comparator axis holds on the out-of-order core too: `dme` runs
/// the retired-effect comparator deterministically across thread
/// counts and engines — the full batch engine included.
#[test]
fn lr7_redundancy_modes_are_thread_deterministic() {
    use lockstep_core::RedundancyMode;

    let mut cfg = base_config();
    cfg.faults_per_workload = 18;
    cfg.redundancy = RedundancyMode::Dme;
    let mut reference: Option<String> = None;
    for threads in [1usize, 4] {
        let mut c = cfg.clone();
        c.threads = threads;
        let result = run_campaign(&c);
        assert_eq!(result.stats.core, "lr7");
        assert_eq!(result.stats.redundancy, "dme");
        let bytes = archive_bytes(&result);
        match &reference {
            Some(r) => {
                assert_eq!(&bytes, r, "LR7 dme archive depends on thread count ({threads})")
            }
            None => reference = Some(bytes),
        }
    }
    cfg.batch = Some(BatchConfig::FULL);
    let batched = run_campaign(&cfg);
    assert_eq!(batched.stats.batch_mode, "full");
    assert_eq!(
        Some(archive_bytes(&batched)),
        reference,
        "the batch engine changed the LR7 dme archive"
    );
}

/// Shards of one LR7 job must agree on the redundancy arrangement: a
/// `dme` shard is not mergeable with `fixed` siblings, mirroring the
/// mixed-core refusal below.
#[test]
fn lr7_mixed_redundancy_shards_refuse_to_merge() {
    use lockstep_core::RedundancyMode;

    let mut cfg = base_config();
    cfg.faults_per_workload = 18;
    let specs = plan_shards(&cfg, 3);
    let mut shards: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();

    let mut dme_cfg = cfg.clone();
    dme_cfg.redundancy = RedundancyMode::Dme;
    let foreign = run_shard(&dme_cfg, &specs[0]);
    assert_eq!(foreign.shard.as_ref().unwrap().redundancy, "dme");
    shards[0] = foreign;
    assert!(
        merge_shard_archives(&shards).is_err(),
        "shards from different redundancy modes must not merge"
    );
}

/// Sharded LR7 campaigns merge back byte-identical to the single-shot
/// run, shard provenance records the core, and shards from different
/// cores refuse to merge.
#[test]
fn lr7_shards_merge_byte_identical_and_refuse_foreign_cores() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 18;
    let single = CampaignArchive::from_result(&run_campaign(&cfg));

    let specs = plan_shards(&cfg, 3);
    let shards: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();
    for shard in &shards {
        assert_eq!(shard.shard.as_ref().unwrap().core, "lr7");
    }
    let mut merged = merge_shard_archives(&shards).expect("sibling shards merge");
    let mut single_norm = single;
    merged.stats = CampaignStats::default();
    single_norm.stats = CampaignStats::default();
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&single_norm).unwrap(),
        "merged LR7 shards must be byte-identical to the single-shot campaign"
    );

    // An LR5 shard of the otherwise-identical campaign is a different
    // job; merging must refuse, not silently mix cores.
    let mut lr5_cfg = cfg.clone();
    lr5_cfg.core = CoreKind::Lr5;
    let lr5_specs = plan_shards(&lr5_cfg, 3);
    let foreign = run_shard(&lr5_cfg, &lr5_specs[0]);
    let mixed = vec![foreign, shards[1].clone(), shards[2].clone()];
    assert!(
        merge_shard_archives(&mixed).is_err(),
        "shards from different core models must not merge"
    );
}
