//! The shard layer's correctness contract: a campaign cut into
//! resumable shards — including one **killed at an arbitrary shard
//! boundary and resumed by a fresh process from the persisted shard
//! archives** — must merge to an archive **byte-identical** to the
//! uninterrupted single-shot run, across shard cuts, thread counts,
//! comparators, and batch modes. This is what lets `lockstep-serve`
//! requeue timed-out shards and resume in-flight jobs after a restart
//! without ever corrupting a result.
//!
//! The "kill" is simulated faithfully to the service's failure model:
//! the first lifetime runs a prefix of the shards and persists each as
//! a v7 archive file (the unit of durability — a shard either fully
//! completes its atomic write or is re-run); the second lifetime knows
//! nothing of the first except those files, reloads them, runs the
//! missing shards, and merges.

use lockstep_core::{ErrorRecord, RedundancyMode};
use lockstep_cpu::CoreKind;
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::batch::BatchConfig;
use lockstep_eval::campaign::{run_campaign, CampaignConfig, CampaignStats};
use lockstep_eval::shard::{merge_shard_archives, plan_shards, run_shard};
use lockstep_workloads::Workload;
use proptest::prelude::*;

fn base_config() -> CampaignConfig {
    CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        threads: 4,
        checkpoint_interval: Some(4096),
        ..CampaignConfig::new(30, 77)
    }
}

/// Serialized archive with the throughput stats normalized out:
/// everything an analysis consumes — records, injection counts, golden
/// data, trace blobs, provenance — byte-for-byte.
fn archive_bytes(mut archive: CampaignArchive) -> String {
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

/// Runs `config` sharded `shard_count` ways with a simulated kill after
/// `kill_after` completed shards: the prefix is persisted to `dir`,
/// dropped from memory, and reloaded by the "restarted" lifetime that
/// finishes the job. Returns the merged archive.
fn run_with_kill_and_resume(
    config: &CampaignConfig,
    shard_count: usize,
    kill_after: usize,
    dir: &std::path::Path,
) -> CampaignArchive {
    let specs = plan_shards(config, shard_count);
    let kill_after = kill_after.min(specs.len());
    std::fs::create_dir_all(dir).unwrap();

    // Lifetime 1: complete a prefix, persisting each shard archive.
    for spec in &specs[..kill_after] {
        let path = dir.join(format!("shard-{:04}.json", spec.index));
        run_shard(config, spec).save(&path).unwrap();
    }
    // <-- kill: everything in memory is lost here.

    // Lifetime 2: recover the persisted shards, run the rest, merge.
    let mut archives: Vec<CampaignArchive> = specs[..kill_after]
        .iter()
        .map(|spec| {
            let path = dir.join(format!("shard-{:04}.json", spec.index));
            CampaignArchive::load(&path).expect("persisted shard archive reloads")
        })
        .collect();
    for spec in &specs[kill_after..] {
        archives.push(run_shard(config, spec));
    }
    for file in std::fs::read_dir(dir).unwrap() {
        std::fs::remove_file(file.unwrap().path()).ok();
    }
    merge_shard_archives(&archives).expect("complete shard set merges")
}

proptest! {
    // Whole campaigns per case are expensive; a handful of sampled
    // points on top of the fixed-grid tests below.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The satellite contract: kill-at-arbitrary-shard-boundary +
    /// resume merges byte-identical to the uninterrupted single-shot
    /// archive, across shard cuts × kill points × thread counts × batch
    /// modes.
    #[test]
    fn killed_and_resumed_job_merges_byte_identical(
        seed in 1u64..10_000,
        faults in 8usize..40,
        shard_count in 1usize..8,
        kill_frac in 0u32..=100,
        threads in 1usize..=4,
        batched in any::<bool>(),
    ) {
        let mut cfg = base_config();
        cfg.seed = seed;
        cfg.faults_per_workload = faults;
        cfg.threads = threads;
        cfg.batch = batched.then_some(BatchConfig::FULL);

        let single = run_campaign(&cfg);
        let kill_after = shard_count * kill_frac as usize / 100;
        let dir = std::env::temp_dir()
            .join(format!("lockstep_shard_resume_p{seed}_{shard_count}_{kill_frac}"));
        let merged = run_with_kill_and_resume(&cfg, shard_count, kill_after, &dir);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(
            archive_bytes(merged),
            archive_bytes(CampaignArchive::from_result(&single)),
            "sharded merge diverged (seed {}, {} faults, {} shards, kill after {}, {} threads)",
            seed, faults, shard_count, kill_after, threads
        );
    }
}

/// Fixed-grid version: every shard count from "one shard = the whole
/// job" to "one shard per fault", merged with no kill, byte-identical
/// to single-shot.
#[test]
fn sharded_merge_byte_identical_across_shard_counts() {
    let cfg = base_config();
    let single = run_campaign(&cfg);
    assert!(!single.records.is_empty(), "campaign must manifest errors");
    let reference = archive_bytes(CampaignArchive::from_result(&single));
    for shard_count in [1usize, 2, 3, 7, 60] {
        let specs = plan_shards(&cfg, shard_count);
        let archives: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();
        let merged = merge_shard_archives(&archives).unwrap();
        assert_eq!(
            archive_bytes(merged),
            reference,
            "merge of {shard_count} shards diverged from single-shot"
        );
    }
}

/// Divergence traces ride shard archives and re-merge: trace blobs are
/// re-numbered into the merged record order, matching the single-shot
/// trace stream exactly.
#[test]
fn traced_sharded_merge_byte_identical() {
    let mut cfg = base_config();
    cfg.trace_window = Some(16);
    let single = run_campaign(&cfg);
    assert!(
        single.traces.iter().any(Option::is_some),
        "traced campaign must record divergence traces"
    );
    let specs = plan_shards(&cfg, 4);
    let archives: Vec<CampaignArchive> = specs.iter().map(|s| run_shard(&cfg, s)).collect();
    let merged = merge_shard_archives(&archives).unwrap();
    assert_eq!(archive_bytes(merged), archive_bytes(CampaignArchive::from_result(&single)));
}

/// Re-running a shard is idempotent: the service's first-writer-wins
/// completion (a timed-out shard may finish twice) is safe because both
/// runs produce byte-identical archives.
#[test]
fn shard_reruns_are_byte_identical() {
    let cfg = base_config();
    let specs = plan_shards(&cfg, 3);
    for spec in &specs {
        let a = archive_bytes(run_shard(&cfg, spec));
        let b = archive_bytes(run_shard(&cfg, spec));
        assert_eq!(a, b, "shard {} is not deterministic", spec.index);
    }
}

/// Record order under ties: a transient and a stuck-at can agree on the
/// whole sort key (strike, detection, unit, DSR) and still be different
/// records. Ties go to plan position, so neither the worker-thread
/// interleaving nor the order the shards reach the merge can move a
/// record. This kernel and seed produce such ties under both the port
/// comparator and DME's retire-stream comparator.
#[test]
fn tied_records_keep_plan_order_across_threads_and_shard_order() {
    for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
        let cfg = CampaignConfig {
            workloads: vec![Workload::find("iirflt").unwrap()],
            threads: 1,
            redundancy,
            ..CampaignConfig::new(320, 356_886_671_717_437_341)
        };
        let single = run_campaign(&cfg);
        let key = |r: &ErrorRecord| (r.inject_cycle, r.detect_cycle, r.unit_index, r.dsr);
        assert!(
            single.records.windows(2).any(|w| key(&w[0]) == key(&w[1]) && w[0] != w[1]),
            "{redundancy:?}: the fixture must contain distinct records that tie on the key"
        );
        for threads in [2, 4] {
            let mut threaded = cfg.clone();
            threaded.threads = threads;
            assert_eq!(
                run_campaign(&threaded).records,
                single.records,
                "{redundancy:?}: {threads} threads reordered tied records"
            );
        }
        let mut archives: Vec<CampaignArchive> =
            plan_shards(&cfg, 8).iter().map(|s| run_shard(&cfg, s)).collect();
        archives.reverse();
        let merged = merge_shard_archives(&archives).expect("complete shard set merges");
        assert_eq!(
            merged.records, single.records,
            "{redundancy:?}: shard order leaked into the merge"
        );
    }
}

/// A job resumed across an engine change. On LR5 the first half of its
/// shards ran on the scalar engine and the rest on the full batch
/// engine. On LR7 the first half ran fan-out only, as every LR7 batch
/// shard did while LR7 clamped its layers (those shards say
/// `"fanout"`), and the rest ran `full`. The batch mode never changes a
/// record, so the shards still form one job and merge byte-identical to
/// the single-shot campaign, under the port comparator and DME's
/// retire-stream comparator alike; the merged stats name the mix.
#[test]
fn shards_from_different_batch_modes_merge_byte_identical() {
    for (core, older) in [(CoreKind::Lr5, None), (CoreKind::Lr7, Some(BatchConfig::FAN_OUT))] {
        for redundancy in [RedundancyMode::Fixed, RedundancyMode::Dme] {
            let cfg = CampaignConfig { core, redundancy, ..base_config() };
            let single = run_campaign(&cfg);
            assert!(!single.records.is_empty(), "{core} {redundancy:?}: campaign must manifest");
            let specs = plan_shards(&cfg, 4);
            let archives: Vec<CampaignArchive> = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let batch = if i < specs.len() / 2 { older } else { Some(BatchConfig::FULL) };
                    run_shard(&CampaignConfig { batch, ..cfg.clone() }, spec)
                })
                .collect();
            let older_label = older.map_or("off", BatchConfig::label);
            assert_eq!(archives[0].shard.as_ref().unwrap().batch_mode, older_label);
            assert_eq!(archives[3].shard.as_ref().unwrap().batch_mode, "full");
            let merged = merge_shard_archives(&archives).expect("mixed-engine shards merge");
            assert_eq!(merged.stats.batch_mode, "mixed");
            assert_eq!(
                archive_bytes(merged),
                archive_bytes(CampaignArchive::from_result(&single)),
                "{core} {redundancy:?}: mixed-engine merge diverged from single-shot"
            );
        }
    }
}

/// Full-suite sweep, tier-2 only: the whole workload suite sharded
/// seven ways with a mid-job kill, byte-identical to single-shot.
#[cfg(feature = "slow-tests")]
#[test]
#[ignore = "full-suite sweep; run with --features slow-tests -- --ignored"]
fn full_suite_killed_and_resumed_merge_byte_identical() {
    let mut cfg = base_config();
    cfg.workloads = Workload::all().iter().collect();
    cfg.faults_per_workload = 60;
    cfg.batch = Some(BatchConfig::FULL);
    let single = run_campaign(&cfg);
    let dir = std::env::temp_dir().join("lockstep_shard_resume_full");
    let merged = run_with_kill_and_resume(&cfg, 7, 3, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(archive_bytes(merged), archive_bytes(CampaignArchive::from_result(&single)));
}
