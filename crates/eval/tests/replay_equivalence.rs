//! The shadow-golden replay engine's correctness contract: a campaign
//! replayed in shadow mode (faulty CPU vs the recorded golden port
//! trace) must be **byte-identical** to the same campaign replayed in
//! full lockstep mode (faulty CPU vs live fault-free golden twins) —
//! same records in the same order, same trace blobs, same masked set —
//! for every checkpoint spacing, thread count, and tracing setting.
//! The ~2x simulation saving is only usable because this equivalence
//! is exact.
//!
//! Archives are compared as serialized bytes with the stats block
//! normalized out: stats carry wall-clock timings and the mode label
//! itself, which are *supposed* to differ between the two runs.

use std::sync::Arc;

use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::campaign::{
    run_campaign, CampaignConfig, CampaignResult, CampaignStats, ReplayMode,
};
use lockstep_obs::{EventSink, JsonlSink};
use lockstep_workloads::Workload;

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

fn run_mode(cfg: &CampaignConfig, mode: ReplayMode) -> CampaignResult {
    let mut cfg = cfg.clone();
    cfg.replay_mode = mode;
    run_campaign(&cfg)
}

/// The tentpole equivalence: byte-identical archives across replay
/// modes, for checkpointing off, dense, and default spacing.
#[test]
fn archives_byte_identical_across_replay_modes() {
    for interval in [None, Some(512), Some(4096)] {
        let mut cfg = base_config();
        cfg.checkpoint_interval = interval;
        let shadow = run_mode(&cfg, ReplayMode::Shadow);
        let lockstep = run_mode(&cfg, ReplayMode::Lockstep);
        assert!(!shadow.records.is_empty(), "campaign must manifest errors");
        assert_eq!(
            archive_bytes(&shadow),
            archive_bytes(&lockstep),
            "replay mode changed the archive at checkpoint interval {interval:?}"
        );
        assert_eq!(shadow.stats.replay_mode, "shadow");
        assert_eq!(lockstep.stats.replay_mode, "lockstep");
    }
}

/// Thread-count independence holds in both modes (the record stream is
/// re-sorted into campaign order after the shared queue drains).
#[test]
fn archives_byte_identical_across_thread_counts() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 25;
    let mut seen: Vec<(ReplayMode, String)> = Vec::new();
    for mode in [ReplayMode::Shadow, ReplayMode::Lockstep] {
        for threads in [1usize, 2, 8] {
            let mut c = cfg.clone();
            c.threads = threads;
            let bytes = archive_bytes(&run_mode(&c, mode));
            if let Some((_, reference)) = seen.iter().find(|(m, _)| *m == mode) {
                assert_eq!(&bytes, reference, "{mode:?} archive depends on thread count");
            } else {
                seen.push((mode, bytes));
            }
        }
    }
    // And across modes too, down to one worker.
    assert_eq!(seen[0].1, seen[1].1, "modes disagree");
}

/// Divergence traces (the `--trace-window` path) are part of the
/// archive and must also be mode-independent: both modes step the
/// faulty CPU identically, and the trace samples observe only it.
#[test]
fn traced_archives_byte_identical_across_replay_modes() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 30;
    cfg.trace_window = Some(32);
    let shadow = run_mode(&cfg, ReplayMode::Shadow);
    let lockstep = run_mode(&cfg, ReplayMode::Lockstep);
    assert!(
        shadow.traces.iter().any(|t| t.is_some()),
        "traced campaign must record divergence traces"
    );
    assert_eq!(shadow.traces, lockstep.traces, "trace blobs differ between replay modes");
    assert_eq!(archive_bytes(&shadow), archive_bytes(&lockstep));
}

/// The `--events` log tells the same story in both modes: identical
/// Inject/Detect/Masked/CheckpointHit/GoldenPass streams (compared as
/// single-threaded line sets with the wall-clock Span lines dropped).
#[test]
fn event_logs_identical_across_replay_modes() {
    fn event_lines(mode: ReplayMode, path: &std::path::Path) -> Vec<String> {
        let mut cfg = base_config();
        cfg.faults_per_workload = 20;
        cfg.threads = 1;
        cfg.replay_mode = mode;
        let sink = Arc::new(JsonlSink::create(path).unwrap());
        cfg.events = Some(sink.clone());
        let _ = run_campaign(&cfg);
        sink.flush();
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().filter(|l| !l.contains("\"type\":\"span\"")).map(str::to_owned).collect()
    }
    let dir = std::env::temp_dir().join("lockstep_replay_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let shadow_path = dir.join("shadow.jsonl");
    let lockstep_path = dir.join("lockstep.jsonl");
    let shadow = event_lines(ReplayMode::Shadow, &shadow_path);
    let lockstep = event_lines(ReplayMode::Lockstep, &lockstep_path);
    assert!(shadow.iter().any(|l| l.contains("\"type\":\"detect\"")), "no detections logged");
    assert!(
        shadow.iter().any(|l| l.contains("\"type\":\"checkpoint_hit\"")),
        "no checkpoint hits logged"
    );
    assert_eq!(shadow, lockstep, "event streams differ between replay modes");
    std::fs::remove_file(&shadow_path).ok();
    std::fs::remove_file(&lockstep_path).ok();
}

/// Full-suite sweep, tier-2 only: every workload, both modes, traced,
/// byte-identical. This is the heavyweight version of the fast tests
/// above (one golden pass + two replay passes over all 12 kernels).
#[cfg(feature = "slow-tests")]
#[test]
#[ignore = "full-suite sweep; run with --features slow-tests -- --ignored"]
fn full_suite_archives_byte_identical_across_replay_modes() {
    let mut cfg = base_config();
    cfg.workloads = Workload::all().iter().collect();
    cfg.faults_per_workload = 100;
    cfg.trace_window = Some(32);
    let shadow = run_mode(&cfg, ReplayMode::Shadow);
    let lockstep = run_mode(&cfg, ReplayMode::Lockstep);
    assert!(shadow.records.len() > 100, "sweep too sparse");
    assert_eq!(archive_bytes(&shadow), archive_bytes(&lockstep));
}

/// Shadow replay is DMR-only: an N>2 configuration has a majority to
/// vote with, which a recorded trace cannot reproduce, so the campaign
/// falls back to full lockstep replay. For single faults the majority
/// of identical fault-free twins degenerates to the pairwise compare,
/// so the records still match the DMR run bit-for-bit.
#[test]
fn tmr_config_falls_back_to_lockstep_replay() {
    let mut cfg = base_config();
    cfg.faults_per_workload = 25;

    let dmr = run_mode(&cfg, ReplayMode::Shadow);
    assert_eq!(dmr.stats.replay_mode, "shadow");

    let mut tmr_cfg = cfg.clone();
    tmr_cfg.cpus = 3;
    assert_eq!(tmr_cfg.effective_replay_mode(), ReplayMode::Lockstep);
    tmr_cfg.replay_mode = ReplayMode::Shadow; // explicitly requested, still overridden
    let tmr = run_campaign(&tmr_cfg);
    assert_eq!(tmr.stats.replay_mode, "lockstep", "TMR must not shadow-replay");
    assert_eq!(archive_bytes(&dmr), archive_bytes(&tmr));
}
