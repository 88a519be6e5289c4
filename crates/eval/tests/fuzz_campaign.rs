//! Campaigns over fuzz-generated workloads are first-class citizens:
//! `--workloads fuzz:42` must behave exactly like a kernel campaign —
//! reproducible to the byte, archivable, and reloadable — with the
//! generator seed carried in the archive (format v5) so the program set
//! can be regenerated forever.

use lockstep_eval::archive::{CampaignArchive, FuzzSpecRepr};
use lockstep_eval::campaign::{run_campaign, CampaignConfig, CampaignResult, CampaignStats};
use lockstep_eval::cli;

fn fuzz42_config(threads: usize) -> CampaignConfig {
    // Built through the CLI layer on purpose: this is the config a user
    // typing `--workloads fuzz:42:4` actually gets.
    let cfg = cli::parse(
        ["prog", "--workloads", "fuzz:42:4", "--faults", "60", "--seed", "5", "--threads"]
            .iter()
            .map(|s| (*s).to_owned())
            .chain([threads.to_string()]),
    );
    CampaignConfig { capture_window: 8, ..cfg }
}

fn archive_bytes(result: &CampaignResult) -> String {
    let mut archive = CampaignArchive::from_result(result);
    // Wall-clock throughput numbers differ between runs; everything
    // else must not.
    archive.stats = CampaignStats::default();
    serde_json::to_string(&archive).expect("archive serializes")
}

#[test]
fn fuzz_campaign_is_byte_identical_on_rerun() {
    let first = run_campaign(&fuzz42_config(2));
    let second = run_campaign(&fuzz42_config(2));
    assert_eq!(archive_bytes(&first), archive_bytes(&second));
    // And across thread counts — workload expansion order and record
    // order are deterministic.
    let wide = run_campaign(&fuzz42_config(4));
    assert_eq!(archive_bytes(&first), archive_bytes(&wide));
}

#[test]
fn fuzz_campaign_archive_round_trips_with_seed() {
    let result = run_campaign(&fuzz42_config(2));
    let dir = std::env::temp_dir().join(format!("lr5-fuzz-campaign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fuzz42.json");
    let archive = CampaignArchive::from_result(&result);
    assert_eq!(archive.fuzz, vec![FuzzSpecRepr { seed: 42, count: 4 }]);
    archive.save(&path).unwrap();

    let loaded = CampaignArchive::load(&path).unwrap();
    assert_eq!(loaded.fuzz, vec![FuzzSpecRepr { seed: 42, count: 4 }]);
    assert_eq!(loaded.fuzz_spec_strings(), vec!["fuzz:42:4".to_owned()]);
    // The recorded spec string regenerates the identical workload set.
    let replayed = cli::parse([
        "prog".to_owned(),
        "--workloads".to_owned(),
        loaded.fuzz_spec_strings().join(","),
    ]);
    let restored = loaded.into_result().unwrap();
    assert_eq!(replayed.workloads.len(), restored.golden.len());
    for (w, (name, _)) in replayed.workloads.iter().zip(&restored.golden) {
        assert_eq!(w.name, *name);
    }
    std::fs::remove_dir_all(&dir).ok();
}
