//! Campaign archives: the "lockstep error data logging" stage of
//! Figure 7 as a durable artifact.
//!
//! The paper's flow separates data collection (two weeks on a cluster)
//! from model development. [`CampaignArchive`] serializes everything an
//! analysis needs — error records, injection counts, golden-run timing —
//! so one expensive campaign can feed any number of later experiments
//! (`export_dataset` / `analyze_dataset` binaries).

use std::io::{Read, Write};
use std::path::Path;

use lockstep_core::ErrorRecord;
use lockstep_cpu::UnitId;
use lockstep_obs::DivergenceTrace;
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignResult, CampaignStats};
use crate::shard::ShardRepr;

/// Serializable mirror of a workload's golden-run data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRunRepr {
    /// Total cycles from reset to halt.
    pub cycles: u64,
    /// Rolling output checksum.
    pub output_checksum: u32,
    /// Retired instructions.
    pub instructions: u64,
}

/// Fuzz-generated workload provenance: one seeded generator sweep the
/// campaign drew programs from (v5+).
///
/// With this on record, `--workloads fuzz:<seed>:<count>` reproduces
/// the exact program set of an archived campaign — the generator is a
/// pure function of `(seed, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzSpecRepr {
    /// Generator seed.
    pub seed: u64,
    /// Number of generated programs from this seed.
    pub count: u32,
}

/// Compiled-workload provenance: which LC kernels the campaign drew
/// from the compiled registry and which compiler built them (v10+).
///
/// With this on record, `--workloads lc:<kernel>` reproduces the exact
/// program set of an archived campaign as long as the compiler version
/// matches — the registry interns one program per kernel per build.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LcProvenanceRepr {
    /// `lockstep-cc` version that compiled the kernels.
    pub compiler_version: String,
    /// Compiled kernel names (without the `lc_` prefix), sorted.
    pub kernels: Vec<String>,
}

/// A complete, serializable campaign result.
///
/// `Deserialize` is written by hand (rather than derived) so that the
/// fields added in later format versions are *optional on read*: a v3
/// reader loads a v2 file by defaulting the missing `traces` to empty.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignArchive {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Manifested error records.
    pub records: Vec<ErrorRecord>,
    /// Total injected faults.
    pub injected: usize,
    /// Per-fine-unit injected counts `[soft, hard]`.
    pub injected_per_unit: Vec<[u64; 2]>,
    /// Per-workload golden data.
    pub golden: Vec<(String, GoldenRunRepr)>,
    /// Throughput instrumentation of the producing run (v2+).
    pub stats: CampaignStats,
    /// Divergence trace blobs aligned with `records` (v3+; empty when
    /// the campaign ran without tracing or the file predates v3).
    pub traces: Vec<Option<DivergenceTrace>>,
    /// Fuzz generator seeds behind any `fuzz*` workloads (v5+; empty
    /// for kernel-only campaigns or files that predate v5). Sorted by
    /// seed.
    pub fuzz: Vec<FuzzSpecRepr>,
    /// Shard provenance (v7+). `Some` marks a *partial* archive — one
    /// shard of a larger job, mergeable with its siblings via
    /// [`crate::shard::merge_shard_archives`]. `None` for single-shot
    /// and merged archives, and for files that predate v7.
    pub shard: Option<ShardRepr>,
    /// Compiler provenance behind any `lc_*` workloads (v10+; `None`
    /// for campaigns without compiled workloads and for files that
    /// predate v10).
    pub lc: Option<LcProvenanceRepr>,
}

impl Deserialize for CampaignArchive {
    fn deserialize(value: &Value) -> Result<CampaignArchive, JsonError> {
        Ok(CampaignArchive {
            version: u32::try_from(value.field("version")?.as_u64()?)
                .map_err(|_| JsonError::new("version out of range"))?,
            records: Deserialize::deserialize(value.field("records")?)?,
            injected: usize::try_from(value.field("injected")?.as_u64()?)
                .map_err(|_| JsonError::new("injected out of range"))?,
            injected_per_unit: Deserialize::deserialize(value.field("injected_per_unit")?)?,
            golden: Deserialize::deserialize(value.field("golden")?)?,
            stats: Deserialize::deserialize(value.field("stats")?)?,
            traces: match value.field("traces") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => Vec::new(), // pre-v3 file
            },
            fuzz: match value.field("fuzz") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => Vec::new(), // pre-v5 file
            },
            shard: match value.field("shard") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => None, // pre-v7 file
            },
            lc: match value.field("lc") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => None, // pre-v10 file
            },
        })
    }
}

/// Errors from loading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON.
    Json(serde_json::Error),
    /// Unsupported format version.
    Version(u32),
    /// A record names a unit that does not exist: its `unit_index` is
    /// not below `UnitId::ALL.len()`.
    UnitIndex {
        /// Position of the record in `records`.
        record: usize,
        /// The out-of-range index it carries.
        unit_index: u8,
    },
    /// `injected_per_unit` has more entries than there are units, so the
    /// per-unit rates would index past `UnitId::ALL`.
    InjectedUnits {
        /// The number of entries it carries.
        len: usize,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive i/o error: {e}"),
            ArchiveError::Json(e) => write!(f, "archive parse error: {e}"),
            ArchiveError::Version(v) => write!(f, "unsupported archive version {v}"),
            ArchiveError::UnitIndex { record, unit_index } => write!(
                f,
                "record {record} has unit_index {unit_index}, but there are only {} units",
                UnitId::ALL.len()
            ),
            ArchiveError::InjectedUnits { len } => write!(
                f,
                "injected_per_unit has {len} entries, but there are only {} units",
                UnitId::ALL.len()
            ),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<serde_json::Error> for ArchiveError {
    fn from(e: serde_json::Error) -> Self {
        ArchiveError::Json(e)
    }
}

/// Current archive format version. v2 added the `stats` block
/// (campaign throughput instrumentation); v3 added the optional
/// `traces` blobs (divergence trace recorder); v4 records the replay
/// mode in the stats block; v5 records the generator seeds of
/// fuzz-generated workloads; v6 records batch-mode provenance in the
/// stats block (`batch_mode` plus the early-out/parked-lane savings
/// counters); v7 adds the optional `shard` provenance block marking
/// partial archives produced by [`crate::shard::run_shard`]; v8
/// records the core model (`core` in the stats block and in shard
/// provenance) now that campaigns can replay on either the in-order
/// LR5 or the out-of-order LR7; v9 records the redundancy arrangement
/// (`redundancy` in the stats block and in shard provenance) now that
/// campaigns can compare the copies under fixed DMR, dynamic pairing,
/// or diverse-memory execution; v10 adds the optional `lc` compiler
/// provenance block now that campaigns can run LC kernels compiled by
/// `lockstep-cc` (which compiler version built them, and which
/// kernels); v11 drops the replay mode from the stats block and from
/// shard provenance (only shadow replay remains) and writes only the
/// `fixed` / `dme` redundancy labels.
pub const ARCHIVE_VERSION: u32 = 11;

/// Oldest format version [`CampaignArchive::load`] still accepts. v2
/// files simply have no trace blobs, pre-v4 stats blocks default to
/// shadow replay (the only mode that existed before v4), pre-v5 files
/// default to no fuzz provenance, pre-v6 stats blocks default to
/// batch mode `"off"` (the scalar engines were all that existed),
/// pre-v7 files default to no shard provenance (they are complete
/// single-shot archives by construction), pre-v8 files default the
/// core model to `"lr5"` (the only core that existed before v8),
/// pre-v9 files default the redundancy arrangement to `"fixed"` (the
/// only comparison that existed before v9), pre-v10 files default to
/// no compiler provenance (compiled workloads did not exist yet), and
/// the `replay_mode` label of v4–v10 files is ignored (both replay
/// modes gave identical records).
pub const MIN_ARCHIVE_VERSION: u32 = 2;

impl CampaignArchive {
    /// Captures a campaign result.
    pub fn from_result(result: &CampaignResult) -> CampaignArchive {
        CampaignArchive {
            version: ARCHIVE_VERSION,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: result
                .golden
                .iter()
                .map(|(name, g)| {
                    (
                        (*name).to_owned(),
                        GoldenRunRepr {
                            cycles: g.cycles,
                            output_checksum: g.output_checksum,
                            instructions: g.instructions,
                        },
                    )
                })
                .collect(),
            stats: result.stats.clone(),
            traces: result.traces.clone(),
            fuzz: fuzz_provenance(result),
            shard: None,
            lc: lc_provenance_from_names(result.golden.iter().map(|(name, _)| *name)),
        }
    }

    /// Reconstructs a [`CampaignResult`] for the analysis code paths.
    ///
    /// # Panics
    ///
    /// Panics if the archive references a workload name not present in
    /// the bundled suite (archives are only loadable by builds that know
    /// their workloads).
    pub fn into_result(self) -> CampaignResult {
        let golden = self
            .golden
            .into_iter()
            .map(|(name, g)| {
                let w = lockstep_workloads::Workload::find(&name)
                    .unwrap_or_else(|| panic!("archive references unknown workload `{name}`"));
                (
                    w.name,
                    lockstep_workloads::GoldenRun {
                        halted: true,
                        cycles: g.cycles,
                        output_checksum: g.output_checksum,
                        outputs: 0,
                        instructions: g.instructions,
                    },
                )
            })
            .collect();
        CampaignResult {
            records: self.records,
            injected: self.injected,
            injected_per_unit: self.injected_per_unit,
            golden,
            stats: self.stats,
            traces: self.traces,
            events: None,
        }
    }

    /// The fuzz spec string (`fuzz:<seed>:<count>`) reproducing each
    /// generated-workload sweep this archive drew from, if any.
    pub fn fuzz_spec_strings(&self) -> Vec<String> {
        self.fuzz.iter().map(|f| format!("fuzz:{}:{}", f.seed, f.count)).collect()
    }

    /// Writes the archive as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError`] on filesystem or serialization failure.
    pub fn save(&self, path: &Path) -> Result<(), ArchiveError> {
        let mut file = std::fs::File::create(path)?;
        let json = serde_json::to_string(self)?;
        file.write_all(json.as_bytes())?;
        Ok(())
    }

    /// Loads an archive from JSON.
    ///
    /// Every record's unit index and the length of `injected_per_unit`
    /// are checked here, so the analysis and training paths downstream
    /// ([`ErrorRecord::unit`], `CampaignResult::manifestation_rates`)
    /// can index the unit table without panicking on a corrupt file.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError`] on filesystem, parse or version
    /// mismatch, on a record whose unit index is out of range, or on an
    /// `injected_per_unit` longer than the unit table.
    pub fn load(path: &Path) -> Result<CampaignArchive, ArchiveError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        let archive: CampaignArchive = serde_json::from_str(&text)?;
        if !(MIN_ARCHIVE_VERSION..=ARCHIVE_VERSION).contains(&archive.version) {
            return Err(ArchiveError::Version(archive.version));
        }
        let bad =
            archive.records.iter().position(|r| usize::from(r.unit_index) >= UnitId::ALL.len());
        if let Some(record) = bad {
            let unit_index = archive.records[record].unit_index;
            return Err(ArchiveError::UnitIndex { record, unit_index });
        }
        let len = archive.injected_per_unit.len();
        if len > UnitId::ALL.len() {
            return Err(ArchiveError::InjectedUnits { len });
        }
        Ok(archive)
    }
}

/// Derives fuzz provenance from the campaign's golden workload names:
/// `fuzzS_III` names group by seed, with `count` the number of programs
/// seen per seed. Kernel workloads contribute nothing.
fn fuzz_provenance(result: &CampaignResult) -> Vec<FuzzSpecRepr> {
    fuzz_provenance_from_names(result.golden.iter().map(|(name, _)| *name))
}

/// [`fuzz_provenance`] over bare workload names — shared with the
/// shard merge, which reconstructs provenance from merged golden data.
pub(crate) fn fuzz_provenance_from_names<'a>(
    names: impl Iterator<Item = &'a str>,
) -> Vec<FuzzSpecRepr> {
    let mut per_seed: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for name in names {
        if let Some((seed, _index)) = lockstep_workloads::fuzz::parse_name(name) {
            *per_seed.entry(seed).or_insert(0) += 1;
        }
    }
    per_seed.into_iter().map(|(seed, count)| FuzzSpecRepr { seed, count }).collect()
}

/// Derives compiler provenance from workload names: `lc_*` names map
/// back to their kernel and are recorded alongside the `lockstep-cc`
/// version baked into this build. `None` when no compiled workloads
/// participated. Shared with the shard merge.
pub(crate) fn lc_provenance_from_names<'a>(
    names: impl Iterator<Item = &'a str>,
) -> Option<LcProvenanceRepr> {
    let mut kernels: Vec<String> = names
        .filter_map(|name| lockstep_workloads::lc::parse_name(name))
        .map(str::to_owned)
        .collect();
    if kernels.is_empty() {
        return None;
    }
    kernels.sort();
    kernels.dedup();
    Some(LcProvenanceRepr { compiler_version: lockstep_cc::COMPILER_VERSION.to_owned(), kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use lockstep_core::RedundancyMode;
    use lockstep_cpu::CoreKind;
    use lockstep_workloads::Workload;

    fn small_result() -> CampaignResult {
        run_campaign(&CampaignConfig {
            workloads: vec![Workload::find("idctrn").unwrap()],
            faults_per_workload: 120,
            seed: 5,
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(1024),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        })
    }

    #[test]
    fn round_trip_preserves_analysis_inputs() {
        let result = small_result();
        let archive = CampaignArchive::from_result(&result);
        let json = serde_json::to_string(&archive).unwrap();
        let back: CampaignArchive = serde_json::from_str(&json).unwrap();
        let restored = back.into_result();
        assert_eq!(restored.records, result.records);
        assert_eq!(restored.stats, result.stats);
        assert_eq!(restored.injected, result.injected);
        assert_eq!(restored.injected_per_unit, result.injected_per_unit);
        assert_eq!(restored.restart_cycles("idctrn"), result.restart_cycles("idctrn"));
    }

    #[test]
    fn save_and_load_file() {
        let result = small_result();
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.json");
        CampaignArchive::from_result(&result).save(&path).unwrap();
        let loaded = CampaignArchive::load(&path).unwrap();
        assert_eq!(loaded.records.len(), result.records.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traced_round_trip_preserves_trace_blobs() {
        let mut cfg = CampaignConfig {
            workloads: vec![Workload::find("idctrn").unwrap()],
            faults_per_workload: 120,
            seed: 5,
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(1024),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        };
        cfg.trace_window = Some(16);
        let result = run_campaign(&cfg);
        assert!(!result.records.is_empty());
        let archive = CampaignArchive::from_result(&result);
        assert_eq!(archive.version, ARCHIVE_VERSION);
        let json = serde_json::to_string(&archive).unwrap();
        let back: CampaignArchive = serde_json::from_str(&json).unwrap();
        assert_eq!(back.traces, result.traces);
        let restored = back.into_result();
        assert_eq!(restored.traces.len(), restored.records.len());
        for (r, t) in restored.records.iter().zip(&restored.traces) {
            assert_eq!(t.as_ref().unwrap().final_dsr_bits(), r.dsr.bits());
        }
    }

    #[test]
    fn v2_archive_without_traces_still_loads() {
        // A v2 writer serialized exactly these fields — no `traces`.
        #[derive(Serialize)]
        struct ArchiveV2 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: CampaignStats,
        }
        let result = small_result();
        let v2 = ArchiveV2 {
            version: 2,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: result.stats.clone(),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2_compat.json");
        std::fs::write(&path, serde_json::to_string(&v2).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v3 reader must accept v2 files");
        assert_eq!(loaded.version, 2);
        assert!(loaded.traces.is_empty(), "pre-v3 files default to no traces");
        assert_eq!(loaded.records, result.records);
        let restored = loaded.into_result();
        assert_eq!(restored.restart_cycles("idctrn"), result.restart_cycles("idctrn"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v4_stats_without_replay_mode_still_loads() {
        // v2/v3 writers predate replay modes: their stats block has no
        // `replay_mode` field.
        #[derive(Serialize)]
        struct StatsV3 {
            checkpoint_interval: u64,
            injected: u64,
            manifested: u64,
            masked: u64,
            golden_nanos: u64,
            injection_nanos: u64,
            wall_nanos: u64,
            injections_per_sec: f64,
            per_workload: Vec<crate::campaign::WorkloadStats>,
        }
        #[derive(Serialize)]
        struct ArchiveV3 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: StatsV3,
            traces: Vec<Option<lockstep_obs::DivergenceTrace>>,
        }
        let result = small_result();
        let s = &result.stats;
        let v3 = ArchiveV3 {
            version: 3,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: StatsV3 {
                checkpoint_interval: s.checkpoint_interval,
                injected: s.injected,
                manifested: s.manifested,
                masked: s.masked,
                golden_nanos: s.golden_nanos,
                injection_nanos: s.injection_nanos,
                wall_nanos: s.wall_nanos,
                injections_per_sec: s.injections_per_sec,
                per_workload: s.per_workload.clone(),
            },
            traces: Vec::new(),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v3_compat.json");
        std::fs::write(&path, serde_json::to_string(&v3).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v4 reader must accept v3 files");
        assert_eq!(loaded.stats.injected, s.injected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v4_archive_without_fuzz_provenance_still_loads() {
        // A v4 writer serialized everything except the `fuzz` field.
        #[derive(Serialize)]
        struct ArchiveV4 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: CampaignStats,
            traces: Vec<Option<DivergenceTrace>>,
        }
        let result = small_result();
        let v4 = ArchiveV4 {
            version: 4,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: result.stats.clone(),
            traces: Vec::new(),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v4_compat.json");
        std::fs::write(&path, serde_json::to_string(&v4).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v5 reader must accept v4 files");
        assert_eq!(loaded.version, 4);
        assert!(loaded.fuzz.is_empty(), "pre-v5 files default to no fuzz provenance");
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v6_stats_without_batch_fields_defaults_to_off() {
        // v5 writers predate batch mode: their stats block has no
        // `batch_mode` or savings counters. Those runs were all scalar
        // per-fault replays.
        #[derive(Serialize)]
        struct StatsV5 {
            checkpoint_interval: u64,
            replay_mode: String,
            injected: u64,
            manifested: u64,
            masked: u64,
            golden_nanos: u64,
            injection_nanos: u64,
            wall_nanos: u64,
            injections_per_sec: f64,
            per_workload: Vec<crate::campaign::WorkloadStats>,
        }
        #[derive(Serialize)]
        struct ArchiveV5 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: StatsV5,
            traces: Vec<Option<DivergenceTrace>>,
            fuzz: Vec<FuzzSpecRepr>,
        }
        let result = small_result();
        let s = &result.stats;
        let v5 = ArchiveV5 {
            version: 5,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: StatsV5 {
                checkpoint_interval: s.checkpoint_interval,
                replay_mode: "shadow".to_owned(),
                injected: s.injected,
                manifested: s.manifested,
                masked: s.masked,
                golden_nanos: s.golden_nanos,
                injection_nanos: s.injection_nanos,
                wall_nanos: s.wall_nanos,
                injections_per_sec: s.injections_per_sec,
                per_workload: s.per_workload.clone(),
            },
            traces: Vec::new(),
            fuzz: Vec::new(),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v5_compat.json");
        std::fs::write(&path, serde_json::to_string(&v5).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v6 reader must accept v5 files");
        assert_eq!(loaded.version, 5);
        assert_eq!(loaded.stats.batch_mode, "off", "pre-v6 runs were scalar");
        assert_eq!(loaded.stats.masked_early_out, 0);
        assert_eq!(loaded.stats.early_out_cycles_saved, 0);
        assert_eq!(loaded.stats.parked_masked, 0);
        assert_eq!(loaded.stats.lane_activations, 0);
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v6_archive_without_shard_provenance_still_loads() {
        // A v6 writer serialized everything except the `shard` field.
        #[derive(Serialize)]
        struct ArchiveV6 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: CampaignStats,
            traces: Vec<Option<DivergenceTrace>>,
            fuzz: Vec<FuzzSpecRepr>,
        }
        let result = small_result();
        let v6 = ArchiveV6 {
            version: 6,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: result.stats.clone(),
            traces: Vec::new(),
            fuzz: Vec::new(),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v6_compat.json");
        std::fs::write(&path, serde_json::to_string(&v6).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v7 reader must accept v6 files");
        assert_eq!(loaded.version, 6);
        assert!(loaded.shard.is_none(), "pre-v7 files are complete single-shot archives");
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v8_archive_without_core_defaults_to_lr5() {
        // v7 writers predate the core-model axis: neither the stats
        // block nor the shard provenance has a `core` field. Those runs
        // all replayed on the in-order LR5.
        #[derive(Serialize)]
        struct StatsV7 {
            checkpoint_interval: u64,
            replay_mode: String,
            injected: u64,
            manifested: u64,
            masked: u64,
            golden_nanos: u64,
            injection_nanos: u64,
            wall_nanos: u64,
            injections_per_sec: f64,
            batch_mode: String,
            masked_early_out: u64,
            early_out_cycles_saved: u64,
            parked_masked: u64,
            lane_activations: u64,
            per_workload: Vec<crate::campaign::WorkloadStats>,
        }
        #[derive(Serialize)]
        struct ShardV7 {
            index: u32,
            count: u32,
            fault_lo: u64,
            fault_hi: u64,
            workloads: Vec<String>,
            faults_per_workload: u64,
            seed: u64,
            capture_window: u32,
            checkpoint_interval: u64,
            trace_window: u64,
            replay_mode: String,
            batch_mode: String,
        }
        #[derive(Serialize)]
        struct ArchiveV7 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: StatsV7,
            traces: Vec<Option<DivergenceTrace>>,
            fuzz: Vec<FuzzSpecRepr>,
            shard: Option<ShardV7>,
        }
        let result = small_result();
        let s = &result.stats;
        let v7 = ArchiveV7 {
            version: 7,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: StatsV7 {
                checkpoint_interval: s.checkpoint_interval,
                replay_mode: "shadow".to_owned(),
                injected: s.injected,
                manifested: s.manifested,
                masked: s.masked,
                golden_nanos: s.golden_nanos,
                injection_nanos: s.injection_nanos,
                wall_nanos: s.wall_nanos,
                injections_per_sec: s.injections_per_sec,
                batch_mode: s.batch_mode.clone(),
                masked_early_out: s.masked_early_out,
                early_out_cycles_saved: s.early_out_cycles_saved,
                parked_masked: s.parked_masked,
                lane_activations: s.lane_activations,
                per_workload: s.per_workload.clone(),
            },
            traces: Vec::new(),
            fuzz: Vec::new(),
            shard: Some(ShardV7 {
                index: 0,
                count: 1,
                fault_lo: 0,
                fault_hi: 120,
                workloads: vec!["idctrn".to_owned()],
                faults_per_workload: 120,
                seed: 5,
                capture_window: 8,
                checkpoint_interval: 1024,
                trace_window: 0,
                replay_mode: "shadow".to_owned(),
                batch_mode: "off".to_owned(),
            }),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v7_compat.json");
        std::fs::write(&path, serde_json::to_string(&v7).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v8 reader must accept v7 files");
        assert_eq!(loaded.version, 7);
        assert_eq!(loaded.stats.core, "lr5", "pre-v8 runs replayed on the LR5");
        assert_eq!(loaded.shard.as_ref().unwrap().core, "lr5");
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_v9_archive_without_redundancy_defaults_to_fixed() {
        // v8 writers predate the redundancy axis: neither the stats
        // block nor the shard provenance has a `redundancy` field. Those
        // runs all compared the copies as fixed identical lockstep.
        #[derive(Serialize)]
        struct StatsV8 {
            checkpoint_interval: u64,
            core: String,
            replay_mode: String,
            injected: u64,
            manifested: u64,
            masked: u64,
            golden_nanos: u64,
            injection_nanos: u64,
            wall_nanos: u64,
            injections_per_sec: f64,
            batch_mode: String,
            masked_early_out: u64,
            early_out_cycles_saved: u64,
            parked_masked: u64,
            lane_activations: u64,
            per_workload: Vec<crate::campaign::WorkloadStats>,
        }
        #[derive(Serialize)]
        struct ShardV8 {
            index: u32,
            count: u32,
            fault_lo: u64,
            fault_hi: u64,
            workloads: Vec<String>,
            faults_per_workload: u64,
            seed: u64,
            capture_window: u32,
            checkpoint_interval: u64,
            trace_window: u64,
            core: String,
            replay_mode: String,
            batch_mode: String,
        }
        #[derive(Serialize)]
        struct ArchiveV8 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: StatsV8,
            traces: Vec<Option<DivergenceTrace>>,
            fuzz: Vec<FuzzSpecRepr>,
            shard: Option<ShardV8>,
        }
        let result = small_result();
        let s = &result.stats;
        let v8 = ArchiveV8 {
            version: 8,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: StatsV8 {
                checkpoint_interval: s.checkpoint_interval,
                core: s.core.clone(),
                replay_mode: "shadow".to_owned(),
                injected: s.injected,
                manifested: s.manifested,
                masked: s.masked,
                golden_nanos: s.golden_nanos,
                injection_nanos: s.injection_nanos,
                wall_nanos: s.wall_nanos,
                injections_per_sec: s.injections_per_sec,
                batch_mode: s.batch_mode.clone(),
                masked_early_out: s.masked_early_out,
                early_out_cycles_saved: s.early_out_cycles_saved,
                parked_masked: s.parked_masked,
                lane_activations: s.lane_activations,
                per_workload: s.per_workload.clone(),
            },
            traces: Vec::new(),
            fuzz: Vec::new(),
            shard: Some(ShardV8 {
                index: 0,
                count: 1,
                fault_lo: 0,
                fault_hi: 120,
                workloads: vec!["idctrn".to_owned()],
                faults_per_workload: 120,
                seed: 5,
                capture_window: 8,
                checkpoint_interval: 1024,
                trace_window: 0,
                core: "lr5".to_owned(),
                replay_mode: "shadow".to_owned(),
                batch_mode: "off".to_owned(),
            }),
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v8_compat.json");
        std::fs::write(&path, serde_json::to_string(&v8).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v9 reader must accept v8 files");
        assert_eq!(loaded.version, 8);
        assert_eq!(loaded.stats.redundancy, "fixed", "pre-v9 runs were fixed DMR");
        assert_eq!(loaded.shard.as_ref().unwrap().redundancy, "fixed");
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v9_archive_without_lc_provenance_still_loads() {
        // A v9 writer serialized everything except the `lc` field (the
        // stats and shard blocks already had their current shape).
        #[derive(Serialize)]
        struct ArchiveV9 {
            version: u32,
            records: Vec<ErrorRecord>,
            injected: usize,
            injected_per_unit: Vec<[u64; 2]>,
            golden: Vec<(String, GoldenRunRepr)>,
            stats: CampaignStats,
            traces: Vec<Option<DivergenceTrace>>,
            fuzz: Vec<FuzzSpecRepr>,
            shard: Option<crate::shard::ShardRepr>,
        }
        let result = small_result();
        let v9 = ArchiveV9 {
            version: 9,
            records: result.records.clone(),
            injected: result.injected,
            injected_per_unit: result.injected_per_unit.clone(),
            golden: vec![(
                "idctrn".to_owned(),
                GoldenRunRepr {
                    cycles: result.golden[0].1.cycles,
                    output_checksum: result.golden[0].1.output_checksum,
                    instructions: result.golden[0].1.instructions,
                },
            )],
            stats: result.stats.clone(),
            traces: Vec::new(),
            fuzz: Vec::new(),
            shard: None,
        };
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v9_compat.json");
        std::fs::write(&path, serde_json::to_string(&v9).unwrap()).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v10 reader must accept v9 files");
        assert_eq!(loaded.version, 9);
        assert!(loaded.lc.is_none(), "pre-v10 files default to no compiler provenance");
        assert_eq!(loaded.records, result.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v10_archive_with_retired_labels_still_loads() {
        // A v10 writer recorded the replay mode in the stats block and
        // in shard provenance, and could name the retired `dynamic`
        // redundancy and intermediate batch-layer labels.
        use crate::shard::{ShardRepr, ShardSpec};

        let result = small_result();
        let mut archive = CampaignArchive::from_result(&result);
        let config = CampaignConfig {
            workloads: vec![Workload::find("idctrn").unwrap()],
            ..CampaignConfig::new(120, 5)
        };
        let spec = ShardSpec { index: 0, count: 1, fault_lo: 0, fault_hi: 120 };
        archive.shard = Some(ShardRepr::new(&config, &spec));
        let v10 = serde_json::to_string(&archive)
            .unwrap()
            .replacen(&format!(r#""version":{ARCHIVE_VERSION}"#), r#""version":10"#, 1)
            .replace(
                r#""redundancy":"fixed""#,
                r#""redundancy":"dynamic","replay_mode":"lockstep""#,
            )
            .replace(r#""batch_mode":"off""#, r#""batch_mode":"lanes""#);
        assert_eq!(v10.matches(r#""replay_mode":"lockstep""#).count(), 2, "stats and shard");
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v10_retired_labels.json");
        std::fs::write(&path, &v10).unwrap();
        let loaded = CampaignArchive::load(&path).expect("v11 reader must accept v10 files");
        assert_eq!(loaded.version, 10);
        assert_eq!(
            loaded.stats.redundancy, "dynamic",
            "stats keep the label they were written with"
        );
        assert_eq!(loaded.stats.batch_mode, "lanes");
        let shard = loaded.shard.as_ref().unwrap();
        assert_eq!(shard.redundancy, "fixed", "`dynamic` shards ran the fixed engine");
        assert_eq!(shard.batch_mode, "lanes");
        assert_eq!(loaded.records, result.records);
        // Written again, the archive names no replay mode.
        assert!(!serde_json::to_string(&loaded).unwrap().contains("replay_mode"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lc_campaigns_record_compiler_provenance() {
        let result = run_campaign(&CampaignConfig {
            workloads: vec![
                Workload::find("lc_canrdr").unwrap(),
                Workload::find("lc_crc32").unwrap(),
            ],
            faults_per_workload: 40,
            seed: 5,
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(1024),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        });
        let archive = CampaignArchive::from_result(&result);
        assert_eq!(archive.version, ARCHIVE_VERSION);
        let lc = archive.lc.as_ref().expect("compiled workloads carry provenance");
        assert_eq!(lc.compiler_version, lockstep_cc::COMPILER_VERSION);
        assert_eq!(lc.kernels, vec!["canrdr".to_owned(), "crc32".to_owned()]);

        // Round-trips through JSON, and `into_result` re-resolves the
        // archived names through the compiled registry.
        let json = serde_json::to_string(&archive).unwrap();
        let back: CampaignArchive = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lc, archive.lc);
        let restored = back.into_result();
        assert_eq!(restored.golden[0].0, "lc_canrdr");

        // Kernel-only campaigns stay provenance-free.
        let plain = CampaignArchive::from_result(&small_result());
        assert!(plain.lc.is_none());
    }

    #[test]
    fn fuzz_campaigns_record_their_generator_seed() {
        let spec = lockstep_workloads::fuzz::FuzzSpec { seed: 42, count: 3 };
        let result = run_campaign(&CampaignConfig {
            workloads: spec.workloads(),
            faults_per_workload: 40,
            seed: 5,
            threads: 2,
            capture_window: 8,
            checkpoint_interval: Some(1024),
            events: None,
            trace_window: None,
            batch: None,
            core: CoreKind::Lr5,
            redundancy: RedundancyMode::Fixed,
        });
        let archive = CampaignArchive::from_result(&result);
        assert_eq!(archive.version, ARCHIVE_VERSION);
        assert_eq!(archive.fuzz, vec![FuzzSpecRepr { seed: 42, count: 3 }]);
        assert_eq!(archive.fuzz_spec_strings(), vec!["fuzz:42:3".to_owned()]);

        // Round-trips through JSON, and `into_result` regenerates the
        // same interned workloads from the archived names.
        let json = serde_json::to_string(&archive).unwrap();
        let back: CampaignArchive = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fuzz, archive.fuzz);
        let restored = back.into_result();
        assert_eq!(restored.golden.len(), 3);
        assert_eq!(restored.golden[0].0, "fuzz42_000");

        // Kernel-only campaigns stay provenance-free.
        let plain = CampaignArchive::from_result(&small_result());
        assert!(plain.fuzz.is_empty());
    }

    #[test]
    fn version_mismatch_rejected() {
        let result = small_result();
        let mut archive = CampaignArchive::from_result(&result);
        archive.version = 99;
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_version.json");
        // Bypass save()'s implicit current version by writing directly.
        std::fs::write(&path, serde_json::to_string(&archive).unwrap()).unwrap();
        match CampaignArchive::load(&path) {
            Err(ArchiveError::Version(99)) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_unit_index_rejected() {
        // A corrupt unit index used to load fine and then panic the
        // analysis and training paths that index the unit table.
        let result = small_result();
        let mut archive = CampaignArchive::from_result(&result);
        assert!(archive.records.len() >= 2, "fixture must manifest errors");
        archive.records[1].unit_index = 200;
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_unit_index.json");
        archive.save(&path).unwrap();
        match CampaignArchive::load(&path) {
            Err(e @ ArchiveError::UnitIndex { record: 1, unit_index: 200 }) => {
                assert!(e.to_string().contains("unit_index 200"), "{e}");
            }
            other => panic!("expected unit index error, got {other:?}"),
        }
        // The last valid index still loads.
        archive.records[1].unit_index = (UnitId::ALL.len() - 1) as u8;
        archive.save(&path).unwrap();
        assert!(CampaignArchive::load(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_injected_per_unit_rejected() {
        // An extra entry used to load fine; `manifestation_rates` then
        // panicked on `UnitId::ALL[13]` and the shard merge dropped it.
        let result = small_result();
        let mut archive = CampaignArchive::from_result(&result);
        assert_eq!(archive.injected_per_unit.len(), UnitId::ALL.len());
        archive.injected_per_unit.push([1, 0]);
        let dir = std::env::temp_dir().join("lockstep_archive_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oversized_injected_per_unit.json");
        archive.save(&path).unwrap();
        match CampaignArchive::load(&path) {
            Err(e @ ArchiveError::InjectedUnits { len: 14 }) => {
                assert!(e.to_string().contains("14 entries"), "{e}");
            }
            other => panic!("expected injected-units error, got {other:?}"),
        }
        // A full-length table still loads and rates cleanly.
        archive.injected_per_unit.pop();
        archive.save(&path).unwrap();
        let loaded = CampaignArchive::load(&path).unwrap().into_result();
        let rates = loaded.manifestation_rates(lockstep_cpu::Granularity::Fine);
        assert_eq!(rates.len(), UnitId::ALL.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match CampaignArchive::load(Path::new("/nonexistent/campaign.json")) {
            Err(ArchiveError::Io(_)) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
