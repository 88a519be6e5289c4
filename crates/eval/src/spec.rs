//! The one serde description of a campaign: [`CampaignSpec`].
//!
//! Historically the campaign knobs were parsed in two places — the
//! experiment CLIs ([`crate::cli::parse`]) and the `lockstep-serve`
//! JSON protocol — each with its own field names, defaults, and
//! validation. `CampaignSpec` unifies them: one serializable struct
//! holding the portable knobs (workloads, faults, seed, batch engine,
//! core model, comparator), one typed validation error ([`SpecError`]),
//! and one [`CampaignSpec::campaign_config`] that resolves it into a
//! runnable [`CampaignConfig`]. The CLI builds and validates a spec
//! from its flags; the service deserializes one straight off the wire
//! and persists it in the job registry.
//!
//! A campaign's real choices are the core (`lr5` / `lr7`), the
//! comparator (`fixed` port compare / `dme` retire stream) and the
//! batch engine switch (`off` / `full`). The `replay_mode` field has
//! one value, `shadow`: replay against the recorded golden trace.
//!
//! The deserializer accepts the historical field spellings as aliases
//! (`faults` for `faults_per_workload`, `replay` for `replay_mode`,
//! `batch` for `batch_mode`) and maps retired axis labels to the labels
//! that replaced them (`lockstep` → `shadow`, `dynamic` → `fixed`,
//! `fanout` / `earlyout` / `lanes` → `full`): each retired value ran a
//! path the equivalence suites prove record-identical to its
//! replacement, so archived job files and old client scripts keep
//! working. Only deserialization maps them; a spec built in code or
//! from flags must name a current label. Fields the source omits take
//! the documented service defaults: seed 1, shadow replay, the full
//! batch engine, the LR5 core, and fixed redundancy.

use lockstep_core::RedundancyMode;
use lockstep_cpu::CoreKind;
use lockstep_workloads::{fuzz, lc, Workload};
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

use crate::batch::BatchConfig;
use crate::campaign::{CampaignConfig, DEFAULT_CAPTURE_WINDOW, DEFAULT_CHECKPOINT_INTERVAL};

/// Portable description of a campaign, shared by the CLIs and the
/// campaign service (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CampaignSpec {
    /// Workload names in campaign order (`rspeed`, `fuzz7_002`,
    /// `lc_quicksort`, ...). A `fuzz:<seed>[:<count>]` token expands to
    /// that sweep's generated programs when the spec is resolved; an
    /// `lc:<kernel>` token to one compiled-LC workload (`lc:all` to the
    /// whole compiled set).
    pub workloads: Vec<String>,
    /// Fault injections per workload.
    pub faults_per_workload: u64,
    /// Master campaign seed (stimulus and fault sampling).
    pub seed: u64,
    /// Replay label, always `"shadow"` (replay against the recorded
    /// golden trace, the only replay there is). Kept as a field so
    /// specs and persisted jobs keep their shape.
    pub replay_mode: String,
    /// Batch engine flag value (`"off"` / `"full"`).
    pub batch_mode: String,
    /// Core model flag value (`"lr5"` / `"lr7"`).
    pub core: String,
    /// Comparator flag value (`"fixed"` / `"dme"`).
    pub redundancy: String,
}

/// Spec defaults, spelled once (and documented in
/// `docs/CAMPAIGN_SERVICE.md`).
pub const DEFAULT_SPEC_SEED: u64 = 1;
/// The one replay label.
pub const DEFAULT_SPEC_REPLAY_MODE: &str = "shadow";
/// Default batch mode flag value.
pub const DEFAULT_SPEC_BATCH_MODE: &str = "full";

impl Deserialize for CampaignSpec {
    fn deserialize(value: &Value) -> Result<CampaignSpec, JsonError> {
        // Canonical name first, historical alias second, default last.
        // A miss on both spellings reports the canonical name.
        let aliased = |name: &str, alias: &str| {
            value
                .field(name)
                .or_else(|_| value.field(alias))
                .map_err(|_| JsonError::new(format!("missing field `{name}`")))
        };
        let str_or = |field: Result<&Value, JsonError>, default: &str| match field {
            Ok(v) => Deserialize::deserialize(v),
            Err(_) => Ok(default.to_owned()),
        };
        Ok(CampaignSpec {
            workloads: Deserialize::deserialize(value.field("workloads")?)?,
            faults_per_workload: Deserialize::deserialize(aliased(
                "faults_per_workload",
                "faults",
            )?)?,
            seed: match value.field("seed") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => DEFAULT_SPEC_SEED,
            },
            replay_mode: current_label(
                "replay_mode",
                str_or(aliased("replay_mode", "replay"), DEFAULT_SPEC_REPLAY_MODE)?,
            ),
            batch_mode: current_label(
                "batch_mode",
                str_or(aliased("batch_mode", "batch"), DEFAULT_SPEC_BATCH_MODE)?,
            ),
            // Specs that predate the core-model axis ran on the only
            // core that existed, the in-order LR5.
            core: str_or(value.field("core"), CoreKind::Lr5.label())?,
            // Specs that predate the redundancy axis ran the only
            // arrangement that existed, fixed lockstep.
            redundancy: current_label(
                "redundancy",
                str_or(value.field("redundancy"), RedundancyMode::Fixed.label())?,
            ),
        })
    }
}

/// Why a [`CampaignSpec`] (or the job wrapping it) failed validation.
///
/// Each variant carries a stable machine-readable [`code`](Self::code)
/// so protocol clients can react without parsing the human-facing
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The workload list is empty.
    NoWorkloads,
    /// A workload name matches nothing in the compiled-in suite.
    UnknownWorkload(String),
    /// A `fuzz:` token does not parse as `fuzz:<seed>[:<count>]`.
    BadFuzzSpec(String),
    /// `faults_per_workload` is zero.
    ZeroFaults,
    /// The campaign's total fault count (workloads × faults per
    /// workload) does not fit in 64 bits.
    TooManyFaults,
    /// The replay label is not `shadow`.
    UnknownReplayMode(String),
    /// The batch mode is not `off` or `full`.
    UnknownBatchMode(String),
    /// The core model is not `lr5` or `lr7`.
    UnknownCore(String),
    /// The redundancy mode is not `fixed` or `dme`.
    UnknownRedundancy(String),
    /// The requested shard count is zero (job-level, service only).
    ZeroShards,
    /// `faults_per_workload` exceeds the bound a service job may ask
    /// for, carried here (job-level, service only): every shard draws
    /// its workload's whole fault plan in memory.
    FaultsPastJobBound(u64),
}

impl SpecError {
    /// Stable machine-readable error code, carried in protocol error
    /// responses next to the human-facing message.
    pub fn code(&self) -> &'static str {
        match self {
            SpecError::NoWorkloads => "no_workloads",
            SpecError::UnknownWorkload(_) => "unknown_workload",
            SpecError::BadFuzzSpec(_) => "bad_fuzz_spec",
            SpecError::ZeroFaults => "zero_faults",
            SpecError::TooManyFaults => "too_many_faults",
            SpecError::UnknownReplayMode(_) => "unknown_replay_mode",
            SpecError::UnknownBatchMode(_) => "unknown_batch_mode",
            SpecError::UnknownCore(_) => "unknown_core",
            SpecError::UnknownRedundancy(_) => "unknown_redundancy",
            SpecError::ZeroShards => "zero_shards",
            SpecError::FaultsPastJobBound(_) => "too_many_faults",
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoWorkloads => write!(f, "job has no workloads"),
            SpecError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            SpecError::BadFuzzSpec(s) => {
                write!(f, "bad fuzz spec `{s}` (expected fuzz:<seed>[:<count>])")
            }
            SpecError::ZeroFaults => write!(f, "faults_per_workload must be at least 1"),
            SpecError::TooManyFaults => {
                write!(f, "workloads x faults_per_workload exceeds 2^64 - 1 faults")
            }
            SpecError::UnknownReplayMode(m) => {
                write!(f, "unknown replay mode `{m}` (expected shadow)")
            }
            SpecError::UnknownBatchMode(m) => {
                write!(f, "unknown batch mode `{m}` (expected off or full)")
            }
            SpecError::UnknownCore(c) => {
                write!(f, "unknown core `{c}` (expected lr5 or lr7)")
            }
            SpecError::UnknownRedundancy(r) => {
                write!(f, "unknown redundancy mode `{r}` (expected fixed or dme)")
            }
            SpecError::ZeroShards => write!(f, "shards must be at least 1"),
            SpecError::FaultsPastJobBound(bound) => {
                write!(f, "faults_per_workload exceeds a service job's bound of {bound}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Retired axis labels, as `(field, retired label, replacement)`.
const RETIRED_LABELS: [(&str, &str, &str); 5] = [
    ("replay_mode", "lockstep", "shadow"),
    ("batch_mode", "fanout", "full"),
    ("batch_mode", "earlyout", "full"),
    ("batch_mode", "lanes", "full"),
    ("redundancy", "dynamic", "fixed"),
];

/// The label that replaced `label` if it is a retired value of `field`,
/// or `label` itself.
pub(crate) fn current_label(field: &str, label: String) -> String {
    RETIRED_LABELS
        .iter()
        .find(|&&(f, retired, _)| f == field && retired == label)
        .map_or(label, |&(_, _, replacement)| replacement.to_owned())
}

impl CampaignSpec {
    /// Total fault queue length this spec describes (after workload
    /// expansion).
    ///
    /// # Errors
    ///
    /// Returns the workload resolution's [`SpecError`], or
    /// [`SpecError::TooManyFaults`] when the total overflows `u64`.
    pub fn total_faults(&self) -> Result<u64, SpecError> {
        checked_total(self.resolve_workloads()?.len(), self.faults_per_workload)
    }

    /// Expands `fuzz:` and `lc:` tokens and resolves every workload
    /// name against the compiled-in suite.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::NoWorkloads`], [`SpecError::BadFuzzSpec`]
    /// or [`SpecError::UnknownWorkload`].
    pub fn resolve_workloads(&self) -> Result<Vec<&'static Workload>, SpecError> {
        if self.workloads.is_empty() {
            return Err(SpecError::NoWorkloads);
        }
        let mut out = Vec::with_capacity(self.workloads.len());
        for name in &self.workloads {
            let name = name.trim();
            if let Some(spec) = name.strip_prefix("fuzz:") {
                let spec = fuzz::FuzzSpec::parse(spec)
                    .ok_or_else(|| SpecError::BadFuzzSpec(name.to_owned()))?;
                out.extend(spec.workloads());
            } else if let Some(kernel) = name.strip_prefix("lc:") {
                // `lc:<kernel>` selects one compiled-LC workload,
                // `lc:all` the whole compiled set. Unknown kernels are
                // the same protocol error as unknown plain names, so
                // clients get one `unknown_workload` code either way.
                if kernel == "all" {
                    out.extend(lc::all());
                } else {
                    out.push(
                        lc::compiled(kernel)
                            .ok_or_else(|| SpecError::UnknownWorkload(name.to_owned()))?,
                    );
                }
            } else {
                out.push(
                    Workload::find(name)
                        .ok_or_else(|| SpecError::UnknownWorkload(name.to_owned()))?,
                );
            }
        }
        Ok(out)
    }

    /// The parsed batch layers (`None` = scalar per-fault replay).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownBatchMode`].
    pub fn batch(&self) -> Result<Option<BatchConfig>, SpecError> {
        BatchConfig::from_flag(&self.batch_mode)
            .ok_or_else(|| SpecError::UnknownBatchMode(self.batch_mode.clone()))
    }

    /// The parsed core model.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownCore`].
    pub fn core_kind(&self) -> Result<CoreKind, SpecError> {
        CoreKind::from_flag(&self.core).ok_or_else(|| SpecError::UnknownCore(self.core.clone()))
    }

    /// The parsed redundancy mode.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::UnknownRedundancy`].
    pub fn redundancy_mode(&self) -> Result<RedundancyMode, SpecError> {
        RedundancyMode::from_flag(&self.redundancy)
            .ok_or_else(|| SpecError::UnknownRedundancy(self.redundancy.clone()))
    }

    /// Checks every field; the spec validates exactly when
    /// [`CampaignSpec::campaign_config`] succeeds.
    ///
    /// # Errors
    ///
    /// Returns the first failing field's [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        self.campaign_config(1).map(drop)
    }

    /// Resolves the spec into a runnable configuration with `threads`
    /// worker threads and the default capture window and checkpoint
    /// interval (callers layer process-local knobs — event sinks, trace
    /// windows — on top).
    ///
    /// # Errors
    ///
    /// Returns the first failing field's [`SpecError`].
    pub fn campaign_config(&self, threads: usize) -> Result<CampaignConfig, SpecError> {
        let workloads = self.resolve_workloads()?;
        if self.faults_per_workload == 0 {
            return Err(SpecError::ZeroFaults);
        }
        checked_total(workloads.len(), self.faults_per_workload)?;
        if self.replay_mode != DEFAULT_SPEC_REPLAY_MODE {
            return Err(SpecError::UnknownReplayMode(self.replay_mode.clone()));
        }
        Ok(CampaignConfig {
            workloads,
            faults_per_workload: self.faults_per_workload as usize,
            seed: self.seed,
            threads,
            capture_window: DEFAULT_CAPTURE_WINDOW,
            checkpoint_interval: Some(DEFAULT_CHECKPOINT_INTERVAL),
            events: None,
            trace_window: None,
            batch: self.batch()?,
            core: self.core_kind()?,
            redundancy: self.redundancy_mode()?,
        })
    }
}

/// `workloads × faults_per_workload`, or [`SpecError::TooManyFaults`]
/// when it overflows.
fn checked_total(workloads: usize, faults_per_workload: u64) -> Result<u64, SpecError> {
    (workloads as u64).checked_mul(faults_per_workload).ok_or(SpecError::TooManyFaults)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            workloads: vec!["idctrn".to_owned(), "rspeed".to_owned()],
            faults_per_workload: 30,
            seed: 9,
            replay_mode: "shadow".to_owned(),
            batch_mode: "off".to_owned(),
            core: "lr7".to_owned(),
            redundancy: "dme".to_owned(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn old_field_names_are_aliases() {
        // The CLI's historical spellings: `faults`, `replay`, `batch`.
        let back: CampaignSpec = serde_json::from_str(
            r#"{"workloads":["rspeed"],"faults":12,"seed":4,"replay":"shadow","batch":"off"}"#,
        )
        .unwrap();
        assert_eq!(back.faults_per_workload, 12);
        assert_eq!(back.replay_mode, "shadow");
        assert_eq!(back.batch_mode, "off");
        assert_eq!(back.core, "lr5", "pre-core specs default to LR5");
        assert_eq!(back.redundancy, "fixed", "pre-redundancy specs default to fixed lockstep");

        // Canonical names win when both spellings appear.
        let both: CampaignSpec =
            serde_json::from_str(r#"{"workloads":["rspeed"],"faults_per_workload":7,"faults":99}"#)
                .unwrap();
        assert_eq!(both.faults_per_workload, 7);
    }

    #[test]
    fn retired_labels_load_as_their_replacements() {
        // A job persisted before the replay-mode, `dynamic` and
        // intermediate-layer labels were retired resumes as the run
        // they were proven record-identical to (historical field
        // spellings included), and is written back with current labels.
        for batch in ["fanout", "earlyout", "lanes"] {
            let back: CampaignSpec = serde_json::from_str(&format!(
                r#"{{"workloads":["rspeed"],"faults":3,"replay":"lockstep","batch":"{batch}","redundancy":"dynamic"}}"#
            ))
            .unwrap();
            let labels =
                (back.replay_mode.as_str(), back.batch_mode.as_str(), back.redundancy.as_str());
            assert_eq!(labels, ("shadow", "full", "fixed"));
            assert!(back.validate().is_ok());
            let written = serde_json::to_string(&back).unwrap();
            assert!(!written.contains("lockstep") && !written.contains(batch), "{written}");
            assert!(!written.contains("dynamic"), "{written}");
        }
    }

    #[test]
    fn omitted_fields_take_service_defaults() {
        let back: CampaignSpec =
            serde_json::from_str(r#"{"workloads":["rspeed"],"faults_per_workload":5}"#).unwrap();
        assert_eq!(back.seed, DEFAULT_SPEC_SEED);
        assert_eq!(back.replay_mode, DEFAULT_SPEC_REPLAY_MODE);
        assert_eq!(back.batch_mode, DEFAULT_SPEC_BATCH_MODE);
        assert_eq!(back.core, "lr5");
        assert_eq!(back.redundancy, "fixed");
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validation_is_typed() {
        let mut s = spec();
        s.core = "lr9".to_owned();
        let err = s.validate().unwrap_err();
        assert_eq!(err, SpecError::UnknownCore("lr9".to_owned()));
        assert_eq!(err.code(), "unknown_core");
        assert!(err.to_string().contains("lr9"));

        let mut s = spec();
        s.workloads = vec!["nope".to_owned()];
        assert_eq!(s.validate().unwrap_err().code(), "unknown_workload");
        s.workloads = Vec::new();
        assert_eq!(s.validate().unwrap_err(), SpecError::NoWorkloads);

        let mut s = spec();
        s.faults_per_workload = 0;
        assert_eq!(s.validate().unwrap_err(), SpecError::ZeroFaults);
        let mut s = spec();
        s.replay_mode = "warp".to_owned();
        assert_eq!(s.validate().unwrap_err().code(), "unknown_replay_mode");
        let mut s = spec();
        s.batch_mode = "x".to_owned();
        assert_eq!(s.validate().unwrap_err().code(), "unknown_batch_mode");

        // Retired labels are aliases on deserialization only: a spec
        // built in code (or from flags) must name a current one.
        let mut s = spec();
        s.replay_mode = "lockstep".to_owned();
        assert_eq!(s.validate().unwrap_err(), SpecError::UnknownReplayMode("lockstep".to_owned()));
        let mut s = spec();
        s.batch_mode = "lanes".to_owned();
        assert_eq!(s.validate().unwrap_err(), SpecError::UnknownBatchMode("lanes".to_owned()));
        let mut s = spec();
        s.redundancy = "dynamic".to_owned();
        assert_eq!(s.validate().unwrap_err(), SpecError::UnknownRedundancy("dynamic".to_owned()));

        let mut s = spec();
        s.redundancy = "tmr".to_owned();
        let err = s.validate().unwrap_err();
        assert_eq!(err, SpecError::UnknownRedundancy("tmr".to_owned()));
        assert_eq!(err.code(), "unknown_redundancy");
        assert!(err.to_string().contains("tmr"));
    }

    #[test]
    fn fuzz_tokens_expand_on_resolve() {
        let mut s = spec();
        s.workloads = vec!["rspeed".to_owned(), "fuzz:7:3".to_owned()];
        let resolved = s.resolve_workloads().unwrap();
        assert_eq!(resolved.len(), 4);
        assert_eq!(resolved[0].name, "rspeed");
        assert_eq!(resolved[3].name, "fuzz7_002");
        assert_eq!(s.total_faults().unwrap(), 120);

        // A total past u64::MAX is a typed error, not a wrapped count.
        s.faults_per_workload = u64::MAX / 2 + 1;
        assert_eq!(s.total_faults().unwrap_err(), SpecError::TooManyFaults);
        assert_eq!(s.validate().unwrap_err().code(), "too_many_faults");

        s.workloads = vec!["fuzz:bad:spec:extra".to_owned()];
        assert_eq!(s.resolve_workloads().unwrap_err().code(), "bad_fuzz_spec");
    }

    #[test]
    fn lc_tokens_expand_on_resolve() {
        let mut s = spec();
        s.workloads = vec!["lc:quicksort".to_owned(), "rspeed".to_owned(), "lc_canrdr".to_owned()];
        let resolved = s.resolve_workloads().unwrap();
        assert_eq!(resolved.len(), 3);
        assert_eq!(resolved[0].name, "lc_quicksort");
        assert_eq!(resolved[2].name, "lc_canrdr");

        s.workloads = vec!["lc:all".to_owned()];
        assert_eq!(s.resolve_workloads().unwrap().len(), lc::KERNELS.len());

        // Unknown lc kernels and unknown lc_ names both surface as the
        // typed unknown_workload protocol error the service rejects at
        // submit.
        s.workloads = vec!["lc:warp9".to_owned()];
        let err = s.resolve_workloads().unwrap_err();
        assert_eq!(err, SpecError::UnknownWorkload("lc:warp9".to_owned()));
        assert_eq!(err.code(), "unknown_workload");
        s.workloads = vec!["lc_warp9".to_owned()];
        assert_eq!(s.resolve_workloads().unwrap_err().code(), "unknown_workload");
    }

    #[test]
    fn resolves_into_a_runnable_config() {
        let s = spec();
        let config = s.campaign_config(3).unwrap();
        assert_eq!(config.workloads.len(), 2);
        assert_eq!(config.faults_per_workload, 30);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 3);
        assert!(config.batch.is_none());
        assert_eq!(config.core, CoreKind::Lr7);
        assert_eq!(config.redundancy, RedundancyMode::Dme);
        assert_eq!(config.capture_window, DEFAULT_CAPTURE_WINDOW);
        assert_eq!(config.checkpoint_interval, Some(DEFAULT_CHECKPOINT_INTERVAL));
    }
}
