//! The evaluation framework of Figure 7: fault injection → error
//! detection → data logging → model development → model evaluation.
//!
//! * [`campaign`] — the fault-injection engine. For each workload it
//!   records one fault-free **golden port trace**, then replays every
//!   planned fault on a fresh CPU, comparing output ports against the
//!   golden trace cycle by cycle; the first mismatch is the lockstep
//!   detection event and its per-SC difference is the captured DSR.
//!   (Up to the first divergence a faulted CPU has issued exactly the
//!   same bus traffic as the golden run, so comparing against the
//!   recorded trace is bit-equivalent to running two live CPUs — and
//!   twice as fast. The live path in `lockstep-core::harness` exists too
//!   and the two are cross-checked in the integration tests.) One entry
//!   point, [`campaign::run_injection`], replays a fault against any
//!   [`campaign::Reference`] — the recording, DME's retire stream, or
//!   the live golden twins the recording is tested against fault by
//!   fault — and one work queue runs every campaign and shard. A
//!   campaign's shape is its core, its comparator (`--redundancy
//!   fixed|dme`) and the engine switch (`--batch-mode off|full`).
//! * [`batch`] — the batched fault-simulation engine: one fault-free
//!   walker replay shared by a workload's faults in strike order,
//!   dirty-set early-out for masked transients, and bit-parallel watch
//!   masks for parked stuck-ats; a lane that diverges is handed, live,
//!   to the scalar engine's comparator. Bit-identical outcomes to
//!   [`campaign`]'s scalar replay at a fraction of the simulated cycles
//!   (`--batch-mode`).
//! * [`dme`] — diverse-memory-execution support: the retired-effect
//!   stream comparator behind `--redundancy dme` (the
//!   [`campaign::Reference::RetireStream`] reference) and the
//!   decoder-stuck-at coverage probe (the fault class identical
//!   lockstep provably masks).
//! * [`dataset`] — train/test splitting with 5-fold cross-validation and
//!   conversion of error records into predictor training records.
//! * [`analysis`] — Table I statistics, per-unit signature histograms,
//!   Bhattacharyya similarity (Figures 4/5), type-signature evidence
//!   (Section III-B).
//! * [`lertsim`] — evaluation of the five LERT models on held-out test
//!   errors (Figures 11–16, Table III).
//! * [`archive`] — durable JSON campaign archives so one injection run
//!   can feed many analyses (the logging stage of Figure 7).
//! * [`shard`] — resumable campaign shards: cut the fault queue into
//!   contiguous slices, run each through the campaign runner, and merge
//!   the partial archives back into one byte-identical to the
//!   single-shot run (the substrate of the `lockstep-serve` service).
//! * [`spec`] — the one serde description of a campaign
//!   ([`spec::CampaignSpec`]), shared by the CLIs and the campaign
//!   service, with typed validation errors.
//! * [`render`] — ASCII tables and bar charts for experiment binaries.
//! * [`experiments`] — one module per paper table/figure; the
//!   `src/bin/*.rs` binaries are thin wrappers (see DESIGN.md for the
//!   index).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod archive;
pub mod batch;
pub mod campaign;
pub mod cli;
pub mod dataset;
pub mod dme;
pub mod experiments;
pub mod lertsim;
pub mod render;
pub mod shard;
pub mod spec;

pub use archive::CampaignArchive;
pub use batch::BatchConfig;
pub use campaign::{run_campaign, CampaignConfig, CampaignResult};
pub use dataset::Dataset;
pub use shard::{merge_shard_archives, plan_shards, run_shard, ShardError, ShardRepr, ShardSpec};
pub use spec::{CampaignSpec, SpecError};
