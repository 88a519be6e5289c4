//! The prediction endpoint: per-core tables trained on completed jobs.
//!
//! Training mirrors the offline path (`Dataset::to_train_records` +
//! `Predictor::train`) exactly, over the merged records of every
//! completed job *of the requested core model* — so for a given record
//! set the service returns the same ranked-unit order and type bit as
//! the Figure 10 section of the `repro_all` report. Both are
//! deterministic, which is what the CI service-smoke job asserts end
//! to end. Tables are kept per core because trained entries do not
//! transfer between the LR5 and LR7 netlists (the cross-core matrix in
//! `EXPERIMENTS.md` measures the collapse): pooling records across
//! cores would contaminate both diagnoses.
//!
//! Merged jobs and trained tables are cached: jobs are immutable once
//! complete, and tables retrain only when the scheduler's completion
//! generation moves.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lockstep_core::{Dsr, ErrorRecord, Predictor, PredictorConfig};
use lockstep_cpu::{CoreKind, Granularity};
use lockstep_eval::archive::CampaignArchive;
use lockstep_eval::dataset::Dataset;
use lockstep_eval::shard::merge_shard_archives;
use lockstep_fault::ErrorKind;
use lockstep_obs::{Event, EventSink};

use crate::proto::{granularity_label, PredictResponse};
use crate::registry::Registry;

struct Table {
    generation: u64,
    predictor: Predictor,
    trained_records: u64,
    trained_jobs: u64,
}

/// Caching diagnosis front-end over the registry.
pub struct PredictService {
    registry: Arc<Registry>,
    events: Option<Arc<dyn EventSink>>,
    /// Merged archives of completed jobs, by job id (immutable once
    /// present).
    merged: Mutex<HashMap<String, Arc<CampaignArchive>>>,
    /// Trained tables by `(core, granularity)`, tagged with the
    /// generation they were trained at.
    tables: Mutex<HashMap<(&'static str, &'static str), Table>>,
}

impl std::fmt::Debug for PredictService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictService").finish_non_exhaustive()
    }
}

impl PredictService {
    /// Creates the service over `registry`, emitting
    /// [`Event::PredictionServed`] to `events`.
    pub fn new(registry: Arc<Registry>, events: Option<Arc<dyn EventSink>>) -> PredictService {
        PredictService {
            registry,
            events,
            merged: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// The merged archive of completed job `id`, built on first use
    /// (merge-on-read) and cached.
    ///
    /// # Errors
    ///
    /// Returns a message when the job's shard files are unreadable or
    /// fail the merge validation.
    pub fn merged_job(&self, id: &str) -> Result<Arc<CampaignArchive>, String> {
        if let Some(archive) = self.merged.lock().expect("no poisoned cache").get(id) {
            return Ok(Arc::clone(archive));
        }
        let shards = self.registry.load_completed(id)?;
        let merged = Arc::new(merge_shard_archives(&shards).map_err(|e| format!("{id}: {e}"))?);
        self.merged.lock().expect("no poisoned cache").insert(id.to_owned(), Arc::clone(&merged));
        Ok(merged)
    }

    /// Diagnoses `dsr` against `core`'s table trained at `generation`
    /// (the scheduler's completion counter); a stale table is
    /// retrained first.
    ///
    /// # Errors
    ///
    /// Returns a message when no job of `core` has completed yet
    /// (there is nothing to train on) or the training data is
    /// unreadable.
    pub fn predict(
        &self,
        dsr: u64,
        granularity: Granularity,
        core: CoreKind,
        generation: u64,
    ) -> Result<PredictResponse, String> {
        let label = granularity_label(granularity);
        let key = (core.label(), label);
        let mut tables = self.tables.lock().expect("no poisoned cache");
        let stale = tables.get(&key).is_none_or(|t| t.generation != generation);
        if stale {
            let table = self.train(granularity, core, generation)?;
            tables.insert(key, table);
        }
        let table = tables.get(&key).expect("just inserted");
        let prediction = table.predictor.predict(Dsr::from_bits(dsr));
        let response = PredictResponse {
            ok: true,
            dsr: format!("{dsr:016x}"),
            granularity: label.to_owned(),
            core: core.label().to_owned(),
            order: prediction.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect(),
            kind: match prediction.kind {
                ErrorKind::Hard => "hard".to_owned(),
                ErrorKind::Soft => "soft".to_owned(),
            },
            table_hit: prediction.table_hit,
            trained_records: table.trained_records,
            trained_jobs: table.trained_jobs,
        };
        if let Some(sink) = &self.events {
            sink.emit(&Event::PredictionServed {
                dsr_bits: dsr,
                jobs: table.trained_jobs,
                table_hit: prediction.table_hit,
            });
        }
        Ok(response)
    }

    fn train(
        &self,
        granularity: Granularity,
        core: CoreKind,
        generation: u64,
    ) -> Result<Table, String> {
        let jobs = self.registry.jobs().map_err(|e| format!("registry scan failed: {e}"))?;
        let mut archives: Vec<Arc<CampaignArchive>> = Vec::new();
        for job in &jobs {
            if job.spec.campaign.core != core.label() {
                continue;
            }
            if self.registry.failure(&job.id).is_some() {
                continue;
            }
            if (self.registry.completed_shards(&job.id).len() as u64) < job.shards {
                continue;
            }
            archives.push(self.merged_job(&job.id)?);
        }
        let records: Vec<&ErrorRecord> = archives.iter().flat_map(|a| a.records.iter()).collect();
        if records.is_empty() {
            return Err(format!(
                "no trained table yet: no completed {} job has manifested error records",
                core.label()
            ));
        }
        let train = Dataset::to_train_records(&records, granularity);
        Ok(Table {
            generation,
            predictor: Predictor::train(&train, PredictorConfig::new(granularity)),
            trained_records: records.len() as u64,
            trained_jobs: archives.len() as u64,
        })
    }
}
