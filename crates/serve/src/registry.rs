//! The persistent job registry: everything the service must not lose
//! across a restart.
//!
//! On-disk layout under the data directory:
//!
//! ```text
//! data_dir/
//!   jobs/
//!     job-000001/
//!       job.json              # JobRecord: the resolved JobSpec + shard count
//!       failed.json           # present only when the job failed (the marker)
//!       shards/
//!         shard-0000.json     # one v7 CampaignArchive per completed shard
//!         shard-0003.json
//! ```
//!
//! A shard file is the unit of durability: it appears atomically
//! (written to a temp name and synced, then renamed, then its directory
//! synced) and only ever holds a complete archive, even across a power
//! loss. A restarted server reconstructs all state from
//! this layout alone — whatever shard files exist are done, everything
//! else is requeued. Shard completion is **first-writer-wins**: a
//! timed-out shard may finish twice, and the second writer is dropped.
//! That is safe because shard reruns are byte-identical (property
//! `shard_reruns_are_byte_identical` in `lockstep-eval`).

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lockstep_eval::archive::CampaignArchive;
use serde::{Deserialize, Serialize};

use crate::proto::JobSpec;

/// A registered job: the submitted spec plus the planner's decisions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id, `job-NNNNNN`, unique within the data directory.
    pub id: String,
    /// The resolved job spec as submitted.
    pub spec: JobSpec,
    /// Shards the job was actually split into (the planner clamps the
    /// requested count to the fault-queue length).
    pub shards: u64,
}

/// Distinguishes temp files across concurrent writers.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Handle on a service data directory.
#[derive(Debug)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// Opens (creating if needed) the registry under `root`.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the directory cannot be created.
    pub fn open(root: &Path) -> std::io::Result<Registry> {
        std::fs::create_dir_all(root.join("jobs"))?;
        Ok(Registry { root: root.to_owned() })
    }

    fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join("jobs").join(id)
    }

    /// Path of shard `index`'s completed archive for job `id`.
    pub fn shard_path(&self, id: &str, index: u32) -> PathBuf {
        self.job_dir(id).join("shards").join(format!("shard-{index:04}.json"))
    }

    /// Registers a new job, assigning the next free id.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the job directory or record
    /// cannot be written.
    pub fn create_job(&self, spec: &JobSpec, shards: u64) -> std::io::Result<JobRecord> {
        let next = self
            .job_ids()?
            .iter()
            .filter_map(|id| id.strip_prefix("job-")?.parse::<u64>().ok())
            .max()
            .unwrap_or(0)
            + 1;
        let record = JobRecord { id: format!("job-{next:06}"), spec: spec.clone(), shards };
        let dir = self.job_dir(&record.id);
        std::fs::create_dir_all(dir.join("shards"))?;
        sync_dir(&self.root.join("jobs"))?;
        let json = serde_json::to_string(&record)
            .map_err(|e| std::io::Error::other(format!("job record serialization: {e}")))?;
        write_atomic(&dir.join("job.json"), json.as_bytes())?;
        Ok(record)
    }

    fn job_ids(&self) -> std::io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(self.root.join("jobs"))? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                ids.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Loads one job record.
    pub fn job(&self, id: &str) -> Option<JobRecord> {
        let text = std::fs::read_to_string(self.job_dir(id).join("job.json")).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Loads every registered job, in id order. Directories without a
    /// readable record (e.g. a job whose registration was interrupted
    /// mid-write) are skipped.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the jobs directory is unreadable.
    pub fn jobs(&self) -> std::io::Result<Vec<JobRecord>> {
        Ok(self.job_ids()?.iter().filter_map(|id| self.job(id)).collect())
    }

    /// Persists a completed shard archive — atomically, first writer
    /// wins. Returns `false` when the shard was already completed by
    /// another writer (the archive is dropped; reruns are
    /// byte-identical so nothing is lost).
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the write or rename fails.
    pub fn complete_shard(
        &self,
        id: &str,
        index: u32,
        archive: &CampaignArchive,
    ) -> std::io::Result<bool> {
        let path = self.shard_path(id, index);
        if path.exists() {
            return Ok(false);
        }
        let json = serde_json::to_string(archive)
            .map_err(|e| std::io::Error::other(format!("shard archive serialization: {e}")))?;
        let tmp = write_temp(&path, json.as_bytes())?;
        if path.exists() {
            // Lost the race after serializing; drop our copy.
            std::fs::remove_file(&tmp).ok();
            return Ok(false);
        }
        commit(&tmp, &path)?;
        Ok(true)
    }

    /// Indices of job `id`'s completed shards, ascending.
    pub fn completed_shards(&self, id: &str) -> Vec<u32> {
        let mut indices = Vec::new();
        let Ok(entries) = std::fs::read_dir(self.job_dir(id).join("shards")) else {
            return indices;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(index) = name
                .strip_prefix("shard-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        indices
    }

    /// Loads every completed shard archive of job `id`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unreadable shard file.
    pub fn load_completed(&self, id: &str) -> Result<Vec<CampaignArchive>, String> {
        self.completed_shards(id)
            .into_iter()
            .map(|index| {
                CampaignArchive::load(&self.shard_path(id, index))
                    .map_err(|e| format!("{id} shard {index}: {e}"))
            })
            .collect()
    }

    /// Marks job `id` failed with a reason. The marker persists across
    /// restarts — a failed job is never requeued.
    pub fn mark_failed(&self, id: &str, error: &str) {
        let marker = FailureMarker { error: error.to_owned() };
        if let Ok(json) = serde_json::to_string(&marker) {
            write_atomic(&self.job_dir(id).join("failed.json"), json.as_bytes()).ok();
        }
    }

    /// The failure reason of job `id`, if it failed.
    pub fn failure(&self, id: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.job_dir(id).join("failed.json")).ok()?;
        serde_json::from_str::<FailureMarker>(&text).ok().map(|m| m.error)
    }
}

/// Contents of `failed.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FailureMarker {
    error: String,
}

/// Writes `bytes` to `path` via a temp file + rename, so readers never
/// observe a partial file and a crash leaves either the old state or
/// the complete new file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = write_temp(path, bytes)?;
    commit(&tmp, path)
}

/// Writes `bytes` to a fresh temp file beside `path` and syncs its
/// contents to disk, returning the temp path. Without the sync a crash
/// after the rename could leave `path` naming an empty or partial file.
fn write_temp(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = path.with_extension(format!("tmp{}", TMP_SEQ.fetch_add(1, Ordering::Relaxed)));
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(tmp)
}

/// Renames a synced temp file over `path`, then syncs the directory so
/// the rename itself is on disk.
fn commit(tmp: &Path, path: &Path) -> std::io::Result<()> {
    std::fs::rename(tmp, path)?;
    sync_dir(path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new(".")))
}

/// Syncs a directory's entries to disk.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_eval::shard::{plan_shards, run_shard};

    fn tiny_spec() -> JobSpec {
        JobSpec {
            campaign: lockstep_eval::spec::CampaignSpec {
                workloads: vec!["idctrn".to_owned()],
                faults_per_workload: 8,
                seed: 3,
                replay_mode: "shadow".to_owned(),
                batch_mode: "full".to_owned(),
                core: "lr5".to_owned(),
                redundancy: "fixed".to_owned(),
            },
            shards: 2,
        }
    }

    #[test]
    fn job_lifecycle_survives_reopen() {
        let dir = std::env::temp_dir().join("lockstep_serve_registry_test");
        std::fs::remove_dir_all(&dir).ok();
        let registry = Registry::open(&dir).unwrap();
        let spec = tiny_spec();
        let a = registry.create_job(&spec, 2).unwrap();
        let b = registry.create_job(&spec, 2).unwrap();
        assert_eq!(a.id, "job-000001");
        assert_eq!(b.id, "job-000002");

        let config = spec.campaign_config().unwrap();
        let specs = plan_shards(&config, 2);
        let archive = run_shard(&config, &specs[0]);
        assert!(registry.complete_shard(&a.id, 0, &archive).unwrap());
        assert!(
            !registry.complete_shard(&a.id, 0, &archive).unwrap(),
            "second completion of the same shard is dropped"
        );
        registry.mark_failed(&b.id, "boom");

        // A fresh handle (the restarted server) sees identical state.
        let reopened = Registry::open(&dir).unwrap();
        assert_eq!(reopened.jobs().unwrap(), vec![a.clone(), b.clone()]);
        assert_eq!(reopened.completed_shards(&a.id), vec![0]);
        assert_eq!(reopened.failure(&b.id), Some("boom".to_owned()));
        assert_eq!(reopened.failure(&a.id), None);
        let loaded = reopened.load_completed(&a.id).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].records, archive.records);
        assert_eq!(
            reopened.create_job(&spec, 2).unwrap().id,
            "job-000003",
            "id allocation resumes past existing jobs"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
