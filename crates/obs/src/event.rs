//! The typed event taxonomy of the observability layer.
//!
//! Every stage of a fault-injection campaign — and of error handling in
//! the BIST controller — announces itself as one [`Event`]. Events are
//! serialized as single-line JSON objects tagged with a `"type"` field
//! (JSON Lines when written through [`crate::JsonlSink`]), so headless
//! campaigns produce a machine-readable log instead of interleaved
//! stderr, and phase wall time is attributable after the fact.
//!
//! The enum uses struct variants, which the vendored `serde_derive`
//! stub cannot derive, so `Serialize`/`Deserialize` are implemented by
//! hand; the round-trip is unit-tested below.

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// One structured observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A workload's fault-free golden reference pass completed.
    GoldenPass {
        /// Workload name.
        workload: String,
        /// Golden runtime in cycles.
        cycles: u64,
        /// Retired instructions.
        instructions: u64,
        /// Snapshots captured during the pass.
        checkpoints: u64,
    },
    /// An injection resumed from a golden-run checkpoint.
    CheckpointHit {
        /// Workload name.
        workload: String,
        /// The injection's fault cycle.
        inject_cycle: u64,
        /// Cycle of the restored snapshot.
        checkpoint_cycle: u64,
        /// Cycles replayed from the snapshot to the fault cycle.
        hit_distance: u64,
    },
    /// A fault was injected.
    Inject {
        /// Workload name.
        workload: String,
        /// Fine-grain unit of the targeted flip-flop.
        unit: String,
        /// Fault description (kind @ flop label).
        fault: String,
        /// Injection cycle.
        cycle: u64,
    },
    /// The checker detected a divergence.
    Detect {
        /// Workload name.
        workload: String,
        /// Injection cycle of the manifesting fault.
        inject_cycle: u64,
        /// Cycle of first divergence.
        detect_cycle: u64,
        /// Captured DSR bitmap (bit *i* ↔ signal category *i*).
        dsr_bits: u64,
    },
    /// A fault stayed architecturally masked for the whole run.
    Masked {
        /// Workload name.
        workload: String,
        /// Injection cycle of the masked fault.
        inject_cycle: u64,
    },
    /// The BIST controller began its diagnostic flow for one error.
    BistStart {
        /// LERT handling model name.
        model: String,
        /// DSR the flow was handed.
        dsr_bits: u64,
    },
    /// The BIST controller reached a safe state.
    BistStop {
        /// LERT handling model name.
        model: String,
        /// STLs executed before the conclusion.
        units_tested: u32,
        /// Error reaction time in cycles.
        lert_cycles: u64,
        /// `true` for fail-stop (hard fault confirmed), `false` for
        /// soft recovery.
        fail_stop: bool,
    },
    /// The predictor was consulted.
    Prediction {
        /// DSR the prediction was made from.
        dsr_bits: u64,
        /// Ranked unit order (most likely first).
        order: Vec<String>,
        /// `true` if the type bit predicted a hard error.
        hard: bool,
    },
    /// `restart_cycles` fell back to the campaign-mean golden runtime
    /// for a workload the campaign never ran.
    RestartFallback {
        /// The unknown workload name.
        workload: String,
        /// The substituted mean golden runtime in cycles.
        mean_cycles: u64,
    },
    /// The campaign requested the batched engine but ran the scalar one:
    /// the divergence trace recorder samples one dedicated faulty CPU per
    /// injection, which is exactly what batching shares away.
    BatchModeDowngraded {
        /// The batch layers the configuration asked for.
        requested: String,
        /// The batch mode the engine actually ran (`"off"`).
        effective: String,
        /// Divergence-trace pre-window, in cycles, that forced the
        /// downgrade.
        trace_window: u64,
    },
    /// A dynamic lockstep pair re-synced from a golden checkpoint after
    /// a predicted-soft verdict, instead of a full task restart.
    Resync {
        /// Workload whose pair re-synced.
        workload: String,
        /// Cycle the divergence was detected at.
        detect_cycle: u64,
        /// Cycle of the golden checkpoint the pair restored.
        checkpoint_cycle: u64,
        /// Cycles charged for the re-sync (restore + replay distance).
        resync_cycles: u64,
    },
    /// A named phase completed; `nanos` is its wall time.
    Span {
        /// Phase name (e.g. `"golden_capture"`, `"injection"`).
        name: String,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
    /// The campaign service accepted a job and queued its shards.
    JobSubmitted {
        /// Service-assigned job identifier.
        job: String,
        /// Shards the job was split into.
        shards: u64,
        /// Total faults across the job's fault queue.
        faults: u64,
    },
    /// A worker leased one shard of a job.
    ShardLeased {
        /// Job identifier.
        job: String,
        /// Shard index within the job.
        shard: u64,
        /// Lease attempt number, starting at 1 (retries increment).
        attempt: u64,
    },
    /// A leased shard completed and its archive was persisted.
    ShardCompleted {
        /// Job identifier.
        job: String,
        /// Shard index within the job.
        shard: u64,
        /// Faults the shard injected.
        injected: u64,
        /// Injections that manifested as detected errors.
        manifested: u64,
        /// Shard wall time in nanoseconds.
        nanos: u64,
    },
    /// A shard lease expired or its worker failed; the shard went back
    /// on the queue.
    ShardRequeued {
        /// Job identifier.
        job: String,
        /// Shard index within the job.
        shard: u64,
        /// Why the lease was revoked (`"timeout"` / `"panic"`).
        reason: String,
    },
    /// Every shard of a job completed; the merged result is servable.
    JobCompleted {
        /// Job identifier.
        job: String,
        /// Manifested error records in the merged archive.
        records: u64,
    },
    /// A job was abandoned after exhausting its shard retry budget.
    JobFailed {
        /// Job identifier.
        job: String,
        /// Index of the shard that exhausted its attempts.
        shard: u64,
        /// Human-readable failure description.
        error: String,
    },
    /// The prediction endpoint answered a diagnosis query.
    PredictionServed {
        /// DSR bits the query carried.
        dsr_bits: u64,
        /// Jobs whose merged records trained the serving table.
        jobs: u64,
        /// `true` if the DSR hit a trained table entry.
        table_hit: bool,
    },
}

impl Event {
    /// The event's `"type"` tag, as serialized.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::GoldenPass { .. } => "golden_pass",
            Event::CheckpointHit { .. } => "checkpoint_hit",
            Event::Inject { .. } => "inject",
            Event::Detect { .. } => "detect",
            Event::Masked { .. } => "masked",
            Event::BistStart { .. } => "bist_start",
            Event::BistStop { .. } => "bist_stop",
            Event::Prediction { .. } => "prediction",
            Event::RestartFallback { .. } => "restart_fallback",
            Event::BatchModeDowngraded { .. } => "batch_mode_downgraded",
            Event::Resync { .. } => "resync",
            Event::Span { .. } => "span",
            Event::JobSubmitted { .. } => "job_submitted",
            Event::ShardLeased { .. } => "shard_leased",
            Event::ShardCompleted { .. } => "shard_completed",
            Event::ShardRequeued { .. } => "shard_requeued",
            Event::JobCompleted { .. } => "job_completed",
            Event::JobFailed { .. } => "job_failed",
            Event::PredictionServed { .. } => "prediction_served",
        }
    }
}

/// Appends one `"key":value` pair (with its leading comma) to `out`.
fn field<T: Serialize + ?Sized>(out: &mut String, key: &str, value: &T) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.serialize(out);
}

impl Serialize for Event {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"type\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            Event::GoldenPass { workload, cycles, instructions, checkpoints } => {
                field(out, "workload", workload);
                field(out, "cycles", cycles);
                field(out, "instructions", instructions);
                field(out, "checkpoints", checkpoints);
            }
            Event::CheckpointHit { workload, inject_cycle, checkpoint_cycle, hit_distance } => {
                field(out, "workload", workload);
                field(out, "inject_cycle", inject_cycle);
                field(out, "checkpoint_cycle", checkpoint_cycle);
                field(out, "hit_distance", hit_distance);
            }
            Event::Inject { workload, unit, fault, cycle } => {
                field(out, "workload", workload);
                field(out, "unit", unit);
                field(out, "fault", fault);
                field(out, "cycle", cycle);
            }
            Event::Detect { workload, inject_cycle, detect_cycle, dsr_bits } => {
                field(out, "workload", workload);
                field(out, "inject_cycle", inject_cycle);
                field(out, "detect_cycle", detect_cycle);
                field(out, "dsr_bits", dsr_bits);
            }
            Event::Masked { workload, inject_cycle } => {
                field(out, "workload", workload);
                field(out, "inject_cycle", inject_cycle);
            }
            Event::BistStart { model, dsr_bits } => {
                field(out, "model", model);
                field(out, "dsr_bits", dsr_bits);
            }
            Event::BistStop { model, units_tested, lert_cycles, fail_stop } => {
                field(out, "model", model);
                field(out, "units_tested", units_tested);
                field(out, "lert_cycles", lert_cycles);
                field(out, "fail_stop", fail_stop);
            }
            Event::Prediction { dsr_bits, order, hard } => {
                field(out, "dsr_bits", dsr_bits);
                field(out, "order", order);
                field(out, "hard", hard);
            }
            Event::RestartFallback { workload, mean_cycles } => {
                field(out, "workload", workload);
                field(out, "mean_cycles", mean_cycles);
            }
            Event::BatchModeDowngraded { requested, effective, trace_window } => {
                field(out, "requested", requested);
                field(out, "effective", effective);
                field(out, "trace_window", trace_window);
            }
            Event::Resync { workload, detect_cycle, checkpoint_cycle, resync_cycles } => {
                field(out, "workload", workload);
                field(out, "detect_cycle", detect_cycle);
                field(out, "checkpoint_cycle", checkpoint_cycle);
                field(out, "resync_cycles", resync_cycles);
            }
            Event::Span { name, nanos } => {
                field(out, "name", name);
                field(out, "nanos", nanos);
            }
            Event::JobSubmitted { job, shards, faults } => {
                field(out, "job", job);
                field(out, "shards", shards);
                field(out, "faults", faults);
            }
            Event::ShardLeased { job, shard, attempt } => {
                field(out, "job", job);
                field(out, "shard", shard);
                field(out, "attempt", attempt);
            }
            Event::ShardCompleted { job, shard, injected, manifested, nanos } => {
                field(out, "job", job);
                field(out, "shard", shard);
                field(out, "injected", injected);
                field(out, "manifested", manifested);
                field(out, "nanos", nanos);
            }
            Event::ShardRequeued { job, shard, reason } => {
                field(out, "job", job);
                field(out, "shard", shard);
                field(out, "reason", reason);
            }
            Event::JobCompleted { job, records } => {
                field(out, "job", job);
                field(out, "records", records);
            }
            Event::JobFailed { job, shard, error } => {
                field(out, "job", job);
                field(out, "shard", shard);
                field(out, "error", error);
            }
            Event::PredictionServed { dsr_bits, jobs, table_hit } => {
                field(out, "dsr_bits", dsr_bits);
                field(out, "jobs", jobs);
                field(out, "table_hit", table_hit);
            }
        }
        out.push('}');
    }
}

impl Deserialize for Event {
    fn deserialize(value: &Value) -> Result<Event, Error> {
        let tag = value.field("type")?.as_str()?;
        let s = |key: &str| -> Result<String, Error> { Ok(value.field(key)?.as_str()?.to_owned()) };
        let u = |key: &str| -> Result<u64, Error> { value.field(key)?.as_u64() };
        let b = |key: &str| -> Result<bool, Error> { value.field(key)?.as_bool() };
        match tag {
            "golden_pass" => Ok(Event::GoldenPass {
                workload: s("workload")?,
                cycles: u("cycles")?,
                instructions: u("instructions")?,
                checkpoints: u("checkpoints")?,
            }),
            "checkpoint_hit" => Ok(Event::CheckpointHit {
                workload: s("workload")?,
                inject_cycle: u("inject_cycle")?,
                checkpoint_cycle: u("checkpoint_cycle")?,
                hit_distance: u("hit_distance")?,
            }),
            "inject" => Ok(Event::Inject {
                workload: s("workload")?,
                unit: s("unit")?,
                fault: s("fault")?,
                cycle: u("cycle")?,
            }),
            "detect" => Ok(Event::Detect {
                workload: s("workload")?,
                inject_cycle: u("inject_cycle")?,
                detect_cycle: u("detect_cycle")?,
                dsr_bits: u("dsr_bits")?,
            }),
            "masked" => {
                Ok(Event::Masked { workload: s("workload")?, inject_cycle: u("inject_cycle")? })
            }
            "bist_start" => Ok(Event::BistStart { model: s("model")?, dsr_bits: u("dsr_bits")? }),
            "bist_stop" => Ok(Event::BistStop {
                model: s("model")?,
                units_tested: u32::try_from(u("units_tested")?)
                    .map_err(|_| Error::new("units_tested out of range"))?,
                lert_cycles: u("lert_cycles")?,
                fail_stop: b("fail_stop")?,
            }),
            "prediction" => Ok(Event::Prediction {
                dsr_bits: u("dsr_bits")?,
                order: Vec::<String>::deserialize(value.field("order")?)?,
                hard: b("hard")?,
            }),
            "restart_fallback" => Ok(Event::RestartFallback {
                workload: s("workload")?,
                mean_cycles: u("mean_cycles")?,
            }),
            "batch_mode_downgraded" => Ok(Event::BatchModeDowngraded {
                requested: s("requested")?,
                effective: s("effective")?,
                trace_window: u("trace_window")?,
            }),
            "resync" => Ok(Event::Resync {
                workload: s("workload")?,
                detect_cycle: u("detect_cycle")?,
                checkpoint_cycle: u("checkpoint_cycle")?,
                resync_cycles: u("resync_cycles")?,
            }),
            "span" => Ok(Event::Span { name: s("name")?, nanos: u("nanos")? }),
            "job_submitted" => Ok(Event::JobSubmitted {
                job: s("job")?,
                shards: u("shards")?,
                faults: u("faults")?,
            }),
            "shard_leased" => Ok(Event::ShardLeased {
                job: s("job")?,
                shard: u("shard")?,
                attempt: u("attempt")?,
            }),
            "shard_completed" => Ok(Event::ShardCompleted {
                job: s("job")?,
                shard: u("shard")?,
                injected: u("injected")?,
                manifested: u("manifested")?,
                nanos: u("nanos")?,
            }),
            "shard_requeued" => Ok(Event::ShardRequeued {
                job: s("job")?,
                shard: u("shard")?,
                reason: s("reason")?,
            }),
            "job_completed" => Ok(Event::JobCompleted { job: s("job")?, records: u("records")? }),
            "job_failed" => {
                Ok(Event::JobFailed { job: s("job")?, shard: u("shard")?, error: s("error")? })
            }
            "prediction_served" => Ok(Event::PredictionServed {
                dsr_bits: u("dsr_bits")?,
                jobs: u("jobs")?,
                table_hit: b("table_hit")?,
            }),
            other => Err(Error::new(format!("unknown event type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::GoldenPass {
                workload: "ttsprk".into(),
                cycles: 4096,
                instructions: 2000,
                checkpoints: 2,
            },
            Event::CheckpointHit {
                workload: "rspeed".into(),
                inject_cycle: 900,
                checkpoint_cycle: 512,
                hit_distance: 388,
            },
            Event::Inject {
                workload: "rspeed".into(),
                unit: "ALU".into(),
                fault: "stuck-at-1 @ ALU.acc.3 from cycle 900".into(),
                cycle: 900,
            },
            Event::Detect {
                workload: "rspeed".into(),
                inject_cycle: 900,
                detect_cycle: 912,
                dsr_bits: 0b1011,
            },
            Event::Masked { workload: "rspeed".into(), inject_cycle: 13 },
            Event::BistStart { model: "pred-comb".into(), dsr_bits: 0b1011 },
            Event::BistStop {
                model: "pred-comb".into(),
                units_tested: 1,
                lert_cycles: 25_002,
                fail_stop: true,
            },
            Event::Prediction {
                dsr_bits: 0b1011,
                order: vec!["ALU".into(), "PFU".into()],
                hard: true,
            },
            Event::RestartFallback { workload: "missing".into(), mean_cycles: 9000 },
            Event::BatchModeDowngraded {
                requested: "full".into(),
                effective: "off".into(),
                trace_window: 64,
            },
            Event::Resync {
                workload: "rspeed".into(),
                detect_cycle: 9000,
                checkpoint_cycle: 8192,
                resync_cycles: 1008,
            },
            Event::Span { name: "golden_capture".into(), nanos: 1_500_000 },
            Event::JobSubmitted { job: "job-000001".into(), shards: 8, faults: 4000 },
            Event::ShardLeased { job: "job-000001".into(), shard: 3, attempt: 2 },
            Event::ShardCompleted {
                job: "job-000001".into(),
                shard: 3,
                injected: 500,
                manifested: 361,
                nanos: 2_000_000,
            },
            Event::ShardRequeued { job: "job-000001".into(), shard: 3, reason: "timeout".into() },
            Event::JobCompleted { job: "job-000001".into(), records: 2888 },
            Event::JobFailed {
                job: "job-000002".into(),
                shard: 0,
                error: "shard 0 exhausted 3 attempts".into(),
            },
            Event::PredictionServed { dsr_bits: 0b1011, jobs: 2, table_hit: true },
        ]
    }

    #[test]
    fn serde_round_trip_every_variant() {
        for ev in samples() {
            let json = serde_json::to_string(&ev).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(ev, back, "{json}");
        }
    }

    #[test]
    fn json_is_type_tagged_single_line() {
        for ev in samples() {
            let json = serde_json::to_string(&ev).unwrap();
            assert!(json.starts_with(&format!("{{\"type\":\"{}\"", ev.kind())), "{json}");
            assert!(!json.contains('\n'), "{json}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(serde_json::from_str::<Event>("{\"type\":\"nope\"}").is_err());
    }
}
