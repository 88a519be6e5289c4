//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with a `"cmd"` field
//! selecting the operation (`ping` / `submit` / `status` / `predict` /
//! `shutdown`); every response is one JSON object on one line with an
//! `"ok"` boolean. The full schema, including defaults and example
//! transcripts, is documented in `docs/CAMPAIGN_SERVICE.md`.
//!
//! Requests are parsed by hand from the JSON value model (fields the
//! client omits take documented defaults); responses are plain structs
//! the client and tests deserialize back.

use lockstep_cpu::{CoreKind, Granularity};
use lockstep_eval::campaign::CampaignConfig;
use lockstep_eval::spec::{CampaignSpec, SpecError};
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};

/// A campaign job as submitted over the wire: the shared
/// [`CampaignSpec`] plus the service-level shard count. This is what
/// the registry persists, so a restarted server re-runs exactly the
/// job the client asked for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobSpec {
    /// The portable campaign description (workloads, faults, seed,
    /// batch engine, core model, comparator).
    pub campaign: CampaignSpec,
    /// Requested shard count (the planner clamps to the queue size).
    pub shards: u64,
}

impl Deserialize for JobSpec {
    fn deserialize(value: &Value) -> Result<JobSpec, JsonError> {
        // Jobs persisted before the spec unification were flat: the
        // campaign fields and `shards` lived in one object. The shared
        // spec's own aliases cover its field renames, so the legacy
        // layout is just "deserialize the spec from the same object".
        let campaign = match value.field("campaign") {
            Ok(v) => Deserialize::deserialize(v)?,
            Err(_) => Deserialize::deserialize(value)?,
        };
        Ok(JobSpec {
            campaign,
            shards: match value.field("shards") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => DEFAULT_SHARDS,
            },
        })
    }
}

/// The most faults per workload a job may ask for: 2^22, a 64 MiB fault
/// plan. Every shard draws its workload's whole plan before it cuts its
/// slice, so a larger plan could fail to allocate, and that aborts the
/// server rather than the job.
pub const MAX_JOB_FAULTS_PER_WORKLOAD: u64 = 1 << 22;

impl JobSpec {
    /// Total fault queue length of this job (after workload
    /// expansion), `0` when the spec does not validate.
    pub fn total_faults(&self) -> u64 {
        self.campaign.total_faults().unwrap_or(0)
    }

    /// Checks every field against the compiled-in workload suite and
    /// flag vocabularies.
    ///
    /// # Errors
    ///
    /// Returns the first failing field's typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        self.campaign_config().map(drop)
    }

    /// Builds the campaign configuration a worker runs one shard of
    /// this job under. Shards run single-threaded — the service's
    /// parallelism is worker-per-shard — and the merged result is
    /// byte-identical to any other thread count by the shard
    /// equivalence property.
    ///
    /// # Errors
    ///
    /// Returns the same typed errors as [`JobSpec::validate`], among them
    /// [`SpecError::FaultsPastJobBound`] past
    /// [`MAX_JOB_FAULTS_PER_WORKLOAD`].
    pub fn campaign_config(&self) -> Result<CampaignConfig, SpecError> {
        let config = self.campaign.campaign_config(1)?;
        if self.shards == 0 {
            return Err(SpecError::ZeroShards);
        }
        if self.campaign.faults_per_workload > MAX_JOB_FAULTS_PER_WORKLOAD {
            return Err(SpecError::FaultsPastJobBound(MAX_JOB_FAULTS_PER_WORKLOAD));
        }
        Ok(config)
    }
}

/// A refused request: a stable machine-readable code plus the
/// human-facing message.
///
/// The code rides in the error response's `"code"` field so clients
/// can react (e.g. distinguish an unknown core model from a full
/// queue) without parsing prose. Spec validation failures carry their
/// [`SpecError::code`]; protocol-shape problems use `"bad_request"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Machine-readable error class (`"unknown_core"`, `"bad_request"`,
    /// `"queue_full"`, ...).
    pub code: String,
    /// Client-facing reason.
    pub message: String,
}

impl RequestError {
    /// Builds an error with an explicit code.
    pub fn new(code: &str, message: impl Into<String>) -> RequestError {
        RequestError { code: code.to_owned(), message: message.into() }
    }

    /// A protocol-shape error (malformed JSON, missing fields, bad
    /// field types).
    pub fn bad_request(message: impl Into<String>) -> RequestError {
        RequestError::new("bad_request", message)
    }
}

impl From<SpecError> for RequestError {
    fn from(e: SpecError) -> RequestError {
        RequestError { code: e.code().to_owned(), message: e.to_string() }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

impl std::error::Error for RequestError {}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a campaign job.
    Submit(JobSpec),
    /// Report job states — all jobs, or one when `job` is given.
    Status {
        /// Restrict the report to this job id.
        job: Option<String>,
    },
    /// Diagnose a DSR against the table trained on completed jobs of
    /// one core model.
    Predict {
        /// The 62-bit divergence signature to diagnose.
        dsr: u64,
        /// Unit organization of the answer (7-unit coarse or 13-unit
        /// fine).
        granularity: Granularity,
        /// Core model whose completed jobs the table is trained on —
        /// tables do not transfer across cores (see `EXPERIMENTS.md`).
        core: CoreKind,
    },
    /// Stop accepting work and exit once in-flight shards settle.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a typed [`RequestError`] for malformed JSON, a missing
    /// or unknown `cmd`, or invalid fields.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let value = Value::parse(line)
            .map_err(|e| RequestError::bad_request(format!("malformed request: {e}")))?;
        let cmd = value
            .field("cmd")
            .and_then(Value::as_str)
            .map_err(|_| RequestError::bad_request("request needs a string `cmd` field"))?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit(parse_job_spec(&value)?)),
            "status" => {
                let job = match value.field("job") {
                    Ok(v) => Some(
                        v.as_str()
                            .map_err(|_| RequestError::bad_request("`job` must be a string"))?
                            .to_owned(),
                    ),
                    Err(_) => None,
                };
                Ok(Request::Status { job })
            }
            "predict" => Ok(Request::Predict {
                dsr: parse_dsr(&value)?,
                granularity: parse_granularity(&value)?,
                core: parse_core(&value)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => {
                Err(RequestError::new("unknown_command", format!("unknown command `{other}`")))
            }
        }
    }
}

/// Default shard count for submits that omit `shards` (documented in
/// `docs/CAMPAIGN_SERVICE.md`). The campaign-level defaults live with
/// the shared spec ([`lockstep_eval::spec`]).
const DEFAULT_SHARDS: u64 = 4;

fn parse_job_spec(value: &Value) -> Result<JobSpec, RequestError> {
    // The submit object doubles as the job spec: the shared-spec
    // deserializer reads the campaign fields (with their historical
    // aliases and defaults), `shards` is the one service-level knob.
    let spec: JobSpec =
        Deserialize::deserialize(value).map_err(|e| RequestError::bad_request(e.to_string()))?;
    spec.validate()?;
    Ok(spec)
}

/// Accepts the DSR as a JSON integer or a hex string (`"0x2400801"`) —
/// 62-bit signatures are awkward as bare JSON numbers in some tooling.
fn parse_dsr(value: &Value) -> Result<u64, RequestError> {
    let field =
        value.field("dsr").map_err(|_| RequestError::bad_request("predict needs a `dsr` field"))?;
    if let Ok(bits) = field.as_u64() {
        return Ok(bits);
    }
    let text = field
        .as_str()
        .map_err(|_| RequestError::bad_request("`dsr` must be an integer or hex string"))?;
    let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")).unwrap_or(text);
    u64::from_str_radix(digits, 16)
        .map_err(|_| RequestError::bad_request(format!("`dsr` is not a hex number: `{text}`")))
}

fn parse_granularity(value: &Value) -> Result<Granularity, RequestError> {
    match value.field("granularity") {
        Ok(v) => match v.as_str() {
            Ok("coarse") => Ok(Granularity::Coarse),
            Ok("fine") => Ok(Granularity::Fine),
            _ => Err(RequestError::bad_request("`granularity` must be \"coarse\" or \"fine\"")),
        },
        Err(_) => Ok(Granularity::Coarse),
    }
}

fn parse_core(value: &Value) -> Result<CoreKind, RequestError> {
    match value.field("core") {
        Ok(v) => {
            let text =
                v.as_str().map_err(|_| RequestError::bad_request("`core` must be a string"))?;
            CoreKind::from_flag(text).ok_or_else(|| {
                RequestError::new("unknown_core", format!("unknown core model `{text}`"))
            })
        }
        Err(_) => Ok(CoreKind::Lr5),
    }
}

/// Spells a granularity the way the protocol does.
pub fn granularity_label(granularity: Granularity) -> &'static str {
    match granularity {
        Granularity::Coarse => "coarse",
        Granularity::Fine => "fine",
    }
}

/// The failure response, for any request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ErrorResponse {
    /// Always `false`.
    pub ok: bool,
    /// Machine-readable error class (see [`RequestError::code`]).
    pub code: String,
    /// Client-facing reason.
    pub error: String,
}

impl Deserialize for ErrorResponse {
    fn deserialize(value: &Value) -> Result<ErrorResponse, JsonError> {
        Ok(ErrorResponse {
            ok: Deserialize::deserialize(value.field("ok")?)?,
            // Error lines from servers that predate typed codes carry
            // only the message.
            code: match value.field("code") {
                Ok(v) => Deserialize::deserialize(v)?,
                Err(_) => "error".to_owned(),
            },
            error: Deserialize::deserialize(value.field("error")?)?,
        })
    }
}

/// Serializes the standard error line for `msg` with the generic
/// `"error"` code.
pub fn error_line(msg: &str) -> String {
    error_line_for(&RequestError::new("error", msg))
}

/// Serializes the standard error line for a typed [`RequestError`].
pub fn error_line_for(err: &RequestError) -> String {
    serde_json::to_string(&ErrorResponse {
        ok: false,
        code: err.code.clone(),
        error: err.message.clone(),
    })
    .expect("error response serializes")
}

/// Response to `ping`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PongResponse {
    /// Always `true`.
    pub ok: bool,
    /// Service name, `"lockstep-serve"`.
    pub service: String,
    /// Archive format version completed shards are persisted as.
    pub archive_version: u64,
}

/// Response to a successful `submit`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// Always `true`.
    pub ok: bool,
    /// Assigned job id (`job-000001`, ...).
    pub job: String,
    /// Shards the job was split into (after clamping to the queue
    /// size).
    pub shards: u64,
    /// Total fault injections queued.
    pub faults: u64,
}

/// One job's state within a `status` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// `"running"`, `"done"` or `"failed"`.
    pub state: String,
    /// Shards whose archives are persisted.
    pub shards_done: u64,
    /// Shards the job was split into.
    pub shards_total: u64,
    /// Total fault injections in the job.
    pub injected: u64,
    /// Manifested error records across completed shards (merged count
    /// once `"done"`, `0` while running).
    pub records: u64,
    /// Failure reason when `state` is `"failed"`, empty otherwise.
    pub error: String,
}

/// Response to `status`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusResponse {
    /// Always `true`.
    pub ok: bool,
    /// Pending shards in the scheduler queue (all jobs).
    pub queued_shards: u64,
    /// Reported jobs, in id order.
    pub jobs: Vec<JobStatus>,
}

/// Response to a successful `predict`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Always `true`.
    pub ok: bool,
    /// The diagnosed DSR, as a zero-padded hex string.
    pub dsr: String,
    /// `"coarse"` or `"fine"`.
    pub granularity: String,
    /// Core model whose jobs the answering table was trained on
    /// (`"lr5"` / `"lr7"`).
    pub core: String,
    /// Unit names, most-suspect first — the paper's ranked checking
    /// order.
    pub order: Vec<String>,
    /// Predicted error type, `"hard"` or `"soft"`.
    pub kind: String,
    /// `true` when the DSR had a trained table entry; `false` means the
    /// default order and type were returned.
    pub table_hit: bool,
    /// Error records the table was trained on.
    pub trained_records: u64,
    /// Completed jobs the training set was merged from.
    pub trained_jobs: u64,
}

/// Response to `shutdown`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `true`.
    pub ok: bool,
    /// Always `true`: the server stops accepting connections after
    /// this line.
    pub stopping: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_cpu::CoreKind;
    use lockstep_eval::spec::{
        DEFAULT_SPEC_BATCH_MODE, DEFAULT_SPEC_REPLAY_MODE, DEFAULT_SPEC_SEED,
    };

    fn job_spec() -> JobSpec {
        JobSpec {
            campaign: CampaignSpec {
                workloads: vec!["idctrn".to_owned(), "rspeed".to_owned()],
                faults_per_workload: 30,
                seed: 9,
                replay_mode: "shadow".to_owned(),
                batch_mode: "off".to_owned(),
                core: "lr7".to_owned(),
                redundancy: "fixed".to_owned(),
            },
            shards: 3,
        }
    }

    #[test]
    fn parses_every_command_with_defaults() {
        assert_eq!(Request::parse(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"cmd":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(Request::parse(r#"{"cmd":"status"}"#).unwrap(), Request::Status { job: None });
        assert_eq!(
            Request::parse(r#"{"cmd":"status","job":"job-000002"}"#).unwrap(),
            Request::Status { job: Some("job-000002".to_owned()) }
        );
        let submit = Request::parse(
            r#"{"cmd":"submit","workloads":["rspeed","idctrn"],"faults_per_workload":30}"#,
        )
        .unwrap();
        assert_eq!(
            submit,
            Request::Submit(JobSpec {
                campaign: CampaignSpec {
                    workloads: vec!["rspeed".to_owned(), "idctrn".to_owned()],
                    faults_per_workload: 30,
                    seed: DEFAULT_SPEC_SEED,
                    replay_mode: DEFAULT_SPEC_REPLAY_MODE.to_owned(),
                    batch_mode: DEFAULT_SPEC_BATCH_MODE.to_owned(),
                    core: "lr5".to_owned(),
                    redundancy: "fixed".to_owned(),
                },
                shards: DEFAULT_SHARDS,
            })
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"predict","dsr":"0x2400801"}"#).unwrap(),
            Request::Predict {
                dsr: 0x2400801,
                granularity: Granularity::Coarse,
                core: CoreKind::Lr5,
            }
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"predict","dsr":37748737,"granularity":"fine","core":"lr7"}"#)
                .unwrap(),
            Request::Predict { dsr: 37748737, granularity: Granularity::Fine, core: CoreKind::Lr7 }
        );
    }

    #[test]
    fn submit_accepts_the_core_axis() {
        let Request::Submit(spec) = Request::parse(
            r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"core":"lr7"}"#,
        )
        .unwrap() else {
            panic!("expected a submit request");
        };
        assert_eq!(spec.campaign.core, "lr7");
        assert_eq!(spec.campaign_config().unwrap().core, CoreKind::Lr7);
    }

    #[test]
    fn submit_accepts_the_redundancy_axis() {
        use lockstep_core::RedundancyMode;

        for (mode, expected) in [("fixed", RedundancyMode::Fixed), ("dme", RedundancyMode::Dme)] {
            let line = format!(
                r#"{{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"redundancy":"{mode}"}}"#
            );
            let Request::Submit(spec) = Request::parse(&line).unwrap() else {
                panic!("expected a submit request");
            };
            assert_eq!(spec.campaign.redundancy, mode);
            assert_eq!(spec.campaign_config().unwrap().redundancy, expected);
        }
    }

    #[test]
    fn submit_accepts_lc_workload_tokens() {
        let line = r#"{"cmd":"submit","workloads":["rspeed","lc:crc32"],"faults_per_workload":5}"#;
        let Request::Submit(spec) = Request::parse(line).unwrap() else {
            panic!("expected a submit request");
        };
        let config = spec.campaign_config().unwrap();
        assert_eq!(config.workloads.len(), 2);
        assert_eq!(config.workloads[1].name, "lc_crc32");
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, code, needle) in [
            ("not json", "bad_request", "malformed"),
            (r#"{"cmd":"warp"}"#, "unknown_command", "unknown command"),
            (r#"{"verb":"ping"}"#, "bad_request", "cmd"),
            (r#"{"cmd":"submit","faults_per_workload":5}"#, "bad_request", "workloads"),
            (
                r#"{"cmd":"submit","workloads":["nope"],"faults_per_workload":5}"#,
                "unknown_workload",
                "unknown workload",
            ),
            (
                // An lc: token naming a kernel the compiler registry
                // doesn't have is rejected at submit, same typed error.
                r#"{"cmd":"submit","workloads":["lc:warp9"],"faults_per_workload":5}"#,
                "unknown_workload",
                "unknown workload",
            ),
            (
                r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":0}"#,
                "zero_faults",
                "at least 1",
            ),
            (
                r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"shards":0}"#,
                "zero_shards",
                "shards",
            ),
            (
                r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"batch_mode":"x"}"#,
                "unknown_batch_mode",
                "batch mode",
            ),
            (
                r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"core":"lr9"}"#,
                "unknown_core",
                "lr9",
            ),
            (
                r#"{"cmd":"submit","workloads":["rspeed"],"faults_per_workload":5,"redundancy":"tmr"}"#,
                "unknown_redundancy",
                "tmr",
            ),
            (r#"{"cmd":"predict"}"#, "bad_request", "dsr"),
            (r#"{"cmd":"predict","dsr":"0xzz"}"#, "bad_request", "hex"),
            (r#"{"cmd":"predict","dsr":1,"granularity":"medium"}"#, "bad_request", "granularity"),
            (r#"{"cmd":"predict","dsr":1,"core":"lr9"}"#, "unknown_core", "lr9"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "`{line}` should be refused as `{code}`, got {err:?}");
            assert!(err.message.contains(needle), "`{line}` → `{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn deeply_nested_status_line_is_a_bad_request_on_a_small_stack() {
        // ~100 KB of `[` in a `status` line: under the server's 1 MiB
        // line cap, and deep enough to overflow the 2 MiB stack of the
        // thread that parses requests if the parser recursed unbounded.
        let line = format!(r#"{{"cmd":"status","job":{}}}"#, "[".repeat(100_000));
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Request::parse(&line))
            .unwrap()
            .join()
            .expect("parsing must not panic")
            .unwrap_err();
        assert_eq!(err.code, "bad_request", "{err:?}");
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn job_spec_round_trips_and_builds_a_config() {
        let spec = job_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec.total_faults(), 60);
        let config = spec.campaign_config().unwrap();
        assert_eq!(config.workloads.len(), 2);
        assert_eq!(config.faults_per_workload, 30);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 1, "shards run single-threaded");
        assert!(config.batch.is_none());
        assert_eq!(config.core, CoreKind::Lr7);
    }

    #[test]
    fn faults_per_workload_is_bounded_at_the_plan_size() {
        let mut spec = job_spec();
        spec.campaign.faults_per_workload = MAX_JOB_FAULTS_PER_WORKLOAD;
        assert_eq!(spec.campaign_config().unwrap().faults_per_workload, 1 << 22);
        spec.campaign.faults_per_workload += 1;
        let err = spec.campaign_config().unwrap_err();
        assert_eq!(err, SpecError::FaultsPastJobBound(MAX_JOB_FAULTS_PER_WORKLOAD));
        assert_eq!(err.code(), "too_many_faults");
        assert_eq!(spec.validate(), Err(err));
    }

    #[test]
    fn legacy_flat_job_records_still_deserialize() {
        // Jobs persisted before the spec unification were one flat
        // object with no `campaign` nesting and no `core` field.
        let back: JobSpec = serde_json::from_str(
            r#"{"workloads":["idctrn"],"faults_per_workload":8,"seed":3,"shards":2,"replay_mode":"shadow","batch_mode":"full"}"#,
        )
        .unwrap();
        assert_eq!(back.shards, 2);
        assert_eq!(back.campaign.faults_per_workload, 8);
        assert_eq!(back.campaign.core, "lr5", "legacy jobs ran on the LR5");
        assert!(back.validate().is_ok());
    }

    #[test]
    fn responses_round_trip() {
        let status = StatusResponse {
            ok: true,
            queued_shards: 2,
            jobs: vec![JobStatus {
                job: "job-000001".to_owned(),
                state: "running".to_owned(),
                shards_done: 1,
                shards_total: 4,
                injected: 60,
                records: 0,
                error: String::new(),
            }],
        };
        let back: StatusResponse =
            serde_json::from_str(&serde_json::to_string(&status).unwrap()).unwrap();
        assert_eq!(back, status);
        assert!(error_line("queue full").contains("\"ok\":false"));
        let typed = error_line_for(&RequestError::from(SpecError::UnknownCore("lr9".to_owned())));
        let back: ErrorResponse = serde_json::from_str(&typed).unwrap();
        assert_eq!(back.code, "unknown_core");
        // Error lines from pre-typed servers still parse.
        let old: ErrorResponse = serde_json::from_str(r#"{"ok":false,"error":"boom"}"#).unwrap();
        assert_eq!(old.code, "error");
    }
}
