//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--faults N` — fault injections per workload (default 2000);
//! * `--seed S` — campaign master seed (default 2018, the paper's year);
//! * `--threads T` — worker threads (default: available parallelism);
//! * `--workloads a,b,c` — subset of kernels (default: full suite).
//!   A token of the form `fuzz:<seed>[:<count>]` expands to `count`
//!   (default 8) deterministic fuzz-generated programs from the seeded
//!   generator, e.g. `--workloads fuzz:42:16` or mixed with kernels as
//!   `--workloads rspeed,fuzz:42`. A token of the form `lc:<kernel>`
//!   selects one compiled-LC workload (`lc:all` the whole compiled
//!   set), e.g. `--workloads lc:quicksort,rspeed`;
//! * `--checkpoint-interval K` — golden checkpoint spacing in cycles
//!   (default 4096; `0` disables checkpointing and replays every
//!   injection from reset);
//! * `--events PATH` — write the structured campaign event log (one
//!   JSON object per line) to `PATH` (default: no event log);
//! * `--trace-window N` — record a divergence trace per manifested
//!   error, keeping the last `N` pre-detection cycles (`0` disables;
//!   default off). Traces need checkpointing and the port comparator,
//!   so a non-zero window with `--checkpoint-interval 0` or
//!   `--redundancy dme` is refused;
//! * `--batch-mode {off,full}` — the batched fault-simulation engine
//!   (default `full`; `off` replays every fault on its own scalar
//!   engine). Both yield bit-identical campaign results; see
//!   [`crate::batch::BatchConfig`]. Ignored when `--trace-window` is on
//!   (tracing needs the scalar per-fault path; the event log then
//!   carries a `batch_mode_downgraded` event);
//! * `--core {lr5,lr7}` — core model under test (default `lr5`, the
//!   in-order pipeline; `lr7` is the out-of-order core);
//! * `--redundancy {fixed,dme}` — the comparator under evaluation
//!   (default `fixed`, the per-cycle port compare of DMR); `dme` runs
//!   the redundant copy over a shifted address space and compares
//!   retired-effect streams. See [`lockstep_core::RedundancyMode`].
//!
//! The portable flags are checked as one [`CampaignSpec`], the
//! description the campaign service validates too, so a bad value
//! (zero faults, an unknown workload or label) exits 2 with the same
//! message the service would give.

use std::sync::Arc;

use lockstep_core::RedundancyMode;
use lockstep_cpu::CoreKind;
use lockstep_obs::{EventSink, JsonlSink};
use lockstep_workloads::Workload;

use crate::batch::BatchConfig;
use crate::campaign::{CampaignConfig, DEFAULT_CHECKPOINT_INTERVAL};
use crate::spec::{CampaignSpec, DEFAULT_SPEC_BATCH_MODE, DEFAULT_SPEC_REPLAY_MODE};

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Faults per workload.
    pub faults: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Selected workloads.
    pub workloads: Vec<&'static Workload>,
    /// Checkpoint spacing (`None` = from-reset replay).
    pub checkpoint_interval: Option<u64>,
    /// Structured event log sink (`--events PATH`; `None` = no log).
    pub events: Option<Arc<dyn EventSink>>,
    /// Divergence-trace pre-detection window (`None` = tracing off).
    pub trace_window: Option<u32>,
    /// Batched fault-simulation layers (`--batch-mode`; default full,
    /// `None` = scalar per-fault replay).
    pub batch: Option<BatchConfig>,
    /// Core model under test (`--core`; default LR5).
    pub core: CoreKind,
    /// Redundancy arrangement (`--redundancy`; default fixed DMR).
    pub redundancy: RedundancyMode,
}

impl CommonArgs {
    /// Parses `std::env::args()`-style arguments (the program name in
    /// position 0 is ignored). Unknown flags, and values the campaign
    /// spec refuses, abort with exit status 2.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> CommonArgs {
        let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        let mut checkpoint_interval = Some(DEFAULT_CHECKPOINT_INTERVAL);
        let mut events: Option<Arc<dyn EventSink>> = None;
        let mut trace_window = None;
        let mut spec = CampaignSpec {
            workloads: Workload::all().iter().map(|w| w.name.to_owned()).collect(),
            faults_per_workload: 2000,
            seed: 2018,
            replay_mode: DEFAULT_SPEC_REPLAY_MODE.to_owned(),
            batch_mode: DEFAULT_SPEC_BATCH_MODE.to_owned(),
            core: CoreKind::default().label().to_owned(),
            redundancy: RedundancyMode::default().label().to_owned(),
        };
        let mut it = args.into_iter().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |flag: &str| it.next().unwrap_or_else(|| die(&format!("{flag} requires a value")));
            match flag.as_str() {
                "--faults" => {
                    spec.faults_per_workload =
                        value("--faults").parse().unwrap_or_else(|_| die("bad --faults"))
                }
                "--seed" => {
                    spec.seed = value("--seed").parse().unwrap_or_else(|_| die("bad --seed"))
                }
                "--threads" => {
                    threads = value("--threads").parse().unwrap_or_else(|_| die("bad --threads"))
                }
                "--workloads" => {
                    spec.workloads =
                        value("--workloads").split(',').map(|w| w.trim().to_owned()).collect()
                }
                "--checkpoint-interval" => {
                    let k: u64 = value("--checkpoint-interval")
                        .parse()
                        .unwrap_or_else(|_| die("bad --checkpoint-interval"));
                    checkpoint_interval = (k != 0).then_some(k);
                }
                "--events" => {
                    let path = value("--events");
                    let sink = JsonlSink::create(std::path::Path::new(&path))
                        .unwrap_or_else(|e| die(&format!("cannot create event log `{path}`: {e}")));
                    events = Some(Arc::new(sink));
                }
                "--trace-window" => {
                    let n: u32 = value("--trace-window")
                        .parse()
                        .unwrap_or_else(|_| die("bad --trace-window"));
                    trace_window = (n != 0).then_some(n);
                }
                "--batch-mode" => spec.batch_mode = value("--batch-mode"),
                "--core" => spec.core = value("--core"),
                "--redundancy" => spec.redundancy = value("--redundancy"),
                "--help" | "-h" => {
                    println!(
                        "usage: [--faults N] [--seed S] [--threads T] \
                         [--workloads a,b,c | fuzz:<seed>[:<count>] | lc:<kernel>|lc:all] \
                         [--checkpoint-interval K (0 = off)] [--events PATH] \
                         [--trace-window N (0 = off)] [--batch-mode off|full] \
                         [--core lr5|lr7] [--redundancy fixed|dme]"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown flag `{other}`")),
            }
        }
        let config = spec.campaign_config(threads).unwrap_or_else(|e| die(&e.to_string()));
        let args = CommonArgs {
            faults: config.faults_per_workload,
            seed: config.seed,
            threads,
            workloads: config.workloads,
            checkpoint_interval,
            events,
            trace_window,
            batch: config.batch,
            core: config.core,
            redundancy: config.redundancy,
        };
        if args.trace_window.is_some() && !args.campaign_config().records_traces() {
            die("--trace-window needs checkpointing (--checkpoint-interval above 0) and --redundancy fixed");
        }
        args
    }

    /// Builds the campaign configuration these args describe: the
    /// validated spec plus the process-local knobs only the CLI has
    /// (thread count, checkpoint interval, event sink, trace window).
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            workloads: self.workloads.clone(),
            threads: self.threads,
            checkpoint_interval: self.checkpoint_interval,
            events: self.events.clone(),
            trace_window: self.trace_window,
            batch: self.batch,
            core: self.core,
            redundancy: self.redundancy,
            ..CampaignConfig::new(self.faults, self.seed)
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_workloads::fuzz;

    fn parse(args: &[&str]) -> CommonArgs {
        let mut v = vec!["prog".to_owned()];
        v.extend(args.iter().map(|s| (*s).to_owned()));
        CommonArgs::parse(v)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.faults, 2000);
        assert_eq!(a.seed, 2018);
        assert_eq!(a.workloads.len(), 12);
        assert_eq!(a.checkpoint_interval, Some(DEFAULT_CHECKPOINT_INTERVAL));
    }

    #[test]
    fn overrides() {
        let a = parse(&["--faults", "500", "--seed", "7", "--threads", "2"]);
        assert_eq!(a.faults, 500);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn workload_subset() {
        let a = parse(&["--workloads", "rspeed,ttsprk"]);
        assert_eq!(a.workloads.len(), 2);
        assert_eq!(a.workloads[0].name, "rspeed");
    }

    #[test]
    fn fuzz_workload_specs_expand() {
        let a = parse(&["--workloads", "fuzz:42"]);
        assert_eq!(a.workloads.len(), fuzz::DEFAULT_FUZZ_COUNT as usize);
        assert_eq!(a.workloads[0].name, "fuzz42_000");

        let a = parse(&["--workloads", "rspeed,fuzz:7:3"]);
        assert_eq!(a.workloads.len(), 4);
        assert_eq!(a.workloads[0].name, "rspeed");
        assert_eq!(a.workloads[3].name, "fuzz7_002");

        // Same spec twice → the same interned instances.
        let b = parse(&["--workloads", "fuzz:7:3"]);
        assert!(std::ptr::eq(a.workloads[1], b.workloads[0]));
    }

    #[test]
    fn lc_workload_specs_expand() {
        use lockstep_workloads::lc;

        let a = parse(&["--workloads", "lc:quicksort"]);
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "lc_quicksort");

        let a = parse(&["--workloads", "lc:all"]);
        assert_eq!(a.workloads.len(), lc::KERNELS.len());
        assert!(a.workloads.iter().all(|w| w.name.starts_with("lc_")));

        // Mixed with hand-written kernels, fuzz sweeps, and lc_ names.
        let a = parse(&["--workloads", "rspeed,lc:crc32,fuzz:7:2,lc_sieve"]);
        assert_eq!(a.workloads.len(), 5);
        assert_eq!(a.workloads[0].name, "rspeed");
        assert_eq!(a.workloads[1].name, "lc_crc32");
        assert_eq!(a.workloads[2].name, "fuzz7_000");
        assert_eq!(a.workloads[4].name, "lc_sieve");

        // Same token twice → the same interned instance.
        let b = parse(&["--workloads", "lc:crc32"]);
        assert!(std::ptr::eq(a.workloads[1], b.workloads[0]));
    }

    #[test]
    fn campaign_config_mirrors_args() {
        let a = parse(&["--faults", "9", "--seed", "3"]);
        let c = a.campaign_config();
        assert_eq!(c.faults_per_workload, 9);
        assert_eq!(c.seed, 3);
        assert_eq!(c.checkpoint_interval, Some(DEFAULT_CHECKPOINT_INTERVAL));
    }

    #[test]
    fn checkpoint_interval_zero_disables() {
        assert_eq!(parse(&["--checkpoint-interval", "0"]).checkpoint_interval, None);
        assert_eq!(parse(&["--checkpoint-interval", "512"]).checkpoint_interval, Some(512));
    }

    #[test]
    fn batch_mode_flag() {
        assert_eq!(parse(&[]).batch, Some(BatchConfig::FULL), "batching is the default");
        assert_eq!(parse(&["--batch-mode", "off"]).batch, None);
        let c = parse(&["--batch-mode", "full"]).campaign_config();
        assert_eq!(c.batch, Some(BatchConfig::FULL));
        assert_eq!(c.effective_batch(), Some(BatchConfig::FULL));
    }

    #[test]
    fn core_flag() {
        assert_eq!(parse(&[]).core, CoreKind::Lr5, "LR5 is the default core");
        assert_eq!(parse(&["--core", "lr5"]).core, CoreKind::Lr5);
        let a = parse(&["--core", "lr7"]);
        assert_eq!(a.core, CoreKind::Lr7);
        assert_eq!(a.campaign_config().core, CoreKind::Lr7);
    }

    #[test]
    fn redundancy_flag() {
        assert_eq!(parse(&[]).redundancy, RedundancyMode::Fixed, "fixed DMR is the default");
        assert_eq!(parse(&["--redundancy", "fixed"]).redundancy, RedundancyMode::Fixed);
        let a = parse(&["--redundancy", "dme"]);
        assert_eq!(a.redundancy, RedundancyMode::Dme);
        let c = a.campaign_config();
        assert_eq!(c.redundancy, RedundancyMode::Dme);
        assert_eq!(c.batch, Some(BatchConfig::FULL));
        assert_eq!(c.effective_batch(), Some(BatchConfig::FULL), "dme runs the configured layers");
    }

    #[test]
    fn trace_window_zero_disables() {
        assert_eq!(parse(&[]).trace_window, None);
        assert_eq!(parse(&["--trace-window", "0"]).trace_window, None);
        assert_eq!(parse(&["--trace-window", "48"]).trace_window, Some(48));
        assert_eq!(parse(&["--trace-window", "48"]).campaign_config().trace_window, Some(48));
    }

    #[test]
    fn events_flag_installs_a_jsonl_sink() {
        let dir = std::env::temp_dir().join("lockstep_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let a = parse(&["--events", path.to_str().unwrap()]);
        let sink = a.events.as_ref().expect("sink installed");
        sink.emit(&lockstep_obs::Event::Span { name: "t".into(), nanos: 1 });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"type\":\"span\""));
        assert!(a.campaign_config().events.is_some());
        std::fs::remove_file(&path).ok();
    }
}
