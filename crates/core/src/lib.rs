//! Lockstep execution and **error correlation prediction** — the paper's
//! primary contribution.
//!
//! This crate implements everything inside the red and black boxes of the
//! paper's Figure 6:
//!
//! * [`checker`] — the lockstep error checker: per-signal-category XOR
//!   compare with OR-reduction trees, for DMR pairs and MMR (e.g. TMR)
//!   configurations with majority voting;
//! * [`dsr`] — the Divergence Status Register: one bit per signal
//!   category, captured at the moment the error is detected;
//! * [`predictor`] — the static error correlation predictor: training
//!   histograms per diverged-SC set (Figure 10a), the prediction table
//!   with ranked unit order plus a 1-bit type prediction (Figure 10b),
//!   and the PTAR address-mapping from DSR values to table entries;
//! * [`dynamic`] — the online-updating predictor variant discussed (and
//!   argued unnecessary) in Section VII, for the static-vs-dynamic
//!   ablation;
//! * [`harness`] — the live lockstep system (redundant CPUs, shared-bus
//!   or replicated memory, per-cycle checking with the DSR capture
//!   window; reset & restart, TMR forward recovery and checkpoint
//!   re-sync);
//! * [`redundancy`] — the campaign comparator axis (fixed port compare
//!   / DME retire stream);
//! * [`log`] — the lockstep error data logging of Figure 7.
//!
//! # Example
//!
//! ```
//! use lockstep_core::dsr::Dsr;
//! use lockstep_core::predictor::{Predictor, PredictorConfig, TrainRecord};
//! use lockstep_cpu::Granularity;
//! use lockstep_fault::ErrorKind;
//!
//! // Train on two observations: DSR 0b11 came from unit 2 (hard).
//! let records = vec![
//!     TrainRecord { dsr: Dsr::from_bits(0b11), unit: 2, kind: ErrorKind::Hard },
//!     TrainRecord { dsr: Dsr::from_bits(0b11), unit: 2, kind: ErrorKind::Hard },
//! ];
//! let predictor = Predictor::train(&records, PredictorConfig::new(Granularity::Coarse));
//! let p = predictor.predict(Dsr::from_bits(0b11));
//! assert_eq!(p.order[0], 2);
//! assert_eq!(p.kind, ErrorKind::Hard);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checker;
pub mod dsr;
pub mod dynamic;
pub mod harness;
pub mod log;
pub mod predictor;
pub mod redundancy;

pub use checker::{Checker, MmrOutcome};
pub use dsr::Dsr;
pub use dynamic::DynamicPredictor;
pub use harness::{LockstepEvent, LockstepSystem, MemoryModel};
pub use log::ErrorRecord;
pub use predictor::{Prediction, Predictor, PredictorConfig, TrainRecord, TypeScoring};
pub use redundancy::RedundancyMode;
