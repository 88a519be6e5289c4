//! The LR5 CPU: a cycle-accurate, fault-injectable pipelined core.
//!
//! This crate is the reproduction's stand-in for the Arm Cortex-R5
//! netlist simulated in the paper. It provides:
//!
//! * [`Cpu`] — a six-stage in-order pipeline (fetch ×2, decode, execute,
//!   memory, writeback) with forwarding, interlocks, a serial
//!   multiplier/divider, precise-enough traps and deterministic
//!   cycle-by-cycle behaviour.
//! * [`state::CpuState`] — the complete sequential state; **every** bit
//!   of it is an enumerable flip-flop, addressable via [`flops`] for the
//!   fault-injection methodology of Section IV-A ("faults must be
//!   injected to every flip-flop in the CPU").
//! * [`units`] — the 7-unit (Figure 8) and 13-unit (Section V-D) logical
//!   organizations that fault locations and predictions refer to.
//! * [`ports`] — the output-port model: 62 signal categories compared by
//!   the lockstep checker every cycle.
//! * [`porttrace`] — chunked per-cycle recording of those ports, the
//!   golden reference that shadow replays compare against instead of
//!   stepping a second CPU.
//!
//! Lockstep invariant: two `Cpu`s reset to the same state and stepped
//! against identical memory contents/stimulus produce bit-identical
//! [`ports::PortSet`] snapshots forever (property-tested in
//! `tests/lockstep_equivalence.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod core_model;
mod cpu;
pub mod dirty;
pub mod exec;
pub mod flops;
pub mod lr7;
pub mod ports;
pub mod porttrace;
pub mod state;
pub mod units;

pub use core_model::{ArchCsrs, CoreKind, CoreModel};
pub use cpu::Cpu;
pub use dirty::{park_confined_in, DirtyWitness, LaneWatch};
pub use exec::StepInfo;
pub use flops::{FlopId, FlopReg};
pub use lr7::{Lr7, Lr7State};
pub use ports::{retire_effect_mask, PortSet, Sc, RETIRE_EFFECT_PORTS, SC_COUNT};
pub use porttrace::PortTrace;
pub use state::CpuState;
pub use units::{CoarseUnit, Granularity, UnitId};
