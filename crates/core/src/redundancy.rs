//! Redundancy configurations beyond fixed DMR: the campaign's
//! comparator axis plus the dynamic-pairing lockstep harness.
//!
//! The paper's baseline hard-wires *fixed* lockstep: the redundant CPUs
//! are permanently paired, compared port by port every cycle, and every
//! divergence triggers a full reset-and-restart. This module adds the
//! two alternatives the evaluation compares against:
//!
//! * [`RedundancyMode::Dme`] — diverse memory execution, the one
//!   alternative *detector*: the redundant copy runs over a
//!   structurally shifted address space (`lockstep_mem::dme`) and the
//!   copies are compared on their canonical retired-effect streams
//!   rather than per-cycle ports, which detects shared address-path
//!   stuck-ats that identical lockstep provably masks.
//! * [`DynamicLockstep`] — a pairing and *recovery* policy, not a
//!   detector: the CPUs can pair and unpair at runtime, and after a
//!   predicted-soft BIST verdict the pair **re-syncs from the nearest
//!   golden checkpoint** instead of restarting the task from reset. It
//!   detects exactly like fixed lockstep, so it is not a campaign
//!   comparator; the `dynamic_pairing` experiment measures its
//!   recovery cost as a LERT delta.
//!
//! Re-sync soundness (DESIGN.md §13): a golden checkpoint is a
//! `(state, memory)` pair captured on the fault-free run, so restoring
//! *both* CPUs and *both* private memories from it puts the pair into a
//! reachable fault-free configuration — execution from there is
//! cycle-identical to the golden run, provided the armed fault was
//! transient (cleared before the re-sync). The harness therefore only
//! re-syncs on request, after the BIST layer has delivered a
//! predicted-soft verdict.

use std::sync::Arc;

use lockstep_cpu::{CoreModel, Cpu, PortSet};
use lockstep_fault::Fault;
use lockstep_mem::Memory;
use lockstep_obs::{Event, EventSink};

use crate::checker::Checker;
use crate::harness::{accumulate_capture_window, LockstepEvent};

/// The campaign redundancy axis: how the redundant copies are compared.
/// Mirrors `CoreKind` so every surface (spec, CLI, archive, shards,
/// serve protocol) threads it the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RedundancyMode {
    /// Permanently paired DMR with per-cycle port comparison and
    /// reset-and-restart recovery — the paper's baseline and the
    /// default everywhere.
    #[default]
    Fixed,
    /// Diverse memory execution: the redundant copy runs over a shifted
    /// address space and the copies are compared on retired-effect
    /// streams, covering shared address-path faults.
    Dme,
}

impl RedundancyMode {
    /// Every supported mode, in display order.
    pub const ALL: [RedundancyMode; 2] = [RedundancyMode::Fixed, RedundancyMode::Dme];

    /// The stable label used in flags, specs, archives and stats.
    pub fn label(self) -> &'static str {
        match self {
            RedundancyMode::Fixed => "fixed",
            RedundancyMode::Dme => "dme",
        }
    }

    /// Parses a `--redundancy` flag value.
    pub fn from_flag(flag: &str) -> Option<RedundancyMode> {
        RedundancyMode::ALL.into_iter().find(|m| m.label() == flag)
    }
}

impl std::fmt::Display for RedundancyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A dynamically paired DMR system: two CPUs over private replicated
/// memories that can pair (compared every cycle, exactly like
/// [`LockstepSystem`](crate::LockstepSystem) in replicated mode) and
/// unpair (both run free, nothing is compared) at runtime, and that
/// recover from predicted-soft errors by re-syncing both sides from a
/// golden checkpoint instead of restarting from reset.
///
/// The memories are always replicated (board-level, Figure 1a): an
/// unpaired CPU must not contaminate its partner's inputs, and re-sync
/// has to restore a private memory per side anyway.
#[derive(Debug)]
pub struct DynamicLockstep<C: CoreModel = Cpu> {
    cpus: [C; 2],
    mems: [Memory; 2],
    paired: bool,
    faults: Vec<(usize, Fault)>,
    cycle: u64,
    capture_window: u32,
    label: String,
    events: Option<Arc<dyn EventSink>>,
}

impl DynamicLockstep {
    /// Creates a paired LR5 system over private clones of `mem`.
    /// Shorthand for [`DynamicLockstep::new_for`].
    pub fn new(mem: Memory) -> DynamicLockstep {
        DynamicLockstep::new_for(mem)
    }
}

impl<C: CoreModel> DynamicLockstep<C> {
    /// Creates a paired system over core model `C`: both CPUs reset to
    /// identical state, each driving its own clone of `mem`.
    pub fn new_for(mem: Memory) -> DynamicLockstep<C> {
        DynamicLockstep {
            cpus: [C::new(0), C::new(0)],
            mems: [mem.clone(), mem],
            paired: true,
            faults: Vec::new(),
            cycle: 0,
            capture_window: 8,
            label: "dynamic".to_owned(),
            events: None,
        }
    }

    /// Whether the checker is currently comparing the two CPUs.
    pub fn is_paired(&self) -> bool {
        self.paired
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The main (index 0) CPU.
    pub fn main_cpu(&self) -> &C {
        &self.cpus[0]
    }

    /// The main CPU's private memory.
    pub fn memory(&self) -> &Memory {
        &self.mems[0]
    }

    /// Installs an observability event sink: detections are announced
    /// as [`Event::Detect`] and checkpoint re-syncs as
    /// [`Event::Resync`], tagged with the system's label.
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.events = sink;
    }

    /// Names this system in emitted events (defaults to `"dynamic"`).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Sets the DSR capture window (see
    /// [`LockstepSystem::set_capture_window`](crate::LockstepSystem::set_capture_window)).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_capture_window(&mut self, window: u32) {
        assert!(window >= 1, "capture window must be at least one cycle");
        self.capture_window = window;
    }

    /// Arms a fault inside CPU `cpu` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `cpu > 1`.
    pub fn inject(&mut self, cpu: usize, fault: Fault) {
        assert!(cpu < 2, "no CPU {cpu}");
        self.faults.push((cpu, fault));
    }

    /// Removes all armed faults.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Stops comparing: both CPUs keep executing their own copies, but
    /// divergence goes unobserved until [`pair`](DynamicLockstep::pair)
    /// is called.
    pub fn unpair(&mut self) {
        self.paired = false;
    }

    /// (Re-)enters lockstep: CPU 1 is synchronized to CPU 0 — state
    /// snapshot and private memory both copied over — and per-cycle
    /// comparison resumes. Pairing an already-paired system is a no-op
    /// beyond the redundant copy.
    pub fn pair(&mut self) {
        let donor = self.cpus[0].snapshot();
        self.cpus[1].restore(&donor);
        self.mems[1] = self.mems[0].clone();
        self.paired = true;
    }

    /// Checkpoint re-sync, the dynamic-mode soft-error recovery:
    /// restores **both** CPUs and **both** private memories from a
    /// golden `(state, memory)` checkpoint captured at
    /// `checkpoint_cycle`, rewinds the cycle counter to it, and resumes
    /// paired. Returns the replay distance (cycles of work to redo,
    /// current cycle minus checkpoint cycle) — the quantity that
    /// replaces the full task restart in LERT accounting.
    ///
    /// The caller must have cleared transient faults first
    /// ([`clear_faults`](DynamicLockstep::clear_faults)); re-syncing
    /// under a hard fault just re-detects.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_cycle` is in the future.
    pub fn resync_from(&mut self, state: &C::State, mem: &Memory, checkpoint_cycle: u64) -> u64 {
        assert!(
            checkpoint_cycle <= self.cycle,
            "checkpoint {checkpoint_cycle} is ahead of cycle {}",
            self.cycle
        );
        let distance = self.cycle - checkpoint_cycle;
        if let Some(sink) = &self.events {
            sink.emit(&Event::Resync {
                workload: self.label.clone(),
                detect_cycle: self.cycle,
                checkpoint_cycle,
                resync_cycles: distance,
            });
        }
        for cpu in &mut self.cpus {
            cpu.restore(state);
        }
        self.mems = [mem.clone(), mem.clone()];
        self.cycle = checkpoint_cycle;
        self.paired = true;
        distance
    }

    /// Advances both CPUs one cycle. Paired: runs the checker with DSR
    /// capture-window accumulation, exactly like the fixed harness.
    /// Unpaired: no comparison — the step reports
    /// [`LockstepEvent::Running`]/[`Halted`](LockstepEvent::Halted)
    /// from the main CPU alone.
    pub fn step(&mut self) -> LockstepEvent {
        let first = self.step_once();
        if !self.paired {
            return first;
        }
        let merged = accumulate_capture_window(first, self.capture_window, || self.step_once());
        if let LockstepEvent::ErrorDetected { dsr, cycle, .. } = &merged {
            if let Some(sink) = &self.events {
                sink.emit(&Event::Detect {
                    workload: self.label.clone(),
                    inject_cycle: self.faults.iter().map(|(_, f)| f.cycle).min().unwrap_or(0),
                    detect_cycle: *cycle,
                    dsr_bits: dsr.bits(),
                });
            }
        }
        merged
    }

    /// One raw cycle: step both CPUs on their private memories, compare
    /// ports only while paired.
    fn step_once(&mut self) -> LockstepEvent {
        let cycle = self.cycle;
        self.cycle += 1;

        let mut ports = [PortSet::new(), PortSet::new()];
        for (i, (cpu, port)) in self.cpus.iter_mut().zip(ports.iter_mut()).enumerate() {
            let faults = &self.faults;
            cpu.step_with_overlay(&mut self.mems[i], port, |st| {
                for (c, f) in faults {
                    if *c == i {
                        f.overlay_for::<C>(st, cycle);
                    }
                }
            });
        }

        if self.paired {
            if let Some(dsr) = Checker::compare(&ports[0], &ports[1]) {
                return LockstepEvent::ErrorDetected { dsr, cycle, erring_cpu: None };
            }
        }
        if self.cpus[0].is_halted() {
            LockstepEvent::Halted
        } else {
            LockstepEvent::Running
        }
    }

    /// Runs until an error is detected (paired only), the program
    /// halts, or `max_cycles` elapse. Returns the final event.
    pub fn run(&mut self, max_cycles: u64) -> LockstepEvent {
        for _ in 0..max_cycles {
            match self.step() {
                LockstepEvent::Running => continue,
                other => return other,
            }
        }
        LockstepEvent::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for mode in RedundancyMode::ALL {
            assert_eq!(RedundancyMode::from_flag(mode.label()), Some(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(RedundancyMode::from_flag("tmr"), None);
        // Dynamic pairing is a recovery policy, not a comparator.
        assert_eq!(RedundancyMode::from_flag("dynamic"), None);
        assert_eq!(RedundancyMode::default(), RedundancyMode::Fixed);
    }
}
