//! A live lockstep system: redundant CPUs, replicated inputs, per-cycle
//! checking and recovery mechanics.
//!
//! Two memory models are supported, mirroring the paper's Figure 1:
//!
//! * [`MemoryModel::SharedBus`] (the default) — the sphere of
//!   replication contains only the CPUs (CPU-level lockstepping,
//!   Figure 1c). The **main** CPU (index 0) drives the shared memory
//!   system; its bus responses are recorded and replayed to the
//!   redundant CPUs, which is how real DCLS replicates inputs at the
//!   sphere boundary. Redundant CPUs' writes never reach memory — their
//!   outputs exist only to be compared.
//! * [`MemoryModel::Replicated`] — board-level lockstepping
//!   (Figure 1a): every CPU drives its own private copy of the memory
//!   system, so a faulty CPU cannot contaminate the inputs of the
//!   fault-free ones. Under this model a fault-free CPU's ports are a
//!   pure function of the workload, which is what lets the campaign
//!   engine record them once and replay every injection against the
//!   recording; `lockstep-eval`'s `replay_equivalence` suite holds that
//!   replay to this harness.
//!
//! Recovery: [`LockstepSystem::reset_and_restart`] is fixed DMR's
//! soft-error recovery, [`LockstepSystem::forward_recover`] TMR's, and
//! [`LockstepSystem::resync_from`] dynamic lockstep's checkpoint
//! re-sync (DESIGN.md §13).

use std::collections::VecDeque;
use std::sync::Arc;

use lockstep_cpu::{CoreModel, Cpu, PortSet};
use lockstep_fault::Fault;
use lockstep_mem::{BusFault, Memory, MemoryPort};
use lockstep_obs::{Event, EventSink};

use crate::checker::Checker;
use crate::dsr::Dsr;

/// How memory is organized around the redundant CPUs (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryModel {
    /// CPU-level lockstep (Figure 1c): one shared memory driven by the
    /// main CPU, whose bus responses are replayed to the redundant CPUs.
    #[default]
    SharedBus,
    /// Board-level lockstep (Figure 1a): every CPU drives its own
    /// private copy of the memory system.
    Replicated,
}

/// What a lockstep step observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockstepEvent {
    /// All CPUs agreed; execution continues.
    Running,
    /// All CPUs agreed and every CPU has halted (program complete). A
    /// CPU that halts while another still runs is not a completion: the
    /// checker sees its quiescent ports diverge on the next cycle.
    Halted,
    /// The checker detected divergence.
    ErrorDetected {
        /// Captured Divergence Status Register.
        dsr: Dsr,
        /// Cycle of detection.
        cycle: u64,
        /// Erring CPU identified by majority voting (MMR only; `None`
        /// in DMR, where the checker cannot attribute the error).
        erring_cpu: Option<usize>,
    },
}

/// Records the main CPU's bus responses for replication.
struct RecordingPort<'a> {
    inner: &'a mut Memory,
    fetches: VecDeque<Result<u32, BusFault>>,
    reads: VecDeque<Result<u32, BusFault>>,
}

impl MemoryPort for RecordingPort<'_> {
    fn fetch(&mut self, addr: u32) -> Result<u32, BusFault> {
        let r = self.inner.fetch(addr);
        self.fetches.push_back(r);
        r
    }

    fn read(&mut self, addr: u32) -> Result<u32, BusFault> {
        let r = self.inner.read(addr);
        self.reads.push_back(r);
        r
    }

    fn write(&mut self, addr: u32, data: u32, byte_mask: u8) -> Result<(), BusFault> {
        self.inner.write(addr, data, byte_mask)
    }
}

/// Replays recorded responses to a redundant CPU and swallows its writes.
struct ReplayPort {
    fetches: VecDeque<Result<u32, BusFault>>,
    reads: VecDeque<Result<u32, BusFault>>,
}

impl MemoryPort for ReplayPort {
    fn fetch(&mut self, _addr: u32) -> Result<u32, BusFault> {
        // An exhausted queue means this CPU issued an access the main CPU
        // did not — it is already divergent; any defined value will do.
        self.fetches.pop_front().unwrap_or(Ok(0))
    }

    fn read(&mut self, _addr: u32) -> Result<u32, BusFault> {
        self.reads.pop_front().unwrap_or(Ok(0))
    }

    fn write(&mut self, _addr: u32, _data: u32, _byte_mask: u8) -> Result<(), BusFault> {
        Ok(())
    }
}

/// A lockstep processor: N redundant CPUs around a shared or replicated
/// memory system.
///
/// Generic over the [`CoreModel`] being replicated (LR5's [`Cpu`] by
/// default); the checker, DSR capture and recovery mechanics are
/// identical for every core because they act only on port snapshots and
/// the `CoreModel` surface.
#[derive(Debug)]
pub struct LockstepSystem<C: CoreModel = Cpu> {
    cpus: Vec<C>,
    /// The main CPU's memory (the only memory under [`MemoryModel::SharedBus`]).
    mem: Memory,
    /// Private memories of CPUs `1..n` under [`MemoryModel::Replicated`];
    /// empty under [`MemoryModel::SharedBus`].
    replicas: Vec<Memory>,
    model: MemoryModel,
    faults: Vec<(usize, Fault)>,
    cycle: u64,
    capture_window: u32,
    label: String,
    events: Option<Arc<dyn EventSink>>,
}

impl LockstepSystem {
    /// Creates an `n`-CPU LR5 lockstep system over `mem` with the
    /// shared-bus memory model (Figure 1c, the paper's DCLS
    /// configuration). Shorthand for [`LockstepSystem::new_for`].
    ///
    /// All CPUs reset to identical state (including `hartid` 0: in real
    /// DCLS the redundant CPU is fed the main CPU's identity so that
    /// fault-free runs are bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, mem: Memory) -> LockstepSystem {
        LockstepSystem::new_for(n, mem)
    }

    /// Creates an `n`-CPU board-level LR5 lockstep system (Figure 1a):
    /// each CPU gets its own clone of `mem`, so every CPU's inputs stay
    /// fault-free regardless of what the others do. This is the model
    /// the campaign's recorded replay stands in for. Shorthand for
    /// [`LockstepSystem::new_replicated_for`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new_replicated(n: usize, mem: Memory) -> LockstepSystem {
        LockstepSystem::new_replicated_for(n, mem)
    }

    /// Dual-modular redundancy (the paper's main configuration).
    pub fn dmr(mem: Memory) -> LockstepSystem {
        LockstepSystem::new(2, mem)
    }

    /// Triple-modular redundancy with majority voting.
    pub fn tmr(mem: Memory) -> LockstepSystem {
        LockstepSystem::new(3, mem)
    }
}

impl<C: CoreModel> LockstepSystem<C> {
    /// [`LockstepSystem::new`] over core model `C`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new_for(n: usize, mem: Memory) -> LockstepSystem<C> {
        LockstepSystem::with_model(n, mem, MemoryModel::SharedBus)
    }

    /// [`LockstepSystem::new_replicated`] over core model `C`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new_replicated_for(n: usize, mem: Memory) -> LockstepSystem<C> {
        LockstepSystem::with_model(n, mem, MemoryModel::Replicated)
    }

    fn with_model(n: usize, mem: Memory, model: MemoryModel) -> LockstepSystem<C> {
        assert!(n >= 2, "lockstep needs at least two CPUs");
        let replicas = match model {
            MemoryModel::SharedBus => Vec::new(),
            MemoryModel::Replicated => (1..n).map(|_| mem.clone()).collect(),
        };
        LockstepSystem {
            cpus: (0..n).map(|_| C::new(0)).collect(),
            mem,
            replicas,
            model,
            faults: Vec::new(),
            cycle: 0,
            capture_window: 8,
            label: "lockstep".to_owned(),
            events: None,
        }
    }

    /// The memory model this system was built with.
    pub fn memory_model(&self) -> MemoryModel {
        self.model
    }

    /// Installs an observability event sink: the harness announces every
    /// armed fault as an [`Event::Inject`], every checker detection as
    /// an [`Event::Detect`] and every checkpoint re-sync as an
    /// [`Event::Resync`] (tagged with the system's
    /// [`label`](LockstepSystem::set_label)). `None` (the default) emits
    /// nothing and costs nothing.
    pub fn set_event_sink(&mut self, sink: Option<Arc<dyn EventSink>>) {
        self.events = sink;
    }

    /// Names this system in emitted events (defaults to `"lockstep"`;
    /// campaigns use the workload name).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Sets the DSR capture window: after the first divergent cycle the
    /// DSR keeps accumulating per-SC divergences for `window - 1`
    /// further cycles while the CPUs are being stopped (hardware
    /// behaviour; default 8). `1` captures only the first divergent
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_capture_window(&mut self, window: u32) {
        assert!(window >= 1, "capture window must be at least one cycle");
        self.capture_window = window;
    }

    /// Number of redundant CPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The shared memory system.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the shared memory (error injection in examples).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The main CPU.
    pub fn main_cpu(&self) -> &C {
        &self.cpus[0]
    }

    /// Arms a fault inside CPU `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn inject(&mut self, cpu: usize, fault: Fault) {
        assert!(cpu < self.cpus.len(), "no CPU {cpu}");
        if let Some(sink) = &self.events {
            sink.emit(&Event::Inject {
                workload: self.label.clone(),
                unit: fault.unit_for::<C>().name().to_owned(),
                fault: fault.describe_for::<C>(),
                cycle: fault.cycle,
            });
        }
        self.faults.push((cpu, fault));
    }

    /// Removes all armed faults (e.g. after a part is replaced).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Advances all CPUs one cycle and runs the checker. On divergence,
    /// continues stepping for the rest of the capture window so the DSR
    /// accumulates exactly as the hardware register would: per-SC
    /// divergences keep OR-ing in for `window - 1` further cycles while
    /// the CPUs are being stopped.
    pub fn step(&mut self) -> LockstepEvent {
        let first = self.step_once();
        let LockstepEvent::ErrorDetected { dsr, cycle, erring_cpu } = first else {
            return first;
        };
        let mut bits = dsr.bits();
        for _ in 1..self.capture_window {
            if let LockstepEvent::ErrorDetected { dsr, .. } = self.step_once() {
                bits |= dsr.bits();
            }
        }
        if let Some(sink) = &self.events {
            sink.emit(&Event::Detect {
                workload: self.label.clone(),
                inject_cycle: self.faults.iter().map(|(_, f)| f.cycle).min().unwrap_or(0),
                detect_cycle: cycle,
                dsr_bits: bits,
            });
        }
        LockstepEvent::ErrorDetected { dsr: Dsr::from_bits(bits), cycle, erring_cpu }
    }

    /// One raw cycle: step every CPU and compare ports.
    fn step_once(&mut self) -> LockstepEvent {
        let cycle = self.cycle;
        self.cycle += 1;

        let mut ports: Vec<PortSet> = vec![PortSet::new(); self.cpus.len()];
        match self.model {
            MemoryModel::SharedBus => {
                // Main CPU drives the real memory, recording its responses.
                let mut recorder = RecordingPort {
                    inner: &mut self.mem,
                    fetches: VecDeque::new(),
                    reads: VecDeque::new(),
                };
                let faults = &self.faults;
                self.cpus[0].step_with_overlay(&mut recorder, &mut ports[0], |st| {
                    for (c, f) in faults {
                        if *c == 0 {
                            f.overlay_for::<C>(st, cycle);
                        }
                    }
                });
                let (fetches, reads) = (recorder.fetches, recorder.reads);

                // Redundant CPUs consume the replicated inputs.
                for (i, (cpu, port)) in
                    self.cpus.iter_mut().zip(ports.iter_mut()).enumerate().skip(1)
                {
                    let mut replay = ReplayPort { fetches: fetches.clone(), reads: reads.clone() };
                    let faults = &self.faults;
                    cpu.step_with_overlay(&mut replay, port, |st| {
                        for (c, f) in faults {
                            if *c == i {
                                f.overlay_for::<C>(st, cycle);
                            }
                        }
                    });
                }
            }
            MemoryModel::Replicated => {
                // Every CPU drives its own private memory copy.
                for (i, (cpu, port)) in self.cpus.iter_mut().zip(ports.iter_mut()).enumerate() {
                    let mem = if i == 0 { &mut self.mem } else { &mut self.replicas[i - 1] };
                    let faults = &self.faults;
                    cpu.step_with_overlay(mem, port, |st| {
                        for (c, f) in faults {
                            if *c == i {
                                f.overlay_for::<C>(st, cycle);
                            }
                        }
                    });
                }
            }
        }

        // Checker.
        if self.cpus.len() == 2 {
            if let Some(dsr) = Checker::compare(&ports[0], &ports[1]) {
                return LockstepEvent::ErrorDetected { dsr, cycle, erring_cpu: None };
            }
        } else if let Some(out) = Checker::compare_mmr(&ports) {
            return LockstepEvent::ErrorDetected {
                dsr: out.dsr,
                cycle,
                erring_cpu: out.erring_cpu,
            };
        }
        if self.cpus.iter().all(C::is_halted) {
            LockstepEvent::Halted
        } else {
            LockstepEvent::Running
        }
    }

    /// Runs until an error is detected, every CPU has halted, or
    /// `max_cycles` elapse. Returns the final event.
    pub fn run(&mut self, max_cycles: u64) -> LockstepEvent {
        for _ in 0..max_cycles {
            match self.step() {
                LockstepEvent::Running => continue,
                other => return other,
            }
        }
        LockstepEvent::Running
    }

    /// Soft-error recovery: reset every CPU to the identical reset state
    /// and restart the task (I/O streams restart; memory image persists,
    /// so the program re-enters at the reset vector).
    pub fn reset_and_restart(&mut self) {
        let reset = C::reset_state(0);
        for cpu in &mut self.cpus {
            cpu.restore(&reset);
        }
        self.mem.reset_io();
        for mem in &mut self.replicas {
            mem.reset_io();
        }
    }

    /// TMR forward recovery (Section II-2): copies the architectural
    /// state of the majority (healthy) CPU over the erring one, bringing
    /// it back into lockstep without restarting the task.
    ///
    /// # Panics
    ///
    /// Panics if the system is not MMR (≥3 CPUs) or indices are invalid.
    pub fn forward_recover(&mut self, erring_cpu: usize, healthy_cpu: usize) {
        assert!(self.cpus.len() >= 3, "forward recovery requires MMR");
        assert!(erring_cpu < self.cpus.len() && healthy_cpu < self.cpus.len());
        assert_ne!(erring_cpu, healthy_cpu);
        let donor = self.cpus[healthy_cpu].snapshot();
        self.cpus[erring_cpu].restore(&donor);
    }

    /// Checkpoint re-sync, dynamic lockstep's soft-error recovery:
    /// restores **every** CPU and **every** memory (the main one and the
    /// replicas) from a golden `(state, memory)` checkpoint captured at
    /// `checkpoint_cycle`, rewinds the cycle counter to it and announces
    /// an [`Event::Resync`]. Returns the replay distance (cycles of work
    /// to redo, current cycle minus checkpoint cycle) — the quantity that
    /// replaces the full task restart in LERT accounting.
    ///
    /// Sound (DESIGN.md §13) because a golden checkpoint was captured on
    /// the fault-free run: restoring every CPU and every memory from it
    /// puts the system into a reachable fault-free configuration, and
    /// execution from there is cycle-identical to the golden run —
    /// provided the caller has cleared the transient faults first
    /// ([`clear_faults`](LockstepSystem::clear_faults)). Re-syncing
    /// under a hard fault just re-detects.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_cycle` is ahead of the current cycle.
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
        for m in std::iter::once(&mut self.mem).chain(&mut self.replicas) {
            m.clone_from(mem);
        }
        self.cycle = checkpoint_cycle;
        distance
    }
}
