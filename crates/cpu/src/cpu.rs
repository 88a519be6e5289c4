//! The public CPU wrapper.

use lockstep_mem::MemoryPort;

use crate::exec::{compute_next, StepInfo};
use crate::ports::PortSet;
use crate::state::CpuState;

/// One LR5 core.
///
/// # Example
///
/// ```
/// use lockstep_cpu::{Cpu, PortSet};
/// use lockstep_mem::Memory;
///
/// let mut cpu = Cpu::new(0);
/// let mut mem = Memory::new(1024, 0);
/// // `addi a0, zero, 7` followed by `ecall`, hand-encoded.
/// mem.load_image(&{
///     let mut img = Vec::new();
///     let addi = lockstep_isa::Instr::ri(lockstep_isa::Opcode::Addi,
///         lockstep_isa::Reg::A0, lockstep_isa::Reg::ZERO, 7);
///     img.extend_from_slice(&addi.encode().to_le_bytes());
///     img.extend_from_slice(&lockstep_isa::Instr::ecall().encode().to_le_bytes());
///     img
/// });
/// let mut ports = PortSet::new();
/// for _ in 0..32 {
///     if cpu.step(&mut mem, &mut ports).halted {
///         break;
///     }
/// }
/// assert_eq!(cpu.state().reg(10), 7);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    state: CpuState,
    hartid: u8,
}

impl Cpu {
    /// Creates a CPU in its reset state.
    pub fn new(hartid: u8) -> Cpu {
        Cpu { state: CpuState::reset(hartid), hartid }
    }

    /// Resets every flip-flop to the architectural reset value — the
    /// "identical internal state on reset" lockstepping requires.
    pub fn reset(&mut self) {
        self.state = CpuState::reset(self.hartid);
    }

    /// The current sequential state.
    pub fn state(&self) -> &CpuState {
        &self.state
    }

    /// Mutable access to the state (fault injection, checkpoint restore).
    pub fn state_mut(&mut self) -> &mut CpuState {
        &mut self.state
    }

    /// `true` once an `ecall` has retired.
    pub fn is_halted(&self) -> bool {
        self.state.halted & 1 == 1
    }

    /// Captures the full sequential state — every flop, including the
    /// cycle/instret/halted bookkeeping — as a checkpoint that
    /// [`Cpu::restore`] or [`Cpu::from_state`] can resume from exactly.
    pub fn snapshot(&self) -> CpuState {
        self.state.clone()
    }

    /// Restores a previously captured snapshot. After this call the core
    /// is cycle-for-cycle indistinguishable from one that simulated its
    /// way to `snapshot` from reset (given identical memory contents).
    pub fn restore(&mut self, snapshot: &CpuState) {
        self.state = snapshot.clone();
        self.hartid = snapshot.hartid;
    }

    /// Builds a core directly from a captured state, taking ownership of
    /// the snapshot (avoids one clone when the caller already has one).
    pub fn from_state(state: CpuState) -> Cpu {
        let hartid = state.hartid;
        Cpu { state, hartid }
    }

    /// Advances one clock cycle, filling `ports` with this cycle's output
    /// port snapshot.
    pub fn step(&mut self, mem: &mut dyn MemoryPort, ports: &mut PortSet) -> StepInfo {
        let pre = self.state.clone();
        compute_next(&pre, &mut self.state, mem, ports)
    }

    /// Advances one cycle, applying `overlay` to the next state before it
    /// commits. This is the fault-injection hook: the overlay sees the
    /// about-to-be-committed flops exactly as a particle strike or
    /// stuck-at defect would.
    pub fn step_with_overlay(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        overlay: impl FnOnce(&mut CpuState),
    ) -> StepInfo {
        let pre = self.state.clone();
        let info = compute_next(&pre, &mut self.state, mem, ports);
        overlay(&mut self.state);
        info
    }

    /// Advances one cycle like [`Cpu::step`], leaving the state the
    /// cycle started from in `pre` instead of discarding it.
    pub fn step_keeping_pre(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        pre: &mut CpuState,
    ) -> StepInfo {
        pre.clone_from(&self.state);
        compute_next(pre, &mut self.state, mem, ports)
    }
}
