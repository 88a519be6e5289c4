//! LR7: an out-of-order core behind the same lockstep contracts as LR5.
//!
//! LR7 answers the generalization question the paper leaves open: do
//! DSR error-correlation signatures survive a microarchitecture where
//! an injected fault can be *squashed* by mis-speculation recovery? It
//! is a single-issue out-of-order machine — 16-entry reorder buffer,
//! register alias table, 8 reservation stations, 8-entry load/store
//! queue, and a 16-entry BTB driving branch speculation with full
//! squash/recovery — that retires the same architectural effect stream
//! as the in-order LR5 pipeline and the `lockstep-iss` reference
//! interpreter.
//!
//! It satisfies every [`CoreModel`] contract the
//! detection framework relies on: the 62-SC output-port set (with
//! LR7-specific encodings — two stepped instances compare against each
//! other, never against LR5), an enumerable flop registry over the same
//! 13-unit map, snapshot/restore checkpointing, and fault-overlay
//! stepping with every state-derived index masked so corrupted flops
//! never crash the simulator.

pub(crate) mod exec;
pub(crate) mod state;

use lockstep_mem::MemoryPort;

use crate::core_model::{ArchCsrs, CoreModel};
use crate::exec::StepInfo;
use crate::ports::PortSet;

pub use state::Lr7State;

/// One LR7 out-of-order CPU of a lockstep pair.
#[derive(Debug, Clone)]
pub struct Lr7 {
    state: Lr7State,
}

impl Lr7 {
    /// Creates a core in the architectural reset state.
    pub fn new(hartid: u8) -> Lr7 {
        Lr7 { state: Lr7State::reset(hartid) }
    }

    /// The current sequential state.
    pub fn state(&self) -> &Lr7State {
        &self.state
    }

    /// `true` once an `ecall` has retired.
    pub fn is_halted(&self) -> bool {
        self.state.halted & 1 == 1
    }
}

impl CoreModel for Lr7 {
    type State = Lr7State;
    const NAME: &'static str = "lr7";

    fn new(hartid: u8) -> Lr7 {
        Lr7::new(hartid)
    }

    fn from_state(state: Lr7State) -> Lr7 {
        Lr7 { state }
    }

    fn reset_state(hartid: u8) -> Lr7State {
        Lr7State::reset(hartid)
    }

    fn state(&self) -> &Lr7State {
        &self.state
    }

    fn snapshot(&self) -> Lr7State {
        self.state.clone()
    }

    fn restore(&mut self, snapshot: &Lr7State) {
        self.state = snapshot.clone();
    }

    fn is_halted(&self) -> bool {
        Lr7::is_halted(self)
    }

    fn step(&mut self, mem: &mut dyn MemoryPort, ports: &mut PortSet) -> StepInfo {
        let pre = self.state.clone();
        exec::compute_next(&pre, &mut self.state, mem, ports)
    }

    fn step_with_overlay(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        overlay: impl FnOnce(&mut Lr7State),
    ) -> StepInfo {
        let pre = self.state.clone();
        let info = exec::compute_next(&pre, &mut self.state, mem, ports);
        overlay(&mut self.state);
        info
    }

    fn step_keeping_pre(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        pre: &mut Lr7State,
    ) -> StepInfo {
        pre.clone_from(&self.state);
        exec::compute_next(pre, &mut self.state, mem, ports)
    }

    fn arch_reg(state: &Lr7State, idx: usize) -> u32 {
        state.reg(idx)
    }

    fn arch_csrs(state: &Lr7State) -> ArchCsrs {
        ArchCsrs {
            status: state.csr_status,
            cause: state.csr_cause,
            epc: state.csr_epc,
            tvec: state.csr_tvec,
            scratch0: state.csr_scratch0,
            scratch1: state.csr_scratch1,
            misr: state.csr_misr,
        }
    }

    fn arch_instret(state: &Lr7State) -> u64 {
        state.instret
    }

    fn cycle(state: &Lr7State) -> u64 {
        state.cycle
    }

    fn park_words() -> &'static [(u16, u8)] {
        exec::park_words()
    }

    fn park_reads(pre: &Lr7State, golden: &PortSet) -> u128 {
        exec::park_reads(pre, golden)
    }

    fn park_compares(pre: &Lr7State, golden: &PortSet) -> impl Iterator<Item = (usize, u64)> {
        exec::park_compares(pre, golden)
    }

    fn park_writes(pre: &Lr7State, golden: &PortSet) -> u128 {
        exec::park_writes(pre, golden)
    }

    fn park_advancing() -> u128 {
        exec::park_advancing()
    }
}

#[cfg(test)]
mod tests {
    use lockstep_isa::{Csr, Instr, Opcode, Reg, TrapCause};
    use lockstep_mem::Memory;

    use super::*;
    use crate::flops::{self, FlopReg};
    use crate::units::UnitId;

    const RAM_BYTES: usize = 64 * 1024;

    fn load_program(instrs: &[Instr]) -> Memory {
        let mut mem = Memory::new(RAM_BYTES, 7);
        let mut image = Vec::new();
        for i in instrs {
            image.extend_from_slice(&i.encode().to_le_bytes());
        }
        image.extend_from_slice(&Instr::ecall().encode().to_le_bytes());
        mem.load_image(&image);
        mem
    }

    /// Runs to halt, returning the retired-instruction count observed
    /// through the ports.
    fn run(core: &mut Lr7, mem: &mut Memory, max_cycles: u64) -> u64 {
        let mut ports = PortSet::new();
        let mut retired = 0;
        for _ in 0..max_cycles {
            let info = core.step(mem, &mut ports);
            if info.retired {
                retired += 1;
            }
            if info.halted {
                return retired;
            }
        }
        panic!("LR7 did not halt within {max_cycles} cycles");
    }

    #[test]
    fn registry_is_plausible_and_unique() {
        let regs = Lr7::registry();
        let total = flops::total_flops_in(regs);
        assert!((1500..16000).contains(&total), "implausible LR7 flop count {total}");
        let mut names: Vec<&str> = regs.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate register names");
        // Every one of the 13 units owns at least one flop.
        for unit in UnitId::ALL {
            assert!(regs.iter().any(|r| r.unit == unit), "unit {unit:?} has no LR7 flops");
        }
        // The register file is the familiar 31 x 32 bits.
        let rf: u32 = regs.iter().filter(|r| r.unit == UnitId::Rf).map(FlopReg::total_bits).sum();
        assert_eq!(rf, 992);
    }

    #[test]
    fn every_flop_flips_independently() {
        let regs = Lr7::registry();
        let base = Lr7State::reset(0);
        for id in flops::all_flops_in(regs) {
            let mut s = base.clone();
            flops::flip_bit_in(regs, &mut s, id);
            assert_ne!(s, base, "flipping {id:?} did not change the state");
            flops::flip_bit_in(regs, &mut s, id);
            assert_eq!(s, base, "double-flipping {id:?} did not restore");
        }
    }

    #[test]
    fn arithmetic_program_retires_correct_values() {
        // r1 = 20, r2 = 22, r3 = r1 + r2, r4 = r3 * r2, store/load r4.
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 20),
            Instr::ri(Opcode::Addi, Reg::new(2), Reg::ZERO, 22),
            Instr::rrr(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instr::rrr(Opcode::Mul, Reg::new(4), Reg::new(3), Reg::new(2)),
            Instr::store(Opcode::Sw, Reg::new(4), Reg::ZERO, 0x100),
            Instr::load(Opcode::Lw, Reg::new(5), Reg::ZERO, 0x100),
        ];
        let mut mem = load_program(&prog);
        let mut core = Lr7::new(0);
        let retired = run(&mut core, &mut mem, 2000);
        assert_eq!(retired, 7);
        let s = core.state();
        assert_eq!(s.reg(3), 42);
        assert_eq!(s.reg(4), 42 * 22);
        assert_eq!(s.reg(5), 42 * 22);
        assert_eq!(s.instret, 7);
    }

    #[test]
    fn branch_mispredict_squashes_wrong_path() {
        // beq r0, r0 -> skips the poison write; the wrong path would set
        // r10 = 0xBAD. First encounter is a guaranteed mispredict (BTB
        // cold), so recovery must squash the speculated poison.
        let prog = [
            Instr::branch(Opcode::Beq, Reg::ZERO, Reg::ZERO, 2),
            Instr::ri(Opcode::Addi, Reg::new(10), Reg::ZERO, 0xBAD),
            Instr::ri(Opcode::Addi, Reg::new(11), Reg::ZERO, 7),
        ];
        let mut mem = load_program(&prog);
        let mut core = Lr7::new(0);
        let retired = run(&mut core, &mut mem, 2000);
        assert_eq!(retired, 3); // beq, addi r11, ecall
        assert_eq!(core.state().reg(10), 0);
        assert_eq!(core.state().reg(11), 7);
        assert!(core.state().flushes > 0, "mispredict must flush");
    }

    #[test]
    fn taken_loop_trains_the_btb() {
        // r1 counts 5..0; the backward bne is taken 4 times, so later
        // iterations should predict via the BTB and stop flushing.
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 5),
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::new(1), -1),
            Instr::branch(Opcode::Bne, Reg::new(1), Reg::ZERO, -1),
        ];
        let mut mem = load_program(&prog);
        let mut core = Lr7::new(0);
        let retired = run(&mut core, &mut mem, 4000);
        assert_eq!(retired, 1 + 5 * 2 + 1);
        assert_eq!(core.state().reg(1), 0);
        let flushes = core.state().flushes;
        assert!(
            (1..5).contains(&flushes),
            "BTB should absorb most loop branches, saw {flushes} flushes"
        );
    }

    #[test]
    fn misaligned_store_traps_with_iss_semantics() {
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 0x102),
            Instr::store(Opcode::Sw, Reg::ZERO, Reg::new(1), 0),
        ];
        let mut mem = load_program(&prog);
        let mut core = Lr7::new(0);
        let mut ports = PortSet::new();
        let mut trap = None;
        for _ in 0..200 {
            let info = core.step(&mut mem, &mut ports);
            if info.trap.is_some() {
                trap = info.trap;
                break;
            }
        }
        assert_eq!(trap, Some(TrapCause::MisalignedAccess));
        let s = core.state();
        assert_eq!(s.csr_cause, TrapCause::MisalignedAccess.code());
        assert_eq!(s.csr_epc, 4); // the store's pc
        assert_eq!(s.pc, lockstep_isa::DEFAULT_TRAP_VECTOR);
    }

    #[test]
    fn csr_writes_fold_the_misr() {
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 0x55),
            Instr::csrw(Csr::Misr, Reg::new(1)),
            Instr::csrr(Reg::new(2), Csr::Misr),
        ];
        let mut mem = load_program(&prog);
        let mut core = Lr7::new(0);
        run(&mut core, &mut mem, 2000);
        let expect = lockstep_isa::csr::misr_fold(0, 0x55);
        assert_eq!(core.state().csr_misr, expect);
        assert_eq!(core.state().reg(2), expect);
    }

    #[test]
    fn stepping_is_deterministic_and_snapshot_restorable() {
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 3),
            Instr::rrr(Opcode::Mul, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instr::store(Opcode::Sw, Reg::new(2), Reg::ZERO, 0x80),
            Instr::load(Opcode::Lh, Reg::new(3), Reg::ZERO, 0x80),
        ];
        // Run A straight; run B with a snapshot/restore detour mid-way.
        let mut mem_a = load_program(&prog);
        let mut a = Lr7::new(0);
        let mut ports = PortSet::new();
        for _ in 0..10 {
            a.step(&mut mem_a, &mut ports);
        }
        let snap = a.snapshot();
        let mut trace_a = Vec::new();
        for _ in 0..30 {
            a.step(&mut mem_a, &mut ports);
            trace_a.push(ports);
        }
        let mut mem_b = load_program(&prog);
        let mut b = Lr7::new(0);
        for _ in 0..10 {
            b.step(&mut mem_b, &mut ports);
        }
        let mut scratch = Lr7::new(1);
        scratch.restore(&snap);
        assert_eq!(scratch.state(), &snap);
        let mut trace_b = Vec::new();
        for _ in 0..30 {
            b.step(&mut mem_b, &mut ports);
            trace_b.push(ports);
        }
        assert_eq!(trace_a, trace_b);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn fault_overlay_never_panics_the_machine() {
        // Flip an aggressive sample of flops mid-flight and keep
        // stepping: corrupted indices must be masked, never panic.
        let regs = Lr7::registry();
        let prog = [
            Instr::ri(Opcode::Addi, Reg::new(1), Reg::ZERO, 64),
            Instr::rrr(Opcode::Div, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instr::store(Opcode::Sh, Reg::new(2), Reg::ZERO, 0x40),
            Instr::load(Opcode::Lbu, Reg::new(3), Reg::ZERO, 0x40),
            Instr::branch(Opcode::Bne, Reg::new(3), Reg::ZERO, 1),
        ];
        let all: Vec<_> = flops::all_flops_in(regs).collect();
        for (k, &id) in all.iter().enumerate().step_by(97) {
            let mut mem = load_program(&prog);
            let mut core = Lr7::new(0);
            let mut ports = PortSet::new();
            let inject_at = 3 + (k as u64 % 11);
            for cycle in 0..400 {
                let info = if cycle == inject_at {
                    core.step_with_overlay(&mut mem, &mut ports, |st| {
                        flops::flip_bit_in(regs, st, id);
                    })
                } else {
                    core.step(&mut mem, &mut ports)
                };
                if info.halted {
                    break;
                }
            }
        }
    }
}
