//! The cycle-accurate pipeline executor.
//!
//! [`compute_next`] evaluates one clock cycle: it reads the current
//! [`CpuState`], performs the work of every pipeline stage (WB → MEM → EX
//! → ID → F2 → F1, so each stage sees the latches as they stood at the
//! start of the cycle), drives the 62-SC output-port snapshot for the
//! cycle, and writes the complete next state into a caller-owned copy of
//! the current one. The caller commits the next state — possibly after a
//! fault overlay has corrupted bits of it, which is exactly how transient
//! and stuck-at faults enter the machine.
//!
//! Pipeline (six stages, modeled on a small real-time core):
//!
//! ```text
//! F1 (IMCU fetch) → F2 (PFU buffer) → ID (DEC/ISS + RF read)
//!   → EX (ALU/SHF/MDV, branches, AGU) → MEM (LSU/DMCU/BIU) → WB (FWD/RF)
//! ```
//!
//! * Branches resolve in EX (static not-taken, 3-cycle redirect).
//! * Loads from RAM are single-cycle through the DMCU read-data register;
//!   stores post through a one-deep DMCU write buffer.
//! * MMIO (sensor/output) accesses go through the BIU's registered
//!   transaction and take an extra cycle.
//! * Multiply (8 + 2 cycles) and divide (32 + 2 cycles) iterate in the MDV
//!   unit while the pipeline stalls.
//! * Illegal instructions, misaligned accesses and bus errors trap to the
//!   vector in `csr_tvec` — faults must take *defined* paths.

use std::sync::OnceLock;

use lockstep_isa::{Csr, Opcode, TrapCause, DEFAULT_TRAP_VECTOR};
use lockstep_mem::MemoryPort;

use crate::ports::{parity8, PortSet, Sc};
use crate::state::CpuState;

/// What happened during one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepInfo {
    /// An instruction retired (left WB) this cycle.
    pub retired: bool,
    /// The CPU is halted (an `ecall` has retired).
    pub halted: bool,
    /// A trap was taken this cycle.
    pub trap: Option<TrapCause>,
    /// The PC was redirected (branch/jump/trap) to this target.
    pub redirect: Option<u32>,
}

const MUL_CYCLES: u8 = 8;
const DIV_CYCLES: u8 = 32;
const MMIO_BASE: u32 = 0xFFFF_0000;
const CYCLE_MASK: u64 = (1 << 48) - 1;

/// MDV operation encoding stored in `mdv_op`.
mod mdv {
    pub const MUL: u8 = 0;
    pub const MULH: u8 = 1;
    pub const MULHU: u8 = 2;
    pub const DIV: u8 = 3;
    pub const DIVU: u8 = 4;
    pub const REM: u8 = 5;
    pub const REMU: u8 = 6;
}

/// Computes the next state for one cycle into `n`, driving `ports` as
/// a side effect. `n` must enter as a copy of `s`: every flop the cycle
/// does not write keeps its value. Pure apart from the memory-port
/// accesses.
pub fn compute_next(
    s: &CpuState,
    n: &mut CpuState,
    mem: &mut dyn MemoryPort,
    ports: &mut PortSet,
) -> StepInfo {
    debug_assert!(n == s, "the next state must enter as a copy of the current one");
    ports.clear();
    let mut info = StepInfo::default();

    // Interface outputs are *gated by activity*: an idle register's
    // value never reaches the compared ports, so corruption there stays
    // architecturally masked until consumed — the property behind the
    // paper's low soft-error manifestation rates (Table I).
    ports.set(Sc::PcChk, parity8(s.pc));
    if s.dmc_pending & 1 == 1 {
        ports.set_bus(Sc::DmcAddrLo, Sc::DmcAddrHi, s.dmc_addr);
        ports.set_bus(Sc::DmcWdataLo, Sc::DmcWdataHi, s.dmc_wdata);
        ports.set(Sc::DmcCtl, 1 | u32::from(s.dmc_mask & 0xF) << 1 | u32::from(s.dmc_err & 1) << 5);
    }
    if s.biu_ctl & 1 == 1 || s.mem_wait & 1 == 1 {
        ports.set_bus(Sc::BiuAddrLo, Sc::BiuAddrHi, s.biu_addr);
        ports.set_bus(Sc::BiuWdataLo, Sc::BiuWdataHi, s.biu_wdata);
    }
    if s.mdv_busy & 1 == 1 {
        ports.set(Sc::MdvStatus, 1 | u32::from(s.mdv_cnt & 0x3F) << 1);
        ports.set(Sc::MdvChk, parity8(s.mdv_acc_lo));
    }
    ports.set(Sc::DbgStatus, u32::from(s.halted & 1));

    if s.halted & 1 == 1 {
        // Halted: the core is quiescent; state freezes.
        ports.set(Sc::EventBus, 1 << 13);
        info.halted = true;
        return info;
    }

    n.cycle = (s.cycle + 1) & CYCLE_MASK;

    // ------------------------------------------------------------------
    // DMCU posted store drains first (it belongs to the previous access).
    // ------------------------------------------------------------------
    if s.dmc_pending & 1 == 1 {
        if mem.write(s.dmc_addr & !3, s.dmc_wdata, s.dmc_mask & 0xF).is_err() {
            n.dmc_err = 1;
        }
        n.dmc_pending = 0;
    }

    // ------------------------------------------------------------------
    // WB stage.
    // ------------------------------------------------------------------
    // `rf_write` also serves as the WB forwarding bypass and the ID-stage
    // write-through value.
    let mut rf_write: Option<(u8, u32)> = None;
    let mut csr_write_value = 0u32;
    let mut csr_write = false;
    if s.wb_valid & 1 == 1 {
        let op = Opcode::from_bits(u32::from(s.wb_op));
        let value = match op {
            Some(o) if o.is_load() => {
                let word = if s.wb_mmio & 1 == 1 { s.biu_rdata } else { s.dmc_rdata };
                extract_load(word, s.wb_lane & 3, o)
            }
            _ => s.wb_value,
        };
        let writes = op.is_some_and(Opcode::writes_rd);
        if writes && s.wb_rd & 0x1F != 0 {
            n.set_reg((s.wb_rd & 0x1F) as usize, value);
            rf_write = Some((s.wb_rd & 0x1F, value));
        }
        match op {
            Some(Opcode::Csrw) => {
                // The architectural CSR write happened at EX (serialized
                // CSR unit); WB only reports it on the trace ports.
                csr_write = true;
                csr_write_value = value;
            }
            Some(Opcode::Ecall) => {
                n.halted = 1;
                info.halted = true;
            }
            _ => {}
        }
        n.instret = (s.instret + 1) & CYCLE_MASK;
        info.retired = true;

        ports.set(Sc::RetCtl, 1 | u32::from(csr_write) << 1 | u32::from(n.halted & 1) << 2);
        ports.set_bus(Sc::RetPcLo, Sc::RetPcHi, s.wb_pc);
        ports.set_bus(Sc::RetInstrLo, Sc::RetInstrHi, s.wb_raw);
        ports.set(Sc::WbCtl, u32::from(writes) | u32::from(s.wb_rd & 0x1F) << 1);
        ports.set_bus(Sc::WbDataLo, Sc::WbDataHi, value);
        if let Some((rd, v)) = rf_write {
            ports.set(Sc::RfWpCtl, 1 | u32::from(rd) << 1);
            ports.set(Sc::RfWpChk, parity8(v));
        }
    }
    if csr_write {
        ports.set(Sc::CsrCtl, 1 << 1 | u32::from(s.wb_csr & 0xF) << 2);
        ports.set_bus(Sc::CsrWdataLo, Sc::CsrWdataHi, csr_write_value);
    }

    // Write-through into the held ID operand latch. An instruction can
    // wait in ID across the writeback of one of its sources (e.g. stuck
    // behind a two-cycle MMIO load in MEM); the EX forwarding network
    // only covers MEM and the same-cycle WB bypass, so without this the
    // instruction would eventually issue with the operand it latched at
    // decode time. If the front end advances this cycle the refresh is
    // simply overwritten by the new decode.
    if let Some((rd, v)) = rf_write {
        if s.id_valid & 1 == 1 && s.id_exc & 3 == 0 {
            if let Some(op) = Opcode::from_bits(u32::from(s.id_op)) {
                let (src1, src2) = used_sources(op, s.id_rs1, s.id_rs2, s.id_rd);
                if src1 == Some(rd) {
                    n.iss_rv1 = v;
                }
                if src2 == Some(rd) {
                    n.iss_rv2 = v;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // MEM stage.
    // ------------------------------------------------------------------
    let mut stall_mem = false;
    let mut mem_trap: Option<(TrapCause, u32)> = None;
    if s.ex_valid & 1 == 1 {
        let ctl = s.ex_mem_ctl;
        let is_access = ctl & 1 == 1;
        let is_store = ctl >> 1 & 1 == 1;
        let result = if s.ex_uses_shf & 1 == 1 { s.shf_result } else { s.ex_result };
        let mut to_wb = true;
        let mut wb_mmio = 0u8;
        if is_access {
            let addr = s.ex_addr;
            let size = 1u32 << (ctl >> 2 & 3);
            let (wdata, mask) = store_lanes(size, addr, s.ex_store);
            ports.set_bus(Sc::DAddrLo, Sc::DAddrHi, addr);
            ports.set(
                Sc::DCtl,
                1 | u32::from(is_store) << 1
                    | (size.trailing_zeros() & 3) << 2
                    | u32::from(addr >= MMIO_BASE) << 4,
            );
            ports.set(Sc::DStrb, u32::from(mask));
            if is_store {
                ports.set_bus(Sc::DWdataLo, Sc::DWdataHi, wdata);
                ports.set(Sc::StoreChk, parity8(s.ex_store));
            }
            if addr >= MMIO_BASE {
                if s.mem_wait & 1 == 0 {
                    // Arm the BIU registered transaction and wait a cycle.
                    n.biu_addr = addr;
                    n.biu_wdata = wdata;
                    n.biu_mask = mask;
                    n.biu_ctl = 1 | u8::from(is_store) << 1;
                    n.mem_wait = 1;
                    stall_mem = true;
                    to_wb = false;
                    n.wb_valid = 0;
                } else {
                    // Perform the transaction from the BIU registers.
                    if s.biu_ctl >> 1 & 1 == 1 {
                        if mem.write(s.biu_addr & !3, s.biu_wdata, s.biu_mask & 0xF).is_err() {
                            mem_trap = Some((TrapCause::BusError, s.ex_pc));
                        }
                    } else {
                        match mem.read(s.biu_addr & !3) {
                            Ok(v) => {
                                n.biu_rdata = v;
                                ports.set(Sc::BiuRchk, parity8(v));
                            }
                            Err(_) => mem_trap = Some((TrapCause::BusError, s.ex_pc)),
                        }
                    }
                    n.mem_wait = 0;
                    n.biu_ctl = 0;
                    wb_mmio = 1;
                }
            } else if is_store {
                // Post through the DMCU write buffer.
                n.dmc_pending = 1;
                n.dmc_addr = addr & !3;
                n.dmc_wdata = wdata;
                n.dmc_mask = mask;
            } else {
                match mem.read(addr & !3) {
                    Ok(v) => {
                        n.dmc_rdata = v;
                        ports.set(Sc::DRchk, parity8(v));
                    }
                    Err(_) => mem_trap = Some((TrapCause::BusError, s.ex_pc)),
                }
            }
        }
        if mem_trap.is_some() {
            n.wb_valid = 0;
        } else if to_wb {
            n.wb_valid = 1;
            n.wb_pc = s.ex_pc;
            n.wb_op = s.ex_op;
            n.wb_rd = s.ex_rd;
            n.wb_value = result;
            n.wb_raw = s.ex_raw;
            n.wb_lane = (s.ex_addr & 3) as u8;
            n.wb_mmio = wb_mmio;
            n.wb_csr = s.ex_csr;
        }
    } else {
        n.wb_valid = 0;
    }
    if s.biu_ctl & 1 == 1 || s.mem_wait & 1 == 1 {
        ports.set(
            Sc::BiuCtl,
            u32::from(s.biu_ctl & 3)
                | u32::from(s.biu_mask & 0xF) << 2
                | u32::from(s.mem_wait & 1) << 6,
        );
    }

    // ------------------------------------------------------------------
    // MDV iteration (runs while busy, independent of pipeline stalls).
    // ------------------------------------------------------------------
    if s.mdv_busy & 1 == 1 && s.mdv_cnt > 0 {
        mdv_iterate(s, n);
        n.mdv_cnt = s.mdv_cnt - 1;
    }

    // ------------------------------------------------------------------
    // EX stage.
    // ------------------------------------------------------------------
    let mut stall_ex = false;
    let mut stall_loaduse = false;
    let mut redirect: Option<u32> = None;
    let mut ex_trap: Option<(TrapCause, u32)> = None;
    let mut ex_ran = false;

    if mem_trap.is_none() && !stall_mem {
        if s.id_valid & 1 == 1 {
            let op = Opcode::from_bits(u32::from(s.id_op));
            // Fault codes attached at fetch/decode take priority.
            if s.id_exc & 3 == 2 {
                ex_trap = Some((TrapCause::BusError, s.id_pc));
            } else if s.id_exc & 3 == 1 || op.is_none() {
                ex_trap = Some((TrapCause::IllegalInstruction, s.id_pc));
            } else {
                let op = op.expect("checked above");
                // --- operand forwarding ---
                let (src1, src2) = used_sources(op, s.id_rs1, s.id_rs2, s.id_rd);
                let mut fwd_a = 0u32;
                let mut fwd_b = 0u32;
                let a = forward(s, rf_write, src1, s.iss_rv1, &mut fwd_a);
                let b = forward(s, rf_write, src2, s.iss_rv2, &mut fwd_b);
                ports.set(Sc::FwdCtl, fwd_a | fwd_b << 2);

                // --- load-use interlock ---
                let ex_op = Opcode::from_bits(u32::from(s.ex_op));
                let ex_is_load = s.ex_valid & 1 == 1 && ex_op.is_some_and(Opcode::is_load);
                let ex_rd = s.ex_rd & 0x1F;
                let hazard = |src: Option<u8>| src.is_some_and(|r| r != 0 && r == ex_rd);
                if ex_is_load && (hazard(src1) || hazard(src2)) {
                    stall_ex = true;
                    stall_loaduse = true;
                } else if op.is_muldiv() {
                    if s.mdv_busy & 1 == 0 {
                        start_mdv(n, op, a, b);
                        stall_ex = true;
                    } else if s.mdv_cnt > 0 {
                        stall_ex = true;
                    } else {
                        // Completion: the waiting instruction finishes EX.
                        let result = finish_mdv(s);
                        n.mdv_busy = 0;
                        fill_ex_latch(n, s, op, result, 0);
                        ex_ran = true;
                    }
                } else {
                    // --- single-cycle execute ---
                    let imm = s.id_imm;
                    let imm_zx = imm & 0xFFFF;
                    match op {
                        Opcode::Beq
                        | Opcode::Bne
                        | Opcode::Blt
                        | Opcode::Bge
                        | Opcode::Bltu
                        | Opcode::Bgeu => {
                            let taken = branch_taken(op, a, b);
                            let target = s.id_pc.wrapping_add(imm << 2);
                            if taken {
                                redirect = Some(target);
                            }
                            ports.set(Sc::BranchCtl, 1 | u32::from(taken) << 1);
                            ports.set_bus(Sc::BtgtLo, Sc::BtgtHi, if taken { target } else { 0 });
                            fill_ex_latch(n, s, op, 0, 0);
                            ex_ran = true;
                        }
                        Opcode::Jal => {
                            let target = s.id_pc.wrapping_add(imm << 2);
                            redirect = Some(target);
                            ports.set(Sc::BranchCtl, 1 | 1 << 1 | 1 << 2);
                            ports.set_bus(Sc::BtgtLo, Sc::BtgtHi, target);
                            if s.id_rd & 0x1F == 1 {
                                // Call: push the link address on the RAS.
                                let sp = (s.ras_sp & 7) as usize;
                                n.ras[sp] = s.id_pc.wrapping_add(4);
                                n.ras_sp = (s.ras_sp + 1) & 7;
                                ports.set(Sc::RasCtl, 1);
                            }
                            fill_ex_latch(n, s, op, s.id_pc.wrapping_add(4), 0);
                            ex_ran = true;
                        }
                        Opcode::Jalr => {
                            let target = a.wrapping_add(imm) & !3;
                            redirect = Some(target);
                            ports.set(Sc::BranchCtl, 1 | 1 << 1 | 1 << 3);
                            ports.set_bus(Sc::BtgtLo, Sc::BtgtHi, target);
                            if s.id_rs1 & 0x1F == 1 && s.id_rd & 0x1F == 0 {
                                // Return: pop the RAS and check the target
                                // (a lightweight return-address monitor).
                                let sp = (s.ras_sp.wrapping_sub(1)) & 7;
                                let predicted = s.ras[sp as usize];
                                n.ras_sp = sp;
                                let hit = predicted == target;
                                ports.set(Sc::RasCtl, 2 | u32::from(hit) << 2);
                                ports.set(Sc::RasChk, parity8(predicted));
                            }
                            fill_ex_latch(n, s, op, s.id_pc.wrapping_add(4), 0);
                            ex_ran = true;
                        }
                        _ if op.is_load() || op.is_store() => {
                            let addr = a.wrapping_add(imm);
                            let size = op.access_size().expect("memory op");
                            ports.set(Sc::AguChk, parity8(addr));
                            if !addr.is_multiple_of(size) {
                                ex_trap = Some((TrapCause::MisalignedAccess, s.id_pc));
                            } else {
                                let ctl = 1
                                    | u8::from(op.is_store()) << 1
                                    | (size.trailing_zeros() as u8 & 3) << 2;
                                n.ex_addr = addr;
                                n.ex_store = b;
                                n.ex_mem_ctl = ctl;
                                fill_ex_latch(n, s, op, 0, ctl);
                                ex_ran = true;
                            }
                        }
                        Opcode::Ebreak => {
                            ex_trap = Some((TrapCause::Breakpoint, s.id_pc));
                        }
                        Opcode::Ecall => {
                            fill_ex_latch(n, s, op, 0, 0);
                            ex_ran = true;
                        }
                        Opcode::Csrr => {
                            let v = read_csr(s, (imm & 0xF) as u8);
                            n.ex_csr = (imm & 0xF) as u8;
                            match Csr::from_bits(imm & 0xFF) {
                                Some(Csr::Cycle) => {
                                    ports.set(Sc::CycleChk, (v & 0xF) | (parity8(v) & 0xF) << 4)
                                }
                                Some(Csr::Instret) => {
                                    ports.set(Sc::InstretChk, (v & 0xF) | (parity8(v) & 0xF) << 4)
                                }
                                Some(Csr::Misr) => {
                                    ports.set_bus(Sc::MisrLo, Sc::MisrHi, v);
                                }
                                _ => {}
                            }
                            fill_ex_latch(n, s, op, v, 0);
                            ex_ran = true;
                        }
                        Opcode::Csrw => {
                            n.ex_csr = (imm & 0xF) as u8;
                            apply_csr_write(n, s, (imm & 0xF) as u8, a);
                            if Csr::from_bits(imm & 0xFF) == Some(Csr::Misr) {
                                // The signature register is a DFT output:
                                // expose the folded value as it updates.
                                ports.set_bus(Sc::MisrLo, Sc::MisrHi, n.csr_misr);
                            }
                            fill_ex_latch(n, s, op, a, 0);
                            ex_ran = true;
                        }
                        Opcode::Sll | Opcode::Srl | Opcode::Sra => {
                            let r = shift(op, a, b & 31);
                            ports.set(Sc::ShfChk, parity8(r));
                            n.shf_result = r;
                            n.shf_active = 1;
                            fill_ex_latch(n, s, op, 0, 0);
                            ex_ran = true;
                        }
                        Opcode::Slli | Opcode::Srli | Opcode::Srai => {
                            let sop = match op {
                                Opcode::Slli => Opcode::Sll,
                                Opcode::Srli => Opcode::Srl,
                                _ => Opcode::Sra,
                            };
                            let r = shift(sop, a, imm & 31);
                            ports.set(Sc::ShfChk, parity8(r));
                            n.shf_result = r;
                            n.shf_active = 1;
                            fill_ex_latch(n, s, op, 0, 0);
                            ex_ran = true;
                        }
                        _ => {
                            let operand_b = match op {
                                Opcode::Addi | Opcode::Slti | Opcode::Sltiu => imm,
                                Opcode::Andi | Opcode::Ori | Opcode::Xori => imm_zx,
                                Opcode::Lui => imm << 16,
                                _ => b,
                            };
                            let (r, flags) = alu(op, a, operand_b);
                            ports.set(Sc::AluChk, parity8(r));
                            ports.set(Sc::Flags, u32::from(flags & 0xF));
                            n.ex_flags = flags;
                            fill_ex_latch(n, s, op, r, 0);
                            ex_ran = true;
                        }
                    }
                }
            }
        }
        if !ex_ran {
            n.ex_valid = 0;
            n.ex_uses_shf = 0;
        }
    }

    ports.set(
        Sc::ExecCtl,
        u32::from(ex_ran)
            | u32::from(n.ex_uses_shf & 1) << 1
            | u32::from(s.mdv_busy & 1) << 2
            | u32::from(redirect.is_some()) << 3
            | u32::from(ex_trap.is_some() || mem_trap.is_some()) << 4,
    );
    ports.set(
        Sc::StallCause,
        u32::from(stall_loaduse)
            | u32::from(stall_ex && !stall_loaduse) << 1
            | u32::from(stall_mem) << 2,
    );

    // ------------------------------------------------------------------
    // Front end: ID, F2, F1 (held on any stall).
    // ------------------------------------------------------------------
    let hold_front = stall_mem || stall_ex;
    if mem_trap.is_none() && !hold_front {
        // --- ID ---
        if s.if_valid & 1 == 1 {
            decode_into(n, s, rf_write);
        } else {
            n.id_valid = 0;
        }
        // --- F2 ---
        n.if_valid = s.imc_valid & 1;
        n.if_pc = s.imc_addr;
        n.if_instr = s.imc_rdata;
        n.if_err = s.imc_err & 1;
        // --- F1 ---
        match mem.fetch(s.pc & !3) {
            Ok(w) => {
                n.imc_rdata = w;
                n.imc_err = 0;
                ports.set(Sc::IfRchk, parity8(w));
            }
            Err(_) => {
                n.imc_rdata = 0;
                n.imc_err = 1;
                ports.set(Sc::IfRchk, 0xFF);
            }
        }
        n.imc_addr = s.pc;
        n.imc_valid = 1;
        n.pc = s.pc.wrapping_add(4);
        ports.set_bus(Sc::IfAddrLo, Sc::IfAddrHi, s.pc);
        ports.set(Sc::IfReq, 1 | u32::from(s.pc == s.imc_addr.wrapping_add(4)) << 1);
    } else {
        ports.set_bus(Sc::IfAddrLo, Sc::IfAddrHi, s.pc);
    }
    if n.id_valid & 1 == 1 {
        ports.set(Sc::IdCtl, 1 | u32::from(n.id_op & 0x3F) << 1 | u32::from(n.id_exc & 1) << 7);
    }

    // ------------------------------------------------------------------
    // Redirect / trap resolution (traps win; older stage wins).
    // ------------------------------------------------------------------
    let trap = mem_trap.or(ex_trap);
    if let Some((cause, epc)) = trap {
        let vector = if s.csr_tvec != 0 { s.csr_tvec & !3 } else { DEFAULT_TRAP_VECTOR };
        n.csr_cause = cause.code();
        n.csr_epc = epc;
        n.pc = vector;
        n.imc_valid = 0;
        n.if_valid = 0;
        n.id_valid = 0;
        n.ex_valid = 0;
        n.mem_wait = 0;
        info.trap = Some(cause);
        info.redirect = Some(vector);
        ports.set(Sc::FlushCtl, 1 | (cause.code() & 3) << 1 | 1 << 3);
        ports.set(Sc::ExcCtl, 1 | (cause.code() & 7) << 1);
        ports.set_bus(Sc::ExcEpcLo, Sc::ExcEpcHi, epc);
    } else if let Some(target) = redirect {
        n.pc = target & !3;
        n.imc_valid = 0;
        n.if_valid = 0;
        n.id_valid = 0;
        info.redirect = Some(target & !3);
        ports.set(Sc::FlushCtl, 1);
    }

    // ------------------------------------------------------------------
    // Event bus: one bit per interesting condition this cycle.
    // ------------------------------------------------------------------
    let ev = u32::from(s.if_valid & 1)
        | u32::from(s.id_valid & 1) << 1
        | u32::from(s.ex_valid & 1) << 2
        | u32::from(s.wb_valid & 1) << 3
        | u32::from(stall_ex) << 4
        | u32::from(stall_mem) << 5
        | u32::from(redirect.is_some()) << 6
        | u32::from(trap.is_some()) << 7
        | u32::from(info.retired) << 8
        | u32::from(s.mdv_busy & 1) << 9
        | u32::from(s.dmc_pending & 1) << 10
        | u32::from(s.mem_wait & 1) << 11
        | u32::from(s.dmc_err & 1) << 12
        | u32::from(n.halted & 1) << 13;
    ports.set(Sc::EventBus, ev);

    info
}

/// Word-mask bit of return-address-stack entry 0 in [`park_words`]'s
/// numbering (entry `i` is bit `RAS_WORD + i`). Bits `0..31` are the
/// registers, bit `r - 1` for register `r`.
pub const RAS_WORD: u8 = 31;

/// Word-mask bit of `csr_status` in [`park_words`]'s numbering. The six
/// writable CSRs follow in address order (`status`, `cause`, `epc`,
/// `tvec`, `scratch0`, `scratch1`), so CSR address `a` is bit
/// `CSR_WORD + a - 2`.
pub const CSR_WORD: u8 = 39;

/// Word-mask bit of the `cycle` counter; `instret` is the next bit.
pub const CYCLE_WORD: u8 = CSR_WORD + 6;

/// Word-mask bit of `hartid`.
pub const HARTID_WORD: u8 = CSR_WORD + 8;

/// Word-mask bit of `dmc_addr`. `dmc_wdata`, `dmc_mask`, `dmc_rdata` and
/// `wb_lane` follow in that order.
pub const DMC_WORD: u8 = 48;

/// Word-mask bit of `mdv_op`. `mdv_cnt`, `mdv_a`, `mdv_b`, `mdv_acc_lo`,
/// `mdv_acc_hi` and `mdv_neg` follow in that order.
pub const MDV_WORD: u8 = 53;

/// The advancing words: `cycle` and `instret` (see [`park_advancing`]).
const COUNTER_WORDS: u64 = 0b11 << CYCLE_WORD;
/// The posted store: `dmc_addr`, `dmc_wdata` and `dmc_mask`.
const DMC_STORE_WORDS: u64 = 0b111 << DMC_WORD;
const DMC_RDATA_WORD: u64 = 1 << (DMC_WORD + 3);
const WB_LANE_WORD: u64 = 1 << (DMC_WORD + 4);
/// Every MDV latch but `mdv_busy`.
const MDV_WORDS: u64 = 0x7F << MDV_WORD;
/// What one MDV iteration writes: `mdv_cnt`, `mdv_acc_lo`, `mdv_acc_hi`.
const MDV_ITERATE_WORDS: u64 = (1 << 1 | 1 << 4 | 1 << 5) << MDV_WORD;

/// The flop words of LR5 whose every access [`park_reads`] and
/// [`park_writes`] can see from the pre-cycle state and golden's ports:
/// `(registry entry, first word bit)` pairs, lane `l` of an entry being
/// word `first + l`. 60 words in all:
///
/// * the 31 registers and the 8 RAS entries;
/// * the six writable CSRs, the `cycle` and `instret` counters (the
///   [`park_advancing`] words) and `hartid`;
/// * the DMCU's posted store (`dmc_addr`, `dmc_wdata`, `dmc_mask`), its
///   load data `dmc_rdata` and the WB latch's byte lane `wb_lane`;
/// * the MDV operands, accumulator and control (`mdv_op`, `mdv_cnt`,
///   `mdv_a`, `mdv_b`, `mdv_acc_lo`, `mdv_acc_hi`, `mdv_neg`).
///
/// `csr_misr` is not parkable because a `csrw misr` folds its old value
/// into the new one, so a write does not clean it. The control latches
/// the oracles decode from (`dmc_pending`, `mdv_busy`, `wb_valid`,
/// `wb_op`, `wb_mmio`, ...) stay out too: they decide which words a
/// cycle touches, so the oracles need golden's copy of them to be the
/// faulty machine's.
pub fn park_words() -> &'static [(u16, u8)] {
    static WORDS: OnceLock<Vec<(u16, u8)>> = OnceLock::new();
    WORDS.get_or_init(|| {
        crate::dirty::word_layout(
            crate::flops::registry(),
            &[
                "regs",
                "ras",
                "csr_status",
                "csr_cause",
                "csr_epc",
                "csr_tvec",
                "csr_scratch0",
                "csr_scratch1",
                "cycle",
                "instret",
                "hartid",
                "dmc_addr",
                "dmc_wdata",
                "dmc_mask",
                "dmc_rdata",
                "wb_lane",
                "mdv_op",
                "mdv_cnt",
                "mdv_a",
                "mdv_b",
                "mdv_acc_lo",
                "mdv_acc_hi",
                "mdv_neg",
            ],
        )
    })
}

/// The [`park_words`] that *advance* instead of holding: `cycle` and
/// `instret`. Every cycle increments `cycle`, and every retirement
/// `instret`, from its own value; that self-increment is the one read
/// whose value flows only back into the word, and it happens on exactly
/// the cycles it happens on golden. So while unread (no `csrr` selects
/// it) a faulty counter counts in step with golden's, and its value at
/// wake follows from its value at park and golden's delta since.
pub fn park_advancing() -> u64 {
    COUNTER_WORDS
}

/// A superset of the [`park_words`] the cycle from pre-cycle state `s`
/// reads, given `golden`, the ports that cycle drives on a machine whose
/// parked words all go unread (every such machine drives the same ports
/// as golden, DESIGN.md §10).
///
/// * **Registers:** one read site, the ID stage's operand fetch, whose
///   sources decode from the pre-cycle `if_instr` latch. A stall, a trap
///   or the WB write-through may suppress a read, so this is a superset.
/// * **RAS:** a return pops entry `(ras_sp - 1) & 7`, exactly when
///   golden's `RasCtl` bit 1 is set.
/// * **CSRs, counters and `hartid`:** a `csrr` in the ID/EX latch may
///   read the CSR `id_imm & 0xF` selects, and a trap (golden's `ExcCtl`
///   bit 0) reads `csr_tvec`. A counter's own increment is not a read
///   here ([`park_advancing`]).
/// * **DMCU:** a posted store drains (and drives its ports) from
///   `dmc_addr`, `dmc_wdata` and `dmc_mask` whenever `dmc_pending`; a load
///   in WB extracts its byte lane `wb_lane` of `dmc_rdata` (RAM) or of
///   `biu_rdata` (MMIO, `wb_mmio`).
/// * **MDV:** while `mdv_busy`, the ports show `mdv_cnt` and
///   `mdv_acc_lo`, an iteration reads the operands and accumulator, and
///   the completing instruction reads `mdv_neg`: every MDV word.
pub fn park_reads(s: &CpuState, golden: &PortSet) -> u64 {
    let mut words = 0u64;
    if s.halted & 1 == 0 && s.if_valid & 1 == 1 && s.if_err & 1 == 0 {
        if let Ok(i) = lockstep_isa::Instr::decode(s.if_instr) {
            let (src1, src2) =
                used_sources(i.op, i.rs1.bits() as u8, i.rs2.bits() as u8, i.rd.bits() as u8);
            for src in [src1, src2].into_iter().flatten().filter(|&r| r != 0) {
                words |= 1 << (src - 1);
            }
        }
    }
    if golden.get(Sc::RasCtl) & 2 != 0 {
        words |= 1 << (RAS_WORD + (s.ras_sp.wrapping_sub(1) & 7));
    }
    if s.id_valid & 1 == 1 && Opcode::from_bits(u32::from(s.id_op)) == Some(Opcode::Csrr) {
        words |= csr_word(CSR_WORD, s.id_imm);
    }
    if golden.get(Sc::ExcCtl) & 1 != 0 {
        words |= csr_word(CSR_WORD, Csr::Tvec.bits());
    }
    if s.dmc_pending & 1 == 1 {
        words |= DMC_STORE_WORDS;
    }
    if s.wb_valid & 1 == 1 && Opcode::from_bits(u32::from(s.wb_op)).is_some_and(Opcode::is_load) {
        words |= WB_LANE_WORD;
        if s.wb_mmio & 1 == 0 {
            words |= DMC_RDATA_WORD;
        }
    }
    if s.mdv_busy & 1 == 1 {
        words |= MDV_WORDS;
    }
    words
}

/// Exactly the [`park_words`] the cycle from pre-cycle state `s`
/// writes, given `golden`, the ports that cycle drives on a machine whose
/// parked words all go unread. Such a machine's cycle is golden's, so it
/// writes golden's values: a written word is clean afterwards.
///
/// * **Registers:** WB writes `wb_rd` when its opcode writes a register.
///   WB runs ahead of every stall decision, so this is exact.
/// * **RAS:** a call pushes entry `ras_sp & 7`, exactly when golden's
///   `RasCtl & 3 == 1`.
/// * **CSRs:** a `csrw` in the ID/EX latch writes the writable CSR
///   `id_imm & 0xF` selects exactly when golden's `ExecCtl` bit 0 (EX
///   ran) is set, and a trap writes `csr_cause` and `csr_epc`. Nothing
///   writes the counters or `hartid`.
/// * **DMCU:** a RAM store in MEM (golden's `DCtl`: access, store, not
///   MMIO) posts `dmc_addr`, `dmc_wdata` and `dmc_mask`, and a RAM load
///   latches `dmc_rdata` unless it bus-faults. A MEM-stage trap is
///   golden's `ExcCtl` bit 0 with the front end held (`IfReq` bit 0
///   clear): an EX-stage trap never holds it.
/// * **WB latch:** MEM hands a valid instruction to WB, writing
///   `wb_lane`, unless it traps or arms an MMIO transaction (golden's
///   `StallCause` bit 2).
/// * **MDV:** a start (golden's `StallCause` bit 1, an EX stall that is
///   not load-use, while `mdv_busy` is clear) loads every MDV word, and
///   an iteration (busy, golden's `MdvStatus` count nonzero) writes
///   `mdv_cnt`, `mdv_acc_lo` and `mdv_acc_hi`.
pub fn park_writes(s: &CpuState, golden: &PortSet) -> u64 {
    let mut words = 0u64;
    if s.halted & 1 == 0
        && s.wb_valid & 1 == 1
        && s.wb_rd & 0x1F != 0
        && Opcode::from_bits(u32::from(s.wb_op)).is_some_and(Opcode::writes_rd)
    {
        words |= 1 << ((s.wb_rd & 0x1F) - 1);
    }
    if golden.get(Sc::RasCtl) & 3 == 1 {
        words |= 1 << (RAS_WORD + (s.ras_sp & 7));
    }
    if golden.get(Sc::ExecCtl) & 1 != 0
        && Opcode::from_bits(u32::from(s.id_op)) == Some(Opcode::Csrw)
        && Csr::from_bits(s.id_imm & 0xF).is_some_and(|c| !c.is_read_only())
    {
        words |= csr_word(CSR_WORD, s.id_imm);
    }
    let trap = golden.get(Sc::ExcCtl) & 1 != 0;
    if trap {
        words |= csr_word(CSR_WORD, Csr::Cause.bits()) | csr_word(CSR_WORD, Csr::Epc.bits());
    }
    let mem_trap = trap && golden.get(Sc::IfReq) & 1 == 0;
    let dctl = golden.get(Sc::DCtl) & 0b1_0011;
    if dctl == 0b0_0011 {
        words |= DMC_STORE_WORDS;
    } else if dctl == 0b0_0001 && !mem_trap {
        words |= DMC_RDATA_WORD;
    }
    if s.halted & 1 == 0 && s.ex_valid & 1 == 1 && !mem_trap && golden.get(Sc::StallCause) & 4 == 0
    {
        words |= WB_LANE_WORD;
    }
    if s.mdv_busy & 1 == 0 {
        if golden.get(Sc::StallCause) & 2 != 0 {
            words |= MDV_WORDS;
        }
    } else if s.halted & 1 == 0 && golden.get(Sc::MdvStatus) >> 1 != 0 {
        words |= MDV_ITERATE_WORDS;
    }
    words
}

/// The word-mask bit of the CSR a `csrr`/`csrw` immediate selects (its
/// low four bits, as the core decodes it), or 0 for `misr`, the one CSR
/// that is not parkable. Both cores lay out the six writable CSRs in
/// address order, then `cycle`, `instret` and `hartid`, as nine
/// consecutive words from `csr_base`.
pub(crate) fn csr_word(csr_base: u8, imm: u32) -> u64 {
    let word = match Csr::from_bits(imm & 0xF) {
        Some(
            c @ (Csr::Status | Csr::Cause | Csr::Epc | Csr::Tvec | Csr::Scratch0 | Csr::Scratch1),
        ) => c.bits() - Csr::Status.bits(),
        Some(Csr::Cycle) => 6,
        Some(Csr::Instret) => 7,
        Some(Csr::Hartid) => 8,
        Some(Csr::Misr) | None => return 0,
    };
    1 << (u32::from(csr_base) + word)
}

/// Operand forwarding: newest value of register `src` as seen from EX.
/// `fwd_code` reports the selected source (0 none, 1 EX/MEM, 2 WB).
fn forward(
    s: &CpuState,
    wb_bypass: Option<(u8, u32)>,
    src: Option<u8>,
    latched: u32,
    fwd_code: &mut u32,
) -> u32 {
    let Some(rs) = src else {
        return 0;
    };
    if rs == 0 {
        return 0;
    }
    // From the instruction currently in MEM (EX/MEM latch).
    if s.ex_valid & 1 == 1 {
        if let Some(op) = Opcode::from_bits(u32::from(s.ex_op)) {
            if op.writes_rd() && !op.is_load() && s.ex_rd & 0x1F == rs {
                *fwd_code = 1;
                return if s.ex_uses_shf & 1 == 1 { s.shf_result } else { s.ex_result };
            }
        }
    }
    // From the instruction that just wrote back.
    if let Some((rd, v)) = wb_bypass {
        if rd == rs {
            *fwd_code = 2;
            return v;
        }
    }
    latched
}

/// Which register indices an opcode actually reads (src1, src2). Stores
/// read their data register from the `rd` field.
fn used_sources(op: Opcode, rs1: u8, rs2: u8, rd: u8) -> (Option<u8>, Option<u8>) {
    use lockstep_isa::Format;
    let rs1 = rs1 & 0x1F;
    let rs2 = rs2 & 0x1F;
    let rd = rd & 0x1F;
    match op.format() {
        Format::R => (Some(rs1), Some(rs2)),
        Format::I => (Some(rs1), None),
        Format::Load => (Some(rs1), None),
        Format::Store => (Some(rs1), Some(rd)),
        Format::B => (Some(rs1), Some(rs2)),
        Format::J | Format::U => (None, None),
        Format::Sys => match op {
            Opcode::Csrw => (Some(rs1), None),
            _ => (None, None),
        },
    }
}

fn branch_taken(op: Opcode, a: u32, b: u32) -> bool {
    match op {
        Opcode::Beq => a == b,
        Opcode::Bne => a != b,
        Opcode::Blt => (a as i32) < (b as i32),
        Opcode::Bge => (a as i32) >= (b as i32),
        Opcode::Bltu => a < b,
        Opcode::Bgeu => a >= b,
        _ => false,
    }
}

fn shift(op: Opcode, a: u32, amount: u32) -> u32 {
    let sh = amount & 31;
    match op {
        Opcode::Sll => a.wrapping_shl(sh),
        Opcode::Srl => a.wrapping_shr(sh),
        _ => ((a as i32) >> sh) as u32,
    }
}

/// Single-cycle ALU. Returns `(result, NZCV flags)`.
fn alu(op: Opcode, a: u32, b: u32) -> (u32, u8) {
    let (result, carry, overflow) = match op {
        Opcode::Add | Opcode::Addi => {
            let (r, c) = a.overflowing_add(b);
            let v = (!(a ^ b) & (a ^ r)) >> 31 == 1;
            (r, c, v)
        }
        Opcode::Sub => {
            let (r, borrow) = a.overflowing_sub(b);
            let v = ((a ^ b) & (a ^ r)) >> 31 == 1;
            (r, !borrow, v)
        }
        Opcode::And | Opcode::Andi => (a & b, false, false),
        Opcode::Or | Opcode::Ori => (a | b, false, false),
        Opcode::Xor | Opcode::Xori => (a ^ b, false, false),
        Opcode::Slt | Opcode::Slti => (u32::from((a as i32) < (b as i32)), false, false),
        Opcode::Sltu | Opcode::Sltiu => (u32::from(a < b), false, false),
        Opcode::Lui => (b, false, false),
        _ => (0, false, false),
    };
    let n = result >> 31 & 1 == 1;
    let z = result == 0;
    let flags = u8::from(n) << 3 | u8::from(z) << 2 | u8::from(carry) << 1 | u8::from(overflow);
    (result, flags)
}

fn extract_load(word: u32, lane: u8, op: Opcode) -> u32 {
    match op {
        Opcode::Lw => word,
        Opcode::Lh | Opcode::Lhu => {
            let half = word >> (8 * (lane & 2)) & 0xFFFF;
            if op == Opcode::Lh {
                half as u16 as i16 as i32 as u32
            } else {
                half
            }
        }
        Opcode::Lb | Opcode::Lbu => {
            let byte = word >> (8 * (lane & 3)) & 0xFF;
            if op == Opcode::Lb {
                byte as u8 as i8 as i32 as u32
            } else {
                byte
            }
        }
        _ => word,
    }
}

/// Places store data into its byte lanes and builds the strobe mask.
fn store_lanes(size: u32, addr: u32, data: u32) -> (u32, u8) {
    match size {
        4 => (data, 0xF),
        2 => {
            let sh = 8 * (addr & 2);
            let mask: u8 = if addr & 2 == 0 { 0b0011 } else { 0b1100 };
            ((data & 0xFFFF) << sh, mask)
        }
        _ => {
            let sh = 8 * (addr & 3);
            ((data & 0xFF) << sh, 1u8 << (addr & 3))
        }
    }
}

fn read_csr(s: &CpuState, csr_bits: u8) -> u32 {
    match Csr::from_bits(u32::from(csr_bits)) {
        Some(Csr::Cycle) => s.cycle as u32,
        Some(Csr::Instret) => s.instret as u32,
        Some(Csr::Status) => s.csr_status,
        Some(Csr::Cause) => s.csr_cause,
        Some(Csr::Epc) => s.csr_epc,
        Some(Csr::Tvec) => s.csr_tvec,
        Some(Csr::Scratch0) => s.csr_scratch0,
        Some(Csr::Scratch1) => s.csr_scratch1,
        Some(Csr::Misr) => s.csr_misr,
        Some(Csr::Hartid) => u32::from(s.hartid & 3),
        None => 0,
    }
}

fn apply_csr_write(n: &mut CpuState, s: &CpuState, csr_bits: u8, value: u32) {
    match Csr::from_bits(u32::from(csr_bits)) {
        Some(Csr::Status) => n.csr_status = value,
        Some(Csr::Cause) => n.csr_cause = value,
        Some(Csr::Epc) => n.csr_epc = value,
        Some(Csr::Tvec) => n.csr_tvec = value,
        Some(Csr::Scratch0) => n.csr_scratch0 = value,
        Some(Csr::Scratch1) => n.csr_scratch1 = value,
        Some(Csr::Misr) => n.csr_misr = lockstep_isa::csr::misr_fold(s.csr_misr, value),
        // Read-only and unknown CSRs ignore writes.
        _ => {}
    }
}

fn fill_ex_latch(n: &mut CpuState, s: &CpuState, op: Opcode, result: u32, mem_ctl: u8) {
    n.ex_valid = 1;
    n.ex_pc = s.id_pc;
    n.ex_op = op.bits() as u8;
    n.ex_rd = s.id_rd & 0x1F;
    n.ex_result = result;
    n.ex_raw = s.id_raw;
    if mem_ctl == 0 {
        n.ex_mem_ctl = 0;
    }
    if !matches!(
        op,
        Opcode::Sll | Opcode::Srl | Opcode::Sra | Opcode::Slli | Opcode::Srli | Opcode::Srai
    ) {
        n.ex_uses_shf = 0;
        n.shf_active = 0;
    } else {
        n.ex_uses_shf = 1;
    }
}

fn start_mdv(n: &mut CpuState, op: Opcode, a: u32, b: u32) {
    let (code, cycles) = match op {
        Opcode::Mul => (mdv::MUL, MUL_CYCLES),
        Opcode::Mulh => (mdv::MULH, MUL_CYCLES),
        Opcode::Mulhu => (mdv::MULHU, MUL_CYCLES),
        Opcode::Div => (mdv::DIV, DIV_CYCLES),
        Opcode::Divu => (mdv::DIVU, DIV_CYCLES),
        Opcode::Rem => (mdv::REM, DIV_CYCLES),
        _ => (mdv::REMU, DIV_CYCLES),
    };
    let signed = matches!(code, mdv::MUL | mdv::MULH | mdv::DIV | mdv::REM);
    let (ua, ub, neg) = if signed {
        let na = (a as i32) < 0;
        let nb = (b as i32) < 0;
        let ua = if na { (a as i32).wrapping_neg() as u32 } else { a };
        let ub = if nb { (b as i32).wrapping_neg() as u32 } else { b };
        // bit0: negate primary result; bit1: negate remainder.
        (ua, ub, u8::from(na != nb) | u8::from(na) << 1)
    } else {
        (a, b, 0)
    };
    n.mdv_busy = 1;
    n.mdv_op = code;
    n.mdv_cnt = cycles;
    n.mdv_a = ua;
    n.mdv_b = ub;
    n.mdv_acc_lo = 0;
    n.mdv_acc_hi = 0;
    n.mdv_neg = neg;
}

/// One iteration of the serial multiplier (radix-16) or the restoring
/// divider (one quotient bit per cycle).
fn mdv_iterate(s: &CpuState, n: &mut CpuState) {
    if s.mdv_op <= mdv::MULHU {
        // Radix-16 multiply: 8 iterations accumulate a*b into acc.
        // mdv_cnt is a 6-bit flop an injected fault can push outside the
        // nominal 1..=8 range; hardware would mux a garbage digit, so the
        // index wraps and is masked instead of being trusted.
        let i = u32::from(MUL_CYCLES.wrapping_sub(s.mdv_cnt)) & 0x7;
        let digit = u64::from(s.mdv_b >> (4 * i) & 0xF);
        let partial = digit * u64::from(s.mdv_a);
        let acc = u64::from(s.mdv_acc_hi) << 32 | u64::from(s.mdv_acc_lo);
        let acc = acc.wrapping_add(partial << (4 * i));
        n.mdv_acc_lo = acc as u32;
        n.mdv_acc_hi = (acc >> 32) as u32;
    } else {
        // Restoring division, MSB first. acc_hi = remainder, acc_lo = quotient.
        // Same fault hardening: a corrupted counter selects a wrong (but
        // in-range) bit rather than overflowing the shift.
        let bit_index = u32::from(s.mdv_cnt.wrapping_sub(1)) & 0x1F;
        let bit = s.mdv_a >> bit_index & 1;
        let mut rem = u64::from(s.mdv_acc_hi) << 1 | u64::from(bit);
        let mut quot = s.mdv_acc_lo;
        if s.mdv_b != 0 && rem >= u64::from(s.mdv_b) {
            rem -= u64::from(s.mdv_b);
            quot |= 1u32 << bit_index;
        }
        n.mdv_acc_hi = rem as u32;
        n.mdv_acc_lo = quot;
    }
}

fn finish_mdv(s: &CpuState) -> u32 {
    let neg_primary = s.mdv_neg & 1 == 1;
    let neg_rem = s.mdv_neg >> 1 & 1 == 1;
    match s.mdv_op {
        mdv::MUL | mdv::MULH => {
            let p = u64::from(s.mdv_acc_hi) << 32 | u64::from(s.mdv_acc_lo);
            let p = if neg_primary { p.wrapping_neg() } else { p };
            if s.mdv_op == mdv::MUL {
                p as u32
            } else {
                (p >> 32) as u32
            }
        }
        mdv::MULHU => s.mdv_acc_hi,
        mdv::DIV | mdv::DIVU => {
            if s.mdv_b == 0 {
                u32::MAX
            } else if neg_primary {
                s.mdv_acc_lo.wrapping_neg()
            } else {
                s.mdv_acc_lo
            }
        }
        _ => {
            // REM / REMU: remainder carries the dividend's sign.
            let rem = if s.mdv_b == 0 { s.mdv_a } else { s.mdv_acc_hi };
            if neg_rem {
                rem.wrapping_neg()
            } else {
                rem
            }
        }
    }
}

/// ID stage: decode the fetched word and read operands (with WB
/// write-through so a value written this cycle is visible).
fn decode_into(n: &mut CpuState, s: &CpuState, rf_write: Option<(u8, u32)>) {
    let read = |idx: u8| -> u32 {
        if idx == 0 {
            return 0;
        }
        if let Some((rd, v)) = rf_write {
            if rd == idx {
                return v;
            }
        }
        s.regs[(idx - 1) as usize]
    };
    n.id_pc = s.if_pc;
    n.id_raw = s.if_instr;
    n.id_valid = 1;
    if s.if_err & 1 == 1 {
        n.id_exc = 2;
        n.id_op = 0;
        n.id_rd = 0;
        n.id_rs1 = 0;
        n.id_rs2 = 0;
        n.id_imm = 0;
        return;
    }
    match lockstep_isa::Instr::decode(s.if_instr) {
        Ok(i) => {
            n.id_exc = 0;
            n.id_op = i.op.bits() as u8;
            n.id_rd = i.rd.bits() as u8;
            n.id_rs1 = i.rs1.bits() as u8;
            n.id_rs2 = i.rs2.bits() as u8;
            n.id_imm = i.imm as u32;
            let (src1, src2) = used_sources(i.op, n.id_rs1, n.id_rs2, n.id_rd);
            n.iss_rv1 = src1.map_or(0, read);
            n.iss_rv2 = src2.map_or(0, read);
        }
        Err(_) => {
            n.id_exc = 1;
            n.id_op = (s.if_instr >> 26 & 0x3F) as u8;
            n.id_rd = 0;
            n.id_rs1 = 0;
            n.id_rs2 = 0;
            n.id_imm = 0;
        }
    }
}
