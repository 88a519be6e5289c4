//! The complete sequential state of the LR5 core.
//!
//! Every field of [`CpuState`] is a hardware register; there is no hidden
//! simulator state. The pipeline logic in [`crate::exec`] computes a full
//! next-state each cycle, and fault models overlay committed state bits.
//! One `flop_registry!` invocation exposes every field
//! (and every lane of the arrays) to the flip-flop registry in
//! [`crate::flops`].

use lockstep_isa::RESET_PC;

use crate::flops::flop_registry;

/// All architectural and microarchitectural registers of one LR5 CPU.
///
/// Field prefixes mirror the pipeline: `imc_*` is the F1/F2 fetch latch
/// (IMCU), `if_*` the F2/ID latch (PFU fetch buffer), `id_*`/`iss_*` the
/// ID/EX latch (DEC/ISS), `ex_*`/`shf_*` the EX/MEM latch (ALU/SHF/LSU),
/// `wb_*` the MEM/WB latch (FWD), `dmc_*`/`biu_*` the memory-side
/// transaction registers, and `csr_*`/counters the SCU.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CpuState {
    // --- PFU ---
    pub pc: u32,
    pub if_valid: u8,
    pub if_pc: u32,
    pub if_instr: u32,
    pub if_err: u8,
    pub ras: [u32; 8],
    pub ras_sp: u8,
    // --- IMCU ---
    pub imc_valid: u8,
    pub imc_addr: u32,
    pub imc_rdata: u32,
    pub imc_err: u8,
    // --- DEC ---
    pub id_valid: u8,
    pub id_pc: u32,
    pub id_op: u8,
    pub id_rd: u8,
    pub id_rs1: u8,
    pub id_rs2: u8,
    pub id_imm: u32,
    pub id_exc: u8,
    pub id_raw: u32,
    // --- ISS ---
    pub iss_rv1: u32,
    pub iss_rv2: u32,
    // --- RF ---
    pub regs: [u32; 31],
    // --- ALU ---
    pub ex_valid: u8,
    pub ex_pc: u32,
    pub ex_op: u8,
    pub ex_rd: u8,
    pub ex_result: u32,
    pub ex_flags: u8,
    pub ex_raw: u32,
    pub ex_uses_shf: u8,
    pub ex_csr: u8,
    // --- SHF ---
    pub shf_result: u32,
    pub shf_active: u8,
    // --- MDV ---
    pub mdv_busy: u8,
    pub mdv_op: u8,
    pub mdv_cnt: u8,
    pub mdv_a: u32,
    pub mdv_b: u32,
    pub mdv_acc_lo: u32,
    pub mdv_acc_hi: u32,
    pub mdv_neg: u8,
    // --- FWD ---
    pub wb_valid: u8,
    pub wb_pc: u32,
    pub wb_op: u8,
    pub wb_rd: u8,
    pub wb_value: u32,
    pub wb_raw: u32,
    pub wb_lane: u8,
    pub wb_mmio: u8,
    pub wb_csr: u8,
    // --- LSU ---
    pub ex_addr: u32,
    pub ex_store: u32,
    pub ex_mem_ctl: u8,
    pub mem_wait: u8,
    // --- DMCU ---
    pub dmc_pending: u8,
    pub dmc_addr: u32,
    pub dmc_wdata: u32,
    pub dmc_mask: u8,
    pub dmc_rdata: u32,
    pub dmc_err: u8,
    // --- BIU ---
    pub biu_addr: u32,
    pub biu_wdata: u32,
    pub biu_rdata: u32,
    pub biu_ctl: u8,
    pub biu_mask: u8,
    // --- SCU ---
    pub csr_status: u32,
    pub csr_cause: u32,
    pub csr_epc: u32,
    pub csr_tvec: u32,
    pub csr_scratch0: u32,
    pub csr_scratch1: u32,
    pub csr_misr: u32,
    pub cycle: u64,
    pub instret: u64,
    pub halted: u8,
    pub hartid: u8,
}

impl CpuState {
    /// The architectural reset state. Lockstepping requires every flop of
    /// every redundant CPU to reset to an identical value (Section II), so
    /// reset fully determines all fields. Only `hartid` differs between
    /// the CPUs of a lockstep pair, and it is excluded from the checker's
    /// compared outputs.
    pub fn reset(hartid: u8) -> CpuState {
        CpuState {
            pc: RESET_PC,
            if_valid: 0,
            if_pc: 0,
            if_instr: 0,
            if_err: 0,
            ras: [0; 8],
            ras_sp: 0,
            imc_valid: 0,
            imc_addr: 0,
            imc_rdata: 0,
            imc_err: 0,
            id_valid: 0,
            id_pc: 0,
            id_op: 0,
            id_rd: 0,
            id_rs1: 0,
            id_rs2: 0,
            id_imm: 0,
            id_exc: 0,
            id_raw: 0,
            iss_rv1: 0,
            iss_rv2: 0,
            regs: [0; 31],
            ex_valid: 0,
            ex_pc: 0,
            ex_op: 0,
            ex_rd: 0,
            ex_result: 0,
            ex_flags: 0,
            ex_raw: 0,
            ex_uses_shf: 0,
            ex_csr: 0,
            shf_result: 0,
            shf_active: 0,
            mdv_busy: 0,
            mdv_op: 0,
            mdv_cnt: 0,
            mdv_a: 0,
            mdv_b: 0,
            mdv_acc_lo: 0,
            mdv_acc_hi: 0,
            mdv_neg: 0,
            wb_valid: 0,
            wb_pc: 0,
            wb_op: 0,
            wb_rd: 0,
            wb_value: 0,
            wb_raw: 0,
            wb_lane: 0,
            wb_mmio: 0,
            wb_csr: 0,
            ex_addr: 0,
            ex_store: 0,
            ex_mem_ctl: 0,
            mem_wait: 0,
            dmc_pending: 0,
            dmc_addr: 0,
            dmc_wdata: 0,
            dmc_mask: 0,
            dmc_rdata: 0,
            dmc_err: 0,
            biu_addr: 0,
            biu_wdata: 0,
            biu_rdata: 0,
            biu_ctl: 0,
            biu_mask: 0,
            csr_status: 0,
            csr_cause: 0,
            csr_epc: 0,
            csr_tvec: 0,
            csr_scratch0: 0,
            csr_scratch1: 0,
            csr_misr: 0,
            cycle: 0,
            instret: 0,
            halted: 0,
            hartid: hartid & 3,
        }
    }

    /// Reads architectural register `idx` (0 reads as zero).
    ///
    /// # Panics
    ///
    /// Panics if `idx > 31`.
    pub fn reg(&self, idx: usize) -> u32 {
        if idx == 0 {
            0
        } else {
            self.regs[idx - 1]
        }
    }

    /// Writes architectural register `idx` (writes to 0 are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `idx > 31`.
    pub fn set_reg(&mut self, idx: usize, value: u32) {
        if idx != 0 {
            self.regs[idx - 1] = value;
        }
    }
}

flop_registry!(CpuState {
    Pfu: pc[32], Pfu: if_valid[1], Pfu: if_pc[32], Pfu: if_instr[32], Pfu: if_err[1],
    Pfu: ras_sp[3],
    Imcu: imc_valid[1], Imcu: imc_addr[32], Imcu: imc_rdata[32], Imcu: imc_err[1],
    Dec: id_valid[1], Dec: id_pc[32], Dec: id_op[6], Dec: id_rd[5], Dec: id_rs1[5],
    Dec: id_rs2[5], Dec: id_imm[32], Dec: id_exc[2], Dec: id_raw[32],
    Iss: iss_rv1[32], Iss: iss_rv2[32],
    Alu: ex_valid[1], Alu: ex_pc[32], Alu: ex_op[6], Alu: ex_rd[5], Alu: ex_result[32],
    Alu: ex_flags[4], Alu: ex_raw[32], Alu: ex_uses_shf[1], Alu: ex_csr[4],
    Shf: shf_result[32], Shf: shf_active[1],
    Mdv: mdv_busy[1], Mdv: mdv_op[3], Mdv: mdv_cnt[6], Mdv: mdv_a[32], Mdv: mdv_b[32],
    Mdv: mdv_acc_lo[32], Mdv: mdv_acc_hi[32], Mdv: mdv_neg[2],
    Fwd: wb_valid[1], Fwd: wb_pc[32], Fwd: wb_op[6], Fwd: wb_rd[5], Fwd: wb_value[32],
    Fwd: wb_raw[32], Fwd: wb_lane[2], Fwd: wb_mmio[1], Fwd: wb_csr[4],
    Lsu: ex_addr[32], Lsu: ex_store[32], Lsu: ex_mem_ctl[5], Lsu: mem_wait[1],
    Dmcu: dmc_pending[1], Dmcu: dmc_addr[32], Dmcu: dmc_wdata[32], Dmcu: dmc_mask[4],
    Dmcu: dmc_rdata[32], Dmcu: dmc_err[1],
    Biu: biu_addr[32], Biu: biu_wdata[32], Biu: biu_rdata[32], Biu: biu_ctl[4],
    Biu: biu_mask[4],
    Scu: csr_status[32], Scu: csr_cause[32], Scu: csr_epc[32], Scu: csr_tvec[32],
    Scu: csr_scratch0[32], Scu: csr_scratch1[32], Scu: csr_misr[32],
    Scu: cycle[48], Scu: instret[48], Scu: halted[1], Scu: hartid[2],
    // The return-address stack and the register bank.
    Pfu: ras[32; 8], Rf: regs[32; 31],
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_identical_across_harts_except_hartid() {
        let mut a = CpuState::reset(0);
        let b = CpuState::reset(1);
        assert_ne!(a, b);
        a.hartid = 1;
        assert_eq!(a, b);
    }

    #[test]
    fn reg_zero_semantics() {
        let mut s = CpuState::reset(0);
        assert_eq!(s.reg(0), 0);
        s.set_reg(0, 0xFFFF_FFFF);
        assert_eq!(s.reg(0), 0);
        s.set_reg(5, 42);
        assert_eq!(s.reg(5), 42);
        assert_eq!(s.regs[4], 42);
    }

    #[test]
    fn reset_pc_is_reset_vector() {
        assert_eq!(CpuState::reset(0).pc, RESET_PC);
    }

    #[test]
    fn hartid_masked_to_two_bits() {
        assert_eq!(CpuState::reset(7).hartid, 3);
    }
}
