//! The complete sequential state of the LR7 out-of-order core.
//!
//! Exactly like LR5's [`crate::state::CpuState`], every field is a
//! hardware register and nothing else exists: the pipeline logic in
//! [`super::exec`] computes a full next-state each cycle, fault models
//! overlay committed bits, and one `flop_registry!` invocation exposes
//! every field (and every lane of the arrays) to the flip-flop registry.
//!
//! Structure sizes: 16-entry ROB, 8-entry reservation-station pool,
//! 8-entry load/store queue, 16-entry branch target buffer, 32-entry
//! register alias table.

use lockstep_isa::RESET_PC;

use crate::flops::flop_registry;

/// Number of reorder-buffer entries.
pub const ROB_ENTRIES: usize = 16;
/// Number of reservation stations.
pub const RS_ENTRIES: usize = 8;
/// Number of load/store-queue entries.
pub const LSQ_ENTRIES: usize = 8;
/// Number of branch-target-buffer entries.
pub const BTB_ENTRIES: usize = 16;

/// All architectural and microarchitectural registers of one LR7 CPU.
///
/// Field prefixes mirror the machine: `fb_*`/`btb_*` are the fetch
/// buffer and branch predictor (PFU), `imc_*` the fetch-side bus latch
/// (IMCU), `rat_*` the register alias table (DEC), `rs_*` the
/// reservation stations (ISS), `alu_*`/`shf_*`/`mdv_*` the execution
/// result latches, `rob_*` the reorder buffer (FWD — it is the
/// machine's forwarding network), `lsq_*`/`lsu_*` the load/store queue
/// (LSU), `dmc_*`/`biu_*` the data-side transaction registers, and
/// `csr_*`/counters the SCU.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Lr7State {
    // --- PFU ---
    pub pc: u32,
    pub fb_valid: u8,
    pub fb_pc: u32,
    pub fb_raw: u32,
    pub fb_err: u8,
    pub fb_pred: u32,
    pub btb_valid: u16,
    pub btb_tag: [u32; BTB_ENTRIES],
    pub btb_tgt: [u32; BTB_ENTRIES],
    pub btb_ctr: [u8; BTB_ENTRIES],
    // --- IMCU ---
    pub imc_valid: u8,
    pub imc_addr: u32,
    pub imc_rdata: u32,
    pub imc_err: u8,
    // --- DEC (rename) ---
    pub rat_busy: u32,
    pub rat_tag: [u8; 32],
    pub dec_valid: u8,
    pub dec_op: u8,
    // --- ISS (reservation stations) ---
    pub rs_valid: u8,
    pub rs_r1: u8,
    pub rs_r2: u8,
    pub rs_rob: [u8; RS_ENTRIES],
    pub rs_op: [u8; RS_ENTRIES],
    pub rs_t1: [u8; RS_ENTRIES],
    pub rs_t2: [u8; RS_ENTRIES],
    pub rs_pc: [u32; RS_ENTRIES],
    pub rs_imm: [u32; RS_ENTRIES],
    pub rs_v1: [u32; RS_ENTRIES],
    pub rs_v2: [u32; RS_ENTRIES],
    // --- RF ---
    pub regs: [u32; 31],
    // --- ALU result latch ---
    pub alu_valid: u8,
    pub alu_rob: u8,
    pub alu_val: u32,
    // --- SHF result latch ---
    pub shf_valid: u8,
    pub shf_rob: u8,
    pub shf_val: u32,
    // --- MDV (iterative multiply/divide) ---
    pub mdv_busy: u8,
    pub mdv_rob: u8,
    pub mdv_op: u8,
    pub mdv_cnt: u8,
    pub mdv_val: u32,
    // --- FWD (reorder buffer) ---
    pub rob_head: u8,
    pub rob_tail: u8,
    pub rob_count: u8,
    pub rob_done: u16,
    pub rob_pc: [u32; ROB_ENTRIES],
    pub rob_raw: [u32; ROB_ENTRIES],
    pub rob_op: [u8; ROB_ENTRIES],
    pub rob_rd: [u8; ROB_ENTRIES],
    pub rob_flags: [u8; ROB_ENTRIES],
    pub rob_exc: [u8; ROB_ENTRIES],
    pub rob_val: [u32; ROB_ENTRIES],
    pub rob_npc: [u32; ROB_ENTRIES],
    pub rob_ppc: [u32; ROB_ENTRIES],
    // --- LSU (load/store queue + result latch) ---
    pub lsq_head: u8,
    pub lsq_tail: u8,
    pub lsq_count: u8,
    pub lsq_ready: u8,
    pub lsq_rob: [u8; LSQ_ENTRIES],
    pub lsq_addr: [u32; LSQ_ENTRIES],
    pub lsq_data: [u32; LSQ_ENTRIES],
    pub lsu_valid: u8,
    pub lsu_rob: u8,
    pub lsu_val: u32,
    // --- DMCU ---
    pub dmc_valid: u8,
    pub dmc_addr: u32,
    pub dmc_wdata: u32,
    pub dmc_strb: u8,
    pub dmc_rdata: u32,
    pub dmc_err: u8,
    // --- BIU ---
    pub biu_addr: u32,
    pub biu_data: u32,
    pub biu_ctl: u8,
    // --- SCU ---
    pub csr_status: u32,
    pub csr_cause: u32,
    pub csr_epc: u32,
    pub csr_tvec: u32,
    pub csr_scratch0: u32,
    pub csr_scratch1: u32,
    pub csr_misr: u32,
    pub flushes: u32,
    pub cycle: u64,
    pub instret: u64,
    pub halted: u8,
    pub hartid: u8,
}

impl Lr7State {
    /// The architectural reset state (every flop defined, as lockstep
    /// requires; only `hartid` differs between the CPUs of a pair).
    pub fn reset(hartid: u8) -> Lr7State {
        Lr7State {
            pc: RESET_PC,
            fb_valid: 0,
            fb_pc: 0,
            fb_raw: 0,
            fb_err: 0,
            fb_pred: 0,
            btb_valid: 0,
            btb_tag: [0; BTB_ENTRIES],
            btb_tgt: [0; BTB_ENTRIES],
            btb_ctr: [0; BTB_ENTRIES],
            imc_valid: 0,
            imc_addr: 0,
            imc_rdata: 0,
            imc_err: 0,
            rat_busy: 0,
            rat_tag: [0; 32],
            dec_valid: 0,
            dec_op: 0,
            rs_valid: 0,
            rs_r1: 0,
            rs_r2: 0,
            rs_rob: [0; RS_ENTRIES],
            rs_op: [0; RS_ENTRIES],
            rs_t1: [0; RS_ENTRIES],
            rs_t2: [0; RS_ENTRIES],
            rs_pc: [0; RS_ENTRIES],
            rs_imm: [0; RS_ENTRIES],
            rs_v1: [0; RS_ENTRIES],
            rs_v2: [0; RS_ENTRIES],
            regs: [0; 31],
            alu_valid: 0,
            alu_rob: 0,
            alu_val: 0,
            shf_valid: 0,
            shf_rob: 0,
            shf_val: 0,
            mdv_busy: 0,
            mdv_rob: 0,
            mdv_op: 0,
            mdv_cnt: 0,
            mdv_val: 0,
            rob_head: 0,
            rob_tail: 0,
            rob_count: 0,
            rob_done: 0,
            rob_pc: [0; ROB_ENTRIES],
            rob_raw: [0; ROB_ENTRIES],
            rob_op: [0; ROB_ENTRIES],
            rob_rd: [0; ROB_ENTRIES],
            rob_flags: [0; ROB_ENTRIES],
            rob_exc: [0; ROB_ENTRIES],
            rob_val: [0; ROB_ENTRIES],
            rob_npc: [0; ROB_ENTRIES],
            rob_ppc: [0; ROB_ENTRIES],
            lsq_head: 0,
            lsq_tail: 0,
            lsq_count: 0,
            lsq_ready: 0,
            lsq_rob: [0; LSQ_ENTRIES],
            lsq_addr: [0; LSQ_ENTRIES],
            lsq_data: [0; LSQ_ENTRIES],
            lsu_valid: 0,
            lsu_rob: 0,
            lsu_val: 0,
            dmc_valid: 0,
            dmc_addr: 0,
            dmc_wdata: 0,
            dmc_strb: 0,
            dmc_rdata: 0,
            dmc_err: 0,
            biu_addr: 0,
            biu_data: 0,
            biu_ctl: 0,
            csr_status: 0,
            csr_cause: 0,
            csr_epc: 0,
            csr_tvec: 0,
            csr_scratch0: 0,
            csr_scratch1: 0,
            csr_misr: 0,
            flushes: 0,
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

flop_registry!(Lr7State {
    Pfu: pc[32], Pfu: fb_valid[1], Pfu: fb_pc[32], Pfu: fb_raw[32], Pfu: fb_err[1],
    Pfu: fb_pred[32], Pfu: btb_valid[16],
    Imcu: imc_valid[1], Imcu: imc_addr[32], Imcu: imc_rdata[32], Imcu: imc_err[1],
    Dec: rat_busy[32], Dec: dec_valid[1], Dec: dec_op[6],
    Iss: rs_valid[8], Iss: rs_r1[8], Iss: rs_r2[8],
    Alu: alu_valid[1], Alu: alu_rob[4], Alu: alu_val[32],
    Shf: shf_valid[1], Shf: shf_rob[4], Shf: shf_val[32],
    Mdv: mdv_busy[1], Mdv: mdv_rob[4], Mdv: mdv_op[6], Mdv: mdv_cnt[6], Mdv: mdv_val[32],
    Fwd: rob_head[4], Fwd: rob_tail[4], Fwd: rob_count[5], Fwd: rob_done[16],
    Lsu: lsq_head[3], Lsu: lsq_tail[3], Lsu: lsq_count[4], Lsu: lsq_ready[8],
    Lsu: lsu_valid[1], Lsu: lsu_rob[4], Lsu: lsu_val[32],
    Dmcu: dmc_valid[1], Dmcu: dmc_addr[32], Dmcu: dmc_wdata[32], Dmcu: dmc_strb[4],
    Dmcu: dmc_rdata[32], Dmcu: dmc_err[1],
    Biu: biu_addr[32], Biu: biu_data[32], Biu: biu_ctl[4],
    Scu: csr_status[32], Scu: csr_cause[32], Scu: csr_epc[32], Scu: csr_tvec[32],
    Scu: csr_scratch0[32], Scu: csr_scratch1[32], Scu: csr_misr[32],
    Scu: flushes[16], Scu: cycle[48], Scu: instret[48], Scu: halted[1], Scu: hartid[2],
    // The arrays, one lane per element.
    Pfu: btb_tag[32; 16], Pfu: btb_tgt[32; 16], Pfu: btb_ctr[2; 16],
    Dec: rat_tag[4; 32],
    Iss: rs_rob[4; 8], Iss: rs_op[6; 8], Iss: rs_t1[4; 8], Iss: rs_t2[4; 8],
    Iss: rs_pc[32; 8], Iss: rs_imm[32; 8], Iss: rs_v1[32; 8], Iss: rs_v2[32; 8],
    Rf: regs[32; 31],
    Fwd: rob_pc[32; 16], Fwd: rob_raw[32; 16], Fwd: rob_op[6; 16], Fwd: rob_rd[5; 16],
    Fwd: rob_flags[6; 16], Fwd: rob_exc[3; 16], Fwd: rob_val[32; 16],
    Fwd: rob_npc[32; 16], Fwd: rob_ppc[32; 16],
    Lsu: lsq_rob[4; 8], Lsu: lsq_addr[32; 8], Lsu: lsq_data[32; 8],
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_identical_across_harts_except_hartid() {
        let mut a = Lr7State::reset(0);
        let b = Lr7State::reset(1);
        assert_ne!(a, b);
        a.hartid = 1;
        assert_eq!(a, b);
    }

    #[test]
    fn reg_zero_semantics() {
        let mut s = Lr7State::reset(0);
        assert_eq!(s.reg(0), 0);
        s.set_reg(0, 0xFFFF_FFFF);
        assert_eq!(s.reg(0), 0);
        s.set_reg(5, 42);
        assert_eq!(s.reg(5), 42);
        assert_eq!(s.regs[4], 42);
    }

    #[test]
    fn reset_pc_is_reset_vector() {
        assert_eq!(Lr7State::reset(0).pc, RESET_PC);
    }

    #[test]
    fn hartid_masked_to_two_bits() {
        assert_eq!(Lr7State::reset(7).hartid, 3);
    }
}
