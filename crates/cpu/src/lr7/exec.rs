//! The LR7 next-state function: one clock cycle of the out-of-order
//! machine.
//!
//! Like LR5's executor, [`compute_next`] is pure over `(state, memory)`:
//! it writes a complete next [`Lr7State`] into a caller-owned copy of
//! the current one and fills the 62-SC port set, and the caller commits
//! the next state (optionally after a fault overlay). Stage order inside
//! a cycle, oldest work first:
//!
//! 1. **commit** — the ROB head retires (or traps); stores write memory
//!    here and nowhere else, mispredicted control flow flushes here;
//! 2. **CDB broadcast** — one result per cycle (MDV > LSU > SHF > ALU)
//!    completes a ROB entry and wakes reservation stations;
//! 3. **issue/execute** — the oldest ready non-memory entry executes
//!    into a result latch; the oldest ready memory entry runs the AGU;
//! 4. **load execute** — the LSQ head load reads memory speculatively
//!    (MMIO loads only at the ROB head, so device reads are exactly-once);
//! 5. **dispatch** — decode + rename from the fetch buffer into ROB/RS/LSQ;
//! 6. **fetch** — refill the fetch buffer, predicting the next PC via
//!    the BTB.
//!
//! Every array index computed from state is masked before use, so an
//! injected fault can corrupt behaviour but never crash the simulator.

use std::sync::OnceLock;

use lockstep_isa::{csr::misr_fold, Csr, Format, Instr, Opcode, TrapCause, DEFAULT_TRAP_VECTOR};
use lockstep_mem::MemoryPort;

use crate::exec::{csr_word, StepInfo};
use crate::lr7::state::{Lr7State, LSQ_ENTRIES, RS_ENTRIES};
use crate::ports::{parity8, PortSet, Sc};

const MUL_CYCLES: u8 = 8;
const DIV_CYCLES: u8 = 32;
const MMIO_BASE: u32 = 0xFFFF_0000;
const CYCLE_MASK: u64 = (1 << 48) - 1;

// ROB entry flags (rob_flags, 6 bits).
const F_WR: u8 = 1;
const F_STORE: u8 = 1 << 1;
const F_LOAD: u8 = 1 << 2;
const F_CTL: u8 = 1 << 3;
const F_CSR: u8 = 1 << 4;
const F_HALT: u8 = 1 << 5;

// EventBus bits (16-bit activity summary).
const EV_FETCH: u32 = 1;
const EV_DISPATCH: u32 = 1 << 1;
const EV_ISSUE: u32 = 1 << 2;
const EV_AGU: u32 = 1 << 3;
const EV_CDB: u32 = 1 << 4;
const EV_LOAD: u32 = 1 << 5;
const EV_STORE: u32 = 1 << 6;
const EV_RETIRE: u32 = 1 << 7;
const EV_TRAP: u32 = 1 << 8;
const EV_FLUSH: u32 = 1 << 9;
const EV_STALL: u32 = 1 << 10;
const EV_HALTED: u32 = 1 << 13;

/// Computes the next state into `n` and this cycle's output ports. `n`
/// must enter as a copy of `s`.
#[allow(clippy::too_many_lines)]
pub(crate) fn compute_next(
    s: &Lr7State,
    n: &mut Lr7State,
    mem: &mut dyn MemoryPort,
    ports: &mut PortSet,
) -> StepInfo {
    debug_assert!(n == s, "the next state must enter as a copy of the current one");
    ports.clear();
    let mut info = StepInfo::default();

    ports.set(Sc::PcChk, parity8(s.pc));
    ports.set(Sc::DbgStatus, u32::from(s.halted & 1) | (u32::from(s.rob_count & 0x1F) << 1));
    // Registered bus transactions from the previous cycle.
    if s.dmc_valid & 1 == 1 {
        ports.set_bus(Sc::DmcAddrLo, Sc::DmcAddrHi, s.dmc_addr);
        ports.set_bus(Sc::DmcWdataLo, Sc::DmcWdataHi, s.dmc_wdata);
        ports.set(
            Sc::DmcCtl,
            1 | (u32::from(s.dmc_strb & 0xF) << 1) | (u32::from(s.dmc_err & 1) << 5),
        );
    }
    if s.biu_ctl & 1 == 1 {
        ports.set_bus(Sc::BiuAddrLo, Sc::BiuAddrHi, s.biu_addr);
        ports.set_bus(Sc::BiuWdataLo, Sc::BiuWdataHi, s.biu_data);
        ports.set(Sc::BiuCtl, u32::from(s.biu_ctl));
        ports.set(Sc::BiuRchk, parity8(s.biu_data));
    }
    if s.mdv_busy & 1 == 1 {
        ports.set(Sc::MdvStatus, 1 | (u32::from(s.mdv_cnt) << 1));
        ports.set(Sc::MdvChk, parity8(s.mdv_val));
    }

    if s.halted & 1 == 1 {
        ports.set(Sc::EventBus, EV_HALTED);
        info.halted = true;
        return info;
    }
    n.cycle = (s.cycle + 1) & CYCLE_MASK;

    let mut event: u32 = 0;
    let mut flushed = false;

    // ---- 1. COMMIT: retire (or trap on) the ROB head ----
    if s.rob_count > 0 && (s.rob_done >> (s.rob_head & 15)) & 1 == 1 {
        let h = usize::from(s.rob_head & 15);
        let exc = s.rob_exc[h] & 7;
        let op = Opcode::from_bits(u32::from(s.rob_op[h]) & 0x3F);
        let flags = s.rob_flags[h];
        let rd = usize::from(s.rob_rd[h] & 0x1F);
        let value = s.rob_val[h];
        let mut trapped = exc != 0;
        let mut cause = cause_of(exc);
        let mut csr_write = 0u32;

        if !trapped && flags & F_STORE != 0 {
            // The store performs its write now, at commit: it can no
            // longer be squashed, and program order is preserved because
            // commits are in order.
            let li = usize::from(s.lsq_head & 7);
            if s.lsq_count > 0 && s.lsq_rob[li] & 15 == s.rob_head & 15 {
                let addr = s.lsq_addr[li];
                let size = op.and_then(Opcode::access_size).unwrap_or(4);
                let (wdata, strobe) = store_lanes(size, addr, s.lsq_data[li]);
                match mem.write(addr & !3, wdata, strobe) {
                    Ok(()) => {
                        ports.set_bus(Sc::DAddrLo, Sc::DAddrHi, addr);
                        ports.set_bus(Sc::DWdataLo, Sc::DWdataHi, wdata);
                        ports.set(Sc::DCtl, 1 | (1 << 1) | ((size & 7) << 2));
                        ports.set(Sc::DStrb, u32::from(strobe));
                        ports.set(Sc::StoreChk, parity8(wdata));
                        n.dmc_valid = 1;
                        n.dmc_addr = addr;
                        n.dmc_wdata = wdata;
                        n.dmc_strb = strobe;
                        n.dmc_rdata = 0;
                        n.dmc_err = 0;
                        n.biu_addr = addr;
                        n.biu_data = wdata;
                        n.biu_ctl = 0b0011;
                        pop_lsq(n, li);
                        event |= EV_STORE;
                    }
                    Err(_) => {
                        trapped = true;
                        cause = TrapCause::BusError;
                    }
                }
            }
        }

        if trapped {
            take_trap(n, ports, cause, s.rob_pc[h]);
            info.trap = Some(cause);
            info.redirect = Some(n.pc);
            flushed = true;
            event |= EV_TRAP | EV_FLUSH;
        } else {
            if flags & F_CSR != 0 {
                csr_write = commit_csr(n, ports, s.rob_raw[h], value);
            }
            if flags & F_HALT != 0 {
                n.halted = 1;
                info.halted = true;
            }
            let writes = flags & F_WR != 0;
            if writes && rd != 0 {
                n.set_reg(rd, value);
                ports.set(Sc::RfWpCtl, 1 | ((rd as u32) << 1));
                ports.set(Sc::RfWpChk, parity8(value));
            }
            if rd != 0 && (n.rat_busy >> rd) & 1 == 1 && usize::from(n.rat_tag[rd] & 15) == h {
                n.rat_busy &= !(1u32 << rd);
            }
            if flags & F_LOAD != 0 {
                let li = usize::from(s.lsq_head & 7);
                if s.lsq_count > 0 && s.lsq_rob[li] & 15 == s.rob_head & 15 {
                    pop_lsq(n, li);
                }
            }
            let npc = s.rob_npc[h];
            if flags & F_CTL != 0 {
                train_btb(n, s.rob_pc[h], npc);
            }
            // Retire ports, exactly the LR5 conventions.
            ports.set(Sc::RetCtl, 1 | (csr_write << 1) | (u32::from(n.halted & 1) << 2));
            ports.set_bus(Sc::RetPcLo, Sc::RetPcHi, s.rob_pc[h]);
            ports.set_bus(Sc::RetInstrLo, Sc::RetInstrHi, s.rob_raw[h]);
            ports.set(Sc::WbCtl, u32::from(writes) | ((rd as u32) << 1));
            ports.set_bus(Sc::WbDataLo, Sc::WbDataHi, value);
            n.instret = (s.instret + 1) & CYCLE_MASK;
            info.retired = true;
            event |= EV_RETIRE;
            // Pop the entry.
            n.rob_head = (s.rob_head.wrapping_add(1)) & 15;
            n.rob_count = s.rob_count.saturating_sub(1);
            n.rob_done &= !(1u16 << h);
            if flags & F_HALT != 0 {
                // Quiesce: nothing in flight survives the final retire.
                flush(n);
                flushed = true;
            } else if npc != s.rob_ppc[h] {
                // Mis-speculation: every younger in-flight instruction is
                // squashed. Committed architectural state is already
                // correct, so recovery is a front-end redirect.
                flush(n);
                n.pc = npc;
                n.flushes = (s.flushes.wrapping_add(1)) & 0xFFFF;
                ports.set(Sc::FlushCtl, 1 | (1 << 2));
                info.redirect = Some(npc);
                flushed = true;
                event |= EV_FLUSH;
            }
        }
    }

    if !flushed {
        // ---- 2. CDB broadcast: one completed result per cycle ----
        let grant = if n.mdv_busy & 1 == 1 && n.mdv_cnt == 0 {
            Some((n.mdv_rob & 15, n.mdv_val, 3u32))
        } else if n.lsu_valid & 1 == 1 {
            Some((n.lsu_rob & 15, n.lsu_val, 2))
        } else if n.shf_valid & 1 == 1 {
            Some((n.shf_rob & 15, n.shf_val, 1))
        } else if n.alu_valid & 1 == 1 {
            Some((n.alu_rob & 15, n.alu_val, 0))
        } else {
            None
        };
        if let Some((tag, value, unit)) = grant {
            let t = usize::from(tag);
            n.rob_val[t] = value;
            n.rob_done |= 1u16 << t;
            let (w1, w2) = waiting_on(n, tag);
            for i in 0..RS_ENTRIES {
                if (w1 >> i) & 1 == 1 {
                    n.rs_v1[i] = value;
                }
                if (w2 >> i) & 1 == 1 {
                    n.rs_v2[i] = value;
                }
            }
            n.rs_r1 |= w1;
            n.rs_r2 |= w2;
            match unit {
                3 => n.mdv_busy = 0,
                2 => n.lsu_valid = 0,
                1 => n.shf_valid = 0,
                _ => n.alu_valid = 0,
            }
            ports.set(Sc::FwdCtl, 1 | (u32::from(tag) << 1) | (unit << 5));
            event |= EV_CDB;
        }
        if n.mdv_busy & 1 == 1 && n.mdv_cnt > 0 {
            n.mdv_cnt -= 1;
        }

        // ---- 3a. ISSUE: oldest ready non-memory entry executes ----
        if let Some(i) = pick_ready(n, (n.rs_r1, n.rs_r2), n.rob_head, false) {
            issue_exec(n, ports, i);
            event |= EV_ISSUE;
        }
        // ---- 3b. AGU: oldest ready memory entry computes its address ----
        if let Some(i) = pick_ready(n, (n.rs_r1, n.rs_r2), n.rob_head, true) {
            run_agu(n, ports, i);
            event |= EV_AGU;
        }

        // ---- 4. LOAD EXECUTE: the LSQ head load reads memory ----
        event |= exec_load(n, mem, ports);

        // ---- 5. DISPATCH: fetch buffer -> ROB/RS/LSQ ----
        event |= dispatch(n, s, ports);

        // ---- 6. FETCH: refill the fetch buffer, BTB-predicted ----
        if n.fb_valid & 1 == 0 && n.halted & 1 == 0 {
            do_fetch(n, mem, ports);
            event |= EV_FETCH;
        }
    }

    ports.set(Sc::EventBus, event & 0xFFFF);
    info
}

/// Word-mask bit of `csr_status` in [`park_words`]'s numbering. The six
/// writable CSRs follow in address order, then `cycle`, `instret` and
/// `hartid`. Bits `0..31` are the registers, bit `r - 1` for register
/// `r`.
pub(crate) const CSR_WORD: u8 = 31;

/// Word-mask bit of the `cycle` counter; `instret` is the next bit.
pub(crate) const CYCLE_WORD: u8 = CSR_WORD + 6;

/// Word-mask bit of BTB target 0 (target `i` is bit `BTB_WORD + i`).
pub(crate) const BTB_WORD: u8 = CSR_WORD + 9;

/// Word-mask bit of BTB tag 0 (tag `i` is bit `BTB_TAG_WORD + i`).
pub(crate) const BTB_TAG_WORD: u8 = BTB_WORD + 16;

/// Word-mask bit of the `flushes` counter.
pub(crate) const FLUSHES_WORD: u8 = BTB_TAG_WORD + 16;

/// Word-mask bit of `imc_valid`; `imc_addr`, `imc_rdata` and `imc_err`
/// follow.
pub(crate) const IMC_WORD: u8 = FLUSHES_WORD + 1;

/// Word-mask bit of `dec_valid`; `dec_op` follows.
pub(crate) const DEC_WORD: u8 = IMC_WORD + 4;

/// Word-mask bit of `rs_pc[0]`: the reservation stations' value fields
/// `rs_pc`, `rs_imm`, `rs_v1` and `rs_v2` follow in that order, eight
/// words each, entry `i` of a field at its first bit plus `i`.
pub(crate) const RS_WORD: u8 = DEC_WORD + 2;

/// Word-mask bit of `lsq_addr[0]`: `lsq_addr` and then `lsq_data`, the
/// last words, eight each, slot `i` at the field's first bit plus `i`.
pub(crate) const LSQ_WORD: u8 = RS_WORD + 32;

/// The words of reservation station 0's `rs_pc`, `rs_imm`, `rs_v1` and
/// `rs_v2` (station `i`'s: shifted left by `i`).
const RS_PC: u128 = 1 << RS_WORD;
const RS_IMM: u128 = RS_PC << 8;
const RS_V1: u128 = RS_PC << 16;
const RS_V2: u128 = RS_PC << 24;
const RS_VALUES: u128 = RS_PC | RS_IMM | RS_V1 | RS_V2;

/// The words of LSQ slot 0's `lsq_addr` and `lsq_data` (slot `i`'s:
/// shifted left by `i`).
const LSQ_ADDR: u128 = 1 << LSQ_WORD;
const LSQ_DATA: u128 = LSQ_ADDR << 8;

/// The flop words of LR7 whose every access [`park_reads`],
/// [`park_compares`] and [`park_writes`] can see from the pre-cycle
/// state and golden's ports: `(registry entry, first word bit)` pairs,
/// lane `l` of an entry being word `first + l`. 127 words in all: the 31
/// registers, the six writable CSRs, the `cycle` and `instret` counters,
/// `hartid`, the 16 BTB targets, the 16 BTB tags, the `flushes` counter
/// (the counters are the [`park_advancing`] words), the fetch-side bus
/// latch (`imc_*`) and dispatch latch (`dec_*`), which nothing reads,
/// and the value fields of the reservation stations (`rs_pc`, `rs_imm`,
/// `rs_v1`, `rs_v2`) and of the load/store queue (`lsq_addr`,
/// `lsq_data`).
///
/// `csr_misr` stays out because a `csrw misr` folds its old value into
/// the new one, so a write does not clean it. The BTB valid bits stay
/// out, as do the rename and queue control fields (the RAT, the ROB, and
/// the valid, ready, tag, opcode and pointer fields of the RS and LSQ),
/// because the oracles decode from them, and the BTB counters because
/// every hit decision at their index reads them.
pub(crate) fn park_words() -> &'static [(u16, u8)] {
    static WORDS: OnceLock<Vec<(u16, u8)>> = OnceLock::new();
    WORDS.get_or_init(|| {
        crate::dirty::word_layout(
            <super::Lr7 as crate::CoreModel>::registry(),
            &[
                "regs",
                "csr_status",
                "csr_cause",
                "csr_epc",
                "csr_tvec",
                "csr_scratch0",
                "csr_scratch1",
                "cycle",
                "instret",
                "hartid",
                "btb_tgt",
                "btb_tag",
                "flushes",
                "imc_valid",
                "imc_addr",
                "imc_rdata",
                "imc_err",
                "dec_valid",
                "dec_op",
                "rs_pc",
                "rs_imm",
                "rs_v1",
                "rs_v2",
                "lsq_addr",
                "lsq_data",
            ],
        )
    })
}

/// The [`park_words`] that *advance* instead of holding: `cycle`, which
/// every cycle that is not halted increments, `instret`, which every
/// retirement increments, and `flushes`, which every mispredict or trap
/// flush at commit (golden's `FlushCtl` bit 0) increments, each from its
/// own value and on the cycles it does so on golden (see LR5's
/// [`crate::exec::park_advancing`]).
pub(crate) fn park_advancing() -> u128 {
    0b11 << CYCLE_WORD | 1 << FLUSHES_WORD
}

/// A superset of the [`park_words`] the cycle from pre-cycle state `s`
/// reads, given `golden`, the ports that cycle drives on a machine whose
/// parked words all go unread (DESIGN.md §10). The BTB tags are read
/// only through compares, which [`park_compares`] names.
///
/// * **Registers:** dispatch reads the sources of the fetch-buffer
///   instruction that the RAT does not map, and `csrw` its `rs1`. It runs
///   after this cycle's commit and may stall, so every source is a
///   superset.
/// * **CSRs, counters and `hartid`:** a `csrr` at dispatch reads the word
///   its `imm & 0xF` selects, and a trap (golden's `ExcCtl` bit 0) reads
///   `csr_tvec`. A counter's own increment is not a read here.
/// * **BTB targets:** a fetch that hits (golden's `BranchCtl` bit 0)
///   reads the target its fetch address indexes. The index comes from
///   golden's fetch port, because a redirect at commit moves the fetch
///   PC within the cycle.
/// * **RS values:** an issue reads the four values of the station
///   golden's `ExecCtl` names, and the AGU `rs_v1`, `rs_imm` and `rs_v2`
///   of the station it takes ([`RsEvents`]). A value the same cycle's
///   CDB broadcast fills first is named too, a superset.
/// * **LSQ values:** a store at the ROB head that is done reads
///   `lsq_addr` and `lsq_data` at the LSQ head when it commits, and the
///   load stage reads `lsq_addr` at the head the commit leaves, the LSQ
///   head or, after a pop, the slot behind it: each of the two that is
///   live and ready before the cycle, since a slot the AGU readies in
///   the cycle gets its address written first.
pub(crate) fn park_reads(s: &Lr7State, golden: &PortSet) -> u128 {
    let mut words = 0u128;
    if s.halted & 1 == 0 && s.fb_valid & 1 == 1 && s.fb_err & 1 == 0 {
        if let Ok(i) = Instr::decode(s.fb_raw) {
            let (src1, src2) = source_regs(i.op.format(), &i);
            let csrw = if i.op == Opcode::Csrw { i.rs1.index() } else { 0 };
            for r in [src1, src2, csrw].into_iter().filter(|&r| r != 0) {
                words |= 1 << (r - 1);
            }
            if i.op == Opcode::Csrr {
                words |= u128::from(csr_word(CSR_WORD, i.imm as u32));
            }
        }
    }
    if golden.get(Sc::ExcCtl) & 1 != 0 {
        words |= u128::from(csr_word(CSR_WORD, Csr::Tvec.bits()));
    }
    if golden.get(Sc::BranchCtl) & 1 != 0 {
        words |= 1 << (u32::from(BTB_WORD) + ((golden.get(Sc::IfAddrLo) >> 2) & 15));
    }
    let rs = RsEvents::of(s, golden);
    if let Some(i) = rs.issue {
        words |= RS_VALUES << i;
    }
    if let Some(i) = rs.agu {
        words |= (RS_V1 | RS_IMM | RS_V2) << i;
    }
    let h = usize::from(s.rob_head & 15);
    if s.rob_count > 0 && (s.rob_done >> h) & 1 == 1 && s.rob_flags[h] & F_STORE != 0 {
        words |= (LSQ_ADDR | LSQ_DATA) << (s.lsq_head & 7);
    }
    for k in 0..s.lsq_count.min(2) {
        let li = s.lsq_head.wrapping_add(k) & 7;
        if (s.lsq_ready >> li) & 1 == 1 {
            words |= LSQ_ADDR << li;
        }
    }
    words
}

/// What golden's cycle does to the reservation stations between its
/// commit and its dispatch, decoded from the pre-cycle state and
/// golden's ports with the step's own selections ([`waiting_on`],
/// [`pick_ready`]). A flush at commit skips all of it, and golden's
/// ports then name none of it.
struct RsEvents {
    /// The stations whose first and second operands the CDB broadcast
    /// fills (golden's `FwdCtl`), as masks.
    woke: (u8, u8),
    /// The value it broadcasts, from the result latch `FwdCtl` names.
    value: u32,
    /// The station the execute port issues (golden's `ExecCtl`).
    issue: Option<usize>,
    /// The station the AGU takes (golden's `EV_AGU`): the oldest ready
    /// memory station on the ready bits the broadcast leaves, by age from
    /// the ROB head the commit leaves.
    agu: Option<usize>,
}

impl RsEvents {
    fn of(s: &Lr7State, golden: &PortSet) -> RsEvents {
        let fwd = golden.get(Sc::FwdCtl);
        let (woke, value) = if fwd & 1 != 0 {
            let value = match (fwd >> 5) & 3 {
                3 => s.mdv_val,
                2 => s.lsu_val,
                1 => s.shf_val,
                _ => s.alu_val,
            };
            (waiting_on(s, ((fwd >> 1) & 15) as u8), value)
        } else {
            ((0, 0), 0)
        };
        let exec = golden.get(Sc::ExecCtl);
        let issue = (exec & 1 != 0).then_some(((exec >> 1) & 7) as usize);
        let agu = if golden.get(Sc::EventBus) & EV_AGU != 0 {
            let head = s.rob_head.wrapping_add((golden.get(Sc::RetCtl) & 1) as u8) & 15;
            pick_ready(s, (s.rs_r1 | woke.0, s.rs_r2 | woke.1), head, true)
        } else {
            None
        };
        RsEvents { woke, value, issue, agu }
    }
}

/// The BTB tag compares of the cycle from pre-cycle state `s`, given
/// `golden`, the ports that cycle drives on a machine whose parked words
/// all go unread: `(word, key)` pairs. A tag is read nowhere but in
/// `tag == pc`, so a machine whose tag differs from `pc`, as golden's
/// does, makes golden's hit decision.
///
/// * **Commit training:** a retiring control instruction (golden's
///   `RetCtl` bit 0, `F_CTL` at the ROB head) compares the tag its PC
///   `rob_pc[h]` indexes with that PC.
/// * **Fetch:** a fetch (golden's `IfReq` bit 0) compares the tag `pc`
///   indexes with `pc`. A fetch happens only on a cycle whose commit did
///   not flush, and only a flush moves `pc` before the fetch, so the key
///   is the pre-cycle `pc`. When the same cycle's training replaced that
///   tag, both machines compare the trained value: the pair is then a
///   superset.
pub(crate) fn park_compares(s: &Lr7State, golden: &PortSet) -> impl Iterator<Item = (usize, u64)> {
    let tag = |pc: u32| (usize::from(BTB_TAG_WORD) + ((pc >> 2) & 15) as usize, u64::from(pc));
    let h = usize::from(s.rob_head & 15);
    let train = golden.get(Sc::RetCtl) & 1 != 0 && s.rob_flags[h] & F_CTL != 0;
    let fetch = golden.get(Sc::IfReq) & 1 != 0;
    train.then(|| tag(s.rob_pc[h])).into_iter().chain(fetch.then(|| tag(s.pc)))
}

/// Exactly the [`park_words`] the cycle from pre-cycle state `s` writes,
/// given `golden`, the ports that cycle drives on a machine whose parked
/// words all go unread. Such a machine's cycle is golden's, so it writes
/// golden's values: a written word is clean afterwards.
///
/// * **Registers:** the retiring ROB head writes register
///   `(RfWpCtl >> 1) & 0x1F` when golden's `RfWpCtl` bit 0 is set.
/// * **CSRs:** a retiring `csrw` (golden's `CsrCtl` bit 1) writes the CSR
///   `(CsrCtl >> 2) & 0xF` selects when it is one of the six, and a trap
///   writes `csr_cause` and `csr_epc`. Nothing writes the counters or
///   `hartid`.
/// * **BTB targets and tags:** a retiring control instruction that was
///   taken trains the target its PC indexes, hit or miss, and replaces
///   the tag there when golden's entry missed (a parked machine makes
///   golden's hit decision: [`park_compares`]).
/// * **Latches:** a fetch (golden's `IfReq` bit 0) writes the four
///   `imc_*` words, and a dispatch (golden's `IdCtl` bit 0) that
///   allocates no exception, because the fetch buffer holds no fetch
///   error and decodes, writes `dec_valid` and `dec_op`.
/// * **RS values:** the CDB broadcast writes `rs_v1` or `rs_v2` of each
///   valid station waiting on its tag, and such a dispatch of a
///   non-system instruction writes all four values of the lowest station
///   still free after the cycle's issue and AGU ([`RsEvents`]).
/// * **LSQ values:** such a dispatch of a load or store writes
///   `lsq_addr` and `lsq_data` at `lsq_tail`, and an aligned AGU writes
///   `lsq_addr`, and for a store `lsq_data`, at the live slot its ROB tag
///   owns once the commit has popped what it pops. The alignment is
///   decided from golden's values of the station's `rs_v1` (or the
///   broadcast value, when the CDB fills it) and `rs_imm`: the cycle
///   reads those ([`park_reads`]), so a machine dirty in them wakes
///   before the cycle and every machine this mask is applied to holds
///   golden's values there.
pub(crate) fn park_writes(s: &Lr7State, golden: &PortSet) -> u128 {
    let mut words = 0u128;
    let rf = golden.get(Sc::RfWpCtl);
    let rd = (rf >> 1) & 0x1F;
    if rf & 1 != 0 && rd != 0 {
        words |= 1 << (rd - 1);
    }
    let csr = golden.get(Sc::CsrCtl);
    if csr & 2 != 0 && (2..=7).contains(&((csr >> 2) & 0xF)) {
        words |= u128::from(csr_word(CSR_WORD, csr >> 2));
    }
    if golden.get(Sc::ExcCtl) & 1 != 0 {
        words |=
            u128::from(csr_word(CSR_WORD, Csr::Cause.bits()) | csr_word(CSR_WORD, Csr::Epc.bits()));
    }
    if golden.get(Sc::RetCtl) & 1 != 0 {
        let h = usize::from(s.rob_head & 15);
        let pc = s.rob_pc[h];
        if s.rob_flags[h] & F_CTL != 0 && s.rob_npc[h] != pc.wrapping_add(4) {
            let idx = (pc >> 2) & 15;
            words |= 1 << (u32::from(BTB_WORD) + idx);
            if (s.btb_valid >> idx) & 1 == 0 || s.btb_tag[idx as usize] != pc {
                words |= 1 << (u32::from(BTB_TAG_WORD) + idx);
            }
        }
    }
    if golden.get(Sc::IfReq) & 1 != 0 {
        words |= 0b1111 << IMC_WORD;
    }
    let rs = RsEvents::of(s, golden);
    // Station mask times a field's first word: that field's words of
    // every station in the mask.
    words |= RS_V1 * u128::from(rs.woke.0);
    words |= RS_V2 * u128::from(rs.woke.1);
    let dispatched = golden.get(Sc::IdCtl) & 1 != 0 && s.fb_err & 1 == 0;
    if let Some(i) = dispatched.then(|| Instr::decode(s.fb_raw).ok()).flatten() {
        words |= 0b11 << DEC_WORD;
        if !matches!(i.op.format(), Format::Sys) {
            let freed = [rs.issue, rs.agu].into_iter().flatten().fold(0u8, |m, k| m | 1 << k);
            words |= RS_VALUES << (!(s.rs_valid & !freed)).trailing_zeros();
        }
        if i.op.is_load() || i.op.is_store() {
            words |= (LSQ_ADDR | LSQ_DATA) << (s.lsq_tail & 7);
        }
    }
    if let Some(k) = rs.agu {
        let v1 = if (rs.woke.0 >> k) & 1 == 1 { rs.value } else { s.rs_v1[k] };
        let (op, _, aligned) = agu_access(s.rs_op[k], v1, s.rs_imm[k]);
        let (head, count) = lsq_after_commit(s, golden);
        if let Some(li) = aligned.then(|| lsq_slot(s, head, count, s.rs_rob[k] & 15)).flatten() {
            words |= LSQ_ADDR << li;
            if op.is_store() {
                words |= LSQ_DATA << li;
            }
        }
    }
    words
}

/// The LSQ head and count golden's commit leaves: it pops the head for a
/// store that writes memory (golden's `EV_STORE`) and for a retiring
/// load (golden's `RetCtl` bit 0) whose ROB tag owns the head slot.
fn lsq_after_commit(s: &Lr7State, golden: &PortSet) -> (u8, u8) {
    let h = usize::from(s.rob_head & 15);
    let li = usize::from(s.lsq_head & 7);
    let load = golden.get(Sc::RetCtl) & 1 != 0
        && s.rob_flags[h] & F_LOAD != 0
        && s.lsq_count > 0
        && s.lsq_rob[li] & 15 == s.rob_head & 15;
    if load || golden.get(Sc::EventBus) & EV_STORE != 0 {
        (s.lsq_head.wrapping_add(1) & 7, s.lsq_count.saturating_sub(1))
    } else {
        (s.lsq_head, s.lsq_count)
    }
}

/// Pops LSQ slot `li` (must be the head).
fn pop_lsq(n: &mut Lr7State, li: usize) {
    n.lsq_head = (n.lsq_head.wrapping_add(1)) & 7;
    n.lsq_count = n.lsq_count.saturating_sub(1);
    n.lsq_ready &= !(1u8 << li);
}

/// Squashes all in-flight (uncommitted) work. Architectural state —
/// registers, CSRs, counters, memory — is untouched, which is exactly
/// why recovery is sound: nothing speculative ever reached it.
fn flush(n: &mut Lr7State) {
    n.fb_valid = 0;
    n.fb_err = 0;
    n.rat_busy = 0;
    n.rs_valid = 0;
    n.rs_r1 = 0;
    n.rs_r2 = 0;
    n.rob_head = 0;
    n.rob_tail = 0;
    n.rob_count = 0;
    n.rob_done = 0;
    n.lsq_head = 0;
    n.lsq_tail = 0;
    n.lsq_count = 0;
    n.lsq_ready = 0;
    n.alu_valid = 0;
    n.shf_valid = 0;
    n.mdv_busy = 0;
    n.mdv_cnt = 0;
    n.lsu_valid = 0;
}

fn take_trap(n: &mut Lr7State, ports: &mut PortSet, cause: TrapCause, epc: u32) {
    n.csr_cause = cause.code();
    n.csr_epc = epc;
    n.pc = if n.csr_tvec != 0 { n.csr_tvec & !3 } else { DEFAULT_TRAP_VECTOR };
    flush(n);
    n.flushes = (n.flushes.wrapping_add(1)) & 0xFFFF;
    ports.set(Sc::ExcCtl, 1 | (cause.code() << 1));
    ports.set_bus(Sc::ExcEpcLo, Sc::ExcEpcHi, epc);
    ports.set(Sc::FlushCtl, 1 | (1 << 1));
}

fn cause_of(code: u8) -> TrapCause {
    match code {
        2 => TrapCause::MisalignedAccess,
        3 => TrapCause::BusError,
        4 => TrapCause::EnvironmentCall,
        5 => TrapCause::Breakpoint,
        _ => TrapCause::IllegalInstruction,
    }
}

/// Applies the CSR side effects of a retiring `csrr`/`csrw` and drives
/// the SCU ports; returns 1 for a CSR write (feeds `RetCtl`).
fn commit_csr(n: &mut Lr7State, ports: &mut PortSet, raw: u32, value: u32) -> u32 {
    let Ok(i) = Instr::decode(raw) else {
        return 0;
    };
    let sel = (i.imm as u32) & 0xF;
    if i.op == Opcode::Csrw {
        write_csr(n, sel, value);
        ports.set(Sc::CsrCtl, (1 << 1) | (sel << 2));
        ports.set_bus(Sc::CsrWdataLo, Sc::CsrWdataHi, value);
        if sel == Csr::Misr.bits() {
            ports.set_bus(Sc::MisrLo, Sc::MisrHi, n.csr_misr);
        }
        1
    } else {
        ports.set(Sc::CsrCtl, 1 | (sel << 2));
        match sel {
            s if s == Csr::Cycle.bits() => {
                ports.set(Sc::CycleChk, (value & 0xF) | ((parity8(value) & 0xF) << 4));
            }
            s if s == Csr::Instret.bits() => {
                ports.set(Sc::InstretChk, (value & 0xF) | ((parity8(value) & 0xF) << 4));
            }
            s if s == Csr::Misr.bits() => {
                ports.set_bus(Sc::MisrLo, Sc::MisrHi, value);
            }
            _ => {}
        }
        0
    }
}

fn read_csr(n: &Lr7State, sel: u32) -> u32 {
    match sel & 0xF {
        0x0 => n.cycle as u32,
        0x1 => n.instret as u32,
        0x2 => n.csr_status,
        0x3 => n.csr_cause,
        0x4 => n.csr_epc,
        0x5 => n.csr_tvec,
        0x6 => n.csr_scratch0,
        0x7 => n.csr_scratch1,
        0x8 => n.csr_misr,
        0x9 => u32::from(n.hartid & 3),
        _ => 0,
    }
}

fn write_csr(n: &mut Lr7State, sel: u32, value: u32) {
    match sel & 0xF {
        0x2 => n.csr_status = value,
        0x3 => n.csr_cause = value,
        0x4 => n.csr_epc = value,
        0x5 => n.csr_tvec = value,
        0x6 => n.csr_scratch0 = value,
        0x7 => n.csr_scratch1 = value,
        0x8 => n.csr_misr = misr_fold(n.csr_misr, value),
        _ => {}
    }
}

/// Trains the BTB at commit time with the actual control-flow outcome.
fn train_btb(n: &mut Lr7State, pc: u32, npc: u32) {
    let idx = ((pc >> 2) & 15) as usize;
    let taken = npc != pc.wrapping_add(4);
    let hit = (n.btb_valid >> idx) & 1 == 1 && n.btb_tag[idx] == pc;
    if taken {
        if hit {
            n.btb_tgt[idx] = npc;
            n.btb_ctr[idx] = (n.btb_ctr[idx] & 3).saturating_add(1).min(3);
        } else {
            n.btb_valid |= 1u16 << idx;
            n.btb_tag[idx] = pc;
            n.btb_tgt[idx] = npc;
            n.btb_ctr[idx] = 2;
        }
    } else if hit {
        n.btb_ctr[idx] = (n.btb_ctr[idx] & 3).saturating_sub(1);
    }
}

/// The valid reservation stations waiting on ROB entry `tag` for their
/// first and second operands, as masks: the stations a CDB broadcast of
/// `tag` fills.
fn waiting_on(n: &Lr7State, tag: u8) -> (u8, u8) {
    let (mut w1, mut w2) = (0u8, 0u8);
    for i in 0..RS_ENTRIES {
        if (n.rs_valid >> i) & 1 == 0 {
            continue;
        }
        if (n.rs_r1 >> i) & 1 == 0 && n.rs_t1[i] & 15 == tag {
            w1 |= 1 << i;
        }
        if (n.rs_r2 >> i) & 1 == 0 && n.rs_t2[i] & 15 == tag {
            w2 |= 1 << i;
        }
    }
    (w1, w2)
}

/// Selects the oldest ready reservation station, by ROB age from `head`,
/// with the operand-ready masks `(r1, r2)`; `mem` selects between the AGU
/// port (loads/stores) and the execute port. The step passes `n`'s own
/// ready bits and head; the oracles pass the ones golden's commit and
/// CDB broadcast leave ([`RsEvents`]).
fn pick_ready(n: &Lr7State, (r1, r2): (u8, u8), head: u8, mem: bool) -> Option<usize> {
    let mut best: Option<(u8, usize)> = None;
    for i in 0..RS_ENTRIES {
        if (n.rs_valid >> i) & 1 == 0 || (r1 >> i) & 1 == 0 || (r2 >> i) & 1 == 0 {
            continue;
        }
        let op = Opcode::from_bits(u32::from(n.rs_op[i]) & 0x3F).unwrap_or(Opcode::Add);
        let is_mem = op.is_load() || op.is_store();
        if is_mem != mem {
            continue;
        }
        if !mem {
            // The target result latch must be free.
            let free = if op.is_muldiv() {
                n.mdv_busy & 1 == 0
            } else if is_shift(op) {
                n.shf_valid & 1 == 0
            } else {
                n.alu_valid & 1 == 0
            };
            if !free {
                continue;
            }
        }
        let age = (n.rs_rob[i].wrapping_sub(head)) & 15;
        if best.is_none_or(|(b, _)| age < b) {
            best = Some((age, i));
        }
    }
    best.map(|(_, i)| i)
}

fn is_shift(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Sll | Opcode::Srl | Opcode::Sra | Opcode::Slli | Opcode::Srli | Opcode::Srai
    )
}

/// Executes reservation station `i` into its result latch (stage 3a).
fn issue_exec(n: &mut Lr7State, ports: &mut PortSet, i: usize) {
    let op = Opcode::from_bits(u32::from(n.rs_op[i]) & 0x3F).unwrap_or(Opcode::Add);
    let tag = n.rs_rob[i] & 15;
    let a = n.rs_v1[i];
    let b = n.rs_v2[i];
    let imm = n.rs_imm[i] as i32;
    let pc = n.rs_pc[i];
    let unit;
    if op.is_muldiv() {
        n.mdv_busy = 1;
        n.mdv_rob = tag;
        n.mdv_op = op.bits() as u8;
        n.mdv_cnt = if op.is_div() { DIV_CYCLES } else { MUL_CYCLES };
        n.mdv_val = exec_value(op, a, b, imm, pc).0;
        unit = 3;
    } else {
        let (value, npc) = exec_value(op, a, b, imm, pc);
        if let Some(t) = npc {
            n.rob_npc[usize::from(tag)] = t;
        }
        if is_shift(op) {
            n.shf_valid = 1;
            n.shf_rob = tag;
            n.shf_val = value;
            ports.set(Sc::ShfChk, parity8(value));
            unit = 1;
        } else {
            n.alu_valid = 1;
            n.alu_rob = tag;
            n.alu_val = value;
            ports.set(Sc::AluChk, parity8(value));
            ports.set(Sc::Flags, u32::from(value == 0) | ((value >> 31) << 1));
            unit = 0;
        }
    }
    ports.set(Sc::ExecCtl, 1 | ((i as u32) << 1) | (unit << 4));
    n.rs_valid &= !(1u8 << i);
    n.rs_r1 &= !(1u8 << i);
    n.rs_r2 &= !(1u8 << i);
}

/// The value (and control-flow target, for branches/jumps) of a
/// non-memory operation — exactly the ISS architectural semantics.
fn exec_value(op: Opcode, a: u32, b: u32, imm: i32, pc: u32) -> (u32, Option<u32>) {
    let uimm = imm as u32;
    let btarget = pc.wrapping_add(uimm.wrapping_shl(2)) & !3;
    let fall = pc.wrapping_add(4);
    let branch = |taken: bool| (0, Some(if taken { btarget } else { fall }));
    match op {
        Opcode::Add => (a.wrapping_add(b), None),
        Opcode::Sub => (a.wrapping_sub(b), None),
        Opcode::And => (a & b, None),
        Opcode::Or => (a | b, None),
        Opcode::Xor => (a ^ b, None),
        Opcode::Sll => (a.wrapping_shl(b & 31), None),
        Opcode::Srl => (a.wrapping_shr(b & 31), None),
        Opcode::Sra => (((a as i32) >> (b & 31)) as u32, None),
        Opcode::Slt => (u32::from((a as i32) < (b as i32)), None),
        Opcode::Sltu => (u32::from(a < b), None),
        Opcode::Mul => (a.wrapping_mul(b), None),
        Opcode::Mulh => (((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32, None),
        Opcode::Mulhu => (((u64::from(a) * u64::from(b)) >> 32) as u32, None),
        Opcode::Div => {
            let v = if b == 0 { u32::MAX } else { (a as i32).wrapping_div(b as i32) as u32 };
            (v, None)
        }
        Opcode::Divu => (a.checked_div(b).unwrap_or(u32::MAX), None),
        Opcode::Rem => {
            let v = if b == 0 { a } else { (a as i32).wrapping_rem(b as i32) as u32 };
            (v, None)
        }
        Opcode::Remu => (a.checked_rem(b).unwrap_or(a), None),
        Opcode::Addi => (a.wrapping_add(uimm), None),
        Opcode::Andi => (a & (uimm & 0xFFFF), None),
        Opcode::Ori => (a | (uimm & 0xFFFF), None),
        Opcode::Xori => (a ^ (uimm & 0xFFFF), None),
        Opcode::Slli => (a.wrapping_shl(uimm & 31), None),
        Opcode::Srli => (a.wrapping_shr(uimm & 31), None),
        Opcode::Srai => (((a as i32) >> (uimm & 31)) as u32, None),
        Opcode::Slti => (u32::from((a as i32) < imm), None),
        Opcode::Sltiu => (u32::from(a < uimm), None),
        Opcode::Lui => (uimm << 16, None),
        Opcode::Beq => branch(a == b),
        Opcode::Bne => branch(a != b),
        Opcode::Blt => branch((a as i32) < (b as i32)),
        Opcode::Bge => branch((a as i32) >= (b as i32)),
        Opcode::Bltu => branch(a < b),
        Opcode::Bgeu => branch(a >= b),
        Opcode::Jal => (fall, Some(btarget)),
        Opcode::Jalr => (fall, Some(a.wrapping_add(uimm) & !3)),
        // Loads/stores/system ops never reach the execute port.
        _ => (0, None),
    }
}

/// Runs the AGU for memory-op reservation station `i` (stage 3b): the
/// address lands in the LSQ, misalignment is detected here, and stores
/// complete (their write waits for commit).
fn run_agu(n: &mut Lr7State, ports: &mut PortSet, i: usize) {
    let (op, addr, aligned) = agu_access(n.rs_op[i], n.rs_v1[i], n.rs_imm[i]);
    let tag = n.rs_rob[i] & 15;
    let t = usize::from(tag);
    ports.set(Sc::AguChk, parity8(addr));
    if !aligned {
        n.rob_exc[t] = TrapCause::MisalignedAccess.code() as u8;
        n.rob_done |= 1u16 << t;
    } else {
        // Find this op's LSQ slot (allocated at dispatch, program order).
        if let Some(li) = lsq_slot(n, n.lsq_head, n.lsq_count, tag) {
            n.lsq_addr[li] = addr;
            if op.is_store() {
                n.lsq_data[li] = n.rs_v2[i];
                n.rob_done |= 1u16 << t;
            }
            n.lsq_ready |= 1u8 << li;
        } else {
            // LSQ desync, only reachable under injected faults: retire
            // the op as a no-effect bubble instead of wedging the queue.
            n.rob_done |= 1u16 << t;
        }
    }
    n.rs_valid &= !(1u8 << i);
    n.rs_r1 &= !(1u8 << i);
    n.rs_r2 &= !(1u8 << i);
}

/// The AGU's view of a memory op with opcode bits `op`, base `v1` and
/// offset `imm`: the opcode, the address, and whether the access is
/// aligned to its size.
fn agu_access(op: u8, v1: u32, imm: u32) -> (Opcode, u32, bool) {
    let op = Opcode::from_bits(u32::from(op) & 0x3F).unwrap_or(Opcode::Lw);
    let addr = v1.wrapping_add(imm);
    (op, addr, addr.is_multiple_of(op.access_size().unwrap_or(4)))
}

/// The slot, among the `count` live LSQ slots from `head` in program
/// order, that ROB entry `tag` owns.
fn lsq_slot(n: &Lr7State, head: u8, count: u8, tag: u8) -> Option<usize> {
    (0..LSQ_ENTRIES as u8)
        .take_while(|&k| k < count)
        .map(|k| usize::from(head.wrapping_add(k) & 7))
        .find(|&li| n.lsq_rob[li] & 15 == tag)
}

/// Executes the load at the LSQ head (stage 4). RAM loads may run
/// speculatively (reads are side-effect-free there); MMIO loads wait
/// until their ROB entry is the head, so a device read happens exactly
/// once and only on the committed path.
fn exec_load(n: &mut Lr7State, mem: &mut dyn MemoryPort, ports: &mut PortSet) -> u32 {
    if n.lsq_count == 0 || n.lsu_valid & 1 == 1 {
        return 0;
    }
    let li = usize::from(n.lsq_head & 7);
    let tag = n.lsq_rob[li] & 15;
    let t = usize::from(tag);
    let addr = n.lsq_addr[li];
    if (n.lsq_ready >> li) & 1 == 0
        || n.rob_flags[t] & F_LOAD == 0
        || (n.rob_done >> t) & 1 == 1
        || (addr >= MMIO_BASE && tag != n.rob_head & 15)
    {
        return 0;
    }
    let op = Opcode::from_bits(u32::from(n.rob_op[t]) & 0x3F).unwrap_or(Opcode::Lw);
    match mem.read(addr & !3) {
        Ok(word) => {
            let value = load_extract(op, word, addr);
            n.lsu_valid = 1;
            n.lsu_rob = tag;
            n.lsu_val = value;
            ports.set_bus(Sc::DAddrLo, Sc::DAddrHi, addr);
            ports.set(Sc::DCtl, 1 | ((op.access_size().unwrap_or(4) & 7) << 2));
            ports.set(Sc::DRchk, parity8(value));
            n.dmc_valid = 1;
            n.dmc_addr = addr;
            n.dmc_wdata = 0;
            n.dmc_strb = 0;
            n.dmc_rdata = word;
            n.dmc_err = 0;
            n.biu_addr = addr;
            n.biu_data = word;
            n.biu_ctl = 0b0001;
            EV_LOAD
        }
        Err(_) => {
            n.rob_exc[t] = TrapCause::BusError.code() as u8;
            n.rob_done |= 1u16 << t;
            n.dmc_valid = 1;
            n.dmc_addr = addr;
            n.dmc_wdata = 0;
            n.dmc_strb = 0;
            n.dmc_rdata = 0;
            n.dmc_err = 1;
            EV_LOAD
        }
    }
}

/// Lane extraction for a load result — exactly the ISS semantics.
fn load_extract(op: Opcode, word: u32, addr: u32) -> u32 {
    match op {
        Opcode::Lh => ((word >> (8 * (addr & 2))) as u16 as i16 as i32) as u32,
        Opcode::Lhu => (word >> (8 * (addr & 2))) & 0xFFFF,
        Opcode::Lb => ((word >> (8 * (addr & 3))) as u8 as i8 as i32) as u32,
        Opcode::Lbu => (word >> (8 * (addr & 3))) & 0xFF,
        _ => word,
    }
}

/// Byte-lane placement for a store — exactly the ISS semantics.
fn store_lanes(size: u32, addr: u32, data: u32) -> (u32, u8) {
    match size {
        2 => ((data & 0xFFFF) << (8 * (addr & 2)), (0b0011 << (addr & 2)) as u8),
        1 => ((data & 0xFF) << (8 * (addr & 3)), (1 << (addr & 3)) as u8),
        _ => (data, 0b1111),
    }
}

/// Dispatch (stage 5): decode + rename one instruction from the fetch
/// buffer into the ROB (and RS/LSQ); CSR/system ops serialize on an
/// empty ROB so they read architectural state directly.
fn dispatch(n: &mut Lr7State, s: &Lr7State, ports: &mut PortSet) -> u32 {
    if s.fb_valid & 1 == 0 || n.fb_valid & 1 == 0 {
        return 0;
    }
    if n.rob_count >= 16 {
        ports.set(Sc::StallCause, 1);
        return EV_STALL;
    }
    if s.fb_err & 1 == 1 {
        alloc_exc(n, s, TrapCause::BusError);
        ports.set(Sc::IdCtl, 1);
        return EV_DISPATCH;
    }
    let Ok(i) = Instr::decode(s.fb_raw) else {
        alloc_exc(n, s, TrapCause::IllegalInstruction);
        ports.set(Sc::IdCtl, 1);
        return EV_DISPATCH;
    };
    let op = i.op;
    let fmt = op.format();
    let is_mem = op.is_load() || op.is_store();
    let is_sys = matches!(fmt, Format::Sys);
    let rs_slot = (0..RS_ENTRIES).find(|k| (n.rs_valid >> k) & 1 == 0);
    if is_sys && n.rob_count != 0 {
        ports.set(Sc::StallCause, 8);
        return EV_STALL;
    }
    if !is_sys && rs_slot.is_none() {
        ports.set(Sc::StallCause, 2);
        return EV_STALL;
    }
    if is_mem && n.lsq_count >= 8 {
        ports.set(Sc::StallCause, 4);
        return EV_STALL;
    }

    let t = usize::from(n.rob_tail & 15);
    let rd = i.rd.index();
    let mut flags = 0u8;
    if op.writes_rd() {
        flags |= F_WR;
    }
    if op.is_store() {
        flags |= F_STORE;
    }
    if op.is_load() {
        flags |= F_LOAD;
    }
    if matches!(fmt, Format::B | Format::J) || op == Opcode::Jalr {
        flags |= F_CTL;
    }
    n.rob_pc[t] = s.fb_pc;
    n.rob_raw[t] = s.fb_raw;
    n.rob_op[t] = op.bits() as u8;
    n.rob_rd[t] = rd as u8;
    n.rob_val[t] = 0;
    n.rob_exc[t] = 0;
    n.rob_npc[t] = s.fb_pc.wrapping_add(4);
    n.rob_ppc[t] = s.fb_pred;
    n.rob_done &= !(1u16 << t);

    let mut rat_write = false;
    if is_sys {
        // The ROB is empty, so architectural state is current: system
        // ops read their inputs here and complete immediately.
        match op {
            Opcode::Csrr => {
                flags |= F_CSR;
                n.rob_val[t] = read_csr(n, (i.imm as u32) & 0xF);
                n.rob_done |= 1u16 << t;
            }
            Opcode::Csrw => {
                flags |= F_CSR;
                n.rob_val[t] = arch_read(n, i.rs1.index());
                n.rob_done |= 1u16 << t;
            }
            Opcode::Ecall => {
                flags |= F_HALT;
                n.rob_done |= 1u16 << t;
            }
            _ => {
                n.rob_exc[t] = TrapCause::Breakpoint.code() as u8;
                n.rob_done |= 1u16 << t;
            }
        }
    } else {
        let ri = rs_slot.unwrap_or(0);
        let (src1, src2) = source_regs(fmt, &i);
        let (v1, r1, t1) = resolve(n, src1);
        let (v2, r2, t2) = resolve(n, src2);
        n.rs_rob[ri] = t as u8;
        n.rs_op[ri] = op.bits() as u8;
        n.rs_pc[ri] = s.fb_pc;
        n.rs_imm[ri] = i.imm as u32;
        n.rs_v1[ri] = v1;
        n.rs_v2[ri] = v2;
        n.rs_t1[ri] = t1;
        n.rs_t2[ri] = t2;
        n.rs_valid |= 1u8 << ri;
        if r1 {
            n.rs_r1 |= 1u8 << ri;
        } else {
            n.rs_r1 &= !(1u8 << ri);
        }
        if r2 {
            n.rs_r2 |= 1u8 << ri;
        } else {
            n.rs_r2 &= !(1u8 << ri);
        }
        if is_mem {
            let li = usize::from(n.lsq_tail & 7);
            n.lsq_rob[li] = t as u8;
            n.lsq_addr[li] = 0;
            n.lsq_data[li] = 0;
            n.lsq_ready &= !(1u8 << li);
            n.lsq_tail = (n.lsq_tail.wrapping_add(1)) & 7;
            n.lsq_count = (n.lsq_count.wrapping_add(1)) & 0xF;
        }
    }
    if flags & F_WR != 0 && rd != 0 {
        n.rat_busy |= 1u32 << rd;
        n.rat_tag[rd] = t as u8;
        rat_write = true;
    }
    n.rob_flags[t] = flags;
    n.rob_tail = (n.rob_tail.wrapping_add(1)) & 15;
    n.rob_count = (n.rob_count.wrapping_add(1)) & 0x1F;
    n.fb_valid = 0;
    n.dec_valid = 1;
    n.dec_op = op.bits() as u8;
    ports.set(Sc::IdCtl, 1 | (op.bits() << 1));
    // LR7 has no return-address stack; the RAS SC pair carries the
    // register-alias-table traffic instead.
    ports.set(Sc::RasCtl, u32::from(rat_write) | (u32::from(is_sys) << 1));
    ports.set(Sc::RasChk, parity8(n.rat_busy));
    EV_DISPATCH
}

/// Allocates a poisoned ROB entry for a fetch/decode fault; the trap is
/// taken when (if) the entry reaches commit.
fn alloc_exc(n: &mut Lr7State, s: &Lr7State, cause: TrapCause) {
    let t = usize::from(n.rob_tail & 15);
    n.rob_pc[t] = s.fb_pc;
    n.rob_raw[t] = s.fb_raw;
    n.rob_op[t] = 0;
    n.rob_rd[t] = 0;
    n.rob_flags[t] = 0;
    n.rob_val[t] = 0;
    n.rob_exc[t] = cause.code() as u8;
    n.rob_npc[t] = s.fb_pc.wrapping_add(4);
    n.rob_ppc[t] = s.fb_pred;
    n.rob_done |= 1u16 << t;
    n.rob_tail = (n.rob_tail.wrapping_add(1)) & 15;
    n.rob_count = (n.rob_count.wrapping_add(1)) & 0x1F;
    n.fb_valid = 0;
}

/// Source registers of a decoded instruction (0 = no source / `r0`).
fn source_regs(fmt: Format, i: &Instr) -> (usize, usize) {
    match fmt {
        Format::R | Format::B => (i.rs1.index(), i.rs2.index()),
        // A store's second source is its data register, held in `rd`.
        Format::Store => (i.rs1.index(), i.rd.index()),
        Format::I | Format::Load => (i.rs1.index(), 0),
        Format::U | Format::J | Format::Sys => (0, 0),
    }
}

fn arch_read(n: &Lr7State, r: usize) -> u32 {
    if r == 0 {
        0
    } else {
        n.regs[(r - 1) & 31]
    }
}

/// Resolves one source register against RAT/ROB/architectural state:
/// `(value, ready, producer-tag)`.
fn resolve(n: &Lr7State, r: usize) -> (u32, bool, u8) {
    if r == 0 {
        return (0, true, 0);
    }
    if (n.rat_busy >> r) & 1 == 1 {
        let tag = n.rat_tag[r & 31] & 15;
        if (n.rob_done >> tag) & 1 == 1 {
            (n.rob_val[usize::from(tag)], true, tag)
        } else {
            (0, false, tag)
        }
    } else {
        (n.regs[(r - 1) & 31], true, 0)
    }
}

/// Fetch (stage 6): read the next instruction word and predict the
/// next PC through the BTB (valid + full tag match + counter ≥ 2).
fn do_fetch(n: &mut Lr7State, mem: &mut dyn MemoryPort, ports: &mut PortSet) {
    let pc = n.pc;
    let addr = pc & !3;
    let (raw, err) = match mem.fetch(addr) {
        Ok(w) => (w, 0u8),
        Err(_) => (0, 1u8),
    };
    let idx = ((pc >> 2) & 15) as usize;
    let hit = err == 0
        && (n.btb_valid >> idx) & 1 == 1
        && n.btb_tag[idx] == pc
        && n.btb_ctr[idx] & 3 >= 2;
    let pred = if hit { n.btb_tgt[idx] } else { pc.wrapping_add(4) };
    n.fb_valid = 1;
    n.fb_pc = pc;
    n.fb_raw = raw;
    n.fb_err = err;
    n.fb_pred = pred;
    n.pc = pred;
    n.imc_valid = 1;
    n.imc_addr = addr;
    n.imc_rdata = raw;
    n.imc_err = err;
    ports.set_bus(Sc::IfAddrLo, Sc::IfAddrHi, addr);
    ports.set(Sc::IfReq, 1 | (u32::from(err) << 1));
    ports.set(Sc::IfRchk, parity8(raw));
    ports.set(Sc::BranchCtl, u32::from(hit) | (u32::from(pred != pc.wrapping_add(4)) << 1));
    if hit {
        ports.set_bus(Sc::BtgtLo, Sc::BtgtHi, pred);
    }
}
