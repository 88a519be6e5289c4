//! Diverse-memory-execution (DME) campaign support: the retired-effect
//! stream comparator and the decoder-stuck-at coverage probe.
//!
//! Under [`RedundancyMode::Dme`] the redundant copy executes the same
//! virtual program over a physically shifted RAM image
//! (`lockstep_mem::dme`), so the two copies are **not** cycle-port
//! identical by construction — MMIO timing matches, but the physical
//! addresses driven on the bus differ every cycle. The checker
//! therefore compares the copies on their canonical **retired-effect
//! streams** instead of the 62 per-cycle SC ports: the k-th retired
//! instruction of one copy must match the k-th of the other in PC,
//! encoding and writeback effect ([`lockstep_iss::retired_of_ports`]
//! decodes the stream from the same `RETIRE_EFFECT_PORTS` the
//! differential ISS runner reads).
//!
//! The payoff is coverage: a stuck line in the *shared* RAM word
//! decoder sends both identical-lockstep copies to the same wrong word,
//! so their ports agree cycle-for-cycle and the fault is provably
//! masked. Under DME the same physical fault lands on *different
//! virtual words* in the two copies, their loaded values differ, and
//! the retired-effect comparator reports the divergence
//! ([`run_decoder_stuck_at_for`]; regression-tested in
//! `tests/dme_detection.rs` with the repro under `tests/repros/`).
//!
//! Campaigns inject flop faults only, with no decoder fault planted, and
//! over a clean image the shift then merely renames RAM words: the
//! campaign engine runs DME's faulty copy unshifted and checks it
//! against [`retire_stream`] (DESIGN.md §13).

use std::collections::VecDeque;

use lockstep_core::{Dsr, RedundancyMode};
use lockstep_cpu::{CoreModel, PortSet, PortTrace, Sc};
use lockstep_iss::{retired_of_ports, Retired};
use lockstep_mem::{shift_image, AddrStuckAt, DmePort, Memory, DEFAULT_DME_OFFSET_WORDS};
use lockstep_workloads::Workload;

/// The golden retire stream of a recorded port trace: one
/// `(cycle, effect)` entry per retired instruction, in retirement
/// order. A DME campaign's golden pass records the same stream cycle by
/// cycle without keeping the trace; the DME replay engine then compares
/// the faulty copy's k-th retirement against entry k.
pub fn retire_stream(trace: &PortTrace) -> Vec<(u64, Retired)> {
    let mut out = Vec::new();
    for (cycle, ports) in trace.iter().enumerate() {
        if let Some(r) = retired_of_ports(ports) {
            out.push((cycle as u64, r));
        }
    }
    out
}

/// Per-SC divergence mask between two same-index retired effects, in
/// the DSR bit vocabulary of the retire-effect ports: each differing
/// field sets the bit of the SC that carries it, so DME records stay
/// directly comparable with fixed-lockstep DSRs over the architectural
/// port subset.
pub fn retired_diff_mask(a: &Retired, b: &Retired) -> u64 {
    fn halves(lo: Sc, hi: Sc, x: u32, y: u32) -> u64 {
        let mut m = 0u64;
        if x & 0xFFFF != y & 0xFFFF {
            m |= 1 << lo.index();
        }
        if x >> 16 != y >> 16 {
            m |= 1 << hi.index();
        }
        m
    }
    let mut mask = halves(Sc::RetPcLo, Sc::RetPcHi, a.pc, b.pc);
    mask |= halves(Sc::RetInstrLo, Sc::RetInstrHi, a.raw, b.raw);
    if (a.writes_rd, a.rd) != (b.writes_rd, b.rd) {
        mask |= 1 << Sc::WbCtl.index();
    }
    if a.writes_rd || b.writes_rd {
        mask |= halves(Sc::WbDataLo, Sc::WbDataHi, a.value, b.value);
    }
    mask
}

/// The divergence mask charged when one copy retires an instruction the
/// other never does (stream over- or under-run): the retire-valid
/// control SC itself.
pub fn stream_skew_mask() -> u64 {
    1 << Sc::RetCtl.index()
}

/// Runs a redundant pair of core `C` with the same physical
/// address-decoder stuck-at planted under **both** copies' memory ports
/// — the shared-hardware fault model — and reports the first detected
/// divergence as `(cycle, dsr)`, or `None` if the pair stays agreeing
/// for `max_cycles`.
///
/// * [`RedundancyMode::Fixed`] — both copies run identity-translated
///   over identical images and are compared per cycle on all 62 SC
///   ports. Both copies read the same wrong words, so the comparison
///   provably never fires; the run is the negative control.
/// * [`RedundancyMode::Dme`] — the redundant copy runs over the shifted
///   image behind the offset translation, and the copies are compared
///   on their retired-effect streams. The same physical fault corrupts
///   different virtual words in the two copies, so the streams diverge
///   and the fault is detected.
pub fn run_decoder_stuck_at_for<C: CoreModel>(
    workload: &Workload,
    stim_seed: u64,
    fault: AddrStuckAt,
    redundancy: RedundancyMode,
    max_cycles: u64,
) -> Option<(u64, Dsr)> {
    run_decoder_stuck_at_on::<C>(workload.memory(stim_seed), fault, redundancy, max_cycles)
}

/// [`run_decoder_stuck_at_for`] over an already-built base memory image
/// — the entry point for minimized repro programs
/// (`tests/repros/dme_addr_decoder_aliasing.asm`) that are not bundled
/// workloads.
pub fn run_decoder_stuck_at_on<C: CoreModel>(
    base: Memory,
    fault: AddrStuckAt,
    redundancy: RedundancyMode,
    max_cycles: u64,
) -> Option<(u64, Dsr)> {
    let (mut mem_b, offset) = match redundancy {
        RedundancyMode::Fixed => (base.clone(), 0),
        RedundancyMode::Dme => {
            (shift_image(&base, DEFAULT_DME_OFFSET_WORDS), DEFAULT_DME_OFFSET_WORDS)
        }
    };
    let mut mem_a = base;
    let mut cpu_a = C::new(0);
    let mut cpu_b = C::new(0);
    let mut retires_a: VecDeque<Retired> = VecDeque::new();
    let mut retires_b: VecDeque<Retired> = VecDeque::new();

    for cycle in 0..max_cycles {
        let mut ports_a = PortSet::new();
        let mut ports_b = PortSet::new();
        cpu_a.step(&mut DmePort::new(&mut mem_a, 0).with_fault(fault), &mut ports_a);
        cpu_b.step(&mut DmePort::new(&mut mem_b, offset).with_fault(fault), &mut ports_b);
        match redundancy {
            RedundancyMode::Fixed => {
                let diff = ports_a.diff_mask(&ports_b);
                if diff != 0 {
                    return Some((cycle, Dsr::from_bits(diff)));
                }
            }
            RedundancyMode::Dme => {
                if let Some(r) = retired_of_ports(&ports_a) {
                    retires_a.push_back(r);
                }
                if let Some(r) = retired_of_ports(&ports_b) {
                    retires_b.push_back(r);
                }
                while let (Some(a), Some(b)) = (retires_a.front(), retires_b.front()) {
                    let diff = retired_diff_mask(a, b);
                    if diff != 0 {
                        return Some((cycle, Dsr::from_bits(diff)));
                    }
                    retires_a.pop_front();
                    retires_b.pop_front();
                }
            }
        }
        if cpu_a.is_halted() && cpu_b.is_halted() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockstep_cpu::retire_effect_mask;

    #[test]
    fn retire_stream_matches_the_iss_count() {
        // Every retirement in the golden trace decodes through the same
        // single decoder the differential runner uses, so the stream
        // length equals the golden instruction count.
        let w = Workload::find("rspeed").unwrap();
        let cap = w.golden_capture(7, 400_000, u64::MAX);
        let stream = retire_stream(&cap.trace);
        assert_eq!(stream.len() as u64, cap.run.instructions);
        assert!(stream.windows(2).all(|w| w[0].0 < w[1].0), "cycles strictly increase");
    }

    #[test]
    fn diff_mask_is_field_precise() {
        let r = Retired { pc: 0x100, raw: 0x13, writes_rd: true, rd: 5, value: 9 };
        assert_eq!(retired_diff_mask(&r, &r), 0);
        let mut pc = r;
        pc.pc = 0x1_0104;
        assert_eq!(retired_diff_mask(&r, &pc), 1 << Sc::RetPcLo.index() | 1 << Sc::RetPcHi.index());
        let mut val = r;
        val.value = 10;
        assert_eq!(retired_diff_mask(&r, &val), 1 << Sc::WbDataLo.index());
        let mut ctl = r;
        ctl.writes_rd = false;
        assert!(retired_diff_mask(&r, &ctl) & (1 << Sc::WbCtl.index()) != 0);
        // Every possible diff bit stays inside the architectural subset.
        assert_eq!(retired_diff_mask(&r, &pc) & !retire_effect_mask(), 0);
        assert_eq!(stream_skew_mask() & !retire_effect_mask(), 0);
    }
}
