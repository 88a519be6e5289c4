//! Dirty-set tracking over the flop file: fast divergence scans between
//! a faulty core state and its golden reference, and bit-parallel watch
//! masks for parked stuck-at faults.
//!
//! Both primitives exploit the same structural fact as
//! [`flops::unit_flip_deltas`](crate::flops::unit_flip_deltas): the flop
//! file is organized as (register, lane) pairs of up to 64 bits each, so
//! one `u64` load compares (or watches) up to 64 flip-flops at once.
//!
//! * [`DirtyWitness`] accelerates [`park_confined_in`], the per-cycle
//!   "has this faulty lane re-converged with golden, or does it differ
//!   only in parkable words?" question of the batched fault-simulation
//!   engine. A lane that is going to stay divergent usually differs in
//!   the *same* (register, lane) pair cycle after cycle — the witness —
//!   so the common case is a single `u64` compare. On a miss, the
//!   state's registry diff ([`FlopState::registry_diff`], generated
//!   with the registry) answers exactly in one pass over the state.
//! * [`LaneWatch`] packs every parked stuck-at fault targeting one
//!   (register, lane) pair into two `u64` masks. A parked stuck-at
//!   (golden's bit currently equals the stuck value) costs *zero*
//!   simulation; the watch fires the cycle golden's committed bit first
//!   disagrees with the stuck value, which is exactly when the faulty
//!   machine first diverges from golden.
//!
//! Like [`flops`](crate::flops), every scan is generic over the core's
//! state type and takes the core's registry (LR5's
//! [`registry`](crate::flops::registry) or
//! [`CoreModel::registry`](crate::CoreModel::registry) of any other
//! core).

use crate::flops::{FlopReg, FlopState};

/// Cached location of the last known state difference: an index into
/// the core's registry plus a lane within that register.
///
/// Purely an accelerator — [`park_confined_in`] is correct for any
/// witness value, including the default empty one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyWitness {
    pair: Option<(u16, u16)>,
}

impl DirtyWitness {
    /// A witness with no cached difference (forces a full scan).
    pub fn new() -> DirtyWitness {
        DirtyWitness::default()
    }
}

/// Whether the entire difference between `a` and `b` is confined to the
/// *parkable words* `words` of the core whose registry is `regs`:
/// `(registry entry, first bit)` pairs, lane `l` of an entry being word
/// `first + l` of the returned mask (at most 128 words in all). Returns
/// the dirty-word mask — `Some(0)` means the states are bit-identical —
/// or `None` when any other state differs. With no words it is the
/// convergence check: `Some(0)` exactly when `a` and `b` are
/// bit-identical.
///
/// This is the admission test for word parking: on both cores every
/// access to these words is visible from the pre-cycle state and
/// golden's ports ([`crate::CoreModel::park_reads`] and
/// [`crate::CoreModel::park_writes`]; a compare-only read wakes only on a
/// match, [`crate::CoreModel::park_compares`]; a counter's own increment
/// is golden's, [`crate::CoreModel::park_advancing`]), so a word-confined
/// lane evolves in provable lockstep with golden at zero simulation cost
/// until a dirty word may be read.
///
/// The witnessed (register, lane) pair is checked first: when it is
/// outside the words and still differs, the answer is `None` in one
/// masked `u64` compare. Otherwise the state's registry diff
/// ([`FlopState::registry_diff`]) decides. It is exact over every field,
/// bits above a register's declared width included, so the answer is
/// authoritative: `None` on any difference outside the words' in-width
/// bits, else the differing lanes of the word entries.
pub fn park_confined_in<S: FlopState>(
    regs: &[FlopReg<S>],
    words: &[(u16, u8)],
    a: &S,
    b: &S,
    witness: &mut DirtyWitness,
) -> Option<u128> {
    if let Some((r, l)) = witness.pair {
        let reg = &regs[r as usize];
        if reg.read(a, l as usize) != reg.read(b, l as usize) && words.iter().all(|&(w, _)| w != r)
        {
            return None;
        }
    }
    let word_entries = words.iter().fold(0u128, |m, &(r, _)| m | 1 << r);
    let diff = S::registry_diff(a, b);
    let others = diff.entries & !word_entries;
    if others != 0 {
        let r = others.trailing_zeros() as usize;
        let lane = regs[r].lane_diff(a, b).trailing_zeros();
        witness.pair = Some((r as u16, lane as u16));
        return None;
    }
    witness.pair = None;
    if diff.above_width {
        return None;
    }
    let mut dirty = 0u128;
    for &(r, first) in words {
        if diff.entries >> r & 1 != 0 {
            dirty |= u128::from(regs[r as usize].lane_diff(a, b)) << first;
        }
    }
    Some(dirty)
}

/// Lays out a core's parkable words: the registry entries `names`, in
/// word-bit order, each taking as many word bits as it has lanes. Returns
/// the `(registry entry, first bit)` pairs [`park_confined_in`] takes.
///
/// # Panics
///
/// Panics when `regs` has no entry of a name, or past 128 words.
pub(crate) fn word_layout<S>(regs: &[FlopReg<S>], names: &[&str]) -> Vec<(u16, u8)> {
    let mut first = 0u32;
    names
        .iter()
        .map(|&name| {
            let r = regs
                .iter()
                .position(|r| r.name == name)
                .unwrap_or_else(|| panic!("flop registry has no `{name}` entry"));
            let pair = (r as u16, first as u8);
            first += u32::from(regs[r].lanes);
            assert!(first <= 128, "more than 128 parkable words");
            pair
        })
        .collect()
}

/// Bit-parallel stuck-at watch over one (register, lane) pair of the
/// flop file.
///
/// Bit `b` of `stuck0` (resp. `stuck1`) is set when at least one parked
/// stuck-at-0 (resp. stuck-at-1) fault targets flip-flop `b` of the
/// pair. While golden's bit equals the stuck value the fault overlay is
/// the identity — the faulty machine *is* the golden machine — so the
/// fault needs no simulation at all; [`LaneWatch::triggered_in`]
/// reports the bits whose faults must wake up because golden's
/// committed value now disagrees with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWatch {
    /// Index into the core's registry.
    pub reg: u16,
    /// Lane within the register.
    pub lane: u16,
    /// Bits watched by parked stuck-at-0 faults.
    pub stuck0: u64,
    /// Bits watched by parked stuck-at-1 faults.
    pub stuck1: u64,
}

impl LaneWatch {
    /// An empty watch over one (register, lane) pair.
    pub fn new(reg: u16, lane: u16) -> LaneWatch {
        LaneWatch { reg, lane, stuck0: 0, stuck1: 0 }
    }

    /// The watched bits whose stuck value disagrees with `state`'s
    /// committed value, read through the core's registry `regs`: bit
    /// `b` of the result is set when a stuck-at-0 fault watches a bit
    /// that is now 1, or a stuck-at-1 fault watches a bit that is now
    /// 0. Two `u64` ops check up to 128 parked faults.
    pub fn triggered_in<S>(&self, regs: &[FlopReg<S>], state: &S) -> u64 {
        let v = regs[self.reg as usize].read(state, self.lane as usize);
        (v & self.stuck0) | (!v & self.stuck1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::{all_flops, flip_bit, get_bit, label_of, registry, set_bit, FlopId};
    use crate::state::CpuState;

    /// The convergence check the engine makes: no parkable words, so
    /// `Some(0)` exactly when the states are bit-identical.
    fn converged<S: FlopState>(regs: &[FlopReg<S>], a: &S, b: &S, w: &mut DirtyWitness) -> bool {
        park_confined_in(regs, &[], a, b, w) == Some(0)
    }

    #[test]
    fn identical_states_converge_with_any_witness() {
        let a = CpuState::reset(0);
        let b = a.clone();
        let mut w = DirtyWitness::new();
        assert!(converged(registry(), &a, &b, &mut w));
        assert_eq!(w, DirtyWitness::new());
        // A stale witness must not produce a false negative.
        let mut stale = DirtyWitness { pair: Some((0, 0)) };
        assert!(converged(registry(), &a, &b, &mut stale));
    }

    #[test]
    fn single_flip_is_found_and_witnessed() {
        let a = CpuState::reset(0);
        for id in all_flops().step_by(131) {
            let mut b = a.clone();
            flip_bit(&mut b, id);
            let mut w = DirtyWitness::new();
            assert!(!converged(registry(), &a, &b, &mut w), "{} not seen", label_of(id));
            assert_eq!(w.pair, Some((id.reg, id.lane)), "{} witness wrong", label_of(id));
            // Second query hits the witness fast path.
            assert!(!converged(registry(), &a, &b, &mut w));
        }
    }

    #[test]
    fn witness_tracks_a_moving_difference() {
        let a = CpuState::reset(0);
        let first = all_flops().next().unwrap();
        let last = all_flops().last().unwrap();
        let mut b = a.clone();
        flip_bit(&mut b, first);
        let mut w = DirtyWitness::new();
        assert!(!converged(registry(), &a, &b, &mut w));
        // Heal the first difference, introduce another elsewhere: the
        // stale witness misses, the rescan must find the new pair.
        flip_bit(&mut b, first);
        flip_bit(&mut b, last);
        assert!(!converged(registry(), &a, &b, &mut w));
        assert_eq!(w.pair, Some((last.reg, last.lane)));
        flip_bit(&mut b, last);
        assert!(converged(registry(), &a, &b, &mut w));
    }

    #[test]
    fn watch_triggers_exactly_on_disagreement() {
        let state = CpuState::reset(0);
        let id = all_flops().nth(40).unwrap();
        let mut watch = LaneWatch::new(id.reg, id.lane);
        assert_eq!(watch.stuck0 | watch.stuck1, 0, "a new watch is empty");

        // Park a stuck-at matching the current bit value: no trigger.
        let v = get_bit(&state, id);
        if v {
            watch.stuck1 |= 1 << id.bit;
        } else {
            watch.stuck0 |= 1 << id.bit;
        }
        assert_ne!(watch.stuck0 | watch.stuck1, 0);
        assert_eq!(watch.triggered_in(registry(), &state), 0);

        // Golden's bit flips away from the stuck value: trigger fires.
        let mut moved = state.clone();
        flip_bit(&mut moved, id);
        assert_eq!(watch.triggered_in(registry(), &moved), 1 << id.bit);
    }

    #[test]
    fn watch_matches_per_bit_semantics_for_every_flop() {
        // For a sample of flops and both stuck kinds, the packed watch
        // agrees with the scalar definition "trigger iff golden's bit
        // differs from the stuck value".
        let mut state = CpuState::reset(0);
        for (i, id) in all_flops().step_by(97).enumerate() {
            if i % 2 == 0 {
                set_bit(&mut state, id, true);
            }
        }
        for id in all_flops().step_by(53) {
            for stuck1 in [false, true] {
                let mut watch = LaneWatch::new(id.reg, id.lane);
                if stuck1 {
                    watch.stuck1 = 1 << id.bit;
                } else {
                    watch.stuck0 = 1 << id.bit;
                }
                let fired = watch.triggered_in(registry(), &state) & (1 << id.bit) != 0;
                assert_eq!(
                    fired,
                    get_bit(&state, id) != stuck1,
                    "{} stuck-at-{} trigger wrong",
                    label_of(id),
                    u8::from(stuck1)
                );
            }
        }
    }

    #[test]
    fn park_confined_classifies_word_and_other_diffs() {
        let words = crate::exec::park_words();
        let a = CpuState::reset(0);
        let mut w = DirtyWitness::new();
        // Identical states: confined with an empty dirty set.
        assert_eq!(park_confined_in(registry(), words, &a, &a.clone(), &mut w), Some(0));

        // Diffs in registers 3 and 17, RAS entry 5 and `epc` only: the
        // mask has exactly those words.
        let mut b = a.clone();
        b.set_reg(3, 0xDEAD_BEEF);
        b.set_reg(17, 1);
        b.ras[5] = 0x40;
        b.csr_epc = 0x1234;
        let ras5 = 1u128 << (crate::exec::RAS_WORD + 5);
        let epc = 1u128 << (crate::exec::CSR_WORD + 2);
        assert_eq!(
            park_confined_in(registry(), words, &a, &b, &mut w),
            Some((1 << 2) | (1 << 16) | ras5 | epc)
        );

        // Any other diff on top disqualifies the lane, MISR included.
        for poison in [|s: &mut CpuState| s.ex_valid ^= 1, |s: &mut CpuState| s.csr_misr ^= 1] {
            let mut c = b.clone();
            poison(&mut c);
            assert_eq!(park_confined_in(registry(), words, &a, &c, &mut w), None);
            // The witness now points at that pair: the fast path must
            // keep answering None in O(1) while the diff persists.
            let (r, _) = w.pair.expect("witnessed");
            assert!(words.iter().all(|&(wr, _)| wr != r));
            assert_eq!(park_confined_in(registry(), words, &a, &c, &mut w), None);
        }
    }

    #[test]
    fn park_words_name_the_registers_ras_csrs_counters_and_latches() {
        let words = crate::exec::park_words();
        let named: Vec<(&str, u8)> =
            words.iter().map(|&(r, bit)| (registry()[r as usize].name, bit)).collect();
        assert_eq!(
            named,
            [
                ("regs", 0),
                ("ras", 31),
                ("csr_status", 39),
                ("csr_cause", 40),
                ("csr_epc", 41),
                ("csr_tvec", 42),
                ("csr_scratch0", 43),
                ("csr_scratch1", 44),
                ("cycle", 45),
                ("instret", 46),
                ("hartid", 47),
                ("dmc_addr", 48),
                ("dmc_wdata", 49),
                ("dmc_mask", 50),
                ("dmc_rdata", 51),
                ("wb_lane", 52),
                ("mdv_op", 53),
                ("mdv_cnt", 54),
                ("mdv_a", 55),
                ("mdv_b", 56),
                ("mdv_acc_lo", 57),
                ("mdv_acc_hi", 58),
                ("mdv_neg", 59),
            ]
        );
        use crate::exec::{CYCLE_WORD, DMC_WORD, HARTID_WORD, MDV_WORD};
        let at = |name: &str| named.iter().find(|&&(n, _)| n == name).map(|&(_, bit)| bit);
        assert_eq!(at("cycle"), Some(CYCLE_WORD));
        assert_eq!(at("hartid"), Some(HARTID_WORD));
        assert_eq!(at("dmc_addr"), Some(DMC_WORD));
        assert_eq!(at("mdv_op"), Some(MDV_WORD));
        assert_eq!(crate::exec::park_advancing(), 0b11 << CYCLE_WORD, "the two counters");
        // Lane r-1 of the bank holds architectural register r, and the
        // words tile the mask without overlap.
        let mut s = CpuState::reset(0);
        s.set_reg(5, 0x1234_5678);
        assert_eq!(registry()[words[0].0 as usize].read(&s, 4), 0x1234_5678);
        let mut seen = 0u64;
        for &(r, bit) in words {
            for lane in 0..u32::from(registry()[r as usize].lanes) {
                let word = 1u64 << (u32::from(bit) + lane);
                assert_eq!(seen & word, 0, "word bit reused");
                seen |= word;
            }
        }
        assert_eq!(seen, (1 << 60) - 1);
    }

    #[test]
    fn high_lane_pairs_are_addressable() {
        // The register bank's upper lanes exercise the lane indexing.
        let a = CpuState::reset(0);
        let mut b = a.clone();
        let rf_high = all_flops()
            .filter(|id| crate::flops::registry()[id.reg as usize].lanes > 8)
            .last()
            .unwrap();
        flip_bit(&mut b, rf_high);
        let mut w = DirtyWitness::new();
        assert!(!converged(registry(), &a, &b, &mut w));
        assert_eq!(w.pair, Some((rf_high.reg, rf_high.lane)));
        let _ = FlopId { reg: rf_high.reg, lane: rf_high.lane, bit: rf_high.bit };
    }

    /// The generic scans over another core's registry: the LR7's.
    mod lr7 {
        use super::super::*;
        use super::converged;
        use crate::flops::{all_flops_in, flip_bit_in, get_bit_in, label_of_in};
        use crate::{CoreModel, Lr7, Lr7State};

        fn regs() -> &'static [FlopReg<Lr7State>] {
            Lr7::registry()
        }

        #[test]
        fn every_sampled_flip_is_found_witnessed_and_healed() {
            let a = Lr7State::reset(0);
            let mut w = DirtyWitness::new();
            assert!(converged(regs(), &a, &a.clone(), &mut w));
            for id in all_flops_in(regs()).step_by(37) {
                let mut b = a.clone();
                flip_bit_in(regs(), &mut b, id);
                let mut w = DirtyWitness::new();
                assert!(!converged(regs(), &a, &b, &mut w), "{} not seen", label_of_in(regs(), id));
                assert_eq!(
                    w.pair,
                    Some((id.reg, id.lane)),
                    "{} witness wrong",
                    label_of_in(regs(), id)
                );
                // Second query hits the witness fast path.
                assert!(!converged(regs(), &a, &b, &mut w));
                // Healing the flip converges, whatever the stale witness.
                flip_bit_in(regs(), &mut b, id);
                assert!(converged(regs(), &a, &b, &mut w));
            }
        }

        #[test]
        fn witness_tracks_a_difference_moving_through_the_rob() {
            let a = Lr7State::reset(0);
            let mut b = a.clone();
            b.rob_val[3] ^= 1 << 9;
            let mut w = DirtyWitness::new();
            assert!(!converged(regs(), &a, &b, &mut w));
            let first = w.pair;
            // The value retires into a register: the stale witness
            // misses and the rescan must find the new pair.
            b.rob_val[3] = a.rob_val[3];
            b.set_reg(7, a.reg(7) ^ 1 << 9);
            assert!(!converged(regs(), &a, &b, &mut w));
            assert_ne!(w.pair, first);
            let rf = regs().iter().position(|r| r.name == "regs").unwrap() as u16;
            assert_eq!(w.pair, Some((rf, 6)));
            assert_eq!(
                park_confined_in(regs(), &[(rf, 0)], &a, &b, &mut w),
                Some(1 << 6),
                "the residue is register 7 alone"
            );
            b.set_reg(7, a.reg(7));
            assert!(converged(regs(), &a, &b, &mut w));
        }

        #[test]
        fn park_words_name_the_registers_csrs_counters_btb_words_and_latches() {
            use crate::lr7::exec::{
                BTB_TAG_WORD, BTB_WORD, CSR_WORD, CYCLE_WORD, DEC_WORD, FLUSHES_WORD, IMC_WORD,
            };
            let words = Lr7::park_words();
            let named: Vec<(&str, u8)> =
                words.iter().map(|&(r, bit)| (regs()[r as usize].name, bit)).collect();
            assert_eq!(
                named,
                [
                    ("regs", 0),
                    ("csr_status", CSR_WORD),
                    ("csr_cause", 32),
                    ("csr_epc", 33),
                    ("csr_tvec", 34),
                    ("csr_scratch0", 35),
                    ("csr_scratch1", 36),
                    ("cycle", CYCLE_WORD),
                    ("instret", 38),
                    ("hartid", 39),
                    ("btb_tgt", BTB_WORD),
                    ("btb_tag", BTB_TAG_WORD),
                    ("flushes", FLUSHES_WORD),
                    ("imc_valid", IMC_WORD),
                    ("imc_addr", 74),
                    ("imc_rdata", 75),
                    ("imc_err", 76),
                    ("dec_valid", DEC_WORD),
                    ("dec_op", 78),
                ]
            );
            assert_eq!(
                Lr7::park_advancing(),
                0b11 << CYCLE_WORD | 1 << FLUSHES_WORD,
                "the three counters"
            );
            // Lane r-1 of the bank holds architectural register r, lane i
            // of `btb_tgt` and `btb_tag` BTB entry i, and the words tile
            // the mask without overlap.
            let mut s = Lr7State::reset(0);
            s.set_reg(5, 0x1234_5678);
            s.btb_tgt[9] = 0x40;
            s.btb_tag[12] = 0x1030;
            assert_eq!(regs()[words[0].0 as usize].read(&s, 4), 0x1234_5678);
            assert_eq!(regs()[words[10].0 as usize].read(&s, 9), 0x40);
            assert_eq!(regs()[words[11].0 as usize].read(&s, 12), 0x1030);
            let mut seen = 0u128;
            for &(r, bit) in words {
                for lane in 0..u32::from(regs()[r as usize].lanes) {
                    let word = 1u128 << (u32::from(bit) + lane);
                    assert_eq!(seen & word, 0, "word bit reused");
                    seen |= word;
                }
            }
            assert_eq!(seen, (1 << 79) - 1);
        }

        #[test]
        fn park_confined_classifies_word_and_other_diffs() {
            use crate::lr7::exec::{BTB_TAG_WORD, BTB_WORD, CSR_WORD, FLUSHES_WORD};
            let words = Lr7::park_words();
            let a = Lr7State::reset(0);
            let mut w = DirtyWitness::new();
            assert_eq!(park_confined_in(regs(), words, &a, &a.clone(), &mut w), Some(0));

            // Diffs in register 3, `epc`, BTB target 9, BTB tag 14 (a
            // word past the 64th) and the flush counter only: the mask has
            // exactly those words.
            let mut b = a.clone();
            b.set_reg(3, 0xDEAD_BEEF);
            b.csr_epc = 0x1234;
            b.btb_tgt[9] = 0x40;
            b.btb_tag[14] = 0x1038;
            b.flushes = 7;
            let epc = 1u128 << (CSR_WORD + 2);
            let tgt9 = 1u128 << (BTB_WORD + 9);
            let tag14 = 1u128 << (BTB_TAG_WORD + 14);
            let flushes = 1u128 << FLUSHES_WORD;
            assert_eq!(
                park_confined_in(regs(), words, &a, &b, &mut w),
                Some((1 << 2) | epc | tgt9 | tag14 | flushes)
            );

            // A BTB counter, a reservation station, the MISR or a BTB
            // valid bit on top disqualifies the lane.
            let poisons: [fn(&mut Lr7State); 4] = [
                |s| s.btb_ctr[9] ^= 1,
                |s| s.rs_v1[2] ^= 1,
                |s| s.csr_misr ^= 1,
                |s| s.btb_valid ^= 1 << 14,
            ];
            for poison in poisons {
                let mut c = b.clone();
                poison(&mut c);
                assert_eq!(park_confined_in(regs(), words, &a, &c, &mut w), None);
                // The witness now points at that pair: the fast path must
                // keep answering None in O(1) while the diff persists.
                let (r, _) = w.pair.expect("witnessed");
                assert!(words.iter().all(|&(wr, _)| wr != r));
                assert_eq!(park_confined_in(regs(), words, &a, &c, &mut w), None);
            }
        }

        #[test]
        fn watch_matches_per_bit_semantics_for_sampled_flops() {
            let mut state = Lr7State::reset(0);
            for (i, id) in all_flops_in(regs()).step_by(41).enumerate() {
                if i % 2 == 0 {
                    flip_bit_in(regs(), &mut state, id);
                }
            }
            for id in all_flops_in(regs()).step_by(29) {
                for stuck1 in [false, true] {
                    let mut watch = LaneWatch::new(id.reg, id.lane);
                    if stuck1 {
                        watch.stuck1 = 1 << id.bit;
                    } else {
                        watch.stuck0 = 1 << id.bit;
                    }
                    let fired = watch.triggered_in(regs(), &state) & (1 << id.bit) != 0;
                    assert_eq!(
                        fired,
                        get_bit_in(regs(), &state, id) != stuck1,
                        "{} stuck-at-{} trigger wrong",
                        label_of_in(regs(), id),
                        u8::from(stuck1)
                    );
                }
            }
        }
    }
}
