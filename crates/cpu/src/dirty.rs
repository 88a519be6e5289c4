//! Dirty-set tracking over the flop file: fast divergence scans between
//! a faulty core state and its golden reference, and bit-parallel watch
//! masks for parked stuck-at faults.
//!
//! Both primitives exploit the same structural fact as
//! [`flops::unit_flip_deltas`](crate::flops::unit_flip_deltas): the flop
//! file is organized as (register, lane) pairs of up to 64 bits each, so
//! one `u64` load compares (or watches) up to 64 flip-flops at once.
//!
//! * [`DirtyWitness`] accelerates the per-cycle "has this faulty lane
//!   re-converged with golden?" question of the batched fault-simulation
//!   engine. A lane that is going to stay divergent usually differs in
//!   the *same* (register, lane) pair cycle after cycle — the witness —
//!   so the common case is a single `u64` compare instead of a full
//!   state scan.
//! * [`LaneWatch`] packs every parked stuck-at fault targeting one
//!   (register, lane) pair into two `u64` masks. A parked stuck-at
//!   (golden's bit currently equals the stuck value) costs *zero*
//!   simulation; the watch fires the cycle golden's committed bit first
//!   disagrees with the stuck value, which is exactly when the faulty
//!   machine first diverges from golden.
//!
//! Like [`flops`](crate::flops), every scan is generic over the core's
//! state type: the `*_in` forms take a core's registry (LR5's
//! [`registry`] or [`CoreModel::registry`](crate::CoreModel::registry)
//! of any other core), and the un-suffixed forms are the LR5 shorthand.

use std::sync::OnceLock;

use crate::flops::{registry, FlopReg};
use crate::state::CpuState;
use crate::units::UnitId;

/// Cached location of the last known state difference: an index into
/// the core's registry plus a lane within that register.
///
/// Purely an accelerator — [`converged_in`] is correct for any witness
/// value, including the default empty one.
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

/// Whether `a` and `b` are bit-identical states of the core whose
/// registry is `regs`, updating `witness` with the location of a
/// difference when they are not.
///
/// Fast paths, in order:
///
/// 1. the witnessed (register, lane) pair still differs — one masked
///    `u64` compare;
/// 2. a full registry scan finds a (new) differing pair — recorded as
///    the next witness;
/// 3. the registry is clean: fall back to the whole-struct equality,
///    which is authoritative (it also covers bits above a register's
///    declared width, which the masked registry reads cannot see).
pub fn converged_in<S: PartialEq>(
    regs: &[FlopReg<S>],
    a: &S,
    b: &S,
    witness: &mut DirtyWitness,
) -> bool {
    if let Some((r, l)) = witness.pair {
        let reg = &regs[r as usize];
        if reg.read(a, l as usize) != reg.read(b, l as usize) {
            return false;
        }
    }
    for (r, reg) in regs.iter().enumerate() {
        for lane in 0..reg.lanes as usize {
            if reg.read(a, lane) != reg.read(b, lane) {
                witness.pair = Some((r as u16, lane as u16));
                return false;
            }
        }
    }
    witness.pair = None;
    a == b
}

/// [`converged_in`] over the LR5 registry.
pub fn converged(a: &CpuState, b: &CpuState, witness: &mut DirtyWitness) -> bool {
    converged_in(registry(), a, b, witness)
}

/// Index of the LR5 architectural register file's (sole) entry in
/// [`registry`]: 31 lanes of 32 bits, lane `r - 1` holding
/// architectural register `r`.
pub fn rf_registry_index() -> u16 {
    static IDX: OnceLock<u16> = OnceLock::new();
    *IDX.get_or_init(|| {
        registry()
            .iter()
            .position(|r| r.unit == UnitId::Rf)
            .expect("flop registry has a register-file entry") as u16
    })
}

/// Whether the entire difference between `a` and `b` is confined to the
/// architectural register file, entry `rf` of `regs` (31 lanes, lane
/// `r - 1` holding register `r`). Returns the dirty-register mask (bit
/// `r - 1` set when register `r` differs) — `Some(0)` means the states
/// are bit-identical — or `None` when any non-RF state differs.
///
/// This is the admission test for register-file parking: on LR5 the RF
/// has one read site and one write site in the pipeline, both decodable
/// from the pre-cycle state ([`crate::exec::rf_read_candidates`] and
/// [`crate::exec::rf_write_of`]), so an RF-confined lane evolves in
/// provable lockstep with golden at zero simulation cost until a dirty
/// register is potentially read.
///
/// Shares [`DirtyWitness`] with [`converged_in`]: when the witnessed
/// pair is outside the RF and still differs, the answer is `None` in one
/// masked `u64` compare. The `Some` path is authoritative — it verifies
/// by substitution (copy `b`'s differing registers into a clone of `a`
/// and require whole-struct equality) so bits invisible to the masked
/// registry reads cannot slip through.
pub fn rf_confined_in<S: PartialEq + Clone>(
    regs: &[FlopReg<S>],
    rf: u16,
    a: &S,
    b: &S,
    witness: &mut DirtyWitness,
) -> Option<u32> {
    if let Some((r, l)) = witness.pair {
        if r != rf {
            let reg = &regs[r as usize];
            if reg.read(a, l as usize) != reg.read(b, l as usize) {
                return None;
            }
        }
    }
    let mut dirty = 0u32;
    for (r, reg) in regs.iter().enumerate() {
        for lane in 0..reg.lanes as usize {
            if reg.read(a, lane) != reg.read(b, lane) {
                if r as u16 == rf {
                    dirty |= 1 << lane;
                } else {
                    witness.pair = Some((r as u16, lane as u16));
                    return None;
                }
            }
        }
    }
    if dirty == 0 {
        return if a == b { Some(0) } else { None };
    }
    witness.pair = Some((rf, (31 - dirty.leading_zeros()) as u16));
    let mut patched = a.clone();
    let reg = &regs[rf as usize];
    for lane in 0..reg.lanes as usize {
        if dirty & (1 << lane) != 0 {
            (reg.set)(&mut patched, lane, reg.read(b, lane));
        }
    }
    if patched == *b {
        Some(dirty)
    } else {
        None
    }
}

/// [`rf_confined_in`] over the LR5 registry and register file.
pub fn rf_confined(a: &CpuState, b: &CpuState, witness: &mut DirtyWitness) -> Option<u32> {
    rf_confined_in(registry(), rf_registry_index(), a, b, witness)
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

    /// `true` when no fault is parked on this pair.
    pub fn is_empty(&self) -> bool {
        self.stuck0 == 0 && self.stuck1 == 0
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

    /// [`LaneWatch::triggered_in`] over the LR5 registry.
    pub fn triggered(&self, state: &CpuState) -> u64 {
        self.triggered_in(registry(), state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::{all_flops, flip_bit, get_bit, label_of, set_bit, FlopId};

    #[test]
    fn identical_states_converge_with_any_witness() {
        let a = CpuState::reset(0);
        let b = a.clone();
        let mut w = DirtyWitness::new();
        assert!(converged(&a, &b, &mut w));
        assert_eq!(w, DirtyWitness::new());
        // A stale witness must not produce a false negative.
        let mut stale = DirtyWitness { pair: Some((0, 0)) };
        assert!(converged(&a, &b, &mut stale));
    }

    #[test]
    fn single_flip_is_found_and_witnessed() {
        let a = CpuState::reset(0);
        for id in all_flops().step_by(131) {
            let mut b = a.clone();
            flip_bit(&mut b, id);
            let mut w = DirtyWitness::new();
            assert!(!converged(&a, &b, &mut w), "{} not seen", label_of(id));
            assert_eq!(w.pair, Some((id.reg, id.lane)), "{} witness wrong", label_of(id));
            // Second query hits the witness fast path.
            assert!(!converged(&a, &b, &mut w));
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
        assert!(!converged(&a, &b, &mut w));
        // Heal the first difference, introduce another elsewhere: the
        // stale witness misses, the rescan must find the new pair.
        flip_bit(&mut b, first);
        flip_bit(&mut b, last);
        assert!(!converged(&a, &b, &mut w));
        assert_eq!(w.pair, Some((last.reg, last.lane)));
        flip_bit(&mut b, last);
        assert!(converged(&a, &b, &mut w));
    }

    #[test]
    fn watch_triggers_exactly_on_disagreement() {
        let state = CpuState::reset(0);
        let id = all_flops().nth(40).unwrap();
        let mut watch = LaneWatch::new(id.reg, id.lane);
        assert!(watch.is_empty());

        // Park a stuck-at matching the current bit value: no trigger.
        let v = get_bit(&state, id);
        if v {
            watch.stuck1 |= 1 << id.bit;
        } else {
            watch.stuck0 |= 1 << id.bit;
        }
        assert!(!watch.is_empty());
        assert_eq!(watch.triggered(&state), 0);

        // Golden's bit flips away from the stuck value: trigger fires.
        let mut moved = state.clone();
        flip_bit(&mut moved, id);
        assert_eq!(watch.triggered(&moved), 1 << id.bit);
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
                let fired = watch.triggered(&state) & (1 << id.bit) != 0;
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
    fn rf_confined_classifies_rf_and_non_rf_diffs() {
        let a = CpuState::reset(0);
        let mut w = DirtyWitness::new();
        // Identical states: confined with an empty dirty set.
        assert_eq!(rf_confined(&a, &a.clone(), &mut w), Some(0));

        // Diffs in registers 3 and 17 only: mask has exactly those bits.
        let mut b = a.clone();
        b.set_reg(3, 0xDEAD_BEEF);
        b.set_reg(17, 1);
        assert_eq!(rf_confined(&a, &b, &mut w), Some((1 << 2) | (1 << 16)));

        // Any non-RF diff on top disqualifies the lane.
        let mut c = b.clone();
        c.ex_valid ^= 1;
        assert_eq!(rf_confined(&a, &c, &mut w), None);
        // The witness now points at the non-RF pair: the fast path must
        // keep answering None in O(1) while that diff persists.
        assert_ne!(w.pair.map(|(r, _)| r), Some(rf_registry_index()));
        assert_eq!(rf_confined(&a, &c, &mut w), None);
    }

    #[test]
    fn rf_registry_index_is_the_register_bank() {
        let reg = &registry()[rf_registry_index() as usize];
        assert_eq!(reg.name, "regs");
        assert_eq!((reg.lanes, reg.width), (31, 32));
        // Lane r-1 holds architectural register r.
        let mut s = CpuState::reset(0);
        s.set_reg(5, 0x1234_5678);
        assert_eq!(reg.read(&s, 4), 0x1234_5678);
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
        assert!(!converged(&a, &b, &mut w));
        assert_eq!(w.pair, Some((rf_high.reg, rf_high.lane)));
        let _ = FlopId { reg: rf_high.reg, lane: rf_high.lane, bit: rf_high.bit };
    }

    /// The generic scans over another core's registry: the LR7's.
    mod lr7 {
        use super::super::*;
        use crate::flops::{all_flops_in, flip_bit_in, get_bit_in, label_of_in};
        use crate::{CoreModel, Lr7, Lr7State};

        fn regs() -> &'static [FlopReg<Lr7State>] {
            Lr7::registry()
        }

        #[test]
        fn every_sampled_flip_is_found_witnessed_and_healed() {
            let a = Lr7State::reset(0);
            let mut w = DirtyWitness::new();
            assert!(converged_in(regs(), &a, &a.clone(), &mut w));
            for id in all_flops_in(regs()).step_by(37) {
                let mut b = a.clone();
                flip_bit_in(regs(), &mut b, id);
                let mut w = DirtyWitness::new();
                assert!(
                    !converged_in(regs(), &a, &b, &mut w),
                    "{} not seen",
                    label_of_in(regs(), id)
                );
                assert_eq!(
                    w.pair,
                    Some((id.reg, id.lane)),
                    "{} witness wrong",
                    label_of_in(regs(), id)
                );
                // Second query hits the witness fast path.
                assert!(!converged_in(regs(), &a, &b, &mut w));
                // Healing the flip converges, whatever the stale witness.
                flip_bit_in(regs(), &mut b, id);
                assert!(converged_in(regs(), &a, &b, &mut w));
            }
        }

        #[test]
        fn witness_tracks_a_difference_moving_through_the_rob() {
            let a = Lr7State::reset(0);
            let mut b = a.clone();
            b.rob_val[3] ^= 1 << 9;
            let mut w = DirtyWitness::new();
            assert!(!converged_in(regs(), &a, &b, &mut w));
            let first = w.pair;
            // The value retires into a register: the stale witness
            // misses and the rescan must find the new pair.
            b.rob_val[3] = a.rob_val[3];
            b.set_reg(7, a.reg(7) ^ 1 << 9);
            assert!(!converged_in(regs(), &a, &b, &mut w));
            assert_ne!(w.pair, first);
            let rf = regs().iter().position(|r| r.name == "regs").unwrap() as u16;
            assert_eq!(w.pair, Some((rf, 6)));
            assert_eq!(
                rf_confined_in(regs(), rf, &a, &b, &mut w),
                Some(1 << 6),
                "the residue is register 7 alone"
            );
            b.set_reg(7, a.reg(7));
            assert!(converged_in(regs(), &a, &b, &mut w));
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
