//! The flip-flop registry: every sequential bit of the CPU, enumerable
//! and addressable for fault injection.
//!
//! The paper's methodology injects faults into **every flip-flop** of the
//! Cortex-R5 netlist (Section IV-A). Our CPU state is therefore exposed as
//! a registry of [`FlopReg`] descriptors — one per architectural register
//! of the design, each tagged with the [`UnitId`] it belongs to — and a
//! [`FlopId`] addresses one bit of one (lane of one) register.
//!
//! The registry is generic over the sequential-state type: LR5's
//! [`CpuState`] and LR7's `Lr7State` each declare theirs with one
//! `flop_registry!` invocation, which implements [`FlopState`]: the
//! `&'static [FlopReg<S>]` (also reached through
//! [`crate::CoreModel::registry`]) and an exact whole-state diff by
//! registry entry ([`FlopState::registry_diff`]). The `*_in` helpers
//! below operate on any such slice; the un-suffixed free functions
//! remain the LR5 shorthand they always were.

use crate::state::CpuState;
use crate::units::UnitId;

/// Descriptor of one named state register (or register array) of a core.
///
/// The state type `S` defaults to LR5's [`CpuState`]; other cores
/// instantiate it with their own state struct.
pub struct FlopReg<S = CpuState> {
    /// Field name in the RTL-level state (e.g. `"pc"`, `"regs"`).
    pub name: &'static str,
    /// The logical unit the register belongs to.
    pub unit: UnitId,
    /// Bit width of each lane (1–64).
    pub width: u8,
    /// Number of lanes (1 for scalars, 31 for the register bank; at most
    /// 64).
    pub lanes: u16,
    pub(crate) get: fn(&S, usize) -> u64,
    pub(crate) set: fn(&mut S, usize, u64),
    pub(crate) diff: fn(&S, &S) -> u64,
}

impl<S> std::fmt::Debug for FlopReg<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlopReg")
            .field("name", &self.name)
            .field("unit", &self.unit)
            .field("width", &self.width)
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl<S> FlopReg<S> {
    /// Total flip-flops in this register (width × lanes).
    pub fn total_bits(&self) -> u32 {
        u32::from(self.width) * u32::from(self.lanes)
    }

    /// Reads lane `lane`, masked to `width` bits.
    pub fn read(&self, state: &S, lane: usize) -> u64 {
        (self.get)(state, lane) & mask(self.width)
    }

    /// Writes lane `lane`; the value is masked to `width` bits.
    pub fn write(&self, state: &mut S, lane: usize, value: u64) {
        (self.set)(state, lane, value & mask(self.width));
    }

    /// The lanes whose width-masked values differ between `a` and `b`:
    /// bit `l` set for lane `l`.
    pub fn lane_diff(&self, a: &S, b: &S) -> u64 {
        (self.diff)(a, b)
    }
}

/// The low `width` bits.
#[inline]
pub(crate) const fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Where two states of one core differ, by registry entry
/// ([`FlopState::registry_diff`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryDiff {
    /// Bit `r` set: entry `r` of the registry differs in the
    /// width-masked value of at least one lane.
    pub entries: u128,
    /// Some field differs in a bit above its entry's declared width,
    /// which no registry read sees.
    pub above_width: bool,
}

/// A core's sequential state whose every field is an entry of its flop
/// registry, as declared by one `flop_registry!` invocation.
pub trait FlopState: Sized + 'static {
    /// The flop registry, in entry order (at most 128 entries).
    fn registry() -> &'static [FlopReg<Self>];

    /// The registry entries whose width-masked values differ between `a`
    /// and `b`, and whether any field differs above its declared width.
    /// Exact: the diff is `RegistryDiff::default()` if and only if
    /// `a == b`.
    fn registry_diff(a: &Self, b: &Self) -> RegistryDiff;
}

/// Declares a core state's flop registry: implements [`FlopState`] for
/// the state struct from one list of `Unit: field[width]` (a scalar) or
/// `Unit: field[width; lanes]` (an array of `lanes` elements) entries,
/// in registry order.
///
/// [`FlopState::registry_diff`] destructures the struct without `..`,
/// so a field without an entry, or an array entry whose lane count is
/// not the array's length, fails to compile.
macro_rules! flop_registry {
    ($state:ident {
        $( $unit:ident : $field:ident [$width:literal $(; $lanes:literal)?] ),+ $(,)?
    }) => {
        const _: () = {
            assert!(
                [$(stringify!($field)),+].len() <= 128,
                "a registry diff names at most 128 entries"
            );
            $($(assert!($lanes <= 64, "a lane diff names at most 64 lanes");)?)+
        };

        impl $crate::flops::FlopState for $state {
            fn registry() -> &'static [$crate::flops::FlopReg<$state>] {
                static REGISTRY: &[$crate::flops::FlopReg<$state>] = &[$(
                    $crate::flops::FlopReg {
                        name: stringify!($field),
                        unit: $crate::units::UnitId::$unit,
                        width: $width,
                        lanes: $crate::flops::flop_registry!(@lanes $($lanes)?),
                        get: $crate::flops::flop_registry!(@get $field $($lanes)?),
                        set: $crate::flops::flop_registry!(@set $field $($lanes)?),
                        diff: $crate::flops::flop_registry!(@diff $field $width $($lanes)?),
                    }
                ),+];
                REGISTRY
            }

            fn registry_diff(a: &$state, b: &$state) -> $crate::flops::RegistryDiff {
                let $state { $( $field: _ ),+ } = a;
                // Straight-line: `r` is a constant at every entry.
                let (mut entries, mut above, mut r) = (0u128, 0u64, 0u32);
                $(
                    let x = $crate::flops::flop_registry!(@xor a b $field $($lanes)?);
                    entries |= u128::from(x & $crate::flops::mask($width) != 0) << r;
                    above |= x & !$crate::flops::mask($width);
                    r += 1;
                )+
                debug_assert_eq!(r as usize, Self::registry().len());
                $crate::flops::RegistryDiff { entries, above_width: above != 0 }
            }
        }
    };
    (@lanes) => { 1 };
    (@lanes $lanes:literal) => { $lanes };
    (@get $field:ident) => { |s, _| s.$field as u64 };
    (@get $field:ident $lanes:literal) => { |s, lane| s.$field[lane] as u64 };
    (@set $field:ident) => { |s, _, v| s.$field = v as _ };
    (@set $field:ident $lanes:literal) => { |s, lane, v| s.$field[lane] = v as _ };
    (@diff $field:ident $width:literal) => {
        |a, b| u64::from((a.$field ^ b.$field) as u64 & $crate::flops::mask($width) != 0)
    };
    (@diff $field:ident $width:literal $lanes:literal) => {
        |a, b| {
            let mut lanes = 0;
            for l in 0..$lanes {
                let x = (a.$field[l] ^ b.$field[l]) as u64;
                lanes |= u64::from(x & $crate::flops::mask($width) != 0) << l;
            }
            lanes
        }
    };
    // The XOR of every lane, ORed: one value per entry.
    (@xor $a:ident $b:ident $field:ident) => { ($a.$field ^ $b.$field) as u64 };
    (@xor $a:ident $b:ident $field:ident $lanes:literal) => {{
        let (a, b): (&[_; $lanes], &[_; $lanes]) = (&$a.$field, &$b.$field);
        a.iter().zip(b).fold(0, |x, (p, q)| x | (p ^ q) as u64)
    }};
}
pub(crate) use flop_registry;

/// Address of a single flip-flop: a register, a lane within it, and a bit.
///
/// An id is only meaningful relative to one core's registry — LR5's
/// `{reg: 0, ...}` and LR7's `{reg: 0, ...}` name different flops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlopId {
    /// Index into the core's registry.
    pub reg: u16,
    /// Lane within the register (always 0 for scalars).
    pub lane: u16,
    /// Bit within the lane (`< width`).
    pub bit: u8,
}

// --- registry-parameterized helpers (any core) ---

/// Total number of flip-flops described by `regs`.
pub fn total_flops_in<S>(regs: &[FlopReg<S>]) -> u32 {
    regs.iter().map(FlopReg::total_bits).sum()
}

/// Iterates over every flip-flop of `regs` in registry order.
pub fn all_flops_in<S>(regs: &'static [FlopReg<S>]) -> impl Iterator<Item = FlopId> {
    regs.iter().enumerate().flat_map(|(r, reg)| {
        (0..reg.lanes).flat_map(move |lane| {
            (0..reg.width).map(move |bit| FlopId { reg: r as u16, lane, bit })
        })
    })
}

/// Iterates over the flip-flops of `regs` belonging to `unit`.
pub fn flops_of_unit_in<S>(
    regs: &'static [FlopReg<S>],
    unit: UnitId,
) -> impl Iterator<Item = FlopId> {
    all_flops_in(regs).filter(move |id| unit_of_in(regs, *id) == unit)
}

/// The unit a flip-flop of `regs` belongs to.
///
/// # Panics
///
/// Panics if `id.reg` is out of range.
pub fn unit_of_in<S>(regs: &[FlopReg<S>], id: FlopId) -> UnitId {
    regs[id.reg as usize].unit
}

/// Human-readable label, e.g. `"RF.regs[4].7"`.
pub fn label_of_in<S>(regs: &[FlopReg<S>], id: FlopId) -> String {
    let reg = &regs[id.reg as usize];
    if reg.lanes > 1 {
        format!("{}.{}[{}].{}", reg.unit, reg.name, id.lane, id.bit)
    } else {
        format!("{}.{}.{}", reg.unit, reg.name, id.bit)
    }
}

/// Reads one flip-flop of `state` through `regs`.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn get_bit_in<S>(regs: &[FlopReg<S>], state: &S, id: FlopId) -> bool {
    let reg = &regs[id.reg as usize];
    assert!(id.bit < reg.width && id.lane < reg.lanes, "flop id out of range: {id:?}");
    reg.read(state, id.lane as usize) >> id.bit & 1 == 1
}

/// Writes one flip-flop of `state` through `regs`.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn set_bit_in<S>(regs: &[FlopReg<S>], state: &mut S, id: FlopId, value: bool) {
    let reg = &regs[id.reg as usize];
    assert!(id.bit < reg.width && id.lane < reg.lanes, "flop id out of range: {id:?}");
    let cur = reg.read(state, id.lane as usize);
    let next = if value { cur | 1 << id.bit } else { cur & !(1 << id.bit) };
    reg.write(state, id.lane as usize, next);
}

/// Inverts one flip-flop of `state` through `regs`.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn flip_bit_in<S>(regs: &[FlopReg<S>], state: &mut S, id: FlopId) {
    let v = get_bit_in(regs, state, id);
    set_bit_in(regs, state, id, !v);
}

/// Counts, per fine-grain unit, how many flip-flops of `regs` changed
/// value between two committed states — one XOR + popcount per register
/// lane, no per-bit walk.
pub fn unit_flip_deltas_in<S>(regs: &[FlopReg<S>], prev: &S, cur: &S) -> [u16; UnitId::ALL.len()] {
    let mut deltas = [0u16; UnitId::ALL.len()];
    for reg in regs {
        let unit = reg.unit.index();
        for lane in 0..reg.lanes as usize {
            let diff = reg.read(prev, lane) ^ reg.read(cur, lane);
            deltas[unit] += diff.count_ones() as u16;
        }
    }
    deltas
}

// --- LR5 shorthand (the historical API) ---

/// The full flip-flop registry of the LR5 CPU, built once.
pub fn registry() -> &'static [FlopReg] {
    CpuState::registry()
}

/// Total number of flip-flops in the LR5 CPU.
pub fn total_flops() -> u32 {
    total_flops_in(registry())
}

/// Iterates over every flip-flop of the LR5 CPU in registry order.
pub fn all_flops() -> impl Iterator<Item = FlopId> {
    all_flops_in(registry())
}

/// Iterates over the LR5 flip-flops belonging to `unit`.
pub fn flops_of_unit(unit: UnitId) -> impl Iterator<Item = FlopId> {
    flops_of_unit_in(registry(), unit)
}

/// The unit an LR5 flip-flop belongs to.
///
/// # Panics
///
/// Panics if `id.reg` is out of range.
pub fn unit_of(id: FlopId) -> UnitId {
    unit_of_in(registry(), id)
}

/// Human-readable label, e.g. `"RF.regs[4].7"`.
pub fn label_of(id: FlopId) -> String {
    label_of_in(registry(), id)
}

/// Reads one LR5 flip-flop.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn get_bit(state: &CpuState, id: FlopId) -> bool {
    get_bit_in(registry(), state, id)
}

/// Writes one LR5 flip-flop.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn set_bit(state: &mut CpuState, id: FlopId, value: bool) {
    set_bit_in(registry(), state, id, value)
}

/// Inverts one LR5 flip-flop.
///
/// # Panics
///
/// Panics if the id is out of range.
pub fn flip_bit(state: &mut CpuState, id: FlopId) {
    flip_bit_in(registry(), state, id)
}

/// The trace hook of the observability layer: counts, per fine-grain
/// unit, how many flip-flops changed value between two committed
/// states — one XOR + popcount per register lane, no per-bit walk.
///
/// Divergence trace recorders call this once per replayed cycle with
/// the previous and current [`CpuState`] to watch a fault's
/// microarchitectural footprint spread through the units before it
/// reaches any output port.
pub fn unit_flip_deltas(prev: &CpuState, cur: &CpuState) -> [u16; UnitId::ALL.len()] {
    unit_flip_deltas_in(registry(), prev, cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_nonempty_and_plausible() {
        let total = total_flops();
        // A product-class small real-time CPU has a few thousand flops.
        assert!(total > 1500, "only {total} flops");
        assert!(total < 10_000, "{total} flops is implausible");
    }

    #[test]
    fn all_flops_matches_total() {
        assert_eq!(all_flops().count() as u32, total_flops());
    }

    #[test]
    fn every_unit_has_flops() {
        for unit in UnitId::ALL {
            assert!(flops_of_unit(unit).next().is_some(), "{unit} has no flops");
        }
    }

    #[test]
    fn register_bank_is_biggest_contributor() {
        let rf: u32 =
            registry().iter().filter(|r| r.unit == UnitId::Rf).map(FlopReg::total_bits).sum();
        assert_eq!(rf, 31 * 32);
    }

    #[test]
    fn get_set_flip_round_trip() {
        let mut state = CpuState::reset(0);
        for id in all_flops().step_by(37) {
            let before = get_bit(&state, id);
            flip_bit(&mut state, id);
            assert_eq!(get_bit(&state, id), !before, "{}", label_of(id));
            flip_bit(&mut state, id);
            assert_eq!(get_bit(&state, id), before);
        }
    }

    #[test]
    fn set_bit_is_idempotent() {
        let mut state = CpuState::reset(0);
        let id = all_flops().nth(100).unwrap();
        set_bit(&mut state, id, true);
        assert!(get_bit(&state, id));
        set_bit(&mut state, id, true);
        assert!(get_bit(&state, id));
        set_bit(&mut state, id, false);
        assert!(!get_bit(&state, id));
    }

    #[test]
    fn flips_are_independent() {
        // Flipping one flop changes exactly one flop.
        let base = CpuState::reset(0);
        for id in all_flops().step_by(191) {
            let mut state = base.clone();
            flip_bit(&mut state, id);
            let changed: Vec<FlopId> =
                all_flops().filter(|&f| get_bit(&state, f) != get_bit(&base, f)).collect();
            assert_eq!(changed, vec![id], "flip of {} leaked", label_of(id));
        }
    }

    #[test]
    fn labels_are_informative() {
        let id = FlopId { reg: 0, lane: 0, bit: 3 };
        let label = label_of(id);
        assert!(label.contains('.'));
    }

    #[test]
    fn unit_flip_deltas_counts_exactly_the_flipped_bits() {
        let base = CpuState::reset(0);
        assert_eq!(unit_flip_deltas(&base, &base), [0u16; UnitId::ALL.len()]);
        let mut state = base.clone();
        let ids: Vec<FlopId> = all_flops().step_by(97).collect();
        for &id in &ids {
            flip_bit(&mut state, id);
        }
        let deltas = unit_flip_deltas(&base, &state);
        let total: u32 = deltas.iter().map(|&n| u32::from(n)).sum();
        assert_eq!(total as usize, ids.len());
        for (u, unit) in UnitId::ALL.iter().enumerate() {
            let expected = ids.iter().filter(|&&id| unit_of(id) == *unit).count();
            assert_eq!(deltas[u] as usize, expected, "{unit} delta wrong");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for reg in registry() {
            assert!(seen.insert(reg.name), "duplicate register name {}", reg.name);
        }
    }

    /// The generated registry diffs of both cores, against the per-lane
    /// registry scan they replaced.
    mod registry_diff {
        use super::super::*;
        use crate::{CoreModel, Cpu, Lr7, PortSet};
        use proptest::prelude::*;

        /// A state 500 cycles into `rspeed`, so most entries hold values
        /// other than their reset ones.
        fn mid_run<C: CoreModel>() -> C::State {
            let w = lockstep_workloads::Workload::find("rspeed").expect("suite kernel");
            let mut mem = w.memory(7);
            let mut core = C::new(0);
            let mut ports = PortSet::new();
            for _ in 0..500 {
                core.step(&mut mem, &mut ports);
            }
            core.snapshot()
        }

        /// The reference: every lane of every entry read through the
        /// registry's raw accessors, one at a time.
        fn scan<S>(regs: &[FlopReg<S>], a: &S, b: &S) -> (RegistryDiff, Vec<u64>) {
            let mut diff = RegistryDiff::default();
            let mut lanes = vec![0u64; regs.len()];
            for (r, reg) in regs.iter().enumerate() {
                for lane in 0..reg.lanes as usize {
                    let x = (reg.get)(a, lane) ^ (reg.get)(b, lane);
                    if x & mask(reg.width) != 0 {
                        diff.entries |= 1 << r;
                        lanes[r] |= 1 << lane;
                    }
                    diff.above_width |= x & !mask(reg.width) != 0;
                }
            }
            (diff, lanes)
        }

        /// One in-width bit of each entry and lane names exactly that
        /// entry, and that lane in the entry's lane diff; a bit above the
        /// width, wherever the field's type holds one, raises only the
        /// above-width flag.
        #[test]
        fn every_entry_lane_and_above_width_bit_is_named_exactly() {
            fn check<C: CoreModel>() {
                let regs = C::registry();
                let a = mid_run::<C>();
                assert_eq!(C::State::registry_diff(&a, &a), RegistryDiff::default());
                let mut above = 0;
                for (r, reg) in regs.iter().enumerate() {
                    for lane in 0..reg.lanes {
                        let bit = ((r + 7 * usize::from(lane)) % usize::from(reg.width)) as u8;
                        let id = FlopId { reg: r as u16, lane, bit };
                        let mut b = a.clone();
                        flip_bit_in(regs, &mut b, id);
                        let label = format!("{} {}", C::NAME, label_of_in(regs, id));
                        let named = RegistryDiff { entries: 1 << r, above_width: false };
                        assert_eq!(C::State::registry_diff(&a, &b), named, "{label}");
                        assert_eq!(C::State::registry_diff(&b, &a), named, "{label}");
                        assert_eq!(reg.lane_diff(&a, &b), 1 << lane, "{label}");
                        if reg.width == 64 {
                            continue;
                        }
                        let lane = usize::from(lane);
                        let mut c = a.clone();
                        (reg.set)(&mut c, lane, (reg.get)(&a, lane) ^ 1 << reg.width);
                        if c == a {
                            // The field's type is exactly the entry's width.
                            continue;
                        }
                        above += 1;
                        let flagged = RegistryDiff { entries: 0, above_width: true };
                        assert_eq!(C::State::registry_diff(&a, &c), flagged, "{label} above");
                        assert_eq!(reg.lane_diff(&a, &c), 0, "{label} above");
                    }
                }
                assert!(above > 0, "{}: no field is wider than its entry", C::NAME);
            }
            check::<Cpu>();
            check::<Lr7>();
        }

        /// Applies `edits` to `s` through the raw setters: `(entry, lane,
        /// pattern)`, XORing one bit of the pattern, or all of it, into the
        /// lane, above-width bits included wherever the field holds them.
        fn edit<S>(regs: &[FlopReg<S>], s: &mut S, edits: &[(u16, u16, u64)]) {
            for &(r, lane, pattern) in edits {
                let reg = &regs[usize::from(r) % regs.len()];
                let lane = usize::from(lane % reg.lanes);
                let x = if pattern & 1 == 0 { 1 << ((pattern >> 1) % 64) } else { pattern >> 1 };
                (reg.set)(s, lane, (reg.get)(s, lane) ^ x);
            }
        }

        fn agrees_with_scan<C: CoreModel>(
            base: &C::State,
            edits_a: &[(u16, u16, u64)],
            edits_b: &[(u16, u16, u64)],
        ) -> Result<(), TestCaseError> {
            let regs = C::registry();
            let (mut a, mut b) = (base.clone(), base.clone());
            edit(regs, &mut a, edits_a);
            edit(regs, &mut b, edits_b);
            let (reference, lanes) = scan(regs, &a, &b);
            let diff = C::State::registry_diff(&a, &b);
            prop_assert_eq!(diff, reference);
            prop_assert_eq!(diff == RegistryDiff::default(), a == b);
            for (r, reg) in regs.iter().enumerate() {
                prop_assert_eq!(reg.lane_diff(&a, &b), lanes[r]);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn diff_matches_the_per_lane_scan(
                edits_a in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u64>()), 0..4),
                edits_b in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u64>()), 0..6),
            ) {
                use std::sync::OnceLock;
                static LR5: OnceLock<crate::CpuState> = OnceLock::new();
                static LR7: OnceLock<crate::Lr7State> = OnceLock::new();
                agrees_with_scan::<Cpu>(LR5.get_or_init(mid_run::<Cpu>), &edits_a, &edits_b)?;
                agrees_with_scan::<Lr7>(LR7.get_or_init(mid_run::<Lr7>), &edits_a, &edits_b)?;
            }
        }
    }
}
