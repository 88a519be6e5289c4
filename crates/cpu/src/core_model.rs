//! The core-model abstraction: the contract every lockstep-protected
//! core implements.
//!
//! The detection framework — golden capture, checkers, shadow replay,
//! fault overlay, flop enumeration — never needs to know *which*
//! pipeline it is driving. It needs exactly four capabilities, and
//! [`CoreModel`] names them:
//!
//! 1. **the 62-SC output-port set** — [`CoreModel::step`] fills a
//!    [`PortSet`] each cycle, and two identically-stepped instances of
//!    the same core produce bit-identical snapshots;
//! 2. **an enumerable flop registry** — [`CoreModel::registry`] exposes
//!    every sequential bit, tagged with the shared 13-unit map, so
//!    campaign plans and overlays address any core the same way;
//! 3. **snapshot/restore checkpointing** — [`CoreModel::snapshot`] /
//!    [`CoreModel::restore`] capture the complete sequential state;
//! 4. **fault-overlay stepping** — [`CoreModel::step_with_overlay`]
//!    lets a fault model mutate the about-to-commit flops.
//!
//! LR5 ([`Cpu`]) and LR7 ([`crate::lr7::Lr7`]) both implement the trait;
//! [`CoreKind`] is the value-level selector the `--core` campaign axis,
//! archives and the serve job spec carry.

use lockstep_mem::MemoryPort;

use crate::cpu::Cpu;
use crate::exec::StepInfo;
use crate::flops::{FlopReg, FlopState};
use crate::ports::PortSet;
use crate::state::CpuState;

/// The architectural CSR file, as the differential runner compares it.
///
/// These are the seven writable CSRs shared by every core and the
/// reference interpreter; the counters (`cycle`, read-only `hartid`)
/// are compared separately or excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchCsrs {
    /// `status` (0x02).
    pub status: u32,
    /// `cause` (0x03).
    pub cause: u32,
    /// `epc` (0x04).
    pub epc: u32,
    /// `tvec` (0x05).
    pub tvec: u32,
    /// `scratch0` (0x06).
    pub scratch0: u32,
    /// `scratch1` (0x07).
    pub scratch1: u32,
    /// `misr` (0x08).
    pub misr: u32,
}

impl ArchCsrs {
    /// The CSRs paired with their display names, for mismatch reports.
    pub fn named(&self) -> [(&'static str, u32); 7] {
        [
            ("status", self.status),
            ("cause", self.cause),
            ("epc", self.epc),
            ("tvec", self.tvec),
            ("scratch0", self.scratch0),
            ("scratch1", self.scratch1),
            ("misr", self.misr),
        ]
    }
}

/// The contract a lockstep-protected core implements.
///
/// Everything downstream of the core — harness, shadow replay, fault
/// campaigns, BIST, the serve path — is generic over this trait, so a
/// second microarchitecture cannot be bypassed accidentally: there is no
/// way to reach a core's flops except through its registry and overlay
/// hooks.
pub trait CoreModel: Clone + std::fmt::Debug + Send + Sized + 'static {
    /// The complete sequential state: every bit is a flip-flop reachable
    /// through [`CoreModel::registry`].
    type State: FlopState + Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static;

    /// Stable lowercase name (`"lr5"`, `"lr7"`), as archives record it.
    const NAME: &'static str;

    /// Creates a core in its architectural reset state.
    fn new(hartid: u8) -> Self;

    /// Builds a core directly from a captured state, taking ownership.
    fn from_state(state: Self::State) -> Self;

    /// The architectural reset state (what [`CoreModel::new`] starts
    /// from).
    fn reset_state(hartid: u8) -> Self::State;

    /// The current sequential state.
    fn state(&self) -> &Self::State;

    /// Captures the full sequential state as a checkpoint.
    fn snapshot(&self) -> Self::State;

    /// Restores a previously captured snapshot exactly.
    fn restore(&mut self, snapshot: &Self::State);

    /// `true` once an `ecall` has retired.
    fn is_halted(&self) -> bool;

    /// Advances one clock cycle, filling `ports` with this cycle's
    /// output-port snapshot.
    fn step(&mut self, mem: &mut dyn MemoryPort, ports: &mut PortSet) -> StepInfo;

    /// Advances one cycle, applying `overlay` to the next state before
    /// it commits — the fault-injection hook.
    fn step_with_overlay(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        overlay: impl FnOnce(&mut Self::State),
    ) -> StepInfo;

    /// [`CoreModel::step`], leaving the state the cycle started from in
    /// `pre`: the copy a step makes anyway, kept for the caller. The
    /// batched engine's walker keeps it for the word-parking oracles,
    /// which read golden's pre-cycle state.
    fn step_keeping_pre(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        pre: &mut Self::State,
    ) -> StepInfo;

    /// The core's flip-flop registry (`'static`), its state's
    /// [`FlopState::registry`].
    fn registry() -> &'static [FlopReg<Self::State>] {
        Self::State::registry()
    }

    /// Reads architectural register `idx` (0 reads as zero).
    fn arch_reg(state: &Self::State, idx: usize) -> u32;

    /// The architectural CSR file of `state`.
    fn arch_csrs(state: &Self::State) -> ArchCsrs;

    /// Retired-instruction count of `state`.
    fn arch_instret(state: &Self::State) -> u64;

    /// Committed-cycle count of `state`.
    fn cycle(state: &Self::State) -> u64;

    /// The *parkable words* of this core: `(registry entry, first bit)`
    /// pairs, lane `l` of entry `r` being word `first + l` of the masks
    /// the oracles below return, at most 128 words in all. A parkable word
    /// is one whose every read and write a cycle makes follows from the
    /// pre-cycle state and golden's ports, so the batch engine can park a
    /// fault whose residue lies in such words at zero simulation cost
    /// (DESIGN.md §10).
    fn park_words() -> &'static [(u16, u8)];

    /// A superset of the [`CoreModel::park_words`] the cycle from
    /// pre-cycle state `pre` reads, given `golden`, the ports that cycle
    /// drives on a machine whose parked words all go unread (every such
    /// machine drives golden's ports). Reads named by
    /// [`CoreModel::park_compares`] need not be here.
    fn park_reads(pre: &Self::State, golden: &PortSet) -> u128;

    /// The *compare-only* reads of the cycle from pre-cycle state `pre`,
    /// given `golden`: `(word, key)` pairs, one for each use of a word
    /// whose value the cycle consumes only through `word == key`. A word
    /// the cycle uses otherwise belongs in [`CoreModel::park_reads`]. A
    /// machine whose dirty copy of such a word differs from `key`, as
    /// golden's does, takes the compare's golden outcome, so a parked
    /// fault wakes on it only when its value or golden's equals `key`.
    /// Empty by default.
    fn park_compares(_pre: &Self::State, _golden: &PortSet) -> impl Iterator<Item = (usize, u64)> {
        std::iter::empty()
    }

    /// Exactly the [`CoreModel::park_words`] the cycle from pre-cycle
    /// state `pre` writes, given `golden`, the ports that cycle drives.
    /// Such a cycle is golden's, so a written word is clean afterwards.
    fn park_writes(pre: &Self::State, golden: &PortSet) -> u128;

    /// The [`CoreModel::park_words`] that *advance* rather than hold, as
    /// a word mask: counters that no cycle writes (never in
    /// [`CoreModel::park_writes`]) and whose one unlisted read is their
    /// own increment by one, on exactly the cycles golden's copy
    /// increments. A parked copy counts in step with golden's (a stuck-at
    /// forcing a bit of it after each count), so it wakes from its value
    /// at park and golden's delta since, with no per-cycle work.
    fn park_advancing() -> u128;
}

impl CoreModel for Cpu {
    type State = CpuState;
    const NAME: &'static str = "lr5";

    fn new(hartid: u8) -> Cpu {
        Cpu::new(hartid)
    }

    fn from_state(state: CpuState) -> Cpu {
        Cpu::from_state(state)
    }

    fn reset_state(hartid: u8) -> CpuState {
        CpuState::reset(hartid)
    }

    fn state(&self) -> &CpuState {
        Cpu::state(self)
    }

    fn snapshot(&self) -> CpuState {
        Cpu::snapshot(self)
    }

    fn restore(&mut self, snapshot: &CpuState) {
        Cpu::restore(self, snapshot)
    }

    fn is_halted(&self) -> bool {
        Cpu::is_halted(self)
    }

    fn step(&mut self, mem: &mut dyn MemoryPort, ports: &mut PortSet) -> StepInfo {
        Cpu::step(self, mem, ports)
    }

    fn step_with_overlay(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        overlay: impl FnOnce(&mut CpuState),
    ) -> StepInfo {
        Cpu::step_with_overlay(self, mem, ports, overlay)
    }

    fn step_keeping_pre(
        &mut self,
        mem: &mut dyn MemoryPort,
        ports: &mut PortSet,
        pre: &mut CpuState,
    ) -> StepInfo {
        Cpu::step_keeping_pre(self, mem, ports, pre)
    }

    fn arch_reg(state: &CpuState, idx: usize) -> u32 {
        state.reg(idx)
    }

    fn arch_csrs(state: &CpuState) -> ArchCsrs {
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

    fn arch_instret(state: &CpuState) -> u64 {
        state.instret
    }

    fn cycle(state: &CpuState) -> u64 {
        state.cycle
    }

    fn park_words() -> &'static [(u16, u8)] {
        crate::exec::park_words()
    }

    fn park_reads(pre: &CpuState, golden: &PortSet) -> u128 {
        crate::exec::park_reads(pre, golden).into()
    }

    fn park_writes(pre: &CpuState, golden: &PortSet) -> u128 {
        crate::exec::park_writes(pre, golden).into()
    }

    fn park_advancing() -> u128 {
        crate::exec::park_advancing().into()
    }
}

/// Value-level selector of a core model — the `--core` campaign axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoreKind {
    /// The six-stage in-order LR5 pipeline ([`Cpu`]).
    #[default]
    Lr5,
    /// The out-of-order LR7 core ([`crate::lr7::Lr7`]).
    Lr7,
}

impl CoreKind {
    /// All core kinds, in flag order.
    pub const ALL: [CoreKind; 2] = [CoreKind::Lr5, CoreKind::Lr7];

    /// The stable lowercase name (`"lr5"` / `"lr7"`) used by flags,
    /// archives and the serve protocol.
    pub fn label(self) -> &'static str {
        match self {
            CoreKind::Lr5 => Cpu::NAME,
            CoreKind::Lr7 => crate::lr7::Lr7::NAME,
        }
    }

    /// Parses a `--core` flag / job-spec value.
    pub fn from_flag(flag: &str) -> Option<CoreKind> {
        CoreKind::ALL.into_iter().find(|k| k.label() == flag)
    }
}

impl std::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_kind_labels_round_trip() {
        for kind in CoreKind::ALL {
            assert_eq!(CoreKind::from_flag(kind.label()), Some(kind));
        }
        assert_eq!(CoreKind::from_flag("lr9"), None);
        assert_eq!(CoreKind::default(), CoreKind::Lr5);
    }

    #[test]
    fn cpu_implements_the_contract() {
        fn assert_core<C: CoreModel>() {
            assert!(!C::NAME.is_empty());
            assert!(!C::registry().is_empty());
        }
        assert_core::<Cpu>();
    }

    #[test]
    fn arch_accessors_mirror_state() {
        let mut s = CpuState::reset(0);
        s.set_reg(5, 77);
        s.csr_misr = 0xDEAD;
        s.instret = 42;
        s.cycle = 99;
        assert_eq!(Cpu::arch_reg(&s, 5), 77);
        assert_eq!(Cpu::arch_reg(&s, 0), 0);
        assert_eq!(Cpu::arch_csrs(&s).misr, 0xDEAD);
        assert_eq!(Cpu::arch_instret(&s), 42);
        assert_eq!(Cpu::cycle(&s), 99);
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_trait() {
        fn exercise<C: CoreModel>() {
            let core = C::new(0);
            let snap = core.snapshot();
            assert_eq!(&snap, core.state());
            let mut other = C::new(1);
            other.restore(&snap);
            assert_eq!(other.state(), &snap);
            let rebuilt = C::from_state(snap.clone());
            assert_eq!(rebuilt.state(), &snap);
        }
        exercise::<Cpu>();
    }
}
