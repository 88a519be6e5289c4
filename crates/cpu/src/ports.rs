//! The CPU output-port model: 62 signal categories.
//!
//! The lockstep checker compares the output ports of the redundant CPUs
//! every cycle. Following the paper (Figure 3), the ports are organized
//! into **signal categories (SCs)** — groups of related signals such as
//! "data address bus" — and the checker OR-reduces the per-bit differences
//! of each SC into one bit of the Divergence Status Register.
//!
//! Our LR5 exposes the same *kinds* of interfaces as a Cortex-R5
//! (instruction fetch bus, data bus, registered memory-controller and
//! bus-interface transactions, retire/trace, system/event sideband), with
//! 62 SCs totalling roughly 700 signals per CPU. The paper's R5 has ~2500
//! signals in 62 SCs because its buses are 64-bit and it has dual TCM
//! ports; the *structure* — wide unit-specific buses plus narrow shared
//! control — is what the phenomenon relies on, and is preserved.

use std::fmt;

macro_rules! signal_categories {
    ($( $variant:ident = $idx:expr, $name:expr, $width:expr ; )+) => {
        /// A signal category: one compared group of output port signals.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Sc {
            $(
                #[doc = concat!("The `", $name, "` signal category (", stringify!($width), " signals).")]
                $variant = $idx,
            )+
        }

        impl Sc {
            /// All signal categories in index order.
            pub const ALL: &'static [Sc] = &[ $( Sc::$variant, )+ ];

            /// The SC's index into the port array / DSR.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// The SC's display name.
            pub fn name(self) -> &'static str {
                match self {
                    $( Sc::$variant => $name, )+
                }
            }

            /// Number of signals (bits) in this SC.
            pub const fn width(self) -> u32 {
                match self {
                    $( Sc::$variant => $width, )+
                }
            }
        }
    };
}

signal_categories! {
    IfAddrLo   = 0,  "IF_ADDR_LO",   16;
    IfAddrHi   = 1,  "IF_ADDR_HI",   16;
    IfReq      = 2,  "IF_REQ",       4;
    IfRchk     = 3,  "IF_RCHK",      8;
    PcChk      = 4,  "PC_CHK",       8;
    BranchCtl  = 5,  "BRANCH_CTL",   6;
    BtgtLo     = 6,  "BTGT_LO",      16;
    BtgtHi     = 7,  "BTGT_HI",      16;
    IdCtl      = 8,  "ID_CTL",       8;
    StallCause = 9,  "STALL_CAUSE",  4;
    FlushCtl   = 10, "FLUSH_CTL",    4;
    RasCtl     = 11, "RAS_CTL",      4;
    RasChk     = 12, "RAS_CHK",      8;
    FwdCtl     = 13, "FWD_CTL",      8;
    RfWpCtl    = 14, "RF_WP_CTL",    8;
    RfWpChk    = 15, "RF_WP_CHK",    8;
    RetCtl     = 16, "RET_CTL",      4;
    RetPcLo    = 17, "RET_PC_LO",    16;
    RetPcHi    = 18, "RET_PC_HI",    16;
    RetInstrLo = 19, "RET_INSTR_LO", 16;
    RetInstrHi = 20, "RET_INSTR_HI", 16;
    WbCtl      = 21, "WB_CTL",       8;
    WbDataLo   = 22, "WB_DATA_LO",   16;
    WbDataHi   = 23, "WB_DATA_HI",   16;
    Flags      = 24, "FLAGS",        4;
    AluChk     = 25, "ALU_CHK",      8;
    ShfChk     = 26, "SHF_CHK",      8;
    ExecCtl    = 27, "EXEC_CTL",     8;
    MdvStatus  = 28, "MDV_STATUS",   8;
    MdvChk     = 29, "MDV_CHK",      8;
    AguChk     = 30, "AGU_CHK",      8;
    DAddrLo    = 31, "D_ADDR_LO",    16;
    DAddrHi    = 32, "D_ADDR_HI",    16;
    DWdataLo   = 33, "D_WDATA_LO",   16;
    DWdataHi   = 34, "D_WDATA_HI",   16;
    DCtl       = 35, "D_CTL",        8;
    DStrb      = 36, "D_STRB",       4;
    DRchk      = 37, "D_RCHK",       8;
    StoreChk   = 38, "STORE_CHK",    8;
    DmcAddrLo  = 39, "DMC_ADDR_LO",  16;
    DmcAddrHi  = 40, "DMC_ADDR_HI",  16;
    DmcWdataLo = 41, "DMC_WDATA_LO", 16;
    DmcWdataHi = 42, "DMC_WDATA_HI", 16;
    DmcCtl     = 43, "DMC_CTL",      6;
    BiuAddrLo  = 44, "BIU_ADDR_LO",  16;
    BiuAddrHi  = 45, "BIU_ADDR_HI",  16;
    BiuWdataLo = 46, "BIU_WDATA_LO", 16;
    BiuWdataHi = 47, "BIU_WDATA_HI", 16;
    BiuCtl     = 48, "BIU_CTL",      8;
    BiuRchk    = 49, "BIU_RCHK",     8;
    CsrCtl     = 50, "CSR_CTL",      6;
    CsrWdataLo = 51, "CSR_WDATA_LO", 16;
    CsrWdataHi = 52, "CSR_WDATA_HI", 16;
    ExcCtl     = 53, "EXC_CTL",      6;
    ExcEpcLo   = 54, "EXC_EPC_LO",   16;
    ExcEpcHi   = 55, "EXC_EPC_HI",   16;
    MisrLo     = 56, "MISR_LO",      16;
    MisrHi     = 57, "MISR_HI",      16;
    CycleChk   = 58, "CYCLE_CHK",    8;
    EventBus   = 59, "EVENT_BUS",    16;
    DbgStatus  = 60, "DBG_STATUS",   8;
    InstretChk = 61, "INSTRET_CHK",  8;
}

/// Number of signal categories (the width of the DSR).
pub const SC_COUNT: usize = 62;

/// The architectural retire-effect port subset: the eight SCs that
/// together encode one retired instruction's canonical effect — retire
/// valid/control, retired PC, retired instruction word, and the
/// writeback control/data. Every core model drives these the same way,
/// so two executions retire identical instruction streams iff these
/// ports agree retire-for-retire; the ISS differential runner and the
/// DME retired-effect comparator both read exactly this subset.
pub const RETIRE_EFFECT_PORTS: [Sc; 8] = [
    Sc::RetCtl,
    Sc::RetPcLo,
    Sc::RetPcHi,
    Sc::RetInstrLo,
    Sc::RetInstrHi,
    Sc::WbCtl,
    Sc::WbDataLo,
    Sc::WbDataHi,
];

/// DSR bit mask covering every retire-effect port (`1 << index` per SC
/// of [`RETIRE_EFFECT_PORTS`]) — the divergence signature a canonical
/// retire-stream mismatch maps onto.
pub fn retire_effect_mask() -> u64 {
    let mut mask = 0u64;
    let mut i = 0;
    while i < RETIRE_EFFECT_PORTS.len() {
        mask |= 1 << RETIRE_EFFECT_PORTS[i].index();
        i += 1;
    }
    mask
}

// The DSR is a single hardware register; its width must fit a u64.
const _: () = assert!(SC_COUNT <= 64);

impl fmt::Display for Sc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Total number of compared output signals across all SCs.
pub fn total_signals() -> u32 {
    Sc::ALL.iter().map(|sc| sc.width()).sum()
}

/// Port slots in a [`PortSet`]: the 62 SCs padded to 64, so the port
/// diff gathers whole groups of eight. The two padding slots stay zero.
const SLOTS: usize = 64;

// No SC is wider than 16 signals, so each fits one `u16` slot.
const _: () = {
    let mut i = 0;
    while i < Sc::ALL.len() {
        assert!(Sc::ALL[i].width() <= 16, "an SC is wider than its 16-bit port slot");
        i += 1;
    }
};

/// One cycle's snapshot of every output port, by signal category.
///
/// Each SC is held in a 16-bit slot (no SC is wider), which keeps a
/// snapshot at 128 bytes: clearing, copying, comparing and recording one
/// costs half what 32-bit slots would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSet {
    values: [u16; SLOTS],
}

impl Default for PortSet {
    fn default() -> Self {
        PortSet::new()
    }
}

impl PortSet {
    /// An all-zero (quiescent) port snapshot.
    pub fn new() -> PortSet {
        PortSet { values: [0; SLOTS] }
    }

    /// Zeroes every SC (start of cycle).
    pub fn clear(&mut self) {
        self.values = [0; SLOTS];
    }

    /// Sets `sc` to `value`, masked to the SC's width.
    #[inline]
    pub fn set(&mut self, sc: Sc, value: u32) {
        let mask = (1u32 << sc.width()) - 1;
        self.values[sc.index()] = (value & mask) as u16;
    }

    /// Splits a 32-bit bus across a `(lo, hi)` SC pair.
    #[inline]
    pub fn set_bus(&mut self, lo: Sc, hi: Sc, value: u32) {
        self.set(lo, value & 0xFFFF);
        self.set(hi, value >> 16);
    }

    /// Reads the current value of `sc`.
    #[inline]
    pub fn get(&self, sc: Sc) -> u32 {
        u32::from(self.values[sc.index()])
    }

    /// The per-SC divergence map against `other`: bit *i* is set iff SC
    /// *i* differs. This models the checker's per-SC OR-reduction trees.
    ///
    /// Matching ports, the common case, cost one whole-array compare.
    /// Otherwise every slot yields a 0/1 byte (packed 16-bit compares
    /// once vectorized), and one multiply per eight bytes gathers them
    /// into eight mask bits, with no branch per SC.
    pub fn diff_mask(&self, other: &PortSet) -> u64 {
        if self.values == other.values {
            return 0;
        }
        let mut differs = [0u8; SLOTS];
        for (d, (a, b)) in differs.iter_mut().zip(self.values.iter().zip(&other.values)) {
            *d = u8::from(a != b);
        }
        let mut mask = 0u64;
        for (k, group) in differs.chunks_exact(8).enumerate() {
            let bytes = u64::from_le_bytes(group.try_into().expect("groups of eight"));
            // Byte j of `bytes` (0 or 1) lands on bit 56 + j; no other
            // partial product reaches the top byte or carries into it.
            mask |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
        }
        mask
    }
}

/// Folds a 32-bit bus into the 8-bit check byte exposed on `*_CHK` ports
/// (the XOR of its four bytes — a cheap DFT-style observation point).
#[inline]
pub fn parity8(value: u32) -> u32 {
    (value ^ (value >> 16)) as u8 as u32 ^ ((value >> 8) ^ (value >> 24)) as u8 as u32
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// A port set holding `values[i]` in SC `i`, written through `set`.
    fn ports_of(values: &[u32]) -> PortSet {
        let mut p = PortSet::new();
        for (&sc, &v) in Sc::ALL.iter().zip(values) {
            p.set(sc, v);
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `diff_mask` sets bit `sc.index()` exactly when the SC reads
        /// back differently, over equal pairs, single-SC differences and
        /// random pairs that share a random subset of their SCs.
        #[test]
        fn diff_mask_flags_exactly_the_differing_scs(
            a in vec(any::<u32>(), SC_COUNT),
            other in vec(any::<u32>(), SC_COUNT),
            shared in any::<u64>(),
            (pick, bit) in (0..SC_COUNT, 0u32..16),
            shape in 0u8..3,
        ) {
            let pa = ports_of(&a);
            let pb = match shape {
                0 => pa,
                1 => {
                    let sc = Sc::ALL[pick];
                    let mut pb = pa;
                    pb.set(sc, pa.get(sc) ^ 1 << (bit % sc.width()));
                    pb
                }
                _ => {
                    let mixed: Vec<u32> = (0..SC_COUNT)
                        .map(|i| if shared >> i & 1 == 1 { a[i] } else { other[i] })
                        .collect();
                    ports_of(&mixed)
                }
            };
            let mask = pa.diff_mask(&pb);
            for &sc in Sc::ALL {
                prop_assert_eq!(
                    mask >> sc.index() & 1 == 1,
                    pa.get(sc) != pb.get(sc),
                    "{} misreported in {:#x}", sc, mask
                );
            }
            prop_assert_eq!(mask >> SC_COUNT, 0, "a padding slot leaked into the mask");
            prop_assert_eq!(mask, pb.diff_mask(&pa), "diff is symmetric");
            if shape == 1 {
                prop_assert_eq!(mask, 1 << pick);
            }
        }
    }

    #[test]
    fn exactly_62_categories() {
        assert_eq!(Sc::ALL.len(), SC_COUNT);
        for (i, sc) in Sc::ALL.iter().enumerate() {
            assert_eq!(sc.index(), i, "{sc} has wrong index");
        }
    }

    #[test]
    fn signal_count_is_substantial() {
        let total = total_signals();
        assert!(total > 500, "only {total} signals");
    }

    #[test]
    fn set_masks_to_width() {
        let mut p = PortSet::new();
        p.set(Sc::IfReq, 0xFFFF_FFFF);
        assert_eq!(p.get(Sc::IfReq), 0xF);
        p.set(Sc::IfAddrLo, 0xFFFF_FFFF);
        assert_eq!(p.get(Sc::IfAddrLo), 0xFFFF);
    }

    #[test]
    fn set_bus_splits_halves() {
        let mut p = PortSet::new();
        p.set_bus(Sc::DAddrLo, Sc::DAddrHi, 0xDEAD_BEEF);
        assert_eq!(p.get(Sc::DAddrLo), 0xBEEF);
        assert_eq!(p.get(Sc::DAddrHi), 0xDEAD);
    }

    #[test]
    fn diff_mask_empty_for_equal() {
        let a = PortSet::new();
        let b = PortSet::new();
        assert_eq!(a.diff_mask(&b), 0);
    }

    #[test]
    fn diff_mask_flags_each_category() {
        let mut a = PortSet::new();
        let b = PortSet::new();
        a.set(Sc::WbDataLo, 1);
        a.set(Sc::EventBus, 2);
        let mask = a.diff_mask(&b);
        assert_eq!(mask, 1 << Sc::WbDataLo.index() | 1 << Sc::EventBus.index());
        assert_eq!(mask, b.diff_mask(&a), "diff is symmetric");
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = PortSet::new();
        for &sc in Sc::ALL {
            p.set(sc, 1);
        }
        p.clear();
        assert_eq!(p, PortSet::new());
    }

    #[test]
    fn parity8_detects_any_single_bit() {
        for bit in 0..32 {
            assert_ne!(parity8(1 << bit), parity8(0), "bit {bit} invisible to parity");
        }
    }

    #[test]
    fn parity8_fits_in_byte() {
        for v in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678, 0xA5A5_5A5A] {
            assert!(parity8(v) <= 0xFF);
        }
    }
}
