//! Diverse memory execution (DME): structurally shifted address spaces.
//!
//! Identical lockstep provably cannot detect common-mode faults in the
//! shared address path: if both redundant copies drive the same RAM
//! word-decoder and a decoder line is stuck, both copies read the same
//! wrong word and their output ports agree cycle-for-cycle. DME breaks
//! the symmetry *structurally*: the redundant copy executes the same
//! virtual program over a RAM image shifted by a fixed word offset, so
//! the same physical decoder fault lands on *different* virtual words
//! in the two copies and their retired-effect streams diverge.
//!
//! Two pieces implement this below the CPU, so cores need no changes:
//!
//! * [`shift_image`] builds the shifted RAM image — physical word
//!   `(w + offset) mod n` holds what virtual word `w` holds in the
//!   base image;
//! * [`DmePort`] is a [`MemoryPort`] interposer applying the inverse
//!   translation on every RAM access (MMIO and out-of-range addresses
//!   pass through untouched), optionally with a planted
//!   [`AddrStuckAt`] on the *physical* word index — the decoder fault
//!   model, applied below the translation exactly where the shared
//!   hardware sits.
//!
//! The soundness anchor (tested here, and per injected flop fault by
//! `lockstep-eval`'s `tests/dme_detection.rs`): with no decoder fault
//! planted, a core behind `DmePort(offset)` over `shift_image(base,
//! offset)` observes a virtual world bit-identical to a clean `base`,
//! so golden captures, checkpoints and retire streams carry over to the
//! shifted copy unchanged — which is why DME campaigns need not build
//! the shifted image at all.

use crate::bus::{BusFault, Memory, MemoryPort};

/// Default DME shift, in words. Any nonzero offset decorrelates the
/// copies; a prime keeps every word-index bit decorrelated (a
/// power-of-two offset would leave the low `log2(offset)` decoder
/// lines serving the same virtual words in both copies).
pub const DEFAULT_DME_OFFSET_WORDS: u32 = 1031;

/// An address-decoder stuck-at: physical RAM word-index bit `bit` is
/// stuck at `stuck_one`. This is the DME headline fault class — it
/// lives in the shared word decoder, strikes both redundant copies
/// identically, and identical lockstep therefore masks it by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrStuckAt {
    /// Word-index bit the decoder line serves.
    pub bit: u32,
    /// `true` = stuck-at-1, `false` = stuck-at-0.
    pub stuck_one: bool,
}

impl AddrStuckAt {
    /// The faulted physical word index for an intended `word`.
    pub fn apply(self, word: u32) -> u32 {
        if self.stuck_one {
            word | 1 << self.bit
        } else {
            word & !(1 << self.bit)
        }
    }
}

/// A [`MemoryPort`] interposer giving its core a virtual address space
/// shifted by `offset_words` relative to the physical RAM, with an
/// optional planted decoder fault below the translation.
#[derive(Debug)]
pub struct DmePort<'a> {
    mem: &'a mut Memory,
    offset_words: u32,
    fault: Option<AddrStuckAt>,
}

impl<'a> DmePort<'a> {
    /// Interposes on `mem` with the given word shift (0 = identity
    /// translation, the fixed-lockstep view of the same hardware).
    pub fn new(mem: &'a mut Memory, offset_words: u32) -> DmePort<'a> {
        DmePort { mem, offset_words, fault: None }
    }

    /// Plants a decoder stuck-at below the translation. The fault
    /// models shared hardware: campaigns plant the *same* fault under
    /// every redundant copy's port.
    pub fn with_fault(mut self, fault: AddrStuckAt) -> DmePort<'a> {
        self.fault = Some(fault);
        self
    }

    /// Translates a virtual byte address to its physical byte address:
    /// RAM words rotate by the offset (then pass the faulted decoder);
    /// MMIO and out-of-range addresses are identity-mapped so bus
    /// faults report the virtual address the core issued.
    pub fn translate(&self, addr: u32) -> u32 {
        let ram_words = (self.mem.ram_bytes() / 4) as u32;
        if ram_words == 0 || (addr as usize) >= self.mem.ram_bytes() {
            return addr;
        }
        let word = addr / 4;
        let mut phys = (word + self.offset_words) % ram_words;
        if let Some(fault) = self.fault {
            phys = fault.apply(phys) % ram_words;
        }
        (phys * 4) | (addr & 3)
    }
}

impl MemoryPort for DmePort<'_> {
    fn fetch(&mut self, addr: u32) -> Result<u32, BusFault> {
        let phys = self.translate(addr);
        self.mem.fetch(phys)
    }

    fn read(&mut self, addr: u32) -> Result<u32, BusFault> {
        let phys = self.translate(addr);
        self.mem.read(phys)
    }

    fn write(&mut self, addr: u32, data: u32, byte_mask: u8) -> Result<(), BusFault> {
        let phys = self.translate(addr);
        self.mem.write(phys, data, byte_mask)
    }
}

/// Builds the shifted image `DmePort::new(_, offset_words)` inverts:
/// physical word `(w + offset) mod n` of the result holds virtual word
/// `w` of `base`. Sensors, outputs and ECC state carry over unchanged.
pub fn shift_image(base: &Memory, offset_words: u32) -> Memory {
    let mut out = base.clone();
    let words = (base.ram_bytes() / 4) as u32;
    for w in 0..words {
        let (data, _) = base.ram().peek_word(w * 4).expect("word within RAM");
        let phys = (w + offset_words) % words;
        out.ram_mut().write_word_masked(phys * 4, data, 0xF);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{OUTPUT_BASE, SENSOR_BASE};

    fn base_memory() -> Memory {
        let mut m = Memory::new(256, 7);
        for w in 0..64u32 {
            m.write(w * 4, 0x1000_0000 + w, 0xF).unwrap();
        }
        m
    }

    #[test]
    fn translation_is_bijective_on_ram() {
        let mut m = base_memory();
        let port = DmePort::new(&mut m, 13);
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..64u32 {
            let phys = port.translate(w * 4);
            assert_eq!(phys & 3, 0);
            assert!((phys as usize) < 256);
            assert!(seen.insert(phys), "two words map to {phys:#x}");
        }
        // Sub-word offsets survive translation.
        assert_eq!(port.translate(5) & 3, 1);
    }

    #[test]
    fn mmio_and_out_of_range_pass_through() {
        let mut m = base_memory();
        let port = DmePort::new(&mut m, 13);
        assert_eq!(port.translate(SENSOR_BASE), SENSOR_BASE);
        assert_eq!(port.translate(OUTPUT_BASE + 8), OUTPUT_BASE + 8);
        assert_eq!(port.translate(0x4000), 0x4000);
        let mut m2 = base_memory();
        let mut port = DmePort::new(&mut m2, 13);
        assert_eq!(port.read(0x4000), Err(BusFault::OutOfRange { addr: 0x4000 }));
    }

    #[test]
    fn shifted_image_behind_the_port_is_virtually_identical() {
        // The DME soundness anchor at port level: every virtual access
        // sees the base world.
        let base = base_memory();
        let mut shifted = shift_image(&base, 13);
        let mut port = DmePort::new(&mut shifted, 13);
        let mut plain = base.clone();
        for w in 0..64u32 {
            assert_eq!(port.read(w * 4), plain.read(w * 4));
            assert_eq!(port.fetch(w * 4), plain.fetch(w * 4));
        }
        // Writes land where reads find them, and sensors sequence
        // identically through the interposer.
        port.write(40, 0xDEAD_BEEF, 0xF).unwrap();
        plain.write(40, 0xDEAD_BEEF, 0xF).unwrap();
        assert_eq!(port.read(40), plain.read(40));
        assert_eq!(port.read(SENSOR_BASE), plain.read(SENSOR_BASE));
        assert_eq!(port.read(SENSOR_BASE), plain.read(SENSOR_BASE));
        port.write(OUTPUT_BASE, 5, 0xF).unwrap();
        plain.write(OUTPUT_BASE, 5, 0xF).unwrap();
        assert_eq!(shifted.output_checksum(), plain.output_checksum());
    }

    #[test]
    fn decoder_stuck_at_identical_under_identity_translation() {
        // Fixed lockstep's view: both copies behind identity ports with
        // the same planted fault read the same wrong words — zero
        // observable divergence between the copies.
        let fault = AddrStuckAt { bit: 2, stuck_one: false };
        let mut a = base_memory();
        let mut b = base_memory();
        let mut pa = DmePort::new(&mut a, 0).with_fault(fault);
        let mut pb = DmePort::new(&mut b, 0).with_fault(fault);
        let mut perturbed = false;
        let mut plain = base_memory();
        for w in 0..64u32 {
            let va = pa.read(w * 4);
            assert_eq!(va, pb.read(w * 4), "copies must agree");
            perturbed |= va != plain.read(w * 4);
        }
        assert!(perturbed, "the fault must actually corrupt some reads");
    }

    #[test]
    fn decoder_stuck_at_diverges_across_a_dme_pair() {
        // DME's view: identity copy vs shifted copy, same physical
        // fault — some virtual word must now read differently.
        let fault = AddrStuckAt { bit: 2, stuck_one: false };
        let base = base_memory();
        let mut ident = base.clone();
        let mut shifted = shift_image(&base, 13);
        let mut pi = DmePort::new(&mut ident, 0).with_fault(fault);
        let mut ps = DmePort::new(&mut shifted, 13).with_fault(fault);
        let diverged = (0..64u32).any(|w| pi.read(w * 4) != ps.read(w * 4));
        assert!(diverged, "the shifted copy must expose the decoder fault");
    }

    #[test]
    fn stuck_at_application() {
        let s1 = AddrStuckAt { bit: 3, stuck_one: true };
        assert_eq!(s1.apply(0), 8);
        assert_eq!(s1.apply(9), 9);
        let s0 = AddrStuckAt { bit: 0, stuck_one: false };
        assert_eq!(s0.apply(7), 6);
        assert_eq!(s0.apply(6), 6);
    }
}
