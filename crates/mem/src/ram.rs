//! Word-addressable RAM, with and without ECC protection.

use crate::ecc::{EccStatus, SecDed};

/// Plain word RAM without protection. Used for golden images and as the
/// baseline in the ECC demonstration tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ram {
    words: Vec<u32>,
}

impl Ram {
    /// Creates a zeroed RAM of `bytes` capacity (rounded up to a word).
    pub fn new(bytes: usize) -> Ram {
        Ram { words: vec![0; bytes.div_ceil(4)] }
    }

    /// Builds a RAM from a little-endian byte image.
    pub fn from_bytes(image: &[u8]) -> Ram {
        let mut ram = Ram::new(image.len());
        for (i, chunk) in image.chunks(4).enumerate() {
            let mut b = [0u8; 4];
            b[..chunk.len()].copy_from_slice(chunk);
            ram.words[i] = u32::from_le_bytes(b);
        }
        ram
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Reads the word containing byte address `addr`, or `None` if out of
    /// range.
    pub fn read_word(&self, addr: u32) -> Option<u32> {
        self.words.get(addr as usize / 4).copied()
    }

    /// Writes bytes of the word containing `addr` selected by `byte_mask`
    /// (bit 0 = least-significant byte). Returns `false` if out of range.
    pub fn write_word_masked(&mut self, addr: u32, data: u32, byte_mask: u8) -> bool {
        let Some(slot) = self.words.get_mut(addr as usize / 4) else {
            return false;
        };
        let mut mask = 0u32;
        for lane in 0..4 {
            if byte_mask & (1 << lane) != 0 {
                mask |= 0xFF << (lane * 8);
            }
        }
        *slot = (*slot & !mask) | (data & mask);
        true
    }
}

/// Counters of ECC events observed by an [`EccRam`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Reads that decoded cleanly.
    pub clean: u64,
    /// Reads whose single-bit error was corrected.
    pub corrected: u64,
    /// Reads that hit an uncorrectable double error.
    pub double_errors: u64,
}

/// SECDED-protected word RAM. Every stored word is a 39-bit codeword;
/// reads decode (and correct) on the way out, mirroring the ECC wrapper a
/// lockstep SoC puts around its TCMs and caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccRam {
    codewords: Vec<u64>,
    stats: EccStats,
}

impl EccRam {
    /// Creates a zeroed ECC RAM of `bytes` capacity (rounded up to a word).
    pub fn new(bytes: usize) -> EccRam {
        let zero = SecDed::encode(0);
        EccRam { codewords: vec![zero; bytes.div_ceil(4)], stats: EccStats::default() }
    }

    /// Builds an ECC RAM from a little-endian byte image.
    pub fn from_bytes(image: &[u8]) -> EccRam {
        let mut ram = EccRam::new(image.len());
        ram.load_image(image);
        ram
    }

    /// Stores a little-endian byte image from address zero, a partial last
    /// word zero-padded, as full-strobe writes of each word would: words
    /// past the RAM's end are dropped and the ECC counters do not move.
    /// Each word is encoded once, and the codeword it replaces is not
    /// decoded, since a full-strobe write keeps none of it.
    pub(crate) fn load_image(&mut self, image: &[u8]) {
        let words = image.chunks_exact(4);
        let tail = words.remainder();
        let last = (!tail.is_empty()).then(|| {
            let mut b = [0u8; 4];
            b[..tail.len()].copy_from_slice(tail);
            b
        });
        let words = words.map(|w| [w[0], w[1], w[2], w[3]]).chain(last);
        for (slot, word) in self.codewords.iter_mut().zip(words) {
            *slot = SecDed::encode(u32::from_le_bytes(word));
        }
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.codewords.len() * 4
    }

    /// Reads and ECC-decodes the word containing byte address `addr`.
    ///
    /// Returns `None` if out of range; otherwise the corrected data and
    /// the decode status. A correction also scrubs the stored codeword.
    pub fn read_word(&mut self, addr: u32) -> Option<(u32, EccStatus)> {
        let idx = addr as usize / 4;
        let cw = *self.codewords.get(idx)?;
        let (data, status) = SecDed::decode(cw);
        match status {
            EccStatus::Clean => self.stats.clean += 1,
            EccStatus::Corrected(_) => {
                self.stats.corrected += 1;
                // Scrub: rewrite the clean codeword.
                self.codewords[idx] = SecDed::encode(data);
            }
            EccStatus::DoubleError => self.stats.double_errors += 1,
        }
        Some((data, status))
    }

    /// Reads and ECC-decodes the word containing byte address `addr`
    /// without side effects: no counter update, no scrub. Speculative
    /// readers (batched fault lanes sharing a golden image) use this so
    /// the owner's ECC bookkeeping stays exactly what its own reads
    /// produce.
    pub fn peek_word(&self, addr: u32) -> Option<(u32, EccStatus)> {
        let cw = *self.codewords.get(addr as usize / 4)?;
        Some(SecDed::decode(cw))
    }

    /// Writes bytes selected by `byte_mask` (read-modify-write on the
    /// decoded payload, then re-encode). Returns `false` if out of range.
    pub fn write_word_masked(&mut self, addr: u32, data: u32, byte_mask: u8) -> bool {
        let idx = addr as usize / 4;
        let Some(slot) = self.codewords.get_mut(idx) else {
            return false;
        };
        let (old, _) = SecDed::decode(*slot);
        let mut mask = 0u32;
        for lane in 0..4 {
            if byte_mask & (1 << lane) != 0 {
                mask |= 0xFF << (lane * 8);
            }
        }
        *slot = SecDed::encode((old & !mask) | (data & mask));
        true
    }

    /// Flips a raw codeword bit — simulates a particle strike in the
    /// memory array.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `bit >= 39`.
    pub fn inject_bit_error(&mut self, addr: u32, bit: u32) {
        let idx = addr as usize / 4;
        let cw = self.codewords[idx];
        self.codewords[idx] = SecDed::flip_bit(cw, bit);
    }

    /// ECC event counters.
    pub fn stats(&self) -> EccStats {
        self.stats
    }

    /// Overwrites this RAM with `src`'s contents, reusing the existing
    /// codeword buffer when the capacities match (no allocation).
    pub fn copy_from(&mut self, src: &EccRam) {
        self.codewords.clone_from(&src.codewords);
        self.stats = src.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ram_round_trip() {
        let mut ram = Ram::new(64);
        assert!(ram.write_word_masked(8, 0xDEAD_BEEF, 0xF));
        assert_eq!(ram.read_word(8), Some(0xDEAD_BEEF));
        assert_eq!(ram.read_word(10), Some(0xDEAD_BEEF), "word addressing ignores low bits");
    }

    #[test]
    fn plain_ram_byte_masks() {
        let mut ram = Ram::new(16);
        ram.write_word_masked(0, 0xAABB_CCDD, 0xF);
        ram.write_word_masked(0, 0x0000_0011, 0x1);
        assert_eq!(ram.read_word(0), Some(0xAABB_CC11));
        ram.write_word_masked(0, 0x2200_0000, 0x8);
        assert_eq!(ram.read_word(0), Some(0x22BB_CC11));
    }

    #[test]
    fn plain_ram_out_of_range() {
        let mut ram = Ram::new(16);
        assert_eq!(ram.read_word(16), None);
        assert!(!ram.write_word_masked(16, 0, 0xF));
    }

    #[test]
    fn ram_from_bytes_little_endian() {
        let ram = Ram::from_bytes(&[0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(ram.read_word(0), Some(0x0403_0201));
        assert_eq!(ram.read_word(4), Some(0x0000_0005));
    }

    #[test]
    fn ecc_ram_round_trip() {
        let mut ram = EccRam::new(64);
        ram.write_word_masked(4, 0x1357_9BDF, 0xF);
        assert_eq!(ram.read_word(4), Some((0x1357_9BDF, EccStatus::Clean)));
        assert_eq!(ram.stats().clean, 1);
    }

    #[test]
    fn ecc_ram_corrects_and_scrubs_single_error() {
        let mut ram = EccRam::new(64);
        ram.write_word_masked(0, 0xFACE_B00C, 0xF);
        ram.inject_bit_error(0, 7);
        let (data, status) = ram.read_word(0).unwrap();
        assert_eq!(data, 0xFACE_B00C);
        assert!(matches!(status, EccStatus::Corrected(_)));
        // Scrubbed: next read is clean.
        assert_eq!(ram.read_word(0), Some((0xFACE_B00C, EccStatus::Clean)));
        assert_eq!(ram.stats().corrected, 1);
    }

    #[test]
    fn ecc_ram_detects_double_error() {
        let mut ram = EccRam::new(64);
        ram.write_word_masked(0, 0x0F0F_0F0F, 0xF);
        ram.inject_bit_error(0, 3);
        ram.inject_bit_error(0, 21);
        let (_, status) = ram.read_word(0).unwrap();
        assert_eq!(status, EccStatus::DoubleError);
        assert_eq!(ram.stats().double_errors, 1);
    }

    #[test]
    fn ecc_ram_partial_write_preserves_other_lanes() {
        let mut ram = EccRam::new(16);
        ram.write_word_masked(0, 0x1122_3344, 0xF);
        ram.write_word_masked(0, 0x0000_AB00, 0x2);
        assert_eq!(ram.read_word(0).unwrap().0, 0x1122_AB44);
    }

    #[test]
    fn ecc_ram_from_bytes() {
        let ram0 = EccRam::from_bytes(&[0xEF, 0xBE, 0xAD, 0xDE]);
        let mut ram = ram0;
        assert_eq!(ram.read_word(0).unwrap().0, 0xDEAD_BEEF);
    }
}
