//! SECDED Hamming(39,32) codec.
//!
//! Each 32-bit data word is stored as a 39-bit codeword: 32 data bits, six
//! Hamming parity bits and one overall parity bit. Single-bit upsets are
//! corrected, double-bit upsets are detected — the standard protection for
//! memories outside a lockstep sphere of replication.

/// Number of Hamming parity bits.
const PARITY_BITS: u32 = 6;
/// Total codeword width in bits (32 data + 6 parity + 1 overall).
pub const CODEWORD_BITS: u32 = 39;

/// Outcome of decoding a codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccStatus {
    /// The codeword was clean.
    Clean,
    /// A single-bit error was corrected (bit index within the codeword).
    Corrected(u32),
    /// An uncorrectable double-bit error was detected.
    DoubleError,
}

impl EccStatus {
    /// `true` if decoded data is trustworthy (clean or corrected).
    pub fn is_usable(self) -> bool {
        !matches!(self, EccStatus::DoubleError)
    }
}

/// The SECDED codec. Stateless; methods are associated functions grouped
/// in a type for discoverability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecDed;

/// Per-parity-bit data masks, precomputed from [`hamming_position`] so
/// encode/decode run on popcounts instead of per-bit loops (this is the
/// simulator's hottest path — every instruction fetch decodes a word).
const PARITY_MASKS: [u32; PARITY_BITS as usize] = build_parity_masks();

const fn build_parity_masks() -> [u32; PARITY_BITS as usize] {
    let mut masks = [0u32; PARITY_BITS as usize];
    let mut bit = 0;
    while bit < 32 {
        let pos = hamming_position_const(bit);
        let mut p = 0;
        while p < PARITY_BITS {
            if pos & (1 << p) != 0 {
                masks[p as usize] |= 1 << bit;
            }
            p += 1;
        }
        bit += 1;
    }
    masks
}

const fn hamming_position_const(bit: u32) -> u32 {
    let mut pos = 2;
    let mut remaining = bit;
    loop {
        pos += 1;
        if pos & (pos - 1) == 0 {
            continue;
        }
        if remaining == 0 {
            return pos;
        }
        remaining -= 1;
    }
}

/// The seven check bits of a data word (codeword bits `[38:32]`), one
/// parity count per bit: the definition [`CHECK_BITS_BY_BYTE`] is built
/// from.
const fn check_bits(data: u32) -> u8 {
    let mut parity = 0u64;
    let mut p = 0;
    while p < PARITY_BITS as usize {
        parity |= (((data & PARITY_MASKS[p]).count_ones() & 1) as u64) << p;
        p += 1;
    }
    let body = data as u64 | parity << 32;
    (parity | ((body.count_ones() & 1) as u64) << 6) as u8
}

/// The check bits of each byte value in each of a word's four byte
/// lanes. Every check bit is an XOR of data bits (the overall parity
/// too, since the Hamming bits are), so a word's check bits are the XOR
/// of its four bytes' entries: four loads instead of seven parity counts,
/// which without a population-count instruction cost about 13 ns a word
/// on a 2-vCPU x86-64 host.
const CHECK_BITS_BY_BYTE: [[u8; 256]; 4] = {
    let mut table = [[0u8; 256]; 4];
    let mut lane = 0;
    while lane < 4 {
        let mut byte = 0;
        while byte < 256 {
            table[lane][byte] = check_bits((byte as u32) << (8 * lane));
            byte += 1;
        }
        lane += 1;
    }
    table
};

impl SecDed {
    /// Encodes a 32-bit word into a 39-bit codeword (in the low bits of
    /// the returned `u64`).
    ///
    /// Layout: bits `[31:0]` data, `[37:32]` Hamming parity, `[38]`
    /// overall parity.
    pub fn encode(data: u32) -> u64 {
        let [b0, b1, b2, b3] = data.to_le_bytes();
        let t = &CHECK_BITS_BY_BYTE;
        let check = t[0][usize::from(b0)]
            ^ t[1][usize::from(b1)]
            ^ t[2][usize::from(b2)]
            ^ t[3][usize::from(b3)];
        u64::from(data) | u64::from(check) << 32
    }

    /// Decodes a 39-bit codeword, correcting a single-bit error if present.
    ///
    /// Returns the (possibly corrected) data word and the [`EccStatus`].
    /// On [`EccStatus::DoubleError`] the returned data is the raw,
    /// untrusted payload.
    pub fn decode(codeword: u64) -> (u32, EccStatus) {
        let data = codeword as u32;
        let stored_parity = ((codeword >> 32) & 0x3F) as u32;
        let stored_overall = ((codeword >> 38) & 1) as u32;

        let mut syndrome = 0u32;
        for (p, mask) in PARITY_MASKS.iter().enumerate() {
            let acc = (stored_parity >> p & 1) ^ ((data & mask).count_ones() & 1);
            syndrome |= acc << p;
        }
        let body = codeword & ((1u64 << 38) - 1);
        let overall_calc = body.count_ones() & 1;
        let overall_error = overall_calc != stored_overall;

        match (syndrome, overall_error) {
            (0, false) => (data, EccStatus::Clean),
            (0, true) => {
                // The overall parity bit itself flipped.
                (data, EccStatus::Corrected(38))
            }
            (s, true) => {
                // Single error at the position named by the syndrome.
                if let Some(bit) = data_bit_for_position(s) {
                    (data ^ (1 << bit), EccStatus::Corrected(bit))
                } else if (s as u64) <= 0x3F && s.count_ones() == 1 {
                    // A parity bit flipped; data is intact.
                    let pbit = 32 + s.trailing_zeros();
                    (data, EccStatus::Corrected(pbit))
                } else {
                    (data, EccStatus::DoubleError)
                }
            }
            (_, false) => (data, EccStatus::DoubleError),
        }
    }

    /// Flips `bit` (0–38) of a codeword — the error-injection hook used to
    /// demonstrate that memory faults are handled by ECC, not by the
    /// lockstep checker.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 39`.
    pub fn flip_bit(codeword: u64, bit: u32) -> u64 {
        assert!(bit < CODEWORD_BITS, "codeword bit {bit} out of range");
        codeword ^ (1u64 << bit)
    }
}

/// Maps data bit `bit` (0–31) to its Hamming position: the positions that
/// are not powers of two, in order, starting from 3.
#[cfg(test)]
fn hamming_position(bit: u32) -> u32 {
    // Positions 3,5,6,7,9,...: skip 1,2,4,8,16,32.
    let mut pos = 2;
    let mut remaining = bit;
    loop {
        pos += 1;
        if pos & (pos - 1) == 0 {
            continue; // power of two -> parity position
        }
        if remaining == 0 {
            return pos;
        }
        remaining -= 1;
    }
}

/// Inverse of [`hamming_position`]: syndrome position back to data bit.
fn data_bit_for_position(pos: u32) -> Option<u32> {
    if pos == 0 || pos & (pos - 1) == 0 {
        return None;
    }
    let mut bit = 0;
    let mut p = 2;
    loop {
        p += 1;
        if p & (p - 1) == 0 {
            continue;
        }
        if p == pos {
            return Some(bit);
        }
        bit += 1;
        if bit >= 32 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte tables give every word the check bits their definition
    /// gives: each single-bit and each single-byte word, and a sweep of
    /// scrambled ones.
    #[test]
    fn encode_matches_the_check_bit_definition() {
        let singles = (0..32).map(|b| 1u32 << b);
        let bytes = (0..4).flat_map(|lane| (0..256u32).map(move |v| v << (8 * lane)));
        let mut x = 0x9E37_79B9u32;
        let scrambled = (0..100_000).map(move |_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        });
        for data in singles.chain(bytes).chain(scrambled).chain([0, u32::MAX]) {
            let expected = u64::from(data) | u64::from(check_bits(data)) << 32;
            assert_eq!(SecDed::encode(data), expected, "{data:#010x}");
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [0u32, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x5555_5555, 0xAAAA_AAAA] {
            let cw = SecDed::encode(data);
            assert_eq!(SecDed::decode(cw), (data, EccStatus::Clean));
        }
    }

    #[test]
    fn every_single_bit_error_corrected() {
        let data = 0xCAFE_F00D;
        let cw = SecDed::encode(data);
        for bit in 0..CODEWORD_BITS {
            let corrupted = SecDed::flip_bit(cw, bit);
            let (decoded, status) = SecDed::decode(corrupted);
            assert_eq!(decoded, data, "data bit {bit} not corrected");
            assert!(
                matches!(status, EccStatus::Corrected(_)),
                "bit {bit}: unexpected status {status:?}"
            );
        }
    }

    #[test]
    fn every_double_bit_error_detected() {
        let data = 0x1234_5678;
        let cw = SecDed::encode(data);
        for b1 in 0..CODEWORD_BITS {
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let corrupted = SecDed::flip_bit(SecDed::flip_bit(cw, b1), b2);
                let (_, status) = SecDed::decode(corrupted);
                assert_eq!(status, EccStatus::DoubleError, "double error {b1},{b2} not detected");
            }
        }
    }

    #[test]
    fn status_usability() {
        assert!(EccStatus::Clean.is_usable());
        assert!(EccStatus::Corrected(3).is_usable());
        assert!(!EccStatus::DoubleError.is_usable());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bit_out_of_range_panics() {
        SecDed::flip_bit(0, 39);
    }

    #[test]
    fn hamming_positions_unique() {
        let mut seen = std::collections::HashSet::new();
        for bit in 0..32 {
            let pos = hamming_position(bit);
            assert!(pos & (pos - 1) != 0, "data in parity slot");
            assert!(seen.insert(pos));
            assert_eq!(data_bit_for_position(pos), Some(bit));
        }
    }
}
