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

/// Per-parity-bit data masks, precomputed from [`hamming_position`]: the
/// data bits each Hamming parity bit covers, from which [`check_bits`]
/// defines the check bits.
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

/// The check bits of `data` through [`CHECK_BITS_BY_BYTE`]: the XOR of
/// its four bytes' entries.
fn table_check_bits(data: u32) -> u8 {
    let [b0, b1, b2, b3] = data.to_le_bytes();
    let t = &CHECK_BITS_BY_BYTE;
    t[0][usize::from(b0)] ^ t[1][usize::from(b1)] ^ t[2][usize::from(b2)] ^ t[3][usize::from(b3)]
}

impl SecDed {
    /// Encodes a 32-bit word into a 39-bit codeword (in the low bits of
    /// the returned `u64`).
    ///
    /// Layout: bits `[31:0]` data, `[37:32]` Hamming parity, `[38]`
    /// overall parity.
    pub fn encode(data: u32) -> u64 {
        u64::from(data) | u64::from(table_check_bits(data)) << 32
    }

    /// Decodes a 39-bit codeword, correcting a single-bit error if present.
    /// Bits above 38 are ignored.
    ///
    /// Returns the (possibly corrected) data word and the [`EccStatus`].
    /// On [`EccStatus::DoubleError`] the returned data is the raw,
    /// untrusted payload.
    ///
    /// The stored check bits XOR the data's own (four lookups in per-byte
    /// tables) give the error: zero for a clean word, the common case,
    /// which costs one compare more. This runs on every fetch and load
    /// the simulator makes.
    pub fn decode(codeword: u64) -> (u32, EccStatus) {
        let data = codeword as u32;
        let error = (codeword >> 32) as u8 & 0x7F ^ table_check_bits(data);
        if error == 0 {
            return (data, EccStatus::Clean);
        }
        decode_error(data, error)
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

/// The error path of [`SecDed::decode`]: `error` is the stored check
/// bits XOR those of `data`. Its low six bits are the syndrome, the
/// Hamming position of a single flipped bit, and its parity says whether
/// the overall parity disagrees: each Hamming bit enters the overall
/// parity once, so the stored overall bit's disagreement with the stored
/// codeword is that of the check bits with the data's, and the syndrome's
/// parity.
#[cold]
fn decode_error(data: u32, error: u8) -> (u32, EccStatus) {
    let syndrome = u32::from(error & 0x3F);
    let overall_error = error.count_ones() & 1 == 1;
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
            } else if s.count_ones() == 1 {
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

    /// The decode as first defined, seven parity counts a call: the
    /// reference the table decode is held to.
    fn reference_decode(codeword: u64) -> (u32, EccStatus) {
        let data = codeword as u32;
        let stored_parity = ((codeword >> 32) & 0x3F) as u32;
        let stored_overall = ((codeword >> 38) & 1) as u32;
        let mut syndrome = 0u32;
        for (p, mask) in PARITY_MASKS.iter().enumerate() {
            let acc = (stored_parity >> p & 1) ^ ((data & mask).count_ones() & 1);
            syndrome |= acc << p;
        }
        let body = codeword & ((1u64 << 38) - 1);
        let overall_error = body.count_ones() & 1 != stored_overall;
        match (syndrome, overall_error) {
            (0, false) => (data, EccStatus::Clean),
            (0, true) => (data, EccStatus::Corrected(38)),
            (s, true) => {
                if let Some(bit) = data_bit_for_position(s) {
                    (data ^ (1 << bit), EccStatus::Corrected(bit))
                } else if s.count_ones() == 1 {
                    (data, EccStatus::Corrected(32 + s.trailing_zeros()))
                } else {
                    (data, EccStatus::DoubleError)
                }
            }
            (_, false) => (data, EccStatus::DoubleError),
        }
    }

    /// The table decode gives what the reference decode gives: every
    /// clean codeword, single- and double-bit error of a sample of words,
    /// and a million random 64-bit codewords, bits above 38 included.
    #[test]
    fn decode_matches_the_reference_decode() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let sampled = (0..200).map(|_| next() as u32);
        for data in sampled.chain([0, u32::MAX, 0xCAFE_F00D, 0x1234_5678]) {
            let cw = SecDed::encode(data);
            assert_eq!(SecDed::decode(cw), reference_decode(cw), "{cw:#x}");
            for b1 in 0..CODEWORD_BITS {
                let one = SecDed::flip_bit(cw, b1);
                assert_eq!(SecDed::decode(one), reference_decode(one), "{cw:#x} bit {b1}");
                for b2 in b1 + 1..CODEWORD_BITS {
                    let two = SecDed::flip_bit(one, b2);
                    assert_eq!(SecDed::decode(two), reference_decode(two), "{cw:#x} {b1},{b2}");
                }
            }
        }
        for _ in 0..1_000_000 {
            let cw = next();
            assert_eq!(SecDed::decode(cw), reference_decode(cw), "{cw:#x}");
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
