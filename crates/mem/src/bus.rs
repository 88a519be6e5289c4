//! The system bus and memory map.
//!
//! | Region | Base | Behaviour |
//! |---|---|---|
//! | ECC RAM | `0x0000_0000` | code + data, SECDED-protected |
//! | Sensors | [`SENSOR_BASE`] | word channels of deterministic stimulus |
//! | Outputs | [`OUTPUT_BASE`] | write-capture for kernel results |
//!
//! The CPU core accesses memory exclusively through [`MemoryPort`], so the
//! lockstep harness (and tests) can interpose or replace the memory system.

use std::collections::BTreeMap;
use std::fmt;

use crate::ecc::EccStatus;
use crate::ram::{EccRam, EccStats};
use crate::stimulus::{SensorBlock, SENSOR_CHANNELS};

/// Base address of the sensor-stimulus block.
pub const SENSOR_BASE: u32 = 0xFFFF_0000;
/// Base address of the output-capture block.
pub const OUTPUT_BASE: u32 = 0xFFFF_8000;
/// Size of each MMIO block in bytes.
const MMIO_SIZE: u32 = (SENSOR_CHANNELS as u32) * 4;

/// A failed bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusFault {
    /// No device decodes this address.
    OutOfRange {
        /// The offending byte address.
        addr: u32,
    },
    /// ECC reported an uncorrectable double-bit error.
    Uncorrectable {
        /// The offending byte address.
        addr: u32,
    },
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusFault::OutOfRange { addr } => write!(f, "bus error at {addr:#010x}"),
            BusFault::Uncorrectable { addr } => {
                write!(f, "uncorrectable memory error at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for BusFault {}

/// The interface the CPU core uses for instruction fetch and data access.
///
/// Addresses are byte addresses; data transfers are whole words with byte
/// strobes (the LSU performs lane extraction/insertion).
pub trait MemoryPort {
    /// Fetches the instruction word at `addr` (word-aligned by the PFU).
    ///
    /// # Errors
    ///
    /// Returns a [`BusFault`] if the address does not decode or the ECC
    /// hit an uncorrectable error.
    fn fetch(&mut self, addr: u32) -> Result<u32, BusFault>;

    /// Reads the data word containing `addr`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryPort::fetch`].
    fn read(&mut self, addr: u32) -> Result<u32, BusFault>;

    /// Writes bytes of the word containing `addr` selected by `byte_mask`.
    ///
    /// # Errors
    ///
    /// As for [`MemoryPort::fetch`].
    fn write(&mut self, addr: u32, data: u32, byte_mask: u8) -> Result<(), BusFault>;
}

/// The full memory system: ECC RAM + sensor stimulus + output capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    ram: EccRam,
    sensors: SensorBlock,
    outputs: BTreeMap<u32, u32>,
    output_log: Vec<(u32, u32)>,
    output_checksum: u32,
}

impl Memory {
    /// Creates a memory system with `ram_bytes` of ECC RAM and sensor
    /// stimulus derived from `stimulus_seed`.
    pub fn new(ram_bytes: usize, stimulus_seed: u64) -> Memory {
        Memory {
            ram: EccRam::new(ram_bytes),
            sensors: SensorBlock::new(stimulus_seed),
            outputs: BTreeMap::new(),
            output_log: Vec::new(),
            output_checksum: 0,
        }
    }

    /// Loads a little-endian byte image at address zero, a partial last
    /// word zero-padded: what a full-strobe write of each word stores,
    /// with each word encoded once and the ECC counters left alone.
    pub fn load_image(&mut self, image: &[u8]) {
        self.ram.load_image(image);
    }

    /// The underlying ECC RAM (e.g. for error injection in examples).
    pub fn ram_mut(&mut self) -> &mut EccRam {
        &mut self.ram
    }

    /// Read-only view of the ECC RAM (e.g. for building the shifted
    /// image of [`crate::dme`]).
    pub fn ram(&self) -> &EccRam {
        &self.ram
    }

    /// RAM capacity in bytes — the boundary below which addresses
    /// decode to RAM (MMIO lives at the top of the address space).
    pub fn ram_bytes(&self) -> usize {
        self.ram.size_bytes()
    }

    /// ECC event counters.
    pub fn ecc_stats(&self) -> EccStats {
        self.ram.stats()
    }

    /// Every `(offset, value)` write captured by the output block, in
    /// program order.
    pub fn output_log(&self) -> &[(u32, u32)] {
        &self.output_log
    }

    /// Rolling checksum over the output log — the "golden output" used to
    /// check that a workload computed the right results.
    pub fn output_checksum(&self) -> u32 {
        self.output_checksum
    }

    /// Overwrites this memory system with `src`'s state, reusing the
    /// existing allocations where possible. Batched fault simulation
    /// forks thousands of short-lived memory images off one golden
    /// image; recycling retired images through this method instead of
    /// cloning fresh ones keeps the allocator out of the hot loop.
    pub fn copy_from(&mut self, src: &Memory) {
        self.ram.copy_from(&src.ram);
        self.sensors = src.sensors.clone();
        self.outputs.clone_from(&src.outputs);
        self.output_log.clone_from(&src.output_log);
        self.output_checksum = src.output_checksum;
    }

    /// Clears output capture and restarts sensor sequences (benchmark
    /// restart).
    pub fn reset_io(&mut self) {
        self.outputs.clear();
        self.output_log.clear();
        self.output_checksum = 0;
        self.sensors.reset();
    }

    fn ram_read(&mut self, addr: u32) -> Result<u32, BusFault> {
        match self.ram.read_word(addr) {
            Some((data, EccStatus::DoubleError)) => {
                let _ = data;
                Err(BusFault::Uncorrectable { addr })
            }
            Some((data, _)) => Ok(data),
            None => Err(BusFault::OutOfRange { addr }),
        }
    }

    /// Replays the side effects a speculative step recorded through a
    /// [`TrialView`] onto this memory. Calling this on a clone of the
    /// view's base image yields exactly the image a non-speculative
    /// step would have produced.
    pub fn apply_trial(&mut self, log: &TrialLog) {
        for &channel in &log.sensor_reads {
            let _ = self.sensors.read(channel);
        }
        for &(addr, data, byte_mask) in &log.writes {
            let _ = self.write(addr, data, byte_mask);
        }
    }
}

/// Side effects of one speculative CPU step made through a
/// [`TrialView`]: accepted writes and sensor-sequence advances, in
/// issue order. If the step turns out to matter (a batched fault lane
/// diverges), [`Memory::apply_trial`] replays the log onto a real
/// image; if not, the log is simply cleared and the base image was
/// never touched.
#[derive(Debug, Default)]
pub struct TrialLog {
    writes: Vec<(u32, u32, u8)>,
    sensor_reads: Vec<usize>,
}

impl TrialLog {
    /// An empty log ready for one speculative step.
    pub fn new() -> TrialLog {
        TrialLog::default()
    }

    /// Discards the recorded side effects, keeping the allocations for
    /// the next step.
    pub fn clear(&mut self) {
        self.writes.clear();
        self.sensor_reads.clear();
    }
}

/// A side-effect-free [`MemoryPort`] over a shared base image.
///
/// Reads observe exactly what the base [`Memory`] would return — same
/// data, same [`BusFault`]s — but mutate nothing: sensor sequences are
/// peeked, ECC counters and scrubs are skipped, and writes are buffered
/// into a [`TrialLog`] instead of being applied (reads within the same
/// step see the buffered bytes, preserving read-own-write ordering).
///
/// This is what makes *memoryless fault lanes* possible in the batched
/// simulation engine: while a faulty machine's port activity still
/// matches golden, its memory image is provably identical to the
/// golden one, so it can execute against the golden image through this
/// view and only fork a private copy at the moment it diverges.
#[derive(Debug)]
pub struct TrialView<'a> {
    base: &'a Memory,
    log: &'a mut TrialLog,
}

impl<'a> TrialView<'a> {
    /// Wraps `base` for one speculative step, recording into `log`
    /// (which the caller should [`TrialLog::clear`] between steps).
    pub fn new(base: &'a Memory, log: &'a mut TrialLog) -> TrialView<'a> {
        TrialView { base, log }
    }

    fn ram_peek(&self, addr: u32) -> Result<u32, BusFault> {
        let Some((mut data, status)) = self.base.ram.peek_word(addr) else {
            return Err(BusFault::OutOfRange { addr });
        };
        // Merge this step's buffered writes to the same word (oldest
        // first), exactly as the RAM's read-modify-write would have.
        let mut rewritten = false;
        for &(waddr, wdata, wmask) in &self.log.writes {
            if waddr < SENSOR_BASE && (waddr & !3) == (addr & !3) {
                let mask = byte_lane_mask(wmask);
                data = (data & !mask) | (wdata & mask);
                rewritten = true;
            }
        }
        // A buffered write would have re-encoded the codeword, clearing
        // any latent error; only a word we never wrote keeps its fault.
        if !rewritten && status == EccStatus::DoubleError {
            return Err(BusFault::Uncorrectable { addr });
        }
        Ok(data)
    }
}

/// Expands a byte strobe into a 32-bit merge mask.
fn byte_lane_mask(byte_mask: u8) -> u32 {
    let mut mask = 0u32;
    for lane in 0..4 {
        if byte_mask & (1 << lane) != 0 {
            mask |= 0xFF << (lane * 8);
        }
    }
    mask
}

impl MemoryPort for TrialView<'_> {
    fn fetch(&mut self, addr: u32) -> Result<u32, BusFault> {
        self.ram_peek(addr)
    }

    fn read(&mut self, addr: u32) -> Result<u32, BusFault> {
        if (SENSOR_BASE..SENSOR_BASE + MMIO_SIZE).contains(&addr) {
            let channel = ((addr - SENSOR_BASE) / 4) as usize;
            self.log.sensor_reads.push(channel);
            return Ok(self.base.sensors.peek(channel));
        }
        if (OUTPUT_BASE..OUTPUT_BASE + MMIO_SIZE).contains(&addr) {
            let offset = (addr - OUTPUT_BASE) & !3;
            // Buffered output writes shadow the base capture block.
            for &(waddr, wdata, _) in self.log.writes.iter().rev() {
                if (OUTPUT_BASE..OUTPUT_BASE + MMIO_SIZE).contains(&waddr)
                    && (waddr - OUTPUT_BASE) & !3 == offset
                {
                    return Ok(wdata);
                }
            }
            return Ok(self.base.outputs.get(&offset).copied().unwrap_or(0));
        }
        self.ram_peek(addr)
    }

    fn write(&mut self, addr: u32, data: u32, byte_mask: u8) -> Result<(), BusFault> {
        if (OUTPUT_BASE..OUTPUT_BASE + MMIO_SIZE).contains(&addr) {
            self.log.writes.push((addr, data, byte_mask));
            return Ok(());
        }
        if (SENSOR_BASE..SENSOR_BASE + MMIO_SIZE).contains(&addr) {
            // Ignored by the real bus too; nothing to buffer.
            return Ok(());
        }
        if (addr as usize / 4) < self.base.ram.size_bytes() / 4 {
            self.log.writes.push((addr, data, byte_mask));
            Ok(())
        } else {
            Err(BusFault::OutOfRange { addr })
        }
    }
}

impl MemoryPort for Memory {
    fn fetch(&mut self, addr: u32) -> Result<u32, BusFault> {
        self.ram_read(addr)
    }

    fn read(&mut self, addr: u32) -> Result<u32, BusFault> {
        if (SENSOR_BASE..SENSOR_BASE + MMIO_SIZE).contains(&addr) {
            let channel = ((addr - SENSOR_BASE) / 4) as usize;
            return Ok(self.sensors.read(channel));
        }
        if (OUTPUT_BASE..OUTPUT_BASE + MMIO_SIZE).contains(&addr) {
            let offset = (addr - OUTPUT_BASE) & !3;
            return Ok(self.outputs.get(&offset).copied().unwrap_or(0));
        }
        self.ram_read(addr)
    }

    fn write(&mut self, addr: u32, data: u32, byte_mask: u8) -> Result<(), BusFault> {
        if (OUTPUT_BASE..OUTPUT_BASE + MMIO_SIZE).contains(&addr) {
            let offset = (addr - OUTPUT_BASE) & !3;
            self.outputs.insert(offset, data);
            self.output_log.push((offset, data));
            self.output_checksum =
                self.output_checksum.rotate_left(5) ^ data ^ offset.wrapping_mul(0x9E37);
            return Ok(());
        }
        if (SENSOR_BASE..SENSOR_BASE + MMIO_SIZE).contains(&addr) {
            // Sensor block is read-only; writes are ignored (like real
            // input peripherals latching externally driven values).
            return Ok(());
        }
        if self.ram.write_word_masked(addr, data, byte_mask) {
            Ok(())
        } else {
            Err(BusFault::OutOfRange { addr })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loading an image stores what full-strobe writes of each word
    /// store: a partial last word zero-padded, the words past the RAM's
    /// end dropped, and the ECC counters left at zero.
    #[test]
    fn load_image_stores_what_full_strobe_writes_store() {
        let image: Vec<u8> = (0..70u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
        for ram_bytes in [16, 64, 72, 256] {
            let mut loaded = Memory::new(ram_bytes, 3);
            loaded.write(8, 0xDEAD_BEEF, 0xF).unwrap();
            loaded.load_image(&image);
            let mut written = Memory::new(ram_bytes, 3);
            written.write(8, 0xDEAD_BEEF, 0xF).unwrap();
            for (i, chunk) in image.chunks(4).enumerate() {
                let mut b = [0u8; 4];
                b[..chunk.len()].copy_from_slice(chunk);
                written.ram_mut().write_word_masked(i as u32 * 4, u32::from_le_bytes(b), 0xF);
            }
            for addr in (0..ram_bytes as u32).step_by(4) {
                assert_eq!(loaded.ram().peek_word(addr), written.ram().peek_word(addr), "{addr}");
            }
            let last = u32::from_le_bytes([image[68], image[69], 0, 0]);
            assert_eq!(
                loaded.ram().peek_word(68).map(|(w, _)| w),
                (ram_bytes > 68).then_some(last)
            );
            assert_eq!(loaded.ecc_stats(), EccStats::default());
        }
    }

    #[test]
    fn ram_read_write_through_port() {
        let mut m = Memory::new(256, 0);
        m.write(16, 0x5555_AAAA, 0xF).unwrap();
        assert_eq!(m.read(16), Ok(0x5555_AAAA));
        assert_eq!(m.fetch(16), Ok(0x5555_AAAA));
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = Memory::new(64, 0);
        assert_eq!(m.read(0x1000), Err(BusFault::OutOfRange { addr: 0x1000 }));
        assert_eq!(m.write(0x1000, 1, 0xF), Err(BusFault::OutOfRange { addr: 0x1000 }));
        assert_eq!(m.fetch(0x1000), Err(BusFault::OutOfRange { addr: 0x1000 }));
    }

    #[test]
    fn sensors_served_and_sequenced() {
        let mut m = Memory::new(64, 42);
        let a = m.read(SENSOR_BASE).unwrap();
        let b = m.read(SENSOR_BASE).unwrap();
        assert_ne!(a, b);
        // Write to sensor region ignored.
        m.write(SENSOR_BASE, 0xFFFF_FFFF, 0xF).unwrap();
    }

    #[test]
    fn outputs_captured_with_checksum() {
        let mut m = Memory::new(64, 0);
        m.write(OUTPUT_BASE, 7, 0xF).unwrap();
        m.write(OUTPUT_BASE + 4, 9, 0xF).unwrap();
        assert_eq!(m.output_log(), &[(0, 7), (4, 9)]);
        assert_ne!(m.output_checksum(), 0);
        assert_eq!(m.read(OUTPUT_BASE + 4), Ok(9));
        assert_eq!(m.read(OUTPUT_BASE + 8), Ok(0));
    }

    #[test]
    fn output_checksum_order_sensitive() {
        let mut a = Memory::new(64, 0);
        a.write(OUTPUT_BASE, 1, 0xF).unwrap();
        a.write(OUTPUT_BASE, 2, 0xF).unwrap();
        let mut b = Memory::new(64, 0);
        b.write(OUTPUT_BASE, 2, 0xF).unwrap();
        b.write(OUTPUT_BASE, 1, 0xF).unwrap();
        assert_ne!(a.output_checksum(), b.output_checksum());
    }

    #[test]
    fn uncorrectable_error_becomes_bus_fault() {
        let mut m = Memory::new(64, 0);
        m.write(0, 0x1234_5678, 0xF).unwrap();
        m.ram_mut().inject_bit_error(0, 1);
        m.ram_mut().inject_bit_error(0, 2);
        assert_eq!(m.read(0), Err(BusFault::Uncorrectable { addr: 0 }));
    }

    #[test]
    fn single_bit_memory_error_invisible_to_cpu() {
        // The lockstep paper's premise: memory faults are ECC's job.
        let mut m = Memory::new(64, 0);
        m.write(0, 0xDEAD_BEEF, 0xF).unwrap();
        m.ram_mut().inject_bit_error(0, 17);
        assert_eq!(m.read(0), Ok(0xDEAD_BEEF));
        assert_eq!(m.ecc_stats().corrected, 1);
    }

    #[test]
    fn reset_io_restarts_streams() {
        let mut m = Memory::new(64, 5);
        let first = m.read(SENSOR_BASE).unwrap();
        m.write(OUTPUT_BASE, 3, 0xF).unwrap();
        m.reset_io();
        assert_eq!(m.read(SENSOR_BASE), Ok(first));
        assert!(m.output_log().is_empty());
        assert_eq!(m.output_checksum(), 0);
    }

    #[test]
    fn trial_view_observes_without_mutating() {
        let mut base = Memory::new(256, 7);
        base.write(0, 0x1111_2222, 0xF).unwrap();
        let snapshot = format!("{base:?}");
        let mut log = TrialLog::new();
        let mut view = TrialView::new(&base, &mut log);
        // Reads match the base exactly.
        assert_eq!(view.read(0), Ok(0x1111_2222));
        assert_eq!(view.fetch(0), Ok(0x1111_2222));
        let s = view.read(SENSOR_BASE + 8).unwrap();
        // Writes are buffered and visible to later reads in the step.
        view.write(4, 0xAABB_CCDD, 0xF).unwrap();
        assert_eq!(view.read(4), Ok(0xAABB_CCDD));
        view.write(4, 0x0000_0011, 0x1).unwrap();
        assert_eq!(view.read(4), Ok(0xAABB_CC11));
        view.write(OUTPUT_BASE, 99, 0xF).unwrap();
        assert_eq!(view.read(OUTPUT_BASE), Ok(99));
        // Faults decode like the base.
        assert_eq!(view.read(0x1000), Err(BusFault::OutOfRange { addr: 0x1000 }));
        assert_eq!(view.write(0x1000, 0, 0xF), Err(BusFault::OutOfRange { addr: 0x1000 }));
        // The base image was never touched.
        assert_eq!(format!("{base:?}"), snapshot);
        // The same sensor value is served by a real read afterwards.
        assert_eq!(base.read(SENSOR_BASE + 8), Ok(s));
    }

    #[test]
    fn apply_trial_matches_direct_execution() {
        let mk = || {
            let mut m = Memory::new(256, 3);
            m.write(8, 0xDEAD_0000, 0xF).unwrap();
            m
        };
        // Direct: one "step" of activity against a real memory.
        let mut direct = mk();
        let _ = direct.read(SENSOR_BASE + 4).unwrap();
        let _ = direct.read(SENSOR_BASE + 4).unwrap();
        direct.write(8, 0x0000_BEEF, 0x3).unwrap();
        direct.write(OUTPUT_BASE + 12, 41, 0xF).unwrap();
        direct.write(OUTPUT_BASE + 12, 42, 0xF).unwrap();
        // Speculative: same activity through a view, then replayed.
        let base = mk();
        let mut log = TrialLog::new();
        let mut view = TrialView::new(&base, &mut log);
        let _ = view.read(SENSOR_BASE + 4).unwrap();
        let _ = view.read(SENSOR_BASE + 4).unwrap();
        view.write(8, 0x0000_BEEF, 0x3).unwrap();
        view.write(OUTPUT_BASE + 12, 41, 0xF).unwrap();
        view.write(OUTPUT_BASE + 12, 42, 0xF).unwrap();
        let mut replayed = mk();
        replayed.apply_trial(&log);
        assert_eq!(replayed.read(8), Ok(0xDEAD_BEEF));
        assert_eq!(direct.read(8), Ok(0xDEAD_BEEF));
        assert_eq!(replayed.output_log(), direct.output_log());
        assert_eq!(replayed.output_checksum(), direct.output_checksum());
        assert_eq!(replayed.sensors.reads(1), direct.sensors.reads(1));
        assert_eq!(format!("{replayed:?}"), format!("{direct:?}"));
    }

    #[test]
    fn load_image_places_words() {
        let mut m = Memory::new(64, 0);
        m.load_image(&[0xEF, 0xBE, 0xAD, 0xDE, 0x0D, 0xF0]);
        assert_eq!(m.read(0), Ok(0xDEAD_BEEF));
        assert_eq!(m.read(4), Ok(0x0000_F00D));
    }
}
