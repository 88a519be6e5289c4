//! Output digests: the byte-identity check behind `correct`.
//!
//! LR5 and LR7 have no hardware reference, so no accuracy error is
//! reported; a run is correct when its record stream and golden runs
//! hash to the reference digest.

use lockstep_core::ErrorRecord;
use lockstep_workloads::GoldenRun;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one kernel's golden run: cycles, output checksum, instret.
    fn golden(&mut self, name: &str, run: &GoldenRun) {
        self.bytes(
            format!("{name}:{}:{}:{}\n", run.cycles, run.output_checksum, run.instructions)
                .as_bytes(),
        );
    }

    /// Absorbs a record stream in order.
    fn records(&mut self, records: &[ErrorRecord]) {
        for r in records {
            self.bytes(serde_json::to_string(r).expect("records serialize").as_bytes());
            self.bytes(b"\n");
        }
    }

    /// The digest value.
    fn value(self) -> u64 {
        self.0
    }
}

/// One job's digest: its golden runs, then its record stream.
pub fn job<'a>(
    golden: impl IntoIterator<Item = (&'a str, &'a GoldenRun)>,
    records: &[ErrorRecord],
) -> u64 {
    let mut d = Digest::default();
    for (name, run) in golden {
        d.golden(name, run);
    }
    d.records(records);
    d.value()
}

/// A pass digest: its job digests in kernel order.
pub fn combine(jobs: &[u64]) -> u64 {
    let mut d = Digest::default();
    for job in jobs {
        d.bytes(&job.to_le_bytes());
    }
    d.value()
}
