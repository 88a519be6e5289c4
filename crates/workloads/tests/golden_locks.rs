//! Golden-run locks: cycle counts, output checksums and instruction
//! counts of every kernel at a fixed stimulus seed, on both cores, plus
//! a digest of every port bit each golden run drives.
//!
//! These pins catch *any* behavioural change anywhere in the stack — a
//! pipeline timing tweak, an assembler encoding change, a stimulus
//! generator edit — the moment it lands. If a change is intentional
//! (e.g. a microarchitectural improvement), regenerate the table and
//! say so in the commit; golden traces and recorded campaign archives
//! from before the change are no longer comparable.

use lockstep_cpu::{CoreModel, Cpu, Lr7, Sc};
use lockstep_workloads::Workload;

const SEED: u64 = 0xA5;

/// (kernel, golden cycles, output checksum, retired instructions).
// Regenerated when the held-ID-latch write-through fix landed in the
// pipeline: differential fuzzing against the reference ISS showed that
// an instruction stalled in ID behind a two-cycle MMIO load could issue
// with a stale source operand (tests/repros/ has the minimized case).
// Cycle and instruction counts were unaffected — the fix adds no
// stalls — but four kernels' output values were architecturally wrong
// before it, so their checksums moved.
const LOCKS: &[(&str, u64, u32, u64)] = &[
    ("ttsprk", 5850, 0x06ae38f5, 1928),
    ("rspeed", 3070, 0x29c28cd3, 668),
    ("a2time", 4978, 0x92213b69, 986),
    ("canrdr", 14093, 0x4318ed35, 9415),
    ("tblook", 4271, 0x664db419, 2682),
    ("pntrch", 7562, 0x3abf7152, 4869),
    ("matrix", 29336, 0xa19c2400, 20262),
    ("aifirf", 10883, 0x3d4415eb, 5724),
    ("iirflt", 2680, 0xbfa48d81, 1286),
    ("bitmnp", 11960, 0xab604324, 8394),
    ("idctrn", 2408, 0x0274a54a, 1110),
    ("puwmod", 16276, 0x69898d19, 8504),
];

/// Checks every kernel's golden run on core `C` against `locks`.
fn check_golden_locks<C: CoreModel>(locks: &[(&str, u64, u32, u64)]) {
    let core = C::NAME;
    assert_eq!(locks.len(), Workload::all().len(), "{core} lock table out of date");
    for &(name, cycles, checksum, instructions) in locks {
        let w = Workload::find(name).unwrap_or_else(|| panic!("kernel {name} missing"));
        let g = w.golden_run_for::<C>(SEED, 400_000);
        assert!(g.halted, "{name} did not halt on {core}");
        assert_eq!(g.cycles, cycles, "{name}: {core} cycle count drifted");
        assert_eq!(g.output_checksum, checksum, "{name}: {core} outputs changed");
        assert_eq!(g.instructions, instructions, "{name}: {core} instruction count drifted");
    }
}

#[test]
fn every_kernel_matches_its_golden_lock() {
    check_golden_locks::<Cpu>(LOCKS);
}

#[test]
fn locks_are_seed_sensitive() {
    // Sanity: the pins actually depend on the stimulus.
    let w = Workload::find("rspeed").unwrap();
    let other = w.golden_run(SEED + 1, 400_000);
    assert_ne!(other.output_checksum, 0x29c28cd3);
}

/// LR7 (kernel, golden cycles, output checksum, retired instructions).
/// Outputs and instruction counts equal LR5's; only timing differs.
const LR7_LOCKS: &[(&str, u64, u32, u64)] = &[
    ("ttsprk", 5377, 0x06ae38f5, 1928),
    ("rspeed", 2777, 0x29c28cd3, 668),
    ("a2time", 4496, 0x92213b69, 986),
    ("canrdr", 10660, 0x4318ed35, 9415),
    ("tblook", 2987, 0x664db419, 2682),
    ("pntrch", 6023, 0x3abf7152, 4869),
    ("matrix", 24949, 0xa19c2400, 20262),
    ("aifirf", 8915, 0x3d4415eb, 5724),
    ("iirflt", 2338, 0xbfa48d81, 1286),
    ("bitmnp", 8623, 0xab604324, 8394),
    ("idctrn", 1984, 0x0274a54a, 1110),
    ("puwmod", 11677, 0x69898d19, 8504),
];

#[test]
fn every_kernel_matches_its_lr7_golden_lock() {
    check_golden_locks::<Lr7>(LR7_LOCKS);
}

/// 64-bit FNV-1a over every golden cycle's 62 SC values, each read
/// through `PortSet::get` and folded as four little-endian bytes, in
/// cycle order and then SC index order.
fn port_stream_digest<C: CoreModel>(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ports in w.golden_trace_for::<C>(SEED, 400_000).iter() {
        for &sc in Sc::ALL {
            for byte in ports.get(sc).to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// (kernel, LR5 port-stream digest, LR7 port-stream digest).
///
/// Record-level pins only see a port bit once it reaches a divergence
/// record; these see every bit of every cycle, so a simulator
/// optimisation that claims to leave the ports alone must leave them.
const PORT_LOCKS: &[(&str, u64, u64)] = &[
    ("ttsprk", 0xe0770504c4f6e00b, 0x6c4c557fb3c214fb),
    ("rspeed", 0xa7b7442eafda5662, 0xabc531f14a94e36b),
    ("a2time", 0x2bf8e53c2edcce9d, 0x36e70e951ed4a5b5),
    ("canrdr", 0x52923077d60c76bc, 0x0de49a77f952ebea),
    ("tblook", 0x384039c283f98857, 0x2f3722e257da3cf5),
    ("pntrch", 0x9a1a4c2a240e9670, 0x939c7df54a2f98c8),
    ("matrix", 0x3db3360e7269ad7d, 0x78b18655497327e8),
    ("aifirf", 0x72a9b3314e4e48d2, 0xc692c12ea95414bf),
    ("iirflt", 0x3009e4eeff0152d3, 0x5c0f0368cd7aeef9),
    ("bitmnp", 0x1e5d8c288e7badc7, 0x4d50ae102ffe9e50),
    ("idctrn", 0x14ea1dcea53ab0f4, 0xab6e23a28d9a6e49),
    ("puwmod", 0x830a98c285926e11, 0xa2609251c32de07b),
];

#[test]
fn every_kernel_matches_its_port_stream_lock() {
    assert_eq!(PORT_LOCKS.len(), Workload::all().len(), "port lock table out of date");
    for &(name, lr5, lr7) in PORT_LOCKS {
        let w = Workload::find(name).unwrap_or_else(|| panic!("kernel {name} missing"));
        assert_eq!(port_stream_digest::<Cpu>(w), lr5, "{name}: LR5 port stream changed");
        assert_eq!(port_stream_digest::<Lr7>(w), lr7, "{name}: LR7 port stream changed");
    }
}
