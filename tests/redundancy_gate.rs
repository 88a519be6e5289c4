//! Tier-1 gate for the redundancy axis's coverage claim: on the
//! minimized witness program (`tests/repros/dme_addr_decoder_aliasing.asm`)
//! a planted address-decoder stuck-at is missed by the fixed
//! identical-lockstep run and detected by the diverse-memory run. The full kernel × decoder-line matrix lives in
//! `crates/eval/tests/dme_detection.rs`; this file is the fast PR-gate
//! subset the root `cargo test -q` always runs.

use lockstep::core::RedundancyMode;
use lockstep::cpu::{retire_effect_mask, Cpu};
use lockstep::eval::dme::run_decoder_stuck_at_on;
use lockstep::mem::{AddrStuckAt, Memory};
use lockstep::workloads::RAM_BYTES;

fn witness_image() -> Memory {
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/repros/dme_addr_decoder_aliasing.asm"),
    )
    .expect("witness repro exists");
    let program = lockstep::asm::assemble(&source).expect("witness assembles");
    let mut mem = Memory::new(RAM_BYTES, 3);
    mem.load_image(&program.to_bytes(RAM_BYTES));
    mem
}

#[test]
fn planted_decoder_stuck_at_zero_fixed_vs_full_dme_coverage() {
    let fault = AddrStuckAt { bit: 8, stuck_one: false };
    assert_eq!(
        run_decoder_stuck_at_on::<Cpu>(witness_image(), fault, RedundancyMode::Fixed, 10_000),
        None,
        "identical lockstep must share the decoder's lie"
    );

    let (cycle, dsr) =
        run_decoder_stuck_at_on::<Cpu>(witness_image(), fault, RedundancyMode::Dme, 10_000)
            .expect("dme must detect the planted decoder stuck-at");
    assert!(cycle < 10_000);
    assert_ne!(dsr.bits(), 0);
    assert_eq!(dsr.bits() & !retire_effect_mask(), 0, "DME divergences are architectural");
}
