//! The redundancy axis's headline coverage claim, pinned as a tier-1
//! regression: an **address-decoder stuck-at** — a fault in the RAM
//! word decoder both lockstep copies share — is *provably invisible* to
//! fixed identical lockstep (both copies read the same wrong word, so
//! all 62 SC ports agree cycle-for-cycle), while diverse-memory
//! execution detects it (the same physical line lands on different
//! virtual words in the two copies, and the retired-effect comparator
//! reports the divergence).
//!
//! The minimized witness program lives in
//! `tests/repros/dme_addr_decoder_aliasing.asm` (also replayed
//! fault-free by `tests/repro_replay.rs` like every repro).
//!
//! The two lemmas that let campaigns run DME on the shared engines
//! (DESIGN.md §13) are pinned here too: the shifted image is a pure
//! relabelling of a clean one, and the retire comparator detects only
//! what the port comparator detects.

use lockstep_core::RedundancyMode;
use lockstep_cpu::{retire_effect_mask, CoreModel, Cpu, Lr7, PortSet};
use lockstep_eval::campaign::{run_injection, Reference, ReplayStart};
use lockstep_eval::dme::{retire_stream, run_decoder_stuck_at_for, run_decoder_stuck_at_on};
use lockstep_fault::{CampaignPlan, PlanConfig};
use lockstep_mem::{shift_image, AddrStuckAt, DmePort, Memory, DEFAULT_DME_OFFSET_WORDS};
use lockstep_workloads::{Workload, DEFAULT_CHECKPOINT_INTERVAL, RAM_BYTES};

/// The planted fault matrix: kernels with distinct memory footprints ×
/// decoder lines the kernels' fetch and data streams actually drive
/// (word-index bits 2/4/10 — lines whose aliasing lands on
/// distinct-valued cells in every kernel image). Every combination must
/// manifest under DME within the cycle budget — a masked entry would
/// silently weaken the claim to "sometimes detects". Lines whose
/// aliasing throws both copies into the same early halt (e.g. bit 8 on
/// several kernels) are out of the comparator's scope by design: a hung
/// pair is the watchdog's case, not the checker's.
const KERNELS: [&str; 3] = ["rspeed", "idctrn", "matrix"];
const STUCK_BITS: [u32; 3] = [2, 4, 10];
const MAX_CYCLES: u64 = 400_000;

#[test]
fn fixed_lockstep_misses_every_planted_decoder_stuck_at() {
    for name in KERNELS {
        let w = Workload::find(name).unwrap();
        for bit in STUCK_BITS {
            for stuck_one in [false, true] {
                let fault = AddrStuckAt { bit, stuck_one };
                let hit =
                    run_decoder_stuck_at_for::<Cpu>(w, 3, fault, RedundancyMode::Fixed, MAX_CYCLES);
                assert_eq!(
                    hit, None,
                    "fixed lockstep must not see shared decoder fault {fault:?} on {name}"
                );
            }
        }
    }
}

#[test]
fn dme_detects_every_planted_decoder_stuck_at() {
    let mut detected = 0u32;
    let mut total = 0u32;
    for name in KERNELS {
        let w = Workload::find(name).unwrap();
        for bit in STUCK_BITS {
            let fault = AddrStuckAt { bit, stuck_one: false };
            total += 1;
            let hit = run_decoder_stuck_at_for::<Cpu>(w, 3, fault, RedundancyMode::Dme, MAX_CYCLES);
            let (cycle, dsr) =
                hit.unwrap_or_else(|| panic!("dme must detect decoder fault {fault:?} on {name}"));
            detected += 1;
            assert!(cycle < MAX_CYCLES);
            assert_eq!(
                dsr.bits() & !retire_effect_mask(),
                0,
                "DME divergences live on the retired-effect ports"
            );
            assert_ne!(dsr.bits(), 0);
        }
    }
    // The acceptance shape: 0% coverage under fixed (test above), 100%
    // under dme — not "some".
    assert_eq!(detected, total);
}

#[test]
fn lr7_gets_the_same_dme_coverage() {
    let w = Workload::find("rspeed").unwrap();
    let fault = AddrStuckAt { bit: 10, stuck_one: false };
    assert_eq!(
        run_decoder_stuck_at_for::<Lr7>(w, 3, fault, RedundancyMode::Fixed, MAX_CYCLES),
        None,
        "the masking argument is structural, not a property of one pipeline"
    );
    assert!(
        run_decoder_stuck_at_for::<Lr7>(w, 3, fault, RedundancyMode::Dme, MAX_CYCLES).is_some(),
        "and so is the DME detection"
    );
}

#[test]
fn minimized_repro_replays_the_aliasing() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/repros/dme_addr_decoder_aliasing.asm");
    let source = std::fs::read_to_string(&path).expect("repro file exists");
    let program = lockstep_asm::assemble(&source).expect("repro assembles");
    let image = |seed| {
        let mut mem = Memory::new(RAM_BYTES, seed);
        mem.load_image(&program.to_bytes(RAM_BYTES));
        mem
    };
    let fault = AddrStuckAt { bit: 8, stuck_one: false };

    // Identical lockstep ships the corruption: the shared decoder sends
    // both copies to the same clobbered word.
    assert_eq!(
        run_decoder_stuck_at_on::<Cpu>(image(3), fault, RedundancyMode::Fixed, 10_000),
        None
    );
    // DME flags it in the retired writeback stream.
    let (cycle, dsr) = run_decoder_stuck_at_on::<Cpu>(image(3), fault, RedundancyMode::Dme, 10_000)
        .expect("dme detects the aliased store");
    assert!(cycle < 10_000);
    assert_eq!(dsr.bits() & !retire_effect_mask(), 0);
}

/// Sampled faults per kernel for the lemma tests below: the plan's mix
/// of transients and stuck-ats at strike cycles across the whole run.
const LEMMA_FAULTS: usize = 12;

/// Lemma 1 (relabelling): without a planted decoder fault, a core
/// behind `DmePort(offset)` over `shift_image(img, offset)` sees exactly
/// what it sees over `img` — faulty or not — whenever every codeword is
/// clean, as in every golden checkpoint. The campaign engine relies on
/// it to run DME's faulty copy over the unshifted image. Each sampled
/// fault runs from its checkpoint both ways; the ports must agree on
/// every cycle and the outputs at the end.
fn relabelling_holds_for<C: CoreModel>() {
    for (k, w) in Workload::all().iter().enumerate() {
        let seed = 40 + k as u64;
        let cap = w.golden_capture_for::<C>(seed, MAX_CYCLES, DEFAULT_CHECKPOINT_INTERVAL);
        let plan =
            CampaignPlan::sampled_for::<C>(PlanConfig::new(cap.run.cycles, seed), LEMMA_FAULTS);
        for fault in plan.faults() {
            let cp = cap.checkpoints.nearest_at(fault.cycle).expect("cycle-0 checkpoint");
            let mut shifted = shift_image(&cp.mem, DEFAULT_DME_OFFSET_WORDS);
            let mut plain = cp.mem.clone();
            let (mut a, mut b) = (C::from_state(cp.cpu.clone()), C::from_state(cp.cpu.clone()));
            let (mut pa, mut pb) = (PortSet::new(), PortSet::new());
            // A faulty core need not halt; both copies share the budget.
            for cycle in cp.cycle..2 * cap.run.cycles {
                let mut port = DmePort::new(&mut shifted, DEFAULT_DME_OFFSET_WORDS);
                a.step_with_overlay(&mut port, &mut pa, |st| fault.overlay_for::<C>(st, cycle));
                b.step_with_overlay(&mut plain, &mut pb, |st| fault.overlay_for::<C>(st, cycle));
                assert_eq!(
                    pa,
                    pb,
                    "{} {}: {} ports differ at cycle {cycle}",
                    C::NAME,
                    w.name,
                    fault.describe_for::<C>()
                );
                assert_eq!(a.is_halted(), b.is_halted());
                if a.is_halted() {
                    break;
                }
            }
            assert_eq!(
                shifted.output_checksum(),
                plain.output_checksum(),
                "{} {}: {} output differs",
                C::NAME,
                w.name,
                fault.describe_for::<C>()
            );
        }
    }
}

#[test]
fn shifted_image_is_a_relabelling_on_lr5() {
    relabelling_holds_for::<Cpu>();
}

#[test]
fn shifted_image_is_a_relabelling_on_lr7() {
    relabelling_holds_for::<Lr7>();
}

/// Lemma 2 (subset): the retire comparator reads only the retire ports,
/// so a fault whose ports match golden on every cycle is masked under
/// DME too, and a fault DME detects was port-detected no later. The
/// batched engine relies on it to score every port-masked fault masked
/// and to hand only the port-divergent ones to the retire comparator.
fn retire_detection_implies_port_detection_for<C: CoreModel>() {
    for (k, w) in Workload::all().iter().enumerate() {
        let seed = 70 + k as u64;
        let cap = w.golden_capture_for::<C>(seed, MAX_CYCLES, DEFAULT_CHECKPOINT_INTERVAL);
        let stream = retire_stream(&cap.trace);
        let plan =
            CampaignPlan::sampled_for::<C>(PlanConfig::new(cap.run.cycles, seed), LEMMA_FAULTS);
        for &fault in plan.faults() {
            let run = |reference| {
                let start = ReplayStart::Checkpoint(&cap.checkpoints);
                run_injection::<C>(start, reference, fault, 16, None).outcome
            };
            let ports = run(Reference::Recorded(&cap.trace));
            let retire = run(Reference::RetireStream { cycles: cap.trace.len(), stream: &stream });
            if let Some((detect, _)) = retire {
                let (port_detect, _) = ports.unwrap_or_else(|| {
                    panic!("{} {}: DME detected a port-masked {fault:?}", C::NAME, w.name)
                });
                assert!(port_detect <= detect, "{} {}: {fault:?}", C::NAME, w.name);
            }
        }
    }
}

#[test]
fn retire_detection_implies_port_detection_on_lr5() {
    retire_detection_implies_port_detection_for::<Cpu>();
}

#[test]
fn retire_detection_implies_port_detection_on_lr7() {
    retire_detection_implies_port_detection_for::<Lr7>();
}
