//! The shadow-golden replay engine's correctness contract, fault by
//! fault: replaying a fault against the recorded golden port trace
//! ([`Reference::Recorded`], what every port-compare campaign runs)
//! must give exactly what a live lockstep unit of fault-free golden
//! copies gives (board-level lockstep, Figure 1a) — the same outcome
//! (masked, or detection cycle and DSR). Two oracles hold it:
//!
//! * **Live twins** ([`Reference::Twins`]) on the shipped kernels: the
//!   same engine with fault-free twin CPUs restored beside the faulty
//!   one, compared on the outcome and the divergence trace, with two
//!   CPUs and with three, from reset and from checkpoints, traced and
//!   untraced, on both core models. A fault-free twin restored from the
//!   same snapshot deterministically re-produces the recording, so
//!   checking every sampled fault against both references pins the
//!   recording to the semantics it stands in for.
//! * **The live harness** ([`LockstepSystem`] with replicated memory) on
//!   random programs and random single faults: an independent per-cycle
//!   loop with its own checker call, capture window and fault overlay.
//!   The fault sits in CPU 0 or in CPU 1 of a DMR pair (the checker's
//!   XOR compare is symmetric), or in CPU 0 of a TMR unit, whose real
//!   majority voter ([`lockstep_core::Checker::compare_mmr`]) must then
//!   name CPU 0 and report DMR's DSR.
//!
//! [`LockstepSystem`]: lockstep_core::LockstepSystem

use lockstep_asm::assemble;
use lockstep_core::{Dsr, LockstepEvent, LockstepSystem};
use lockstep_cpu::{flops, CoreModel, Cpu, Lr7, PortSet, PortTrace};
use lockstep_eval::campaign::{run_injection, Reference, ReplayStart};
use lockstep_fault::{CampaignPlan, Fault, FaultKind, PlanConfig};
use lockstep_mem::Memory;
use lockstep_workloads::{Checkpoint, GoldenCapture, GoldenCheckpoints, Workload};
use proptest::prelude::*;

mod common;

const STIM_SEED: u64 = 2024;
const CAPTURE_WINDOW: u32 = 16;
const TRACE_WINDOW: u32 = 32;
/// Checkpoint spacings the checkpointed starts restore from: dense and
/// the campaign default.
const INTERVALS: [u64; 2] = [512, 4096];
/// Every start: `None` from reset, `Some(k)` from the nearest checkpoint
/// of spacing `INTERVALS[k]`.
const ALL_STARTS: [Option<usize>; 3] = [None, Some(0), Some(1)];
/// Untraced and traced replays.
const ALL_TRACE_WINDOWS: [Option<u32>; 2] = [None, Some(TRACE_WINDOW)];

/// Replays every fault of a `faults`-fault sampled plan of `name`
/// against the recording and against two and three live CPUs, from
/// each of `starts` with each of `trace_windows`, and asserts identical
/// outcomes and traces. Returns how many faults manifested, so callers
/// can insist the fixture exercises detection.
fn assert_twins_agree_with_recording<C: CoreModel>(
    name: &'static str,
    faults: usize,
    starts: &[Option<usize>],
    trace_windows: &[Option<u32>],
) -> usize {
    let workload = Workload::find(name).unwrap();
    let captures: Vec<&GoldenCapture<C::State>> =
        INTERVALS.iter().map(|&k| common::capture::<C>(name, STIM_SEED, k)).collect();
    let golden = captures[0];
    let cycles = golden.run.cycles;
    assert_eq!(golden.trace.len(), cycles, "{name}: the recording spans the golden run");
    let plan = CampaignPlan::sampled_for::<C>(PlanConfig::new(cycles, STIM_SEED ^ 7), faults);
    assert_eq!(plan.faults().len(), faults);

    let mut manifested = 0;
    for (i, &fault) in plan.faults().iter().enumerate() {
        let start = |from: Option<usize>| match from {
            None => ReplayStart::Reset { workload, stim_seed: STIM_SEED },
            Some(k) => ReplayStart::Checkpoint(&captures[k].checkpoints),
        };
        let mut detected = false;
        for &from in starts {
            for &trace_window in trace_windows {
                // The outcome and the divergence trace, compared whole.
                let replay = |reference| {
                    let injection = run_injection::<C>(
                        start(from),
                        reference,
                        fault,
                        CAPTURE_WINDOW,
                        trace_window,
                    );
                    (injection.outcome, injection.trace)
                };
                let recorded = replay(Reference::Recorded(&golden.trace));
                if trace_window.is_some() {
                    assert_eq!(
                        recorded.1.is_some(),
                        recorded.0.is_some(),
                        "one trace per detection"
                    );
                }
                detected = recorded.0.is_some();
                for cpus in [2, 3] {
                    assert_eq!(
                        replay(Reference::Twins { cycles, cpus }),
                        recorded,
                        "{} {name} fault {i} ({fault:?}): {cpus} live CPUs disagree with the \
                         recording (start {from:?}, trace window {trace_window:?})",
                        C::NAME,
                    );
                }
            }
        }
        manifested += usize::from(detected);
    }
    manifested
}

/// The oracle over the hand-written anchor pair on one core: some but
/// not all sampled faults must manifest, so both the detection path
/// (DSR capture window, trace samples) and the masked path are checked.
fn assert_oracle_on<C: CoreModel>() {
    for name in ["rspeed", "idctrn"] {
        let faults = 40;
        let manifested =
            assert_twins_agree_with_recording::<C>(name, faults, &ALL_STARTS, &ALL_TRACE_WINDOWS);
        assert!(manifested > 0, "{} {name}: no sampled fault manifested", C::NAME);
        assert!(manifested < faults, "{} {name}: every sampled fault manifested", C::NAME);
    }
}

#[test]
fn lr5_recording_matches_live_twins_fault_by_fault() {
    assert_oracle_on::<Cpu>();
}

#[test]
fn lr7_recording_matches_live_twins_fault_by_fault() {
    assert_oracle_on::<Lr7>();
}

/// Full-suite sweep, tier-2 only: every workload on both cores. The
/// starts and the untraced replay are covered above; the sweep adds
/// every kernel's instruction mix, from the dense checkpoints (the
/// cheapest start), traced (a traced replay decides the outcome too).
#[cfg(feature = "slow-tests")]
#[test]
#[ignore = "full-suite sweep; run with --features slow-tests -- --ignored"]
fn full_suite_recording_matches_live_twins_fault_by_fault() {
    let traced = [Some(TRACE_WINDOW)];
    let mut manifested = 0;
    for w in Workload::all() {
        manifested += assert_twins_agree_with_recording::<Cpu>(w.name, 40, &[Some(0)], &traced);
        manifested += assert_twins_agree_with_recording::<Lr7>(w.name, 40, &[Some(0)], &traced);
    }
    assert!(manifested > 100, "sweep too sparse");
}

/// RAM of a generated program's memory image.
const RAM: usize = 64 * 1024;
/// Cycles of a generated program's golden recording.
const TRACE_CYCLES: u64 = 400;
/// The capture windows every case of the live-harness property checks.
const WINDOWS: [u32; 3] = [1, 8, 16];
/// Live lockstep units checked against each recorded replay, as
/// `(CPUs, the faulty CPU)`: a DMR pair with the fault on either side,
/// and a TMR unit whose voter must single out the faulty CPU.
const LIVE_UNITS: [(usize, usize); 3] = [(2, 0), (2, 1), (3, 0)];

/// A generated program: valid instructions over a confined
/// register/memory window, ending in a loop-to-self, so it never halts
/// and every cycle of the recording is comparable.
fn arb_program() -> impl Strategy<Value = String> {
    let instr = prop_oneof![
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("add a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("xor a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(a, b, c)| format!("mul a{a}, a{b}, a{c}")),
        (0u8..6, 0u8..6, -100i32..100).prop_map(|(a, b, i)| format!("addi a{a}, a{b}, {i}")),
        (0u8..6, 0u32..16).prop_map(|(a, o)| format!("sw a{a}, {}(gp)", o * 4)),
        (0u8..6, 0u32..16).prop_map(|(a, o)| format!("lw a{a}, {}(gp)", o * 4)),
        (0u8..6,).prop_map(|(a,)| format!("csrw misr, a{a}")),
        Just("nop".to_owned()),
    ];
    proptest::collection::vec(instr, 1..40).prop_map(|body| {
        let mut src = String::from("li gp, 0x4000\n");
        for line in body {
            src.push_str(&line);
            src.push('\n');
        }
        src.push_str("here: j here\n");
        src
    })
}

/// A single fault in any flop of core `C`, of any kind, striking early
/// enough that the widest capture window still fits in the recording.
fn arb_fault<C: CoreModel>() -> impl Strategy<Value = Fault> {
    let flop_count = flops::all_flops_in(C::registry()).count();
    (
        0usize..flop_count,
        prop_oneof![
            Just(FaultKind::Transient),
            Just(FaultKind::StuckAt0),
            Just(FaultKind::StuckAt1),
        ],
        0u64..TRACE_CYCLES - 64,
    )
        .prop_map(|(pick, kind, cycle)| {
            Fault::new(flops::all_flops_in(C::registry()).nth(pick).unwrap(), kind, cycle)
        })
}

fn memory(source: &str, seed: u64) -> Memory {
    let program = assemble(source).expect("generated programs assemble");
    let mut mem = Memory::new(RAM, seed);
    mem.load_image(&program.to_bytes(RAM));
    mem
}

/// The fault-free recording of `TRACE_CYCLES` cycles and the cycle-0
/// checkpoint a campaign replay starts from.
fn record<C: CoreModel>(mem: &Memory) -> (PortTrace, GoldenCheckpoints<C::State>) {
    let checkpoint = Checkpoint { cycle: 0, cpu: C::reset_state(0), mem: mem.clone() };
    let checkpoints = GoldenCheckpoints { interval: TRACE_CYCLES, points: vec![checkpoint] };
    let (mut cpu, mut mem) = (C::new(0), mem.clone());
    let (mut ports, mut trace) = (PortSet::new(), PortTrace::new());
    for _ in 0..TRACE_CYCLES {
        cpu.step(&mut mem, &mut ports);
        trace.push(ports);
    }
    (trace, checkpoints)
}

/// The first detection of a live replicated-memory lockstep unit of
/// `cpus` CPUs with `fault` armed in CPU `faulty`, among the cycles
/// whose whole capture window lies inside the recording (`horizon` and
/// on are not compared).
fn live_detection<C: CoreModel>(
    mem: &Memory,
    (cpus, faulty): (usize, usize),
    fault: Fault,
    window: u32,
    horizon: u64,
) -> Option<LockstepEvent> {
    let mut live = LockstepSystem::<C>::new_replicated_for(cpus, mem.clone());
    live.set_capture_window(window);
    live.inject(faulty, fault);
    // The programs never halt, so the fault-free CPUs run to the horizon.
    match live.run(horizon) {
        detected @ LockstepEvent::ErrorDetected { .. } => Some(detected),
        _ => None,
    }
}

/// A fault that halts the main CPU of a DMR pair is a detection, not a
/// completed program: with LR5's `halted` flop stuck at 1 in CPU 0 from
/// cycle 164 of a program that never halts, CPU 0 halts with golden's
/// ports, and its quiescent ports diverge on the next cycle while CPU 1
/// runs on. `run` must report the detection the recorded replay makes,
/// on the same cycle and with the same DSR.
#[test]
fn a_halted_main_cpu_is_detected_not_completed() {
    let program = "li gp, 0x4000\nloop: addi a0, a0, 1\nsw a0, 0(gp)\nlw a1, 0(gp)\nj loop\n";
    let mem = memory(program, 7);
    let (trace, checkpoints) = record::<Cpu>(&mem);
    let halted = flops::all_flops()
        .find(|&f| Cpu::registry()[f.reg as usize].name == "halted")
        .expect("LR5 has a halted flop");
    let fault = Fault::new(halted, FaultKind::StuckAt1, 164);
    let (cycle, dsr) = run_injection::<Cpu>(
        ReplayStart::Checkpoint(&checkpoints),
        Reference::Recorded(&trace),
        fault,
        CAPTURE_WINDOW,
        None,
    )
    .outcome
    .expect("the recorded replay detects the halt");
    assert_eq!(cycle, 165, "the halted CPU's ports diverge the cycle after the strike");
    let mut live = LockstepSystem::<Cpu>::new_replicated_for(2, mem);
    live.set_capture_window(CAPTURE_WINDOW);
    live.inject(0, fault);
    assert_eq!(
        live.run(TRACE_CYCLES),
        LockstepEvent::ErrorDetected { dsr, cycle, erring_cpu: None }
    );
}

/// The property: the engine's recorded replay of `fault`, from the
/// cycle-0 checkpoint, detects on the cycle and with the DSR every live
/// unit of [`LIVE_UNITS`] reports, at every capture window in
/// [`WINDOWS`] — or, like all of them, not at all.
fn assert_recording_matches_the_live_units<C: CoreModel>(
    program: &str,
    seed: u64,
    fault: Fault,
) -> Result<(), TestCaseError> {
    let mem = memory(program, seed);
    let (trace, checkpoints) = record::<C>(&mem);
    for window in WINDOWS {
        let horizon = TRACE_CYCLES - u64::from(window);
        let recorded: Option<(u64, Dsr)> = run_injection::<C>(
            ReplayStart::Checkpoint(&checkpoints),
            Reference::Recorded(&trace),
            fault,
            window,
            None,
        )
        .outcome
        .filter(|&(cycle, _)| cycle < horizon);
        for unit @ (cpus, faulty) in LIVE_UNITS {
            let expected = recorded.map(|(cycle, dsr)| LockstepEvent::ErrorDetected {
                dsr,
                cycle,
                erring_cpu: (cpus > 2).then_some(faulty),
            });
            prop_assert_eq!(
                live_detection::<C>(&mem, unit, fault, window, horizon),
                expected,
                "{} {:?}, window {}: {} live CPUs with the fault in CPU {} disagree with the \
                 recorded replay",
                C::NAME,
                fault,
                window,
                cpus,
                faulty
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lr5_recorded_replay_matches_the_live_harness(
        program in arb_program(),
        seed in any::<u64>(),
        fault in arb_fault::<Cpu>(),
    ) {
        assert_recording_matches_the_live_units::<Cpu>(&program, seed, fault)?;
    }

    #[test]
    fn lr7_recorded_replay_matches_the_live_harness(
        program in arb_program(),
        seed in any::<u64>(),
        fault in arb_fault::<Lr7>(),
    ) {
        assert_recording_matches_the_live_units::<Lr7>(&program, seed, fault)?;
    }
}
