//! The shadow-golden replay engine's correctness contract, fault by
//! fault: replaying a fault against the recorded golden port trace
//! ([`Reference::Recorded`], what every port-compare campaign runs)
//! must give exactly what replaying it against live fault-free golden
//! twins gives ([`Reference::Twins`], board-level lockstep, Figure 1a) —
//! the same outcome (masked, or detection cycle and DSR) and the same
//! divergence trace — with two CPUs and with three, from reset and from
//! checkpoints, traced and untraced, on both core models.
//!
//! Live twins are the oracle here, not a campaign mode: a fault-free
//! twin restored from the same snapshot deterministically re-produces
//! the recording, so checking every sampled fault against both
//! references pins the recording to the semantics it stands in for.
//! With three CPUs the majority vote of identical fault-free twins
//! degenerates to the pairwise compare, so TMR gives DMR's outcome too.

use lockstep_cpu::{CoreModel, Cpu, Lr7};
use lockstep_eval::campaign::{run_injection, Reference, ReplayStart};
use lockstep_fault::{CampaignPlan, PlanConfig};
use lockstep_workloads::{GoldenCapture, Workload};

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
