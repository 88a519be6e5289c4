//! The PR-lane fuzz smoke: 500 generated programs, zero mismatches.
//!
//! This is the fast end of the differential-fuzzing spectrum (the
//! nightly CI lane runs ≥10k programs across a seed matrix via the
//! `fuzz_differential` binary). Seed 42 is the same seed the campaign
//! byte-identity test uses, so the corpus exercised here is the one
//! users will reach for first.

use lockstep_iss::diff::run_fuzz;

#[test]
fn five_hundred_programs_zero_mismatches() {
    let report = run_fuzz(42, 500, 8, None);
    let mismatches = report.mismatches();
    assert!(
        mismatches.is_empty(),
        "differential mismatches at seed 42, programs {mismatches:?}: {:?}",
        mismatches.iter().map(|&i| &report.cases[i as usize].outcome.verdict).collect::<Vec<_>>()
    );
    // The sweep must be real work, not vacuous: every program retired
    // instructions, and the corpus total is substantial.
    assert!(report.cases.iter().all(|c| c.outcome.iss_retired > 30));
    assert!(report.total_retired() > 50_000, "retired {}", report.total_retired());
}

/// The trap exerciser (misaligned-load and `ebreak` traps, a handler
/// that returns through `epc`, `call`/`ret`) is the one hand-written
/// program whose golden run traps, so both cores are held to the
/// interpreter on it directly.
#[test]
fn trap_exerciser_matches_the_interpreter_on_both_cores() {
    use lockstep_cpu::{Cpu, Lr7};
    use lockstep_iss::diff::{run_differential_for, DiffVerdict};
    let w = lockstep_workloads::Workload::find("trapex").expect("trap exerciser registered");
    for outcome in [
        run_differential_for::<Cpu>(w.source, 7, 200_000, None),
        run_differential_for::<Lr7>(w.source, 7, 200_000, None),
    ] {
        assert!(matches!(outcome.verdict, DiffVerdict::Match), "{:?}", outcome.verdict);
        assert!(outcome.iss_retired > 500, "retired {}", outcome.iss_retired);
    }
}
