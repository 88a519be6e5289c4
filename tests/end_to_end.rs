//! End-to-end integration: the full life of one error, crossing every
//! crate boundary — workload → lockstep harness → checker → predictor →
//! system controller → safe state.

use lockstep::bist::{ControllerOutcome, LatencyModel, Model, StlSuite, SystemController};
use lockstep::core::{LockstepEvent, LockstepSystem, Predictor, PredictorConfig};
use lockstep::cpu::{flops, CoarseUnit, Granularity, UnitId};
use lockstep::eval::{run_campaign, CampaignConfig, Dataset};
use lockstep::fault::{Fault, FaultKind};
use lockstep::workloads::Workload;

/// The complete flow of Figure 7 followed by the runtime flow of
/// Figure 9c, in one test.
#[test]
fn one_error_full_lifecycle() {
    // --- offline: characterize and train -------------------------------
    let campaign = run_campaign(&CampaignConfig {
        workloads: vec![
            Workload::find("ttsprk").unwrap(),
            Workload::find("canrdr").unwrap(),
            Workload::find("matrix").unwrap(),
        ],
        faults_per_workload: 400,
        seed: 99,
        // Pinned thread count: records are thread-independent, and a
        // fixed pool keeps the timing envelope machine-independent.
        threads: 4,
        capture_window: 8,
        checkpoint_interval: Some(4096),
        events: None,
        trace_window: None,
        batch: None,
        core: lockstep_cpu::CoreKind::Lr5,
        redundancy: lockstep::core::RedundancyMode::Fixed,
    });
    assert!(campaign.records.len() > 100, "campaign too sparse");
    let ds = Dataset::new(campaign.records.clone());
    let all: Vec<_> = ds.records().iter().collect();
    let predictor = Predictor::train(
        &Dataset::to_train_records(&all, Granularity::Coarse),
        PredictorConfig::new(Granularity::Coarse),
    );
    assert!(predictor.entry_count() > 30);

    // --- runtime: a defect appears in the field ------------------------
    let workload = Workload::find("ttsprk").unwrap();
    let mut system = LockstepSystem::dmr(workload.memory(5));
    let defect =
        Fault::new(flops::flops_of_unit(UnitId::Mdv).nth(70).unwrap(), FaultKind::StuckAt1, 400);
    system.inject(0, defect);
    let dsr = match system.run(200_000) {
        LockstepEvent::ErrorDetected { dsr, .. } => dsr,
        other => panic!("defect not detected: {other:?}"),
    };

    // --- reaction: predictor-guided diagnosis --------------------------
    let mut controller = SystemController::new(
        Model::PredComb,
        LatencyModel::calibrated(Granularity::Coarse),
        campaign.manifestation_rates(Granularity::Coarse),
        1,
    );
    let outcome = controller.handle_error(
        dsr,
        Some(&predictor),
        CoarseUnit::Dpu.index(),
        defect.kind.error_kind(),
        campaign.restart_cycles("ttsprk"),
    );
    match outcome {
        ControllerOutcome::FailStop { units_tested, lert_cycles } => {
            assert!(units_tested <= 3, "prediction should find the DPU quickly");
            // Worst case would be the total of all STLs.
            let total = LatencyModel::calibrated(Granularity::Coarse).total_stl();
            assert!(lert_cycles < total, "reaction must beat run-to-completion");
        }
        other => panic!("a stuck-at must fail-stop, got {other:?}"),
    }
}

/// The functional SBIST agrees with the analytic flow: the STL of the
/// faulty unit detects the defect, others mostly pass.
#[test]
fn functional_stl_localizes_defect() {
    let suite = StlSuite::new(Granularity::Coarse);
    let defect = Fault::new(
        flops::all_flops().find(|f| flops::label_of(*f) == "RF.regs[20].11").unwrap(),
        FaultKind::StuckAt1,
        0,
    );
    // The DPU STL (containing the RF march) must catch it.
    let dpu = suite.run(CoarseUnit::Dpu.index(), Some(defect));
    assert!(dpu.detected(), "DPU STL must detect a register-bank defect");
    // A narrowly-scoped unrelated unit passes: the SCU walk never touches
    // s4/x20.
    let scu = suite.run(CoarseUnit::Scu.index(), Some(defect));
    assert!(!scu.detected(), "SCU STL should not be sensitive to an RF defect");
}

/// Soft errors disappear after reset & restart; the same workload then
/// completes and publishes identical outputs to a never-faulted run.
#[test]
fn soft_error_recovery_restores_service() {
    let workload = Workload::find("iirflt").unwrap();
    let golden = workload.golden_run(8, 200_000);

    let mut system = LockstepSystem::dmr(workload.memory(8));
    let upset = Fault::new(
        flops::all_flops().find(|f| flops::label_of(*f) == "DEC.id_imm.3").unwrap(),
        FaultKind::Transient,
        600,
    );
    system.inject(0, upset);
    match system.run(200_000) {
        LockstepEvent::ErrorDetected { .. } => {}
        // A masked transient is also an acceptable outcome of this flow,
        // but with this flop/cycle it manifests.
        other => panic!("expected detection, got {other:?}"),
    }
    system.clear_faults();
    system.reset_and_restart();
    match system.run(400_000) {
        LockstepEvent::Halted => {}
        other => panic!("restart did not complete: {other:?}"),
    }
    assert_eq!(
        system.memory().output_checksum(),
        golden.output_checksum,
        "post-recovery outputs must match the fault-free run"
    );
}

/// The facade crate re-exports every subsystem.
#[test]
fn facade_reexports_are_usable() {
    let _ = lockstep::isa::Instr::nop();
    let _ = lockstep::asm::assemble("nop").unwrap();
    let _ = lockstep::mem::SecDed::encode(1);
    let _ = lockstep::cpu::Cpu::new(0);
    let _ = lockstep::stats::Xoshiro256::seed_from(1);
    let _ = lockstep::hwcost::CostModel::default_32nm();
    assert_eq!(lockstep::cpu::SC_COUNT, 62);
}
