//! Checkpoint re-sync, dynamic lockstep's soft-error recovery, on the
//! live replicated-memory harness (DESIGN.md §13): a cleared transient
//! re-syncs to a clean, golden-identical run; a hard fault re-detects.

use std::sync::Arc;

use lockstep_asm::assemble;
use lockstep_core::{LockstepEvent, LockstepSystem};
use lockstep_cpu::{flops, UnitId};
use lockstep_fault::{Fault, FaultKind};
use lockstep_mem::Memory;
use lockstep_obs::{Event, MemorySink};

const RAM: usize = 64 * 1024;

const LOOP_KERNEL: &str = "
        li   gp, 0x4000
        li   s0, 0xFFFF0000      ; sensor base
        li   s1, 0xFFFF8000      ; output base
    loop:
        lw   a0, 0(s0)
        lw   a1, 4(s0)
        add  a2, a0, a1
        mul  a3, a0, a1
        xor  a4, a2, a3
        sw   a4, 0(s1)
        sw   a2, 0(gp)
        lw   a5, 0(gp)
        csrw misr, a5
        j    loop
";

fn image() -> Memory {
    let program = assemble(LOOP_KERNEL).unwrap();
    let mut mem = Memory::new(RAM, 1234);
    mem.load_image(&program.to_bytes(RAM));
    mem
}

fn alu_fault(cycle: u64) -> Fault {
    let flop = flops::flops_of_unit(UnitId::Alu).nth(40).expect("ALU flop");
    Fault::new(flop, FaultKind::StuckAt1, cycle)
}

#[test]
fn resync_recovers_a_transient_without_restart() {
    // Capture a golden checkpoint from a fault-free twin.
    let mut golden = LockstepSystem::new_replicated(2, image());
    assert_eq!(golden.run(4_096), LockstepEvent::Running);
    let ckpt_state = golden.main_cpu().snapshot();
    let ckpt_mem = golden.memory().clone();
    let ckpt_cycle = golden.cycle();

    let sink = Arc::new(MemorySink::new());
    let mut sys = LockstepSystem::new_replicated(2, image());
    sys.set_event_sink(Some(sink.clone()));
    sys.set_label("loop_kernel");
    let flop = flops::all_flops().find(|f| flops::label_of(*f) == "PFU.pc.4").unwrap();
    sys.inject(0, Fault::new(flop, FaultKind::Transient, 9_000));
    let detect_cycle = match sys.run(50_000) {
        LockstepEvent::ErrorDetected { cycle, .. } => cycle,
        other => panic!("expected detection, got {other:?}"),
    };

    // Predicted soft: clear the transient and re-sync from the
    // checkpoint instead of restarting from reset.
    sys.clear_faults();
    let distance = sys.resync_from(&ckpt_state, &ckpt_mem, ckpt_cycle);
    assert!(distance >= detect_cycle - ckpt_cycle, "replay distance covers detect - checkpoint");
    assert!(distance < 50_000, "replay distance is far below a full restart");
    assert_eq!(sys.cycle(), ckpt_cycle, "execution rewinds to the checkpoint");

    // The re-synced pair is clean and cycle-identical to the golden
    // twin from the checkpoint onward.
    assert_eq!(sys.run(20_000), LockstepEvent::Running, "clean after re-sync");
    assert_eq!(golden.run(20_000), LockstepEvent::Running);
    assert_eq!(
        sys.main_cpu().state(),
        golden.main_cpu().state(),
        "re-synced execution must track the golden run"
    );

    let resyncs: Vec<_> =
        sink.take().into_iter().filter(|e| matches!(e, Event::Resync { .. })).collect();
    match &resyncs[..] {
        [Event::Resync { workload, detect_cycle: dc, checkpoint_cycle, resync_cycles }] => {
            assert_eq!(workload, "loop_kernel");
            assert!(*dc >= detect_cycle, "event records the cycle at re-sync time");
            assert_eq!(*checkpoint_cycle, ckpt_cycle);
            assert_eq!(*resync_cycles, distance);
        }
        other => panic!("expected exactly one resync event, got {other:?}"),
    }
}

#[test]
fn resync_under_a_hard_fault_just_redetects() {
    let mut golden = LockstepSystem::new_replicated(2, image());
    assert_eq!(golden.run(4_096), LockstepEvent::Running);
    let ckpt_state = golden.main_cpu().snapshot();
    let ckpt_mem = golden.memory().clone();
    let ckpt_cycle = golden.cycle();

    let mut sys = LockstepSystem::new_replicated(2, image());
    sys.inject(0, alu_fault(6_000));
    match sys.run(50_000) {
        LockstepEvent::ErrorDetected { .. } => {}
        other => panic!("expected detection, got {other:?}"),
    }
    // Fault NOT cleared — it is a defect; re-sync cannot cure it.
    sys.resync_from(&ckpt_state, &ckpt_mem, ckpt_cycle);
    match sys.run(50_000) {
        LockstepEvent::ErrorDetected { .. } => {}
        other => panic!("hard fault must re-manifest after re-sync, got {other:?}"),
    }
}
