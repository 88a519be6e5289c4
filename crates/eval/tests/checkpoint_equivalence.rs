//! The checkpoint engine's correctness contract: an injection replayed
//! from a golden checkpoint must be **bit-identical** to the same
//! injection replayed from reset — same masked/manifested outcome, same
//! detection cycle, same DSR — for every fault kind, injection cycle,
//! capture window, and checkpoint spacing. The speedup is only usable
//! because this equivalence is exact.

use std::sync::OnceLock;

use lockstep_cpu::{flops, Cpu};
use lockstep_eval::campaign::{
    run_campaign, run_injection, CampaignConfig, Injection, Reference, ReplayStart,
};
use lockstep_fault::{Fault, FaultKind};
use lockstep_workloads::{GoldenCapture, Workload};
use proptest::prelude::*;

const SEED: u64 = 41;

type CaptureCache = std::sync::Mutex<Vec<((&'static str, u64), &'static GoldenCapture)>>;

/// Golden captures are expensive; share one per (workload, interval).
fn capture(name: &'static str, interval: u64) -> &'static GoldenCapture {
    static CACHE: OnceLock<CaptureCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| std::sync::Mutex::new(Vec::new()));
    let mut cache = cache.lock().unwrap();
    if let Some((_, cap)) = cache.iter().find(|(k, _)| *k == (name, interval)) {
        return cap;
    }
    let w = Workload::find(name).unwrap();
    let cap: &'static GoldenCapture =
        Box::leak(Box::new(w.golden_capture(SEED, 400_000, interval)));
    cache.push(((name, interval), cap));
    cap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_injection_bit_identical_across_intervals(
        flop_pick in 0usize..10_000,
        kind in prop_oneof![
            Just(FaultKind::Transient),
            Just(FaultKind::StuckAt0),
            Just(FaultKind::StuckAt1),
        ],
        cycle_frac in 0u64..1100,   // up to 110% of the run: covers faults landing after halt
        window in 1u32..=24,
        interval in proptest::sample::select(vec![1u64, 64, 4096]),
        workload in proptest::sample::select(vec!["rspeed", "pntrch"]),
    ) {
        let flop_count = flops::all_flops().count();
        let flop = flops::all_flops().nth(flop_pick % flop_count).unwrap();
        let w = Workload::find(workload).unwrap();
        let cap = capture(workload, interval);
        let inject_cycle = cap.run.cycles * cycle_frac / 1000;
        let fault = Fault::new(flop, kind, inject_cycle);

        let reference = Reference::Recorded(&cap.trace);
        let reset = ReplayStart::Reset { workload: w, stim_seed: SEED };
        let from_reset = run_injection::<Cpu>(reset, reference, fault, window, None).outcome;
        let Injection { outcome: from_checkpoint, cost, .. } = run_injection::<Cpu>(
            ReplayStart::Checkpoint(&cap.checkpoints),
            reference,
            fault,
            window,
            None,
        );

        prop_assert_eq!(from_reset, from_checkpoint,
            "divergence for fault {:?} window {} interval {}", fault, window, interval);
        if inject_cycle < cap.run.cycles {
            prop_assert!(cost.hit_distance < interval);
            prop_assert_eq!(cost.checkpoint_cycle + cost.hit_distance, inject_cycle);
        }
    }
}

/// Whole-campaign equivalence: the record stream (order included) must
/// not depend on whether — or how densely — checkpoints are used.
#[test]
fn campaign_records_identical_for_all_intervals() {
    let base = CampaignConfig {
        workloads: vec![Workload::find("rspeed").unwrap(), Workload::find("idctrn").unwrap()],
        threads: 4,
        checkpoint_interval: None,
        ..CampaignConfig::new(50, 2024)
    };
    let reference = run_campaign(&base);
    assert!(!reference.records.is_empty(), "reference campaign must manifest errors");
    for interval in [1u64, 64, 4096] {
        let mut cfg = base.clone();
        cfg.checkpoint_interval = Some(interval);
        let res = run_campaign(&cfg);
        assert_eq!(
            res.records, reference.records,
            "checkpoint interval {interval} changed the record stream"
        );
        assert_eq!(res.injected, reference.injected);
        assert_eq!(res.injected_per_unit, reference.injected_per_unit);
    }
}
