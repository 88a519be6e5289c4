//! Substrate unit costs for the traced runs: core stepping, the port
//! diff, memory-image clone and DME shift, each timed from outside over
//! the suite kernels and reported as the median of repetitions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lockstep_cpu::{CoreModel, Cpu, FlopId, Lr7, PortSet};
use lockstep_fault::{Fault, FaultKind};
use lockstep_mem::{shift_image, DmePort, Memory, DEFAULT_DME_OFFSET_WORDS};
use lockstep_workloads::{Workload, DEFAULT_CHECKPOINT_INTERVAL};

use crate::stats::median;

/// Minimum wall time spent per unit cost, and the repetition floor.
const BUDGET: Duration = Duration::from_millis(120);
const MIN_REPS: usize = 3;
/// Untimed stepping before the first unit cost.
const WARM_UP: Duration = Duration::from_millis(300);

/// Substrate unit costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// LR5 `CoreModel::step`, ns per cycle.
    pub lr5_step_ns: f64,
    /// LR5 `step_with_overlay` (a transient that never strikes), ns per cycle.
    pub lr5_overlay_step_ns: f64,
    /// LR7 `CoreModel::step`, ns per cycle.
    pub lr7_step_ns: f64,
    /// LR7 `step_with_overlay`, ns per cycle.
    pub lr7_overlay_step_ns: f64,
    /// `PortSet::diff_mask`, ns per call.
    pub diff_mask_ns: f64,
    /// `Memory::clone` of a checkpoint image, µs.
    pub image_clone_us: f64,
    /// `shift_image` of a checkpoint image, µs.
    pub dme_shift_us: f64,
    /// LR5 step through `DmePort` over a shifted image, ns per cycle.
    pub dme_step_ns: f64,
}

/// Repeats `rep` (which returns `(elapsed, units)`) until the budget is
/// spent, returning the median cost per unit in nanoseconds.
fn per_unit_ns(mut rep: impl FnMut() -> (Duration, u64)) -> f64 {
    let start = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < MIN_REPS || start.elapsed() < BUDGET {
        let (elapsed, units) = rep();
        costs.push(elapsed.as_nanos() as f64 / units.max(1) as f64);
    }
    median(&costs)
}

/// One pass of core `C` from reset to halt over every suite kernel;
/// returns stepping time and cycles.
fn run_suite<C: CoreModel>(images: &[Memory], overlay: bool) -> (Duration, u64) {
    let never = Fault::new(FlopId { reg: 0, lane: 0, bit: 0 }, FaultKind::Transient, u64::MAX);
    let mut elapsed = Duration::ZERO;
    let mut cycles = 0;
    for image in images {
        let mut mem = image.clone();
        let mut core = C::new(0);
        let mut ports = PortSet::new();
        let t = Instant::now();
        loop {
            cycles += 1;
            let info = if overlay {
                let at = cycles;
                core.step_with_overlay(&mut mem, &mut ports, |st| never.overlay_for::<C>(st, at))
            } else {
                core.step(&mut mem, &mut ports)
            };
            if info.halted {
                break;
            }
        }
        elapsed += t.elapsed();
        black_box(&ports);
    }
    (elapsed, cycles)
}

/// Measures every substrate unit cost (about one second in total).
pub fn measure(stim_seed: u64) -> Micro {
    let images: Vec<Memory> = Workload::all().iter().map(|w| w.memory(stim_seed)).collect();
    let shifted: Vec<Memory> =
        images.iter().map(|m| shift_image(m, DEFAULT_DME_OFFSET_WORDS)).collect();
    let capture = Workload::all()
        .iter()
        .max_by_key(|w| w.golden_run(stim_seed, 400_000).cycles)
        .expect("the suite has kernels")
        .golden_capture(stim_seed, 400_000, DEFAULT_CHECKPOINT_INTERVAL);
    let checkpoint = &capture.checkpoints.points[capture.checkpoints.points.len() / 2].mem;
    let trace: Vec<&PortSet> = capture.trace.iter().collect();

    // Bring the core out of any idle frequency state before the first
    // measurement.
    let warm = Instant::now();
    while warm.elapsed() < WARM_UP {
        run_suite::<Cpu>(&images, false);
    }

    Micro {
        lr5_step_ns: per_unit_ns(|| run_suite::<Cpu>(&images, false)),
        lr5_overlay_step_ns: per_unit_ns(|| run_suite::<Cpu>(&images, true)),
        lr7_step_ns: per_unit_ns(|| run_suite::<Lr7>(&images, false)),
        lr7_overlay_step_ns: per_unit_ns(|| run_suite::<Lr7>(&images, true)),
        diff_mask_ns: per_unit_ns(|| {
            let t = Instant::now();
            let mut acc = 0u64;
            for pair in trace.windows(2) {
                acc ^= black_box(pair[1]).diff_mask(black_box(pair[0]));
            }
            black_box(acc);
            (t.elapsed(), trace.len() as u64 - 1)
        }),
        image_clone_us: per_unit_ns(|| {
            let t = Instant::now();
            for _ in 0..64 {
                black_box(black_box(checkpoint).clone());
            }
            (t.elapsed(), 64)
        }) / 1e3,
        dme_shift_us: per_unit_ns(|| {
            let t = Instant::now();
            for _ in 0..8 {
                black_box(shift_image(black_box(checkpoint), DEFAULT_DME_OFFSET_WORDS));
            }
            (t.elapsed(), 8)
        }) / 1e3,
        dme_step_ns: per_unit_ns(|| {
            let mut elapsed = Duration::ZERO;
            let mut cycles = 0;
            for image in &shifted {
                let mut mem = image.clone();
                let mut cpu = Cpu::new(0);
                let mut ports = PortSet::new();
                let t = Instant::now();
                loop {
                    cycles += 1;
                    let mut port = DmePort::new(&mut mem, DEFAULT_DME_OFFSET_WORDS);
                    if cpu.step(&mut port, &mut ports).halted {
                        break;
                    }
                }
                elapsed += t.elapsed();
            }
            (elapsed, cycles)
        }),
    }
}
