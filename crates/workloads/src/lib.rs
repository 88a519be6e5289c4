//! Automotive benchmark kernels (the EEMBC *AutoBench* stand-in).
//!
//! The paper drives its fault-injection study with the EEMBC AutoBench
//! suite: small real-time kernels from automotive ECUs — tooth-to-spark,
//! road-speed calculation, CAN message handling, filters, matrix math —
//! each structured as an outer loop that reads operating conditions,
//! computes, and publishes outputs (Section IV-A).
//!
//! This crate provides twelve such kernels written in LR5 assembly. Each
//! kernel:
//!
//! * reads its "sensor" inputs from the memory-mapped stimulus block,
//! * computes in a style that exercises a characteristic mix of CPU
//!   units (divider-heavy, shifter-heavy, pointer-chasing, …),
//! * publishes results to the output-capture block (so correctness is
//!   checkable via the output checksum), and
//! * runs a fixed number of outer-loop iterations before halting, sized
//!   so whole-benchmark runtimes land in the low-thousands-of-cycles
//!   range the paper's Table II reports for restart latencies.
//!
//! # Example
//!
//! ```
//! use lockstep_workloads::Workload;
//!
//! let w = Workload::find("ttsprk").unwrap();
//! let golden = w.golden_run(42, 200_000);
//! assert!(golden.halted);
//! assert!(golden.outputs > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
mod kernels;
pub mod lc;

pub use kernels::extra;

use lockstep_asm::{assemble, Program};
use lockstep_cpu::{CoreModel, Cpu, CpuState, PortSet, PortTrace};
use lockstep_mem::{Memory, MemoryPort};

/// Default RAM size for workload images (64 KiB, TCM-class).
pub const RAM_BYTES: usize = 64 * 1024;

/// Default spacing between golden-run checkpoints, in cycles.
///
/// At the suite's 4k–25k-cycle runtimes this keeps a handful of
/// snapshots per kernel (~64 KiB of RAM image each) while bounding the
/// replay distance from a restored checkpoint to any injection cycle.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

/// One benchmark kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Short name (EEMBC-style), e.g. `"ttsprk"`.
    pub name: &'static str,
    /// What the kernel models.
    pub description: &'static str,
    /// LR5 assembly source.
    pub source: &'static str,
}

/// One resumable point in a golden run: the complete machine state
/// after `cycle` steps from reset. Restoring the CPU flops and this
/// memory image puts the simulation exactly where the golden run was
/// about to execute the step that produces golden-trace entry `cycle`.
#[derive(Debug, Clone)]
pub struct Checkpoint<S = CpuState> {
    /// Number of steps taken from reset when the snapshot was captured
    /// (equals the golden-trace index of the next step).
    pub cycle: u64,
    /// Every CPU flip-flop, including cycle/instret/halted bookkeeping.
    pub cpu: S,
    /// The full memory system: RAM image, stimulus generator state, and
    /// output-capture log.
    pub mem: Memory,
}

/// Evenly spaced [`Checkpoint`]s captured during a golden run.
///
/// The state parameter `S` is the core's sequential-state type
/// (LR5's [`CpuState`] by default).
#[derive(Debug, Clone)]
pub struct GoldenCheckpoints<S = CpuState> {
    /// Spacing between snapshots in cycles (cycle 0 is always present).
    pub interval: u64,
    /// Snapshots in ascending `cycle` order.
    pub points: Vec<Checkpoint<S>>,
}

impl<S> GoldenCheckpoints<S> {
    /// The latest checkpoint at or before `cycle`, i.e. the cheapest
    /// resume point for a fault injected at `cycle`. `None` only if no
    /// checkpoints were captured at all.
    pub fn nearest_at(&self, cycle: u64) -> Option<&Checkpoint<S>> {
        match self.points.binary_search_by_key(&cycle, |p| p.cycle) {
            Ok(i) => Some(&self.points[i]),
            Err(0) => None,
            Err(i) => Some(&self.points[i - 1]),
        }
    }

    /// Rough memory footprint of the stored snapshots, for campaign
    /// observability (RAM image dominates; bookkeeping is approximated).
    pub fn approx_bytes(&self) -> usize {
        self.points.len() * (RAM_BYTES + std::mem::size_of::<S>() + 64)
    }
}

/// Everything one fault-free reference pass produces: run statistics,
/// the per-cycle output-port trace, and resumable checkpoints. Produced
/// by [`Workload::golden_capture`] in a single simulation.
///
/// The trace is stored chunked ([`PortTrace`]) so recording never
/// re-copies the multi-megabyte prefix and shadow replays index it by
/// cycle. Campaigns keep it only for the scalar engine's port
/// comparator; a batched campaign's golden pass records the run and the
/// checkpoints alone ([`Workload::golden_record_for`]).
#[derive(Debug, Clone)]
pub struct GoldenCapture<S = CpuState> {
    /// Timing/output statistics, as [`Workload::golden_run`] reports.
    pub run: GoldenRun,
    /// One [`PortSet`] per cycle until halt, as
    /// [`Workload::golden_trace`] reports.
    pub trace: PortTrace,
    /// Snapshots every `interval` cycles, starting at cycle 0.
    pub checkpoints: GoldenCheckpoints<S>,
}

/// Result of a fault-free reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRun {
    /// `true` if the kernel reached its final `ecall`.
    pub halted: bool,
    /// Total cycles from reset to halt.
    pub cycles: u64,
    /// Rolling checksum of everything the kernel published.
    pub output_checksum: u32,
    /// Number of words the kernel published.
    pub outputs: usize,
    /// Number of retired instructions.
    pub instructions: u64,
}

impl Workload {
    /// All kernels in the suite.
    pub fn all() -> &'static [Workload] {
        kernels::ALL
    }

    /// Looks a kernel up by name, searching the default suite, the extra
    /// (ablation) kernels, the compiled-LC registry (`lc_<kernel>` names,
    /// see [`lc`]), and — for `fuzz<seed>_<index>` names — the
    /// deterministic generated-program registry (see [`fuzz`]), so
    /// archives recorded over fuzz or compiled workloads re-resolve to
    /// identical programs.
    pub fn find(name: &str) -> Option<&'static Workload> {
        if let Some(w) = kernels::ALL.iter().chain(kernels::extra()).find(|w| w.name == name) {
            return Some(w);
        }
        if let Some(kernel) = lc::parse_name(name) {
            return lc::compiled(kernel);
        }
        let (seed, index) = fuzz::parse_name(name)?;
        Some(fuzz::generated(seed, index))
    }

    /// Assembles the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to assemble (a bug in this
    /// crate, covered by tests).
    pub fn assemble(&self) -> Program {
        assemble(self.source)
            .unwrap_or_else(|e| panic!("kernel `{}` failed to assemble: {e}", self.name))
    }

    /// Builds a loaded memory system for this kernel with the given
    /// stimulus seed.
    pub fn memory(&self, stimulus_seed: u64) -> Memory {
        let mut mem = Memory::new(RAM_BYTES, stimulus_seed);
        mem.load_image(&self.assemble().to_bytes(RAM_BYTES));
        mem
    }

    /// Runs the kernel fault-free on a single LR5 CPU and reports timing
    /// and the output checksum (shorthand for
    /// [`Workload::golden_run_for`]`::<Cpu>`).
    pub fn golden_run(&self, stimulus_seed: u64, max_cycles: u64) -> GoldenRun {
        self.golden_run_for::<Cpu>(stimulus_seed, max_cycles)
    }

    /// Runs the kernel fault-free on a single core of model `C` and
    /// reports timing and the output checksum.
    pub fn golden_run_for<C: CoreModel>(&self, stimulus_seed: u64, max_cycles: u64) -> GoldenRun {
        self.golden_loop::<C>(stimulus_seed, max_cycles, None, |_, _| {}).0
    }

    /// The one golden simulation loop: steps the kernel fault-free from
    /// reset until it halts or `max_cycles` steps have run, hands each
    /// cycle's index and ports to `record`, and snapshots the machine
    /// every `checkpoint_interval` cycles when one is given (cycle 0
    /// included).
    fn golden_loop<C: CoreModel>(
        &self,
        stimulus_seed: u64,
        max_cycles: u64,
        checkpoint_interval: Option<u64>,
        mut record: impl FnMut(u64, &PortSet),
    ) -> (GoldenRun, Vec<Checkpoint<C::State>>) {
        let mut mem = self.memory(stimulus_seed);
        let mut core = C::new(0);
        let mut ports = PortSet::new();
        let mut points = Vec::new();
        let (mut cycles, mut halted) = (0, false);
        while cycles < max_cycles && !halted {
            if checkpoint_interval.is_some_and(|i| cycles.is_multiple_of(i)) {
                points.push(Checkpoint { cycle: cycles, cpu: core.snapshot(), mem: mem.clone() });
            }
            halted = core.step(&mut mem, &mut ports).halted;
            record(cycles, &ports);
            cycles += 1;
        }
        let run = GoldenRun {
            halted,
            cycles,
            output_checksum: mem.output_checksum(),
            outputs: mem.output_log().len(),
            instructions: C::arch_instret(core.state()),
        };
        (run, points)
    }

    /// Records the full fault-free port trace (one [`PortSet`] per cycle)
    /// until halt. This is the golden reference the fast fault-injection
    /// path compares against.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not halt within `max_cycles` — golden
    /// traces must cover complete runs.
    pub fn golden_trace(&self, stimulus_seed: u64, max_cycles: u64) -> PortTrace {
        // One checkpoint (cycle 0) is captured and discarded; the
        // single-pass engine below is the only simulation loop.
        self.golden_capture(stimulus_seed, max_cycles, u64::MAX).trace
    }

    /// [`Workload::golden_trace`] over core model `C`.
    ///
    /// # Panics
    ///
    /// As for [`Workload::golden_trace`].
    pub fn golden_trace_for<C: CoreModel>(&self, stimulus_seed: u64, max_cycles: u64) -> PortTrace {
        self.golden_capture_for::<C>(stimulus_seed, max_cycles, u64::MAX).trace
    }

    /// Runs the kernel fault-free **once** and returns everything a
    /// campaign needs: run statistics, the golden port trace, and
    /// resumable checkpoints every `checkpoint_interval` cycles
    /// (cycle 0 always included; an interval of 0 is treated as 1).
    ///
    /// Campaigns previously paid for two full simulations per kernel —
    /// [`Workload::golden_run`] and then [`Workload::golden_trace`];
    /// this merges them and adds checkpoint capture in the same pass.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not halt within `max_cycles` — golden
    /// references must cover complete runs.
    pub fn golden_capture(
        &self,
        stimulus_seed: u64,
        max_cycles: u64,
        checkpoint_interval: u64,
    ) -> GoldenCapture {
        self.golden_capture_for::<Cpu>(stimulus_seed, max_cycles, checkpoint_interval)
    }

    /// [`Workload::golden_capture`] over core model `C` — the single-pass
    /// golden reference of the scalar engine and of every caller that
    /// reads the port trace, regardless of core.
    ///
    /// # Panics
    ///
    /// As for [`Workload::golden_capture`].
    pub fn golden_capture_for<C: CoreModel>(
        &self,
        stimulus_seed: u64,
        max_cycles: u64,
        checkpoint_interval: u64,
    ) -> GoldenCapture<C::State> {
        let mut trace = PortTrace::new();
        let (run, checkpoints) = self.golden_record_for::<C>(
            stimulus_seed,
            max_cycles,
            checkpoint_interval,
            |_, ports| trace.push(*ports),
        );
        GoldenCapture { run, trace, checkpoints }
    }

    /// [`Workload::golden_capture_for`] with the per-cycle record left to
    /// the caller: `record` sees each golden cycle's index and ports, in
    /// order, and keeps what it needs of them. The batched engine keeps
    /// none (its fault-free walker re-produces every port set), and DME
    /// keeps the retire stream alone; the trace a full capture records,
    /// 128 bytes a cycle, was the largest allocation of a campaign job.
    ///
    /// # Panics
    ///
    /// As for [`Workload::golden_capture`].
    pub fn golden_record_for<C: CoreModel>(
        &self,
        stimulus_seed: u64,
        max_cycles: u64,
        checkpoint_interval: u64,
        record: impl FnMut(u64, &PortSet),
    ) -> (GoldenRun, GoldenCheckpoints<C::State>) {
        let interval = checkpoint_interval.max(1);
        let (run, points) =
            self.golden_loop::<C>(stimulus_seed, max_cycles, Some(interval), record);
        assert!(run.halted, "kernel `{}` did not halt within {max_cycles} cycles", self.name);
        (run, GoldenCheckpoints { interval, points })
    }

    /// Convenience: reads a word the kernel published at `offset` within
    /// the output block (for example-level assertions).
    pub fn published(mem: &mut Memory, offset: u32) -> u32 {
        mem.read(lockstep_mem::OUTPUT_BASE + offset).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_kernels() {
        assert_eq!(Workload::all().len(), 12);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::all() {
            assert!(seen.insert(w.name), "duplicate kernel {}", w.name);
        }
    }

    #[test]
    fn find_by_name() {
        assert!(Workload::find("ttsprk").is_some());
        assert!(Workload::find("nope").is_none());
    }

    #[test]
    fn find_resolves_fuzz_names() {
        let w = Workload::find("fuzz42_001").expect("fuzz names resolve");
        assert_eq!(w.name, "fuzz42_001");
        assert!(std::ptr::eq(w, fuzz::generated(42, 1)));
        assert!(Workload::find("fuzzbad_name").is_none());
        assert!(Workload::all().iter().all(|w| !w.name.starts_with("fuzz")));
    }

    #[test]
    fn find_resolves_compiled_lc_names() {
        let w = Workload::find("lc_quicksort").expect("lc names resolve");
        assert_eq!(w.name, "lc_quicksort");
        assert!(std::ptr::eq(w, lc::compiled("quicksort").unwrap()));
        assert!(Workload::find("lc_nope").is_none());
        assert!(Workload::all().iter().all(|w| !w.name.starts_with("lc_")));
    }

    #[test]
    fn every_kernel_assembles() {
        for w in Workload::all() {
            let p = w.assemble();
            assert!(p.len() > 10, "{} suspiciously small", w.name);
        }
    }

    #[test]
    fn every_kernel_halts_and_publishes() {
        for w in Workload::all() {
            let g = w.golden_run(7, 200_000);
            assert!(g.halted, "{} did not halt", w.name);
            assert!(g.outputs > 10, "{} published almost nothing", w.name);
            assert!(g.instructions > 50, "{} retired almost nothing", w.name);
        }
    }

    #[test]
    fn runtimes_span_the_restart_latency_band() {
        // Paper Table II: restart latencies [2k, ~10k, 36k] cycles.
        let mut cycles: Vec<u64> =
            Workload::all().iter().map(|w| w.golden_run(7, 400_000).cycles).collect();
        cycles.sort_unstable();
        let min = cycles[0];
        let max = *cycles.last().unwrap();
        let mean = cycles.iter().sum::<u64>() / cycles.len() as u64;
        assert!(min >= 1_000, "shortest kernel {min} cycles — too trivial");
        assert!(max <= 60_000, "longest kernel {max} cycles — too slow for campaigns");
        assert!((4_000..25_000).contains(&mean), "mean runtime {mean} out of band");
    }

    #[test]
    fn extra_kernels_assemble_halt_and_publish() {
        for w in crate::extra() {
            let g = w.golden_run(7, 400_000);
            assert!(g.halted, "{} did not halt", w.name);
            assert!(g.outputs >= 8, "{} published almost nothing", w.name);
        }
    }

    #[test]
    fn find_covers_extras_without_polluting_the_suite() {
        assert!(Workload::find("cacheb").is_some());
        assert!(Workload::find("aifftr").is_some());
        assert!(Workload::find("basefx").is_some());
        assert!(Workload::all().iter().all(|w| w.name != "cacheb"));
    }

    #[test]
    fn golden_runs_are_deterministic() {
        for w in Workload::all().iter().take(4) {
            let a = w.golden_run(3, 200_000);
            let b = w.golden_run(3, 200_000);
            assert_eq!(a, b, "{} nondeterministic", w.name);
        }
    }

    #[test]
    fn stimulus_seed_changes_outputs() {
        let w = Workload::find("rspeed").unwrap();
        let a = w.golden_run(1, 200_000);
        let b = w.golden_run(2, 200_000);
        assert_ne!(a.output_checksum, b.output_checksum);
    }

    #[test]
    fn golden_trace_length_matches_run() {
        let w = Workload::find("bitmnp").unwrap();
        let g = w.golden_run(5, 200_000);
        let t = w.golden_trace(5, 200_000);
        assert_eq!(t.len(), g.cycles);
    }

    #[test]
    fn golden_capture_agrees_with_separate_passes() {
        let w = Workload::find("canrdr").unwrap();
        let cap = w.golden_capture(11, 200_000, 2048);
        assert_eq!(cap.run, w.golden_run(11, 200_000));
        assert_eq!(cap.trace, w.golden_trace(11, 200_000));
    }

    #[test]
    fn checkpoints_are_spaced_and_start_at_zero() {
        let w = Workload::find("ttsprk").unwrap();
        let cap = w.golden_capture(7, 200_000, 1000);
        let points = &cap.checkpoints.points;
        assert_eq!(points[0].cycle, 0);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.cycle, 1000 * i as u64);
            assert_eq!(p.cpu.cycle, p.cycle, "snapshot bookkeeping out of sync");
            assert!(p.cycle < cap.run.cycles);
        }
        let expected = cap.run.cycles.div_ceil(1000);
        assert_eq!(points.len() as u64, expected);
        assert!(cap.checkpoints.approx_bytes() >= points.len() * RAM_BYTES);
    }

    #[test]
    fn nearest_checkpoint_is_latest_at_or_before() {
        let w = Workload::find("ttsprk").unwrap();
        let cap = w.golden_capture(7, 200_000, 1000);
        assert_eq!(cap.checkpoints.nearest_at(0).unwrap().cycle, 0);
        assert_eq!(cap.checkpoints.nearest_at(999).unwrap().cycle, 0);
        assert_eq!(cap.checkpoints.nearest_at(1000).unwrap().cycle, 1000);
        assert_eq!(cap.checkpoints.nearest_at(2500).unwrap().cycle, 2000);
        let last = cap.checkpoints.points.last().unwrap().cycle;
        assert_eq!(cap.checkpoints.nearest_at(u64::MAX).unwrap().cycle, last);
    }

    #[test]
    fn zero_interval_is_clamped_not_divide_by_zero() {
        let w = Workload::find("bitmnp").unwrap();
        let cap = w.golden_capture(5, 200_000, 0);
        assert_eq!(cap.checkpoints.interval, 1);
        assert_eq!(cap.checkpoints.points.len() as u64, cap.run.cycles);
    }

    #[test]
    fn lr7_golden_run_matches_lr5_architecturally() {
        use lockstep_cpu::Lr7;
        let w = Workload::find("rspeed").unwrap();
        let lr5 = w.golden_run(7, 200_000);
        let lr7 = w.golden_run_for::<Lr7>(7, 400_000);
        assert!(lr7.halted, "LR7 did not halt");
        assert_eq!(lr7.instructions, lr5.instructions, "retired-instruction drift");
        assert_eq!(lr7.outputs, lr5.outputs, "output-count drift");
        assert_eq!(lr7.output_checksum, lr5.output_checksum, "output-order drift");
        assert_ne!(lr7.cycles, lr5.cycles, "distinct microarchitectures should time differently");
    }

    #[test]
    fn lr7_golden_capture_checkpoints_resume_exactly() {
        use lockstep_cpu::{CoreModel, Lr7};
        let w = Workload::find("rspeed").unwrap();
        let cap = w.golden_capture_for::<Lr7>(7, 400_000, 1024);
        assert_eq!(cap.run, w.golden_run_for::<Lr7>(7, 400_000));
        assert_eq!(cap.trace.len(), cap.run.cycles);
        // Resuming from a mid-run checkpoint reproduces the golden trace.
        let point = cap.checkpoints.nearest_at(3000).expect("have checkpoints");
        let mut core = Lr7::from_state(point.cpu.clone());
        let mut mem = point.mem.clone();
        let mut ports = PortSet::new();
        for cycle in point.cycle..cap.run.cycles {
            core.step(&mut mem, &mut ports);
            assert_eq!(
                Some(&ports),
                cap.trace.get(cycle),
                "replay diverged from golden at cycle {cycle}"
            );
        }
        assert!(core.is_halted());
    }
}
