//! The batched fault-simulation engine: many faults per golden replay.
//!
//! The scalar engine in [`campaign`](crate::campaign) pays one full
//! replay — checkpoint restore, fast-forward, overlay-step to detection
//! or trace end — per injection. But every experiment in a campaign is a
//! tiny perturbation of the *same* golden execution, which this engine
//! exploits with three cooperating layers (each independently togglable
//! via [`BatchConfig`]). One engine, [`run_batch_group`], serves every
//! core model: it is generic over [`CoreBatch`] and monomorphized per
//! core, so LR5 and LR7 run the same layers.
//!
//! 1. **Fan-out from checkpoint** — the fault list is sorted by strike
//!    cycle and grouped by the checkpoint span it restores from. One
//!    fault-free *walker* core replays each span once; every fault forks
//!    a faulty machine (a *lane*) off the walker's committed state at
//!    its strike cycle, so the group shares a single restore and a
//!    single pre-fault fast-forward instead of one per injection.
//!    Lanes are *memoryless*: while a lane's port activity still
//!    matches golden its memory image is provably identical to the
//!    walker's, so it executes against the walker's image through a
//!    side-effect-free [`TrialView`] and only forks a private copy at
//!    the moment it first diverges. That fork is the *hand-over*: the
//!    lane, live, goes to the scalar engine's [`run_injection`] as a
//!    [`ReplayStart::Live`] start, against the group's comparator —
//!    the recorded port trace, which detects it on the spot and runs
//!    its DSR capture window, or under DME the retire stream, which
//!    runs it on until a retirement differs or the trace ends.
//! 2. **Dirty-set early-out** — after a transient strikes, its lane is
//!    compared against the walker's state with a witnessed scan of the
//!    core's registry ([`lockstep_cpu::dirty::converged_in`]) every
//!    cycle. The moment the dirty set is seen empty the fault is
//!    provably masked for the rest of the run (the machine is closed:
//!    see DESIGN.md §10) and the lane is retired instead of simulating
//!    to the end of the trace. On a core that supplies register-file
//!    oracles ([`CoreBatch::rf_registry_index`], LR5 today) a lane
//!    whose residue is *confined to architectural registers*
//!    ([`lockstep_cpu::dirty::rf_confined_in`]) goes one step further:
//!    the register file has exactly one read site and one write site in
//!    the pipeline, both decodable from golden's pre-cycle state, so the
//!    lane is parked at zero simulation cost — golden's WB writes clean
//!    its dirty registers (both machines would write the same value),
//!    and the lane wakes only the cycle a dirty register lands in the
//!    decoded read-candidate set ([`CoreBatch::rf_read_candidates`]).
//!    Dead-register residue, the dominant fate of masked transients,
//!    parks to the end of the trace without a single simulated cycle.
//!    On other cores register residue stays a live lane until it
//!    converges.
//! 3. **Bit-parallel parked lanes** — a stuck-at whose forced value
//!    currently equals golden's bit is not simulated at all: it is
//!    *parked* in a [`LaneWatch`], which packs up to 64 stuck-at-0 and
//!    64 stuck-at-1 faults per (register, lane) pair into two `u64`
//!    masks checked against the walker's committed state with two ALU
//!    ops per cycle. The cycle golden's bit first disagrees, the fault
//!    wakes into a scalar lane (the fallback rule); a woken lane that
//!    re-converges with golden is re-parked, up to a small cap. This
//!    identity argument holds on any core. With register-file oracles,
//!    stuck-ats *on register-file flops* use the register-file parking
//!    of layer 2 instead of a watch: even while golden's bit disagrees
//!    with the stuck value the whole divergence is one known register
//!    value, so the fault stays parked until that register is read
//!    rather than waking on every bit flip.
//!
//! The walker doubles as the live golden twin: in shadow replay terms
//! it re-produces the recorded [`PortTrace`] (debug-asserted every
//! cycle), in lockstep terms it *is* the fault-free twin the lanes are
//! compared against. Either way the per-cycle comparison values are
//! identical — which is also why a handed-over lane's continuation
//! compares against the recording in both modes — so one batched
//! engine serves both replay modes and produces archives byte-identical
//! to the scalar engine (`tests/batch_equivalence.rs`,
//! `tests/lr7_equivalence.rs`).

use lockstep_core::Dsr;
use lockstep_cpu::dirty::{converged_in, rf_confined_in, DirtyWitness, LaneWatch};
use lockstep_cpu::flops::{self, FlopReg};
use lockstep_cpu::{dirty, exec, CoreModel, Cpu, Lr7, PortSet, PortTrace};
use lockstep_fault::{Fault, FaultKind};
use lockstep_iss::Retired;
use lockstep_mem::{Memory, TrialLog, TrialView};
use lockstep_workloads::GoldenCheckpoints;

use crate::campaign::{run_injection, Reference, ReplayStart};

/// How many times one stuck-at fault may be re-parked after waking. A
/// fault that keeps oscillating between parked and live costs a watch
/// rebuild per transition; past the cap it simply stays a scalar lane.
const REPARK_CAP: u32 = 4;

/// Which layers of the batched engine are enabled. Fan-out from a
/// shared walker is the substrate and is always on; the two accelerator
/// layers on top are independently togglable so the benchmark can
/// measure the throughput trajectory layer by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Retire a transient's lane the moment its state re-converges with
    /// the walker (dirty-set early-out) instead of stepping it to the
    /// end of the trace.
    pub early_out: bool,
    /// Park agreeing stuck-ats in bit-parallel [`LaneWatch`] masks
    /// instead of stepping a scalar lane for each.
    pub parked_lanes: bool,
}

impl BatchConfig {
    /// Fan-out only: shared restore and walker, every fault a scalar
    /// lane to detection or trace end.
    pub const FAN_OUT: BatchConfig = BatchConfig { early_out: false, parked_lanes: false };
    /// Fan-out plus the dirty-set early-out for transients.
    pub const EARLY_OUT: BatchConfig = BatchConfig { early_out: true, parked_lanes: false };
    /// Fan-out plus bit-parallel parked stuck-at lanes.
    pub const LANES: BatchConfig = BatchConfig { early_out: false, parked_lanes: true };
    /// All three layers (the `--batch-mode` default).
    pub const FULL: BatchConfig = BatchConfig { early_out: true, parked_lanes: true };

    /// Canonical flag/stat spelling of this layer combination.
    pub fn label(self) -> &'static str {
        match (self.early_out, self.parked_lanes) {
            (false, false) => "fanout",
            (true, false) => "earlyout",
            (false, true) => "lanes",
            (true, true) => "full",
        }
    }

    /// Parses a `--batch-mode` flag value: `Some(None)` for `"off"`
    /// (scalar per-fault replay), `Some(Some(_))` for a layer
    /// combination, `None` for an unknown spelling.
    pub fn from_flag(s: &str) -> Option<Option<BatchConfig>> {
        match s {
            "off" => Some(None),
            "fanout" => Some(Some(BatchConfig::FAN_OUT)),
            "earlyout" => Some(Some(BatchConfig::EARLY_OUT)),
            "lanes" => Some(Some(BatchConfig::LANES)),
            "full" => Some(Some(BatchConfig::FULL)),
            _ => None,
        }
    }
}

/// Cost and savings accounting for one batched group.
///
/// Unlike the scalar [`ReplayCost`](crate::campaign::ReplayCost),
/// `replayed_cycles` counts machines actually stepped — walker, lanes,
/// and the hand-over continuations of port-divergent lanes — regardless
/// of replay mode (the walker serves as the golden twin, so lockstep
/// replay costs no extra simulation in batch mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCost {
    /// CPU-cycles actually simulated (walker + lanes + continuations).
    pub replayed_cycles: u64,
    /// Cycles skipped by checkpoint restores/jumps and by faults whose
    /// strike lies past the end of the golden run.
    pub skipped_cycles: u64,
    /// Transients scored masked by the dirty-set early-out before the
    /// end of the trace.
    pub masked_early_out: u64,
    /// Simulated cycles the early-out avoided (trace cycles remaining
    /// at retirement, summed over early-out faults).
    pub early_out_cycles_saved: u64,
    /// Stuck-ats that sat parked in a watch to the end of the trace and
    /// were scored masked without simulating a single cycle.
    pub parked_masked: u64,
    /// Scalar lanes materialized (strike admissions, watch wakes, and
    /// re-activations).
    pub lane_activations: u64,
}

impl BatchCost {
    fn absorb(&mut self, other: BatchCost) {
        self.replayed_cycles += other.replayed_cycles;
        self.skipped_cycles += other.skipped_cycles;
        self.masked_early_out += other.masked_early_out;
        self.early_out_cycles_saved += other.early_out_cycles_saved;
        self.parked_masked += other.parked_masked;
        self.lane_activations += other.lane_activations;
    }
}

/// One faulty machine forked off the walker, stepped in lockstep with
/// it until detection, early-out, or re-park. `outs` indexes every
/// fault sharing this lane (exact duplicates in the plan collapse into
/// one machine). Note what is *not* here: a memory image. A live lane
/// has, by definition, matched golden's ports so far, so its memory is
/// bit-identical to the walker's — it reads the walker's image through
/// a [`TrialView`] and owns ~one core state of private data, which is
/// what lets thousands of lanes stay cache-resident at once.
struct Lane<C> {
    cpu: C,
    fault: Fault,
    outs: Vec<usize>,
    witness: DirtyWitness,
    reparks: u32,
}

/// A stuck-at waiting in a watch: zero simulation until golden's bit
/// disagrees with the stuck value.
struct Parked {
    fault: Fault,
    outs: Vec<usize>,
    reparks: u32,
}

/// All parked faults of one (register, lane) pair, with their packed
/// trigger masks.
struct WatchGroup {
    watch: LaneWatch,
    parked: Vec<Parked>,
}

/// A fault parked because its entire divergence from golden is confined
/// to architectural registers. Costs zero simulation per cycle: the
/// register file's single write site cleans dirty registers as golden
/// retires writes (both machines would write the identical value, which
/// is computed from non-dirty latches), and the single read site —
/// decoded from golden's pre-cycle fetch latch — tells us the exact
/// cycle a dirty register might be observed, which is when the entry
/// wakes into a scalar [`Lane`].
struct RfParked {
    fault: Fault,
    outs: Vec<usize>,
    reparks: u32,
    /// Bit `r - 1` set: the faulty machine's register `r` currently
    /// differs from golden's.
    dirty: u32,
    /// The faulty machine's dirty register values (lane `r - 1` for
    /// register `r`). Clean lanes are never read: those registers equal
    /// golden's live value by definition.
    regs: [u32; 31],
    /// Walker cycle at which the entry parked, for savings accounting.
    park_cycle: u64,
}

/// Aggregate wake filters over the register-file parking lot: the union
/// of all dirty-register masks, the set of registers targeted by parked
/// register-file stuck-ats (whose dirtiness golden's writes can *re*-
/// introduce), and how many parked stuck-ats target a non-RF flop (and
/// so need a per-cycle agreement check against golden's committed
/// state). The common per-cycle case is two mask tests and no per-entry
/// work at all.
fn rf_masks(entries: &[RfParked], rf: u16) -> (u32, u32, usize) {
    let mut dirty_union = 0u32;
    let mut stuck_rf = 0u32;
    let mut nonrf_stuck = 0usize;
    for e in entries {
        dirty_union |= e.dirty;
        if e.fault.kind != FaultKind::Transient {
            if e.fault.flop.reg == rf {
                stuck_rf |= 1 << e.fault.flop.lane;
            } else {
                nonrf_stuck += 1;
            }
        }
    }
    (dirty_union, stuck_rf, nonrf_stuck)
}

/// The faulty machine implied by a parked entry: `base` (golden) with
/// the entry's dirty registers substituted in through the register-file
/// registry entry `rf`.
fn rf_materialize<S: Clone>(rf: &FlopReg<S>, entry: &RfParked, base: &S) -> S {
    let mut st = base.clone();
    for (lane, &v) in entry.regs.iter().enumerate() {
        if entry.dirty & (1 << lane) != 0 {
            rf.write(&mut st, lane, u64::from(v));
        }
    }
    st
}

/// The `dirty` registers of `state`, read through the register-file
/// registry entry `rf` (clean lanes left zero; see [`RfParked::regs`]).
fn rf_dirty_values<S>(rf: &FlopReg<S>, state: &S, dirty: u32) -> [u32; 31] {
    let mut regs = [0u32; 31];
    for (lane, v) in regs.iter_mut().enumerate() {
        if dirty & (1 << lane) != 0 {
            *v = rf.read(state, lane) as u32;
        }
    }
    regs
}

/// A register value with a stuck-at bit forced.
fn forced(v: u32, bit: u8, stuck1: bool) -> u32 {
    if stuck1 {
        v | (1 << bit)
    } else {
        v & !(1 << bit)
    }
}

/// Forks a hand-over memory image off the walker's, recycling a retired
/// image when one is available.
fn fork_mem(mem_pool: &mut Vec<Memory>, wmem: &Memory) -> Memory {
    match mem_pool.pop() {
        Some(mut m) => {
            m.copy_from(wmem);
            m
        }
        None => wmem.clone(),
    }
}

fn park(watches: &mut Vec<WatchGroup>, fault: Fault, outs: Vec<usize>, reparks: u32) {
    let (reg, lane) = (fault.flop.reg, fault.flop.lane);
    let group = match watches.iter_mut().position(|g| g.watch.reg == reg && g.watch.lane == lane) {
        Some(i) => &mut watches[i],
        None => {
            watches.push(WatchGroup { watch: LaneWatch::new(reg, lane), parked: Vec::new() });
            watches.last_mut().expect("just pushed")
        }
    };
    if fault.kind == FaultKind::StuckAt1 {
        group.watch.stuck1 |= 1 << fault.flop.bit;
    } else {
        group.watch.stuck0 |= 1 << fault.flop.bit;
    }
    group.parked.push(Parked { fault, outs, reparks });
}

/// Per-core capabilities of the batched engine, and its entry point.
///
/// Fan-out, the dirty-set early-out and identity parking in watches need
/// nothing beyond the [`CoreModel`] contract: a closed machine whose
/// next state is a pure function of its state and memory, and a flop
/// registry to compare and watch through. So every core runs every
/// layer, and LR5's engine is this one monomorphized for [`Cpu`].
///
/// Register-file parking is the one layer that needs knowledge of the
/// pipeline: where the register file is read and written. It is an
/// optional capability, dispatched statically through the `rf_*`
/// functions below. [`Cpu`] supplies it; [`Lr7`] does not, so LR7
/// register residue stays a live lane until it converges.
pub trait CoreBatch: CoreModel {
    /// The identity: every core runs the layers it is asked for. Kept
    /// only until the benchmark harness drops its call; archives that
    /// recorded an older clamp (LR7 shards labelled `"fanout"`) still
    /// load and merge.
    fn clamp_layers(requested: BatchConfig) -> BatchConfig {
        requested
    }

    /// Runs one batched group on this core model under the port
    /// comparator of fixed and dynamic lockstep: [`run_batch_group`]
    /// with no retire stream.
    fn run_batch_group(
        checkpoints: &GoldenCheckpoints<Self::State>,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
        run_batch_group::<Self>(checkpoints, trace, None, faults, window, layers)
    }

    /// Index in [`CoreModel::registry`] of the architectural register
    /// file — 31 lanes of 32 bits, lane `r - 1` holding register `r` —
    /// when this core supplies the register-file parking oracles, or
    /// `None` (the default) when it does not. A core that returns
    /// `Some` must supply both oracles below.
    fn rf_registry_index() -> Option<u16> {
        None
    }

    /// A superset of the registers the next cycle may read, decoded from
    /// the pre-cycle state (bit `r - 1` for register `r`). Consulted
    /// only when [`CoreBatch::rf_registry_index`] is `Some`.
    fn rf_read_candidates(_pre: &Self::State) -> u32 {
        unreachable!("{} supplies no register-file parking oracles", Self::NAME)
    }

    /// The exact register-file write the next cycle retires, as
    /// `(register, value)`, decoded from the pre-cycle state. Consulted
    /// only when [`CoreBatch::rf_registry_index`] is `Some`.
    fn rf_write_of(_pre: &Self::State) -> Option<(u8, u32)> {
        unreachable!("{} supplies no register-file parking oracles", Self::NAME)
    }
}

/// LR5 supplies the register-file parking oracles: one decoded read
/// site ([`exec::rf_read_candidates`]) and one exact write site
/// ([`exec::rf_write_of`]).
impl CoreBatch for Cpu {
    fn rf_registry_index() -> Option<u16> {
        Some(dirty::rf_registry_index())
    }

    fn rf_read_candidates(pre: &Self::State) -> u32 {
        exec::rf_read_candidates(pre)
    }

    fn rf_write_of(pre: &Self::State) -> Option<(u8, u32)> {
        exec::rf_write_of(pre)
    }
}

/// LR7 runs every layer but register-file parking: its rename and
/// reorder machinery has no single decodable read or write site.
impl CoreBatch for Lr7 {}

/// Runs one batched group on core `C`: every fault in `faults` is
/// injected into the golden execution described by `checkpoints` +
/// `trace`, sharing a single fault-free walker replay of the group's
/// span. Returns one outcome per fault, aligned with the input order:
/// `Some((detect cycle, DSR))` for a manifested error, `None` for a
/// masked fault — bit-identical to running each fault through the
/// scalar engine, whatever the layer set.
///
/// `retire_stream` picks the comparator that decides a lane once its
/// ports first diverge from `trace`: `None` for the port comparator of
/// fixed and dynamic lockstep ([`Reference::Recorded`]), or golden's
/// retire stream ([`crate::dme::retire_stream`] of `trace`) for DME's
/// ([`Reference::RetireStream`]). Either way the lane is handed over
/// live to [`run_injection`], so the outcome equals the scalar replay's
/// against that reference (DESIGN.md §13).
///
/// The walker restores the checkpoint nearest the earliest in-range
/// fault; callers typically pre-group faults so one call covers one
/// checkpoint span, but any fault list works (the walker jumps forward
/// over idle stretches via later checkpoints). Batched groups do not
/// report per-fault checkpoint hit distances — the restore is shared.
pub fn run_batch_group<C: CoreBatch>(
    checkpoints: &GoldenCheckpoints<C::State>,
    trace: &PortTrace,
    retire_stream: Option<&[(u64, Retired)]>,
    faults: &[Fault],
    window: u32,
    layers: BatchConfig,
) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
    assert!(window >= 1, "capture window must be at least one cycle");
    let trace_len = trace.len();
    let reference = match retire_stream {
        None => Reference::Recorded(trace),
        Some(stream) => Reference::RetireStream { cycles: trace_len, stream },
    };
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();

    // Strike order; ties keep input order so exact duplicates collapse
    // deterministically. Faults striking past the golden run are masked
    // by construction (the scalar engine skips them the same way).
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].cycle);
    let in_range: Vec<usize> = order.into_iter().filter(|&i| faults[i].cycle < trace_len).collect();
    cost.skipped_cycles += trace_len * (faults.len() - in_range.len()) as u64;
    let Some(&first) = in_range.first() else {
        return (outcomes, cost);
    };

    let regs = C::registry();
    let cp = checkpoints
        .nearest_at(faults[first].cycle)
        .expect("golden captures always include the cycle-0 checkpoint");
    let mut wcpu = C::from_state(cp.cpu.clone());
    let mut wmem = cp.mem.clone();
    let mut wports = PortSet::new();
    let mut cycle = cp.cycle;
    cost.skipped_cycles += cp.cycle;

    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<Lane<C>> = Vec::new();
    let mut watches: Vec<WatchGroup> = Vec::new();
    // The register-file parking lot stays empty on a core without the
    // oracles, so every phase below that touches it is skipped.
    let mut rf_parked: Vec<RfParked> = Vec::new();
    let rf_idx = C::rf_registry_index();
    // Cached `rf_masks` aggregates, refreshed whenever the lot changes.
    let mut rf_stale = false;
    let (mut rf_dirty_union, mut rf_stuck_rf, mut rf_nonrf_stuck) = (0u32, 0u32, 0usize);
    let mut mem_pool: Vec<Memory> = Vec::new();
    let mut lports = PortSet::new();
    let mut log = TrialLog::new();

    while cycle < trace_len {
        if lanes.is_empty() && watches.is_empty() && rf_parked.is_empty() {
            // Idle: nothing to simulate until the next strike. Jump the
            // walker forward over any checkpoint between here and there.
            let Some(&i) = pending.peek() else {
                break;
            };
            let target = faults[i].cycle;
            if target > cycle {
                let cp = checkpoints
                    .nearest_at(target)
                    .expect("golden captures always include the cycle-0 checkpoint");
                if cp.cycle > cycle {
                    wcpu = C::from_state(cp.cpu.clone());
                    wmem = cp.mem.clone();
                    cost.skipped_cycles += cp.cycle - cycle;
                    cycle = cp.cycle;
                }
            }
        }

        let at = cycle;
        let gp = trace.get(at).expect("walker within the golden trace");

        // (0) Register-file parking lot, checked against the walker's
        // *pre*-cycle state (the same state every machine agrees on for
        // everything outside the dirty registers). Two mask tests filter
        // the common nothing-to-do case; a firing filter pays one pass:
        // an entry whose dirty register sits in this cycle's decoded
        // read-candidate set wakes into a scalar lane (materialized from
        // pre-state, so it steps through `at` with the other lanes), and
        // golden's predicted WB write cleans — or, for a register-file
        // stuck-at's target, re-forces — the written register.
        if let (Some(rf_idx), false) = (rf_idx, rf_parked.is_empty()) {
            if rf_stale {
                (rf_dirty_union, rf_stuck_rf, rf_nonrf_stuck) = rf_masks(&rf_parked, rf_idx);
                rf_stale = false;
            }
            let pre = wcpu.state();
            let reads = C::rf_read_candidates(pre);
            let wr = C::rf_write_of(pre);
            let write_hits =
                wr.is_some_and(|(r, _)| (rf_dirty_union | rf_stuck_rf) & 1 << (r - 1) != 0);
            if reads & rf_dirty_union != 0 || write_hits {
                let mut pi = 0;
                while pi < rf_parked.len() {
                    let e = &mut rf_parked[pi];
                    if reads & e.dirty != 0 {
                        let entry = rf_parked.swap_remove(pi);
                        lanes.push(Lane {
                            cpu: C::from_state(rf_materialize(&regs[rf_idx as usize], &entry, pre)),
                            fault: entry.fault,
                            outs: entry.outs,
                            witness: DirtyWitness::new(),
                            reparks: entry.reparks,
                        });
                        cost.lane_activations += 1;
                        rf_stale = true;
                        continue;
                    }
                    if let Some((r, v)) = wr {
                        let bit = 1u32 << (r - 1);
                        let rf_target = e.fault.kind != FaultKind::Transient
                            && e.fault.flop.reg == rf_idx
                            && e.fault.flop.lane == u16::from(r - 1);
                        if rf_target {
                            let stuck1 = e.fault.kind == FaultKind::StuckAt1;
                            let fv = forced(v, e.fault.flop.bit, stuck1);
                            e.regs[usize::from(r - 1)] = fv;
                            if fv != v {
                                e.dirty |= bit;
                            } else {
                                e.dirty &= !bit;
                            }
                            rf_stale = true;
                        } else if e.dirty & bit != 0 {
                            e.regs[usize::from(r - 1)] = v;
                            e.dirty &= !bit;
                            rf_stale = true;
                            if e.dirty == 0 && e.fault.kind == FaultKind::Transient {
                                // Last dirty register overwritten: the
                                // faulty machine is golden again, masked
                                // for the rest of the run.
                                let n = e.outs.len() as u64;
                                cost.masked_early_out += n;
                                cost.early_out_cycles_saved += (trace_len - e.park_cycle) * n;
                                rf_parked.swap_remove(pi);
                                continue;
                            }
                        }
                    }
                    pi += 1;
                }
            }
        }

        // (1) Step every live lane through cycle `at` *before* the
        // walker, speculatively against the walker's image (which at
        // this point holds golden memory as of the start of `at` —
        // identical to the lane's own, see `Lane`). A lane whose ports
        // still match golden discards its trial log: the walker is
        // about to apply the very same side effects for it. A lane
        // that diverges is materialized on the spot — fork the pre-`at`
        // image and replay the divergent cycle's log onto it — and
        // handed over, live, to the comparator, which decides it from
        // cycle `at` on with real memory, clamped to the end of the
        // golden run like the scalar engine.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            log.clear();
            let mut view = TrialView::new(&wmem, &mut log);
            if f.kind == FaultKind::Transient {
                // Past its strike a transient's overlay is the identity.
                lane.cpu.step(&mut view, &mut lports);
            } else {
                lane.cpu.step_with_overlay(&mut view, &mut lports, |st| f.overlay_for::<C>(st, at));
            }
            cost.replayed_cycles += 1;
            if lports.diff_mask(gp) == 0 {
                li += 1;
                continue;
            }
            let lane = lanes.swap_remove(li);
            let mut mem = fork_mem(&mut mem_pool, &wmem);
            mem.apply_trial(&log);
            let start =
                ReplayStart::Live { state: lane.cpu.state(), mem: &mut mem, ports: &lports, at };
            let handed = run_injection::<C>(start, reference, f, window, None);
            cost.replayed_cycles += handed.cost.replayed_cycles;
            for &o in &lane.outs {
                outcomes[o] = handed.outcome;
            }
            mem_pool.push(mem);
        }

        // (2) Walk the fault-free golden machine through cycle `at`.
        wcpu.step(&mut wmem, &mut wports);
        debug_assert_eq!(
            wports.diff_mask(gp),
            0,
            "fault-free walker diverged from the recorded golden trace at cycle {at}"
        );
        cycle += 1;
        cost.replayed_cycles += 1;
        let committed = wcpu.state();

        // (3) Convergence checks against the walker's committed state
        // (both machines are now post-`at`, so the comparison is exact):
        // a transient whose dirty set emptied is provably masked from
        // here and retires; a lane whose remaining divergence is
        // confined to architectural registers parks in the zero-cost
        // register-file lot (cores with the oracles only); a woken
        // stuck-at whose forced bit agrees with golden again goes back
        // into a zero-cost watch. The witness check comes first in both
        // scans, so a lane that stays divergent costs one compare.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let checked = match lane.fault.kind {
                FaultKind::Transient => layers.early_out,
                _ => layers.parked_lanes && lane.reparks < REPARK_CAP,
            };
            if !checked {
                li += 1;
                continue;
            }
            // Past the re-park cap a transient only gets the cheap
            // full-convergence check; rescanning for an RF-confined
            // residue it is no longer allowed to park on would cost a
            // registry walk every cycle.
            let verdict = match rf_idx {
                Some(rf) if lane.reparks < REPARK_CAP => {
                    rf_confined_in(regs, rf, lane.cpu.state(), committed, &mut lane.witness)
                }
                _ => {
                    converged_in(regs, lane.cpu.state(), committed, &mut lane.witness).then_some(0)
                }
            };
            let Some(dirty) = verdict else {
                li += 1;
                continue;
            };
            if dirty == 0 {
                if lane.fault.kind == FaultKind::Transient {
                    let n = lane.outs.len() as u64;
                    cost.masked_early_out += n;
                    cost.early_out_cycles_saved += (trace_len - cycle) * n;
                    lanes.swap_remove(li);
                } else if Some(lane.fault.flop.reg) == rf_idx {
                    // A register-file stuck-at parks in the RF lot even
                    // when clean: golden's next write to its target may
                    // re-dirty it, which phase (0) tracks exactly.
                    let lane = lanes.swap_remove(li);
                    rf_parked.push(RfParked {
                        fault: lane.fault,
                        outs: lane.outs,
                        reparks: lane.reparks + 1,
                        dirty: 0,
                        regs: [0; 31],
                        park_cycle: cycle,
                    });
                    rf_stale = true;
                } else {
                    let outs = std::mem::take(&mut lane.outs);
                    let reparks = lane.reparks + 1;
                    park(&mut watches, lane.fault, outs, reparks);
                    lanes.swap_remove(li);
                }
            } else {
                // Only the register-file scan reports residue, and only
                // under the re-park cap.
                let rf = rf_idx.expect("register residue implies the register-file scan");
                let lane = lanes.swap_remove(li);
                rf_parked.push(RfParked {
                    fault: lane.fault,
                    outs: lane.outs,
                    reparks: lane.reparks + 1,
                    dirty,
                    regs: rf_dirty_values(&regs[rf as usize], lane.cpu.state(), dirty),
                    park_cycle: cycle,
                });
                rf_stale = true;
            }
        }

        // (4) Wake parked stuck-ats whose bit golden's committed state
        // now disagrees with. Two u64 ops filter each watch group; only
        // a firing group pays the per-entry scan.
        let first_new = lanes.len();
        let mut wi = 0;
        while wi < watches.len() {
            if watches[wi].watch.triggered_in(regs, committed) == 0 {
                wi += 1;
                continue;
            }
            let parked = std::mem::take(&mut watches[wi].parked);
            let mut kept = Vec::new();
            for entry in parked {
                let stuck1 = entry.fault.kind == FaultKind::StuckAt1;
                if flops::get_bit_in(regs, committed, entry.fault.flop) == stuck1 {
                    kept.push(entry);
                    continue;
                }
                // Woken entries forcing the same bit share one machine:
                // their futures are identical from this cycle on.
                if let Some(lane) = lanes[first_new..]
                    .iter_mut()
                    .find(|l| l.fault.flop == entry.fault.flop && l.fault.kind == entry.fault.kind)
                {
                    lane.outs.extend(entry.outs);
                    continue;
                }
                let mut st = committed.clone();
                entry.fault.overlay_for::<C>(&mut st, at);
                lanes.push(Lane {
                    cpu: C::from_state(st),
                    fault: entry.fault,
                    outs: entry.outs,
                    witness: DirtyWitness::new(),
                    reparks: entry.reparks,
                });
                cost.lane_activations += 1;
            }
            let group = &mut watches[wi];
            group.parked = kept;
            group.watch.stuck0 = 0;
            group.watch.stuck1 = 0;
            for entry in &group.parked {
                if entry.fault.kind == FaultKind::StuckAt1 {
                    group.watch.stuck1 |= 1 << entry.fault.flop.bit;
                } else {
                    group.watch.stuck0 |= 1 << entry.fault.flop.bit;
                }
            }
            if group.parked.is_empty() {
                watches.swap_remove(wi);
            } else {
                wi += 1;
            }
        }

        // (4b) RF-parked stuck-ats targeting a *non*-RF flop stay in
        // provable lockstep only while golden's bit agrees with the
        // stuck value (the watch condition); the cycle it first
        // disagrees the overlay would smear a fresh non-RF diff, so the
        // entry wakes into a scalar lane off the committed state, dirty
        // registers substituted in — exactly like a watch wake, plus
        // residue. (An entry parked by phase (3) this very cycle was
        // verified agreeing against this same committed state, so the
        // possibly stale `rf_nonrf_stuck` guard cannot miss a wake.)
        if let (Some(rf_idx), true) = (rf_idx, rf_nonrf_stuck > 0 && !rf_parked.is_empty()) {
            let mut pi = 0;
            while pi < rf_parked.len() {
                let e = &rf_parked[pi];
                if e.fault.kind == FaultKind::Transient || e.fault.flop.reg == rf_idx {
                    pi += 1;
                    continue;
                }
                let stuck1 = e.fault.kind == FaultKind::StuckAt1;
                if flops::get_bit_in(regs, committed, e.fault.flop) == stuck1 {
                    pi += 1;
                    continue;
                }
                let entry = rf_parked.swap_remove(pi);
                let mut st = rf_materialize(&regs[rf_idx as usize], &entry, committed);
                entry.fault.overlay_for::<C>(&mut st, at);
                lanes.push(Lane {
                    cpu: C::from_state(st),
                    fault: entry.fault,
                    outs: entry.outs,
                    witness: DirtyWitness::new(),
                    reparks: entry.reparks,
                });
                cost.lane_activations += 1;
                rf_stale = true;
            }
        }

        // (5) Admit faults striking at `at`: the overlay lands in the
        // committed state of this cycle (ports are computed pre-overlay,
        // so the strike cycle itself can never diverge — the scalar
        // engines' compare there is identically zero).
        while pending.peek().is_some_and(|&i| faults[i].cycle == at) {
            let i = pending.next().expect("peeked");
            let f = faults[i];
            if let Some(lane) = lanes.iter_mut().find(|l| l.fault == f) {
                lane.outs.push(i);
                continue;
            }
            if let Some(entry) =
                watches.iter_mut().flat_map(|g| g.parked.iter_mut()).find(|e| e.fault == f)
            {
                entry.outs.push(i);
                continue;
            }
            if let Some(entry) = rf_parked.iter_mut().find(|e| e.fault == f) {
                entry.outs.push(i);
                continue;
            }
            // Faults striking a register-file flop park instantly: the
            // strike *is* an RF-confined divergence by construction, so
            // no lane is ever materialized for them.
            if let Some(rf) = rf_idx.filter(|&rf| f.flop.reg == rf) {
                let lane = usize::from(f.flop.lane);
                let g = regs[rf as usize].read(committed, lane) as u32;
                let (fv, dirty) = if f.kind == FaultKind::Transient {
                    if !layers.early_out {
                        // fall through to a scalar lane below
                        (0, None)
                    } else {
                        (g ^ 1 << f.flop.bit, Some(1u32 << f.flop.lane))
                    }
                } else if !layers.parked_lanes {
                    (0, None)
                } else {
                    let fv = forced(g, f.flop.bit, f.kind == FaultKind::StuckAt1);
                    (fv, Some(if fv == g { 0 } else { 1 << f.flop.lane }))
                };
                if let Some(dirty) = dirty {
                    let mut regs = [0; 31];
                    regs[lane] = fv;
                    rf_parked.push(RfParked {
                        fault: f,
                        outs: vec![i],
                        reparks: 0,
                        dirty,
                        regs,
                        park_cycle: cycle,
                    });
                    rf_stale = true;
                    continue;
                }
            }
            let stuck1 = f.kind == FaultKind::StuckAt1;
            let agrees = f.kind != FaultKind::Transient
                && flops::get_bit_in(regs, committed, f.flop) == stuck1;
            if agrees && layers.parked_lanes {
                park(&mut watches, f, vec![i], 0);
                continue;
            }
            let mut st = committed.clone();
            f.overlay_for::<C>(&mut st, at);
            lanes.push(Lane {
                cpu: C::from_state(st),
                fault: f,
                outs: vec![i],
                witness: DirtyWitness::new(),
                reparks: 0,
            });
            cost.lane_activations += 1;
        }
    }

    // Faults still parked (or still live) at the end of the trace are
    // masked; `outcomes` already says so. Parked ones never cost a
    // simulated cycle — worth counting.
    for group in &watches {
        for entry in &group.parked {
            cost.parked_masked += entry.outs.len() as u64;
        }
    }
    for entry in &rf_parked {
        let n = entry.outs.len() as u64;
        if entry.fault.kind == FaultKind::Transient {
            cost.masked_early_out += n;
            cost.early_out_cycles_saved += (trace_len - entry.park_cycle) * n;
        } else {
            cost.parked_masked += n;
        }
    }
    (outcomes, cost)
}

/// Convenience for stats assembly: sums a sequence of group costs.
pub fn total_cost(costs: impl IntoIterator<Item = BatchCost>) -> BatchCost {
    let mut total = BatchCost::default();
    for c in costs {
        total.absorb(c);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_spellings_round_trip() {
        for layers in
            [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES, BatchConfig::FULL]
        {
            assert_eq!(BatchConfig::from_flag(layers.label()), Some(Some(layers)));
        }
        assert_eq!(BatchConfig::from_flag("off"), Some(None));
        assert_eq!(BatchConfig::from_flag("warp"), None);
    }

    #[test]
    fn total_cost_sums_fields() {
        let a = BatchCost { replayed_cycles: 5, masked_early_out: 2, ..BatchCost::default() };
        let b = BatchCost { replayed_cycles: 7, parked_masked: 1, ..BatchCost::default() };
        let t = total_cost([a, b]);
        assert_eq!(t.replayed_cycles, 12);
        assert_eq!(t.masked_early_out, 2);
        assert_eq!(t.parked_masked, 1);
    }
}
