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
//! 1. **Fan-out from one walker** — the fault list is taken in strike
//!    order. One fault-free *walker* core restores the checkpoint
//!    nearest the first strike and walks the golden execution forward
//!    once, jumping ahead through a later checkpoint whenever nothing is
//!    live or parked; every fault forks a faulty machine (a *lane*) off
//!    the walker's committed state at its strike cycle, so the list
//!    shares one walk instead of paying a restore and a pre-fault
//!    fast-forward per injection. The campaign queue hands each kernel's
//!    faults over as one list, or as a few strike-ordered runs cut at
//!    checkpoint boundaries when there are more threads than kernels, so
//!    a walker steps each golden cycle at most once per run.
//!    Lanes are *memoryless*: while a lane's port activity still
//!    matches golden its memory image is provably identical to the
//!    walker's, so it executes against the walker's image through a
//!    side-effect-free [`TrialView`] and only forks a private copy at
//!    the moment it first diverges. That fork is the *hand-over*: the
//!    lane, live, goes to the scalar engine's [`run_injection`] as a
//!    [`ReplayStart::Live`] start, against the group's comparator —
//!    golden's ports, which detect it on the spot and run its DSR
//!    capture window, or under DME the retire stream, which runs it on
//!    until a retirement differs or the golden run ends.
//! 2. **Dirty-set early-out** — after a transient strikes, its lane is
//!    compared against the walker's state every cycle: a witnessed
//!    (register, lane) compare, then on a miss the core's exact registry
//!    diff, generated with its registry
//!    ([`lockstep_cpu::flops::FlopState::registry_diff`]). The moment
//!    the dirty set is seen empty the fault is
//!    provably masked for the rest of the run (the machine is closed:
//!    see DESIGN.md §10) and the lane is retired instead of simulating
//!    to the end of the trace. Each core's word-parking oracles
//!    ([`CoreModel::park_words`]) let a lane whose residue is *confined
//!    to parkable words* ([`lockstep_cpu::dirty::park_confined_in`]:
//!    the registers, CSRs, `cycle`/`instret` counters and `hartid` of
//!    either core, plus LR5's return-address-stack entries and DMCU and
//!    MDV latches, and LR7's BTB targets and tags, `flushes` counter,
//!    fetch and dispatch latches, and the value fields of its
//!    reservation stations and load/store queue; up to 128 words, one
//!    bit each in a `u128` mask) goes one step
//!    further: it parks at zero simulation cost. A cycle that reads none
//!    of its dirty words is golden's cycle on the faulty machine too, so
//!    the words such a cycle reads and writes follow from golden's
//!    pre-cycle state and recorded ports ([`CoreModel::park_reads`],
//!    [`CoreModel::park_writes`]). Golden's writes clean the dirty words
//!    they hit, a parked counter counts exactly golden's increments
//!    ([`CoreModel::park_advancing`]), and the entry wakes only the
//!    cycle a dirty word lands in the read set, or in a compare-only
//!    read ([`CoreModel::park_compares`], LR7's BTB tag matches) whose
//!    key the entry's value or golden's equals. Dead-word residue, the
//!    dominant fate of masked transients, parks to the end of the trace
//!    without a single simulated cycle; on LR7 that includes residue in
//!    a reservation station or queue slot golden holds free, which parks
//!    until a dispatch overwrites it.
//! 3. **Bit-parallel parked lanes** — a stuck-at whose forced value
//!    currently equals golden's bit is not simulated at all: it is
//!    *parked* in the same word lot, which indexes its entries on flops
//!    outside the words by (register, lane) pair under a [`LaneWatch`]
//!    that packs up to 64 stuck-at-0 and 64 stuck-at-1 faults into two
//!    `u64` masks, checked against the walker's committed state with two
//!    ALU ops per cycle. The cycle golden's bit first disagrees, the
//!    fault wakes into a scalar lane (the fallback rule), any word
//!    residue it parked with substituted in; a woken lane that
//!    re-converges with golden is re-parked, every time it does. This
//!    identity argument holds on any core. Stuck-ats *on parkable words*
//!    need no watch: even while golden's bit disagrees with the stuck
//!    value the whole divergence is one known word value, so the fault
//!    stays parked until that word is read rather than waking on every
//!    bit flip.
//!
//! The walker is the golden reference: in lockstep terms it *is* the
//! fault-free twin the lanes are compared against, and it steps first
//! each cycle, so its ports are golden's ports of the cycle and no
//! recorded [`PortTrace`] is read. Its port sets are the ones the golden
//! pass would have recorded (`campaign.rs`'s
//! `the_record_only_golden_pass_matches_the_full_capture`), so a
//! fixed-mode hand-over is decided against the walker's own port sets of
//! its capture window: it waits, its lane's machine and image set
//! aside, until the walker has produced them or the golden run ends
//! (DESIGN.md §13). The per-cycle comparison values are the scalar
//! engine's, so the batched engine produces archives byte-identical to
//! it (`tests/batch_equivalence.rs`, `tests/lr7_equivalence.rs`).

use std::collections::VecDeque;

use lockstep_core::Dsr;
use lockstep_cpu::dirty::{park_confined_in, DirtyWitness, LaneWatch};
use lockstep_cpu::flops::{self, FlopId, FlopReg};
use lockstep_cpu::{CoreModel, Cpu, Lr7, PortSet, PortTrace};
use lockstep_fault::{Fault, FaultKind};
use lockstep_iss::Retired;
use lockstep_mem::{Memory, TrialLog, TrialView};
use lockstep_workloads::{Checkpoint, GoldenCheckpoints};

use crate::campaign::{run_injection, Recording, Reference, ReplayStart};

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

    /// Canonical stat spelling of this layer combination. Only `full`
    /// is a flag value; the intermediate layer sets are ablation
    /// labels (`bench_campaign`'s trajectory table).
    pub fn label(self) -> &'static str {
        match (self.early_out, self.parked_lanes) {
            (false, false) => "fanout",
            (true, false) => "earlyout",
            (false, true) => "lanes",
            (true, true) => "full",
        }
    }

    /// Parses a `--batch-mode` flag value: `Some(None)` for `"off"`
    /// (scalar per-fault replay), `Some(Some(FULL))` for `"full"`,
    /// `None` for any other spelling.
    pub fn from_flag(s: &str) -> Option<Option<BatchConfig>> {
        match s {
            "off" => Some(None),
            "full" => Some(Some(BatchConfig::FULL)),
            _ => None,
        }
    }
}

/// Cost and savings accounting for one batched group.
///
/// Unlike the scalar [`ReplayCost`](crate::campaign::ReplayCost),
/// `replayed_cycles` counts machines actually stepped — walker, lanes,
/// and the hand-over continuations of port-divergent lanes (the walker
/// serves as the golden twin, so the port compare costs no extra
/// simulation in batch mode).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCost {
    /// CPU-cycles actually simulated (walker + lanes + continuations).
    pub replayed_cycles: u64,
    /// The walker's share of `replayed_cycles`: golden cycles stepped by
    /// the fault-free walker. At most the golden run's length per call.
    pub walker_cycles: u64,
    /// Cycles skipped by checkpoint restores/jumps and by faults whose
    /// strike lies past the end of the golden run.
    pub skipped_cycles: u64,
    /// Transients scored masked by the dirty-set early-out before the
    /// end of the trace.
    pub masked_early_out: u64,
    /// Simulated cycles the early-out avoided (trace cycles remaining
    /// at retirement, summed over early-out faults).
    pub early_out_cycles_saved: u64,
    /// Stuck-ats that sat parked in the lot to the end of the trace and
    /// were scored masked without simulating a single cycle.
    pub parked_masked: u64,
    /// Scalar lanes materialized: strike admissions, and every wake
    /// from the lot. A fault that wakes, re-converges and re-parks again
    /// and again counts each round trip.
    pub lane_activations: u64,
}

impl BatchCost {
    fn absorb(&mut self, other: BatchCost) {
        self.replayed_cycles += other.replayed_cycles;
        self.walker_cycles += other.walker_cycles;
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
}

impl<C: CoreModel> Lane<C> {
    fn new(state: C::State, fault: Fault, outs: Vec<usize>) -> Self {
        Lane { cpu: C::from_state(state), fault, outs, witness: DirtyWitness::new() }
    }
}

/// Most advancing words a core may declare
/// ([`CoreModel::park_advancing`]): `cycle` and `instret` on each core,
/// and LR7's `flushes`.
const MAX_ADVANCING: usize = 3;

/// Most parkable words a core may declare ([`CoreModel::park_words`]),
/// the width of the word masks.
const MAX_WORDS: usize = 128;

/// A parked fault, whose entire divergence from golden is confined to
/// parkable words (registers, CSRs, counters and `hartid`, plus LR5's
/// RAS entries and DMCU and MDV latches and LR7's BTB targets and tags
/// and reservation-station and load/store-queue values; see
/// [`CoreModel::park_words`]), or is nothing at all. Costs zero
/// simulation per cycle: a cycle that reads none of the dirty words is
/// golden's cycle on the faulty machine too, so golden's writes clean
/// the words they write (both machines write the identical value), an
/// advancing word counts exactly golden's increments, and the read
/// oracles tell us the exact cycle a dirty word might be observed,
/// which is when the entry wakes into a scalar [`Lane`]. A stuck-at on
/// a flop outside the words also wakes the cycle golden's bit leaves
/// the stuck value ([`WordParked::watched`]).
struct WordParked {
    fault: Fault,
    outs: Vec<usize>,
    /// Bit `w` set: the faulty machine's word `w` currently differs from
    /// golden's.
    dirty: u128,
    /// The word a stuck-at forces (one bit), or 0 for a transient or a
    /// stuck-at outside the parkable words. Golden's writes re-force it.
    target: u128,
    /// The faulty machine's values of the words in `dirty | target`, in
    /// word order ([`WordParked::slot`]). A clean target's value is never
    /// read: clean words equal golden's live value by definition. An
    /// advancing word holds its value at park.
    vals: Vec<u64>,
    /// Golden's value of each dirty advancing word at park, by the word's
    /// rank among the advancing words: the faulty copy has counted
    /// exactly golden's increments since.
    anchor: [u64; MAX_ADVANCING],
    /// Walker cycle at which the entry parked, for savings accounting.
    park_cycle: u64,
}

impl WordParked {
    /// A stuck-at on a flop outside the words, which the lot's watch
    /// index holds: golden's bit must agree with the stuck value every
    /// cycle it stays parked.
    fn watched(&self) -> bool {
        self.fault.kind != FaultKind::Transient && self.target == 0
    }

    /// Index in `vals` of word `w`.
    fn slot(&self, w: usize) -> usize {
        rank(self.dirty | self.target, w)
    }
}

/// The parking lot of one batched run, with the core's word layout and
/// two indexes into its entries: from each word to the entries holding
/// it, and from each (register, lane) pair outside the words to the
/// stuck-ats watching a bit of it.
struct WordLot<S: 'static> {
    regs: &'static [FlopReg<S>],
    words: &'static [(u16, u8)],
    /// Registry slot `(entry, lane)` of every word, indexed by word.
    slots: [(u16, u16); MAX_WORDS],
    /// The advancing words ([`CoreModel::park_advancing`]).
    advancing: u128,
    /// The parked entries. A removed entry leaves its place empty until
    /// the next park, so an entry's index never changes.
    entries: Vec<Option<WordParked>>,
    /// The empty places in `entries`.
    free: Vec<usize>,
    /// For each word, the indices of the entries that *hold* it: whose
    /// `dirty | target` has it. A cycle's reads and writes visit only
    /// the holders of the words they touch, so a lot of thousands of
    /// entries costs what its few touched entries cost.
    holders: [Vec<usize>; MAX_WORDS],
    /// The words with at least one holder.
    held: u128,
    /// The watch index: for each (register, lane) pair with a
    /// [watched](WordParked::watched) entry on it, a [`LaneWatch`] whose
    /// masks are the OR of its entries' stuck bits, and those entries'
    /// indices. No group is empty.
    watches: Vec<(LaneWatch, Vec<usize>)>,
}

impl<S: Clone> WordLot<S> {
    fn new(regs: &'static [FlopReg<S>], words: &'static [(u16, u8)], advancing: u128) -> Self {
        assert!(advancing.count_ones() as usize <= MAX_ADVANCING, "too many advancing words");
        let mut slots = [(0, 0); MAX_WORDS];
        for &(r, first) in words {
            for lane in 0..regs[r as usize].lanes {
                slots[usize::from(first) + usize::from(lane)] = (r, lane);
            }
        }
        WordLot {
            regs,
            words,
            slots,
            advancing,
            entries: Vec::new(),
            free: Vec::new(),
            holders: std::array::from_fn(|_| Vec::new()),
            held: 0,
            watches: Vec::new(),
        }
    }

    /// Whether no fault is parked.
    fn is_empty(&self) -> bool {
        self.free.len() == self.entries.len()
    }

    /// The word `flop` lies in, if it lies in one.
    fn word_of(&self, flop: FlopId) -> Option<usize> {
        self.words
            .iter()
            .find(|&&(r, _)| r == flop.reg)
            .map(|&(_, first)| usize::from(first) + usize::from(flop.lane))
    }

    /// Word `w` of `state`.
    fn read(&self, state: &S, w: usize) -> u64 {
        let (r, lane) = self.slots[w];
        self.regs[r as usize].read(state, usize::from(lane))
    }

    /// The `dirty` words of `state`, in word order.
    fn values(&self, state: &S, dirty: u128) -> Vec<u64> {
        bits(dirty).map(|w| self.read(state, w)).collect()
    }

    /// Parks a fault whose machine differs from `golden`, golden's state
    /// at the same cycle, in the `dirty` words alone, holding `vals`
    /// there (in word order). A stuck-at on an advancing word is dirty
    /// from here on whatever its value: golden's counter moves on, and no
    /// golden write ever re-forces the word. A stuck-at outside the words
    /// must force the bit golden holds.
    #[allow(clippy::too_many_arguments)]
    fn park(
        &mut self,
        fault: Fault,
        outs: Vec<usize>,
        dirty: u128,
        mut vals: Vec<u64>,
        golden: &S,
        at: u64,
    ) {
        debug_assert_eq!(vals.len(), dirty.count_ones() as usize);
        let target = match fault.kind {
            FaultKind::Transient => 0,
            _ => self.word_of(fault.flop).map_or(0, |w| 1 << w),
        };
        // A clean target's place holds golden's value, which a counter
        // needs as its value at park.
        for w in bits(target & !dirty) {
            vals.insert(rank(dirty, w), self.read(golden, w));
        }
        let dirty = dirty | (target & self.advancing);
        let mut anchor = [0; MAX_ADVANCING];
        for w in bits(dirty & self.advancing) {
            anchor[rank(self.advancing, w)] = self.read(golden, w);
        }
        let entry = WordParked { fault, outs, dirty, target, vals, anchor, park_cycle: at };
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.entries.push(None);
                self.entries.len() - 1
            }
        };
        if entry.watched() {
            let flop = fault.flop;
            let g = self.group_of(flop).unwrap_or_else(|| {
                self.watches.push((LaneWatch::new(flop.reg, flop.lane), Vec::new()));
                self.watches.len() - 1
            });
            let (watch, members) = &mut self.watches[g];
            arm(watch, fault);
            members.push(i);
        }
        self.entries[i] = Some(entry);
        for w in bits(dirty | target) {
            self.holders[w].push(i);
        }
        self.held |= dirty | target;
    }

    /// The watch group of `flop`'s (register, lane) pair, if it has one.
    fn group_of(&self, flop: FlopId) -> Option<usize> {
        self.watches.iter().position(|(w, _)| w.reg == flop.reg && w.lane == flop.lane)
    }

    /// Removes entry `i` from the lot and from both indexes. A watch
    /// group left empty goes, and the last group takes its place.
    fn remove(&mut self, i: usize) -> WordParked {
        let entry = self.entries[i].take().expect("a parked entry");
        for w in bits(entry.dirty | entry.target) {
            let list = &mut self.holders[w];
            list.swap_remove(list.iter().position(|&h| h == i).expect("entry holds its word"));
            if list.is_empty() {
                self.held &= !(1 << w);
            }
        }
        if entry.watched() {
            let g = self.group_of(entry.fault.flop).expect("a watched entry has a group");
            let (watch, members) = &mut self.watches[g];
            members.swap_remove(members.iter().position(|&m| m == i).expect("entry in its group"));
            if members.is_empty() {
                self.watches.swap_remove(g);
            } else {
                // Another entry may watch the bit this one did.
                (watch.stuck0, watch.stuck1) = (0, 0);
                for &m in members.iter() {
                    arm(watch, self.entries[m].as_ref().expect("watched entries are parked").fault);
                }
            }
        }
        self.free.push(i);
        entry
    }

    /// Removes entry `i` and returns its faulty machine: `base` (golden)
    /// with the entry's dirty words substituted in. An advancing word
    /// wakes as its value at park advanced by golden's count since.
    fn unpark(&mut self, i: usize, base: &S) -> (WordParked, S) {
        let entry = self.remove(i);
        let mut st = base.clone();
        for w in bits(entry.dirty) {
            let (r, lane) = self.slots[w];
            let reg = &self.regs[r as usize];
            let mut v = entry.vals[entry.slot(w)];
            if self.advancing >> w & 1 != 0 {
                let mask = u64::MAX >> (64 - u32::from(reg.width));
                let golden_delta = reg
                    .read(base, usize::from(lane))
                    .wrapping_sub(entry.anchor[rank(self.advancing, w)]);
                if entry.target >> w & 1 == 0 {
                    v = v.wrapping_add(golden_delta);
                } else {
                    // A stuck-at re-forces its bit after every increment.
                    // The steps are at most the cycles since park, paid
                    // only on a wake.
                    let stuck1 = entry.fault.kind == FaultKind::StuckAt1;
                    for _ in 0..golden_delta & mask {
                        v = forced(v.wrapping_add(1) & mask, entry.fault.flop.bit, stuck1);
                    }
                }
            }
            reg.write(&mut st, usize::from(lane), v);
        }
        (entry, st)
    }

    /// Whether golden's `committed` state fires a watch group: two `u64`
    /// ops per group. The engine asks every cycle, and calls
    /// [`WordLot::wake`] only when it does.
    fn fired(&self, committed: &S) -> bool {
        self.watches.iter().any(|(watch, _)| watch.triggered_in(self.regs, committed) != 0)
    }

    /// Removes every watched entry whose bit golden's `committed` state
    /// of cycle `at` no longer agrees with, and returns each with its
    /// faulty machine: `committed` with the entry's dirty words
    /// substituted in and the stuck bit forced. Only a firing group pays
    /// the per-entry scan. Clean entries forcing the same bit wake as one
    /// machine, their futures being identical from here on: the first
    /// woken takes the others' `outs`. Kept out of line: inlined into the
    /// engine's loop, it made `run_batch_group` about 3% slower in an
    /// engine-only timing of lr5-suite's shape.
    #[inline(never)]
    fn wake<C: CoreModel<State = S>>(&mut self, committed: &S, at: u64) -> Vec<(WordParked, S)> {
        let mut woken: Vec<(WordParked, S)> = Vec::new();
        let mut g = 0;
        while g < self.watches.len() {
            let (watch, members) = &self.watches[g];
            if watch.triggered_in(self.regs, committed) == 0 {
                g += 1;
                continue;
            }
            let fired: Vec<usize> = (members.iter().copied())
                .filter(|&i| {
                    let f = self.entries[i].as_ref().expect("watched entries are parked").fault;
                    flops::get_bit_in(self.regs, committed, f.flop)
                        != (f.kind == FaultKind::StuckAt1)
                })
                .collect();
            g += usize::from(fired.len() < members.len());
            for i in fired {
                let (entry, mut st) = self.unpark(i, committed);
                let twin = woken.iter_mut().find(|(w, _)| {
                    (w.dirty, w.fault.flop, w.fault.kind) == (0, entry.fault.flop, entry.fault.kind)
                });
                if let Some((twin, _)) = twin.filter(|_| entry.dirty == 0) {
                    twin.outs.extend(entry.outs);
                    continue;
                }
                entry.fault.overlay_for::<C>(&mut st, at);
                woken.push((entry, st));
            }
        }
        woken
    }
}

/// Sets `f`'s stuck bit in `watch`'s mask for its stuck value.
fn arm(watch: &mut LaneWatch, f: Fault) {
    if f.kind == FaultKind::StuckAt1 {
        watch.stuck1 |= 1 << f.flop.bit;
    } else {
        watch.stuck0 |= 1 << f.flop.bit;
    }
}

/// Iterates the set bits of a word mask.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            w
        })
    })
}

/// How many words of `mask` lie below word `w`.
fn rank(mask: u128, w: usize) -> usize {
    (mask & ((1 << w) - 1)).count_ones() as usize
}

/// A word value with a stuck-at bit forced.
fn forced(v: u64, bit: u8, stuck1: bool) -> u64 {
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

/// The fault-free walker: golden's machine and memory image, stepped
/// through a [`TrialView`] of its own image. A step leaves the image as
/// golden's at the start of the cycle, which the lanes step against,
/// until [`Walker::commit`] applies the cycle's side effects. Its ports
/// after a step are golden's ports of that cycle: the walker is the
/// batched engine's golden reference.
pub(crate) struct Walker<C: CoreModel> {
    pub(crate) cpu: C,
    pub(crate) mem: Memory,
    pub(crate) ports: PortSet,
    /// Golden's state before the cycle last stepped, which the lot's
    /// oracles read.
    pub(crate) pre: C::State,
    log: TrialLog,
}

impl<C: CoreModel> Walker<C> {
    /// A walker resumed from golden checkpoint `cp`.
    pub(crate) fn resume(cp: &Checkpoint<C::State>) -> Walker<C> {
        Walker {
            cpu: C::from_state(cp.cpu.clone()),
            mem: cp.mem.clone(),
            ports: PortSet::new(),
            pre: cp.cpu.clone(),
            log: TrialLog::new(),
        }
    }

    /// Steps golden's machine through one cycle: `ports` are golden's of
    /// the cycle, `pre` its state before, and its side effects wait for
    /// [`Walker::commit`].
    pub(crate) fn step(&mut self) {
        self.log.clear();
        let mut view = TrialView::new(&self.mem, &mut self.log);
        self.cpu.step_keeping_pre(&mut view, &mut self.ports, &mut self.pre);
    }

    /// Applies the side effects of the cycle last stepped to the image.
    pub(crate) fn commit(&mut self) {
        self.mem.apply_trial(&self.log);
    }
}

/// A lane whose ports first diverged from golden's on cycle `at`, with
/// its own memory image after that cycle: the live start of its
/// hand-over ([`ReplayStart::Live`]).
struct HandOver<C> {
    lane: Lane<C>,
    mem: Memory,
    ports: PortSet,
    at: u64,
}

impl<C: CoreModel> HandOver<C> {
    /// Hands the lane over to [`run_injection`] against `reference`,
    /// scores each of its faults with the outcome, and returns its image
    /// to the pool.
    fn decide(
        mut self,
        reference: Reference<'_>,
        window: u32,
        outcomes: &mut [Option<(u64, Dsr)>],
        cost: &mut BatchCost,
        mem_pool: &mut Vec<Memory>,
    ) {
        let start = ReplayStart::Live {
            state: self.lane.cpu.state(),
            mem: &mut self.mem,
            ports: &self.ports,
            at: self.at,
        };
        let handed = run_injection::<C>(start, reference, self.lane.fault, window, None);
        cost.replayed_cycles += handed.cost.replayed_cycles;
        for &o in &self.lane.outs {
            outcomes[o] = handed.outcome;
        }
        mem_pool.push(self.mem);
    }
}

/// The walker's latest port sets: the recording a waiting fixed-mode
/// hand-over is decided against ([`Reference::Recorded`]). It holds
/// golden's ports of the last `ring.len()` cycles recorded without a
/// gap, of a golden run `cycles` long.
#[derive(Debug)]
struct PortWindow {
    ring: Vec<PortSet>,
    /// The first cycle of the gapless stretch the newest cycle ends.
    from: u64,
    /// One past the newest cycle recorded.
    to: u64,
    cycles: u64,
}

impl PortWindow {
    /// A window of `window` cycles (at most the whole run) over a golden
    /// run `cycles` long.
    fn new(window: u32, cycles: u64) -> PortWindow {
        let len = u64::from(window).min(cycles).max(1) as usize;
        PortWindow { ring: vec![PortSet::new(); len], from: 0, to: 0, cycles }
    }

    /// Records golden's ports of `cycle`.
    fn record(&mut self, cycle: u64, ports: &PortSet) {
        if cycle != self.to {
            self.from = cycle;
        }
        let len = self.ring.len() as u64;
        self.ring[(cycle % len) as usize] = *ports;
        self.to = cycle + 1;
    }
}

impl Recording for PortWindow {
    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn ports(&self, cycle: u64) -> &PortSet {
        let len = self.ring.len() as u64;
        assert!(
            cycle >= self.from && cycle < self.to && self.to - cycle <= len,
            "cycle {cycle} is not in the walker's window {}..{}",
            self.from.max(self.to.saturating_sub(len)),
            self.to
        );
        &self.ring[(cycle % len) as usize]
    }
}

/// The batched engine's entry point per core.
///
/// The engine needs nothing beyond the [`CoreModel`] contract: a closed
/// machine whose next state is a pure function of its state and memory,
/// a flop registry to compare and watch through, and the word-parking
/// oracles ([`CoreModel::park_words`] and the rest, dispatched
/// statically), which both cores supply. So every core runs every layer,
/// and each core's engine is [`run_batch_group`] monomorphized for it.
pub trait CoreBatch: CoreModel {
    /// The identity: every core runs the layers it is asked for. Kept
    /// only until the benchmark harness drops its call; archives that
    /// recorded an older clamp (LR7 shards labelled `"fanout"`) still
    /// load and merge.
    fn clamp_layers(requested: BatchConfig) -> BatchConfig {
        requested
    }

    /// Runs one batched group on this core model under the port
    /// comparator of fixed lockstep: [`run_batch_group`] over the golden
    /// run `trace` records, with no retire stream. Only the trace's
    /// length is read.
    fn run_batch_group(
        checkpoints: &GoldenCheckpoints<Self::State>,
        trace: &PortTrace,
        faults: &[Fault],
        window: u32,
        layers: BatchConfig,
    ) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
        run_batch_group::<Self>(checkpoints, trace.len(), None, faults, window, layers)
    }
}

/// LR5, with word parking over its registers, RAS entries, CSRs,
/// counters, `hartid` and DMCU and MDV latches.
impl CoreBatch for Cpu {}

/// LR7, with word parking over its registers, CSRs, counters, `hartid`,
/// BTB targets and tags, fetch and dispatch latches, and the value
/// fields of its reservation stations and load/store queue.
impl CoreBatch for Lr7 {}

/// Runs one batched group on core `C`: every fault in `faults` is
/// injected into the golden execution described by `checkpoints`, a
/// golden run `golden_cycles` long, sharing a single fault-free walker.
/// Returns one outcome per fault, aligned with the input order:
/// `Some((detect cycle, DSR))` for a manifested error, `None` for a
/// masked fault — bit-identical to running each fault through the
/// scalar engine, whatever the layer set.
///
/// The walker is the golden reference: no trace is read. `retire_stream`
/// picks the comparator that decides a lane once its ports first diverge
/// from the walker's: `None` for the port comparator of fixed lockstep
/// ([`Reference::Recorded`], over the walker's own port sets of the
/// capture window), or golden's retire stream
/// ([`crate::dme::retire_stream`]) for DME's
/// ([`Reference::RetireStream`]). Either way the lane is handed over
/// live to [`run_injection`], so the outcome equals the scalar replay's
/// against that reference (DESIGN.md §13).
///
/// Any fault list works. The walker restores the checkpoint nearest the
/// earliest in-range strike, admits each fault into the same lanes and
/// lot at its strike cycle, and jumps forward over idle
/// stretches via later checkpoints, so it steps each golden cycle at
/// most once per call ([`BatchCost::walker_cycles`]). The campaign queue
/// passes a kernel's whole strike-ordered slice, or one of a few runs of
/// it cut at checkpoint boundaries. Batched groups do not report
/// per-fault checkpoint hit distances — the restore is shared.
pub fn run_batch_group<C: CoreBatch>(
    checkpoints: &GoldenCheckpoints<C::State>,
    golden_cycles: u64,
    retire_stream: Option<&[(u64, Retired)]>,
    faults: &[Fault],
    window: u32,
    layers: BatchConfig,
) -> (Vec<Option<(u64, Dsr)>>, BatchCost) {
    assert!(window >= 1, "capture window must be at least one cycle");
    let mut outcomes: Vec<Option<(u64, Dsr)>> = vec![None; faults.len()];
    let mut cost = BatchCost::default();

    // Strike order; ties keep input order so exact duplicates collapse
    // deterministically. Faults striking past the golden run are masked
    // by construction (the scalar engine skips them the same way).
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].cycle);
    let in_range: Vec<usize> =
        order.into_iter().filter(|&i| faults[i].cycle < golden_cycles).collect();
    cost.skipped_cycles += golden_cycles * (faults.len() - in_range.len()) as u64;
    let Some(&first) = in_range.first() else {
        return (outcomes, cost);
    };

    let regs = C::registry();
    let cp = checkpoints
        .nearest_at(faults[first].cycle)
        .expect("golden captures always include the cycle-0 checkpoint");
    let mut walker = Walker::<C>::resume(cp);
    let mut cycle = cp.cycle;
    cost.skipped_cycles += cp.cycle;

    let mut pending = in_range.into_iter().peekable();
    let mut lanes: Vec<Lane<C>> = Vec::new();
    let mut lot = WordLot::new(regs, C::park_words(), C::park_advancing());
    let mut mem_pool: Vec<Memory> = Vec::new();
    let mut lports = PortSet::new();
    let mut log = TrialLog::new();
    let mut strikes: Vec<(Fault, Vec<usize>)> = Vec::new();
    let mut waiting: VecDeque<HandOver<C>> = VecDeque::new();
    let mut recent = PortWindow::new(window, golden_cycles);

    while cycle < golden_cycles {
        if lanes.is_empty() && lot.is_empty() && waiting.is_empty() {
            // Idle: nothing to simulate until the next strike. Jump the
            // walker forward over any checkpoint between here and there.
            // A waiting hand-over needs the walker's every port set up
            // to the end of its window, so the walker never jumps or
            // stops while one waits.
            let Some(&i) = pending.peek() else {
                break;
            };
            let target = faults[i].cycle;
            if target > cycle {
                let cp = checkpoints
                    .nearest_at(target)
                    .expect("golden captures always include the cycle-0 checkpoint");
                if cp.cycle > cycle {
                    walker = Walker::resume(cp);
                    cost.skipped_cycles += cp.cycle - cycle;
                    cycle = cp.cycle;
                }
            }
        }

        // (0) Walk the fault-free golden machine through cycle `at`
        // first: its ports are golden's ports of `at`, and it keeps its
        // state from before the cycle for the lot's oracles. Its image
        // stays golden's as of the start of `at` for the lanes until (2)
        // commits the walker's side effects.
        let at = cycle;
        walker.step();
        cycle += 1;
        cost.replayed_cycles += 1;
        cost.walker_cycles += 1;
        let (gp, pre) = (&walker.ports, &walker.pre);

        // (0b) Word parking lot, checked against the walker's *pre*-cycle
        // state and golden's ports of this cycle, which every parked
        // machine shares with golden until it reads a dirty word
        // (DESIGN.md §10). Only the holders of the words the cycle reads
        // are visited. An entry with a dirty word in the read set wakes
        // into a scalar lane (materialized from pre-state, so it steps
        // through `at` with the other lanes), and so does one with a
        // dirty word a compare-only read tests against a key that its
        // value or golden's equals; the words the cycle writes are
        // applied after the walker's side effects, from its committed
        // values.
        let mut lot_writes = 0u128;
        if lot.held != 0 {
            let (held, reads) = (lot.held, C::park_reads(pre, gp) & lot.held);
            let compares = C::park_compares(pre, gp)
                .filter(|&(w, _)| (held & !reads) >> w & 1 != 0)
                .map(|(w, key)| (w, Some(key)));
            for (w, key) in bits(reads).map(|w| (w, None)).chain(compares) {
                let golden_equal = key.is_some_and(|k| lot.read(pre, w) == k);
                let mut j = 0;
                while let Some(&i) = lot.holders[w].get(j) {
                    let e = lot.entries[i].as_ref().expect("holders are parked");
                    let observed = e.dirty >> w & 1 != 0
                        && key.is_none_or(|k| golden_equal || e.vals[e.slot(w)] == k);
                    if !observed {
                        j += 1;
                        continue;
                    }
                    let (entry, st) = lot.unpark(i, pre);
                    lanes.push(Lane::new(st, entry.fault, entry.outs));
                    cost.lane_activations += 1;
                }
            }
            lot_writes = C::park_writes(pre, gp) & lot.held;
        }

        // (1) Step every live lane through cycle `at`, speculatively
        // against the walker's image (which still holds golden memory
        // as of the start of `at` — identical to the lane's own, see
        // `Lane`). A lane whose ports still match golden discards its
        // trial log: the walker's log holds the very same side effects.
        // A lane that diverges is materialized on the spot — fork the
        // pre-`at` image and replay the divergent cycle's log onto it —
        // and handed over, live, to the comparator, which decides it
        // from cycle `at` on with real memory, clamped to the end of the
        // golden run like the scalar engine. DME's retire comparator
        // takes it at once; the port comparator needs golden's ports of
        // the whole capture window, so the hand-over waits for the
        // walker to produce them.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let f = lane.fault;
            log.clear();
            let mut view = TrialView::new(&walker.mem, &mut log);
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
            let mut mem = fork_mem(&mut mem_pool, &walker.mem);
            mem.apply_trial(&log);
            let handed = HandOver { lane, mem, ports: lports, at };
            match retire_stream {
                Some(stream) => {
                    let reference = Reference::RetireStream { cycles: golden_cycles, stream };
                    handed.decide(reference, window, &mut outcomes, &mut cost, &mut mem_pool);
                }
                None => waiting.push_back(handed),
            }
        }

        // (1b) Waiting hand-overs: the walker's ports of `at` join the
        // window, and each hand-over whose capture window the walker has
        // now produced is decided against it. Hand-overs wait in
        // divergence order, so those decided are a prefix.
        if !waiting.is_empty() {
            recent.record(at, gp);
            while waiting.front().is_some_and(|h| h.at + u64::from(window) - 1 <= at) {
                let handed = waiting.pop_front().expect("a waiting hand-over");
                let reference = Reference::Recorded(&recent);
                handed.decide(reference, window, &mut outcomes, &mut cost, &mut mem_pool);
            }
        }

        // (2) The walker's side effects of cycle `at` land in its image.
        walker.commit();
        let committed = walker.cpu.state();

        // (2b) Golden's writes of cycle `at` clean the dirty words they
        // hit (both machines wrote the identical value), or, for a word
        // stuck-at's target, re-force it from golden's committed value.
        // A transient whose last dirty word is overwritten is golden
        // again: masked for the rest of the run. Only the holders of the
        // written words are visited.
        for w in bits(lot_writes) {
            let g = lot.read(committed, w);
            let mut j = 0;
            while let Some(&i) = lot.holders[w].get(j) {
                let e = lot.entries[i].as_mut().expect("holders are parked");
                let slot = e.slot(w);
                if e.target >> w & 1 != 0 {
                    let fv = forced(g, e.fault.flop.bit, e.fault.kind == FaultKind::StuckAt1);
                    e.vals[slot] = fv;
                    e.dirty = e.dirty & !(1 << w) | u128::from(fv != g) << w;
                    j += 1;
                    continue;
                }
                // Golden's value again: the entry no longer holds the word.
                e.vals.remove(slot);
                e.dirty &= !(1 << w);
                lot.holders[w].swap_remove(j);
                if e.dirty == 0 && e.fault.kind == FaultKind::Transient {
                    let n = e.outs.len() as u64;
                    cost.masked_early_out += n;
                    cost.early_out_cycles_saved += (golden_cycles - e.park_cycle) * n;
                    lot.remove(i);
                }
            }
            if lot.holders[w].is_empty() {
                lot.held &= !(1 << w);
            }
        }

        // (3) Convergence checks against the walker's committed state
        // (both machines are now post-`at`, so the comparison is exact):
        // a transient whose dirty set emptied is provably masked from
        // here and retires; any other lane whose remaining divergence is
        // confined to parkable words, or is nothing at all, parks in the
        // zero-cost lot, however often it has woken before. The witness
        // check comes first, so a lane that stays divergent costs one
        // compare, and a miss costs one registry diff.
        let mut li = 0;
        while li < lanes.len() {
            let lane = &mut lanes[li];
            let checked = match lane.fault.kind {
                FaultKind::Transient => layers.early_out,
                _ => layers.parked_lanes,
            };
            if !checked {
                li += 1;
                continue;
            }
            let verdict =
                park_confined_in(regs, lot.words, lane.cpu.state(), committed, &mut lane.witness);
            let Some(dirty) = verdict else {
                li += 1;
                continue;
            };
            let lane = lanes.swap_remove(li);
            if dirty == 0 && lane.fault.kind == FaultKind::Transient {
                let n = lane.outs.len() as u64;
                cost.masked_early_out += n;
                cost.early_out_cycles_saved += (golden_cycles - cycle) * n;
            } else {
                // Word residue; a word stuck-at even when clean, since
                // golden's next write to its target may re-dirty it,
                // which phase (2b) tracks exactly; or a stuck-at outside
                // the words, whose bit agrees with golden's again.
                let vals = lot.values(lane.cpu.state(), dirty);
                lot.park(lane.fault, lane.outs, dirty, vals, committed, cycle);
            }
        }

        // (4) Wake the parked stuck-ats outside the words whose bit
        // golden's committed state now disagrees with: from this cycle
        // on the overlay would smear a fresh diff. Each wakes off the
        // committed state, its dirty words substituted in.
        if lot.fired(committed) {
            for (entry, st) in lot.wake::<C>(committed, at) {
                lanes.push(Lane::new(st, entry.fault, entry.outs));
                cost.lane_activations += 1;
            }
        }

        // (5) Admit faults striking at `at`: the overlay lands in the
        // committed state of this cycle (ports are computed pre-overlay,
        // so the strike cycle itself can never diverge — the scalar
        // engines' compare there is identically zero). Exact duplicates
        // in the plan share one machine, and since a `Fault` includes
        // its strike cycle only faults striking this same cycle can be
        // duplicates: they collapse here, before admission.
        while let Some(i) = pending.next_if(|&i| faults[i].cycle == at) {
            match strikes.iter_mut().find(|(f, _)| *f == faults[i]) {
                Some((_, outs)) => outs.push(i),
                None => strikes.push((faults[i], vec![i])),
            }
        }
        for (f, outs) in strikes.drain(..) {
            let stuck1 = f.kind == FaultKind::StuckAt1;
            // Faults striking a parkable word park instantly: the strike
            // *is* a word-confined divergence by construction, so no
            // lane is ever materialized for them.
            let word_layer = match f.kind {
                FaultKind::Transient => layers.early_out,
                _ => layers.parked_lanes,
            };
            if let Some(w) = lot.word_of(f.flop).filter(|_| word_layer) {
                let g = lot.read(committed, w);
                let fv = match f.kind {
                    FaultKind::Transient => g ^ 1 << f.flop.bit,
                    _ => forced(g, f.flop.bit, stuck1),
                };
                let (dirty, vals) = if fv == g { (0, Vec::new()) } else { (1 << w, vec![fv]) };
                lot.park(f, outs, dirty, vals, committed, cycle);
                continue;
            }
            let agrees = f.kind != FaultKind::Transient
                && flops::get_bit_in(regs, committed, f.flop) == stuck1;
            if agrees && layers.parked_lanes {
                lot.park(f, outs, 0, Vec::new(), committed, cycle);
                continue;
            }
            let mut st = committed.clone();
            f.overlay_for::<C>(&mut st, at);
            lanes.push(Lane::new(st, f, outs));
            cost.lane_activations += 1;
        }
    }

    // Hand-overs still waiting when the golden run ends: the walker has
    // produced their capture windows up to its end, where the scalar
    // engine clamps them too.
    for handed in waiting.drain(..) {
        let reference = Reference::Recorded(&recent);
        handed.decide(reference, window, &mut outcomes, &mut cost, &mut mem_pool);
    }

    // Faults still parked (or still live) at the end of the trace are
    // masked; `outcomes` already says so. Parked ones never cost a
    // simulated cycle — worth counting.
    for entry in lot.entries.iter().flatten() {
        let n = entry.outs.len() as u64;
        if entry.fault.kind == FaultKind::Transient {
            cost.masked_early_out += n;
            cost.early_out_cycles_saved += (golden_cycles - entry.park_cycle) * n;
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
    use lockstep_cpu::{Lr7State, Sc};
    use lockstep_workloads::GoldenCapture;

    use super::*;

    #[test]
    fn flag_spellings_round_trip() {
        assert_eq!(
            BatchConfig::from_flag(BatchConfig::FULL.label()),
            Some(Some(BatchConfig::FULL))
        );
        assert_eq!(BatchConfig::from_flag("off"), Some(None));
        assert_eq!(BatchConfig::from_flag("warp"), None);
        // The intermediate layer sets are ablation labels, not flags.
        for layers in [BatchConfig::FAN_OUT, BatchConfig::EARLY_OUT, BatchConfig::LANES] {
            assert_eq!(BatchConfig::from_flag(layers.label()), None);
        }
    }

    /// A counter fault parked in the word lot at its strike and woken
    /// `span` cycles later wakes as the machine stepped live with the
    /// overlay over those cycles: every bit of `cycle` and `instret` on
    /// both cores and of LR7's `flushes`, transient and stuck-at-0/1.
    /// `flushes` is 16 bits wide, so golden's copy starts at `0xFFF0` and
    /// the parked span, in which LR7 flushes about 40 times on `canrdr`,
    /// crosses its wrap. No suite kernel reads a counter, so the live
    /// machine differs from golden in the counter alone.
    #[test]
    fn counter_wakes_match_a_live_machine_with_the_overlay() {
        counter_wakes_match::<Cpu>(&[("cycle", None), ("instret", None)]);
        counter_wakes_match::<Lr7>(&[
            ("cycle", None),
            ("instret", None),
            ("flushes", Some(0xFFF0)),
        ]);
    }

    /// `counters` names each counter and, optionally, the value golden's
    /// copy is set to at the strike.
    fn counter_wakes_match<C: CoreBatch>(counters: &[(&str, Option<u64>)]) {
        let (strike, span) = (300u64, 1500u64);
        let w = lockstep_workloads::Workload::find("canrdr").expect("suite kernel");
        let regs = C::registry();
        let reg_of = |name: &str| regs.iter().position(|r| r.name == name).expect("counter");
        let mut mem = w.memory(7);
        let mut golden = C::new(0);
        let mut ports = PortSet::new();
        for _ in 0..=strike {
            golden.step(&mut mem, &mut ports);
        }
        let mut at_strike = golden.snapshot();
        for &(name, start) in counters {
            if let Some(v) = start {
                regs[reg_of(name)].write(&mut at_strike, 0, v);
            }
        }
        golden.restore(&at_strike);
        let mem_at_strike = mem.clone();
        for _ in 0..span {
            golden.step(&mut mem, &mut ports);
        }
        let mut lot = WordLot::new(regs, C::park_words(), C::park_advancing());
        for &(name, start) in counters {
            let reg = reg_of(name) as u16;
            if let Some(v) = start {
                let now = regs[reg as usize].read(golden.state(), 0);
                assert!(now < v, "{} {name}: golden's copy did not wrap in the span", C::NAME);
            }
            let w = lot.word_of(FlopId { reg, lane: 0, bit: 0 }).expect("a parkable word");
            assert!(lot.advancing >> w & 1 != 0, "{} {name} is not an advancing word", C::NAME);
            for bit in 0..regs[reg as usize].width {
                for kind in [FaultKind::Transient, FaultKind::StuckAt0, FaultKind::StuckAt1] {
                    let f = Fault::new(FlopId { reg, lane: 0, bit }, kind, strike);
                    let mut struck = at_strike.clone();
                    f.overlay_for::<C>(&mut struck, strike);
                    let (g, fv) = (lot.read(&at_strike, w), lot.read(&struck, w));
                    let mut live = C::from_state(struck);
                    let (dirty, vals) = if fv == g { (0, Vec::new()) } else { (1 << w, vec![fv]) };
                    lot.park(f, vec![0], dirty, vals, &at_strike, strike);
                    let mut m = mem_at_strike.clone();
                    for at in strike + 1..=strike + span {
                        live.step_with_overlay(&mut m, &mut ports, |st| f.overlay_for::<C>(st, at));
                    }
                    let (_, woken) = lot.unpark(0, golden.state());
                    assert_eq!(&woken, live.state(), "{} {name} bit {bit} {kind:?}", C::NAME);
                }
            }
        }
    }

    /// A woken stuck-at re-parks every time its residue settles back
    /// into parkable words, however often it has woken before. `t0` (x5)
    /// is written and read on every iteration of `rspeed`'s loop, and
    /// golden's value never has bit 20 set: each write re-dirties the
    /// forced bit, each read wakes the fault, and its residue settles
    /// back into the register a few cycles later. The fault wakes more
    /// than the five times a re-park cap of four allowed, and its lane
    /// steps a small share of the cycles left after the strike instead of
    /// all of them, on both cores; its outcome is the scalar engine's.
    #[test]
    fn a_stuck_at_re_parks_every_time_it_converges() {
        re_parks::<Cpu>();
        re_parks::<Lr7>();
    }

    fn re_parks<C: CoreBatch>() {
        let w = lockstep_workloads::Workload::find("rspeed").expect("suite kernel");
        let cap = w.golden_capture_for::<C>(7, 400_000, 1024);
        let regs = C::registry();
        let rf = regs.iter().position(|r| r.name == "regs").expect("register bank") as u16;
        let strike = 150;
        let f = Fault::new(FlopId { reg: rf, lane: 4, bit: 20 }, FaultKind::StuckAt1, strike);
        let (out, cost) = run_batch_group::<C>(
            &cap.checkpoints,
            cap.run.cycles,
            None,
            &[f],
            16,
            BatchConfig::FULL,
        );
        assert!(cost.lane_activations > 5, "{}: woke {} times", C::NAME, cost.lane_activations);
        let lane_cycles = cost.replayed_cycles - cost.walker_cycles;
        assert!(
            lane_cycles < (cap.run.cycles - strike) / 4,
            "{}: the lane stepped {lane_cycles} of {} cycles",
            C::NAME,
            cap.run.cycles - strike
        );
        let scalar = run_injection::<C>(
            ReplayStart::Checkpoint(&cap.checkpoints),
            Reference::Recorded(&cap.trace),
            f,
            16,
            None,
        );
        assert_eq!(out[0], scalar.outcome, "{}: the batched outcome differs", C::NAME);
    }

    /// Phase (4): a stuck-at on a flop outside the parkable words parks
    /// in the lot with its word residue once that residue is
    /// word-confined, and wakes through the watch index the cycle
    /// golden's bit leaves the stuck value. On `a2time`, LR5's `iss_rv1`
    /// bit 8 stuck at 0 from cycle 1866 leaves residue in parkable words;
    /// from there no cycle touches those words before golden's operand
    /// latch next holds a 1 in bit 8. A machine stepped live with the
    /// overlay all along must equal the one the wake returns at that
    /// cycle, and the batched outcome must equal the scalar one.
    #[test]
    fn a_stuck_at_outside_the_words_wakes_from_the_lot() {
        let w = lockstep_workloads::Workload::find("a2time").expect("suite kernel");
        let cap = w.golden_capture_for::<Cpu>(7, 400_000, 1024);
        let regs = Cpu::registry();
        let rv1 = regs.iter().position(|r| r.name == "iss_rv1").expect("operand latch") as u16;
        let strike = 1866;
        let f = Fault::new(FlopId { reg: rv1, lane: 0, bit: 8 }, FaultKind::StuckAt0, strike);

        let (mut golden, mut mem) = golden_before::<Cpu>(&cap, strike);
        let mut ports = PortSet::new();
        let (mut live, mut live_mem) = (golden.clone(), mem.clone());
        let mut lports = PortSet::new();
        let mut lot = WordLot::new(regs, Cpu::park_words(), Cpu::park_advancing());
        let mut parked = None;
        for at in strike..cap.run.cycles {
            let pre = golden.state().clone();
            golden.step(&mut mem, &mut ports);
            live.step_with_overlay(&mut live_mem, &mut lports, |st| f.overlay_for::<Cpu>(st, at));
            assert_eq!(lports.diff_mask(&ports), 0, "the fault reached the ports at {at}");
            if let Some(dirty) = parked {
                assert_eq!(
                    (Cpu::park_reads(&pre, &ports) | Cpu::park_writes(&pre, &ports)) & dirty,
                    0,
                    "cycle {at} touches a dirty word"
                );
                let woken = lot.wake::<Cpu>(golden.state(), at);
                if let [(entry, st)] = woken.as_slice() {
                    assert_eq!(entry.fault, f);
                    assert_eq!(st, live.state(), "(4) woke another machine at {at}");
                    break;
                }
                assert!(woken.is_empty());
                continue;
            }
            let confined = park_confined_in(
                regs,
                lot.words,
                live.state(),
                golden.state(),
                &mut DirtyWitness::new(),
            );
            if let Some(dirty) = confined.filter(|&d| d != 0) {
                let vals = lot.values(live.state(), dirty);
                lot.park(f, vec![0], dirty, vals, golden.state(), at + 1);
                assert!(lot.entries[0].as_ref().is_some_and(WordParked::watched));
                assert_eq!(lot.watches.len(), 1, "the entry is not in the watch index");
                parked = Some(dirty);
            }
        }
        assert!(
            parked.is_some() && lot.is_empty() && lot.watches.is_empty(),
            "the fault never went through (4)"
        );

        let (out, _) = run_batch_group::<Cpu>(
            &cap.checkpoints,
            cap.run.cycles,
            None,
            &[f],
            16,
            BatchConfig::FULL,
        );
        let scalar = run_injection::<Cpu>(
            ReplayStart::Checkpoint(&cap.checkpoints),
            Reference::Recorded(&cap.trace),
            f,
            16,
            None,
        );
        assert_eq!(out[0], scalar.outcome);
    }

    /// Golden's fault-free LR7 run of `rspeed` (stimulus seed 7).
    fn lr7_rspeed() -> GoldenCapture<Lr7State> {
        let w = lockstep_workloads::Workload::find("rspeed").expect("suite kernel");
        w.golden_capture_for::<Lr7>(7, 400_000, 1024)
    }

    /// Golden's machine and memory of `cap` just before cycle `at`.
    fn golden_before<C: CoreModel>(cap: &GoldenCapture<C::State>, at: u64) -> (C, Memory) {
        let cp = cap.checkpoints.nearest_at(at).expect("cycle-0 checkpoint");
        let (mut cpu, mut mem) = (C::from_state(cp.cpu.clone()), cp.mem.clone());
        let mut ports = PortSet::new();
        for _ in cp.cycle..at {
            cpu.step(&mut mem, &mut ports);
        }
        (cpu, mem)
    }

    /// The registry entry of LR7's `name`.
    fn lr7_reg(name: &str) -> u16 {
        Lr7::registry().iter().position(|r| r.name == name).expect("registry entry") as u16
    }

    /// A transient in a reservation station golden holds invalid parks at
    /// its strike and never becomes a lane: nothing reads the station's
    /// values until a dispatch overwrites all four. On LR7 `rspeed`, a
    /// flip of `rs_v1` in such a station leaves a machine, stepped live,
    /// differing from golden in that word alone until the station's next
    /// dispatch, and equal to golden from that cycle on; in a station that
    /// is not dispatched again, in that word alone to the end of the
    /// trace. Either way the batched engine scores it masked, as the
    /// scalar engine does, without a lane activation or a lane step.
    #[test]
    fn a_dead_station_transient_parks_until_its_next_dispatch() {
        let cap = lr7_rspeed();
        let len = cap.trace.len();
        let regs = Lr7::registry();
        let (mut golden, mut mem) = golden_before::<Lr7>(&cap, 0);
        let mut ports = PortSet::new();
        let valid: Vec<u8> = (0..len)
            .map(|_| {
                golden.step(&mut mem, &mut ports);
                golden.state().rs_valid
            })
            .collect();
        let valid = valid.as_slice();
        let idle_from =
            move |k: usize, s: u64| (s..len).take_while(move |&c| valid[c as usize] >> k & 1 == 0);
        // A station idle at a strike past the first checkpoint and
        // dispatched later, and the highest one idle to the end.
        let (k, strike) = (0..8)
            .flat_map(|k| (1100..len).map(move |s| (k, s)))
            .find(|&(k, s)| idle_from(k, s).count() > 10 && idle_from(k, s).last() < Some(len - 1))
            .expect("a station idle for a while, then dispatched");
        let dispatch = idle_from(k, strike).last().expect("idle at the strike") + 1;
        let (k_end, strike_end) = (0..8)
            .rev()
            .find_map(|k| {
                let s = (0..len).rev().take_while(|&c| valid[c as usize] >> k & 1 == 0).last()?;
                (s + 10 < len).then_some((k, s.max(1100)))
            })
            .expect("a station idle to the end of the trace");

        for (k, strike, cleaned) in [(k, strike, Some(dispatch)), (k_end, strike_end, None)] {
            let f = Fault::new(
                FlopId { reg: lr7_reg("rs_v1"), lane: k as u16, bit: 5 },
                FaultKind::Transient,
                strike,
            );
            let (mut live, mut live_mem) = golden_before::<Lr7>(&cap, strike);
            let (mut golden, mut mem) = (live.clone(), live_mem.clone());
            let (mut gports, mut lports) = (PortSet::new(), PortSet::new());
            let word = Lr7::park_words().iter().find(|&&(r, _)| r == f.flop.reg).expect("a word").1;
            for at in strike..len {
                golden.step(&mut mem, &mut gports);
                live.step_with_overlay(&mut live_mem, &mut lports, |st| {
                    f.overlay_for::<Lr7>(st, at)
                });
                assert_eq!(
                    lports.diff_mask(&gports),
                    0,
                    "station {k}: the flip reached the ports at {at}"
                );
                let dirty = park_confined_in(
                    regs,
                    Lr7::park_words(),
                    live.state(),
                    golden.state(),
                    &mut DirtyWitness::new(),
                );
                let expected =
                    if cleaned.is_some_and(|c| at >= c) { 0 } else { 1 << (word as usize + k) };
                assert_eq!(dirty, Some(expected), "station {k}, cycle {at}");
            }
            let (out, cost) = run_batch_group::<Lr7>(
                &cap.checkpoints,
                cap.run.cycles,
                None,
                &[f],
                16,
                BatchConfig::FULL,
            );
            let scalar = run_injection::<Lr7>(
                ReplayStart::Checkpoint(&cap.checkpoints),
                Reference::Recorded(&cap.trace),
                f,
                16,
                None,
            );
            assert_eq!((out[0], scalar.outcome), (None, None), "station {k}");
            assert_eq!(
                (cost.lane_activations, cost.replayed_cycles, cost.masked_early_out),
                (0, cost.walker_cycles, 1),
                "station {k}: the fault did not stay parked"
            );
        }
    }

    /// A stuck-at on a value bit of a busy reservation station parks at
    /// its strike and wakes the cycle the station issues. On LR7 `rspeed`,
    /// `rs_imm` of a non-memory station that waits a few cycles for its
    /// operands, stuck at the opposite of golden's bit: no cycle reads or
    /// writes the word before the issue, which reads it, and the machine
    /// the lot wakes there equals one stepped live with the overlay. The
    /// batched outcome is the scalar engine's.
    #[test]
    fn a_busy_station_stuck_at_wakes_at_its_issue() {
        let cap = lr7_rspeed();
        let len = cap.trace.len();
        let regs = Lr7::registry();
        let (mut golden, mut mem) = golden_before::<Lr7>(&cap, 0);
        let mut ports = PortSet::new();
        let cycles: Vec<(Lr7State, u32)> = (0..len)
            .map(|_| {
                golden.step(&mut mem, &mut ports);
                (golden.state().clone(), ports.get(Sc::ExecCtl))
            })
            .collect();
        let issues = |c: u64, k: usize| {
            let exec = cycles[c as usize].1;
            exec & 1 != 0 && (exec >> 1) & 7 == k as u32
        };
        let (k, strike, issue) = (1100..len - 1)
            .flat_map(|s| (0..8).map(move |k| (k, s)))
            .find_map(|(k, s)| {
                let st = &cycles[s as usize].0;
                let op = lockstep_isa::Opcode::from_bits(u32::from(st.rs_op[k]));
                let alu = op.is_some_and(|op| !op.is_load() && !op.is_store());
                let issue = (s + 1..len).find(|&c| issues(c, k))?;
                (st.rs_valid >> k & 1 == 1 && alu && issue >= s + 4).then_some((k, s, issue))
            })
            .expect("a busy station that waits to issue");
        let g = cycles[strike as usize].0.rs_imm[k];
        let kind = if g >> 3 & 1 == 0 { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
        let f = Fault::new(FlopId { reg: lr7_reg("rs_imm"), lane: k as u16, bit: 3 }, kind, strike);

        let (mut golden, mut mem) = golden_before::<Lr7>(&cap, strike);
        let (mut live, mut live_mem) = (golden.clone(), mem.clone());
        let (mut gports, mut lports) = (PortSet::new(), PortSet::new());
        golden.step(&mut mem, &mut gports);
        live.step_with_overlay(&mut live_mem, &mut lports, |st| f.overlay_for::<Lr7>(st, strike));
        let mut lot = WordLot::new(regs, Lr7::park_words(), Lr7::park_advancing());
        let w = lot.word_of(f.flop).expect("a parkable word");
        let dirty = park_confined_in(
            regs,
            lot.words,
            live.state(),
            golden.state(),
            &mut DirtyWitness::new(),
        );
        assert_eq!(dirty, Some(1 << w), "the strike is word-confined");
        let vals = lot.values(live.state(), 1 << w);
        lot.park(f, vec![0], 1 << w, vals, golden.state(), strike + 1);
        let mut woke = None;
        for at in strike + 1..len {
            let pre = golden.state().clone();
            golden.step(&mut mem, &mut gports);
            if Lr7::park_reads(&pre, &gports) >> w & 1 != 0 {
                let (_, st) = lot.unpark(0, &pre);
                assert_eq!(&st, live.state(), "the lot woke another machine at {at}");
                woke = Some(at);
                break;
            }
            assert_eq!(Lr7::park_writes(&pre, &gports) >> w & 1, 0, "cycle {at} writes the word");
            live.step_with_overlay(&mut live_mem, &mut lports, |st| f.overlay_for::<Lr7>(st, at));
            assert_eq!(lports.diff_mask(&gports), 0, "the fault reached the ports at {at}");
        }
        assert_eq!(woke, Some(issue), "station {k} did not wake at its issue");

        let (out, cost) = run_batch_group::<Lr7>(
            &cap.checkpoints,
            cap.run.cycles,
            None,
            &[f],
            16,
            BatchConfig::FULL,
        );
        let scalar = run_injection::<Lr7>(
            ReplayStart::Checkpoint(&cap.checkpoints),
            Reference::Recorded(&cap.trace),
            f,
            16,
            None,
        );
        assert_eq!(out[0], scalar.outcome, "the batched outcome differs");
        assert!(cost.lane_activations >= 1, "the fault never woke");
    }

    /// The watch index stays exact however its entries leave. A seeded
    /// sequence of stuck-ats on flops outside the words parks, some clean
    /// and some with word residue, and leaves again through `unpark` (a
    /// read wake) and through the watch wake, on both cores. After every
    /// step each group's `stuck0` and `stuck1` are the OR of its entries'
    /// stuck bits and no group is empty, so a read wake of a residue
    /// entry leaves no stale trigger bit. A wake takes every entry on the
    /// fired flop, its clean ones as one machine.
    #[test]
    fn the_watch_index_tracks_its_entries() {
        watch_index::<Cpu>();
        watch_index::<Lr7>();
    }

    fn watch_index<C: CoreBatch>() {
        let regs = C::registry();
        let mut lot = WordLot::new(regs, C::park_words(), C::park_advancing());
        let golden = C::new(0).state().clone();
        // Four bits of both end lanes of three registers outside the
        // words: few enough pairs and bits that entries share them.
        let outside = (0..regs.len() as u16)
            .filter(|&r| lot.words.iter().all(|&(w, _)| w != r) && regs[r as usize].width >= 4)
            .take(3);
        let flops: Vec<FlopId> = outside
            .flat_map(|reg| {
                let last = regs[reg as usize].lanes - 1;
                [0, last]
                    .into_iter()
                    .flat_map(move |lane| (0..4).map(move |bit| FlopId { reg, lane, bit }))
            })
            .collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let n_words =
            C::park_words().iter().map(|&(r, _)| usize::from(regs[r as usize].lanes)).sum();
        let (mut parks, mut unparks, mut wakes) = (0, 0, 0);
        for step in 0..400u64 {
            let parked: Vec<usize> =
                (0..lot.entries.len()).filter(|&i| lot.entries[i].is_some()).collect();
            match next(4) {
                0 | 1 => {
                    let flop = flops[next(flops.len())];
                    let kind = match flops::get_bit_in(regs, &golden, flop) {
                        true => FaultKind::StuckAt1,
                        false => FaultKind::StuckAt0,
                    };
                    let (dirty, vals) = match next(2) {
                        0 => (0, Vec::new()),
                        _ => {
                            let w = next(n_words);
                            (1 << w, vec![lot.read(&golden, w) ^ 1])
                        }
                    };
                    lot.park(Fault::new(flop, kind, step), vec![parks], dirty, vals, &golden, step);
                    parks += 1;
                }
                2 if !parked.is_empty() => {
                    lot.unpark(parked[next(parked.len())], &golden);
                    unparks += 1;
                }
                3 if !parked.is_empty() => {
                    let e = lot.entries[parked[next(parked.len())]].as_ref().expect("parked");
                    let (flop, kind) = (e.fault.flop, e.fault.kind);
                    let on_flop = |lot: &WordLot<C::State>| {
                        lot.entries.iter().flatten().filter(|e| e.fault.flop == flop).count()
                    };
                    let (before, total, clean) = (
                        on_flop(&lot),
                        parked.len(),
                        lot.entries.iter().flatten().any(|e| e.fault.flop == flop && e.dirty == 0),
                    );
                    let mut fired = golden.clone();
                    flops::flip_bit_in(regs, &mut fired, flop);
                    let woken = lot.wake::<C>(&fired, step);
                    assert_eq!(on_flop(&lot), 0, "{}: a fired entry stayed parked", C::NAME);
                    let left = lot.entries.iter().flatten().count();
                    assert_eq!(left, total - before, "{}: an agreeing entry woke", C::NAME);
                    let outs: usize = woken.iter().map(|(e, _)| e.outs.len()).sum();
                    assert_eq!(outs, before, "{}: the wake lost a fault", C::NAME);
                    let machines = woken.iter().filter(|(e, _)| e.dirty == 0).count();
                    assert_eq!(machines, usize::from(clean), "{}: clean twins woke apart", C::NAME);
                    for (e, st) in &woken {
                        assert_eq!((e.fault.flop, e.fault.kind), (flop, kind));
                        let stuck1 = kind == FaultKind::StuckAt1;
                        assert_eq!(flops::get_bit_in(regs, st, flop), stuck1, "{}", C::NAME);
                    }
                    wakes += 1;
                }
                _ => continue,
            }
            let mut members = 0;
            for (g, (watch, entries)) in lot.watches.iter().enumerate() {
                assert!(!entries.is_empty(), "{}: group {g} is empty at step {step}", C::NAME);
                let mut exact = LaneWatch::new(watch.reg, watch.lane);
                for &i in entries {
                    let e = lot.entries[i].as_ref().expect("members are parked");
                    assert!(e.watched());
                    assert_eq!((e.fault.flop.reg, e.fault.flop.lane), (watch.reg, watch.lane));
                    arm(&mut exact, e.fault);
                }
                assert_eq!(*watch, exact, "{}: group {g}'s masks at step {step}", C::NAME);
                members += entries.len();
            }
            assert_eq!(members, lot.entries.iter().flatten().count(), "{}: step {step}", C::NAME);
        }
        assert!(
            parks > 100 && unparks > 20 && wakes > 20,
            "{}: {parks}/{unparks}/{wakes}",
            C::NAME
        );
    }

    /// Exact duplicates share one machine. Doubling a fault list, so that
    /// each copy strikes among other faults of its own cycle, gives every
    /// copy its original's outcome at the original's simulation cost, on
    /// both cores.
    #[test]
    fn duplicate_faults_share_one_machine() {
        duplicates_share::<Cpu>();
        duplicates_share::<Lr7>();
    }

    fn duplicates_share<C: CoreBatch>() {
        let w = lockstep_workloads::Workload::find("rspeed").expect("suite kernel");
        let cap = w.golden_capture_for::<C>(7, 400_000, 1024);
        let cycles = cap.run.cycles;
        let plan = lockstep_fault::CampaignPlan::sampled_for::<C>(
            lockstep_fault::PlanConfig::new(cycles, 7),
            60,
        );
        // Four strike cycles, fifteen plan faults striking at each.
        let once: Vec<Fault> = (plan.faults().iter().enumerate())
            .map(|(i, f)| Fault::new(f.flop, f.kind, cycles * (i as u64 % 4) / 4 + 1))
            .collect();
        let twice = [once.as_slice(), &once].concat();
        let run = |faults: &[Fault]| {
            run_batch_group::<C>(
                &cap.checkpoints,
                cap.run.cycles,
                None,
                faults,
                16,
                BatchConfig::FULL,
            )
        };
        let ((one, a), (two, b)) = (run(&once), run(&twice));
        assert_eq!(two, [one.as_slice(), &one].concat(), "{}: a copy's outcome differs", C::NAME);
        assert!(one.iter().any(Option::is_some), "{}: nothing manifested", C::NAME);
        assert_eq!(
            (b.replayed_cycles, b.walker_cycles, b.lane_activations),
            (a.replayed_cycles, a.walker_cycles, a.lane_activations),
            "{}: duplicates cost machines of their own",
            C::NAME
        );
    }

    /// The registry entry of `C`'s `name`.
    fn reg_of<C: CoreModel>(name: &str) -> u16 {
        C::registry().iter().position(|r| r.name == name).expect("registry entry") as u16
    }

    /// A fixed-mode hand-over waits for the walker to produce its capture
    /// window, on both cores, and each outcome is the scalar engine's:
    /// for a fault first diverging within a window of the golden halt,
    /// where the window is clamped to the run's end, the walker runs on
    /// to the end instead of stopping with nothing left to simulate; and
    /// for a fault diverging with the lanes and lot otherwise empty and a
    /// later strike past a checkpoint, the walker steps through the whole
    /// window before it jumps to that checkpoint.
    #[test]
    fn waiting_hand_overs_match_the_scalar_engine() {
        waiting_hand_overs::<Cpu>();
        waiting_hand_overs::<Lr7>();
    }

    fn waiting_hand_overs<C: CoreBatch>() {
        let w = lockstep_workloads::Workload::find("rspeed").expect("suite kernel");
        let cap = w.golden_capture_for::<C>(7, 400_000, 256);
        let (len, window) = (cap.run.cycles, 16u32);
        let scalar = |f: Fault| {
            let start = ReplayStart::Checkpoint(&cap.checkpoints);
            run_injection::<C>(start, Reference::Recorded(&cap.trace), f, window, None).outcome
        };
        let batched = |faults: &[Fault]| {
            run_batch_group::<C>(&cap.checkpoints, len, None, faults, window, BatchConfig::FULL)
        };
        let pc = |bit: u8, strike: u64| {
            Fault::new(
                FlopId { reg: reg_of::<C>("pc"), lane: 0, bit },
                FaultKind::Transient,
                strike,
            )
        };

        let near_halt = (len - 3 * u64::from(window)..len)
            .flat_map(|strike| (2..12).map(move |bit| pc(bit, strike)))
            .find(|&f| scalar(f).is_some_and(|(d, _)| d + u64::from(window) > len))
            .unwrap_or_else(|| panic!("{}: no detection within a window of the halt", C::NAME));
        let (out, cost) = batched(&[near_halt]);
        assert_eq!(out[0], scalar(near_halt), "{}: the clamped hand-over", C::NAME);
        let from = cap.checkpoints.nearest_at(near_halt.cycle).expect("checkpoint").cycle;
        assert_eq!(cost.walker_cycles, len - from, "{}: the walker stopped early", C::NAME);

        let early = (1000..2000)
            .map(|strike| pc(4, strike))
            .find(|&f| scalar(f).is_some())
            .unwrap_or_else(|| panic!("{}: no early detection", C::NAME));
        let (detect, _) = scalar(early).expect("detected");
        let later = pc(4, detect + 700);
        let jump = cap.checkpoints.nearest_at(later.cycle).expect("checkpoint").cycle;
        assert!(jump > detect + u64::from(window), "{}: no checkpoint to jump to", C::NAME);
        let (out, cost) = batched(&[early, later]);
        assert_eq!(out, [scalar(early), scalar(later)], "{}: the waiting hand-over", C::NAME);
        assert!(cost.walker_cycles < len - early.cycle, "{}: the walker never jumped", C::NAME);
    }

    /// A transient in the first operand of an LR7 station waiting on a
    /// tag parks at its strike, and that tag's CDB broadcast, which
    /// overwrites the operand, masks it: no lane is ever activated, and
    /// with nothing left the walker stops right after the broadcast. On
    /// `ttsprk`, a flip of `rs_v1` bit 5 in a valid ALU station waiting a
    /// few cycles for its first operand, and still waiting on its second
    /// or behind an older station when the broadcast comes (so it does not
    /// issue that cycle), leaves a machine, stepped live, differing from
    /// golden in that word alone until the broadcast and equal to golden
    /// from it on; the outcome is the scalar engine's. (On `rspeed` every
    /// such station issues in its broadcast's cycle, which reads the
    /// word.)
    #[test]
    fn a_cdb_broadcast_masks_a_parked_waiting_operand() {
        let w = lockstep_workloads::Workload::find("ttsprk").expect("suite kernel");
        let cap = w.golden_capture_for::<Lr7>(7, 400_000, 1024);
        let len = cap.trace.len();
        let regs = Lr7::registry();
        let (mut golden, mut mem) = golden_before::<Lr7>(&cap, 0);
        let mut ports = PortSet::new();
        // Per cycle: the post-cycle station bookkeeping (valid, ready,
        // first-operand tags, opcodes), and the cycle's broadcast and issue.
        type Cycle = (u8, u8, [u8; 8], [u8; 8], u32, u32);
        let cycles: Vec<Cycle> = (0..len)
            .map(|_| {
                golden.step(&mut mem, &mut ports);
                let s = golden.state();
                let (fwd, exec) = (ports.get(Sc::FwdCtl), ports.get(Sc::ExecCtl));
                (s.rs_valid, s.rs_r1, s.rs_t1, s.rs_op, fwd, exec)
            })
            .collect();
        let broadcasts = |c: u64, tag: u8| {
            let fwd = cycles[c as usize].4;
            fwd & 1 != 0 && (fwd >> 1) & 15 == u32::from(tag)
        };
        let issues = |c: u64, k: usize| {
            let exec = cycles[c as usize].5;
            exec & 1 != 0 && (exec >> 1) & 7 == k as u32
        };
        let (k, strike, cdb) = (1100..len - 1)
            .flat_map(|s| (0..8).map(move |k| (k, s)))
            .find_map(|(k, s)| {
                let (valid, ready, tags, ops, _, _) = cycles[s as usize];
                let op = lockstep_isa::Opcode::from_bits(u32::from(ops[k]));
                let alu = op.is_some_and(|op| !op.is_load() && !op.is_store());
                if valid >> k & 1 == 0 || ready >> k & 1 == 1 || !alu {
                    return None;
                }
                let cdb = (s + 1..len).find(|&c| broadcasts(c, tags[k] & 15))?;
                (cdb >= s + 3 && !issues(cdb, k)).then_some((k, s, cdb))
            })
            .expect("an ALU station waiting a few cycles for its first operand");
        let f = Fault::new(
            FlopId { reg: lr7_reg("rs_v1"), lane: k as u16, bit: 5 },
            FaultKind::Transient,
            strike,
        );
        let word = Lr7::park_words().iter().find(|&&(r, _)| r == f.flop.reg).expect("a word").1;

        let (mut live, mut live_mem) = golden_before::<Lr7>(&cap, strike);
        let (mut golden, mut mem) = (live.clone(), live_mem.clone());
        let (mut gports, mut lports) = (PortSet::new(), PortSet::new());
        for at in strike..=cdb {
            golden.step(&mut mem, &mut gports);
            live.step_with_overlay(&mut live_mem, &mut lports, |st| f.overlay_for::<Lr7>(st, at));
            assert_eq!(lports.diff_mask(&gports), 0, "station {k}: the flip reached the ports");
            let dirty = park_confined_in(
                regs,
                Lr7::park_words(),
                live.state(),
                golden.state(),
                &mut DirtyWitness::new(),
            );
            let expected = if at < cdb { 1 << (word as usize + k) } else { 0 };
            assert_eq!(dirty, Some(expected), "station {k}, cycle {at}");
        }

        let (out, cost) =
            run_batch_group::<Lr7>(&cap.checkpoints, len, None, &[f], 16, BatchConfig::FULL);
        let scalar = run_injection::<Lr7>(
            ReplayStart::Checkpoint(&cap.checkpoints),
            Reference::Recorded(&cap.trace),
            f,
            16,
            None,
        );
        assert_eq!((out[0], scalar.outcome), (None, None), "station {k}");
        let from = cap.checkpoints.nearest_at(strike).expect("checkpoint").cycle;
        assert_eq!(
            (cost.lane_activations, cost.masked_early_out, cost.walker_cycles),
            (0, 1, cdb + 1 - from),
            "station {k}: the broadcast at {cdb} did not mask the parked operand"
        );
    }

    #[test]
    fn total_cost_sums_fields() {
        let a = BatchCost { replayed_cycles: 5, masked_early_out: 2, ..BatchCost::default() };
        let b = BatchCost {
            replayed_cycles: 7,
            walker_cycles: 3,
            parked_masked: 1,
            ..BatchCost::default()
        };
        let t = total_cost([a, b]);
        assert_eq!(t.replayed_cycles, 12);
        assert_eq!(t.walker_cycles, 3);
        assert_eq!(t.masked_early_out, 2);
        assert_eq!(t.parked_masked, 1);
    }
}
