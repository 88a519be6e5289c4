//! Word-parking oracles: `park_writes` must name every parkable word a
//! cycle writes, and `park_reads` with `park_compares` must bound the
//! words whose value can influence a cycle. Together they are the
//! soundness foundation of word parking in the batched fault engine: a
//! parked lane is stepped *zero* cycles while golden's pre-cycle state
//! and ports prove its dirty words unread, so any hole in an oracle
//! silently corrupts campaign results.
//!
//! Both cores are checked, LR5 at the top level and LR7 in `mod lr7`.
//! Every cycle of every program below is checked twice over:
//!
//! 1. each parkable word that golden's cycle changes is in
//!    `park_writes`, except the advancing words (`park_advancing`, the
//!    counters): those are never in `park_writes` and change only by
//!    golden's own +1;
//! 2. on a sample of cycles, every word outside `park_reads` is
//!    perturbed in a copy of golden's pre-cycle state, unless
//!    `park_compares` tests it against a key that golden's value or the
//!    perturbed one equals. Stepping the copy must drive golden's ports
//!    bit for bit, and the perturbation must be held (the word was not
//!    written) or erased (it was), with no other state touched. A
//!    perturbed advancing word must keep its offset from golden's. A
//!    word is also perturbed to each compare key that golden's ports
//!    name for it (on LR7, the fetch PC and a retiring control
//!    instruction's PC, at the BTB tag they index): a perturbation that
//!    then changes the cycle must be one `park_compares` names.
//!
//! The sample is every seventh cycle plus every cycle on which golden
//! does something that reaches a parkable word other than a register —
//! read off golden's ports and latches, not the oracles under test. On
//! LR5 that is a return-address-stack push or pop, a trap, or a CSR
//! instruction in the ID/EX latch; on LR7 a trap, a control
//! instruction's retirement, a BTB hit, or a CSR instruction's dispatch
//! or commit. On LR7 every other cycle that commits a register write
//! (golden's `RfWpCtl`) perturbs that register, and every other fetch
//! the BTB tag it indexes. An LR7 cycle that issues (`ExecCtl`),
//! broadcasts on the CDB (`FwdCtl`), dispatches (`IdCtl`) or runs the
//! AGU perturbs every reservation-station value word, and one that
//! dispatches, runs the AGU, commits a store or executes a load
//! (`EventBus`) every load/store-queue value word.

use std::sync::OnceLock;

use lockstep_cpu::{
    park_confined_in, CoreModel, Cpu, CpuState, DirtyWitness, FlopReg, PortSet, Sc,
};
use lockstep_isa::Opcode;
use lockstep_mem::{Memory, TrialLog, TrialView};
use lockstep_workloads::{fuzz, lc, Workload};

const MAX_CYCLES: u64 = 60_000;
/// The width of the oracles' word masks.
const WORDS: usize = 128;
/// Odd, so that it flips the two-bit words too, and wider than 32 bits,
/// so that it reaches the counters' high bits.
const PERTURB: u64 = 0x5A5A_5A5A_1235;

/// Per-word probe outcomes, summed over a corpus.
struct Coverage {
    /// Cycles on which the word changed (advanced, for a counter).
    changed: [u64; WORDS],
    /// Cycles on which the word was in `park_reads`.
    read: [u64; WORDS],
    /// Perturbations the cycle left in place.
    held: [u64; WORDS],
    /// Perturbations the cycle overwrote with golden's value.
    erased: [u64; WORDS],
    /// Perturbations to a compare key from golden's ports that changed
    /// the cycle, by the key's kind ([`Probe::compare_keys`]).
    keyed: [u64; 2],
    /// Cycles stepped, the halting one included.
    cycles: u64,
    /// Instructions retired.
    retired: u64,
    /// Cycles on which golden's `FlushCtl` bit 0 was set.
    flushed: u64,
}

impl Coverage {
    fn new() -> Coverage {
        Coverage {
            changed: [0; WORDS],
            read: [0; WORDS],
            held: [0; WORDS],
            erased: [0; WORDS],
            keyed: [0; 2],
            cycles: 0,
            retired: 0,
            flushed: 0,
        }
    }

    fn add(&mut self, other: &Coverage) {
        for w in 0..WORDS {
            self.changed[w] += other.changed[w];
            self.read[w] += other.read[w];
            self.held[w] += other.held[w];
            self.erased[w] += other.erased[w];
        }
        for k in 0..2 {
            self.keyed[k] += other.keyed[k];
        }
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.flushed += other.flushed;
    }
}

/// Each corpus's coverage on one core, checked once however many tests
/// ask.
struct Corpora {
    suite: OnceLock<Coverage>,
    compiled: OnceLock<Coverage>,
    fuzzed: OnceLock<Coverage>,
    trapping: OnceLock<Coverage>,
    counting: OnceLock<Coverage>,
}

impl Corpora {
    const fn new() -> Corpora {
        Corpora {
            suite: OnceLock::new(),
            compiled: OnceLock::new(),
            fuzzed: OnceLock::new(),
            trapping: OnceLock::new(),
            counting: OnceLock::new(),
        }
    }
}

/// What the checker needs of a core beyond the [`CoreModel`] contract.
trait Probe: CoreModel {
    /// This core's coverage cache.
    fn corpora() -> &'static Corpora;

    /// The words to perturb on golden's cycle from `pre` besides the
    /// every-seventh-cycle sample: all of them on an event cycle.
    fn event_words(pre: &Self::State, golden: &PortSet) -> u128;

    /// The `(word, key)` compares golden's ports name for its cycle from
    /// `pre`, by kind (index into [`Coverage::keyed`]). None by default.
    fn compare_keys(_pre: &Self::State, _golden: &PortSet) -> [Option<(usize, u64)>; 2] {
        [None; 2]
    }
}

impl Probe for Cpu {
    fn corpora() -> &'static Corpora {
        static CORPORA: Corpora = Corpora::new();
        &CORPORA
    }

    fn event_words(pre: &CpuState, golden: &PortSet) -> u128 {
        let csr_op = pre.id_valid & 1 == 1
            && matches!(Opcode::from_bits(u32::from(pre.id_op)), Some(Opcode::Csrr | Opcode::Csrw));
        let event = csr_op || golden.get(Sc::RasCtl) != 0 || golden.get(Sc::ExcCtl) != 0;
        if event {
            u128::MAX
        } else {
            0
        }
    }
}

/// Registry slot `(entry, lane)` of every parkable word, by word.
fn slots<C: CoreModel>() -> Vec<(usize, usize)> {
    let mut slots = vec![(usize::MAX, 0); WORDS];
    for &(r, first) in C::park_words() {
        for lane in 0..usize::from(C::registry()[r as usize].lanes) {
            slots[usize::from(first) + lane] = (r as usize, lane);
        }
    }
    slots.retain(|&(r, _)| r != usize::MAX);
    slots
}

/// The word bits of every lane of the registry entry `name`.
fn words_of<C: CoreModel>(name: &str) -> std::ops::Range<usize> {
    let regs = C::registry();
    let &(r, first) = C::park_words()
        .iter()
        .find(|&&(r, _)| regs[r as usize].name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a parkable word of {}", C::NAME));
    usize::from(first)..usize::from(first) + usize::from(regs[r as usize].lanes)
}

/// The word bit of the scalar registry entry `name`.
fn word<C: CoreModel>(name: &str) -> usize {
    words_of::<C>(name).start
}

fn read<S>(regs: &[FlopReg<S>], slot: (usize, usize), s: &S) -> u64 {
    regs[slot.0].read(s, slot.1)
}

/// `b - a` modulo the width of the word in `slot`.
fn offset<S>(regs: &[FlopReg<S>], slot: (usize, usize), a: u64, b: u64) -> u64 {
    b.wrapping_sub(a) & (u64::MAX >> (64 - u32::from(regs[slot.0].width)))
}

/// What a perturbation of one word did to golden's cycle.
enum Fate {
    /// Left in place, or for an advancing word its offset from golden's
    /// kept.
    Held,
    /// Overwritten with golden's value.
    Erased,
    /// Seen by the cycle: in its ports or in state besides the word.
    Leaked(&'static str),
}

/// Steps `pre` with word `w` (registry slot `slot`) set to `v` and
/// classifies the result against golden's ports `gports` and committed
/// state `post`.
#[allow(clippy::too_many_arguments)]
fn perturb<C: CoreModel>(
    pre: &C::State,
    post: &C::State,
    gports: &PortSet,
    mem: &Memory,
    (w, slot): (usize, (usize, usize)),
    v: u64,
    written: bool,
    scratch: (&mut PortSet, &mut TrialLog),
) -> Fate {
    let regs = C::registry();
    let (pports, plog) = scratch;
    let mut perturbed = pre.clone();
    regs[slot.0].write(&mut perturbed, slot.1, v);
    let v = read(regs, slot, &perturbed);
    let mut lane = C::from_state(perturbed);
    plog.clear();
    lane.step(&mut TrialView::new(mem, plog), pports);
    if pports.diff_mask(gports) != 0 {
        return Fate::Leaked("leaked into the ports");
    }
    let Some(dirty) =
        park_confined_in(regs, C::park_words(), post, lane.state(), &mut DirtyWitness::new())
    else {
        return Fate::Leaked("spread");
    };
    if C::park_advancing() >> w & 1 == 1 {
        let before = offset(regs, slot, read(regs, slot, pre), v);
        let after = offset(regs, slot, read(regs, slot, post), read(regs, slot, lane.state()));
        if (dirty, after) != (1 << w, before) {
            return Fate::Leaked("lost its offset from golden");
        }
        Fate::Held
    } else if written {
        if dirty != 0 {
            return Fate::Leaked("was written but kept");
        }
        Fate::Erased
    } else {
        if (dirty, read(regs, slot, lane.state())) != (1 << w, v) {
            return Fate::Leaked("was not written but not held");
        }
        Fate::Held
    }
}

/// Runs `w`'s golden execution on core `C` and checks both oracle
/// properties.
fn check<C: Probe>(w: &Workload) -> Coverage {
    let regs = C::registry();
    let advancing = C::park_advancing();
    let slots = slots::<C>();
    let mut cov = Coverage::new();
    let mut mem = w.memory(0xC0FFEE);
    let mut cpu = C::new(0);
    let (mut gports, mut pports) = (PortSet::new(), PortSet::new());
    let (mut log, mut plog) = (TrialLog::new(), TrialLog::new());
    let name = format!("{} {}", C::NAME, w.name);
    for cycle in 0..MAX_CYCLES {
        let pre = cpu.snapshot();
        log.clear();
        let info = cpu.step(&mut TrialView::new(&mem, &mut log), &mut gports);
        cov.cycles += 1;
        cov.retired += u64::from(info.retired);
        cov.flushed += u64::from(gports.get(Sc::FlushCtl) & 1);
        let post = cpu.state();
        let reads = C::park_reads(&pre, &gports);
        let compares: Vec<(usize, u64)> = C::park_compares(&pre, &gports).collect();
        let writes = C::park_writes(&pre, &gports);
        assert_eq!(writes & advancing, 0, "{name} cycle {cycle}: a counter in park_writes");
        for (w_idx, &slot) in slots.iter().enumerate() {
            cov.read[w_idx] += (reads >> w_idx & 1) as u64;
            let (before, after) = (read(regs, slot, &pre), read(regs, slot, post));
            if after == before {
                continue;
            }
            cov.changed[w_idx] += 1;
            if advancing >> w_idx & 1 == 1 {
                assert_eq!(
                    offset(regs, slot, before, after),
                    1,
                    "{name} cycle {cycle}: counter word {w_idx} moved by other than +1"
                );
            } else {
                assert!(
                    writes >> w_idx & 1 == 1,
                    "{name} cycle {cycle}: word {w_idx} changed but is not in park_writes"
                );
            }
        }
        let sample = if cycle % 7 == 0 { u128::MAX } else { C::event_words(&pre, &gports) };
        let keys = C::compare_keys(&pre, &gports);
        for (w_idx, &slot) in slots.iter().enumerate() {
            if sample >> w_idx & 1 == 0 || reads >> w_idx & 1 == 1 {
                continue;
            }
            let g = read(regs, slot, &pre);
            let keyed = keys.iter().enumerate().filter_map(|(kind, key)| match *key {
                Some((kw, k)) if kw == w_idx => Some((k, Some(kind))),
                _ => None,
            });
            let perturbed = (g ^ PERTURB) & u64::MAX >> (64 - u32::from(regs[slot.0].width));
            for (v, kind) in [(perturbed, None)].into_iter().chain(keyed) {
                if v == g {
                    continue;
                }
                let named = compares.iter().any(|&(cw, k)| cw == w_idx && (k == v || k == g));
                if named && kind.is_none() {
                    continue;
                }
                let fate = perturb::<C>(
                    &pre,
                    post,
                    &gports,
                    &mem,
                    (w_idx, slot),
                    v,
                    writes >> w_idx & 1 == 1,
                    (&mut pports, &mut plog),
                );
                match (fate, kind) {
                    (Fate::Leaked(_), Some(kind)) if named => cov.keyed[kind] += 1,
                    (Fate::Leaked(what), _) => {
                        panic!("{name} cycle {cycle}: word {w_idx} set to {v:#x} {what}")
                    }
                    (_, Some(_)) if named => {}
                    (Fate::Held, _) => cov.held[w_idx] += 1,
                    (Fate::Erased, _) => cov.erased[w_idx] += 1,
                }
            }
        }
        mem.apply_trial(&log);
        if info.halted {
            return cov;
        }
    }
    panic!("{name} did not halt within {MAX_CYCLES} cycles");
}

/// Checks every program of a corpus and returns the summed coverage.
fn check_corpus<'a, C: Probe>(corpus: impl IntoIterator<Item = &'a Workload>) -> Coverage {
    let mut cov = Coverage::new();
    for w in corpus {
        cov.add(&check::<C>(w));
    }
    cov
}

/// The 12 hand-written kernels.
fn suite<C: Probe>() -> &'static Coverage {
    C::corpora().suite.get_or_init(|| check_corpus::<C>(Workload::all()))
}

/// The 8 compiled LC kernels.
fn compiled<C: Probe>() -> &'static Coverage {
    C::corpora().compiled.get_or_init(|| check_corpus::<C>(lc::all()))
}

/// 40 generated programs of fuzz seed 42.
fn fuzzed<C: Probe>() -> &'static Coverage {
    C::corpora().fuzzed.get_or_init(|| check_corpus::<C>((0..40).map(|i| fuzz::generated(42, i))))
}

/// The trap exerciser.
fn trapping<C: Probe>() -> &'static Coverage {
    C::corpora()
        .trapping
        .get_or_init(|| check::<C>(Workload::find("trapex").expect("trap exerciser registered")))
}

/// The counter exerciser.
fn counting<C: Probe>() -> &'static Coverage {
    C::corpora()
        .counting
        .get_or_init(|| check::<C>(Workload::find("ctrex").expect("counter exerciser registered")))
}

/// Every corpus's coverage, summed.
fn all_corpora<C: Probe>() -> Coverage {
    let mut cov = Coverage::new();
    for corpus in [suite::<C>(), compiled::<C>(), fuzzed::<C>(), trapping::<C>(), counting::<C>()] {
        cov.add(corpus);
    }
    cov
}

/// The words a coverage count missed.
fn missing<C: CoreModel>(counts: &[u64; WORDS]) -> Vec<usize> {
    (0..slots::<C>().len()).filter(|&w| counts[w] == 0).collect()
}

/// The six writable CSR words, `csr_status` to `csr_scratch1`.
fn csr_words<C: CoreModel>() -> std::ops::Range<usize> {
    let first = word::<C>("csr_status");
    assert_eq!(word::<C>("csr_scratch1"), first + 5, "the six CSRs are consecutive");
    first..first + 6
}

/// `ctrex` reads both counters and `hartid` with `csrr`, so each is in
/// `park_reads` on some cycle; between reads the counters advance and a
/// perturbed one keeps its offset from golden's.
fn counters_and_hartid_are_read_and_held<C: Probe>() {
    let cov = counting::<C>();
    for name in ["cycle", "instret", "hartid"] {
        let w = word::<C>(name);
        assert!(cov.read[w] > 0 && cov.held[w] > 0, "{} {name} not exercised", C::NAME);
    }
    for name in ["cycle", "instret"] {
        assert!(cov.changed[word::<C>(name)] > 0, "{} {name} never advanced", C::NAME);
    }
}

/// The advancing words are `cycle`, `instret` and `others`: `cycle`
/// advances on every cycle up to the halting one, and `instret` on every
/// retirement.
fn advancing_words_are_the_counters<C: Probe>(others: u128) {
    let (cycle, instret) = (word::<C>("cycle"), word::<C>("instret"));
    assert_eq!(C::park_advancing(), 1 << cycle | 1 << instret | others);
    let cov = counting::<C>();
    assert_eq!(cov.changed[cycle], cov.cycles);
    assert_eq!(cov.changed[instret], cov.retired);
}

/// Nothing writes the counters or `hartid`, so they cannot be erased;
/// the counters advance instead, and all three are held. Every other
/// word is written, erased and held somewhere in the corpora, and changed
/// by a write unless it is one of `unchanged`.
fn every_word_is_written_erased_and_held<C: Probe>(unchanged: u128) {
    let cov = all_corpora::<C>();
    let hartid = word::<C>("hartid");
    let never_written = C::park_advancing() | 1 << hartid;
    let missing_in = |counts: &[u64; WORDS], exempt: u128| -> Vec<usize> {
        missing::<C>(counts).into_iter().filter(|&w| exempt >> w & 1 == 0).collect()
    };
    assert_eq!(missing_in(&cov.changed, never_written | unchanged)[..], [], "words never changed");
    assert_eq!(missing_in(&cov.erased, never_written)[..], [], "words never erased by a write");
    assert_eq!(missing::<C>(&cov.held)[..], [], "words never held");
    assert_eq!(cov.changed[hartid], 0, "hartid changed");
}

#[test]
fn oracles_hold_on_the_suite_kernels() {
    // The suite never calls or traps, but every register is held.
    assert_eq!(missing::<Cpu>(&suite::<Cpu>().held)[..], [], "suite kernels");
}

#[test]
fn oracles_hold_on_the_compiled_lc_corpus() {
    // Recursion wraps the 8-entry RAS: every entry is pushed over while
    // live (erased) and kept across cycles (held).
    let cov = compiled::<Cpu>();
    for w in words_of::<Cpu>("ras") {
        assert!(cov.erased[w] > 0 && cov.held[w] > 0, "RAS word {w} not exercised");
    }
}

#[test]
fn oracles_hold_on_fuzz_programs() {
    assert_eq!(missing::<Cpu>(&fuzzed::<Cpu>().held)[..], [], "fuzz programs");
}

#[test]
fn oracles_hold_on_the_trap_program() {
    // Every CSR word is written (a trap writes `cause` and `epc`) and
    // held.
    let cov = trapping::<Cpu>();
    for w in csr_words::<Cpu>() {
        assert!(cov.erased[w] > 0 && cov.held[w] > 0, "CSR word {w} not exercised");
    }
}

#[test]
fn oracles_hold_on_the_counter_program() {
    counters_and_hartid_are_read_and_held::<Cpu>();
}

#[test]
fn advancing_words_are_exactly_the_counters() {
    advancing_words_are_the_counters::<Cpu>(0);
}

#[test]
fn dmc_and_mdv_latches_are_written_erased_and_held() {
    let cov = all_corpora::<Cpu>();
    let latches = ["dmc_addr", "dmc_wdata", "dmc_mask", "dmc_rdata", "wb_lane"]
        .into_iter()
        .chain(["mdv_op", "mdv_cnt", "mdv_a", "mdv_b", "mdv_acc_lo", "mdv_acc_hi", "mdv_neg"]);
    for name in latches {
        let w = word::<Cpu>(name);
        assert!(
            cov.changed[w] > 0 && cov.erased[w] > 0 && cov.held[w] > 0,
            "{name} not exercised: {} changed, {} erased, {} held",
            cov.changed[w],
            cov.erased[w],
            cov.held[w]
        );
    }
}

#[test]
fn every_word_is_written_erased_and_held_across_the_corpora() {
    every_word_is_written_erased_and_held::<Cpu>(0);
}

/// The same properties on the out-of-order LR7.
mod lr7 {
    use lockstep_cpu::{Lr7, Lr7State};
    use lockstep_isa::{Format, Instr};

    use super::*;

    impl Probe for Lr7 {
        fn corpora() -> &'static Corpora {
            static CORPORA: Corpora = Corpora::new();
            &CORPORA
        }

        fn event_words(_pre: &Lr7State, golden: &PortSet) -> u128 {
            let trap = golden.get(Sc::ExcCtl) & 1 != 0;
            let btb_hit = golden.get(Sc::BranchCtl) & 1 != 0;
            let id = golden.get(Sc::IdCtl);
            let csr_dispatch = id & 1 != 0
                && matches!(Opcode::from_bits((id >> 1) & 0x3F), Some(Opcode::Csrr | Opcode::Csrw));
            let csr_commit = golden.get(Sc::CsrCtl) != 0;
            if trap || control_retire(golden).is_some() || btb_hit || csr_dispatch || csr_commit {
                return u128::MAX;
            }
            let rf = golden.get(Sc::RfWpCtl);
            let mut words = 0;
            if rf & 1 != 0 {
                words |= 1 << (word::<Lr7>("regs") + ((rf >> 1) & 0x1F) as usize - 1);
            }
            if let Some(pc) = fetch(golden) {
                words |= 1 << tag_word(pc);
            }
            let events = golden.get(Sc::EventBus);
            let dispatch = id & 1 != 0;
            let issue_or_cdb = golden.get(Sc::ExecCtl) & 1 != 0 || golden.get(Sc::FwdCtl) & 1 != 0;
            if issue_or_cdb || dispatch || events & EV_AGU != 0 {
                words |= fields(&RS_VALUES);
            }
            if dispatch || events & (EV_AGU | EV_STORE | EV_LOAD) != 0 {
                words |= fields(&LSQ_VALUES);
            }
            words
        }

        fn compare_keys(_pre: &Lr7State, golden: &PortSet) -> [Option<(usize, u64)>; 2] {
            let key = |pc: u32| (tag_word(pc), u64::from(pc));
            [fetch(golden).map(key), control_retire(golden).map(key)]
        }
    }

    /// Golden's `EventBus` bits for an AGU run, a load executed and a
    /// store written to memory.
    const EV_AGU: u32 = 1 << 3;
    const EV_LOAD: u32 = 1 << 5;
    const EV_STORE: u32 = 1 << 6;

    /// The reservation stations' and the load/store queue's value fields.
    const RS_VALUES: [&str; 4] = ["rs_pc", "rs_imm", "rs_v1", "rs_v2"];
    const LSQ_VALUES: [&str; 2] = ["lsq_addr", "lsq_data"];

    /// The words of every lane of the registry entries `names`.
    fn fields(names: &[&str]) -> u128 {
        names.iter().flat_map(|name| words_of::<Lr7>(name)).fold(0, |m, w| m | 1 << w)
    }

    /// A 32-bit value golden's ports carry on two 16-bit SCs.
    fn bus(golden: &PortSet, lo: Sc, hi: Sc) -> u32 {
        golden.get(lo) | golden.get(hi) << 16
    }

    /// The address golden fetches from, if it fetches.
    fn fetch(golden: &PortSet) -> Option<u32> {
        (golden.get(Sc::IfReq) & 1 != 0).then(|| bus(golden, Sc::IfAddrLo, Sc::IfAddrHi))
    }

    /// The PC of the control instruction golden retires, if it retires
    /// one.
    fn control_retire(golden: &PortSet) -> Option<u32> {
        let retired = bus(golden, Sc::RetInstrLo, Sc::RetInstrHi);
        let control = Instr::decode(retired)
            .is_ok_and(|i| matches!(i.op.format(), Format::B | Format::J) || i.op == Opcode::Jalr);
        (golden.get(Sc::RetCtl) & 1 != 0 && control).then(|| bus(golden, Sc::RetPcLo, Sc::RetPcHi))
    }

    /// The word of the BTB tag `pc` indexes.
    fn tag_word(pc: u32) -> usize {
        words_of::<Lr7>("btb_tag").start + ((pc >> 2) & 15) as usize
    }

    #[test]
    fn oracles_hold_on_the_suite_kernels() {
        // Every register is held, and the kernels' loops train and hit
        // BTB targets.
        let cov = suite::<Lr7>();
        assert_eq!(missing::<Lr7>(&cov.held)[..], [], "suite kernels");
        assert!(words_of::<Lr7>("btb_tgt").any(|w| cov.read[w] > 0 && cov.erased[w] > 0));
    }

    #[test]
    fn oracles_hold_on_the_compiled_lc_corpus() {
        assert_eq!(missing::<Lr7>(&compiled::<Lr7>().held)[..], [], "compiled LC kernels");
    }

    #[test]
    fn oracles_hold_on_fuzz_programs() {
        assert_eq!(missing::<Lr7>(&fuzzed::<Lr7>().held)[..], [], "fuzz programs");
    }

    #[test]
    fn oracles_hold_on_the_trap_program() {
        // Every CSR word is written (a trap writes `cause` and `epc`) and
        // held, and every trap reads `tvec`.
        let cov = trapping::<Lr7>();
        for w in csr_words::<Lr7>() {
            assert!(cov.erased[w] > 0 && cov.held[w] > 0, "CSR word {w} not exercised");
        }
        assert!(cov.read[word::<Lr7>("csr_tvec")] > 0, "no trap read tvec");
    }

    #[test]
    fn oracles_hold_on_the_counter_program() {
        counters_and_hartid_are_read_and_held::<Lr7>();
    }

    /// `flushes` advances too, on exactly golden's `FlushCtl` cycles (a
    /// mispredict or a trap at commit).
    #[test]
    fn advancing_words_are_exactly_the_counters() {
        let flushes = word::<Lr7>("flushes");
        advancing_words_are_the_counters::<Lr7>(1 << flushes);
        let cov = all_corpora::<Lr7>();
        assert!(cov.flushed > 0, "no flush in the corpora");
        assert_eq!(cov.changed[flushes], cov.flushed);
    }

    /// Every BTB target and every reservation-station and load/store-queue
    /// value word is read (a BTB hit reads a target, an issue or the AGU
    /// a station's values, a store commit and the load stage a slot's),
    /// changed, erased (a taken control retire, a dispatch, a CDB
    /// broadcast or the AGU writes it) and held.
    #[test]
    fn btb_targets_and_queue_values_are_read_written_erased_and_held() {
        let cov = all_corpora::<Lr7>();
        for name in ["btb_tgt"].into_iter().chain(RS_VALUES).chain(LSQ_VALUES) {
            for w in words_of::<Lr7>(name) {
                assert!(
                    cov.read[w] > 0 && cov.changed[w] > 0 && cov.erased[w] > 0 && cov.held[w] > 0,
                    "{name} word {w} not exercised: {} read, {} changed, {} erased, {} held",
                    cov.read[w],
                    cov.changed[w],
                    cov.erased[w],
                    cov.held[w]
                );
            }
        }
    }

    /// The fetch compare and the training compare each decide a cycle
    /// somewhere in the corpora: a tag set to the key changes the hit.
    #[test]
    fn btb_tags_are_compared_written_erased_and_held() {
        let cov = all_corpora::<Lr7>();
        assert!(cov.keyed[0] > 0, "no fetch compare decided a cycle");
        assert!(cov.keyed[1] > 0, "no training compare decided a cycle");
        for w in words_of::<Lr7>("btb_tag") {
            assert!(
                cov.changed[w] > 0 && cov.erased[w] > 0 && cov.held[w] > 0,
                "BTB tag word {w} not exercised: {} changed, {} erased, {} held",
                cov.changed[w],
                cov.erased[w],
                cov.held[w]
            );
        }
    }

    #[test]
    fn every_word_is_written_erased_and_held_across_the_corpora() {
        // No program here takes a fetch bus error, so every fetch writes
        // `imc_err` with the 0 it already holds: erased, never changed.
        // The 48 RS and LSQ value words are among the 127.
        assert_eq!(slots::<Lr7>().len(), 127);
        every_word_is_written_erased_and_held::<Lr7>(1 << word::<Lr7>("imc_err"));
    }
}
