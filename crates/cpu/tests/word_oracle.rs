//! Word-parking oracles: `park_writes` must name every parkable word a
//! cycle writes, and `park_reads` must bound the words whose value can
//! influence a cycle. Together they are the soundness foundation of
//! word parking in the batched fault engine: a parked lane is stepped
//! *zero* cycles while golden's pre-cycle state and ports prove its
//! dirty words unread, so any hole in either oracle silently corrupts
//! campaign results.
//!
//! Every cycle of every program below is checked twice over:
//!
//! 1. each parkable word that golden's cycle changes is in
//!    `park_writes`, except the advancing words (`park_advancing`, the
//!    counters): those are never in `park_writes` and change only by
//!    golden's own +1;
//! 2. on a sample of cycles, every word outside `park_reads` is
//!    perturbed in a copy of golden's pre-cycle state. Stepping the copy
//!    must drive golden's ports bit for bit, and the perturbation must
//!    be held (the word was not written) or erased (it was), with no
//!    other state touched. A perturbed advancing word must keep its
//!    offset from golden's.
//!
//! The sample is every seventh cycle plus every cycle on which golden
//! pushes or pops the return-address stack, traps, or holds a CSR
//! instruction in the ID/EX latch — read off golden's ports and latches,
//! not the oracles under test.

use std::sync::OnceLock;

use lockstep_cpu::exec::{CSR_WORD, CYCLE_WORD, DMC_WORD, HARTID_WORD, MDV_WORD, RAS_WORD};
use lockstep_cpu::{
    park_advancing, park_confined_in, park_reads, park_words, park_writes, CoreModel, Cpu,
    CpuState, DirtyWitness, FlopReg, PortSet, Sc,
};
use lockstep_isa::Opcode;
use lockstep_mem::{TrialLog, TrialView};
use lockstep_workloads::{fuzz, lc, Workload};

const MAX_CYCLES: u64 = 60_000;
/// Odd, so that it flips the two-bit words too, and wider than 32 bits,
/// so that it reaches the counters' high bits.
const PERTURB: u64 = 0x5A5A_5A5A_1235;

/// Per-word probe outcomes, summed over a corpus.
struct Coverage {
    /// Cycles on which the word changed (advanced, for a counter).
    changed: [u64; 64],
    /// Cycles on which the word was in `park_reads`.
    read: [u64; 64],
    /// Perturbations the cycle left in place.
    held: [u64; 64],
    /// Perturbations the cycle overwrote with golden's value.
    erased: [u64; 64],
}

impl Coverage {
    fn new() -> Coverage {
        Coverage { changed: [0; 64], read: [0; 64], held: [0; 64], erased: [0; 64] }
    }

    fn add(&mut self, other: &Coverage) {
        for w in 0..64 {
            self.changed[w] += other.changed[w];
            self.read[w] += other.read[w];
            self.held[w] += other.held[w];
            self.erased[w] += other.erased[w];
        }
    }
}

/// Registry slot `(entry, lane)` of every parkable word, by word.
fn slots() -> Vec<(usize, usize)> {
    let mut slots = vec![(usize::MAX, 0); 64];
    for &(r, first) in park_words() {
        for lane in 0..usize::from(Cpu::registry()[r as usize].lanes) {
            slots[usize::from(first) + lane] = (r as usize, lane);
        }
    }
    slots.retain(|&(r, _)| r != usize::MAX);
    slots
}

fn read(regs: &[FlopReg], slot: (usize, usize), s: &CpuState) -> u64 {
    regs[slot.0].read(s, slot.1)
}

/// `b - a` modulo the width of the word in `slot`.
fn offset(regs: &[FlopReg], slot: (usize, usize), a: u64, b: u64) -> u64 {
    b.wrapping_sub(a) & (u64::MAX >> (64 - u32::from(regs[slot.0].width)))
}

/// Whether golden's cycle from `pre` is one of the sampled event cycles.
fn event_cycle(pre: &CpuState, golden: &PortSet) -> bool {
    let csr_op = pre.id_valid & 1 == 1
        && matches!(Opcode::from_bits(u32::from(pre.id_op)), Some(Opcode::Csrr | Opcode::Csrw));
    csr_op || golden.get(Sc::RasCtl) != 0 || golden.get(Sc::ExcCtl) != 0
}

/// Runs `w`'s golden execution and checks both oracle properties.
fn check(w: &Workload) -> Coverage {
    let regs = Cpu::registry();
    let words = park_words();
    let advancing = park_advancing();
    let slots = slots();
    let mut cov = Coverage::new();
    let mut mem = w.memory(0xC0FFEE);
    let mut cpu = Cpu::new(0);
    let (mut gports, mut pports) = (PortSet::new(), PortSet::new());
    let (mut log, mut plog) = (TrialLog::new(), TrialLog::new());
    for cycle in 0..MAX_CYCLES {
        let pre = cpu.snapshot();
        log.clear();
        let info = cpu.step(&mut TrialView::new(&mem, &mut log), &mut gports);
        let post = cpu.state();
        let reads = park_reads(&pre, &gports);
        let writes = park_writes(&pre, &gports);
        assert_eq!(writes & advancing, 0, "{} cycle {cycle}: a counter in park_writes", w.name);
        for (w_idx, &slot) in slots.iter().enumerate() {
            cov.read[w_idx] += reads >> w_idx & 1;
            let (before, after) = (read(regs, slot, &pre), read(regs, slot, post));
            if after == before {
                continue;
            }
            cov.changed[w_idx] += 1;
            if advancing >> w_idx & 1 == 1 {
                assert_eq!(
                    offset(regs, slot, before, after),
                    1,
                    "{} cycle {cycle}: counter word {w_idx} moved by other than +1",
                    w.name
                );
            } else {
                assert!(
                    writes >> w_idx & 1 == 1,
                    "{} cycle {cycle}: word {w_idx} changed but is not in park_writes",
                    w.name
                );
            }
        }
        if cycle % 7 == 0 || event_cycle(&pre, &gports) {
            for (w_idx, &slot) in slots.iter().enumerate() {
                if reads >> w_idx & 1 == 1 {
                    continue;
                }
                let mut perturbed = pre.clone();
                let v = read(regs, slot, &pre) ^ PERTURB;
                regs[slot.0].write(&mut perturbed, slot.1, v);
                let v = read(regs, slot, &perturbed);
                let mut lane = Cpu::from_state(perturbed);
                plog.clear();
                lane.step(&mut TrialView::new(&mem, &mut plog), &mut pports);
                assert_eq!(
                    pports.diff_mask(&gports),
                    0,
                    "{} cycle {cycle}: unread word {w_idx} leaked into the ports",
                    w.name
                );
                let dirty =
                    park_confined_in(regs, words, post, lane.state(), &mut DirtyWitness::new())
                        .unwrap_or_else(|| {
                            panic!("{} cycle {cycle}: unread word {w_idx} spread", w.name)
                        });
                if advancing >> w_idx & 1 == 1 {
                    let before = offset(regs, slot, read(regs, slot, &pre), v);
                    let after =
                        offset(regs, slot, read(regs, slot, post), read(regs, slot, lane.state()));
                    assert_eq!(
                        (dirty, after),
                        (1 << w_idx, before),
                        "{} cycle {cycle}: counter word {w_idx} lost its offset from golden",
                        w.name
                    );
                    cov.held[w_idx] += 1;
                } else if writes >> w_idx & 1 == 1 {
                    assert_eq!(dirty, 0, "{} cycle {cycle}: written word {w_idx} kept", w.name);
                    cov.erased[w_idx] += 1;
                } else {
                    assert_eq!(
                        (dirty, read(regs, slot, lane.state())),
                        (1 << w_idx, v),
                        "{} cycle {cycle}: unwritten word {w_idx} not held",
                        w.name
                    );
                    cov.held[w_idx] += 1;
                }
            }
        }
        mem.apply_trial(&log);
        if info.halted {
            return cov;
        }
    }
    panic!("{} did not halt within {MAX_CYCLES} cycles", w.name);
}

/// Checks every program of a corpus and returns the summed coverage.
fn check_corpus<'a>(corpus: impl IntoIterator<Item = &'a Workload>) -> Coverage {
    let mut cov = Coverage::new();
    for w in corpus {
        cov.add(&check(w));
    }
    cov
}

/// The four corpora, each checked once however many tests ask.
fn suite() -> &'static Coverage {
    static COV: OnceLock<Coverage> = OnceLock::new();
    COV.get_or_init(|| check_corpus(Workload::all()))
}

fn compiled() -> &'static Coverage {
    static COV: OnceLock<Coverage> = OnceLock::new();
    COV.get_or_init(|| check_corpus(lc::all()))
}

fn fuzzed() -> &'static Coverage {
    static COV: OnceLock<Coverage> = OnceLock::new();
    COV.get_or_init(|| check_corpus((0..40).map(|i| fuzz::generated(42, i))))
}

fn trapping() -> &'static Coverage {
    static COV: OnceLock<Coverage> = OnceLock::new();
    COV.get_or_init(|| check(Workload::find("trapex").expect("trap exerciser registered")))
}

fn counting() -> &'static Coverage {
    static COV: OnceLock<Coverage> = OnceLock::new();
    COV.get_or_init(|| check(Workload::find("ctrex").expect("counter exerciser registered")))
}

/// Every corpus's coverage, summed.
fn all_corpora() -> Coverage {
    let mut cov = Coverage::new();
    for corpus in [suite(), compiled(), fuzzed(), trapping(), counting()] {
        cov.add(corpus);
    }
    cov
}

/// The word bits `first..first + n`.
fn word_range(first: u8, n: usize) -> std::ops::Range<usize> {
    usize::from(first)..usize::from(first) + n
}

/// The words a coverage count missed.
fn missing(counts: &[u64; 64]) -> Vec<usize> {
    (0..slots().len()).filter(|&w| counts[w] == 0).collect()
}

#[test]
fn oracles_hold_on_the_suite_kernels() {
    // The suite never calls or traps, but every register is held.
    assert_eq!(missing(&suite().held)[..], [], "suite kernels");
}

#[test]
fn oracles_hold_on_the_compiled_lc_corpus() {
    // Recursion wraps the 8-entry RAS: every entry is pushed over while
    // live (erased) and kept across cycles (held).
    let cov = compiled();
    for w in usize::from(RAS_WORD)..usize::from(CSR_WORD) {
        assert!(cov.erased[w] > 0 && cov.held[w] > 0, "RAS word {w} not exercised");
    }
}

#[test]
fn oracles_hold_on_fuzz_programs() {
    assert_eq!(missing(&fuzzed().held)[..], [], "fuzz programs");
}

#[test]
fn oracles_hold_on_the_trap_program() {
    // Every CSR word is written (a trap writes `cause` and `epc`) and
    // held.
    let cov = trapping();
    for w in word_range(CSR_WORD, 6) {
        assert!(cov.erased[w] > 0 && cov.held[w] > 0, "CSR word {w} not exercised");
    }
}

#[test]
fn oracles_hold_on_the_counter_program() {
    // `ctrex` reads both counters and `hartid` with `csrr`, so each is
    // in `park_reads` on some cycle; between reads the counters advance
    // and a perturbed one keeps its offset from golden's.
    let cov = counting();
    for w in word_range(CYCLE_WORD, 3) {
        assert!(cov.read[w] > 0 && cov.held[w] > 0, "counter or hartid word {w} not exercised");
    }
    for w in word_range(CYCLE_WORD, 2) {
        assert!(cov.changed[w] > 0, "counter word {w} never advanced");
    }
}

#[test]
fn advancing_words_are_exactly_the_counters() {
    assert_eq!(park_advancing(), 0b11 << CYCLE_WORD);
    // `cycle` advances on every cycle up to the halting one, and
    // `instret` on every retirement.
    let w = Workload::find("ctrex").expect("counter exerciser registered");
    let run = w.golden_run(0xC0FFEE, MAX_CYCLES);
    assert_eq!(counting().changed[usize::from(CYCLE_WORD)], run.cycles);
    assert_eq!(counting().changed[usize::from(CYCLE_WORD) + 1], run.instructions);
}

#[test]
fn dmc_and_mdv_latches_are_written_erased_and_held() {
    let cov = all_corpora();
    for w in word_range(DMC_WORD, 5).chain(word_range(MDV_WORD, 7)) {
        assert!(
            cov.changed[w] > 0 && cov.erased[w] > 0 && cov.held[w] > 0,
            "DMC/MDV word {w} not exercised: {} changed, {} erased, {} held",
            cov.changed[w],
            cov.erased[w],
            cov.held[w]
        );
    }
}

#[test]
fn every_word_is_written_erased_and_held_across_the_corpora() {
    // Nothing writes the counters or `hartid`, so they cannot be erased;
    // the counters advance instead, and all three are held.
    let cov = all_corpora();
    let never_written = park_advancing() | 1 << HARTID_WORD;
    let missing_written = |counts: &[u64; 64]| -> Vec<usize> {
        missing(counts).into_iter().filter(|&w| never_written >> w & 1 == 0).collect()
    };
    assert_eq!(missing_written(&cov.changed)[..], [], "words never written");
    assert_eq!(missing_written(&cov.erased)[..], [], "words never erased by a write");
    assert_eq!(missing(&cov.held)[..], [], "words never held");
    assert_eq!(cov.changed[usize::from(HARTID_WORD)], 0, "hartid changed");
}
