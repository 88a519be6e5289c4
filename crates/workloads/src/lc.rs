//! Compiled workloads: LC kernels built with `lockstep-cc`.
//!
//! The twelve hand-written kernels cap the suite's control-flow and
//! unit-utilization diversity at whatever is practical to hand-port to
//! assembly. This module is the compiler front door: algorithmic kernels
//! written in LC (see [`lockstep_cc`]) with realistic call/loop/memory
//! structure — recursion, nested loops, data-dependent branching — that
//! the prediction-table experiments can train on alongside the
//! hand-written corpus.
//!
//! Two of the kernels are **differential anchors**: LC ports of the
//! hand-written `rspeed` and `canrdr` kernels that publish the exact
//! same value sequence, so their output checksums must match the
//! originals for every stimulus seed. The remaining six are new
//! algorithmic kernels (quicksort, matmul, box blur, prime sieve,
//! CRC-32, binary search).
//!
//! Compiled workloads are named `lc_<kernel>` (selected in campaigns
//! with `--workloads lc:<kernel>`) and interned like fuzz workloads, so
//! archives that reference them by name re-resolve to byte-identical
//! programs. They do not join [`Workload::all`] — the hand-written
//! suite's population statistics stay comparable across PRs.
//!
//! [`generate_source`] additionally produces *random-but-safe* LC
//! programs for the nightly compiler-fuzz mode: bounded `for` loops
//! only, masked array indices, and machine-defined arithmetic
//! everywhere (shifts mask to 5 bits; division by zero and overflow are
//! architecturally defined), so every generated program terminates.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::Workload;

/// LC port of the hand-written `rspeed` kernel (divider-heavy).
///
/// Publishes, per iteration, the same `(slot, value)` sequence as the
/// original: speed to slot 2, smoothed accumulator to slot 3, speed to
/// the MISR. All intermediate values stay in `[0, 2^31)`, so LC's
/// signed `/` and `>>` match the original's `divu`/`srli`.
const RSPEED_LC: &str = "\
// LC port of the hand-written rspeed kernel (differential anchor).
void main() {
  int acc = 0;
  for (int i = 0; i < 60; i = i + 1) {
    int pulse = sensor(2);
    int t = (pulse & 0x3FFF) | 1;     // never zero
    int speed = 14745600 / t;
    acc = acc + speed;
    publish(2, speed);
    publish(3, acc >> 3);
    misr(speed);
  }
}
";

/// LC port of the hand-written `canrdr` kernel (CRC-15, shifter/branch
/// heavy).
///
/// `msg >> 31` is arithmetic here where the original uses `srli`, but
/// the difference is masked by the `& 1`, and `crc` is kept in
/// `[0, 0x7FFF]` so `crc >> 14` agrees too.
const CANRDR_LC: &str = "\
// LC port of the hand-written canrdr kernel (differential anchor).
void main() {
  for (int i = 0; i < 28; i = i + 1) {
    int msg = sensor(5);
    int crc = 0;
    for (int b = 0; b < 32; b = b + 1) {
      int bit = ((msg >> 31) ^ (crc >> 14)) & 1;
      crc = crc << 1;
      msg = msg << 1;
      if (bit != 0) { crc = crc ^ 0x4599; }
      crc = crc & 0x7FFF;
    }
    publish(5, crc);
    misr(crc);
  }
}
";

/// Recursive quicksort over 64 sensor-derived words (call-stack heavy:
/// the only workload in the repo with data-dependent recursion depth).
const QUICKSORT_LC: &str = "\
int arr[64];

int part(int lo, int hi) {
  int pivot = arr[hi];
  int i = lo;
  for (int j = lo; j < hi; j = j + 1) {
    if (arr[j] < pivot) {
      int t = arr[i]; arr[i] = arr[j]; arr[j] = t;
      i = i + 1;
    }
  }
  int t = arr[i]; arr[i] = arr[hi]; arr[hi] = t;
  return i;
}

void quicksort(int lo, int hi) {
  if (lo < hi) {
    int p = part(lo, hi);
    quicksort(lo, p - 1);
    quicksort(p + 1, hi);
  }
}

void main() {
  for (int i = 0; i < 64; i = i + 1) { arr[i] = sensor(i & 7) & 0xFFFF; }
  quicksort(0, 63);
  int sum = 0;
  int inversions = 0;
  for (int i = 0; i < 64; i = i + 1) {
    sum = sum + arr[i];
    if (i > 0 && arr[i] < arr[i - 1]) { inversions = inversions + 1; }
    if ((i & 7) == 0) { publish(i >> 3, arr[i]); }
  }
  publish(8, sum);
  publish(9, inversions);
  misr(sum);
}
";

/// 6×6 integer matrix multiply (multiplier-heavy, triple nested loop).
const MATMUL_LC: &str = "\
int a[36];
int b[36];
int c[36];

void main() {
  for (int i = 0; i < 36; i = i + 1) {
    a[i] = sensor(i % 6) & 0xFF;
    b[i] = sensor((i % 6) + 8) & 0xFF;
  }
  int trace = 0;
  for (int i = 0; i < 6; i = i + 1) {
    for (int j = 0; j < 6; j = j + 1) {
      int s = 0;
      for (int k = 0; k < 6; k = k + 1) {
        s = s + a[i * 6 + k] * b[k * 6 + j];
      }
      c[i * 6 + j] = s;
    }
    trace = trace + c[i * 6 + i];
    publish(i, c[i * 6 + i]);
    misr(c[i * 6]);
  }
  publish(6, trace);
}
";

/// 3×3 box blur over an 8×8 image with edge clamping (load-heavy,
/// short data-dependent branches, per-pixel divide by the window size).
const BOXBLUR_LC: &str = "\
int img[64];
int res[64];

void main() {
  for (int i = 0; i < 64; i = i + 1) { img[i] = sensor(i & 3) & 0xFF; }
  for (int y = 0; y < 8; y = y + 1) {
    for (int x = 0; x < 8; x = x + 1) {
      int acc = 0;
      int n = 0;
      for (int dy = 0 - 1; dy <= 1; dy = dy + 1) {
        for (int dx = 0 - 1; dx <= 1; dx = dx + 1) {
          int yy = y + dy;
          int xx = x + dx;
          if (yy >= 0 && yy < 8 && xx >= 0 && xx < 8) {
            acc = acc + img[yy * 8 + xx];
            n = n + 1;
          }
        }
      }
      res[y * 8 + x] = acc / n;
    }
  }
  int sum = 0;
  for (int i = 0; i < 64; i = i + 1) { sum = sum + res[i]; }
  publish(0, res[0]);
  publish(1, res[7]);
  publish(2, res[56]);
  publish(3, res[63]);
  publish(4, res[27]);
  publish(5, sum);
  misr(sum);
}
";

/// Sieve of Eratosthenes to 255, then sensor-driven primality probes
/// (store-heavy marking loops, dynamic sensor channels).
const SIEVE_LC: &str = "\
int flags[256];

void main() {
  for (int i = 0; i < 256; i = i + 1) { flags[i] = 1; }
  flags[0] = 0;
  flags[1] = 0;
  for (int p = 2; p * p <= 255; p = p + 1) {
    if (flags[p]) {
      for (int m = p * p; m <= 255; m = m + p) { flags[m] = 0; }
    }
  }
  int count = 0;
  int sum = 0;
  int largest = 0;
  for (int i = 0; i < 256; i = i + 1) {
    if (flags[i]) { count = count + 1; sum = sum + i; largest = i; }
  }
  publish(0, count);
  publish(1, sum);
  publish(2, largest);
  misr(sum);
  for (int c = 0; c < 8; c = c + 1) {
    int probe = sensor(c) & 255;
    publish(3 + c, flags[probe] * 1000 + probe);
    misr(probe);
  }
}
";

/// Bitwise CRC-32 (reflected polynomial 0xEDB88320) over 16 sensor
/// words (shifter/branch heavy; the logical right shift is synthesized
/// from LC's arithmetic `>>` with a mask).
const CRC32_LC: &str = "\
void main() {
  int crc = ~0;
  for (int w = 0; w < 16; w = w + 1) {
    crc = crc ^ sensor(w & 7);
    for (int b = 0; b < 32; b = b + 1) {
      int lsb = crc & 1;
      crc = (crc >> 1) & 0x7FFFFFFF;    // logical shift right by 1
      if (lsb) { crc = crc ^ 0xEDB88320; }
    }
    misr(crc);
    if ((w & 3) == 3) { publish(w >> 2, crc); }
  }
  publish(4, crc ^ ~0);
  publish(5, crc);
}
";

/// Binary search: 24 sensor-driven lookups in a sorted 64-entry table
/// (branch-heavy with short loop-carried dependence chains).
const BINSEARCH_LC: &str = "\
int tbl[64];

void main() {
  int v = 3;
  for (int i = 0; i < 64; i = i + 1) {
    tbl[i] = v;
    v = v + 5 + (i & 3);                // strictly increasing
  }
  int hits = 0;
  int probes = 0;
  for (int q = 0; q < 24; q = q + 1) {
    int key = sensor(q & 7) & 0x7FF;
    int lo = 0;
    int hi = 63;
    int found = 0 - 1;
    while (lo <= hi) {
      int mid = (lo + hi) / 2;
      probes = probes + 1;
      if (tbl[mid] == key) { found = mid; break; }
      if (tbl[mid] < key) { lo = mid + 1; } else { hi = mid - 1; }
    }
    if (found >= 0) { hits = hits + 1; }
    misr(found);
    if ((q & 3) == 0) { publish(q >> 2, found); }
  }
  publish(6, hits);
  publish(7, probes);
}
";

/// The LC kernel table: `(kernel, description, LC source)`.
///
/// Workload names prepend `lc_`; campaign selectors use `lc:<kernel>`.
pub const KERNELS: &[(&str, &str, &str)] = &[
    ("quicksort", "recursive quicksort over 64 sensor words (compiled LC)", QUICKSORT_LC),
    ("matmul", "6x6 integer matrix multiply (compiled LC)", MATMUL_LC),
    ("boxblur", "3x3 box blur over an 8x8 image (compiled LC)", BOXBLUR_LC),
    ("sieve", "prime sieve to 255 with sensor probes (compiled LC)", SIEVE_LC),
    ("crc32", "bitwise CRC-32 over 16 sensor words (compiled LC)", CRC32_LC),
    ("binsearch", "24 binary searches in a sorted table (compiled LC)", BINSEARCH_LC),
    ("rspeed", "LC port of rspeed — differential anchor (compiled LC)", RSPEED_LC),
    ("canrdr", "LC port of canrdr — differential anchor (compiled LC)", CANRDR_LC),
];

/// Kernel names accepted by `lc:<kernel>` selectors, in table order.
pub fn kernel_names() -> impl Iterator<Item = &'static str> {
    KERNELS.iter().map(|(n, _, _)| *n)
}

/// The workload name a compiled kernel registers under, e.g.
/// `lc_quicksort`.
pub fn workload_name(kernel: &str) -> String {
    format!("lc_{kernel}")
}

/// Inverse of [`workload_name`]: `Some("quicksort")` for `lc_quicksort`.
/// Only names in [`KERNELS`] resolve.
pub fn parse_name(name: &str) -> Option<&str> {
    let kernel = name.strip_prefix("lc_")?;
    kernel_names().find(|&k| k == kernel)
}

/// The LC source of a kernel, `None` for unknown names.
pub fn source(kernel: &str) -> Option<&'static str> {
    KERNELS.iter().find(|(n, _, _)| *n == kernel).map(|(_, _, s)| *s)
}

/// The interned compiled workload for `kernel`, `None` for unknown
/// names.
///
/// The first request compiles and leaks the workload; later requests
/// (any thread) return the same `&'static` instance, so archives that
/// reference compiled workloads by name re-resolve to identical
/// programs.
///
/// # Panics
///
/// Panics if a bundled LC kernel fails to compile (a bug in this crate,
/// covered by tests).
pub fn compiled(kernel: &str) -> Option<&'static Workload> {
    let &(name, description, lc) = KERNELS.iter().find(|(n, _, _)| *n == kernel)?;
    static REGISTRY: OnceLock<Mutex<HashMap<&'static str, &'static Workload>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().expect("lc registry poisoned");
    Some(*map.entry(name).or_insert_with(|| {
        let asm = lockstep_cc::compile(lc)
            .unwrap_or_else(|e| panic!("LC kernel `{name}` failed to compile: {e}"));
        let w = Workload {
            name: Box::leak(workload_name(name).into_boxed_str()),
            description,
            source: Box::leak(asm.into_boxed_str()),
        };
        Box::leak(Box::new(w))
    }))
}

/// All compiled workloads, in [`KERNELS`] order.
pub fn all() -> Vec<&'static Workload> {
    kernel_names().map(|k| compiled(k).expect("table names resolve")).collect()
}

// ---------------------------------------------------------------------
// Random LC programs for the nightly compiler-fuzz mode.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64, index: u32) -> Rng {
        // Same decorrelation as the asm fuzz generator, different tag so
        // lc and asm streams from one seed are independent.
        let mut r = Rng((seed ^ 0x01C0_FFEE_00DD_BA11).wrapping_mul(2)
            ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(index) + 1));
        let _ = r.next();
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u32) as usize]
    }
}

/// Number of scalar locals a generated program declares (`v0`..).
const GEN_LOCALS: u32 = 4;

/// Generates a random-but-safe LC program for `(seed, index)`.
///
/// Same `(seed, index)` → byte-identical source, always. Termination is
/// by construction: the only loops are `for` with constant bounds and a
/// `+1` step over a loop variable no body statement writes, and there
/// are no calls (so no recursion). Array stores mask their index to the
/// array length, and every arithmetic operation has machine-defined
/// behavior on LR5 (shifts mask the amount; `/0` and overflow are
/// defined), so any expression the grammar produces is safe.
pub fn generate_source(seed: u64, index: u32) -> String {
    let mut rng = Rng::new(seed, index);
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("// lc fuzz program seed={seed} index={index}\n"));
    out.push_str("// generated by lockstep_workloads::lc — do not edit\n");
    out.push_str("int g0;\nint g1;\nint arr[16];\n\n");
    out.push_str("void main() {\n");
    for v in 0..GEN_LOCALS {
        out.push_str(&format!("  int v{v} = sensor({});\n", rng.below(8)));
    }
    let mut slot = 0;
    let units = 6 + rng.below(8); // 6..=13 top-level units
    for _ in 0..units {
        emit_unit(&mut out, &mut rng, &mut slot, 1);
    }
    // Fold everything observable so divergences cannot hide.
    out.push_str("  int h = g0 ^ g1;\n");
    for v in 0..GEN_LOCALS {
        out.push_str(&format!("  h = (h << 1) ^ v{v};\n"));
    }
    out.push_str("  for (int i = 0; i < 16; i = i + 1) { h = (h << 1) ^ arr[i]; }\n");
    out.push_str(&format!("  publish({}, h);\n", 60 + rng.below(4)));
    out.push_str("  misr(h);\n");
    out.push_str("}\n");
    out
}

/// One random statement at nesting `depth` (loops stop nesting at 3).
fn emit_unit(out: &mut String, rng: &mut Rng, slot: &mut u32, depth: u32) {
    let pad = "  ".repeat(depth as usize);
    match rng.below(100) {
        // Scalar assignment.
        0..=34 => {
            let tgt = *rng.pick(&["v0", "v1", "v2", "v3", "g0", "g1"]);
            let e = expr(rng, 2);
            out.push_str(&format!("{pad}{tgt} = {e};\n"));
        }
        // Array store with a masked index.
        35..=49 => {
            let idx = expr(rng, 1);
            let val = expr(rng, 2);
            out.push_str(&format!("{pad}arr[({idx}) & 15] = {val};\n"));
        }
        // If / if-else over a comparison.
        50..=69 => {
            let a = expr(rng, 1);
            let b = expr(rng, 1);
            let cmp = *rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
            out.push_str(&format!("{pad}if (({a}) {cmp} ({b})) {{\n"));
            emit_unit(out, rng, slot, depth + 1);
            if rng.below(2) == 0 {
                out.push_str(&format!("{pad}}} else {{\n"));
                emit_unit(out, rng, slot, depth + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        // Bounded for loop; the loop variable is scoped to the loop and
        // never written by the body grammar (no statement targets `iN`).
        70..=84 if depth < 3 => {
            let bound = 2 + rng.below(7);
            let i = format!("i{depth}");
            out.push_str(&format!("{pad}for (int {i} = 0; {i} < {bound}; {i} = {i} + 1) {{\n"));
            let inner = 1 + rng.below(3);
            for _ in 0..inner {
                emit_unit(out, rng, slot, depth + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        // Publish + misr a fresh expression (order-sensitive oracle).
        85..=92 => {
            let e = expr(rng, 2);
            out.push_str(&format!("{pad}publish({}, {e});\n", *slot % 60));
            *slot += 1;
        }
        _ => {
            let e = expr(rng, 2);
            out.push_str(&format!("{pad}misr({e});\n"));
        }
    }
}

/// A random expression with depth-bounded recursion.
fn expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(10) {
            0..=3 => (*rng.pick(&["v0", "v1", "v2", "v3", "g0", "g1"])).to_owned(),
            4..=5 => format!("{}", rng.next() as i32 % 10_000),
            6 => format!("sensor({})", rng.below(8)),
            7 => format!("arr[{} & 15]", rng.below(64)),
            _ => format!("{}", rng.below(64)),
        };
    }
    match rng.below(10) {
        0..=5 => {
            let op = *rng.pick(&["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"]);
            format!("({} {op} {})", expr(rng, depth - 1), expr(rng, depth - 1))
        }
        6 => format!("(~{})", expr(rng, depth - 1)),
        7 => format!("(-{})", expr(rng, depth - 1)),
        8 => format!("arr[({}) & 15]", expr(rng, depth - 1)),
        _ => expr(rng, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_and_resolve() {
        let mut seen = std::collections::HashSet::new();
        for k in kernel_names() {
            assert!(seen.insert(k), "duplicate lc kernel {k}");
            assert!(source(k).is_some());
            assert_eq!(parse_name(&workload_name(k)), Some(k));
        }
        assert_eq!(parse_name("lc_nope"), None);
        assert_eq!(parse_name("quicksort"), None);
        assert_eq!(compiled("nope"), None);
    }

    #[test]
    fn registry_interns_instances() {
        let a = compiled("quicksort").unwrap();
        let b = compiled("quicksort").unwrap();
        assert!(std::ptr::eq(a, b), "compiled kernels must intern");
        assert_eq!(a.name, "lc_quicksort");
    }

    #[test]
    fn every_lc_kernel_compiles_halts_and_publishes() {
        for w in all() {
            let g = w.golden_run(7, 400_000);
            assert!(g.halted, "{} did not halt", w.name);
            assert!(g.outputs >= 6, "{} published almost nothing ({})", w.name, g.outputs);
            assert!(g.instructions > 100, "{} retired almost nothing", w.name);
            assert!(g.cycles <= 120_000, "{} too slow for campaigns: {} cycles", w.name, g.cycles);
        }
    }

    #[test]
    fn anchor_ports_match_hand_written_checksums() {
        for (anchor, original) in [("rspeed", "rspeed"), ("canrdr", "canrdr")] {
            let port = compiled(anchor).unwrap();
            let hand = Workload::find(original).unwrap();
            for seed in [1, 7, 42] {
                let a = port.golden_run(seed, 400_000);
                let b = hand.golden_run(seed, 400_000);
                assert_eq!(
                    a.output_checksum, b.output_checksum,
                    "lc_{anchor} checksum drift vs {original} at seed {seed}"
                );
                assert_eq!(a.outputs, b.outputs, "lc_{anchor} output-count drift at seed {seed}");
            }
        }
    }

    #[test]
    fn quicksort_actually_sorts() {
        let w = compiled("quicksort").unwrap();
        let mut mem = w.memory(42);
        let mut core = lockstep_cpu::Cpu::new(0);
        let mut ports = lockstep_cpu::PortSet::new();
        for _ in 0..400_000 {
            if core.step(&mut mem, &mut ports).halted {
                break;
            }
        }
        // Slot 9 publishes the inversion count of the sorted array.
        assert_eq!(Workload::published(&mut mem, 9 * 4), 0, "sorted array has inversions");
    }

    #[test]
    fn stimulus_seed_changes_lc_outputs() {
        let w = compiled("crc32").unwrap();
        assert_ne!(
            w.golden_run(1, 400_000).output_checksum,
            w.golden_run(2, 400_000).output_checksum
        );
    }

    #[test]
    fn lr7_agrees_on_every_lc_kernel() {
        use lockstep_cpu::Lr7;
        for w in all() {
            let lr5 = w.golden_run(7, 400_000);
            let lr7 = w.golden_run_for::<Lr7>(7, 800_000);
            assert!(lr7.halted, "{} did not halt on LR7", w.name);
            assert_eq!(lr7.instructions, lr5.instructions, "{} instret drift", w.name);
            assert_eq!(lr7.outputs, lr5.outputs, "{} output-count drift", w.name);
            assert_eq!(lr7.output_checksum, lr5.output_checksum, "{} checksum drift", w.name);
        }
    }

    #[test]
    fn generation_is_deterministic_and_distinct() {
        for idx in 0..6 {
            assert_eq!(generate_source(42, idx), generate_source(42, idx));
        }
        assert_ne!(generate_source(42, 0), generate_source(42, 1));
        assert_ne!(generate_source(42, 0), generate_source(43, 0));
        // The lc stream must differ from the asm fuzz stream trivially
        // (different language), but also across seeds.
        assert!(generate_source(1, 0).contains("void main()"));
    }

    #[test]
    fn generated_programs_compile_and_halt() {
        for idx in 0..10 {
            let src = generate_source(2024, idx);
            let asm = lockstep_cc::compile(&src)
                .unwrap_or_else(|e| panic!("generated LC must compile: {e}\n{src}"));
            let w = Workload {
                name: "lcfuzz_test",
                description: "generated",
                source: Box::leak(asm.into_boxed_str()),
            };
            let g = w.golden_run(7, 400_000);
            assert!(g.halted, "generated LC program {idx} did not halt:\n{src}");
            assert!(g.outputs >= 1, "generated LC program {idx} published nothing");
        }
    }
}
