//! The kernel sources.
//!
//! Register conventions shared by all kernels: `s0` = sensor block base,
//! `s1` = output block base, `s2` = outer-loop counter. Every kernel ends
//! in `ecall` after a fixed number of outer iterations.

use crate::Workload;

/// Tooth-to-spark: crank-angle driven ignition timing — table lookup,
/// linear interpolation, divide-based load correction (the paper's
/// flagship AutoBench example).
const TTSPRK: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 80            ; outer iterations
    la   s3, advtbl
outer:
    lw   a0, 0(s0)         ; crank angle
    lw   a1, 4(s0)         ; engine load
    srli t0, a0, 10        ; table index = angle[13:10]
    andi t0, t0, 15
    slli t1, t0, 2
    add  t1, t1, s3
    lw   t2, 0(t1)         ; advance[i]
    lw   t3, 4(t1)         ; advance[i+1]
    andi t4, a0, 1023      ; fractional angle
    sub  t5, t3, t2
    mul  t5, t5, t4
    srai t5, t5, 10
    add  t5, t5, t2        ; interpolated spark advance
    li   t6, 37
    divu t6, a1, t6        ; load correction
    sub  t5, t5, t6
    slli t0, t5, 1         ; dwell = 3*advance + 4096
    add  t0, t0, t5
    addi t0, t0, 4096
    sw   t5, 0(s1)
    sw   t0, 4(s1)
    csrw misr, t0
    addi s2, s2, -1
    bnez s2, outer
    ecall
advtbl:
    .word 10, 12, 15, 18, 22, 26, 30, 34
    .word 38, 41, 43, 44, 44, 42, 38, 30
    .word 30
";

/// Road-speed calculation: wheel-pulse interval to km/h via hardware
/// divide, with a rolling accumulator (divider-heavy).
const RSPEED: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 60
    li   s3, 0             ; accumulator
    li   s4, 14745600      ; speed constant
outer:
    lw   a0, 8(s0)         ; pulse interval
    andi t0, a0, 0x3FFF
    ori  t0, t0, 1         ; never zero
    divu t2, s4, t0        ; speed
    add  s3, s3, t2
    srli t3, s3, 3         ; smoothed speed
    sw   t2, 8(s1)
    sw   t3, 12(s1)
    csrw misr, t2
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// Angle-to-time conversion: crank angle and RPM to an injector firing
/// time — multiply followed by divide every iteration.
const A2TIME: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 70
outer:
    lw   a0, 12(s0)        ; angle
    lw   a1, 16(s0)        ; raw rpm
    andi a0, a0, 0x7FFF
    andi t0, a1, 0x1FFF
    addi t0, t0, 600       ; plausible rpm
    li   t1, 60000
    mul  t2, a0, t1
    li   t3, 6
    mul  t3, t0, t3
    divu t4, t2, t3        ; time in ticks
    sw   t4, 16(s1)
    csrw misr, t4
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// CAN remote-data-request: CRC-15 (polynomial 0x4599) over a 32-bit
/// message, one bit per inner iteration (shifter/branch heavy).
const CANRDR: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 28
    li   s4, 0x4599        ; CAN CRC-15 polynomial
outer:
    lw   a0, 20(s0)        ; message word
    li   t0, 0             ; crc
    li   t1, 32
bitloop:
    srli t2, a0, 31
    srli t3, t0, 14
    xor  t2, t2, t3
    andi t2, t2, 1
    slli t0, t0, 1
    slli a0, a0, 1
    beqz t2, nofb
    xor  t0, t0, s4
nofb:
    andi t0, t0, 0x7FFF
    addi t1, t1, -1
    bnez t1, bitloop
    sw   t0, 20(s1)
    csrw misr, t0
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// Table lookup and interpolation: linear search through a sorted
/// breakpoint table, then interpolate (load/branch heavy).
const TBLOOK: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 40
    la   s3, bkpts
    la   s4, vals
outer:
    lw   a0, 24(s0)
    andi a0, a0, 0xFFF     ; key in [0, 4095]
    li   t0, 0             ; index
search:
    slli t1, t0, 2
    add  t1, t1, s3
    lw   t2, 0(t1)
    bgeu t2, a0, found     ; first breakpoint >= key
    addi t0, t0, 1
    li   t3, 15
    blt  t0, t3, search
found:
    slli t1, t0, 2
    add  t1, t1, s4
    lw   t4, 0(t1)         ; value at breakpoint
    add  t5, t4, a0
    srai t5, t5, 1
    sw   t5, 24(s1)
    csrw misr, t5
    addi s2, s2, -1
    bnez s2, outer
    ecall
bkpts:
    .word 256, 512, 768, 1024, 1280, 1536, 1792, 2048
    .word 2304, 2560, 2816, 3072, 3328, 3584, 3840, 4096
vals:
    .word 40, 85, 120, 170, 200, 260, 300, 350
    .word 410, 450, 520, 560, 610, 640, 700, 750
";

/// Pointer chase: walk a scrambled 16-node linked list built at init
/// (load-use heavy, exercises LSU/DMCU interlocks).
const PNTRCH: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
.equ NODES, 0x4000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 42
    li   s3, NODES
    ; Build: node i at NODES+8i = {payload, next}, next = NODES+8*((7i+3)&15)
    li   t0, 0
build:
    slli t1, t0, 3
    add  t1, t1, s3        ; &node[i]
    slli t2, t0, 5
    addi t2, t2, 97
    sw   t2, 0(t1)         ; payload
    slli t3, t0, 3         ; 8i... compute (7i+3)&15 = (8i-i+3)&15
    sub  t3, t3, t0
    addi t3, t3, 3
    andi t3, t3, 15
    slli t3, t3, 3
    add  t3, t3, s3
    sw   t3, 4(t1)         ; next pointer
    addi t0, t0, 1
    li   t4, 16
    blt  t0, t4, build
outer:
    lw   a0, 28(s0)
    andi a0, a0, 15
    slli a0, a0, 3
    add  a0, a0, s3        ; start node from sensor
    li   t5, 0             ; sum
    li   t6, 20            ; chase length
chase:
    lw   t1, 0(a0)         ; payload (load-use on next lw)
    lw   a0, 4(a0)         ; follow pointer
    add  t5, t5, t1
    addi t6, t6, -1
    bnez t6, chase
    sw   t5, 28(s1)
    csrw misr, t5
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// 3×3 integer matrix multiply with RAM-resident matrices rebuilt from
/// sensor data each iteration (balanced LSU/MDV mix).
const MATRIX: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
.equ MATA, 0x4200
.equ MATB, 0x4240
.equ MATC, 0x4280
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 24
outer:
    lw   a0, 32(s0)
    lw   a1, 36(s0)
    ; fill A[k] = (a0 >> k) + k ; B[k] = (a1 >> k) - k  for k in 0..9
    li   t0, 0
    li   s3, MATA
    li   s4, MATB
fill:
    srl  t1, a0, t0
    andi t1, t1, 0xFF
    add  t1, t1, t0
    slli t2, t0, 2
    add  t3, t2, s3
    sw   t1, 0(t3)
    srl  t1, a1, t0
    andi t1, t1, 0xFF
    sub  t1, t1, t0
    add  t3, t2, s4
    sw   t1, 0(t3)
    addi t0, t0, 1
    li   t4, 9
    blt  t0, t4, fill
    ; C = A * B (3x3), accumulate checksum of C
    li   t0, 0             ; i
    li   s5, 0             ; checksum
iloop:
    li   t1, 0             ; j
jloop:
    li   t2, 0             ; k
    li   t3, 0             ; acc
kloop:
    ; A[i*3+k]
    slli t4, t0, 1
    add  t4, t4, t0        ; 3i
    add  t4, t4, t2
    slli t4, t4, 2
    li   t5, MATA
    add  t4, t4, t5
    lw   t4, 0(t4)
    ; B[k*3+j]
    slli t5, t2, 1
    add  t5, t5, t2        ; 3k
    add  t5, t5, t1
    slli t5, t5, 2
    li   t6, MATB
    add  t5, t5, t6
    lw   t5, 0(t5)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t2, t2, 1
    li   t6, 3
    blt  t2, t6, kloop
    ; store C[i*3+j]
    slli t4, t0, 1
    add  t4, t4, t0
    add  t4, t4, t1
    slli t4, t4, 2
    li   t5, MATC
    add  t4, t4, t5
    sw   t3, 0(t4)
    add  s5, s5, t3
    addi t1, t1, 1
    li   t6, 3
    blt  t1, t6, jloop
    addi t0, t0, 1
    li   t6, 3
    blt  t0, t6, iloop
    sw   s5, 32(s1)
    csrw misr, s5
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// 8-tap FIR filter over a circular sample buffer (multiply-accumulate).
const AIFIRF: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
.equ SAMPLES, 0x4300
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 48
    li   s3, SAMPLES
    la   s4, coeffs
    li   s5, 0             ; head
    ; zero the buffer
    li   t0, 0
zero:
    slli t1, t0, 2
    add  t1, t1, s3
    sw   zero, 0(t1)
    addi t0, t0, 1
    li   t2, 8
    blt  t0, t2, zero
outer:
    lw   a0, 36(s0)
    andi a0, a0, 0xFFFF    ; new sample
    slli t0, s5, 2
    add  t0, t0, s3
    sw   a0, 0(t0)         ; buf[head] = sample
    ; acc = sum coeffs[k] * buf[(head - k) & 7]
    li   t1, 0             ; k
    li   t2, 0             ; acc
fir:
    sub  t3, s5, t1
    andi t3, t3, 7
    slli t3, t3, 2
    add  t3, t3, s3
    lw   t4, 0(t3)
    slli t5, t1, 2
    add  t5, t5, s4
    lw   t6, 0(t5)
    mul  t4, t4, t6
    add  t2, t2, t4
    addi t1, t1, 1
    li   t6, 8
    blt  t1, t6, fir
    srai t2, t2, 8
    sw   t2, 36(s1)
    csrw misr, t2
    addi s5, s5, 1
    andi s5, s5, 7
    addi s2, s2, -1
    bnez s2, outer
    ecall
coeffs:
    .word 12, -34, 96, 230, 230, 96, -34, 12
";

/// Biquad IIR filter in Q12 fixed point, state in registers
/// (shifter/ALU heavy).
const IIRFLT: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 58
    li   s3, 0             ; x1
    li   s4, 0             ; x2
    li   s5, 0             ; y1
    li   s6, 0             ; y2
outer:
    lw   a0, 40(s0)
    andi a0, a0, 0x3FFF    ; x
    ; y = (1024*x + 2048*x1 + 1024*x2 + 3276*y1 - 1638*y2) >> 12
    slli t0, a0, 10
    slli t1, s3, 11
    add  t0, t0, t1
    slli t1, s4, 10
    add  t0, t0, t1
    li   t2, 3276
    mul  t1, s5, t2
    add  t0, t0, t1
    li   t2, 1638
    mul  t1, s6, t2
    sub  t0, t0, t1
    srai t0, t0, 12
    ; shift state
    mv   s4, s3
    mv   s3, a0
    mv   s6, s5
    mv   s5, t0
    sw   t0, 40(s1)
    csrw misr, t0
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// Bit manipulation: bit-reverse and population count of a sensor word,
/// one bit per inner iteration.
const BITMNP: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 36
outer:
    lw   a0, 44(s0)
    li   t0, 0             ; reversed
    li   t1, 0             ; popcount
    li   t2, 32
rev:
    slli t0, t0, 1
    andi t3, a0, 1
    or   t0, t0, t3
    add  t1, t1, t3
    srli a0, a0, 1
    addi t2, t2, -1
    bnez t2, rev
    sw   t0, 44(s1)
    sw   t1, 48(s1)
    csrw misr, t0
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// 4-point integer butterfly transform (IDCT-style): adds, subtracts and
/// constant multiplies with Q10 rounding.
const IDCTRN: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 48
outer:
    lw   a0, 48(s0)
    lw   a1, 52(s0)
    andi a0, a0, 0xFFF
    andi a1, a1, 0xFFF
    srli a2, a0, 4
    srli a3, a1, 4
    ; butterfly
    add  t0, a0, a1        ; s
    sub  t1, a0, a1        ; d
    li   t2, 1004          ; cos const (Q10)
    mul  t3, t0, t2
    srai t3, t3, 10
    li   t2, 414           ; sin const (Q10)
    mul  t4, t1, t2
    srai t4, t4, 10
    add  t5, a2, t3
    sub  t6, a3, t4
    sw   t3, 52(s1)
    sw   t4, 56(s1)
    sw   t5, 60(s1)
    sw   t6, 64(s1)
    csrw misr, t5
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// Pulse-width modulation: duty from remainder, then a 32-tick compare
/// loop counting output toggles.
const PUWMOD: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 42
outer:
    lw   a0, 56(s0)
    andi t0, a0, 255
    addi t0, t0, 16        ; period
    srli t1, a0, 8
    remu t1, t1, t0        ; duty = high bits mod period
    li   t2, 0             ; tick
    li   t3, 0             ; phase accumulator
    li   t4, 0             ; toggle count
tick:
    add  t3, t3, t1
    bltu t3, t0, low
    sub  t3, t3, t0
    addi t4, t4, 1
low:
    addi t2, t2, 1
    li   t5, 32
    blt  t2, t5, tick
    sw   t4, 68(s1)
    sw   t1, 72(s1)
    csrw misr, t4
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// 8-point real-input DFT with a Q14 cosine table: per bin, 16 MACs and
/// a magnitude-squared — the `aifftr` frequency-analysis stand-in
/// (MDV + table-lookup heavy).
const AIFFTR: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
.equ SAMPLES, 0x4400
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 12
    li   s3, SAMPLES
    la   s4, costab
outer:
    ; capture 8 samples
    li   t0, 0
grab:
    lw   a0, 60(s0)
    andi a0, a0, 0x3FF
    addi a0, a0, -512      ; centre around zero
    slli t1, t0, 2
    add  t1, t1, s3
    sw   a0, 0(t1)
    addi t0, t0, 1
    li   t2, 8
    blt  t0, t2, grab
    ; bins k = 0..3
    li   t3, 0             ; k
bins:
    li   t0, 0             ; n
    li   a2, 0             ; re accumulator
    li   a3, 0             ; im accumulator
mac:
    mul  t4, t0, t3        ; phase index n*k
    andi t4, t4, 7
    slli t5, t4, 2
    add  t5, t5, s4
    lw   a4, 0(t5)         ; cos (Q14)
    ; sin(x) = cos(x - 2) in eighth-turns
    addi t4, t4, 6
    andi t4, t4, 7
    slli t5, t4, 2
    add  t5, t5, s4
    lw   a5, 0(t5)         ; sin (Q14)
    slli t5, t0, 2
    add  t5, t5, s3
    lw   a6, 0(t5)         ; sample
    mul  t6, a6, a4
    srai t6, t6, 14
    add  a2, a2, t6
    mul  t6, a6, a5
    srai t6, t6, 14
    sub  a3, a3, t6
    addi t0, t0, 1
    li   t2, 8
    blt  t0, t2, mac
    ; |X[k]|^2 scaled
    mul  t6, a2, a2
    mul  t5, a3, a3
    add  t6, t6, t5
    srli t6, t6, 6
    slli t5, t3, 2
    add  t5, t5, s1
    sw   t6, 80(t5)
    csrw misr, t6
    addi t3, t3, 1
    li   t2, 4
    blt  t3, t2, bins
    addi s2, s2, -1
    bnez s2, outer
    ecall
costab:
    ; cos(2*pi*i/8) in Q14 for i = 0..7
    .word 16384, 11585, 0, -11585, -16384, -11585, 0, 11585
";

/// Fixed-point basic math: Newton integer square root and a saturating
/// multiply — the `basefx` arithmetic-library stand-in (divider heavy).
const BASEFX: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 24
outer:
    lw   a0, 4(s0)
    andi a0, a0, 0xFFFF
    ori  a0, a0, 1         ; x > 0
    ; Newton: y = (y + x/y) / 2, six iterations from y = x/2 + 1
    srli t0, a0, 1
    addi t0, t0, 1
    li   t1, 6
newton:
    divu t2, a0, t0
    add  t0, t0, t2
    srli t0, t0, 1
    addi t1, t1, -1
    bnez t1, newton
    sw   t0, 96(s1)        ; isqrt(x)
    csrw misr, t0
    ; saturating Q16 multiply of two sensor words
    lw   a1, 8(s0)
    lw   a2, 12(s0)
    andi a1, a1, 0xFFFF
    andi a2, a2, 0xFFFF
    mulhu t3, a1, a2       ; high word
    mul  t4, a1, a2
    srli t4, t4, 16
    slli t3, t3, 16
    or   t4, t4, t3        ; Q16 product
    li   t5, 0x7FFFFFFF
    bltu t4, t5, nosat
    mv   t4, t5
nosat:
    sw   t4, 100(s1)
    csrw misr, t4
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// Cache-buster-style strided memory sweep: writes then reads a 1 KiB
/// region with a prime stride (DMCU/BIU traffic heavy).
const CACHEB: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
.equ REGION, 0x4800
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 10
    li   s3, REGION
outer:
    lw   a0, 60(s0)
    ; write pass: 64 words, stride 7 (mod 64)
    li   t0, 0             ; logical index
    li   t1, 0             ; position
wr:
    slli t2, t1, 2
    add  t2, t2, s3
    add  t3, a0, t0
    sw   t3, 0(t2)
    addi t1, t1, 7
    andi t1, t1, 63
    addi t0, t0, 1
    li   t4, 64
    blt  t0, t4, wr
    ; read pass: xor-reduce
    li   t0, 0
    li   t5, 0
rd:
    slli t2, t0, 2
    add  t2, t2, s3
    lw   t3, 0(t2)
    xor  t5, t5, t3
    addi t0, t0, 1
    li   t4, 64
    blt  t0, t4, rd
    sw   t5, 76(s1)
    csrw misr, t5
    addi s2, s2, -1
    bnez s2, outer
    ecall
";

/// All kernels in the suite.
pub const ALL: &[Workload] = &[
    Workload {
        name: "ttsprk",
        description: "tooth-to-spark ignition timing: table lookup, interpolation, divide",
        source: TTSPRK,
    },
    Workload {
        name: "rspeed",
        description: "road-speed calculation from wheel-pulse intervals (divider heavy)",
        source: RSPEED,
    },
    Workload {
        name: "a2time",
        description: "crank-angle to injector time conversion (multiply+divide)",
        source: A2TIME,
    },
    Workload {
        name: "canrdr",
        description: "CAN remote-data-request CRC-15 (bitwise, shifter heavy)",
        source: CANRDR,
    },
    Workload {
        name: "tblook",
        description: "breakpoint table lookup with interpolation (load/branch heavy)",
        source: TBLOOK,
    },
    Workload {
        name: "pntrch",
        description: "scrambled linked-list pointer chase (load-use interlocks)",
        source: PNTRCH,
    },
    Workload {
        name: "matrix",
        description: "3x3 integer matrix multiply (balanced LSU/MDV)",
        source: MATRIX,
    },
    Workload {
        name: "aifirf",
        description: "8-tap FIR filter with circular buffer (MAC loop)",
        source: AIFIRF,
    },
    Workload {
        name: "iirflt",
        description: "biquad IIR filter in Q12 fixed point (shift/ALU heavy)",
        source: IIRFLT,
    },
    Workload {
        name: "bitmnp",
        description: "bit reverse + population count (bitwise inner loop)",
        source: BITMNP,
    },
    Workload {
        name: "idctrn",
        description: "4-point integer butterfly transform (IDCT-style)",
        source: IDCTRN,
    },
    Workload {
        name: "puwmod",
        description: "pulse-width modulation duty/toggle modelling (remainder + compare loop)",
        source: PUWMOD,
    },
];

/// Trap exerciser: points `tvec` at a handler, then each iteration
/// takes a misaligned-load trap and an `ebreak`, calls and returns from a
/// subroutine, and moves values through every writable CSR but `misr`.
/// The handler reads `cause`/`epc` with `csrr`, publishes them, and
/// returns past the trapping instruction through `epc`. No suite kernel
/// traps or touches the return-address stack fault-free, so this is the
/// workload that exercises those paths.
const TRAPEX: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 12            ; outer iterations
    li   s3, 0             ; traps taken
    la   t0, handler
    csrw tvec, t0
outer:
    lw   a0, 0(s0)
    csrw scratch0, a0
    csrw status, s2
    add  t1, a0, s2        ; the handler saves t1 in scratch1
    lw   t2, 2(s0)         ; misaligned: traps, the handler skips it
    csrr a1, scratch0
    call mix
    sw   a1, 16(s1)
    ebreak                 ; breakpoint: traps, the handler skips it
    csrr t3, status
    csrr t4, tvec
    xor  t3, t3, t4
    csrw cause, t3
    csrw epc, a1
    csrr t5, cause
    csrr t6, epc
    add  t5, t5, t6
    sw   t5, 20(s1)
    csrw misr, t5
    addi s2, s2, -1
    bnez s2, outer
    sw   s3, 24(s1)
    ecall

mix:                       ; gp and tp: no other kernel writes them
    slli gp, a1, 3
    xor  a1, a1, gp
    srli tp, a1, 5
    add  a1, a1, tp
    addi a1, a1, 77
    ret

handler:
    csrw scratch1, t1      ; free t1
    csrr t1, cause
    sw   t1, 0(s1)
    csrr t1, epc
    sw   t1, 4(s1)
    addi s3, s3, 1
    addi t1, t1, 4         ; resume after the trapping instruction
    csrw epc, t1
    csrr t1, scratch1
    csrr t0, epc
    jr   t0
";

/// Counter exerciser: each iteration reads `cycle`, `instret` and
/// `hartid` with `csrr` at several points and publishes the counter
/// values (never `hartid`, which differs between lockstep harts), with
/// multiply/divide work and RAM loads and stores between long idle
/// loops. No other kernel reads a counter, so this is the workload whose
/// counter faults wake from parking. The counter values it publishes
/// are microarchitectural (the pipeline reads them in EX, with older
/// instructions still in flight), so it stays out of the ISS
/// differential, like `csrr cycle` in generated programs.
const CTREX: &str = r"
.equ SENSOR, 0xFFFF0000
.equ OUTPUT, 0xFFFF8000
start:
    li   s0, SENSOR
    li   s1, OUTPUT
    li   s2, 10            ; outer iterations
    la   s3, buf
outer:
    csrr a0, cycle
    sw   a0, 0(s1)
    li   t0, 40
idle1:
    addi t0, t0, -1
    bnez t0, idle1
    lw   a1, 0(s0)         ; sensor sample
    mul  a2, a1, s2
    sw   a2, 0(s3)
    lw   a3, 0(s3)
    xori a3, a3, 0x55
    sh   a3, 6(s3)
    lhu  a4, 6(s3)
    csrr a5, instret
    sub  a5, a5, a4
    sw   a5, 4(s1)
    csrr t1, hartid        ; read, never published
    li   t0, 40
idle2:
    addi t0, t0, -1
    bnez t0, idle2
    li   t2, 7
    divu a6, a1, t2
    remu a7, a1, t2
    csrr t3, cycle
    sub  t3, t3, a0        ; cycles this iteration
    add  t3, t3, a6
    sw   t3, 8(s1)
    sw   a7, 12(s1)
    csrr t4, instret
    sw   t4, 16(s1)
    csrw misr, t4
    addi s2, s2, -1
    bnez s2, outer
    ecall
buf:
    .space 16
";

// CACHEB is defined for ablation experiments that need extra memory-bound
// pressure; it is exposed via `extra()` rather than the default suite so
// the default suite matches the 12-kernel footprint used in experiments.
/// Additional kernels outside the default suite.
pub fn extra() -> &'static [Workload] {
    const EXTRA: &[Workload] = &[
        Workload {
            name: "cacheb",
            description: "strided memory sweep (DMCU/BIU traffic heavy)",
            source: CACHEB,
        },
        Workload {
            name: "aifftr",
            description: "8-point real DFT with Q14 cosine table (MAC + table lookups)",
            source: AIFFTR,
        },
        Workload {
            name: "basefx",
            description: "fixed-point basics: Newton isqrt, saturating Q16 multiply",
            source: BASEFX,
        },
        Workload {
            name: "trapex",
            description: "trap exerciser: misaligned load and ebreak traps, csrr/csrw, call/ret",
            source: TRAPEX,
        },
        Workload {
            name: "ctrex",
            description: "counter exerciser: csrr cycle/instret/hartid between idle loops",
            source: CTREX,
        },
    ];
    EXTRA
}
