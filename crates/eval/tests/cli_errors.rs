//! Flag errors of the experiment binaries are exit status 2 with an
//! `error:` line on stderr, never a panic: the portable flags are
//! validated as one campaign spec before any campaign starts, the
//! retired axis flags and labels are refused like any unknown value,
//! and so is a trace window the campaign could not record.

use std::process::Command;

fn refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

#[test]
fn bad_flags_exit_2_with_an_error_line() {
    for args in [
        &["--faults", "0", "--workloads", "rspeed"][..],
        &["--workloads", "lc:warp9"],
        &["--redundancy", "dynamic"],
        &["--replay-mode", "shadow"],
        &["--batch-mode", "lanes"],
        &["--trace-window", "32", "--redundancy", "dme"],
        &["--trace-window", "32", "--checkpoint-interval", "0"],
    ] {
        refused(env!("CARGO_BIN_EXE_repro_all"), args);
    }
}

/// `trace_injection` always traces, so its default window meets the
/// same refusal.
#[test]
fn untraceable_campaigns_exit_2_from_trace_injection() {
    for args in [
        &["--redundancy", "dme", "--faults", "20", "--workloads", "rspeed"][..],
        &["--checkpoint-interval", "0", "--faults", "20", "--workloads", "rspeed"],
        &["--trace-window", "0", "--faults", "20", "--workloads", "rspeed"],
    ] {
        refused(env!("CARGO_BIN_EXE_trace_injection"), args);
    }
}
