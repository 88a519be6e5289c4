//! Flag errors of the experiment binaries are exit status 2 with an
//! `error:` line on stderr, never a panic: the portable flags are
//! validated as one campaign spec before any campaign starts, the
//! retired axis flags and labels are refused like any unknown value,
//! and so is a trace window the campaign could not record. A reader
//! that closes standard output early ends a binary quietly, and an
//! archive naming an unknown workload is an `error:` line with exit
//! status 1.

use std::process::{Command, Stdio};

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

/// `repro_all | head` and the like: the reader is gone before the
/// report is written, which ends the binary with status 0, not a panic.
#[test]
fn a_closed_stdout_ends_the_binary_quietly() {
    for bin in [env!("CARGO_BIN_EXE_repro_all"), env!("CARGO_BIN_EXE_trace_injection")] {
        let mut child = Command::new(bin)
            .args(["--faults", "30", "--workloads", "rspeed", "--threads", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the binary starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("the binary ends");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
}

/// An exported archive whose workload this build does not know loads,
/// but `analyze_dataset` refuses it with an `error:` line.
#[test]
fn an_archive_naming_an_unknown_workload_exits_1() {
    let path = std::env::temp_dir().join(format!("lockstep-warp9-{}.json", std::process::id()));
    let export = Command::new(env!("CARGO_BIN_EXE_export_dataset"))
        .arg(&path)
        .args(["--faults", "20", "--workloads", "canrdr", "--threads", "1"])
        .output()
        .expect("export_dataset starts");
    assert!(export.status.success(), "{}", String::from_utf8_lossy(&export.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("canrdr", "warp9")).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_analyze_dataset"))
        .arg(&path)
        .output()
        .expect("analyze_dataset starts");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains("warp9"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
