//! Flag errors of the experiment binaries are exit status 2 with an
//! `error:` line on stderr, never a panic: the portable flags are
//! validated as one campaign spec before any campaign starts, and the
//! retired axis flags and labels are refused like any unknown value.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_an_error_line() {
    for args in [
        &["--faults", "0", "--workloads", "rspeed"][..],
        &["--workloads", "lc:warp9"],
        &["--redundancy", "dynamic"],
        &["--replay-mode", "shadow"],
        &["--batch-mode", "lanes"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(args)
            .output()
            .expect("repro_all starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
