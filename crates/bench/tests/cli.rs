//! `repro` rejects arguments it does not know before it simulates
//! anything: a typo must not silently fall back to running `all` at full
//! windows, and must not report success.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_arguments_exit_2_without_simulating() {
    for args in [&["--perf"][..], &["nosuch", "--fast"]] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(
            stderr.contains("fig4") && stderr.contains("--scale"),
            "{stderr}"
        );
    }
}
