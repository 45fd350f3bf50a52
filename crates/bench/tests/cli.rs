//! `repro` rejects arguments it does not know before it simulates
//! anything: a typo must not silently fall back to running `all` at full
//! windows, and must not report success. Nor may a report that cannot
//! write its JSON artifact.

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

#[test]
fn unwritable_artifact_exits_1_without_simulating() {
    let dir = std::env::temp_dir().join(format!("es2-cli-no-target-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "--fast"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "simulated before checking: {stderr}");
    assert!(stderr.contains("target/BENCH_scale_fast.json"), "{stderr}");
}
