//! `repro` rejects arguments it does not know before it simulates
//! anything: a typo must not silently fall back to running `all` at full
//! windows, and must not report success. Nor may a second selection be
//! dropped, nor a report that cannot write its JSON artifact pass.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A second selection is refused like an unknown argument: two
/// reports, a report and an experiment, or `selfcheck` and anything.
#[test]
fn unknown_arguments_exit_2_without_simulating() {
    for args in [
        &["--perf"][..],
        &["nosuch", "--fast"],
        &["--traced", "fig4"],
        &["--telemetered", "fig4"],
        &["--mq", "--scale", "--fast"],
        &["--scale", "fig4"],
        &["table1", "--trace", "--fast"],
        &["selfcheck", "chaos"],
        &["selfcheck", "--fast"],
        &["selfcheck", "selfcheck"],
    ] {
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

/// The self-check renders a row in-process through the same parse and
/// params path as the binary; the two must print the same bytes.
#[test]
fn selfcheck_render_matches_the_binary() {
    let dir = std::env::temp_dir().join(format!("es2-cli-scale-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("target")).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "--fast"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (serial, _) = es2_bench::selfcheck::render(&["--scale"], 1, |p| p).expect("passes");
    assert_eq!(serial, String::from_utf8_lossy(&out.stdout));
}
