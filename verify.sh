#!/usr/bin/env sh
# Tier-1 verification: rustfmt layout, release build, full test suite,
# clippy at zero warnings over every target (tests and benches included)
# with default and with all features, the end-to-end self-check, the
# full-window reports against the committed BENCH_*.json, the bench gate
# and the benchmark's model pins.
# Run from the repository root.
#
# Sweep parallelism respects ES2_THREADS (default: all cores). It
# changes wall time only: results are bitwise identical at any thread
# count, which `repro selfcheck` below checks.
set -eux

# Formatting gate: the workspace (and the vendored crates it builds) is
# kept in rustfmt's layout. perfbench/ is a separate workspace, so this
# step neither checks nor touches it.
cargo fmt --all -- --check

cargo build --release
cargo test -q
cargo clippy -q --workspace --all-targets -- -D warnings
# Again with every feature on: nothing else compiles the `ev-profile`
# build (per-kind `Ev` dispatch timing), which perfbench's traced half uses.
cargo clippy -q --workspace --all-targets --all-features -- -D warnings

# Bench targets must compile: neither the build nor the tests above
# touch crates/bench/benches, so a stale bench would otherwise rot unseen.
cargo bench -q -p es2-bench --no-run

# Rustdoc gate: the API docs must build clean (broken intra-doc links
# and malformed doc comments are errors, not noise).
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# End-to-end determinism (crates/bench/src/selfcheck.rs): every report
# and the chaos/figure runs, serial against N threads, plain against
# trace and telemetry on, checked for their liveness verdicts and held
# to the goldens under ci/. Writes each target/BENCH_<stem>_fast.json.
./target/release/repro selfcheck

# The remaining figures: every figure run is liveness-checked
# (`RunSpec::run` panics on a violation, and repro then exits non-zero),
# and no selfcheck row renders these.
./target/release/repro fig5 fig6 fig7 fig8 fig9 sriov ablations --fast > /dev/null

# Full-window determinism: the seven reports at their full windows must
# regenerate every committed BENCH_<stem>.json byte for byte
# (BENCH_telemetry.json holds every telemetry window row,
# BENCH_trace.json every span-stage histogram). They run in a
# throwaway directory with its own target/ for the Chrome traces, so the
# committed files are compared, never overwritten. A report whose cell
# prints a FAIL verdict exits 1, which stops the loop through `set -e`.
rm -rf target/fullcheck
mkdir -p target/fullcheck/target
for stem in migrate telemetry mq trace churn hostile scale; do
    (cd target/fullcheck && ../release/repro --$stem > /dev/null)
    cmp "BENCH_$stem.json" "target/fullcheck/BENCH_$stem.json"
done

# Guest trust boundary: the vhost backend's non-test code must stay free
# of unwrap() on guest-reachable state — a hostile ring surfaces a typed
# RingError and a quarantine, never a panic.
if sed -n '1,/#\[cfg(test)\]/p' crates/virtio/src/vhost.rs | grep -n 'unwrap()'; then
    echo "unwrap() in the vhost backend hot path: return a typed RingError instead" >&2
    exit 1
fi

# Bench regression gate: bounds over the committed BENCH_*.json
# artifacts (ci/bench_gate.rs). Every row is sim-determined and fatal;
# host-time performance is measured by perfbench, pinned below.
./target/release/bench_gate

# Benchmark model pin: a perf claim compares wall time on the same
# simulated model, so the benchmark's digest of every simulated result
# must keep its committed value at seed 1 and at the held-out seed 7.
# A change that alters the model the benchmark measures fails here
# instead of passing as a speed-up. Each pin is "seed workload digest".
# ES2_THREADS is cleared, as perfbench/run.py does.
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
for pin in "1 sweep c7a1c768513d1b2a" "1 dense 2d516f946772acbb" "1 cell 322016e056f4b621" \
           "7 sweep aa8d1d0e6c9a4ada" "7 dense 93cb00f6c46ed48e" "7 cell cb2af62471ef5823"; do
    set -- $pin
    env -u ES2_THREADS \
        target/perfbench/release/perfbench --workload "$2" --seed "$1" --seconds 0.1 \
        > /tmp/es2_perfbench.txt
    got=$(sed -n "s/^sim_digest $2 //p" /tmp/es2_perfbench.txt)
    if [ "$got" != "$3" ]; then
        echo "perfbench pin: $2 at seed $1 digests to '$got', pinned $3" >&2
        exit 1
    fi
    tail -n 1 /tmp/es2_perfbench.txt | grep -q '"correct":true'
done
rm -f /tmp/es2_perfbench.txt
