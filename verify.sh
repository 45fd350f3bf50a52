#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, clippy at zero
# warnings over every target (tests and benches included), the
# end-to-end self-check, the bench gate and the benchmark's model pins.
# Run from the repository root.
#
# Sweep parallelism respects ES2_THREADS (default: all cores). It
# changes wall time only: results are bitwise identical at any thread
# count, which `repro selfcheck` below checks.
set -eux

cargo build --release
cargo test -q
cargo clippy -q --workspace --all-targets -- -D warnings

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
for pin in "1 sweep 7b99ca24416e2e7a" "1 dense bfce23d0dabb6151" "1 cell eb7bcb5cc9f8d13a" \
           "7 sweep aac36da692208e35" "7 dense e3c4f7a15bd02235" "7 cell 0a9ab96c5786c2c8"; do
    set -- $pin
    env -u ES2_THREADS \
        target/perfbench/release/perfbench --workload "$2" --seed "$1" --seconds 0.1 \
        > /tmp/es2_perfbench.txt
    grep -qx "sim_digest $2 $3" /tmp/es2_perfbench.txt
    tail -n 1 /tmp/es2_perfbench.txt | grep -q '"correct":true'
done
rm -f /tmp/es2_perfbench.txt
