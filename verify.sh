#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, clippy at zero
# warnings over every target (tests and benches included), and the
# chaos-determinism check. Run from the repository root.
#
# Sweep parallelism during tests/benches respects ES2_THREADS
# (default: all cores; ES2_THREADS=1 forces fully serial sweeps — useful
# for bisecting any suspected executor interaction, though results are
# bitwise identical at any thread count by construction).
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

# Chaos determinism: the seeded acceptance fault plan must produce a
# byte-identical report serial (ES2_THREADS=1) and at the default thread
# count — fault injection does not break sweep reproducibility.
ES2_THREADS=1 ./target/release/repro chaos --fast > /tmp/es2_chaos_serial.txt
./target/release/repro chaos --fast > /tmp/es2_chaos_default.txt
cmp /tmp/es2_chaos_serial.txt /tmp/es2_chaos_default.txt
grep -q "liveness: PASS" /tmp/es2_chaos_serial.txt
rm -f /tmp/es2_chaos_serial.txt /tmp/es2_chaos_default.txt

# Scale-sweep determinism: the consolidation report and its JSON
# (simulation-determined quantities only) must also be byte-identical
# serial vs default threads, with lazy-timer elision leaving the liveness
# invariants green.
ES2_THREADS=1 ./target/release/repro --scale --fast > /tmp/es2_scale_serial.txt
cp target/BENCH_scale_fast.json /tmp/es2_scale_serial.json
./target/release/repro --scale --fast > /tmp/es2_scale_default.txt
cmp /tmp/es2_scale_serial.txt /tmp/es2_scale_default.txt
cmp /tmp/es2_scale_serial.json target/BENCH_scale_fast.json
grep -q "PASS (0 violations)" /tmp/es2_scale_serial.txt
rm -f /tmp/es2_scale_serial.txt /tmp/es2_scale_default.txt /tmp/es2_scale_serial.json

# Flight-recorder determinism: the --trace stage-latency report (and its
# JSON) is built from sim-time quantities only, so it must be
# byte-identical serial vs default threads, and the headline
# scheduling-delay decomposition must be present.
ES2_THREADS=1 ./target/release/repro --trace --fast > /tmp/es2_trace_serial.txt
cp target/BENCH_trace_fast.json /tmp/es2_trace_serial.json
./target/release/repro --trace --fast > /tmp/es2_trace_default.txt
cmp /tmp/es2_trace_serial.txt /tmp/es2_trace_default.txt
cmp /tmp/es2_trace_serial.json target/BENCH_trace_fast.json
grep -q "sched-delay" /tmp/es2_trace_serial.txt
rm -f /tmp/es2_trace_serial.txt /tmp/es2_trace_default.txt /tmp/es2_trace_serial.json

# Tracing must not perturb the simulation: figures and the chaos report
# are byte-identical with the flight recorder on (--traced) and off.
./target/release/repro chaos --fast > /tmp/es2_untraced.txt
./target/release/repro chaos --fast --traced > /tmp/es2_traced.txt
cmp /tmp/es2_untraced.txt /tmp/es2_traced.txt
./target/release/repro table1 fig4 --fast > /tmp/es2_untraced.txt
./target/release/repro table1 fig4 --fast --traced > /tmp/es2_traced.txt
cmp /tmp/es2_untraced.txt /tmp/es2_traced.txt
./target/release/repro --migrate --fast > /tmp/es2_untraced.txt
./target/release/repro --migrate --fast --traced > /tmp/es2_traced.txt
cmp /tmp/es2_untraced.txt /tmp/es2_traced.txt
rm -f /tmp/es2_untraced.txt /tmp/es2_traced.txt

# Hostile-guest determinism + containment: the blast-radius report (and
# its JSON) is built from simulation-determined quantities only, so it
# must be byte-identical serial vs default threads; the run must stay
# liveness-clean and the storm/quarantine damage must land on the
# hostile VM alone.
ES2_THREADS=1 ./target/release/repro --hostile --fast > /tmp/es2_hostile_serial.txt
cp target/BENCH_hostile_fast.json /tmp/es2_hostile_serial.json
./target/release/repro --hostile --fast > /tmp/es2_hostile_default.txt
cmp /tmp/es2_hostile_serial.txt /tmp/es2_hostile_default.txt
cmp /tmp/es2_hostile_serial.json target/BENCH_hostile_fast.json
grep -q "liveness: PASS" /tmp/es2_hostile_serial.txt
grep -q "leaked to neighbors: 0" /tmp/es2_hostile_serial.txt
rm -f /tmp/es2_hostile_serial.txt /tmp/es2_hostile_default.txt /tmp/es2_hostile_serial.json

# Multi-host cell determinism: the consolidation/migration report runs
# N host machines on one serial event merge with live migrations,
# crashes and aborts crossing between them; it and its JSON must be
# byte-identical serial (ES2_THREADS=1) vs the default thread count.
# Every migration in the sweep must resume, and the report must stay
# liveness-clean.
ES2_THREADS=1 ./target/release/repro --migrate --fast > /tmp/es2_migrate_serial.txt
cp target/BENCH_migrate_fast.json /tmp/es2_migrate_serial.json
./target/release/repro --migrate --fast > /tmp/es2_migrate_default.txt
cmp /tmp/es2_migrate_serial.txt /tmp/es2_migrate_default.txt
cmp /tmp/es2_migrate_serial.json target/BENCH_migrate_fast.json
grep -q "PASS" /tmp/es2_migrate_serial.txt
if grep -q "FAIL" /tmp/es2_migrate_serial.txt; then
    echo "migrate sweep reported a liveness failure" >&2
    exit 1
fi
rm -f /tmp/es2_migrate_serial.txt /tmp/es2_migrate_default.txt /tmp/es2_migrate_serial.json

# Non-migration byte-identity: plans that never touch the host-fault
# family must render the exact bytes they did before multi-host cells
# existed — the committed golden chaos report is a byte-identical prefix
# of today's output (the host-fault cell is strictly appended).
./target/release/repro chaos --fast > /tmp/es2_chaos_now.txt
head -n "$(wc -l < ci/golden_chaos_fast.txt)" /tmp/es2_chaos_now.txt \
    | cmp ci/golden_chaos_fast.txt -
grep -q "cell liveness: PASS" /tmp/es2_chaos_now.txt
rm -f /tmp/es2_chaos_now.txt

# Tenant-churn determinism: the churn control-plane report (admission
# rates, retry/backoff outcomes, boot p99, conservation results) is
# built from simulation-determined quantities only, so it (and its
# JSON) must be byte-identical serial (ES2_THREADS=1) vs the default
# thread count.
# The report must stay liveness-clean with zero orphaned resources in
# every cell.
ES2_THREADS=1 ./target/release/repro --churn --fast > /tmp/es2_churn_serial.txt
cp target/BENCH_churn_fast.json /tmp/es2_churn_serial.json
./target/release/repro --churn --fast > /tmp/es2_churn_default.txt
cmp /tmp/es2_churn_serial.txt /tmp/es2_churn_default.txt
cmp /tmp/es2_churn_serial.json target/BENCH_churn_fast.json
grep -q "PASS" /tmp/es2_churn_serial.txt
if grep -q "FAIL" /tmp/es2_churn_serial.txt; then
    echo "churn sweep reported a liveness failure" >&2
    exit 1
fi
rm -f /tmp/es2_churn_serial.txt /tmp/es2_churn_default.txt /tmp/es2_churn_serial.json

# Churn-off byte-identity: with no ChurnSpec in play, the chaos report
# (whose plans never enable churn) must still reproduce the committed
# golden prefix exactly — the churn machinery costs churn-free runs
# zero bytes. This is the same golden the multi-host and multi-queue
# gates pin; it is asserted again here so a churn regression cannot
# hide behind those earlier cmps being reordered or removed.
./target/release/repro chaos --fast > /tmp/es2_churn_off.txt
head -n "$(wc -l < ci/golden_chaos_fast.txt)" /tmp/es2_churn_off.txt \
    | cmp ci/golden_chaos_fast.txt -
rm -f /tmp/es2_churn_off.txt

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
# ES2_* variables are cleared, as perfbench/run.py does.
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
for pin in "1 sweep 7293ff7c6422dac9" "1 dense 524da1bc611269a3" "1 cell e7455fdb3b68525b" \
           "7 sweep 8f1578681ea69c2c" "7 dense 5c97631da708c398" "7 cell e0775717bd7a1495"; do
    set -- $pin
    env -u ES2_THREADS -u ES2_VHOST_WORKERS -u ES2_TCP_WINDOW \
        target/perfbench/release/perfbench --workload "$2" --seed "$1" --seconds 0.1 \
        > /tmp/es2_perfbench.txt
    grep -qx "sim_digest $2 $3" /tmp/es2_perfbench.txt
    tail -n 1 /tmp/es2_perfbench.txt | grep -q '"correct":true'
done
rm -f /tmp/es2_perfbench.txt

# Multi-queue determinism: the sharded-vhost sweep report and its JSON
# must be byte-identical serial (ES2_THREADS=1) vs the default thread count at
# every ES2_VHOST_WORKERS setting — worker count and shard policy are
# model parameters, so reports are only compared within one setting,
# never across two. At one worker the report must also match the
# committed golden: the perfbench pins run one queue per VM, so only
# this report sees how packet ids spread flows over two RX queues.
for vw in 1 4; do
    ES2_VHOST_WORKERS=$vw ES2_THREADS=1 \
        ./target/release/repro --mq --fast > /tmp/es2_mq_serial.txt
    cp target/BENCH_mq_fast.json /tmp/es2_mq_serial.json
    ES2_VHOST_WORKERS=$vw \
        ./target/release/repro --mq --fast > /tmp/es2_mq_default.txt
    cmp /tmp/es2_mq_serial.txt /tmp/es2_mq_default.txt
    cmp /tmp/es2_mq_serial.json target/BENCH_mq_fast.json
    if [ "$vw" = 1 ]; then
        cmp ci/golden_mq_fast.txt /tmp/es2_mq_serial.txt
    fi
    grep -q "PASS" /tmp/es2_mq_serial.txt
    if grep -q "FAIL" /tmp/es2_mq_serial.txt; then
        echo "mq sweep reported a liveness failure (workers=$vw)" >&2
        exit 1
    fi
done
rm -f /tmp/es2_mq_serial.txt /tmp/es2_mq_default.txt /tmp/es2_mq_serial.json

# Single-queue/single-worker byte-identity: with the sharded pool forced
# to one worker, the chaos report (whose params run one queue per VM)
# must reproduce the pre-multi-queue golden prefix exactly — the
# multi-queue machinery costs the legacy configuration zero bytes.
ES2_VHOST_WORKERS=1 ./target/release/repro chaos --fast > /tmp/es2_mq_1q1w.txt
head -n "$(wc -l < ci/golden_chaos_fast.txt)" /tmp/es2_mq_1q1w.txt \
    | cmp ci/golden_chaos_fast.txt -
rm -f /tmp/es2_mq_1q1w.txt

# Telemetry determinism: the windowed fleet-telemetry report (stdout
# and JSON) is built from sim-time quantities only, so it must be
# byte-identical serial (ES2_THREADS=1) vs the default thread count.
ES2_THREADS=1 ./target/release/repro --telemetry --fast > /tmp/es2_tel_serial.txt
cp target/BENCH_telemetry_fast.json /tmp/es2_tel_serial.json
./target/release/repro --telemetry --fast > /tmp/es2_tel_default.txt
cmp /tmp/es2_tel_serial.txt /tmp/es2_tel_default.txt
cmp /tmp/es2_tel_serial.json target/BENCH_telemetry_fast.json
grep -q "SLO breaches" /tmp/es2_tel_serial.txt
rm -f /tmp/es2_tel_serial.txt /tmp/es2_tel_default.txt /tmp/es2_tel_serial.json

# Telemetry must not perturb the simulation: the chaos report is
# byte-identical with the windowed telemetry pipeline on (--telemetered)
# and off — same discipline as the flight recorder's --traced check.
./target/release/repro chaos --fast > /tmp/es2_untelemetered.txt
./target/release/repro chaos --fast --telemetered > /tmp/es2_telemetered.txt
cmp /tmp/es2_untelemetered.txt /tmp/es2_telemetered.txt
rm -f /tmp/es2_untelemetered.txt /tmp/es2_telemetered.txt
