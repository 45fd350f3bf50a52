#!/usr/bin/env sh
# Tier-1 verification: release build, full test suite, clippy at zero
# warnings, and the chaos-determinism check. Run from the repository root.
#
# Sweep parallelism during tests/benches respects ES2_THREADS
# (default: all cores; ES2_THREADS=1 forces fully serial sweeps — useful
# for bisecting any suspected executor interaction, though results are
# bitwise identical at any thread count by construction).
set -eux

cargo build --release
cargo test -q
cargo clippy -q --workspace -- -D warnings

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

# Scale-sweep determinism: the consolidation report (simulation-determined
# quantities only) must also be byte-identical serial vs default threads,
# with lazy-timer elision leaving the liveness invariants green.
ES2_THREADS=1 ./target/release/repro --scale --fast > /tmp/es2_scale_serial.txt
./target/release/repro --scale --fast > /tmp/es2_scale_default.txt
cmp /tmp/es2_scale_serial.txt /tmp/es2_scale_default.txt
grep -q "PASS (0 violations)" /tmp/es2_scale_serial.txt
rm -f /tmp/es2_scale_serial.txt /tmp/es2_scale_default.txt

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

# Hostile-guest determinism + containment: the blast-radius report is
# built from simulation-determined quantities only, so it must be
# byte-identical serial vs default threads; the run must stay
# liveness-clean and the storm/quarantine damage must land on the
# hostile VM alone.
ES2_THREADS=1 ./target/release/repro --hostile --fast > /tmp/es2_hostile_serial.txt
./target/release/repro --hostile --fast > /tmp/es2_hostile_default.txt
cmp /tmp/es2_hostile_serial.txt /tmp/es2_hostile_default.txt
grep -q "liveness: PASS" /tmp/es2_hostile_serial.txt
grep -q "leaked to neighbors: 0" /tmp/es2_hostile_serial.txt
rm -f /tmp/es2_hostile_serial.txt /tmp/es2_hostile_default.txt

# Multi-host cell determinism: the consolidation/migration report runs
# N host machines on one serial event merge with live migrations,
# crashes and aborts crossing between them, and must be byte-identical
# serial (ES2_THREADS=1) vs the default thread count.
# Every migration in the sweep must resume, and the report must stay
# liveness-clean.
ES2_THREADS=1 ./target/release/repro --migrate --fast > /tmp/es2_migrate_serial.txt
./target/release/repro --migrate --fast > /tmp/es2_migrate_default.txt
cmp /tmp/es2_migrate_serial.txt /tmp/es2_migrate_default.txt
grep -q "PASS" /tmp/es2_migrate_serial.txt
if grep -q "FAIL" /tmp/es2_migrate_serial.txt; then
    echo "migrate sweep reported a liveness failure" >&2
    exit 1
fi
rm -f /tmp/es2_migrate_serial.txt /tmp/es2_migrate_default.txt

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
# built from simulation-determined quantities only, so it must be
# byte-identical serial (ES2_THREADS=1) vs the default thread count.
# The report must stay liveness-clean with zero orphaned resources in
# every cell.
ES2_THREADS=1 ./target/release/repro --churn --fast > /tmp/es2_churn_serial.txt
./target/release/repro --churn --fast > /tmp/es2_churn_default.txt
cmp /tmp/es2_churn_serial.txt /tmp/es2_churn_default.txt
grep -q "PASS" /tmp/es2_churn_serial.txt
if grep -q "FAIL" /tmp/es2_churn_serial.txt; then
    echo "churn sweep reported a liveness failure" >&2
    exit 1
fi
rm -f /tmp/es2_churn_serial.txt /tmp/es2_churn_default.txt

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

# Bench regression gate: structured tolerance bands over the committed
# BENCH_*.json artifacts (ci/bench_gate.rs). Everything sim-determined
# is fatal here — this replaces the former non-fatal awk tripwires for
# migration blackout and the mq passthrough/mux ratio.
# The one wall-clock metric (fresh fast-sweep events/sec vs the
# committed 2x-margined floor) stays a warning inside the gate.
./target/release/bench_gate

# Multi-queue determinism: the sharded-vhost sweep report must be
# byte-identical serial (ES2_THREADS=1) vs the default thread count at
# every ES2_VHOST_WORKERS setting — worker count and shard policy are
# model parameters, so reports are only compared within one setting,
# never across two.
for vw in 1 4; do
    ES2_VHOST_WORKERS=$vw ES2_THREADS=1 \
        ./target/release/repro --mq --fast > /tmp/es2_mq_serial.txt
    ES2_VHOST_WORKERS=$vw \
        ./target/release/repro --mq --fast > /tmp/es2_mq_default.txt
    cmp /tmp/es2_mq_serial.txt /tmp/es2_mq_default.txt
    grep -q "PASS" /tmp/es2_mq_serial.txt
    if grep -q "FAIL" /tmp/es2_mq_serial.txt; then
        echo "mq sweep reported a liveness failure (workers=$vw)" >&2
        exit 1
    fi
done
rm -f /tmp/es2_mq_serial.txt /tmp/es2_mq_default.txt

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
