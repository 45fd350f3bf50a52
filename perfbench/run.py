#!/usr/bin/env python3
"""Build and run the ES2 simulator benchmark. See README.md next to this file.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 builds the plain benchmark and prints the end-to-end metrics.
--trace 1 runs the plain form for half the time, to get the untraced wall
time and the digest of the simulated results, then the traced form (built
with the testbed's ev-profile feature) for the other half, and prints the
per-layer metrics. Either way the last line of stdout is the JSON result.

The build goes to $CARGO_TARGET_DIR (default: perfbench/target). Every ES2_*
variable is removed from the benchmark's environment, so the executors run
at their defaults.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end well within 180 s, builds excluded.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target, traced):
    cmd = ["cargo", "build", "--release", "--offline",
           "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target]
    if traced:
        cmd += ["--features", "ev-profile"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def run(binary, args, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the run started")
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} did not finish in time")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with {r.returncode}")
    return lines, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["sweep", "dense", "cell"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if not 0 < a.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    if not os.path.isfile(os.path.join(ROOT, "crates", "testbed", "Cargo.toml")):
        fail("the simulator sources (crates/) are not next to perfbench/")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ES2_")}
    common = ["--workload", a.workload, "--seed", str(a.seed), "--git-rev", git_rev()]

    plain = build(target, traced=False)
    if a.trace:
        # Both builds come first: cargo re-links the one binary path per
        # feature set, so copy the plain one aside.
        plain_copy = plain + "-plain"
        shutil.copy2(plain, plain_copy)
        plain, traced = plain_copy, build(target, traced=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not a.trace:
        lines, _ = run(plain, common + ["--seconds", str(a.seconds)], env, deadline)
        print("\n".join(lines))
        return

    half = str(a.seconds / 2)
    lines, untraced = run(plain, common + ["--seconds", half], env, deadline)
    print("\n".join("untraced " + l for l in lines[:-1]), file=sys.stderr)
    digest = next(l.split()[-1] for l in lines if l.startswith("sim_digest "))

    spans_dir = os.path.join(target, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.jsonl")
    lines, result = run(traced, common + [
        "--seconds", half,
        "--spans-out", spans,
        "--untraced-wall", repr(untraced["metrics"]["wall_s"]["value"]),
        "--expect-digest", digest,
    ], env, deadline)
    if not untraced["correct"]:
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
