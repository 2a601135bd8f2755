#!/usr/bin/env python3
"""End-to-end benchmark for paradrive.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (release, offline) into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), runs one workload from
the given workload seed, checks its outputs, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones, from a traced replay whose
Chrome trace is validated with the repository's trace_check. Workloads,
metrics and the layer map are documented in perfbench/README.md.
"""

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("table7_hull", "verify_16q", "fleet_drift", "synth_warm")

# Fresh processes timed per run for setup_s, whose median is reported.
# The hull workloads build the coverage stacks cold (about 25 s), so
# they get one; the others set up in seconds or less.
SETUP_SAMPLES = {"table7_hull": 1, "verify_16q": 5, "fleet_drift": 1, "synth_warm": 3}

# The fewest steady-state latency samples a run reports on: at least ten
# beyond the p90.
MIN_REQUESTS = 100

# The stages each workload's traced replay must show.
STAGES = {
    "table7_hull": ["request", "route", "select", "consolidate", "schedule", "coverage.build"],
    "verify_16q": ["request", "route", "select", "consolidate", "schedule",
                   "verify.sampled", "verify.mps"],
    "fleet_drift": ["request", "sweep.plan", "drift.timeline", "policy", "route", "select",
                    "consolidate", "schedule", "coverage.build", "sweep.rollup", "sweep.render"],
    "synth_warm": ["request", "route", "select", "consolidate", "schedule", "coverage.build",
                   "synth"],
}

# Every run must finish well inside 180 s.
DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class RunError(Exception):
    pass


def build(target_dir, deadline):
    """Builds the benchmark binaries; returns the directory holding them."""
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("build timed out")
    if done.returncode != 0:
        raise RunError(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release")


def run_child(args, deadline):
    """Runs one benchmark process; returns (setup seconds, result JSON).

    Setup is timed from just before the spawn to the child's
    `setup-done` line, so it covers process start and the cold request.
    """
    lines = queue.Queue()
    started = time.perf_counter()
    child = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def pump():
        for line in child.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s, last = None, None
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RunError(f"{os.path.basename(args[0])} ran past the deadline")
            try:
                item = lines.get(timeout=left)
            except queue.Empty:
                continue
            if item is None:
                break
            stamp, line = item
            if line == "setup-done" and setup_s is None:
                setup_s = stamp - started
            elif line.strip():
                last = line
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reader.join(timeout=5)
    if code != 0:
        raise RunError(f"benchmark process exited with code {code}")
    if setup_s is None or last is None:
        raise RunError("benchmark process printed no result")
    return setup_s, json.loads(last)


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank, as the repository's trace rollups use."""
    idx = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values)))) - 1
    return sorted_values[idx]


def interquartile_mean(sorted_values):
    """The mean of the middle half: the fastest and slowest quarters are left out."""
    quarter = len(sorted_values) // 4
    return statistics.fmean(sorted_values[quarter:len(sorted_values) - quarter])


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    for needed in ("crates/engine/Cargo.toml", "crates/repro/Cargo.toml", "Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from a paradrive checkout")
            return 2
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        bin_dir = build(target_dir, deadline)
        perfbench = os.path.join(bin_dir, "perfbench")
        common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
        failures = []
        if a.trace:
            out_dir = os.path.join(target_dir, "perfbench")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{a.workload}-{a.seed}.json")
            _, result = run_child([perfbench, *common, "--mode", "trace",
                                   "--trace-out", trace_path], deadline)
            stages = [arg for s in STAGES[a.workload] for arg in ("--expect-stage", s)]
            check = subprocess.run([os.path.join(bin_dir, "trace_check"), trace_path, *stages],
                                   cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=max(1.0, deadline - time.monotonic()))
            if check.returncode != 0:
                failures.append("trace_check rejected the traced run")
            results = [result]
            metrics = result["metrics"]
        else:
            setup_s, result = run_child([perfbench, *common, "--mode", "run"], deadline)
            setups = [setup_s]
            results = [result]
            for _ in range(SETUP_SAMPLES[a.workload] - 1):
                s, r = run_child([perfbench, *common, "--mode", "setup"], deadline)
                setups.append(s)
                results.append(r)
            lat = sorted(result["latencies_ms"])
            if not lat:
                raise RunError("no steady-state latency samples")
            if len(lat) < MIN_REQUESTS:
                failures.append(f"only {len(lat)} steady-state latency samples, need {MIN_REQUESTS}")
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "batch_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
                "batch_p90_ms": {"value": nearest_rank(lat, 0.9), "unit": "ms"},
                "circuits_per_s": {"value": result["sampled_jobs"] / (sum(lat) / 1e3),
                                   "unit": "1/s"},
                "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
            log(f"{a.workload} seed {a.seed}: {len(lat)} steady requests sampled, "
                f"{result['stolen']} left out for steal, setups {setups}")
    except (RunError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        failures.extend(r["failures"])
    digests = {r["digest"] for r in results}
    log(f"{a.workload} seed {a.seed}: output digest {sorted(digests)}")
    if len(digests) != 1:
        failures.append(f"processes disagree on the output digest: {sorted(digests)}")
        failed = attempted
    want = expected_digest(a.workload, a.seed)
    if want is not None and digests != {want}:
        failures.append(f"output digest {sorted(digests)} != expected {want}")
        failed = attempted
    if not a.trace:
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    for f in failures:
        log(f"FAILED: {f}")
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
