#!/usr/bin/env python3
"""Builds and runs the AReplica benchmark for one workload.

    python3 perfbench/run.py --workload trace_replay --seed 2026 --seconds 10 --trace 0

Run from the repository root. The benchmark package is built from source
(`cargo build --release`, into `$CARGO_TARGET_DIR` or `perfbench/target`).

--trace 0 measures untraced repetitions and prints the end-to-end metrics;
--trace 1 makes a traced run (the benchmark's own spans, the planner probe
and one run with the simulator's tracer on) and prints the per-layer
metrics. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Gates that make a run incorrect (exit code 1):
  * the correctness oracle found a diverged replica, an open multipart
    upload or a consumer read of a version the source never wrote;
  * the simulated metrics or a count differ between repetitions, between
    traced and untraced runs, or from an earlier run of the same binary and
    seed (kept in perfbench/out/fingerprints.json).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ["trace_replay", "bulk_fanout", "hot_overwrite", "sharded_replay"]
# Seconds one binary invocation may take before the run is abandoned.
STEP_TIMEOUT_S = 170
# Share of the traced run's wall-clock its span self times may miss (the
# two clock reads outside the root span).
SELF_TIME_TOLERANCE = 1e-3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest):
        fail("perfbench/Cargo.toml is missing")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def invoke(binary, args):
    """Runs the binary and returns the JSON of its `PERFBENCH` line."""
    try:
        res = subprocess.run(
            [binary, *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} took longer than {STEP_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"{' '.join(args)} exited with {res.returncode}")
    for line in reversed(res.stdout.splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    fail("the benchmark binary printed no result")


def host_facts(args, size):
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], stdout=subprocess.PIPE, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "profile": "release",
        "seed": args.seed,
        "workload": args.workload,
        "size": size,
    }


def check_ledger(binary, workload, seed, fingerprint):
    """Compares `fingerprint` with earlier runs of the same binary and seed."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "fingerprints.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    key = f"{build_id}/{workload}/{seed}"
    seen = ledger.get(key)
    if seen is not None and seen != fingerprint:
        return f"differs from an earlier run of this binary and seed:\n  {seen}\n  {fingerprint}"
    ledger[key] = fingerprint
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def select(metrics, wanted):
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    problems = []

    if args.trace == 0:
        res = invoke(binary, common + ["--mode", "run"])
        metrics = res["metrics"]
        wanted = spec["end_to_end"]
    else:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        res = invoke(binary, common + ["--mode", "traced", "--spans-out", spans])
        sim = invoke(binary, common + ["--mode", "simtrace"])
        if sim["fingerprint"] != res["fingerprint"]:
            problems.append(
                "the run with the simulator's tracer on diverged:\n"
                f"  {res['fingerprint']}\n  {sim['fingerprint']}"
            )
        metrics = dict(res["metrics"])
        metrics["simtrace.overhead_ratio"] = {
            "value": sim["replay_s"] / res["untraced_replay_s"],
            "unit": "ratio",
        }
        metrics["simtrace.rss_mb"] = {"value": sim["peak_rss_mb"], "unit": "MB"}
        # traced.wall_s is read outside the span recorder, around the whole
        # traced work; the self times must account for all of it.
        wall = metrics["traced.wall_s"]["value"]
        self_sum = metrics["traced.self_time_sum_s"]["value"]
        if abs(wall - self_sum) > SELF_TIME_TOLERANCE * wall:
            problems.append(f"span self times sum to {self_sum} s, not the wall-clock {wall} s")
        problems.extend(f"spans: {p}" for p in res["span_problems"])
        log(f"spans written to {os.path.relpath(spans, ROOT)}; self time by span:")
        for row in res["self_times"]:
            log(f"  {row['span']:<16} {row['self_s']:10.4f} s  x{row['count']}")
        wanted = spec["per_layer"]

    err = check_ledger(binary, args.workload, args.seed, res["fingerprint"])
    if err:
        problems.append(err)
    for f in res["oracle_failures"]:
        problems.append(f"oracle: {f}")

    attempted = res["writes"] + res["reads"]
    failed = res["failed"]
    correct = failed == 0 and not problems
    print("host: " + json.dumps(host_facts(args, res["size"]), sort_keys=True))
    print(
        f"delay samples: {res['delay_samples']}; sim_delay_tail_s is "
        f"{res['tail_percentile']} ({res['tail_beyond']} samples beyond it)"
    )
    print(f"failed_ratio: {failed / attempted} ({failed} of {attempted} operations)")
    for name, m in sorted(metrics.items()):
        print(f"  {name:<34} {m['value']:>20.6f} {m['unit']}")
    for p in problems:
        print(f"PROBLEM: {p}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(metrics, wanted),
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
