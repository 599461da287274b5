#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One workload:
    python3 perfbench/run.py --workload eq1-kdd --seed 1 --seconds 20 --trace 0
Every workload, each in its own process, with a readable table:
    python3 perfbench/run.py --workload all

The benchmark binary is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; build output goes to
stderr. The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
and writes the spans as a Chrome/Perfetto trace (see README.md).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["eq1-kdd", "scripts-higgs", "serve-mixed"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return None
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")  # keep compiler temporaries in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    return os.path.join(bdir, "perfbench")


def expected_metrics(trace):
    """{name: unit} BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, trace_out=None,
                 perturb=0):
    """Runs one workload in a fresh process.

    Returns (result dict or None, captured stderr)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if perturb:
        cmd += ["--perturb", str(perturb)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, (e.stderr or b"").decode(errors="replace")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"{workload}: no result (exit code {proc.returncode})")
    return result, proc.stderr


def validate(result, trace):
    """Problems with a result's shape, as a list of strings."""
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = expected_metrics(trace)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if want is not None and got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(want.items()) ^ set(got.items()))}")
    return problems


def print_table(workload, result):
    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-out", default=None,
                    help="span file (default: <build dir>/trace-<workload>"
                         "-<seed>.json)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        trace_out = None
        if args.trace:
            trace_out = args.trace_out or os.path.join(
                build_dir(), f"trace-{w}-{args.seed}.json")
        result, err = run_workload(binary, w, args.seed, args.seconds,
                                   args.trace == 1, trace_out)
        sys.stderr.write(err)
        if result is None:
            return 1
        problems = validate(result, args.trace == 1)
        for p in problems:
            log(f"{w}: {p}")
        if problems:
            return 1
        if trace_out:
            log(f"{w}: spans written to {trace_out}")
        results[w] = result

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        for w, r in results.items():
            print_table(w, r)
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
