#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library sources under src/ plus the driver in
perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr.

For one workload the last line of stdout is the driver's result object,
{"correct", "attempted", "failed", "metrics"}: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. The
metric names are checked against BENCHMARK.json before the line is printed.

--workload all runs every workload in turn and prints each metric by name,
unit and value in one table, then the per-workload results as one JSON line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        fail("run from a repository checkout: src/ and BENCHMARK.json are "
             "needed to build the benchmark")
    out = build_dir()
    cmd = ["cmake", "-S", str(HERE), "-B", str(out)]
    if not (out / "CMakeCache.txt").exists():
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        # The library's default build type, so the measured code is
        # optimized the way the repository ships it.
        cmd += ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    jobs = str(os.cpu_count() or 1)
    for step in (cmd, ["cmake", "--build", str(out), "-j", jobs]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def run_one(binary, workload, seed, seconds, trace, spec):
    work = build_dir() / "work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)  # host fingerprint
    result = json.loads(lines[-1])
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if list(result["metrics"]) != want:
        fail(f"{workload} printed metrics {list(result['metrics'])}, "
             f"BENCHMARK.json lists {want}")
    return result, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            fail(f"unknown workload {args.workload!r}; choose from {names}")
        _, line = run_one(binary, args.workload, args.seed, args.seconds,
                          args.trace, spec)
        print(line)
        return

    results = {}
    for w in names:
        results[w], _ = run_one(binary, w, args.seed, args.seconds,
                                args.trace, spec)
    print(f"{'workload':<16} {'metric':<44} {'value':>16}  unit")
    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:<16} {name:<44} {m['value']:>16.6g}  {m['unit']}")
        print(f"{w:<16} {'correct / attempted / failed':<44} "
              f"{str(res['correct']):>16}  "
              f"{res['attempted']} / {res['failed']}")
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
