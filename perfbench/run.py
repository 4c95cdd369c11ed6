#!/usr/bin/env python3
"""Build and run the perfbench workloads; print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, in turn

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
rebuild what changed. The C++ binary prints a human-readable report; this
script relays it and then prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where the metrics are every end_to_end metric of BENCHMARK.json with
--trace 0, and every per_layer metric with --trace 1 (a layer the workload
never calls reads 0 and is listed as bypassed). The exit code is 0 only
when the build succeeded and every correctness check passed.

Seed 1 is the default; seed 20261017 is held out: it was never used while
the workloads were written or tuned, and it passes every check.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
RESULT_PREFIX = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns the binary's result dict or None."""
    (BUILD_DIR / "traces").mkdir(parents=True, exist_ok=True)
    # Paths relative to ROOT keep the service socket's path short: a unix
    # socket path must fit in 108 bytes wherever the checkout lives.
    scratch = BUILD_DIR.relative_to(ROOT)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch),
           "--trace-out", str(scratch / "traces" / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    sys.stdout.flush()
    if result is None:
        log(f"{workload}: perfbench exited {proc.returncode} without a result")
        return None
    result["returncode"] = proc.returncode
    return result


def contract_metrics(spec, result, trace):
    """The metrics BENCHMARK.json promises, or None when one is missing."""
    metrics = {}
    if trace:
        measured = result["per_layer"]
        known = {m["name"] for m in spec["per_layer"]}
        for name in measured:
            if name not in known:
                log(f"per-layer metric {name} is not in BENCHMARK.json")
                return None
        for m in spec["per_layer"]:
            got = measured.get(m["name"])
            if got is None:
                print(f"bypass {m['name']}: {result['workload']} makes no "
                      f"call into this layer; reported as 0")
                value = 0
            else:
                value = got["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        return metrics
    for m in spec["end_to_end"]:
        got = result["slots"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"end-to-end metric {m['name']} missing or in another unit")
            return None
        value = got["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and value > 0):
            log(f"end-to-end metric {m['name']} is not a positive number")
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        result = run_workload(w, args.seed, args.seconds, args.trace)
        if result is None:
            return 3
        metrics = contract_metrics(spec, result, args.trace)
        if metrics is None:
            return 3
        results[w] = (result, metrics)

    correct = all(r["correct"] and r["returncode"] == 0
                  for r, _ in results.values())
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if args.workload == "all":
        print(f"\n{'workload':<12} {'metric':<34} {'value':>14} unit      n")
        for w, (r, _) in results.items():
            for name, v in r["end_to_end"].items():
                print(f"{w:<12} {name:<34} {v['value']:>14.6g} "
                      f"{v['unit']:<9} {v['samples']}")
        metrics = {f"{w}/{name}": value
                   for w, (_, ms) in results.items()
                   for name, value in ms.items()}
    else:
        metrics = results[args.workload][1]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
