#!/usr/bin/env python3
"""Builds and runs the d-HNSW benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_sift --seed 1 --seconds 10 --trace 0

The first call configures and compiles the library and the benchmark program
(perfbench/CMakeLists.txt, Release) into .bench_build/; later calls reuse the
build. The program's metrics are checked against BENCHMARK.json (every declared
metric present with its declared unit, nothing undeclared), stamped with a
machine fingerprint and saved under .bench_build/perfbench/results/. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when the run's
correctness checks passed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DETAIL_PREFIX = "PERFBENCH_DETAIL "
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-build")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "dhnsw_perf")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_metrics(metrics, declared):
    """Returns a list of problems; empty when the metrics match the declaration."""
    problems = []
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} uses characters outside [A-Za-z0-9_.-]")
        if name not in declared:
            problems.append(f"metric {name!r} is not declared in BENCHMARK.json")
        elif entry.get("unit") != declared[name]:
            problems.append(f"metric {name!r} has unit {entry.get('unit')!r}, "
                            f"declared {declared[name]!r}")
        if not UNIT_RE.match(str(entry.get("unit", ""))):
            problems.append(f"metric {name!r} has an invalid unit")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {name!r} has a non-numeric value")
    for name in declared:
        if name not in metrics:
            problems.append(f"declared metric {name!r} was not emitted")
    return problems


def cpu_info():
    model, mhz = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = val.strip()
                if key.strip() == "cpu MHz" and mhz == "unknown":
                    mhz = val.strip()
    except OSError:
        pass
    return model, mhz


def cpu_ticks():
    """Returns (steal, total) jiffies summed over all CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]), sum(int(x) for x in fields[1:])


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def fingerprint(detail):
    model, mhz = cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "kernel_tier": detail.get("simd_tier"),
        "transport": detail.get("transport"),
        "nic_source": detail.get("nic_source"),
        "build_type": detail.get("build_type"),
        "git_commit": git_commit(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out", out_dir]
    started = time.time()
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"dhnsw_perf exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    detail_lines = [ln for ln in lines if ln.startswith(DETAIL_PREFIX)]
    if proc.returncode not in (0, 1) or not lines or not detail_lines:
        log(f"dhnsw_perf exited with code {proc.returncode} without a result")
        return 1
    try:
        result = json.loads(lines[-1])
        detail = json.loads(detail_lines[-1][len(DETAIL_PREFIX):])
    except json.JSONDecodeError as e:
        log(f"unparsable dhnsw_perf output: {e}")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"result has keys {sorted(result)}")
        return 1
    problems = check_metrics(result["metrics"], declared_metrics(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1

    fp = fingerprint(detail)
    # The share of the guest's CPU time the hypervisor gave to others during
    # the run. Latency on the open loop rises with it (see README.md).
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        fp["host_steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "detail": detail, "result": result,
                   "wall_s": time.time() - started}, f, indent=1)

    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
