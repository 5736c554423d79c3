#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload and the traced run at a
tiny size, in well under a minute once dhnsw_perf is built.

    python3 perfbench/smoke_test.py

rerank_tcp, which the program runs but BENCHMARK.json does not list (README.md
says why), is smoke-tested too.

Checks, failing with exit code 1 on the first problem:
  - BENCHMARK.json is well formed: names use only [A-Za-z0-9_.-], units are
    valid, bounds are at most 0.25 and setup_s is declared;
  - every workload, rerank_tcp too, passes its correctness checks with
    --trace 0 and 1;
  - every emitted metric is declared in BENCHMARK.json with the same unit,
    and every declared metric is emitted;
  - each listed workload's recall floor is the one quoted in its
    BENCHMARK.json why;
  - two same-seed runs report identical deterministic counters, and a
    different seed generates different inputs.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import NAME_RE, ROOT, UNIT_RE, check_metrics  # noqa: E402

COUNTERS = ["counters.round_trips", "counters.bytes_read", "counters.clusters_loaded",
            "counters.cache_hits", "counters.unique_clusters", "counters.rerank_reads"]
# Workloads the program runs by hand that BENCHMARK.json does not list.
UNLISTED = ["rerank_tcp"]


def fail(msg):
    print(f"smoke_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_build", "perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        saved = json.load(f)
    return result, saved["detail"]


def check_spec(spec):
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for row in spec[section]:
            name = row["name"]
            if not NAME_RE.match(name) or name in seen:
                fail(f"bad or duplicate name {name!r} in {section}")
            seen.add(name)
            if "unit" in row and not UNIT_RE.match(row["unit"]):
                fail(f"bad unit {row['unit']!r} for {name}")
            if "bound" in row and not 0 < row["bound"] <= 0.25:
                fail(f"bound of {name} outside (0, 0.25]")
    if not any(r["name"] == "setup_s" and r["unit"] == "s" and r["better"] == "lower"
               for r in spec["end_to_end"]):
        fail("setup_s is not declared")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    declared = {0: {r["name"]: r["unit"] for r in spec["end_to_end"]},
                1: {r["name"]: r["unit"] for r in spec["per_layer"]}}

    traced = {}
    for w in spec["workloads"] + [{"name": name, "why": None} for name in UNLISTED]:
        floor = re.search(r"recall floor ([0-9.]+)", w["why"]) if w["why"] else None
        for trace in (0, 1):
            result, detail = run(w["name"], trace, 1)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w['name']} trace={trace}: {result}")
            metrics = result["metrics"]
            problems = check_metrics(metrics, declared[trace])
            if problems:
                fail(f"{w['name']} trace={trace}: " + "; ".join(problems))
            if w["why"] and (floor is None or
                             abs(float(floor.group(1)) - detail["recall_floor"]) > 1e-9):
                fail(f"{w['name']}: recall floor {detail['recall_floor']} is not the one "
                     "quoted in BENCHMARK.json")
            if trace == 1:
                if metrics["trace.diverged_batches"]["value"] != 0:
                    fail(f"{w['name']}: replay diverged")
                traced[w["name"]] = (metrics, detail)
        print(f"smoke_test: {w['name']} ok", flush=True)

    first = spec["workloads"][0]["name"]
    again, again_detail = run(first, 1, 1)
    for name in COUNTERS:
        if again["metrics"][name]["value"] != traced[first][0][name]["value"]:
            fail(f"{name} differs between two seed-1 runs of {first}")
    if again_detail["input_fingerprint"] != traced[first][1]["input_fingerprint"]:
        fail("same seed generated different inputs")
    _, other = run(first, 0, 2)
    if other["input_fingerprint"] == traced[first][1]["input_fingerprint"]:
        fail("seed 2 generated the same inputs as seed 1")
    print("smoke_test: deterministic counters and seed handling ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
