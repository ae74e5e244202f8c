#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload at a tiny population
for one second, untraced and traced, and fails unless each run passes its
checks and prints exactly the metric names BENCHMARK.json lists for its
mode (end_to_end untraced, per_layer traced), with the declared units.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   w, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            tag = f"{w} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                problems.append(f"{tag}: no JSON result line")
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{tag}: run failed (exit {proc.returncode})")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            want = declared[trace]
            for name in sorted(set(got) - set(want)):
                problems.append(f"{tag}: prints {name}, not in BENCHMARK.json")
            for name in sorted(set(want) - set(got)):
                problems.append(f"{tag}: BENCHMARK.json lists {name}, not printed")
            for name in sorted(set(got) & set(want)):
                if got[name] != want[name]:
                    problems.append(f"{tag}: {name} unit {got[name]} != {want[name]}")
            print(f"{tag}: {len(got)} metrics, attempted {result.get('attempted')}")
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
