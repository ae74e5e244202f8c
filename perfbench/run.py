#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and the repository
libraries it links) into .bench_build/, runs one workload, and prints the
run environment, every metric with its unit and sample count, and, as the
last line, one JSON result.  `--workload all` runs every workload in turn.
Exit status is non-zero when the build fails or any check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grow_churn", "publish_fanout", "serve_mixed"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build the perfbench target (a no-op when
    nothing changed).  Build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile appears only after a configure that succeeded.
    if not os.path.exists(os.path.join(out_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if res.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_avg():
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def run_one(binary, out_dir, args, workload):
    results = os.path.join(out_dir, "results")
    traces = os.path.join(out_dir, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    sheet_path = os.path.join(results, tag + ".sheet.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sheet-out", sheet_path]
    if args.trace == 1:
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.trace.json")]
    if args.tiny:
        cmd.append("--tiny")

    env = {"seed": args.seed, "workload": workload, "trace": args.trace,
           "nproc": os.cpu_count(), "cpu_model": cpu_model(),
           "loadavg_start": load_avg()}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return False, None
    env["loadavg_end"] = load_avg()

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: {workload} printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return False, None

    print("env " + json.dumps(env, sort_keys=True))
    if args.trace == 1:
        for line in trace_overhead(results, workload, args.seed, sheet_path):
            print(line)
    print("\n".join(lines), flush=True)
    try:
        with open(os.path.join(results, tag + ".json"), "w") as f:
            json.dump({"env": env, "result": result}, f, indent=1)
    except OSError:
        pass
    return proc.returncode == 0 and result.get("correct") is True, True


def trace_overhead(results, workload, seed, traced_sheet):
    """Compare the traced run's end-to-end figures with the last untraced
    run of the same workload and seed, when one exists."""
    untraced = os.path.join(results, f"{workload}-seed{seed}-trace0.sheet.json")
    try:
        with open(untraced) as f:
            base = json.load(f)["metrics"]
        with open(traced_sheet) as f:
            traced = json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        return ["  tracing overhead: no untraced run of this seed to compare"]
    out = ["  tracing overhead vs the untraced run of this seed:"]
    for name in ("joins_per_s", "events_per_s", "batch_events_per_s"):
        if name in base and name in traced and base[name]["value"] > 0:
            change = traced[name]["value"] / base[name]["value"] - 1.0
            out.append(f"    {name:<20} {change:+.2%}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke scale: tiny populations")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok_all = True
    for w in workloads:
        ok, printed = run_one(binary, out_dir, args, w)
        if printed is None:
            return 1
        ok_all = ok_all and ok
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
