#!/usr/bin/env python3
"""Build and run the perf benchmark (workloads and metrics: perfbench/NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # every workload, tiny inputs, both modes

Builds the repository's libraries and pga_perfbench from source into
.bench_build/ at the repository root (a no-op once built), runs one
workload and prints its JSON result as the last line of stdout. With
--trace 0 the result holds every end_to_end metric of BENCHMARK.json; with
--trace 1 every per_layer metric, where a layer the workload does not
exercise reads 0. Exits non-zero when the build fails, an output check
fails or the result does not match BENCHMARK.json; it prints no result when
the build or the run itself fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pga_perfbench")
WORKLOADS = ("assembly", "fleet-burst", "fleet-stream")


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_one(workload, seed, seconds, trace, smoke):
    """Runs pga_perfbench once; returns (exit code, validated result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(BUILD, "traces"),
           "--work-dir", os.path.join(BUILD, "work")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: {workload}: no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    end_to_end, per_layer = load_spec()
    wanted = {m["name"]: m["unit"] for m in (per_layer if trace else end_to_end)}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(wanted))
    missing = sorted(set(wanted) - set(metrics))
    bad_units = sorted(n for n in metrics if n in wanted and metrics[n]["unit"] != wanted[n])
    if unknown or bad_units or (missing and not trace):
        print(f"run.py: {workload}: metrics disagree with BENCHMARK.json "
              f"(unknown {unknown}, missing {missing}, wrong unit {bad_units})",
              file=sys.stderr)
        return 1, None
    # Layers this workload does not exercise did no work.
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": unit})
                         for name, unit in wanted.items()}
    code = proc.returncode
    if code == 0 and not result["correct"]:
        code = 1
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, run every "
                             "workload in both modes as a self-test")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    if args.workload is None:
        failures = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, result = run_one(workload, args.seed, 0.2, trace, True)
                ok = code == 0 and result is not None
                print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}")
                failures += not ok
        return 1 if failures else 0

    code, result = run_one(args.workload, args.seed, args.seconds, args.trace,
                           args.smoke)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
