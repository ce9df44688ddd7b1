#!/usr/bin/env python3
"""End-to-end benchmark of the LSL simulator.

Builds the simulator libraries, lslsim and the perfbench program from this
checkout's sources into .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload paths_packet --seed 1 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds. --trace 0 prints the
end-to-end metrics of the untraced timed pass; --trace 1 prints the
per-layer metrics of the traced pass and, for the packet workload, checks
its kernel counts against `lslsim --profile` on the same one-transfer
scenario and seed. --workload all runs every workload BENCHMARK.json
registers.
--self-test runs each workload briefly and checks the metric names, units
and exact counts against BENCHMARK.json. The last stdout line is the JSON
result; the exit status is nonzero when any output check fails.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    """BENCHMARK.json: the registered workloads, metrics and run length."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build_env():
    # Keep compiler temporaries inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "scenarios"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: run from a full checkout" % (needed, ROOT))
    env = build_env()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
            "lslsim"]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def run_perfbench(workload, seed, seconds, trace):
    """Run the C++ program; returns (lines, result, exit code, out dir)."""
    out_dir = os.path.join(OUT, "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--repo", ROOT, "--out-dir", out_dir]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    return lines[:-1], result, proc.returncode, out_dir


PROFILE_TOTALS = re.compile(
    r"events executed\s+(\d+) \(scheduled (\d+), cancelled (\d+)\)")
PROFILE_HIGH_WATER = re.compile(r"queue high water\s+(\d+)")
PROFILE_CATEGORY = re.compile(r"^\s{4}(\S+)\s+(\d+)$")


def lslsim_crosscheck(out_dir, workload):
    """Compare the traced pass's kernel counts for one unit with what
    `lslsim --profile` prints for the same one-transfer scenario and seed.
    Returns an error message, or None when they agree."""
    with open(os.path.join(out_dir, "crosscheck_%s.json" % workload)) as f:
        expected = json.load(f)
    proc = subprocess.run(
        [os.path.join(BUILD, "tools", "lslsim"), expected["scenario"],
         "--seed", str(expected["seed"]), "--profile"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    text = proc.stdout
    totals = PROFILE_TOTALS.search(text)
    high_water = PROFILE_HIGH_WATER.search(text)
    if proc.returncode != 0 or not totals or not high_water:
        return "lslsim --profile failed on %s" % expected["scenario"]
    tail = text[text.find("events by category:"):]
    got = {
        "events_executed": int(totals.group(1)),
        "events_scheduled": int(totals.group(2)),
        "events_cancelled": int(totals.group(3)),
        "queue_high_water": int(high_water.group(1)),
        "categories": {m.group(1): int(m.group(2))
                       for m in map(PROFILE_CATEGORY.match,
                                    tail.splitlines()[1:]) if m},
    }
    for key, value in got.items():
        if expected[key] != value:
            return "unit %s: traced %s %s != lslsim --profile %s" % (
                expected["unit"], key, expected[key], value)
    print("  lslsim --profile cross-check: unit %s seed %d, %d events: match"
          % (expected["unit"], expected["seed"], got["events_executed"]))
    return None


def run_workload(workload, seed, seconds, trace):
    """Run one workload and print its report; returns (result, exit code)."""
    lines, result, code, out_dir = run_perfbench(workload, seed, seconds, trace)
    print("\n".join(lines))
    if code == 0 and trace and workload.endswith("_packet"):
        error = lslsim_crosscheck(out_dir, workload)
        if error:
            print("perfbench: check failed: " + error, file=sys.stderr)
            result["correct"] = False
            code = 1
    return result, code


def self_test(spec):
    """Short run of every workload: every metric BENCHMARK.json names is
    emitted with its unit, and two runs at one seed give the same exact
    counts."""
    timing_units = {"s", "ms", "1/s"}
    overheads = {"obs.overhead_ratio", "bench.trace_overhead_ratio"}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for attempt in (0, 1):
                result, code = run_workload(workload, 7, 1, trace)
                runs[(trace, attempt)] = result
                if code != 0 or not result["correct"]:
                    problems.append("%s trace %d: checks failed"
                                    % (workload, trace))
                for metric in spec[section]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        problems.append("%s trace %d: %s missing or not in %s"
                                        % (workload, trace, metric["name"],
                                           metric["unit"]))
            exact = [m["name"] for m in spec[section]
                     if m["unit"] not in timing_units
                     and m["name"] not in overheads
                     and m["name"] != "peak_rss_mib"]
            for name in exact:
                a = runs[(trace, 0)]["metrics"].get(name, {}).get("value")
                b = runs[(trace, 1)]["metrics"].get(name, {}).get("value")
                if a != b:
                    problems.append("%s: exact count %s differs between two "
                                    "runs at seed 7: %s vs %s"
                                    % (workload, name, a, b))
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")
    build()
    if args.self_test:
        return self_test(spec)
    if args.workload != "all":
        workloads = [args.workload]
    status = 0
    for workload in workloads:
        result, code = run_workload(workload, args.seed, args.seconds,
                                    args.trace)
        print(json.dumps(result))
        sys.stdout.flush()
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
